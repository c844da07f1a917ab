#include <gtest/gtest.h>

#include "app/servants.hpp"
#include "orb/adapter.hpp"

namespace eternal::app {
namespace {

using orb::PlainContext;

/// Run a sync operation directly on a servant (no infrastructure).
cdr::Bytes call(rep::Replica& servant, const std::string& op,
                const cdr::Bytes& args) {
  PlainContext ctx(100, 1);
  cdr::Decoder in(args);
  cdr::Arena arena;
  cdr::Writer out(arena);
  orb::Task t = servant.dispatch(op, ctx, in, out);
  EXPECT_TRUE(t.done());
  std::exception_ptr failure;
  t.on_complete([&](std::exception_ptr e) { failure = e; });
  if (failure) std::rethrow_exception(failure);
  return cdr::Bytes(out.written().begin(), out.written().end());
}

cdr::Bytes i64(std::int64_t v) {
  return cdr::make_bytes([&](cdr::Writer& w) {
    w.put_longlong(v);
  });
}

template <typename T>
cdr::Bytes state_of(const T& servant) {
  return cdr::make_bytes([&](cdr::Writer& w) { servant.get_state(w); });
}

TEST(CounterServant, IncrSetGet) {
  Counter c;
  const cdr::Bytes r1_bytes = call(c, "incr", i64(5));
  cdr::Decoder r1(r1_bytes);
  EXPECT_EQ(r1.get_longlong(), 5);
  call(c, "set", i64(100));
  EXPECT_EQ(c.value(), 100);
  const cdr::Bytes r2_bytes = call(c, "get", {});
  cdr::Decoder r2(r2_bytes);
  EXPECT_EQ(r2.get_longlong(), 100);
}

TEST(CounterServant, StateRoundTrip) {
  Counter a, b;
  call(a, "incr", i64(7));
  call(a, "incr", i64(8));
  cdr::Bytes st = state_of(a);
  cdr::Decoder dec(st);
  b.set_state(dec);
  EXPECT_EQ(b.value(), 15);
  EXPECT_EQ(state_of(b), st);  // ops counter restored too
}

TEST(AccountServant, OverdraftThrowsNoFunds) {
  Account a;
  call(a, "deposit", i64(50));
  EXPECT_THROW(call(a, "withdraw", i64(51)), orb::SystemException);
  EXPECT_EQ(a.balance(), 50);  // unchanged after the failed withdrawal
  const cdr::Bytes r_bytes = call(a, "withdraw", i64(50));
  cdr::Decoder r(r_bytes);
  EXPECT_EQ(r.get_longlong(), 0);
}

TEST(InventoryServant, SellAndManufacture) {
  Inventory inv;
  call(inv, "manufacture", i64(2));
  const cdr::Bytes r1_bytes = call(inv, "sell", {});
  cdr::Decoder r1(r1_bytes);
  EXPECT_EQ(r1.get_string(), "shipped");
  const cdr::Bytes r2_bytes = call(inv, "sell", {});
  cdr::Decoder r2(r2_bytes);
  EXPECT_EQ(r2.get_string(), "shipped");
  const cdr::Bytes r3_bytes = call(inv, "sell", {});
  cdr::Decoder r3(r3_bytes);
  EXPECT_EQ(r3.get_string(), "back-ordered");
  EXPECT_EQ(inv.stock(), 0);
  EXPECT_EQ(inv.shipped(), 2);
  EXPECT_EQ(inv.back_orders(), 1);
  EXPECT_EQ(inv.rush_orders(), 0);  // rush orders only on fulfillment
}

TEST(InventoryServant, StateRoundTrip) {
  Inventory a, b;
  call(a, "manufacture", i64(5));
  call(a, "sell", {});
  cdr::Bytes st = state_of(a);
  cdr::Decoder dec(st);
  b.set_state(dec);
  EXPECT_EQ(b.stock(), 4);
  EXPECT_EQ(b.shipped(), 1);
}

TEST(KvServant, PutGetDel) {
  KvStore kv;
  const cdr::Bytes put = cdr::make_bytes([&](cdr::Writer& w) {
    w.put_string("k");
    w.put_string("v");
  });
  call(kv, "put", put);
  const cdr::Bytes get = cdr::make_bytes([&](cdr::Writer& w) {
    w.put_string("k");
  });
  const cdr::Bytes r_bytes = call(kv, "get", get);
  cdr::Decoder r(r_bytes);
  EXPECT_TRUE(r.get_boolean());
  EXPECT_EQ(r.get_string(), "v");
  const cdr::Bytes del = cdr::make_bytes([&](cdr::Writer& w) {
    w.put_string("k");
  });
  const cdr::Bytes d_bytes = call(kv, "del", del);
  cdr::Decoder d(d_bytes);
  EXPECT_TRUE(d.get_boolean());
  EXPECT_EQ(kv.size(), 0u);
}

TEST(KvServant, IncrementalUpdateShipsOnlyTouchedKey) {
  KvStore primary, backup;
  // Build identical base state.
  for (auto* kv : {&primary, &backup}) {
    const cdr::Bytes fill = cdr::make_bytes([&](cdr::Writer& w) {
      w.put_ulonglong(100);
      w.put_ulonglong(32);
    });
    call(*kv, "fill", fill);
  }
  // Mutate the primary; ship the postimage to the backup.
  const cdr::Bytes put = cdr::make_bytes([&](cdr::Writer& w) {
    w.put_string("hot");
    w.put_string("new-value");
  });
  call(primary, "put", put);

  const cdr::Bytes update = cdr::make_bytes(
      [&](cdr::Writer& w) { primary.get_update("put", w); });
  // Incremental: far smaller than the full state.
  EXPECT_LT(update.size(), state_of(primary).size() / 10);

  cdr::Decoder dec(update);
  backup.apply_update("put", dec);
  EXPECT_EQ(backup.data(), primary.data());
}

TEST(KvServant, IncrementalDeleteUpdate) {
  KvStore primary, backup;
  for (auto* kv : {&primary, &backup}) {
    const cdr::Bytes put = cdr::make_bytes([&](cdr::Writer& w) {
      w.put_string("k");
      w.put_string("v");
    });
    call(*kv, "put", put);
  }
  const cdr::Bytes del = cdr::make_bytes([&](cdr::Writer& w) {
    w.put_string("k");
  });
  call(primary, "del", del);
  const cdr::Bytes update = cdr::make_bytes(
      [&](cdr::Writer& w) { primary.get_update("del", w); });
  cdr::Decoder dec(update);
  backup.apply_update("del", dec);
  EXPECT_EQ(backup.size(), 0u);
}

TEST(KvServant, FillShipsFullState) {
  KvStore primary, backup;
  const cdr::Bytes fill = cdr::make_bytes([&](cdr::Writer& w) {
    w.put_ulonglong(10);
    w.put_ulonglong(8);
  });
  call(primary, "fill", fill);
  const cdr::Bytes update = cdr::make_bytes(
      [&](cdr::Writer& w) { primary.get_update("fill", w); });
  cdr::Decoder dec(update);
  backup.apply_update("fill", dec);
  EXPECT_EQ(backup.data(), primary.data());
}

TEST(NondetServant, UsesSanitizedServices) {
  NondetProbe probe;
  const cdr::Bytes r_bytes = call(probe, "sample", {});
  cdr::Decoder r(r_bytes);
  EXPECT_EQ(r.get_ulonglong(), 100u);  // PlainContext logical_time
  (void)r.get_ulonglong();
  // Same context seed -> same stream -> identical state.
  NondetProbe probe2;
  call(probe2, "sample", {});
  EXPECT_EQ(state_of(probe), state_of(probe2));
}

TEST(TellerServant, StateRoundTrip) {
  Teller a, b;
  cdr::Bytes st = state_of(a);
  cdr::Decoder dec(st);
  b.set_state(dec);
  EXPECT_EQ(b.transfers(), 0u);
  const cdr::Bytes r_bytes = call(b, "transfers", {});
  cdr::Decoder r(r_bytes);
  EXPECT_EQ(r.get_ulonglong(), 0u);
}

}  // namespace
}  // namespace eternal::app
