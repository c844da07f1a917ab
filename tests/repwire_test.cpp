#include <gtest/gtest.h>

#include "app/servants.hpp"
#include "rep/domain.hpp"
#include "rep/ids.hpp"
#include "rep/wire.hpp"

namespace eternal::rep {
namespace {

using sim::kMillisecond;
using sim::kSecond;
using sim::NodeId;

// ---------------------------------------------------------------------------
// Identifiers
// ---------------------------------------------------------------------------

TEST(Ids, GlobalSeqOrdering) {
  EXPECT_LT((GlobalSeq{1, 5}), (GlobalSeq{2, 0}));
  EXPECT_LT((GlobalSeq{2, 1}), (GlobalSeq{2, 2}));
  EXPECT_EQ((GlobalSeq{3, 3}), (GlobalSeq{3, 3}));
  EXPECT_FALSE(GlobalSeq{}.valid());
  EXPECT_TRUE((GlobalSeq{0, 1}).valid());
}

TEST(Ids, OperationIdOrderingAndHash) {
  OperationId a{{1, 10}, 1};
  OperationId b{{1, 10}, 2};
  OperationId c{{1, 11}, 1};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_NE(a.hash(), c.hash());
  EXPECT_EQ(a.hash(), (OperationId{{1, 10}, 1}).hash());
}

TEST(Ids, StrIsReadable) {
  OperationId op{{7, 42}, 3};
  EXPECT_EQ(op.str(), "7:42/3");
}

// ---------------------------------------------------------------------------
// Envelope wire format
// ---------------------------------------------------------------------------

Envelope sample_invocation() {
  Envelope env;
  env.kind = Kind::Invocation;
  env.op_id = {{5, 1234}, 7};
  env.target_group = "acct.a";
  env.reply_group = "teller";
  env.source_group = "teller";
  env.fulfillment = true;
  env.timestamp = 987654321;
  env.giop = cdr::WireBuf(Bytes{1, 2, 3, 4});
  return env;
}

TEST(Wire, InvocationRoundTrip) {
  const Envelope env = sample_invocation();
  const Envelope out = decode_envelope(cdr::WireBuf(encode(env)));
  EXPECT_EQ(out.kind, Kind::Invocation);
  EXPECT_EQ(out.op_id, env.op_id);
  EXPECT_EQ(out.target_group, env.target_group);
  EXPECT_EQ(out.reply_group, env.reply_group);
  EXPECT_EQ(out.source_group, env.source_group);
  EXPECT_EQ(out.fulfillment, env.fulfillment);
  EXPECT_EQ(out.timestamp, env.timestamp);
  EXPECT_EQ(out.giop, env.giop);
}

// A checkpoint's passive invocation log writes each envelope in place as
// an octet sequence; that must be the bytes of the envelope framed on its
// own and copied in, at any offset of the enclosing stream.
TEST(Wire, InPlaceEnvelopeMatchesCopiedFrame) {
  Envelope env = sample_invocation();
  env.trace_id = 7;
  const Bytes alone = encode(env);
  for (std::size_t lead = 0; lead < 8; ++lead) {
    cdr::Arena arena;
    cdr::Writer in_place(arena);
    for (std::size_t i = 0; i < lead; ++i) in_place.put_octet(0xEE);
    in_place.begin_octet_seq();
    encode_envelope_into(in_place, env);
    in_place.end_octet_seq();
    const Bytes copied = cdr::make_bytes([&](cdr::Writer& w) {
      for (std::size_t i = 0; i < lead; ++i) w.put_octet(0xEE);
      w.put_octet_seq(alone);
    });
    EXPECT_EQ(Bytes(in_place.written().begin(), in_place.written().end()),
              copied)
        << "lead " << lead;
  }
}

TEST(Wire, StateUpdateRoundTrip) {
  Envelope env;
  env.kind = Kind::StateUpdate;
  env.op_id = {{2, 9}, 1};
  env.target_group = "kv";
  env.source_group = "kv";
  env.state_version = 41;
  env.operation = "put";
  env.update = cdr::WireBuf(Bytes{9, 9, 9});
  const Envelope out = decode_envelope(cdr::WireBuf(encode(env)));
  EXPECT_EQ(out.kind, Kind::StateUpdate);
  EXPECT_EQ(out.state_version, 41u);
  EXPECT_EQ(out.operation, "put");
  EXPECT_EQ(out.update, cdr::WireBuf(Bytes{9, 9, 9}));
}

TEST(Wire, JoinAndSnapshotFieldsRoundTrip) {
  Envelope env;
  env.kind = Kind::JoinRequest;
  env.target_group = "g";
  env.node = 3;
  env.round = 5;
  env.has_history = true;
  Envelope out = decode_envelope(cdr::WireBuf(encode(env)));
  EXPECT_EQ(out.kind, Kind::JoinRequest);
  EXPECT_EQ(out.node, 3u);
  EXPECT_EQ(out.round, 5u);
  EXPECT_TRUE(out.has_history);

  env.kind = Kind::Snapshot;
  env.chunk_index = 2;
  env.chunk_count = 7;
  env.blob = cdr::WireBuf(Bytes(100, 0xAA));
  out = decode_envelope(cdr::WireBuf(encode(env)));
  EXPECT_EQ(out.kind, Kind::Snapshot);
  EXPECT_EQ(out.chunk_index, 2u);
  EXPECT_EQ(out.chunk_count, 7u);
  EXPECT_EQ(out.blob.size(), 100u);
}

TEST(Wire, TraceContextRoundTripsWhenPresent) {
  Envelope env = sample_invocation();
  env.trace_id = 0xFEEDFACE12345678ull;
  env.parent_span = 99;
  const Envelope out = decode_envelope(cdr::WireBuf(encode(env)));
  EXPECT_EQ(out.trace_id, env.trace_id);
  EXPECT_EQ(out.parent_span, env.parent_span);
  EXPECT_EQ(out.ctx(), env.ctx());
}

TEST(Wire, UntracedEnvelopePaysOneFlagByte) {
  const Envelope plain = sample_invocation();
  Envelope traced = sample_invocation();
  traced.trace_id = 1;
  const Envelope out = decode_envelope(cdr::WireBuf(encode(plain)));
  EXPECT_EQ(out.trace_id, 0u);
  EXPECT_EQ(out.parent_span, 0u);
  EXPECT_FALSE(out.ctx().traced());
  // Tracing off costs a single boolean on the wire; the two u64 context
  // fields are only encoded when a context is present.
  EXPECT_LT(encode(plain).size(), encode(traced).size());
}

TEST(Wire, BadKindThrows) {
  Bytes wire = encode(sample_invocation());
  wire[0] = 99;
  EXPECT_THROW(decode_envelope(cdr::WireBuf(wire)), cdr::MarshalError);
}

TEST(Wire, TruncatedThrows) {
  Bytes wire = encode(sample_invocation());
  wire.resize(wire.size() / 2);
  EXPECT_THROW(decode_envelope(cdr::WireBuf(wire)), cdr::MarshalError);
}

// ---------------------------------------------------------------------------
// Engine edges through the public API
// ---------------------------------------------------------------------------

struct Edge : ::testing::Test {
  Edge() : sim(1), net(sim, 4), fabric(sim, net), domain(fabric) {
    fabric.start_all();
    fabric.run_until_converged(2 * kSecond);
    sim.run_for(300 * kMillisecond);
  }
  sim::Simulation sim;
  sim::Network net;
  totem::Fabric fabric;
  Domain domain;
};

TEST_F(Edge, UnknownOperationReturnsBadOperationThroughTheStack) {
  domain.host_on<app::Counter>(GroupConfig{"ctr", Style::Active}, {0, 1});
  sim.run_for(kSecond);
  try {
    domain.client(3).invoke_blocking("ctr", "no_such_op", {});
    FAIL();
  } catch (const orb::SystemException& e) {
    EXPECT_NE(e.exception_id().find("BAD_OPERATION"), std::string::npos);
  }
  // The failed operation did not corrupt subsequent service.
  const cdr::Bytes enc = cdr::make_bytes([&](cdr::Writer& w) {
    w.put_longlong(1);
  });
  cdr::Bytes out = domain.client(3).invoke_blocking("ctr", "incr", enc);
  cdr::Decoder dec(out);
  EXPECT_EQ(dec.get_longlong(), 1);
}

TEST_F(Edge, InvocationToNonexistentGroupTimesOut) {
  EXPECT_THROW(
      domain.client(0).invoke_blocking("ghost", "op", {}, 500 * kMillisecond),
      orb::SystemException);
}

TEST_F(Edge, MalformedArgumentsYieldMarshalException) {
  domain.host_on<app::Counter>(GroupConfig{"ctr", Style::Active}, {0, 1});
  sim.run_for(kSecond);
  try {
    // "incr" expects a longlong; send nothing.
    domain.client(3).invoke_blocking("ctr", "incr", {});
    FAIL();
  } catch (const orb::SystemException& e) {
    EXPECT_NE(e.exception_id().find("MARSHAL"), std::string::npos);
  }
}

TEST_F(Edge, UnhostedGroupStopsServingLocally) {
  domain.host_on<app::Counter>(GroupConfig{"ctr", Style::Active}, {0, 1});
  sim.run_for(kSecond);
  const cdr::Bytes enc = cdr::make_bytes([&](cdr::Writer& w) {
    w.put_longlong(1);
  });
  domain.client(3).invoke_blocking("ctr", "incr", enc);
  domain.engine(0).unhost("ctr");
  EXPECT_FALSE(domain.engine(0).hosts("ctr"));
  sim.run_for(kSecond);
  // Remaining replica serves on.
  const cdr::Bytes enc2 = cdr::make_bytes([&](cdr::Writer& w) {
    w.put_longlong(1);
  });
  cdr::Bytes out =
      domain.client(3).invoke_blocking("ctr", "incr", enc2);
  cdr::Decoder dec(out);
  EXPECT_EQ(dec.get_longlong(), 2);
}

TEST_F(Edge, TwoGroupsSameServantTypeAreIndependent) {
  domain.host_on<app::Counter>(GroupConfig{"a", Style::Active}, {0});
  domain.host_on<app::Counter>(GroupConfig{"b", Style::Active}, {0});
  sim.run_for(kSecond);
  const cdr::Bytes enc = cdr::make_bytes([&](cdr::Writer& w) {
    w.put_longlong(5);
  });
  domain.client(3).invoke_blocking("a", "incr", enc);
  cdr::Bytes out = domain.client(3).invoke_blocking("b", "get", {});
  cdr::Decoder dec(out);
  EXPECT_EQ(dec.get_longlong(), 0);  // group b untouched
}

TEST_F(Edge, ClientOpIdsAreUniquePerNode) {
  domain.host_on<app::Counter>(GroupConfig{"ctr", Style::Active}, {0});
  sim.run_for(kSecond);
  // Two clients on different nodes interleave; both see exactly-once.
  const cdr::Bytes one =
      cdr::make_bytes([](cdr::Writer& w) { w.put_longlong(1); });
  auto f1 = domain.client(2).invoke("ctr", "incr", one);
  auto f2 = domain.client(3).invoke("ctr", "incr", one);
  sim.run_for(2 * kSecond);
  ASSERT_TRUE(f1.ready());
  ASSERT_TRUE(f2.ready());
  auto counter = std::dynamic_pointer_cast<app::Counter>(
      domain.engine(0).local_replica("ctr"));
  EXPECT_EQ(counter->value(), 2);
}

}  // namespace
}  // namespace eternal::rep
