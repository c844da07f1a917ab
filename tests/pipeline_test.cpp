// Pipelined invocation path: exactly-once across failover, in-order
// completion, sender backpressure, and the Batch wire frame.
//
// The property at the heart of this file (DESIGN.md §4): N invocations
// outstanding from one client, a primary crash mid-stream, and every
// operation still executes exactly once, completing in issue order — for
// active AND warm-passive replication.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "app/servants.hpp"
#include "obs/trace.hpp"
#include "orb/exceptions.hpp"
#include "rep/domain.hpp"
#include "rep/stub.hpp"
#include "totem/wire.hpp"

namespace eternal::rep {
namespace {

using app::Counter;
using sim::kMillisecond;
using sim::kSecond;
using sim::NodeId;

struct Cluster {
  explicit Cluster(std::size_t n, std::uint64_t seed = 1,
                   EngineParams ep = {}, totem::Params tp = {})
      : sim(seed), net(sim, n), fabric(sim, net, tp), domain(fabric, ep) {
    fabric.start_all();
  }

  bool converge(sim::Time timeout = 2 * kSecond) {
    const bool ok = fabric.run_until_converged(timeout);
    sim.run_for(300 * kMillisecond);
    return ok;
  }

  void run(sim::Time t) { sim.run_for(t); }

  template <typename T>
  std::shared_ptr<T> replica(NodeId node, const std::string& group) {
    return std::dynamic_pointer_cast<T>(
        domain.engine(node).local_replica(group));
  }

  sim::Simulation sim;
  sim::Network net;
  totem::Fabric fabric;
  Domain domain;
};

/// N invocations in flight, the group's primary crashes mid-stream: every
/// invocation completes, in order, and the surviving replicas each applied
/// every increment exactly once.
void pipelined_exactly_once_across_crash(Style style) {
  Cluster c(4);
  ASSERT_TRUE(c.converge());
  c.domain.host_on<Counter>(GroupConfig{"ctr", style}, {0, 1, 2});
  c.run(kSecond);

  GroupRef ctr = c.domain.ref(3, "ctr");
  constexpr int kDepth = 16;
  std::vector<TypedInvocation<std::int64_t>> invs;
  invs.reserve(kDepth);
  for (int i = 0; i < kDepth; ++i) {
    invs.push_back(ctr.invoke<std::int64_t>("incr", std::int64_t{1}));
  }

  // Let part of the stream land, then kill the primary (node 0: lowest id
  // is both the warm-passive primary and the active designated responder).
  c.run(2 * kMillisecond);
  c.fabric.crash(0);
  c.run(8 * kSecond);

  // Every invocation completed, in issue order: Counter::incr returns the
  // post-increment value, so exactly-once + FIFO order means 1..N with no
  // gap (lost op) and no repeat (double execution).
  for (int i = 0; i < kDepth; ++i) {
    ASSERT_TRUE(invs[i].ready()) << "invocation " << i << " never completed";
    EXPECT_EQ(invs[i].get(), i + 1) << "completion out of order at " << i;
  }

  // Survivor state agrees: each increment applied exactly once.
  for (NodeId n : {NodeId{1}, NodeId{2}}) {
    EXPECT_EQ(c.replica<Counter>(n, "ctr")->value(), kDepth);
  }
  // And no duplicate executions slipped past the reply log: a warm-passive
  // secondary tracks via state updates, so executed counts only apply to
  // the style's executing replicas.
  if (style == Style::Active) {
    for (NodeId n : {NodeId{1}, NodeId{2}}) {
      EXPECT_EQ(c.domain.engine(n).stats().invocations_executed, kDepth);
    }
  } else {
    const auto s1 = c.domain.engine(1).stats();
    const auto s2 = c.domain.engine(2).stats();
    EXPECT_EQ(s1.invocations_executed + s1.state_updates_applied +
                  s2.invocations_executed + s2.state_updates_applied,
              2 * kDepth);
  }
}

TEST(Pipeline, ExactlyOnceAcrossPrimaryCrashActive) {
  pipelined_exactly_once_across_crash(Style::Active);
}

TEST(Pipeline, ExactlyOnceAcrossPrimaryCrashWarmPassive) {
  pipelined_exactly_once_across_crash(Style::WarmPassive);
}

TEST(Pipeline, CompletesInIssueOrderWithoutFaults) {
  Cluster c(4);
  ASSERT_TRUE(c.converge());
  c.domain.host_on<Counter>(GroupConfig{"ctr", Style::Active}, {0, 1, 2});
  c.run(kSecond);

  GroupRef ctr = c.domain.ref(3, "ctr");
  std::vector<TypedInvocation<std::int64_t>> invs;
  for (int i = 0; i < 32; ++i) {
    invs.push_back(ctr.invoke<std::int64_t>("incr", std::int64_t{1}));
  }
  c.run(5 * kSecond);
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(invs[i].ready());
    EXPECT_EQ(invs[i].get(), i + 1);
  }
}

TEST(Pipeline, SendQueueBackpressureThrowsTransient) {
  totem::Params tp;
  tp.max_pending = 4;  // tiny fresh-send queue
  Cluster c(4, /*seed=*/1, {}, tp);
  ASSERT_TRUE(c.converge());
  c.domain.host_on<Counter>(GroupConfig{"ctr", Style::Active}, {0, 1, 2});
  c.run(kSecond);

  // Without driving the simulation the queue cannot drain, so the client
  // must hit the TRANSIENT wall within max_pending submissions.
  GroupRef ctr = c.domain.ref(3, "ctr");
  std::vector<TypedInvocation<std::int64_t>> accepted;
  bool pushed_back = false;
  for (int i = 0; i < 16 && !pushed_back; ++i) {
    try {
      accepted.push_back(ctr.invoke<std::int64_t>("incr", std::int64_t{1}));
    } catch (const orb::SystemException& e) {
      EXPECT_NE(e.exception_id().find("TRANSIENT"), std::string::npos);
      pushed_back = true;
    }
  }
  ASSERT_TRUE(pushed_back);
  EXPECT_LE(accepted.size(), 4u);

  // Backpressure is flow control, not failure: the accepted operations all
  // complete, and once the queue drains new invocations are admitted.
  c.run(5 * kSecond);
  std::int64_t expect = 1;
  for (auto& inv : accepted) {
    ASSERT_TRUE(inv.ready());
    EXPECT_EQ(inv.get(), expect++);
  }
  EXPECT_EQ(ctr.call<std::int64_t>("incr", std::int64_t{1}), expect);
}

TEST(Pipeline, ClientOutstandingCapThrowsTransient) {
  Cluster c(4);
  ASSERT_TRUE(c.converge());
  c.domain.host_on<Counter>(GroupConfig{"ctr", Style::Active}, {0, 1, 2});
  c.run(kSecond);

  Client& client = c.domain.client(3);
  client.set_max_outstanding(2);
  GroupRef ctr = c.domain.ref(3, "ctr");
  auto a = ctr.invoke<std::int64_t>("incr", std::int64_t{1});
  auto b = ctr.invoke<std::int64_t>("incr", std::int64_t{1});
  EXPECT_THROW(ctr.invoke<std::int64_t>("incr", std::int64_t{1}),
               orb::SystemException);
  EXPECT_EQ(client.outstanding(), 2u);

  // Completion frees a slot.
  EXPECT_EQ(a.get(), 1);
  EXPECT_EQ(b.get(), 2);
  EXPECT_EQ(ctr.invoke<std::int64_t>("incr", std::int64_t{1}).get(), 3);
}

TEST(Pipeline, CancelAbandonsOnlyItsOwnOperation) {
  Cluster c(4);
  ASSERT_TRUE(c.converge());
  c.domain.host_on<Counter>(GroupConfig{"ctr", Style::Active}, {0, 1, 2});
  c.run(kSecond);

  GroupRef ctr = c.domain.ref(3, "ctr");
  auto a = ctr.invoke<std::int64_t>("incr", std::int64_t{1});
  auto b = ctr.invoke<std::int64_t>("incr", std::int64_t{1});
  EXPECT_EQ(c.domain.client(3).outstanding(), 2u);
  a.cancel();
  EXPECT_EQ(c.domain.client(3).outstanding(), 1u);

  // The abandoned sibling does not disturb the survivor.
  EXPECT_EQ(b.get(), 2);
}

// ---------------------------------------------------------------------------
// Batch wire frame
// ---------------------------------------------------------------------------

totem::DataMsg data_msg(std::uint64_t seq, const std::string& group,
                        totem::Bytes payload) {
  totem::DataMsg d;
  d.ring = totem::RingId{1, 0};
  d.origin = 2;
  d.seq = seq;
  d.group = totem::group_buf(group);
  d.payload = cdr::WireBuf(payload);
  return d;
}

TEST(BatchWire, RoundTripsMultipleEnvelopes) {
  totem::Packet pkt;
  pkt.kind = totem::MsgKind::Batch;
  pkt.batch.ring = totem::RingId{7, 3};
  pkt.batch.origin = 3;
  pkt.batch.msgs.push_back(data_msg(10, "alpha", {1, 2, 3}));
  pkt.batch.msgs.push_back(data_msg(11, "beta", {}));
  pkt.batch.msgs.push_back(data_msg(12, "alpha", {9}));
  pkt.batch.msgs[1].flags = totem::kFlagControl;

  const totem::Packet out = totem::decode_packet(totem::encode(pkt));
  ASSERT_EQ(out.kind, totem::MsgKind::Batch);
  EXPECT_EQ(out.batch.ring, pkt.batch.ring);
  EXPECT_EQ(out.batch.origin, 3u);
  ASSERT_EQ(out.batch.msgs.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    // Inner envelopes inherit the shared header: same ring, same origin.
    EXPECT_EQ(out.batch.msgs[i].ring, pkt.batch.ring);
    EXPECT_EQ(out.batch.msgs[i].origin, 3u);
    EXPECT_EQ(out.batch.msgs[i].seq, 10 + i);
    EXPECT_EQ(out.batch.msgs[i].group, pkt.batch.msgs[i].group);
    EXPECT_EQ(out.batch.msgs[i].payload, pkt.batch.msgs[i].payload);
  }
  EXPECT_EQ(out.batch.msgs[0].flags, 0);
  EXPECT_EQ(out.batch.msgs[1].flags, totem::kFlagControl);
}

TEST(BatchWire, TraceContextSurvivesBatchPacking) {
  totem::Packet pkt;
  pkt.kind = totem::MsgKind::Batch;
  pkt.batch.ring = totem::RingId{7, 3};
  pkt.batch.origin = 3;
  // Mixed batch: a traced envelope between two untraced ones — each inner
  // message carries (or omits) its own trace context independently.
  pkt.batch.msgs.push_back(data_msg(10, "alpha", {1}));
  auto traced = data_msg(11, "alpha", {2});
  traced.flags = totem::kFlagTraced;
  traced.trace_id = 0xDEADBEEF;
  traced.parent_span = 42;
  pkt.batch.msgs.push_back(std::move(traced));
  pkt.batch.msgs.push_back(data_msg(12, "beta", {3}));

  const totem::Packet out = totem::decode_packet(totem::encode(pkt));
  ASSERT_EQ(out.batch.msgs.size(), 3u);
  EXPECT_EQ(out.batch.msgs[0].flags, 0);
  EXPECT_EQ(out.batch.msgs[0].trace_id, 0u);
  EXPECT_EQ(out.batch.msgs[1].flags, totem::kFlagTraced);
  EXPECT_EQ(out.batch.msgs[1].trace_id, 0xDEADBEEFu);
  EXPECT_EQ(out.batch.msgs[1].parent_span, 42u);
  EXPECT_EQ(out.batch.msgs[1].payload, cdr::WireBuf(totem::Bytes{2}));
  EXPECT_EQ(out.batch.msgs[2].trace_id, 0u);
}

TEST(BatchWire, TraceContextSurvivesPlainDataFrame) {
  totem::Packet pkt;
  pkt.kind = totem::MsgKind::Data;
  pkt.data = data_msg(5, "g", {9, 9});
  pkt.data.flags = totem::kFlagTraced;
  pkt.data.trace_id = 0xABCD;
  pkt.data.parent_span = 7;
  const totem::Packet out = totem::decode_packet(totem::encode(pkt));
  ASSERT_EQ(out.kind, totem::MsgKind::Data);
  EXPECT_EQ(out.data.trace_id, 0xABCDu);
  EXPECT_EQ(out.data.parent_span, 7u);
  EXPECT_EQ(out.data.payload, pkt.data.payload);

  // Untraced stays untraced (and pays no wire bytes for the context).
  totem::Packet plain;
  plain.kind = totem::MsgKind::Data;
  plain.data = data_msg(6, "g", {1});
  EXPECT_LT(totem::encode(plain).size(), totem::encode(pkt).size());
  EXPECT_EQ(totem::decode_packet(totem::encode(plain)).data.trace_id, 0u);
}

TEST(BatchWire, RejectsRecoveryFlaggedEnvelope) {
  totem::Packet pkt;
  pkt.kind = totem::MsgKind::Batch;
  pkt.batch.ring = totem::RingId{1, 0};
  pkt.batch.origin = 0;
  auto d = data_msg(5, "g", {1});
  d.flags = totem::kFlagRecovery;  // recovery rebroadcasts are never batched
  pkt.batch.msgs.push_back(std::move(d));
  const totem::Bytes wire = totem::encode(pkt);
  EXPECT_THROW(totem::decode_packet(wire), cdr::MarshalError);
}

// ---------------------------------------------------------------------------
// Causal tracing across batching and failover
// ---------------------------------------------------------------------------

struct Traced : ::testing::Test {
  void SetUp() override {
    obs::Tracer::global().clear();
    obs::Tracer::global().enable(true);
  }
  void TearDown() override {
    obs::Tracer::global().enable(false);
    obs::Tracer::global().clear();
  }
};

TEST_F(Traced, SpansSurviveBatchPackingEndToEnd) {
  Cluster c(4);
  ASSERT_TRUE(c.converge());
  c.domain.host_on<Counter>(GroupConfig{"ctr", Style::Active}, {0, 1, 2});
  c.run(kSecond);

  // Deeper than max_batch: the client's burst is packed into Batch frames
  // at the token visit, so the token-visit spans below were emitted for
  // messages travelling inside batches.
  GroupRef ctr = c.domain.ref(3, "ctr");
  constexpr int kDepth = 16;
  std::vector<TypedInvocation<std::int64_t>> invs;
  invs.reserve(kDepth);
  for (int i = 0; i < kDepth; ++i) {
    invs.push_back(ctr.invoke<std::int64_t>("incr", std::int64_t{1}));
  }
  c.run(5 * kSecond);
  for (int i = 0; i < kDepth; ++i) ASSERT_TRUE(invs[i].ready());

  // Every invocation's chain still contains its token-visit span, parented
  // on that invocation's client-send span: batch packing forwarded each
  // inner message's trace context intact.
  const auto recs = obs::Tracer::global().records();
  std::size_t clients = 0, matched = 0;
  for (const obs::FlightRecord& r : recs) {
    if (r.span_event() != obs::SpanEvent::ClientSend) continue;
    ++clients;
    ASSERT_NE(r.trace_id, 0u);
    for (const obs::FlightRecord& v : recs) {
      if (v.span_event() == obs::SpanEvent::TokenVisitSend &&
          v.trace_id == r.trace_id && v.parent_span == r.span_id) {
        ++matched;
        break;
      }
    }
  }
  EXPECT_EQ(clients, static_cast<std::size_t>(kDepth));
  EXPECT_EQ(matched, static_cast<std::size_t>(kDepth));
}

TEST_F(Traced, FailoverRetryKeepsOriginalTraceId) {
  Cluster c(4);
  ASSERT_TRUE(c.converge());
  c.domain.host_on<Counter>(GroupConfig{"ctr", Style::WarmPassive},
                            {0, 1, 2});
  c.run(kSecond);

  GroupRef ctr = c.domain.ref(3, "ctr");
  constexpr int kDepth = 16;
  std::vector<TypedInvocation<std::int64_t>> invs;
  invs.reserve(kDepth);
  for (int i = 0; i < kDepth; ++i) {
    invs.push_back(ctr.invoke<std::int64_t>("incr", std::int64_t{1}));
  }
  // Crash the primary after delivery but before its state updates are
  // ordered: the promoted backup must re-drive the logged operations.
  c.run(400);
  c.fabric.crash(0);
  c.run(8 * kSecond);
  for (int i = 0; i < kDepth; ++i) {
    ASSERT_TRUE(invs[i].ready());
    EXPECT_EQ(invs[i].get(), i + 1);
  }

  // Failover retries were recorded, and each kept the ORIGINAL trace id of
  // the operation it re-drove — the causal chain survives the failover, it
  // does not fork a new trace.
  const auto recs = obs::Tracer::global().records();
  std::size_t retries = 0;
  for (const obs::FlightRecord& r : recs) {
    if (r.span_event() != obs::SpanEvent::FailoverRetry) continue;
    ++retries;
    ASSERT_NE(r.trace_id, 0u);
    bool found_root = false;
    for (const obs::FlightRecord& s : recs) {
      if (s.span_event() == obs::SpanEvent::ClientSend && s.op == r.op) {
        EXPECT_EQ(s.trace_id, r.trace_id)
            << "retry of " << r.op.str() << " forked a new trace";
        found_root = true;
      }
    }
    EXPECT_TRUE(found_root) << r.op.str();
  }
  EXPECT_GE(retries, 1u);
}

}  // namespace
}  // namespace eternal::rep
