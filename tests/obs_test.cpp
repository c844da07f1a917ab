// Tests for the observability subsystem: metrics registry semantics, the
// tracer and journal as emit façades over the one record store, the
// operation-lifecycle trace (including span ordering under active
// replication's duplicate suppression), and the membership & fault event
// journal on a scripted partition/remerge.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "app/servants.hpp"
#include "obs/obs.hpp"
#include "rep/domain.hpp"

namespace eternal::obs {
namespace {

using sim::kMillisecond;
using sim::kSecond;
using sim::NodeId;

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(Registry, CounterFindOrCreateReturnsStableHandle) {
  Registry reg;
  Counter& a = reg.counter("x.hits");
  Counter& b = reg.counter("x.hits");
  EXPECT_EQ(&a, &b);
  a.inc();
  a.inc(4);
  EXPECT_EQ(b.value(), 5u);
  a.reset();
  EXPECT_EQ(b.value(), 0u);
}

TEST(Registry, GaugeSetAndAdd) {
  Registry reg;
  Gauge& g = reg.gauge("x.depth");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(Registry, HistogramBucketsAndMean) {
  Registry reg;
  Histogram& h = reg.histogram("x.lat", 0.0, 100.0, 10);
  for (double v : {5.0, 15.0, 15.0, 95.0}) h.observe(v);
  h.observe(-1.0);
  h.observe(1000.0);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(9), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_DOUBLE_EQ(h.mean(), (5.0 + 15.0 + 15.0 + 95.0 - 1.0 + 1000.0) / 6.0);
  // Shape arguments only matter on first creation.
  Histogram& same = reg.histogram("x.lat", 0.0, 1.0, 2);
  EXPECT_EQ(&same, &h);
}

TEST(Registry, ResetZeroesEverythingButKeepsHandles) {
  Registry reg;
  Counter& c = reg.counter("a");
  Gauge& g = reg.gauge("b");
  Histogram& h = reg.histogram("c", 0, 10, 2);
  c.inc();
  g.set(5);
  h.observe(3);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(Registry, SnapshotExportContainsMetrics) {
  Registry reg;
  reg.counter("engine.execs{node=1}").inc(3);
  reg.gauge("queue.depth").set(-2);
  reg.histogram("lat", 0, 10, 2).observe(4);
  const std::string text = reg.to_text();
  EXPECT_NE(text.find("engine.execs{node=1} 3"), std::string::npos);
  EXPECT_NE(text.find("queue.depth -2"), std::string::npos);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"engine.execs{node=1}\":3"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(Registry, NodeMetricNaming) {
  EXPECT_EQ(node_metric("totem", "broadcasts", 3), "totem.broadcasts{node=3}");
}

// ---------------------------------------------------------------------------
// Summary (log-scale percentile sketch)
// ---------------------------------------------------------------------------

TEST(SummaryUnit, EmptyIsAllZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
  EXPECT_DOUBLE_EQ(s.p50(), 0.0);
  EXPECT_DOUBLE_EQ(s.p999(), 0.0);
}

TEST(SummaryUnit, QuantilesWithinBucketError) {
  Summary s;
  // 1..1000: exact p50 = 500, p90 = 900, p99 = 990.
  for (int v = 1; v <= 1000; ++v) s.observe(v);
  EXPECT_EQ(s.count(), 1000u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 1000.0);
  EXPECT_NEAR(s.mean(), 500.5, 1e-9);
  // Geometric buckets grow by 2^(1/8) ≈ 9.05%: nearest-rank estimates land
  // within one bucket (~±5% at the midpoint) of the exact percentile.
  EXPECT_NEAR(s.p50(), 500.0, 500.0 * 0.06);
  EXPECT_NEAR(s.p90(), 900.0, 900.0 * 0.06);
  EXPECT_NEAR(s.p99(), 990.0, 990.0 * 0.06);
  // p0/p100 clamp to the exact observed extremes.
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 1000.0);
}

TEST(SummaryUnit, SingleValueAllQuantilesAgree) {
  Summary s;
  s.observe(42.0);
  EXPECT_DOUBLE_EQ(s.p50(), 42.0);
  EXPECT_DOUBLE_EQ(s.p999(), 42.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(SummaryUnit, ResetAndDescribe) {
  Summary s;
  s.observe(10.0);
  s.observe(20.0);
  const std::string text = s.describe();
  EXPECT_NE(text.find("count=2"), std::string::npos);
  EXPECT_NE(text.find("p50="), std::string::npos);
  EXPECT_NE(text.find("p999="), std::string::npos);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(SummaryUnit, RegistryFindOrCreateAndExport) {
  Registry reg;
  Summary& a = reg.summary("client.rtt_us{node=3}");
  Summary& b = reg.summary("client.rtt_us{node=3}");
  EXPECT_EQ(&a, &b);
  a.observe(100.0);
  const std::string text = reg.to_text();
  EXPECT_NE(text.find("client.rtt_us{node=3}"), std::string::npos);
  EXPECT_NE(text.find("p99="), std::string::npos);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"summaries\""), std::string::npos);
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
  reg.reset();
  EXPECT_EQ(a.count(), 0u);
}

// ---------------------------------------------------------------------------
// Tracer and journal: emit façades over the one record store
// ---------------------------------------------------------------------------

/// Starts a unit test from an empty process-wide store at `capacity`
/// records per node, and restores the default store on exit.
struct FreshStore {
  explicit FreshStore(std::size_t capacity = 64) {
    FlightRecorder::global().set_per_node_capacity(capacity);
    Tracer::global().clear();
  }
  ~FreshStore() {
    Tracer::global().enable(false);
    FlightRecorder::global().set_per_node_capacity(2048);
    Tracer::global().clear();
  }
};

std::string lines(const std::vector<FlightRecord>& recs) {
  std::string out;
  for (const FlightRecord& r : recs) out += r.str() + '\n';
  return out;
}

TEST(Tracer, DisabledRecordIsANoOp) {
  FreshStore store;
  Tracer& t = Tracer::global();
  EXPECT_FALSE(t.enabled());
  t.record(1, 0, OpRef{0, 1, 1}, SpanEvent::ClientSend, "x");
  EXPECT_TRUE(t.records().empty());
  EXPECT_EQ(FlightRecorder::global().absorbed(), 0u);
}

TEST(Tracer, RecordsForAndLastCompletedOp) {
  FreshStore store;
  Tracer& t = Tracer::global();
  t.enable();
  const OpRef a{0, 1, 1}, b{0, 1, 2};
  t.record(10, 0, a, SpanEvent::ClientSend, "");
  t.record(20, 1, a, SpanEvent::ExecStart, "");
  t.record(30, 0, b, SpanEvent::ClientSend, "");
  t.record(40, 0, a, SpanEvent::ReplyDeliver, "");
  EXPECT_EQ(t.records_for(a).size(), 3u);
  EXPECT_EQ(t.records_for(b).size(), 1u);
  auto last = t.last_completed_op();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(*last, a);
  const std::string dump = lines(t.records_for(a));
  EXPECT_NE(dump.find("client_send"), std::string::npos);
  EXPECT_NE(dump.find("reply_deliver"), std::string::npos);
  EXPECT_EQ(dump.find("0:1/2"), std::string::npos);  // b's records filtered
}

TEST(Tracer, SpanAssignsMonotonicIdsAndKeepsContext) {
  FreshStore store;
  Tracer& t = Tracer::global();
  EXPECT_EQ(t.span(1, 1, 0, OpRef{0, 1, 1}, SpanEvent::ClientSend, {7, 0}),
            0u);  // disabled: no id, nothing recorded
  t.enable();
  const std::uint64_t root =
      t.span(10, 10, 3, OpRef{0, 1, 1}, SpanEvent::ClientSend, {7, 0}, "g=x");
  const std::uint64_t child =
      t.span(20, 25, 1, OpRef{0, 1, 1}, SpanEvent::ExecStart, {7, root});
  EXPECT_NE(root, 0u);
  EXPECT_GT(child, root);

  const auto recs = t.records_for_trace(7);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].span_id, root);
  EXPECT_EQ(recs[0].parent_span, 0u);
  EXPECT_EQ(recs[0].trace_id, 7u);
  EXPECT_EQ(recs[0].detail_str(), "g=x");
  EXPECT_EQ(recs[1].span_id, child);
  EXPECT_EQ(recs[1].parent_span, root);
  EXPECT_EQ(recs[1].time, 20u);
  EXPECT_EQ(recs[1].end, 25u);
  EXPECT_NE(recs[1].str().find("dur=5"), std::string::npos);
  EXPECT_TRUE(t.records_for_trace(999).empty());

  // clear() empties the store and restarts the span ids.
  t.clear();
  EXPECT_TRUE(t.records().empty());
  EXPECT_EQ(t.span(30, 30, 3, OpRef{0, 1, 2}, SpanEvent::ClientSend, {8, 0}),
            root);
}

// Spans and journal events share one ring per node: the newest `capacity`
// records of a node survive whichever stream wrote them, dropped() counts
// the overwrites of both, and each view sees its own stream's survivors.
TEST(RecordStream, SpansAndEventsShareOneRingPerNode) {
  FreshStore store(4);
  Tracer& t = Tracer::global();
  t.enable();
  for (std::uint64_t i = 0; i < 10; ++i) {
    if (i % 2 == 0) {
      t.record(i, 0, OpRef{0, 1, i}, SpanEvent::TotemDeliver);
    } else {
      Journal::global().emit(i, 0, EventKind::TokenLoss, "ring");
    }
  }
  t.record(99, 1, OpRef{0, 1, 99}, SpanEvent::ClientSend);

  const FlightRecorder& fr = FlightRecorder::global();
  EXPECT_EQ(fr.absorbed(), 11u);
  EXPECT_EQ(fr.dropped(), 6u);  // node 0 overwrote 6 of its 10
  const auto node0 = fr.records(0);
  ASSERT_EQ(node0.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(node0[i].time, 6 + i);  // oldest surviving first
  }
  const auto spans = t.records();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].time, 6u);
  EXPECT_EQ(spans[1].time, 8u);
  EXPECT_EQ(spans[2].node, 1u);
  const auto events = Journal::global().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].time, 7u);
  EXPECT_EQ(events[1].time, 9u);
}

// events(kind) filters the journal records; each carries the
// `"subject detail"` text the dumps and obsctl see, cut to the cell.
TEST(RecordStream, EventsViewFiltersByKind) {
  FreshStore store(4);
  Journal& j = Journal::global();
  for (std::uint64_t i = 0; i < 6; ++i) {
    j.emit(i, 0, i % 2 == 0 ? EventKind::TokenLoss : EventKind::Failover,
           "subj", i == 4 ? "epoch=3" : "");
  }
  EXPECT_EQ(FlightRecorder::global().dropped(), 2u);
  const auto losses = j.events(EventKind::TokenLoss);
  ASSERT_EQ(losses.size(), 2u);  // 2 and 4 survive
  EXPECT_EQ(losses[0].time, 2u);
  EXPECT_EQ(losses[0].detail_str(), "subj");
  EXPECT_EQ(losses[1].detail_str(), "subj epoch=3");
  EXPECT_EQ(j.events(EventKind::Failover).size(), 2u);
  EXPECT_TRUE(j.events(EventKind::RemergeDetected).empty());

  j.emit(9, 1, EventKind::RunMeta, std::string(40, 's'), std::string(40, 'd'));
  const auto meta = j.events(EventKind::RunMeta);
  ASSERT_EQ(meta.size(), 1u);
  EXPECT_EQ(meta[0].detail_str(),
            std::string(40, 's') + " " + std::string(22, 'd'));
  EXPECT_NE(meta[0].str().find("journal run_meta"), std::string::npos);
}

// The store is always on: a journal event emitted with tracing off and no
// dump directory armed still lands in the recorder, its dump bytes and the
// JSON report.
TEST(RecordStream, JournalEventLandsWithTracerOffAndNoDumpDir) {
  FreshStore store;
  FlightRecorder& fr = FlightRecorder::global();
  ASSERT_FALSE(Tracer::global().enabled());
  ASSERT_FALSE(fr.armed());
  Journal::global().emit(42, 3, EventKind::Failover, "ctr", "primary=2");
  ASSERT_EQ(fr.records().size(), 1u);

  const auto decoded = FlightRecorder::decode(fr.encode());
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].stream, FlightRecord::Stream::Journal);
  EXPECT_EQ(decoded[0].journal_kind(), EventKind::Failover);
  EXPECT_EQ(decoded[0].node, 3u);
  EXPECT_EQ(decoded[0].time, 42u);
  EXPECT_EQ(decoded[0].detail_str(), "ctr primary=2");
  EXPECT_NE(report_json().find("\"kind\":\"failover\",\"op\":\"0:0/0\""),
            std::string::npos);
}

TEST(JournalUnit, FormatMembers) {
  EXPECT_EQ(format_members({1, 2, 5}), "[1, 2, 5]");
  EXPECT_EQ(format_members({}), "[]");
}

// ---------------------------------------------------------------------------
// End-to-end: trace spans under duplicate suppression, journal on
// partition/remerge. Mirrors the rep_test cluster scaffolding.
// ---------------------------------------------------------------------------

struct Cluster {
  explicit Cluster(std::size_t n, std::uint64_t seed = 1)
      : sim(seed), net(sim, n), fabric(sim, net, {}), domain(fabric, {}) {
    fabric.start_all();
  }

  bool converge(sim::Time timeout = 2 * kSecond) {
    const bool ok = fabric.run_until_converged(timeout);
    sim.run_for(300 * kMillisecond);
    return ok;
  }

  std::int64_t invoke_i64(NodeId node, const std::string& group,
                          const std::string& op, std::int64_t arg) {
    const cdr::Bytes enc = cdr::make_bytes([&](cdr::Writer& w) {
      w.put_longlong(arg);
    });
    cdr::Bytes out =
        domain.client(node).invoke_blocking(group, op, enc);
    cdr::Decoder dec(out);
    return dec.get_longlong();
  }

  sim::Simulation sim;
  sim::Network net;
  totem::Fabric fabric;
  rep::Domain domain;
};

// The record store is process-wide; scrub it around each scenario so tests
// stay order-independent.
struct EndToEnd : ::testing::Test {
  void SetUp() override { Tracer::global().clear(); }
  void TearDown() override {
    Tracer::global().enable(false);
    Tracer::global().clear();
  }
};

TEST_F(EndToEnd, TraceSpansOrderedUnderDuplicateSuppression) {
  Cluster c(4);
  c.domain.host_on<app::Counter>(rep::GroupConfig{"ctr", rep::Style::Active},
                                 {0, 1, 2});
  ASSERT_TRUE(c.converge());

  Tracer::global().enable(true);
  EXPECT_EQ(c.invoke_i64(3, "ctr", "incr", 5), 5);
  c.sim.run_for(kSecond);  // let trailing sibling copies route
  Tracer::global().enable(false);

  auto last = Tracer::global().last_completed_op();
  ASSERT_TRUE(last.has_value());
  const auto recs = Tracer::global().records_for(*last);
  ASSERT_FALSE(recs.empty());

  auto count = [&](SpanEvent e) {
    return std::count_if(recs.begin(), recs.end(),
                         [&](const FlightRecord& r) {
                           return r.span_event() == e;
                         });
  };
  // The timeline starts at the client and ends with its reply.
  EXPECT_EQ(recs.front().span_event(), SpanEvent::ClientSend);
  EXPECT_EQ(count(SpanEvent::ClientSend), 1);
  EXPECT_EQ(count(SpanEvent::ReplyDeliver), 1);
  // Active replication: every replica delivered and executed the operation,
  // and every replica queued a (staggered) response…
  EXPECT_GE(count(SpanEvent::TotemDeliver), 3);
  EXPECT_EQ(count(SpanEvent::ExecStart), 3);
  EXPECT_EQ(count(SpanEvent::ExecEnd), 3);
  EXPECT_EQ(count(SpanEvent::ReplySend), 3);
  // …but duplicate suppression cancelled the losers before they multicast.
  EXPECT_GE(count(SpanEvent::ResponseSuppressed), 1);

  // Simulated timestamps are nondecreasing along the recorded timeline.
  for (std::size_t i = 1; i < recs.size(); ++i) {
    EXPECT_LE(recs[i - 1].time, recs[i].time) << "record " << i;
  }
  // Suppression tallies in the registry agree with the trace.
  std::uint64_t suppressed = 0;
  for (NodeId n : {0u, 1u, 2u}) {
    suppressed += c.domain.engine(n).stats().responses_suppressed;
  }
  EXPECT_GE(suppressed,
            static_cast<std::uint64_t>(count(SpanEvent::ResponseSuppressed)));
}

TEST_F(EndToEnd, CausalChainLinksClientTokenExecAndReply) {
  Cluster c(4);
  c.domain.host_on<app::Counter>(rep::GroupConfig{"ctr", rep::Style::Active},
                                 {0, 1, 2});
  ASSERT_TRUE(c.converge());

  Tracer::global().enable(true);
  EXPECT_EQ(c.invoke_i64(3, "ctr", "incr", 5), 5);
  c.sim.run_for(kSecond);
  Tracer::global().enable(false);

  auto last = Tracer::global().last_completed_op();
  ASSERT_TRUE(last.has_value());
  const auto op_recs = Tracer::global().records_for(*last);
  ASSERT_FALSE(op_recs.empty());
  const std::uint64_t trace = op_recs.front().trace_id;
  ASSERT_NE(trace, 0u);

  // Every record of the chain — including the token-visit sends recorded at
  // the ordering layer, which never sees the operation id — carries the
  // same trace id, and exactly one root span exists: the client send.
  const auto chain = Tracer::global().records_for_trace(trace);
  ASSERT_GE(chain.size(), op_recs.size());
  std::size_t roots = 0, token_visits = 0;
  std::uint64_t client_span = 0;
  for (const FlightRecord& r : chain) {
    EXPECT_EQ(r.trace_id, trace);
    if (r.parent_span == 0) {
      ++roots;
      EXPECT_EQ(r.span_event(), SpanEvent::ClientSend);
      client_span = r.span_id;
    }
    if (r.span_event() == SpanEvent::TokenVisitSend) ++token_visits;
  }
  EXPECT_EQ(roots, 1u);
  ASSERT_NE(client_span, 0u);
  EXPECT_GE(token_visits, 1u);

  // Parent links stay inside the chain: every non-root parent is the span
  // id of another record of the same trace.
  std::vector<std::uint64_t> ids;
  for (const FlightRecord& r : chain) ids.push_back(r.span_id);
  for (const FlightRecord& r : chain) {
    if (r.parent_span == 0) continue;
    EXPECT_NE(std::find(ids.begin(), ids.end(), r.parent_span), ids.end())
        << r.kind_str() << " parent " << r.parent_span
        << " not in trace";
  }

  // Stage wiring: the invocation's token visit and the replicas' deliveries
  // and executions all parent on the client-send span; replies parent on an
  // execution span.
  for (const FlightRecord& r : chain) {
    if (r.span_event() == SpanEvent::ExecStart) {
      EXPECT_EQ(r.parent_span, client_span);
    }
    if (r.span_event() == SpanEvent::ReplyDeliver) {
      EXPECT_NE(r.parent_span, client_span);
      EXPECT_NE(r.parent_span, 0u);
    }
  }
}

TEST_F(EndToEnd, NestedInvocationsChainOntoParentExecutionSpan) {
  Cluster c(5);
  c.domain.host_on<app::Teller>(
      rep::GroupConfig{"teller", rep::Style::Active}, {0, 1});
  c.domain.host_on<app::Account>(
      rep::GroupConfig{"acct.a", rep::Style::Active}, {2, 3});
  c.domain.host_on<app::Account>(
      rep::GroupConfig{"acct.b", rep::Style::Active}, {1, 4});
  ASSERT_TRUE(c.converge());

  {
    const cdr::Bytes enc = cdr::make_bytes([&](cdr::Writer& w) {
      w.put_longlong(100);
    });
    c.domain.client(0).invoke_blocking("acct.a", "deposit", enc);
  }

  Tracer::global().enable(true);
  const cdr::Bytes enc = cdr::make_bytes([&](cdr::Writer& w) {
    w.put_string("acct.a");
    w.put_string("acct.b");
    w.put_longlong(30);
  });
  c.domain.client(4).invoke_blocking("teller", "transfer", enc);
  c.sim.run_for(kSecond);
  Tracer::global().enable(false);

  // The whole transfer — outer op plus the nested withdraw and deposit —
  // shares the root trace id (derived from the root operation, so it is
  // stable end to end).
  auto last = Tracer::global().last_completed_op();
  ASSERT_TRUE(last.has_value());
  const auto root_recs = Tracer::global().records_for(*last);
  ASSERT_FALSE(root_recs.empty());
  const std::uint64_t trace = root_recs.front().trace_id;
  ASSERT_NE(trace, 0u);

  const auto chain = Tracer::global().records_for_trace(trace);
  std::vector<OpRef> exec_ops;
  std::vector<std::uint64_t> teller_exec_spans;
  for (const FlightRecord& r : chain) {
    if (r.span_event() != SpanEvent::ExecStart) continue;
    if (std::find(exec_ops.begin(), exec_ops.end(), r.op) == exec_ops.end()) {
      exec_ops.push_back(r.op);
    }
    if (r.op == *last) teller_exec_spans.push_back(r.span_id);
  }
  // Three distinct operations executed under one trace: transfer, withdraw,
  // deposit.
  EXPECT_GE(exec_ops.size(), 3u);
  ASSERT_FALSE(teller_exec_spans.empty());

  // Nested executions parent on the teller execution span that issued them.
  std::size_t nested_execs = 0;
  for (const FlightRecord& r : chain) {
    if (r.span_event() != SpanEvent::ExecStart || r.op == *last) continue;
    ++nested_execs;
    EXPECT_NE(std::find(teller_exec_spans.begin(), teller_exec_spans.end(),
                        r.parent_span),
              teller_exec_spans.end())
        << "nested exec of " << r.op.str()
        << " does not parent on a teller execution span";
  }
  EXPECT_GE(nested_execs, 2u);
}

TEST_F(EndToEnd, JournalTellsThePartitionRemergeStory) {
  Cluster c(4);
  c.domain.host_on<app::Counter>(rep::GroupConfig{"ctr", rep::Style::Active},
                                 {0, 1, 3});
  ASSERT_TRUE(c.converge());

  c.net.set_partitions({{0, 1, 2}, {3}});
  ASSERT_TRUE(c.converge(5 * kSecond));
  c.invoke_i64(3, "ctr", "incr", 1);  // secondary component: queued
  c.net.heal_partitions();
  ASSERT_TRUE(c.converge(5 * kSecond));
  c.sim.run_for(3 * kSecond);

  const Journal& j = Journal::global();
  // The partition shows up as token losses and fresh rings on both sides…
  EXPECT_FALSE(j.events(EventKind::TokenLoss).empty());
  EXPECT_FALSE(j.events(EventKind::RingViewInstalled).empty());
  EXPECT_FALSE(j.events(EventKind::GroupViewInstalled).empty());
  // …node 3's replica learns it is in a secondary component…
  const auto secondary = j.events(EventKind::PartitionSecondary);
  ASSERT_FALSE(secondary.empty());
  EXPECT_EQ(secondary.front().node, 3u);
  EXPECT_EQ(secondary.front().detail_str().rfind("ctr ", 0), 0u);
  // …and the heal is detected as a remerge.
  EXPECT_FALSE(j.events(EventKind::RemergeDetected).empty());

  // The journal reads as one time-ordered story.
  const auto all = j.events();
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(all[i - 1].time, all[i].time) << "event " << i;
  }
  const std::string dump = lines(all);
  EXPECT_NE(dump.find("token_loss"), std::string::npos);
  EXPECT_NE(dump.find("partition_secondary"), std::string::npos);
  EXPECT_NE(dump.find("remerge_detected"), std::string::npos);
}

}  // namespace
}  // namespace eternal::obs
