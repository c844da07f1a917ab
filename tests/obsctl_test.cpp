// Flight-recorder dumps + obsctl invariant auditor.
//
// The scenario tests double as the `obsctl_audit` ctest fixture: each one
// drives a full fault-tolerance story (active failover, warm-passive
// failover, divergence conviction) with tracing, journal and flight
// recorder armed, dumps the per-node rings into OBSCTL_DUMP_DIR, and then
// audits the dump in-process. After they run, the standalone `obsctl audit`
// ctest re-audits the same directory through the CLI.
//
// The injected-duplicate test proves the auditor is not vacuous: a
// hand-built dump whose history shows one operation executing twice on one
// node must be flagged.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyze.hpp"
#include "app/servants.hpp"
#include "ft/fault_notifier.hpp"
#include "ft/recovery.hpp"
#include "ft/replication_manager.hpp"
#include "obs/obs.hpp"
#include "rep/domain.hpp"
#include "rep/stub.hpp"

namespace eternal {
namespace {

namespace fs = std::filesystem;

using app::Counter;
using sim::kMillisecond;
using sim::kSecond;
using sim::NodeId;

/// One subdirectory per scenario: a dump directory holds the per-node rings
/// of ONE run. Operation ids are deterministic, so dumps of different runs
/// would alias the same ids and corrupt a merged audit.
std::string dump_dir(const std::string& scenario) {
  const std::string dir = std::string(OBSCTL_DUMP_DIR) + "/" + scenario;
  fs::create_directories(dir);
  return dir;
}

std::string bad_dump_dir() {
  const std::string dir = std::string(OBSCTL_DUMP_DIR) + "_bad";
  fs::create_directories(dir);
  return dir;
}

struct Cluster {
  explicit Cluster(std::size_t n, std::uint64_t seed = 1,
                   rep::EngineParams ep = {})
      : sim(seed), net(sim, n), fabric(sim, net, {}), domain(fabric, ep) {
    fabric.start_all();
  }

  bool converge(sim::Time timeout = 2 * kSecond) {
    const bool ok = fabric.run_until_converged(timeout);
    sim.run_for(300 * kMillisecond);
    return ok;
  }

  void run(sim::Time t) { sim.run_for(t); }

  std::int64_t incr(NodeId node, const std::string& group, std::int64_t d) {
    const cdr::Bytes enc = cdr::make_bytes([&](cdr::Writer& w) {
      w.put_longlong(d);
    });
    cdr::Bytes out =
        domain.client(node).invoke_blocking(group, "incr", enc);
    cdr::Decoder dec(out);
    return dec.get_longlong();
  }

  sim::Simulation sim;
  sim::Network net;
  totem::Fabric fabric;
  rep::Domain domain;
};

/// Turns tracing on over an empty record store around each scenario. The
/// recorder's dump directory stays EMPTY during the run — scenarios dump
/// explicitly at the end, so the audited files never contain a mid-flight
/// snapshot with legitimately unanswered operations.
struct Scenario : ::testing::Test {
  void SetUp() override {
    obs::Tracer::global().clear();
    obs::Tracer::global().enable(true);
    obs::FlightRecorder::global().set_dump_dir("");
  }
  void TearDown() override {
    obs::FlightRecorder::global().set_dump_dir("");
    obs::Tracer::global().enable(false);
    obs::Tracer::global().clear();
  }
};

/// Pipelined invocations with the primary crashing mid-stream (the
/// pipeline_test scenario), recorded and dumped for the auditor.
void failover_scenario(rep::Style style, const std::string& scenario) {
  constexpr int kDepth = 16;
  Cluster c(4);
  ASSERT_TRUE(c.converge());
  c.domain.host_on<Counter>(rep::GroupConfig{"ctr", style}, {0, 1, 2});
  c.run(kSecond);

  rep::GroupRef ctr = c.domain.ref(3, "ctr");
  std::vector<rep::TypedInvocation<std::int64_t>> invs;
  invs.reserve(kDepth);
  for (int i = 0; i < kDepth; ++i) {
    invs.push_back(ctr.invoke<std::int64_t>("incr", std::int64_t{1}));
  }
  // Crash the primary mid-flight: after the batch was sequenced and
  // delivered (~360 simulated us) but before its state updates / replies
  // are ordered, so the promoted backup must re-drive logged operations.
  c.run(400);
  c.fabric.crash(0);
  c.run(8 * kSecond);
  for (int i = 0; i < kDepth; ++i) {
    ASSERT_TRUE(invs[i].ready()) << "invocation " << i << " never completed";
    EXPECT_EQ(invs[i].get(), i + 1);
  }

  const std::string path = dump_dir(scenario) + "/failover.bin";
  ASSERT_TRUE(obs::FlightRecorder::global().dump(path));

  obsctl::Analysis analysis;
  analysis.add_file(path);
  ASSERT_EQ(analysis.timelines().size(), static_cast<std::size_t>(kDepth));
  for (const obsctl::OpTimeline& t : analysis.timelines()) {
    EXPECT_NE(t.client_send, 0u) << t.op.str();
    EXPECT_NE(t.reply_deliver, 0u) << t.op.str();
    EXPECT_NE(t.carrier_seq, 0u) << t.op.str();
    EXPECT_NE(t.trace_id, 0u) << t.op.str();
  }
  const auto violations = analysis.audit();
  for (const auto& v : violations) ADD_FAILURE() << v.str();

  const std::string latency = analysis.latency_report();
  EXPECT_NE(latency.find("client->order"), std::string::npos);
  EXPECT_NE(latency.find("deliver->reply"), std::string::npos);
  EXPECT_NE(analysis.timeline_report().find("order="), std::string::npos);
}

TEST_F(Scenario, ActiveFailoverDumpAuditsClean) {
  failover_scenario(rep::Style::Active, "active");
}

TEST_F(Scenario, WarmPassiveFailoverDumpAuditsClean) {
  failover_scenario(rep::Style::WarmPassive, "warm");

  // The promoted backup re-invoked at least one logged operation, and the
  // retry kept the original causal chain (same trace id as the client send).
  bool saw_retry = false;
  obsctl::Analysis analysis;
  analysis.add_file(dump_dir("warm") + "/failover.bin");
  for (const obsctl::OpTimeline& t : analysis.timelines()) {
    if (t.failover_retry) {
      saw_retry = true;
      EXPECT_NE(t.trace_id, 0u);
    }
  }
  EXPECT_TRUE(saw_retry);
}

/// A servant that salts each increment with its replica id: the divergence
/// oracle convicts it at the first digest boundary (divergence_test owns
/// the oracle semantics; here the conviction must land in the dump and the
/// auditor must accept it as a *consistent* conviction, not a violation).
class SaltedCounter : public rep::Replica {
 public:
  explicit SaltedCounter(std::int64_t salt) : salt_(salt) {
    op("incr", [this](orb::InvokerContext&, cdr::Decoder& in,
                      cdr::Writer& out) {
      value_ += in.get_longlong() + salt_;
      out.put_longlong(value_);
    });
  }

  void get_state(cdr::Writer& out) const override {
    out.put_longlong(value_);
  }
  void set_state(cdr::Decoder& in) override { value_ = in.get_longlong(); }

 private:
  std::int64_t salt_ = 0;
  std::int64_t value_ = 0;
};

TEST_F(Scenario, DivergenceConvictionDumpAuditsClean) {
  rep::EngineParams ep;
  ep.divergence_check_interval = 1;
  Cluster c(4, /*seed=*/1, ep);
  for (NodeId n : {0u, 1u, 2u}) {
    c.domain.engine(n).host(rep::GroupConfig{"ctr", rep::Style::Active},
                            std::make_shared<SaltedCounter>(n), true);
  }
  ASSERT_TRUE(c.converge());
  c.incr(3, "ctr", 5);
  c.run(kSecond);

  // The oracle convicted on every replica and the journal recorded it.
  ASSERT_FALSE(obs::Journal::global()
                   .events(obs::EventKind::DivergenceDetected)
                   .empty());

  const std::string path = dump_dir("divergence") + "/conviction.bin";
  ASSERT_TRUE(obs::FlightRecorder::global().dump(path));

  obsctl::Analysis analysis;
  analysis.add_file(path);
  // A consistent conviction is the oracle doing its job — not an audit
  // violation. Inconsistent convictions or lost operations would be.
  const auto violations = analysis.audit();
  for (const auto& v : violations) ADD_FAILURE() << v.str();
}

// ---------------------------------------------------------------------------
// The auditor is not vacuous: an injected duplicate execution is flagged.
// ---------------------------------------------------------------------------

obs::FlightRecord span_record(std::uint64_t time, std::uint32_t node,
                              obs::SpanEvent ev, std::uint64_t span,
                              std::uint64_t parent,
                              const std::string& detail) {
  obs::FlightRecord r;
  r.time = r.end = time;
  r.node = node;
  r.stream = obs::FlightRecord::Stream::Span;
  r.kind = static_cast<std::uint8_t>(ev);
  r.op = obs::OpRef{1, 7, 1};
  r.trace_id = 0xBEEF;
  r.span_id = span;
  r.parent_span = parent;
  r.set_detail(detail);
  return r;
}

TEST(ObsctlAudit, FlagsInjectedDuplicateExecution) {
  obs::FlightRecorder fr(64);
  fr.absorb(span_record(10, 3, obs::SpanEvent::ClientSend, 1, 0,
                        "group=ctr op=incr"));
  fr.absorb(span_record(20, 1, obs::SpanEvent::TotemDeliver, 2, 1,
                        "carrier=1:7 from=3"));
  fr.absorb(span_record(21, 1, obs::SpanEvent::ExecStart, 3, 1,
                        "group=ctr op=incr"));
  // The injected fault: the same operation starts executing a second time
  // on the same node — exactly-once is broken.
  fr.absorb(span_record(25, 1, obs::SpanEvent::ExecStart, 4, 1,
                        "group=ctr op=incr"));
  fr.absorb(span_record(30, 3, obs::SpanEvent::ReplyDeliver, 5, 3, ""));

  // Kept OUT of the audited fixture directory: this dump must fail.
  const std::string path = bad_dump_dir() + "/injected_duplicate.bin";
  ASSERT_TRUE(fr.dump(path));

  obsctl::Analysis analysis;
  analysis.add_file(path);
  const auto violations = analysis.audit();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].check, "duplicate-execution");
  EXPECT_NE(violations[0].detail.find("1:7/1"), std::string::npos);
  EXPECT_NE(violations[0].detail.find("node 1"), std::string::npos);
}

obs::FlightRecord journal_record(std::uint64_t time, std::uint32_t node,
                                 obs::EventKind kind,
                                 const std::string& detail) {
  obs::FlightRecord r;
  r.time = r.end = time;
  r.node = node;
  r.stream = obs::FlightRecord::Stream::Journal;
  r.kind = static_cast<std::uint8_t>(kind);
  r.set_detail(detail);
  return r;
}

TEST(ObsctlAudit, ReportsRunSeedFromMetaStamp) {
  // Soak/bench clusters stamp the run seed at t=0; violation reports name
  // the exact schedule through it.
  obs::FlightRecorder fr(64);
  fr.absorb(journal_record(0, 0, obs::EventKind::RunMeta, "seed=4217"));
  obsctl::Analysis analysis;
  analysis.add_records(fr.records());
  ASSERT_TRUE(analysis.has_run_seed());
  EXPECT_EQ(analysis.run_seed(), 4217u);

  obsctl::Analysis bare;
  bare.add_records(std::vector<obs::FlightRecord>{
      span_record(10, 3, obs::SpanEvent::ClientSend, 1, 0, "")});
  EXPECT_FALSE(bare.has_run_seed());
}

TEST(ObsctlAudit, StateTransferExemptsPartitionedReExecution) {
  // The paper's partitioned operation: node 1 executed the op tentatively
  // in a secondary component, resynced (discarding that history), and then
  // executed the client's retransmit on the merged history. The transfer
  // between the two executions makes both the duplicate-execution and the
  // unsuppressed-retry conviction wrong — and without it, both must fire.
  const auto story = [](bool with_transfer) {
    std::vector<obs::FlightRecord> recs;
    recs.push_back(span_record(10, 3, obs::SpanEvent::ClientSend, 1, 0,
                               "group=ctr op=incr"));
    recs.push_back(span_record(20, 1, obs::SpanEvent::TotemDeliver, 2, 1,
                               "carrier=1:7 from=3 target=ctr"));
    recs.push_back(span_record(21, 1, obs::SpanEvent::ExecStart, 3, 1,
                               "group=ctr op=incr"));
    if (with_transfer) {
      recs.push_back(journal_record(30, 1, obs::EventKind::StateTransferBegin,
                                    "ctr from node 2"));
      recs.push_back(journal_record(32, 1, obs::EventKind::StateTransferEnd,
                                    "ctr 1 ops replayed"));
    }
    recs.push_back(span_record(35, 3, obs::SpanEvent::ClientRetransmit, 4, 1,
                               "group=ctr op=incr"));
    recs.push_back(span_record(40, 1, obs::SpanEvent::TotemDeliver, 5, 1,
                               "carrier=2:3 from=3 target=ctr"));
    recs.push_back(span_record(41, 1, obs::SpanEvent::ExecStart, 6, 1,
                               "group=ctr op=incr"));
    recs.push_back(span_record(50, 3, obs::SpanEvent::ReplyDeliver, 7, 3, ""));
    return recs;
  };

  obsctl::Analysis exempt;
  exempt.add_records(story(/*with_transfer=*/true));
  const auto clean = exempt.audit();
  for (const auto& v : clean) ADD_FAILURE() << v.str();

  obsctl::Analysis convicted;
  convicted.add_records(story(/*with_transfer=*/false));
  const auto violations = convicted.audit();
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_EQ(violations[0].check, "duplicate-execution");
  EXPECT_EQ(violations[1].check, "unsuppressed-retry");
}

TEST(ObsctlAudit, TransferOnAnotherNodeDoesNotExempt) {
  // A transfer at a *different* node (or group) explains nothing about this
  // node's double execution — the conviction must stand.
  obs::FlightRecorder fr(64);
  fr.absorb(span_record(10, 3, obs::SpanEvent::ClientSend, 1, 0, ""));
  fr.absorb(span_record(20, 1, obs::SpanEvent::TotemDeliver, 2, 1,
                        "carrier=1:7 from=3 target=ctr"));
  fr.absorb(span_record(21, 1, obs::SpanEvent::ExecStart, 3, 1, ""));
  fr.absorb(journal_record(25, 2, obs::EventKind::StateTransferEnd,
                           "ctr 1 ops replayed"));  // node 2, not node 1
  fr.absorb(span_record(30, 1, obs::SpanEvent::ExecStart, 4, 1, ""));
  fr.absorb(span_record(40, 3, obs::SpanEvent::ReplyDeliver, 5, 3, ""));
  obsctl::Analysis analysis;
  analysis.add_records(fr.records());
  const auto violations = analysis.audit();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].check, "duplicate-execution");
}

TEST(ObsctlAudit, RecoveryExemptsReplayedReExecution) {
  // A cold restart replays the journal through the normal execution path:
  // the same operation legitimately starts executing again on the same
  // node, and the client's retry after the restart gets redelivered there.
  // The RecoveryBegin/End bracket between the two executions marks the
  // lineage boundary exactly like a state transfer; without it, both the
  // duplicate-execution and unsuppressed-retry convictions must fire.
  const auto story = [](bool with_recovery) {
    std::vector<obs::FlightRecord> recs;
    recs.push_back(span_record(10, 3, obs::SpanEvent::ClientSend, 1, 0,
                               "group=ctr op=incr"));
    recs.push_back(span_record(20, 1, obs::SpanEvent::TotemDeliver, 2, 1,
                               "carrier=1:7 from=3 target=ctr"));
    recs.push_back(span_record(21, 1, obs::SpanEvent::ExecStart, 3, 1,
                               "group=ctr op=incr"));
    if (with_recovery) {
      recs.push_back(journal_record(30, 1, obs::EventKind::RecoveryBegin,
                                    "ctr checkpoint version=0 replay_from=0"));
      recs.push_back(journal_record(32, 1, obs::EventKind::RecoveryEnd,
                                    "ctr version=1 replayed=1"));
    }
    recs.push_back(span_record(35, 3, obs::SpanEvent::ClientRetransmit, 4, 1,
                               "group=ctr op=incr"));
    recs.push_back(span_record(40, 1, obs::SpanEvent::TotemDeliver, 5, 1,
                               "carrier=2:3 from=3 target=ctr"));
    recs.push_back(span_record(41, 1, obs::SpanEvent::ExecStart, 6, 1,
                               "group=ctr op=incr"));
    recs.push_back(span_record(50, 3, obs::SpanEvent::ReplyDeliver, 7, 3, ""));
    return recs;
  };

  obsctl::Analysis exempt;
  exempt.add_records(story(/*with_recovery=*/true));
  for (const auto& v : exempt.audit()) ADD_FAILURE() << v.str();

  obsctl::Analysis convicted;
  convicted.add_records(story(/*with_recovery=*/false));
  const auto violations = convicted.audit();
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_EQ(violations[0].check, "duplicate-execution");
  EXPECT_EQ(violations[1].check, "unsuppressed-retry");
}

TEST(ObsctlAudit, RecoveryDigestMismatchMarkerIsFlagged) {
  // The engine re-digests a loaded checkpoint against its rebuilt state and
  // stamps " mismatch" into the RecoveryLoaded detail when they disagree.
  obsctl::Analysis analysis;
  analysis.add_records({journal_record(
      10, 1, obs::EventKind::RecoveryLoaded,
      "ctr version=5 digest=12345 mismatch expected=999@5")});
  const auto violations = analysis.audit();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].check, "recovery-digest");
  EXPECT_NE(violations[0].detail.find("node 1"), std::string::npos);
}

TEST(ObsctlAudit, CheckpointDigestsCrossCheckedAcrossNodesAndRecovery) {
  // Checkpoints ride the agreed sequence: two nodes cutting the same
  // (group, version) with different digests had already diverged.
  {
    obsctl::Analysis analysis;
    analysis.add_records(
        {journal_record(10, 0, obs::EventKind::CheckpointCut,
                        "ctr version=8 digest=111 pos=9"),
         journal_record(11, 1, obs::EventKind::CheckpointCut,
                        "ctr version=8 digest=222 pos=9")});
    const auto violations = analysis.audit();
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].check, "checkpoint-divergence");
  }
  // A recovery that loads a digest other than the recorded cut means the
  // disk image and the history disagree.
  {
    obsctl::Analysis analysis;
    analysis.add_records(
        {journal_record(10, 0, obs::EventKind::CheckpointCut,
                        "ctr version=8 digest=111 pos=9"),
         journal_record(90, 0, obs::EventKind::RecoveryLoaded,
                        "ctr version=8 digest=333")});
    const auto violations = analysis.audit();
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].check, "recovery-digest");
  }
  // Agreement on both axes is clean.
  {
    obsctl::Analysis analysis;
    analysis.add_records(
        {journal_record(10, 0, obs::EventKind::CheckpointCut,
                        "ctr version=8 digest=111 pos=9"),
         journal_record(11, 1, obs::EventKind::CheckpointCut,
                        "ctr version=8 digest=111 pos=9"),
         journal_record(90, 0, obs::EventKind::RecoveryLoaded,
                        "ctr version=8 digest=111")});
    EXPECT_TRUE(analysis.audit().empty());
  }
}

/// Whole-domain kill + cold restart, recorded and dumped: the recovery
/// story (checkpoint cuts, replayed executions, the straddle-free retry
/// window) must audit clean, and the dump doubles as the `recovery` ctest
/// fixture for the CLI.
TEST_F(Scenario, DomainRecoveryDumpAuditsClean) {
  sim::DiskFarm farm(3);
  sim::Simulation sim(21);
  sim::Network net(sim, 3);
  totem::Fabric fabric(sim, net);
  rep::Domain domain(fabric);
  ft::FaultNotifier notifier;
  ft::ReplicationManager rm(domain, notifier);
  dur::DurParams dp;
  dp.checkpoint_interval = 8;  // several cuts inside 20 increments
  ft::DurabilityPlane plane(domain, farm, dp);
  rm.set_durability_plane(&plane);
  fabric.start_all();
  plane.attach_all();

  ft::Properties props;
  props.replication_style = rep::Style::Active;
  props.initial_number_replicas = 3;
  props.minimum_number_replicas = 2;
  rm.create_object<Counter>("ctr", props, {{0, 1, 2}});
  ASSERT_TRUE(fabric.run_until_converged(2 * kSecond));
  sim.run_for(300 * kMillisecond);

  const auto incr = [&](NodeId node, std::int64_t d) {
    const cdr::Bytes enc = cdr::make_bytes([&](cdr::Writer& w) {
      w.put_longlong(d);
    });
    cdr::Bytes out = domain.client(node).invoke_blocking("ctr", "incr",
                                                         enc);
    cdr::Decoder dec(out);
    return dec.get_longlong();
  };
  for (int i = 0; i < 20; ++i) incr(0, 1);

  plane.sync_all();
  for (NodeId n : {0u, 1u, 2u}) {
    fabric.crash(n);
    plane.crash(n, /*torn=*/false);
  }
  sim.run_for(200 * kMillisecond);

  rm.recover_domain();
  ASSERT_TRUE(fabric.run_until_converged(8 * kSecond));
  sim.run_for(kSecond);
  // Post-recovery traffic: the audited history shows the recovered lineage
  // answering ordinary invocations.
  EXPECT_EQ(incr(1, 5), 25);
  sim.run_for(300 * kMillisecond);

  // The run really told the recovery story the auditor cross-checks.
  ASSERT_FALSE(
      obs::Journal::global().events(obs::EventKind::CheckpointCut).empty());
  ASSERT_FALSE(
      obs::Journal::global().events(obs::EventKind::RecoveryLoaded).empty());

  const std::string path = dump_dir("recovery") + "/domain_recovery.bin";
  ASSERT_TRUE(obs::FlightRecorder::global().dump(path));

  obsctl::Analysis analysis;
  analysis.add_file(path);
  const auto violations = analysis.audit();
  for (const auto& v : violations) ADD_FAILURE() << v.str();
}

TEST(ObsctlAudit, CleanSyntheticHistoryPasses) {
  obs::FlightRecorder fr(64);
  fr.absorb(span_record(10, 3, obs::SpanEvent::ClientSend, 1, 0, ""));
  fr.absorb(span_record(20, 1, obs::SpanEvent::TotemDeliver, 2, 1,
                        "carrier=1:7 from=3"));
  fr.absorb(span_record(21, 1, obs::SpanEvent::ExecStart, 3, 1, ""));
  fr.absorb(span_record(30, 3, obs::SpanEvent::ReplyDeliver, 4, 3, ""));
  obsctl::Analysis analysis;
  analysis.add_records(fr.records());
  EXPECT_TRUE(analysis.audit().empty());
}

// ---------------------------------------------------------------------------
// Flight-recorder mechanics: ring wrap, roundtrip, fault-triggered dumps.
// ---------------------------------------------------------------------------

TEST(FlightRecorderUnit, RingWrapKeepsNewestPerNode) {
  obs::FlightRecorder fr(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    fr.absorb(span_record(i, 1, obs::SpanEvent::TotemDeliver, i + 1, 0, ""));
  }
  fr.absorb(span_record(99, 2, obs::SpanEvent::ClientSend, 100, 0, ""));
  EXPECT_EQ(fr.absorbed(), 11u);
  EXPECT_EQ(fr.nodes(), 2u);
  EXPECT_EQ(fr.dropped(), 6u);  // node 1 overwrote 6 of its 10
  const auto recs = fr.records(1);
  ASSERT_EQ(recs.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(recs[i].time, 6 + i);  // oldest surviving first
  }
  EXPECT_EQ(fr.records(2).size(), 1u);
  EXPECT_TRUE(fr.records(7).empty());
}

TEST(FlightRecorderUnit, EncodeDecodeRoundTripsRecords) {
  obs::FlightRecorder fr(8);
  obs::FlightRecord a =
      span_record(5, 2, obs::SpanEvent::ExecStart, 9, 4, "group=g op=incr");
  a.end = 7;
  fr.absorb(a);
  obs::FlightRecord j;
  j.time = j.end = 6;
  j.node = 1;
  j.stream = obs::FlightRecord::Stream::Journal;
  j.kind = static_cast<std::uint8_t>(obs::EventKind::GroupViewInstalled);
  j.set_detail("ctr members=[0, 1, 2]");
  fr.absorb(j);
  // Over-long details are truncated to the fixed cell size, not rejected.
  obs::FlightRecord big = span_record(7, 2, obs::SpanEvent::ExecEnd, 10, 9,
                                      std::string(200, 'x'));
  fr.absorb(big);

  const auto out = obs::FlightRecorder::decode(fr.encode());
  ASSERT_EQ(out.size(), 3u);
  // decode merges per-node rings sorted by node; node 1's journal first.
  EXPECT_EQ(out[0].stream, obs::FlightRecord::Stream::Journal);
  EXPECT_EQ(out[0].journal_kind(), obs::EventKind::GroupViewInstalled);
  EXPECT_EQ(out[0].detail_str(), "ctr members=[0, 1, 2]");
  EXPECT_EQ(out[1].time, 5u);
  EXPECT_EQ(out[1].end, 7u);
  EXPECT_EQ(out[1].node, 2u);
  EXPECT_EQ(out[1].span_event(), obs::SpanEvent::ExecStart);
  EXPECT_EQ(out[1].op, (obs::OpRef{1, 7, 1}));
  EXPECT_EQ(out[1].trace_id, 0xBEEFu);
  EXPECT_EQ(out[1].span_id, 9u);
  EXPECT_EQ(out[1].parent_span, 4u);
  EXPECT_EQ(out[1].detail_str(), "group=g op=incr");
  EXPECT_EQ(out[2].detail_str().size(), obs::FlightRecord::kDetailCap - 1);
}

TEST(FlightRecorderUnit, DecodeRejectsGarbage) {
  EXPECT_THROW(obs::FlightRecorder::decode({1, 2, 3, 4, 5, 6, 7, 8}),
               cdr::MarshalError);
}

TEST(FlightRecorderUnit, LoadMissingFileThrows) {
  EXPECT_THROW(
      obs::FlightRecorder::load(bad_dump_dir() + "/no_such_dump.bin"),
      std::runtime_error);
}

TEST_F(Scenario, FaultConvictionWritesDeterministicDump) {
  const std::string dir = std::string(OBSCTL_DUMP_DIR) + "_faults";
  fs::create_directories(dir);
  obs::FlightRecorder::global().set_dump_dir(dir);
  ASSERT_TRUE(obs::FlightRecorder::global().armed());
  obs::Tracer::global().span(11, 11, 0, obs::OpRef{1, 2, 3},
                             obs::SpanEvent::ExecStart, {0xAB, 0}, "");

  ft::FaultNotifier notifier;
  notifier.push({0, "ctr", 12345, "CRASH", "token-loss timeout"});

  EXPECT_EQ(obs::FlightRecorder::global().fault_dumps(), 1u);
  const std::string expect = dir + "/flight-1-crash-t12345.bin";
  ASSERT_TRUE(fs::exists(expect));
  const auto recs = obs::FlightRecorder::load(expect);
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(recs.front().op, (obs::OpRef{1, 2, 3}));
}

TEST(FaultNotifierUnit, HistoryIsBoundedWithDroppedCounter) {
  ft::FaultNotifier notifier;
  notifier.set_history_capacity(2);
  for (int i = 0; i < 5; ++i) {
    notifier.push({static_cast<sim::NodeId>(i), "g",
                   static_cast<sim::Time>(i), "CRASH", ""});
  }
  EXPECT_EQ(notifier.history().size(), 2u);
  EXPECT_EQ(notifier.history_dropped(), 3u);
  EXPECT_EQ(notifier.history().front().node, 3u);
  EXPECT_EQ(notifier.history().back().node, 4u);
}

}  // namespace
}  // namespace eternal
