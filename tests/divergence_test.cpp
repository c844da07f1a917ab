// Divergence oracle: cross-replica state-digest comparison.
//
// The detlint static pass (tools/lint) keeps known nondeterminism out of
// the tree; these tests prove the *runtime* side of the determinism story —
// a servant that computes different state at different replicas, despite
// receiving the same totally-ordered inputs, is caught at the next digest
// boundary and convicted by operation identifier.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "app/servants.hpp"
#include "ft/replication_manager.hpp"
#include "obs/journal.hpp"
#include "rep/domain.hpp"
#include "rep/oracle.hpp"

namespace eternal::rep {
namespace {

using app::Counter;
using sim::kMillisecond;
using sim::kSecond;
using sim::NodeId;

/// A counter that violates the replica-determinism contract: each copy adds
/// a per-replica salt on incr, so actively-replicated copies drift apart
/// while still answering the client identically-shaped replies. This is
/// exactly the silent failure mode the oracle exists to expose.
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

struct Cluster {
  explicit Cluster(std::size_t n, EngineParams ep, std::uint64_t seed = 1)
      : sim(seed), net(sim, n), fabric(sim, net), domain(fabric, ep) {
    obs::Journal::global().clear();
    fabric.start_all();
  }

  bool converge(sim::Time timeout = 2 * kSecond) {
    const bool ok = fabric.run_until_converged(timeout);
    sim.run_for(300 * kMillisecond);
    return ok;
  }

  /// Let staggered responses, digest broadcasts and journal writes flush.
  void run_settle() { sim.run_for(kSecond); }

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
  Domain domain;
};

EngineParams oracle_params(std::uint64_t interval) {
  EngineParams ep;
  ep.divergence_check_interval = interval;
  return ep;
}

// ---------------------------------------------------------------------------
// Oracle unit behaviour
// ---------------------------------------------------------------------------

TEST(Oracle, DisabledByDefault) {
  DivergenceOracle oracle;
  EXPECT_FALSE(oracle.enabled());
  EXPECT_EQ(EngineParams{}.divergence_check_interval, 0u);
}

TEST(Oracle, DueFollowsStateVersionCadence) {
  DivergenceOracle oracle(3);
  EXPECT_TRUE(oracle.enabled());
  EXPECT_FALSE(oracle.due(1));
  EXPECT_FALSE(oracle.due(2));
  EXPECT_TRUE(oracle.due(3));
  EXPECT_TRUE(oracle.due(6));
}

TEST(Oracle, MatchingDigestsProduceNoReport) {
  DivergenceOracle oracle(1);
  const OperationId op{{0, 9}, 1};
  EXPECT_FALSE(oracle.observe("g", op, 0, 0xAB, 1));
  EXPECT_FALSE(oracle.observe("g", op, 1, 0xAB, 1));
  EXPECT_FALSE(oracle.observe("g", op, 2, 0xAB, 1));
}

TEST(Oracle, FirstMismatchReportsOncePerOperation) {
  DivergenceOracle oracle(1);
  const OperationId op{{0, 9}, 1};
  EXPECT_FALSE(oracle.observe("g", op, 0, 0xAB, 1));  // reference
  auto report = oracle.observe("g", op, 1, 0xCD, 1);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->group, "g");
  EXPECT_EQ(report->op, op);
  EXPECT_EQ(report->state_version, 1u);
  EXPECT_EQ(report->node_a, 0u);
  EXPECT_EQ(report->digest_a, 0xABu);
  EXPECT_EQ(report->node_b, 1u);
  EXPECT_EQ(report->digest_b, 0xCDu);
  EXPECT_NE(report->str().find("op=" + op.str()), std::string::npos);
  // Third (also wrong) copy: the operation is already convicted.
  EXPECT_FALSE(oracle.observe("g", op, 2, 0xEF, 1));
}

TEST(Oracle, ForgetDropsOnlyTheNamedGroup) {
  DivergenceOracle oracle(1);
  const OperationId op{{0, 9}, 1};
  oracle.observe("a", op, 0, 0xAB, 1);
  oracle.observe("b", op, 0, 0xAB, 1);
  oracle.forget("a");
  EXPECT_EQ(oracle.tracked(), 1u);
  // Group "a" lost its reference; a fresh digest becomes the new one.
  EXPECT_FALSE(oracle.observe("a", op, 1, 0xCD, 1));
  // Group "b" kept its reference and still convicts.
  EXPECT_TRUE(oracle.observe("b", op, 1, 0xCD, 1));
}

TEST(Oracle, DigestStateSeparatesStateAndVersion) {
  Counter a, b;
  EXPECT_EQ(digest_state(a, 1), digest_state(b, 1));
  EXPECT_NE(digest_state(a, 1), digest_state(a, 2));  // version mixed in
  const cdr::Bytes state = cdr::make_bytes([](cdr::Writer& w) {
    w.put_longlong(42);
    w.put_ulonglong(1);
  });
  cdr::Decoder dec(state);
  b.set_state(dec);
  EXPECT_NE(digest_state(a, 1), digest_state(b, 1));  // state differs
}

// ---------------------------------------------------------------------------
// End-to-end: 3-way active replication
// ---------------------------------------------------------------------------

TEST(Divergence, DeterministicServantIsDivergenceFree) {
  Cluster c(4, oracle_params(1));
  c.domain.host_on<Counter>(GroupConfig{"ctr", Style::Active}, {0, 1, 2});
  ASSERT_TRUE(c.converge());

  for (int i = 0; i < 6; ++i) c.incr(3, "ctr", 1);
  c.run_settle();

  for (NodeId n : {0u, 1u, 2u}) {
    const EngineStats s = c.domain.engine(n).stats();
    EXPECT_EQ(s.state_digests_sent, 6u) << "node " << n;
    EXPECT_EQ(s.divergences_detected, 0u) << "node " << n;
  }
  EXPECT_TRUE(obs::Journal::global()
                  .events(obs::EventKind::DivergenceDetected)
                  .empty());
}

TEST(Divergence, CadenceFollowsStateVersionInterval) {
  Cluster c(4, oracle_params(2));
  c.domain.host_on<Counter>(GroupConfig{"ctr", Style::Active}, {0, 1, 2});
  ASSERT_TRUE(c.converge());

  for (int i = 0; i < 6; ++i) c.incr(3, "ctr", 1);
  c.run_settle();

  // Versions 2, 4, 6 are digest boundaries; 1, 3, 5 are not.
  for (NodeId n : {0u, 1u, 2u}) {
    EXPECT_EQ(c.domain.engine(n).stats().state_digests_sent, 3u)
        << "node " << n;
  }
}

TEST(Divergence, SaltedServantIsConvictedByOperationId) {
  Cluster c(4, oracle_params(1));
  // Deliberately nondeterministic: replica n salts every incr with n.
  for (NodeId n : {0u, 1u, 2u}) {
    c.domain.engine(n).host(GroupConfig{"ctr", Style::Active},
                            std::make_shared<SaltedCounter>(n), true);
  }
  ASSERT_TRUE(c.converge());

  std::optional<DivergenceReport> seen;
  c.domain.engine(0).set_divergence_observer(
      [&seen](const DivergenceReport& r) {
        if (!seen) seen = r;
      });

  c.incr(3, "ctr", 5);
  c.run_settle();

  // Every engine hosting the group convicts the same operation.
  for (NodeId n : {0u, 1u, 2u}) {
    EXPECT_GE(c.domain.engine(n).stats().divergences_detected, 1u)
        << "node " << n;
  }

  // The observer received a structured report naming the operation.
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->group, "ctr");
  EXPECT_NE(seen->digest_a, seen->digest_b);
  EXPECT_NE(seen->node_a, seen->node_b);

  // The journal records the fault, naming the diverged operation id.
  const auto events =
      obs::Journal::global().events(obs::EventKind::DivergenceDetected);
  ASSERT_FALSE(events.empty());
  const std::string detail = events.front().detail_str();
  EXPECT_EQ(detail.rfind("ctr ", 0), 0u) << detail;
  EXPECT_NE(detail.find("op=" + seen->op.str()), std::string::npos)
      << detail;
}

TEST(Divergence, OracleOffMeansNoDigestTraffic) {
  Cluster c(4, oracle_params(0));
  for (NodeId n : {0u, 1u, 2u}) {
    c.domain.engine(n).host(GroupConfig{"ctr", Style::Active},
                            std::make_shared<SaltedCounter>(n), true);
  }
  ASSERT_TRUE(c.converge());
  c.incr(3, "ctr", 5);
  c.run_settle();
  for (NodeId n : {0u, 1u, 2u}) {
    const EngineStats s = c.domain.engine(n).stats();
    EXPECT_EQ(s.state_digests_sent, 0u);
    EXPECT_EQ(s.divergences_detected, 0u);
  }
}

// ---------------------------------------------------------------------------
// FT management plane: divergence becomes a FaultNotifier report
// ---------------------------------------------------------------------------

TEST(Divergence, ReplicationManagerPushesDivergenceFaultReport) {
  Cluster c(4, oracle_params(1));
  ft::FaultNotifier notifier;
  ft::ReplicationManager rm(c.domain, notifier);

  for (NodeId n : {0u, 1u, 2u}) {
    c.domain.engine(n).host(GroupConfig{"ctr", Style::Active},
                            std::make_shared<SaltedCounter>(n), true);
  }
  ASSERT_TRUE(c.converge());
  c.incr(3, "ctr", 5);
  c.run_settle();

  bool reported = false;
  for (const ft::FaultReport& r : notifier.history()) {
    if (r.type != "DIVERGENCE") continue;
    reported = true;
    EXPECT_EQ(r.group, "ctr");
    EXPECT_NE(r.detail.find("op="), std::string::npos) << r.detail;
  }
  EXPECT_TRUE(reported);
}

TEST(Divergence, ReplicationManagerStaysQuietWhenDeterministic) {
  Cluster c(4, oracle_params(1));
  ft::FaultNotifier notifier;
  ft::ReplicationManager rm(c.domain, notifier);

  c.domain.host_on<Counter>(GroupConfig{"ctr", Style::Active}, {0, 1, 2});
  ASSERT_TRUE(c.converge());
  for (int i = 0; i < 4; ++i) c.incr(3, "ctr", 1);
  c.run_settle();

  for (const ft::FaultReport& r : notifier.history()) {
    EXPECT_NE(r.type, "DIVERGENCE") << r.detail;
  }
}

}  // namespace
}  // namespace eternal::rep
