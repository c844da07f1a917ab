// Full-stack integration tests: management plane + replication engine +
// group communication + simulated LAN, under combined fault loads.
#include <gtest/gtest.h>

#include "app/servants.hpp"
#include "ft/fault_detector.hpp"
#include "ft/replication_manager.hpp"

namespace eternal {
namespace {

using app::Counter;
using app::Inventory;
using app::KvStore;
using sim::kMillisecond;
using sim::kSecond;
using sim::NodeId;

struct Stack {
  explicit Stack(std::size_t n, std::uint64_t seed = 1,
                 rep::EngineParams ep = {})
      : sim(seed), net(sim, n), fabric(sim, net), domain(fabric, ep),
        rm(domain, notifier) {
    fabric.start_all();
  }

  bool converge(sim::Time timeout = 5 * kSecond) {
    const bool ok = fabric.run_until_converged(timeout);
    sim.run_for(300 * kMillisecond);
    return ok;
  }

  void make_counter_group(const std::string& name, rep::Style style,
                          std::vector<NodeId> nodes, std::uint32_t min) {
    rm.register_factory(
        name, [](NodeId) { return std::make_shared<Counter>(); });
    ft::Properties p;
    p.replication_style = style;
    p.initial_number_replicas = static_cast<std::uint32_t>(nodes.size());
    p.minimum_number_replicas = min;
    rm.properties().set_properties(name, p);
    rm.create_object(name, nodes);
    sim.run_for(kSecond);
  }

  std::int64_t incr(NodeId node, const std::string& group,
                    sim::Time timeout = 10 * kSecond) {
    const cdr::Bytes enc = cdr::make_bytes([&](cdr::Writer& w) {
      w.put_longlong(1);
    });
    cdr::Bytes out =
        domain.client(node).invoke_blocking(group, "incr", enc,
                                            timeout);
    cdr::Decoder dec(out);
    return dec.get_longlong();
  }

  std::int64_t value_at(NodeId node, const std::string& group) {
    auto r = std::dynamic_pointer_cast<Counter>(
        domain.engine(node).local_replica(group));
    return r ? r->value() : -1;
  }

  sim::Simulation sim;
  sim::Network net;
  totem::Fabric fabric;
  rep::Domain domain;
  ft::FaultNotifier notifier;
  ft::ReplicationManager rm;
};

TEST(Integration, ServiceSurvivesLossyNetworkWithCrashAndRespawn) {
  Stack s(5, /*seed=*/21);
  ASSERT_TRUE(s.converge());
  sim::NetParams lossy;
  lossy.loss_probability = 0.01;
  s.net.set_params(lossy);
  s.make_counter_group("ctr", rep::Style::Active, {0, 1, 2}, 3);

  std::int64_t expect = 0;
  for (int i = 0; i < 10; ++i) EXPECT_EQ(s.incr(4, "ctr"), ++expect);
  s.fabric.crash(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(s.incr(4, "ctr"), ++expect);
  s.sim.run_for(5 * kSecond);  // RM respawns a replacement
  EXPECT_EQ(s.rm.locations_of("ctr").size(), 3u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(s.incr(4, "ctr"), ++expect);
  s.sim.run_for(2 * kSecond);
  for (NodeId n : s.rm.locations_of("ctr")) {
    EXPECT_EQ(s.value_at(n, "ctr"), expect) << "node " << n;
  }
}

TEST(Integration, DonorCrashDuringStateTransferIsRetried) {
  Stack s(5, /*seed=*/9);
  ASSERT_TRUE(s.converge());
  s.make_counter_group("ctr", rep::Style::Active, {0, 1}, 2);
  for (int i = 0; i < 20; ++i) s.incr(4, "ctr");

  // Use a tiny chunk size so the transfer spans many messages, then kill
  // the donor (node 0, lowest synced) as soon as the join starts.
  s.domain.engine(2).host(rep::GroupConfig{"ctr", rep::Style::Active},
                          std::make_shared<Counter>(), /*initial=*/false);
  s.sim.run_for(2 * kMillisecond);
  s.fabric.crash(0);
  s.sim.run_for(10 * kSecond);
  ASSERT_TRUE(s.domain.engine(2).is_synced("ctr"));
  EXPECT_EQ(s.value_at(2, "ctr"), 20);
}

TEST(Integration, CrashDuringPartitionThenRemerge) {
  Stack s(6, /*seed=*/33);
  ASSERT_TRUE(s.converge());
  s.make_counter_group("ctr", rep::Style::Active, {0, 1, 4}, 2);

  std::int64_t ops = 0;
  s.incr(2, "ctr");
  ++ops;
  s.net.set_partitions({{0, 1, 2, 3}, {4, 5}});
  ASSERT_TRUE(s.converge());
  s.incr(2, "ctr");  // primary side
  ++ops;
  s.incr(5, "ctr");  // secondary side (fulfillment)
  ++ops;
  s.fabric.crash(1);  // crash inside the primary component
  ASSERT_TRUE(s.converge());
  s.incr(2, "ctr");
  ++ops;
  s.net.heal_partitions();
  ASSERT_TRUE(s.converge());
  s.sim.run_for(5 * kSecond);

  EXPECT_EQ(s.value_at(0, "ctr"), ops);
  EXPECT_EQ(s.value_at(4, "ctr"), ops);
}

TEST(Integration, MinorityClientBlocksUntilRemerge) {
  Stack s(4, /*seed=*/2);
  ASSERT_TRUE(s.converge());
  s.make_counter_group("ctr", rep::Style::Active, {0, 1}, 2);

  // Node 3 is partitioned away from every replica: its invocation cannot
  // complete until the network heals — then the retry machinery delivers
  // it exactly once.
  s.net.set_partitions({{0, 1, 2}, {3}});
  ASSERT_TRUE(s.converge());
  s.domain.client(3).set_retry_interval(50 * kMillisecond);
  const cdr::Bytes enc = cdr::make_bytes([&](cdr::Writer& w) {
    w.put_longlong(1);
  });
  auto fut = s.domain.client(3).invoke("ctr", "incr", enc);
  s.sim.run_for(2 * kSecond);
  EXPECT_FALSE(fut.ready());
  s.net.heal_partitions();
  ASSERT_TRUE(s.converge());
  s.sim.run_for(3 * kSecond);
  EXPECT_TRUE(fut.ready());
  s.sim.run_for(kSecond);
  EXPECT_EQ(s.value_at(0, "ctr"), 1);
  EXPECT_EQ(s.value_at(1, "ctr"), 1);
}

TEST(Integration, CascadingFailuresDownToOneReplicaAndBack) {
  Stack s(5, /*seed=*/44);
  ASSERT_TRUE(s.converge());
  // min=1 so the RM does not interfere; we restart nodes manually.
  s.make_counter_group("ctr", rep::Style::Active, {0, 1, 2}, 1);

  std::int64_t expect = 0;
  EXPECT_EQ(s.incr(3, "ctr"), ++expect);
  s.fabric.crash(0);
  ASSERT_TRUE(s.converge());
  EXPECT_EQ(s.incr(3, "ctr"), ++expect);
  s.fabric.crash(1);
  ASSERT_TRUE(s.converge());
  EXPECT_EQ(s.incr(3, "ctr"), ++expect);  // single surviving replica

  // Restart a crashed processor; its replica state was lost, so hosting
  // anew acquires the current state by transfer.
  s.domain.restart(0);
  ASSERT_TRUE(s.converge());
  s.domain.engine(0).host(rep::GroupConfig{"ctr", rep::Style::Active},
                          std::make_shared<Counter>(), /*initial=*/false);
  s.sim.run_for(5 * kSecond);
  ASSERT_TRUE(s.domain.engine(0).is_synced("ctr"));
  EXPECT_EQ(s.value_at(0, "ctr"), expect);
  EXPECT_EQ(s.incr(3, "ctr"), ++expect);
}

TEST(Integration, MixedStyleGroupsShareProcessorsUnderFaults) {
  Stack s(6, /*seed=*/5);
  ASSERT_TRUE(s.converge());
  s.domain.host_on<app::Teller>(
      rep::GroupConfig{"teller", rep::Style::WarmPassive}, {0, 1, 2});
  s.domain.host_on<app::Account>(
      rep::GroupConfig{"a", rep::Style::Active}, {1, 2, 3});
  s.domain.host_on<app::Account>(
      rep::GroupConfig{"b", rep::Style::ColdPassive}, {2, 3, 4});
  s.sim.run_for(kSecond);

  const cdr::Bytes dep = cdr::make_bytes([&](cdr::Writer& w) {
    w.put_longlong(100);
  });
  s.domain.client(5).invoke_blocking("a", "deposit", dep);

  auto transfer = [&] {
    const cdr::Bytes args = cdr::make_bytes([&](cdr::Writer& w) {
      w.put_string("a");
      w.put_string("b");
      w.put_longlong(10);
    });
    s.domain.client(5).invoke_blocking("teller", "transfer", args,
                                       10 * kSecond);
  };
  transfer();
  // Node 2 hosts a replica of *all three* groups; crash it mid-service.
  s.fabric.crash(2);
  ASSERT_TRUE(s.converge());
  transfer();
  s.sim.run_for(2 * kSecond);

  cdr::Bytes bal = s.domain.client(5).invoke_blocking("b", "balance", {});
  cdr::Decoder dec(bal);
  EXPECT_EQ(dec.get_longlong(), 20);
}

TEST(Integration, DeliberateRemovalIsMaskedLikeAFault) {
  Stack s(4, /*seed=*/8);
  ASSERT_TRUE(s.converge());
  s.make_counter_group("ctr", rep::Style::WarmPassive, {0, 1, 2}, 2);
  std::int64_t expect = 0;
  EXPECT_EQ(s.incr(3, "ctr"), ++expect);
  // Remove the *primary* deliberately (live-upgrade building block).
  s.rm.remove_member("ctr", 0);
  s.sim.run_for(kSecond);
  EXPECT_EQ(s.incr(3, "ctr"), ++expect);
  // Let the backup's state update land: the blocking call returns the
  // moment the *client* has its reply, which can precede the backup's
  // delivery of the (batched) update by a few simulated microseconds.
  s.sim.run_for(100 * kMillisecond);
  EXPECT_EQ(s.value_at(1, "ctr"), expect);
  EXPECT_EQ(s.value_at(2, "ctr"), expect);
}

TEST(Integration, InventoryWithManagementPlaneAndPartition) {
  Stack s(5, /*seed=*/15);
  ASSERT_TRUE(s.converge());
  s.rm.register_factory(
      "inv", [](NodeId) { return std::make_shared<Inventory>(); });
  ft::Properties p;
  p.initial_number_replicas = 3;
  p.minimum_number_replicas = 2;
  s.rm.properties().set_properties("inv", p);
  s.rm.create_object("inv", std::vector<NodeId>{0, 1, 2});
  s.sim.run_for(kSecond);

  const cdr::Bytes make = cdr::make_bytes([&](cdr::Writer& w) {
    w.put_longlong(1);
  });
  s.domain.client(0).invoke_blocking("inv", "manufacture", make);

  s.net.set_partitions({{0, 1, 3, 4}, {2}});
  ASSERT_TRUE(s.converge());
  s.domain.client(1).invoke_blocking("inv", "sell", {});
  s.domain.client(2).invoke_blocking("inv", "sell", {});
  s.net.heal_partitions();
  ASSERT_TRUE(s.converge());
  s.sim.run_for(5 * kSecond);

  for (NodeId n : {0u, 1u, 2u}) {
    auto inv = std::dynamic_pointer_cast<Inventory>(
        s.domain.engine(n).local_replica("inv"));
    ASSERT_NE(inv, nullptr);
    EXPECT_EQ(inv->shipped(), 1) << "node " << n;
    EXPECT_EQ(inv->back_orders(), 1) << "node " << n;
    EXPECT_EQ(inv->rush_orders(), 1) << "node " << n;
  }
}

TEST(Integration, DetectorAndMembershipAgreeOnFault) {
  Stack s(4, /*seed=*/6);
  ASSERT_TRUE(s.converge());
  ft::FaultDetector watcher(s.sim, s.fabric.group(0), s.notifier);
  ft::FaultDetector responder(s.sim, s.fabric.group(3), s.notifier);
  responder.start();
  watcher.monitor(3, 40 * kMillisecond, 15 * kMillisecond);
  s.make_counter_group("ctr", rep::Style::Active, {0, 1, 3}, 2);

  s.fabric.crash(3);
  s.sim.run_for(2 * kSecond);
  EXPECT_TRUE(watcher.suspects(3));
  // Membership already removed it from the group view too.
  EXPECT_EQ(s.domain.engine(0).group_members("ctr"),
            (std::vector<NodeId>{0, 1}));
}

TEST(Integration, ReplyLogEvictionKeepsRecentRetriesExact) {
  rep::EngineParams ep;
  ep.reply_log_capacity = 8;  // tiny: old replies evicted quickly
  Stack s(4, /*seed=*/10, ep);
  ASSERT_TRUE(s.converge());
  s.make_counter_group("ctr", rep::Style::Active, {0, 1}, 2);
  s.domain.client(3).set_retry_interval(400);  // aggressive duplicates
  std::int64_t expect = 0;
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(s.incr(3, "ctr"), ++expect);
  }
  s.sim.run_for(kSecond);
  EXPECT_EQ(s.value_at(0, "ctr"), 50);
  EXPECT_EQ(s.value_at(1, "ctr"), 50);
}

TEST(Integration, ThreeWayFragmentationSelfPromotesAndConverges) {
  Stack s(3, /*seed=*/12);
  ASSERT_TRUE(s.converge());
  s.make_counter_group("ctr", rep::Style::Active, {0, 1, 2}, 1);
  std::int64_t ops = 0;
  s.incr(0, "ctr");
  ++ops;

  // Total fragmentation: no component has a majority, so none is primary.
  s.net.set_partitions({{0}, {1}, {2}});
  ASSERT_TRUE(s.converge());
  s.incr(0, "ctr");
  ++ops;
  s.incr(1, "ctr");
  ++ops;
  s.incr(2, "ctr");
  ++ops;

  s.net.heal_partitions();
  ASSERT_TRUE(s.converge());
  s.sim.run_for(10 * kSecond);
  // The lowest member's component self-promoted; the others resynced and
  // replayed their fulfillment queues: all operations survive.
  for (NodeId n : {0u, 1u, 2u}) {
    EXPECT_EQ(s.value_at(n, "ctr"), ops) << "node " << n;
  }
}

}  // namespace
}  // namespace eternal
