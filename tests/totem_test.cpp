#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "totem/fabric.hpp"
#include "totem/wire.hpp"

namespace eternal::totem {
namespace {

using sim::NodeId;
using sim::kMillisecond;
using sim::kSecond;

cdr::WireBuf bytes(std::string_view s) {
  return cdr::WireBuf(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}
std::string str(const cdr::WireBuf& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

struct Cluster {
  explicit Cluster(std::size_t n, std::uint64_t seed = 1, Params params = {})
      : sim(seed), net(sim, n), fabric(sim, net, params) {
    for (NodeId i = 0; i < n; ++i) {
      fabric.group(i).subscribe("g", [this, i](const GroupMessage& m) {
        delivered[i].push_back(m);
      });
    }
    fabric.start_all();
  }

  bool converge(sim::Time timeout = 2 * kSecond) {
    return fabric.run_until_converged(timeout);
  }

  std::vector<std::string> payloads(NodeId i) const {
    std::vector<std::string> out;
    for (const auto& m : delivered.at(i)) out.push_back(str(m.payload));
    return out;
  }

  sim::Simulation sim;
  sim::Network net;
  Fabric fabric;
  std::map<NodeId, std::vector<GroupMessage>> delivered;
};

TEST(TotemMembership, SingleNodeFormsSingletonRing) {
  Cluster c(1);
  ASSERT_TRUE(c.converge());
  EXPECT_TRUE(c.fabric.node(0).operational());
  EXPECT_EQ(c.fabric.node(0).members(), (std::vector<NodeId>{0}));
}

TEST(TotemMembership, ClusterFormsOneRing) {
  Cluster c(5);
  ASSERT_TRUE(c.converge());
  const RingId ring = c.fabric.node(0).ring_id();
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_TRUE(c.fabric.node(i).operational());
    EXPECT_EQ(c.fabric.node(i).ring_id(), ring);
    EXPECT_EQ(c.fabric.node(i).members(),
              (std::vector<NodeId>{0, 1, 2, 3, 4}));
  }
}

TEST(TotemOrder, AllNodesDeliverSameSequence) {
  Cluster c(4);
  ASSERT_TRUE(c.converge());
  // Several senders, interleaved.
  for (int round = 0; round < 10; ++round) {
    for (NodeId i = 0; i < 4; ++i) {
      c.fabric.group(i).send("g", bytes("m" + std::to_string(round) + "." +
                                        std::to_string(i)));
    }
  }
  c.sim.run_for(kSecond);
  ASSERT_EQ(c.delivered[0].size(), 40u);
  for (NodeId i = 1; i < 4; ++i) {
    EXPECT_EQ(c.payloads(i), c.payloads(0)) << "node " << i;
  }
}

TEST(TotemOrder, SenderSelfDelivers) {
  Cluster c(3);
  ASSERT_TRUE(c.converge());
  c.fabric.group(1).send("g", bytes("hello"));
  c.sim.run_for(kSecond);
  ASSERT_EQ(c.delivered[1].size(), 1u);
  EXPECT_EQ(c.delivered[1][0].sender, 1u);
}

TEST(TotemOrder, NonMemberCanSendToGroup) {
  Cluster c(3);
  ASSERT_TRUE(c.converge());
  c.fabric.group(0).join("g");
  c.sim.run_for(200 * kMillisecond);
  // Node 2 never joined "g" but can still send to it.
  c.fabric.group(2).send("g", bytes("from-outside"));
  c.sim.run_for(kSecond);
  ASSERT_FALSE(c.delivered[0].empty());
  EXPECT_EQ(str(c.delivered[0].back().payload), "from-outside");
}

TEST(TotemOrder, SequenceNumbersAreMonotonic) {
  Cluster c(3);
  ASSERT_TRUE(c.converge());
  for (int i = 0; i < 20; ++i) {
    c.fabric.group(i % 3).send("g", bytes("x"));
  }
  c.sim.run_for(kSecond);
  for (NodeId n = 0; n < 3; ++n) {
    const auto& msgs = c.delivered[n];
    ASSERT_EQ(msgs.size(), 20u);
    for (std::size_t i = 1; i < msgs.size(); ++i) {
      EXPECT_GT(msgs[i].seq, msgs[i - 1].seq);
    }
  }
}

TEST(TotemOrder, ThroughputUnderLoad) {
  Cluster c(4);
  ASSERT_TRUE(c.converge());
  const int kMessages = 2000;
  for (int i = 0; i < kMessages; ++i) {
    c.fabric.group(i % 4).send("g", bytes("payload" + std::to_string(i)));
  }
  c.sim.run_for(10 * kSecond);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(c.delivered[n].size(), static_cast<std::size_t>(kMessages));
  }
  EXPECT_EQ(c.payloads(1), c.payloads(0));
  EXPECT_EQ(c.payloads(2), c.payloads(0));
  EXPECT_EQ(c.payloads(3), c.payloads(0));
}

TEST(TotemOrder, LossyNetworkStillDeliversTotalOrder) {
  Cluster c(3, /*seed=*/7);
  sim::NetParams lossy;
  lossy.loss_probability = 0.02;
  c.net.set_params(lossy);
  ASSERT_TRUE(c.converge(5 * kSecond));
  for (int i = 0; i < 200; ++i) {
    c.fabric.group(i % 3).send("g", bytes("m" + std::to_string(i)));
  }
  c.sim.run_for(20 * kSecond);
  EXPECT_EQ(c.delivered[0].size(), 200u);
  EXPECT_EQ(c.payloads(1), c.payloads(0));
  EXPECT_EQ(c.payloads(2), c.payloads(0));
}

TEST(TotemFailure, CrashShrinksRing) {
  Cluster c(4);
  ASSERT_TRUE(c.converge());
  c.fabric.crash(2);
  ASSERT_TRUE(c.converge());
  for (NodeId i : {0u, 1u, 3u}) {
    EXPECT_EQ(c.fabric.node(i).members(), (std::vector<NodeId>{0, 1, 3}));
  }
}

TEST(TotemFailure, TrafficSurvivesCrash) {
  Cluster c(4);
  ASSERT_TRUE(c.converge());
  for (int i = 0; i < 10; ++i) c.fabric.group(0).send("g", bytes("pre"));
  c.sim.run_for(kSecond);
  c.fabric.crash(3);
  ASSERT_TRUE(c.converge());
  for (int i = 0; i < 10; ++i) c.fabric.group(1).send("g", bytes("post"));
  c.sim.run_for(kSecond);
  for (NodeId i : {0u, 1u, 2u}) {
    EXPECT_EQ(c.delivered[i].size(), 20u) << "node " << i;
    EXPECT_EQ(c.payloads(i), c.payloads(0));
  }
}

TEST(TotemFailure, RestartedNodeRejoins) {
  Cluster c(3);
  ASSERT_TRUE(c.converge());
  c.fabric.crash(1);
  ASSERT_TRUE(c.converge());
  c.fabric.restart(1);
  ASSERT_TRUE(c.converge());
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_EQ(c.fabric.node(i).members(), (std::vector<NodeId>{0, 1, 2}));
  }
  // Post-rejoin traffic reaches everyone including the restarted node.
  c.fabric.group(0).send("g", bytes("after-rejoin"));
  c.sim.run_for(kSecond);
  EXPECT_FALSE(c.delivered[1].empty());
  EXPECT_EQ(str(c.delivered[1].back().payload), "after-rejoin");
}

TEST(TotemFailure, MessagesInFlightAtCrashStayConsistent) {
  Cluster c(4, /*seed=*/3);
  ASSERT_TRUE(c.converge());
  for (int i = 0; i < 50; ++i) {
    c.fabric.group(i % 4).send("g", bytes("m" + std::to_string(i)));
  }
  // Crash while the burst is being ordered.
  c.sim.run_for(2 * kMillisecond);
  c.fabric.crash(2);
  ASSERT_TRUE(c.converge(5 * kSecond));
  c.sim.run_for(2 * kSecond);
  // Survivors agree on a common delivered sequence (extended virtual
  // synchrony: same messages, same order).
  EXPECT_EQ(c.payloads(1), c.payloads(0));
  EXPECT_EQ(c.payloads(3), c.payloads(0));
}

TEST(TotemPartition, ComponentsKeepOperating) {
  Cluster c(5);
  ASSERT_TRUE(c.converge());
  c.net.set_partitions({{0, 1, 2}, {3, 4}});
  ASSERT_TRUE(c.converge(5 * kSecond));
  EXPECT_EQ(c.fabric.node(0).members(), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(c.fabric.node(3).members(), (std::vector<NodeId>{3, 4}));

  c.fabric.group(0).send("g", bytes("left"));
  c.fabric.group(4).send("g", bytes("right"));
  c.sim.run_for(kSecond);
  EXPECT_EQ(c.payloads(1), (std::vector<std::string>{"left"}));
  EXPECT_EQ(c.payloads(3), (std::vector<std::string>{"right"}));
}

TEST(TotemPartition, RemergeFormsJointRing) {
  Cluster c(5);
  ASSERT_TRUE(c.converge());
  c.net.set_partitions({{0, 1, 2}, {3, 4}});
  ASSERT_TRUE(c.converge(5 * kSecond));
  c.net.heal_partitions();
  ASSERT_TRUE(c.converge(5 * kSecond));
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_EQ(c.fabric.node(i).members(),
              (std::vector<NodeId>{0, 1, 2, 3, 4}));
  }
  c.fabric.group(2).send("g", bytes("joint"));
  c.sim.run_for(kSecond);
  for (NodeId i = 0; i < 5; ++i) {
    ASSERT_FALSE(c.delivered[i].empty());
    EXPECT_EQ(str(c.delivered[i].back().payload), "joint");
  }
}

TEST(TotemPartition, FlappingPartitionReconvergesAfterFinalHeal) {
  // The soak campaigns' worst membership customer: the same cut applied and
  // healed repeatedly, each cycle short enough that ring formation from the
  // previous flap may still be in progress. The protocol must neither wedge
  // nor split-brain — after the final heal, one joint ring re-forms and
  // ordered delivery works cluster-wide.
  Cluster c(5);
  ASSERT_TRUE(c.converge());
  for (int cycle = 0; cycle < 4; ++cycle) {
    c.net.set_partitions({{0, 1, 2}, {3, 4}});
    c.sim.run_for(300 * kMillisecond);  // mid-reformation on some cycles
    c.net.heal_partitions();
    c.sim.run_for(300 * kMillisecond);
  }
  ASSERT_TRUE(c.converge(10 * kSecond));
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_EQ(c.fabric.node(i).members(),
              (std::vector<NodeId>{0, 1, 2, 3, 4}));
  }
  c.fabric.group(1).send("g", bytes("post-flap"));
  c.sim.run_for(kSecond);
  for (NodeId i = 0; i < 5; ++i) {
    ASSERT_FALSE(c.delivered[i].empty()) << "node " << i;
    EXPECT_EQ(str(c.delivered[i].back().payload), "post-flap");
  }
}

TEST(TotemPartition, DivergentHistoriesRemainLocallyOrdered) {
  Cluster c(4);
  ASSERT_TRUE(c.converge());
  c.net.set_partitions({{0, 1}, {2, 3}});
  ASSERT_TRUE(c.converge(5 * kSecond));
  for (int i = 0; i < 5; ++i) {
    c.fabric.group(0).send("g", bytes("L" + std::to_string(i)));
    c.fabric.group(2).send("g", bytes("R" + std::to_string(i)));
  }
  c.sim.run_for(kSecond);
  c.net.heal_partitions();
  ASSERT_TRUE(c.converge(5 * kSecond));
  c.sim.run_for(kSecond);
  // Left members agree with each other; right members agree with each other.
  EXPECT_EQ(c.payloads(0), c.payloads(1));
  EXPECT_EQ(c.payloads(2), c.payloads(3));
  // Each side delivered only its own component's messages while partitioned.
  EXPECT_EQ(c.delivered[0].size(), 5u);
  EXPECT_EQ(c.delivered[2].size(), 5u);
}

TEST(TotemViews, RegularViewsDeliveredOnMembershipChange) {
  Cluster c(3);
  std::vector<RingView> views;
  c.fabric.group(0).set_ring_view_handler(
      [&](const RingView& v) { views.push_back(v); });
  ASSERT_TRUE(c.converge());
  ASSERT_FALSE(views.empty());
  EXPECT_EQ(views.back().kind, ViewEvent::Kind::Regular);
  EXPECT_EQ(views.back().members, (std::vector<NodeId>{0, 1, 2}));

  const std::size_t before = views.size();
  c.fabric.crash(1);
  ASSERT_TRUE(c.converge());
  ASSERT_GT(views.size(), before);
  EXPECT_EQ(views.back().members, (std::vector<NodeId>{0, 2}));
}

TEST(TotemViews, TransitionalPrecedesRegular) {
  Cluster c(3);
  std::vector<RingView> views;
  c.fabric.group(2).set_ring_view_handler(
      [&](const RingView& v) { views.push_back(v); });
  ASSERT_TRUE(c.converge());
  ASSERT_GE(views.size(), 2u);
  // For every regular view there is a transitional view just before it on
  // the same ring.
  for (std::size_t i = 0; i < views.size(); ++i) {
    if (views[i].kind == ViewEvent::Kind::Regular) {
      ASSERT_GT(i, 0u);
      EXPECT_EQ(views[i - 1].kind, ViewEvent::Kind::Transitional);
      EXPECT_EQ(views[i - 1].ring, views[i].ring);
    }
  }
}

TEST(TotemGroups, MembershipConvergesAfterJoin) {
  Cluster c(3);
  ASSERT_TRUE(c.converge());
  c.fabric.group(0).join("workers");
  c.fabric.group(2).join("workers");
  c.sim.run_for(kSecond);
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_EQ(c.fabric.group(i).members_of("workers"),
              (std::vector<NodeId>{0, 2}))
        << "node " << i;
  }
}

TEST(TotemGroups, LeaveShrinksMembership) {
  Cluster c(3);
  ASSERT_TRUE(c.converge());
  c.fabric.group(0).join("workers");
  c.fabric.group(1).join("workers");
  c.sim.run_for(kSecond);
  c.fabric.group(0).leave("workers");
  c.sim.run_for(kSecond);
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_EQ(c.fabric.group(i).members_of("workers"),
              (std::vector<NodeId>{1}));
  }
}

TEST(TotemGroups, CrashRemovesFromGroupView) {
  Cluster c(3);
  ASSERT_TRUE(c.converge());
  c.fabric.group(0).join("workers");
  c.fabric.group(1).join("workers");
  c.sim.run_for(kSecond);
  c.fabric.crash(1);
  ASSERT_TRUE(c.converge());
  c.sim.run_for(kSecond);
  EXPECT_EQ(c.fabric.group(0).members_of("workers"),
            (std::vector<NodeId>{0}));
}

TEST(TotemGroups, MembershipRecoversAfterRemerge) {
  Cluster c(4);
  ASSERT_TRUE(c.converge());
  c.fabric.group(0).join("workers");
  c.fabric.group(3).join("workers");
  c.sim.run_for(kSecond);
  c.net.set_partitions({{0, 1}, {2, 3}});
  ASSERT_TRUE(c.converge(5 * kSecond));
  c.sim.run_for(kSecond);
  EXPECT_EQ(c.fabric.group(0).members_of("workers"),
            (std::vector<NodeId>{0}));
  EXPECT_EQ(c.fabric.group(3).members_of("workers"),
            (std::vector<NodeId>{3}));
  c.net.heal_partitions();
  ASSERT_TRUE(c.converge(5 * kSecond));
  c.sim.run_for(kSecond);
  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_EQ(c.fabric.group(i).members_of("workers"),
              (std::vector<NodeId>{0, 3}))
        << "node " << i;
  }
}

TEST(TotemGroups, GroupViewHandlerFires) {
  Cluster c(2);
  std::vector<GroupView> views;
  c.fabric.group(0).set_group_view_handler(
      [&](const GroupView& v) {
        if (v.group == "workers") views.push_back(v);
      });
  ASSERT_TRUE(c.converge());
  c.fabric.group(1).join("workers");
  c.sim.run_for(kSecond);
  ASSERT_FALSE(views.empty());
  EXPECT_EQ(views.back().members, (std::vector<NodeId>{1}));
}

// Safe-delivery ablation: with safe_delivery on, messages are delivered
// only after every member has them; order must still be identical.
TEST(TotemSafe, SafeDeliveryStillTotalOrder) {
  Params p;
  p.safe_delivery = true;
  Cluster c(3, /*seed=*/1, p);
  ASSERT_TRUE(c.converge());
  for (int i = 0; i < 30; ++i) {
    c.fabric.group(i % 3).send("g", bytes("m" + std::to_string(i)));
  }
  c.sim.run_for(2 * kSecond);
  EXPECT_EQ(c.delivered[0].size(), 30u);
  EXPECT_EQ(c.payloads(1), c.payloads(0));
  EXPECT_EQ(c.payloads(2), c.payloads(0));
}

// Property sweep: across seeds and cluster sizes, total order holds.
struct OrderSweep : ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(OrderSweep, TotalOrderHolds) {
  const auto [n, seed] = GetParam();
  Cluster c(static_cast<std::size_t>(n), seed);
  ASSERT_TRUE(c.converge());
  for (int i = 0; i < 60; ++i) {
    c.fabric.group(static_cast<NodeId>(i % n))
        .send("g", bytes("m" + std::to_string(i)));
  }
  c.sim.run_for(5 * kSecond);
  ASSERT_EQ(c.delivered[0].size(), 60u);
  for (NodeId i = 1; i < static_cast<NodeId>(n); ++i) {
    EXPECT_EQ(c.payloads(i), c.payloads(0)) << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, OrderSweep,
    ::testing::Combine(::testing::Values(2, 3, 5, 8),
                       ::testing::Values(1u, 42u, 1337u)));

// Property sweep: crash each possible node; survivors keep total order.
struct CrashSweep : ::testing::TestWithParam<int> {};

TEST_P(CrashSweep, SurvivorsStayConsistent) {
  const NodeId victim = static_cast<NodeId>(GetParam());
  Cluster c(4, /*seed=*/99);
  ASSERT_TRUE(c.converge());
  for (int i = 0; i < 30; ++i) {
    c.fabric.group(i % 4).send("g", bytes("a" + std::to_string(i)));
  }
  c.sim.run_for(3 * kMillisecond);
  c.fabric.crash(victim);
  ASSERT_TRUE(c.converge(5 * kSecond));
  c.sim.run_for(2 * kSecond);
  std::vector<NodeId> survivors;
  for (NodeId i = 0; i < 4; ++i) {
    if (i != victim) survivors.push_back(i);
  }
  for (NodeId s : survivors) {
    EXPECT_EQ(c.payloads(s), c.payloads(survivors[0])) << "node " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Victims, CrashSweep, ::testing::Values(0, 1, 2, 3));

// Hostile input: a malformed datagram is dropped and counted at the totem
// boundary instead of unwinding out of the receive handler and aborting the
// whole simulation.
TEST(TotemIngress, MalformedUnicastIsDroppedAndCounted) {
  Cluster c(3);
  ASSERT_TRUE(c.converge());
  // A Token kind byte followed by 11 bytes: underflows mid-ring-id.
  const std::uint8_t junk[12] = {2, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5, 6, 7};
  c.net.unicast(0, 1, cdr::WireBuf(std::span<const std::uint8_t>(junk)));
  c.sim.run_for(50 * kMillisecond);
  for (NodeId i = 0; i < 3; ++i) {
    c.fabric.group(i).send("g", bytes("after" + std::to_string(i)));
  }
  c.sim.run_for(kSecond);
  ASSERT_EQ(c.payloads(0).size(), 3u);
  for (NodeId i = 1; i < 3; ++i) EXPECT_EQ(c.payloads(i), c.payloads(0));
  EXPECT_EQ(obs::Registry::global()
                .counter(obs::node_metric("totem", "malformed_dropped", 1))
                .value(),
            1u);
  EXPECT_EQ(c.fabric.node(1).stats().malformed_dropped, 1u);
  EXPECT_EQ(c.fabric.node(0).stats().malformed_dropped, 0u);
}

// A count field may claim more elements than the frame has bytes left; the
// decoder must not reserve for the claim before the underflow shows it up.
TEST(TotemIngress, InflatedCountsDoNotReserveBeyondTheFrame) {
  cdr::Arena arena;
  Packet scratch;
  {
    cdr::Writer w(arena);
    w.put_octet(static_cast<std::uint8_t>(MsgKind::Token));
    w.put_ulonglong(7);  // ring epoch
    w.put_ulong(0);      // ring leader
    for (int i = 0; i < 4; ++i) w.put_ulonglong(1);  // id, seq, aru, safe
    w.put_ulong(1u << 20);                           // retransmit count
    w.put_ulonglong(5);                              // ...and one seq
    const cdr::WireBuf frame = w.seal();
    EXPECT_THROW(decode_packet_into(scratch, frame), cdr::MarshalError);
  }
  EXPECT_LE(scratch.token.retransmit.capacity(), 16u);
  {
    cdr::Writer w(arena);
    w.put_octet(static_cast<std::uint8_t>(MsgKind::Batch));
    w.put_ulonglong(7);  // ring epoch
    w.put_ulong(0);      // ring leader
    w.put_ulong(0);      // origin
    w.put_ulong(65536);  // message count
    w.put_ulonglong(5);  // ...and a few bytes of the first one
    const cdr::WireBuf frame = w.seal();
    EXPECT_THROW(decode_packet_into(scratch, frame), cdr::MarshalError);
  }
  EXPECT_LE(scratch.batch.msgs.capacity(), 16u);
}

}  // namespace
}  // namespace eternal::totem
