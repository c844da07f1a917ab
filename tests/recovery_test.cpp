// Whole-domain disaster recovery integration tests: kill every replica,
// cold-restart from the durable journals + checkpoints, and verify the
// rebuilt domain matches the pre-crash state — including client retries
// that straddle the restart staying exactly-once.
#include <gtest/gtest.h>

#include <cstdio>

#include "app/servants.hpp"
#include "ft/recovery.hpp"
#include "ft/replication_manager.hpp"
#include "rep/oracle.hpp"

namespace eternal::ft {
namespace {

using app::Counter;
using sim::kMillisecond;
using sim::kSecond;
using sim::NodeId;

Properties actives(std::uint32_t n) {
  Properties p;
  p.replication_style = rep::Style::Active;
  p.initial_number_replicas = n;
  p.minimum_number_replicas = n > 1 ? n - 1 : 1;
  return p;
}

struct DurableCluster {
  DurableCluster(std::size_t n, sim::DiskFarm& farm, std::uint64_t seed = 1,
                 dur::DurParams dp = {})
      : sim(seed), net(sim, n), fabric(sim, net), domain(fabric),
        rm(domain, notifier), plane(domain, farm, dp) {
    rm.set_durability_plane(&plane);
  }

  void start() {
    fabric.start_all();
    plane.attach_all();
  }

  bool converge(sim::Time timeout = 2 * kSecond) {
    const bool ok = fabric.run_until_converged(timeout);
    sim.run_for(300 * kMillisecond);
    return ok;
  }

  std::int64_t incr(NodeId node, const std::string& group, std::int64_t d) {
    cdr::Encoder enc;
    enc.put_longlong(d);
    cdr::Bytes out =
        domain.client(node).invoke_blocking(group, "incr", enc.take());
    cdr::Decoder dec(out);
    return dec.get_longlong();
  }

  std::int64_t counter_value(NodeId node, const std::string& group) {
    auto replica = domain.engine(node).local_replica(group);
    return replica ? static_cast<Counter&>(*replica).value() : -1;
  }

  /// Power-cut processors `nodes`: network + protocol halt, disk tail loss.
  void kill(const std::vector<NodeId>& nodes, bool torn) {
    for (NodeId n : nodes) {
      fabric.crash(n);
      plane.crash(n, torn);
    }
  }

  sim::Simulation sim;
  sim::Network net;
  totem::Fabric fabric;
  rep::Domain domain;
  FaultNotifier notifier;
  ReplicationManager rm;
  DurabilityPlane plane;
};

// Kill every replica of the domain mid-run, cold-restart from disk, and
// check the recovered state digests match the pre-crash state.
TEST(Recovery, WholeDomainColdRestartRestoresState) {
  sim::DiskFarm farm(3);
  DurableCluster c(3, farm, 7);
  c.start();
  c.rm.create_object<Counter>("counter", actives(3), {{0, 1, 2}});
  ASSERT_TRUE(c.converge());

  std::int64_t value = 0;
  for (int i = 0; i < 20; ++i) value = c.incr(0, "counter", 1);
  ASSERT_EQ(value, 20);
  const std::uint64_t version = c.domain.engine(0).state_version("counter");
  const std::uint64_t digest = rep::digest_state(
      *c.domain.engine(0).local_replica("counter"), version);

  c.plane.sync_all();  // pin the durability window shut for exact equality
  c.kill({0, 1, 2}, /*torn=*/false);
  c.sim.run_for(200 * kMillisecond);

  const dur::RecoveryStats stats = c.rm.recover_domain();
  EXPECT_GT(stats.records_replayed, 0u);
  ASSERT_TRUE(c.converge());

  for (NodeId n : {0, 1, 2}) {
    EXPECT_EQ(c.counter_value(n, "counter"), 20) << "node " << n;
    EXPECT_EQ(c.domain.engine(n).state_version("counter"), version);
    EXPECT_EQ(rep::digest_state(*c.domain.engine(n).local_replica("counter"),
                                version),
              digest);
    EXPECT_TRUE(c.domain.engine(n).is_synced("counter"));
  }
  ASSERT_FALSE(c.notifier.history().empty());
  EXPECT_EQ(c.notifier.history().back().type, "DOMAIN_RECOVERED");

  // The recovered domain keeps working.
  EXPECT_EQ(c.incr(1, "counter", 5), 25);
}

// True cold restart: the first Simulation/Fabric/Domain stack is torn down
// completely; the second life is rebuilt from the DiskFarm alone.
TEST(Recovery, ColdRestartAcrossSimLifetimes) {
  sim::DiskFarm farm(3);
  std::uint64_t version = 0;
  std::uint64_t digest = 0;
  {
    DurableCluster life1(3, farm, 11);
    life1.start();
    life1.rm.create_object<Counter>("counter", actives(3), {{0, 1, 2}});
    ASSERT_TRUE(life1.converge());
    for (int i = 0; i < 12; ++i) life1.incr(0, "counter", 2);
    version = life1.domain.engine(0).state_version("counter");
    digest = rep::digest_state(
        *life1.domain.engine(0).local_replica("counter"), version);
    life1.plane.sync_all();
  }  // the whole first life is gone; only the farm's durable bytes remain

  DurableCluster life2(3, farm, 12);
  // No create_object: the groups exist only on disk. The new life just
  // registers how to build replica shells.
  life2.rm.register_factory(
      "counter", [](NodeId) { return std::make_shared<Counter>(); });
  life2.rm.properties().set_properties("counter", actives(3));
  life2.plane.attach_all();
  const dur::RecoveryStats stats = life2.rm.recover_domain();
  EXPECT_GE(stats.records_scanned, stats.records_replayed);
  ASSERT_TRUE(life2.converge());

  for (NodeId n : {0, 1, 2}) {
    EXPECT_EQ(life2.counter_value(n, "counter"), 24) << "node " << n;
    EXPECT_EQ(life2.domain.engine(n).state_version("counter"), version);
    EXPECT_EQ(
        rep::digest_state(*life2.domain.engine(n).local_replica("counter"),
                          version),
        digest);
  }
  EXPECT_EQ(life2.incr(2, "counter", 1), 25);
}

// A client retry that straddles the restart must not re-execute: the
// journaled invocation rebuilds the reply log, so the retry is answered
// from it (duplicate_replies_resent) and the counter moves exactly once.
TEST(Recovery, RetryStraddlingRestartStaysExactlyOnce) {
  sim::DiskFarm farm(4);
  DurableCluster c(4, farm, 23);
  c.start();
  c.rm.create_object<Counter>("counter", actives(3), {{0, 1, 2}});
  ASSERT_TRUE(c.converge());

  // Fire one op from the surviving client node and stop the world the
  // moment a server has executed it — before the reply reaches the client.
  c.domain.client(3).set_retry_interval(100 * kMillisecond);
  cdr::Encoder enc;
  enc.put_longlong(1);
  rep::Invocation inv =
      c.domain.client(3).invoke("counter", "incr", enc.take());
  while (c.domain.engine(0).stats().invocations_executed == 0) {
    ASSERT_TRUE(c.sim.step()) << "ran dry before the op executed";
  }
  ASSERT_FALSE(inv.ready());

  c.plane.sync_all();  // the invocation's journal record becomes durable
  c.kill({0, 1, 2}, /*torn=*/false);  // client node 3 survives
  c.sim.run_for(200 * kMillisecond);

  for (NodeId n : {0, 1, 2}) c.rm.recover_node(n);
  ASSERT_TRUE(c.converge());
  // Drain: the client's retransmit timer re-sends into the recovered group.
  c.sim.run_for(2 * kSecond);

  ASSERT_TRUE(inv.ready());
  const cdr::Bytes out = inv.get(kSecond);
  cdr::Decoder dec(out);
  EXPECT_EQ(dec.get_longlong(), 1);
  // The RM may have auto-spawned a replacement on the surviving node while
  // the rest of the domain was down — every replica actually hosting the
  // group (recovered or spawned) must agree the op ran exactly once.
  std::size_t hosting = 0;
  for (NodeId n : {0, 1, 2, 3}) {
    if (!c.domain.engine(n).hosts("counter")) continue;
    ++hosting;
    EXPECT_EQ(c.counter_value(n, "counter"), 1) << "node " << n;
  }
  EXPECT_GE(hosting, 2u);
  std::uint64_t resent = 0;
  for (NodeId n : {0, 1, 2, 3}) {
    resent += c.domain.engine(n).stats().duplicate_replies_resent;
  }
  EXPECT_GE(resent, 1u);
}

// Torn power cut: every node loses its unsynced tail and keeps a garbage
// partial record. Recovery must come back to a consistent (if slightly
// older) common state and keep serving.
TEST(Recovery, TornTailRecoversToConsistentPrefix) {
  sim::DiskFarm farm(3);
  DurableCluster c(3, farm, 31);
  c.start();
  c.rm.create_object<Counter>("counter", actives(3), {{0, 1, 2}});
  ASSERT_TRUE(c.converge());
  std::int64_t value = 0;
  for (int i = 0; i < 10; ++i) value = c.incr(0, "counter", 1);
  ASSERT_EQ(value, 10);
  // No sync_all: whatever the group-commit timer last made durable wins.
  c.kill({0, 1, 2}, /*torn=*/true);
  c.sim.run_for(200 * kMillisecond);

  c.rm.recover_domain();
  ASSERT_TRUE(c.converge());

  // All replicas agree on one recovered prefix value in [0, 10].
  const std::int64_t recovered = c.counter_value(0, "counter");
  EXPECT_GE(recovered, 0);
  EXPECT_LE(recovered, 10);
  const std::uint64_t version = c.domain.engine(0).state_version("counter");
  for (NodeId n : {1, 2}) {
    EXPECT_EQ(c.domain.engine(n).state_version("counter"), version);
    EXPECT_EQ(c.counter_value(n, "counter"), recovered) << "node " << n;
  }
  EXPECT_EQ(c.incr(1, "counter", 1), recovered + 1);
}

// With a small checkpoint interval the journal stays short: recovery loads
// the checkpoint and replays only the suffix past it.
TEST(Recovery, CheckpointsBoundJournalReplay) {
  sim::DiskFarm farm(3);
  dur::DurParams dp;
  dp.checkpoint_interval = 8;
  DurableCluster c(3, farm, 41, dp);
  c.start();
  c.rm.create_object<Counter>("counter", actives(3), {{0, 1, 2}});
  ASSERT_TRUE(c.converge());
  for (int i = 0; i < 64; ++i) c.incr(0, "counter", 1);
  c.plane.sync_all();
  c.kill({0, 1, 2}, /*torn=*/false);
  c.sim.run_for(200 * kMillisecond);

  const dur::RecoveryStats stats = c.rm.recover_domain();
  EXPECT_GE(stats.checkpoints_loaded, 3u);  // one per node
  // 64 invocations × 3 replicas journaled; replay must cover far less.
  EXPECT_LT(stats.records_replayed, 64u);
  ASSERT_TRUE(c.converge());
  EXPECT_EQ(c.counter_value(0, "counter"), 64);
  EXPECT_EQ(c.incr(2, "counter", 1), 65);
}

// Nested operations (teller -> two account groups) survive a whole-domain
// restart with money conserved.
TEST(Recovery, NestedOperationsRecoverConsistently) {
  sim::DiskFarm farm(3);
  DurableCluster c(3, farm, 53);
  c.start();
  c.rm.create_object<app::Teller>("teller", actives(2), {{0, 1}});
  c.rm.create_object<app::Account>("alice", actives(2), {{1, 2}});
  c.rm.create_object<app::Account>("bob", actives(2), {{0, 2}});
  ASSERT_TRUE(c.converge());

  {
    cdr::Encoder enc;
    enc.put_longlong(1000);
    c.domain.client(0).invoke_blocking("alice", "deposit", enc.take());
  }
  for (int i = 0; i < 4; ++i) {
    cdr::Encoder enc;
    enc.put_string("alice");
    enc.put_string("bob");
    enc.put_longlong(50);
    c.domain.client(0).invoke_blocking("teller", "transfer", enc.take());
  }
  c.plane.sync_all();
  c.kill({0, 1, 2}, /*torn=*/false);
  c.sim.run_for(200 * kMillisecond);

  c.rm.recover_domain();
  ASSERT_TRUE(c.converge());
  c.sim.run_for(kSecond);

  const auto& alice =
      static_cast<app::Account&>(*c.domain.engine(1).local_replica("alice"));
  const auto& bob =
      static_cast<app::Account&>(*c.domain.engine(0).local_replica("bob"));
  EXPECT_EQ(alice.balance(), 800);
  EXPECT_EQ(bob.balance(), 200);
  EXPECT_EQ(alice.balance() + bob.balance(), 1000);
}

// Size and CRC-32 of every file on every disk of a farm, one line each:
// "node <n> <file> <size> <crc32 hex>".
std::vector<std::string> tape_fingerprint(const sim::DiskFarm& farm) {
  std::vector<std::string> out;
  for (NodeId n = 0; n < farm.size(); ++n) {
    const sim::Disk& disk = farm.disk(n);
    for (const std::string& name : disk.list()) {
      const sim::DiskBytes& data = *disk.read(name);
      char line[160];
      std::snprintf(line, sizeof line, "node %u %s %zu %08x",
                    static_cast<unsigned>(n), name.c_str(), data.size(),
                    static_cast<unsigned>(
                        dur::crc32(data.data(), data.size())));
      out.emplace_back(line);
    }
  }
  return out;
}

void expect_fingerprint(const sim::DiskFarm& farm,
                        const std::vector<std::string>& golden,
                        const char* phase) {
  const std::vector<std::string> got = tape_fingerprint(farm);
  std::string dump;
  for (const std::string& line : got) dump += "      \"" + line + "\",\n";
  EXPECT_EQ(got, golden) << phase << " fingerprint now:\n" << dump;
}

// Byte-level pin of the durable tape: a fixed scenario (active + warm-
// passive groups, checkpoint interval 8 so the journal compacts many times,
// a torn whole-domain power cut, cold restart, more writes) must leave
// exactly these files on every disk. Journal, checkpoint and meta formats,
// framing, CRC and compaction may change in cost but never in bytes.
TEST(Recovery, TapeBytesMatchGoldens) {
  sim::DiskFarm farm(4);
  dur::DurParams dp;
  dp.checkpoint_interval = 8;
  DurableCluster c(4, farm, 71, dp);
  c.start();
  c.rm.create_object<Counter>("counter", actives(3), {{0, 1, 2}});
  Properties warm = actives(3);
  warm.replication_style = rep::Style::WarmPassive;
  c.rm.create_object<Counter>("warm", warm, {{0, 1, 2}});
  ASSERT_TRUE(c.converge());
  // Count compactions as advances of node 0's oldest retained record.
  std::uint64_t oldest = 0;
  std::size_t compactions = 0;
  for (int i = 0; i < 48; ++i) {
    c.incr(3, "counter", 1);
    c.incr(3, "warm", 2);
    const dur::ScanResult scan = c.plane.at(0).journal().scan();
    ASSERT_FALSE(scan.records.empty());
    if (scan.records.front().index > oldest) ++compactions;
    oldest = scan.records.front().index;
  }
  EXPECT_GE(compactions, 3u);

  // A burst still in flight at the power cut: step until some journal holds
  // appended-but-unsynced bytes, so the torn cut tears a record mid-frame.
  for (int i = 0; i < 6; ++i) {
    cdr::Encoder enc;
    enc.put_longlong(1);
    c.domain.client(3).invoke("counter", "incr", enc.take());
  }
  const auto unsynced = [&farm] {
    for (NodeId n : {0, 1, 2}) {
      const sim::Disk& disk = farm.disk(n);
      if (disk.size("journal") > disk.synced_size("journal")) return true;
    }
    return false;
  };
  for (int step = 0; step < 1000 && !unsynced(); ++step) {
    c.sim.run_for(10 * sim::kMicrosecond);
  }
  ASSERT_TRUE(unsynced());
  c.kill({0, 1, 2, 3}, /*torn=*/true);
  expect_fingerprint(farm, {
      "node 0 ckpt-counter-00000000000000000040 3660 2cd544a9",
      "node 0 ckpt-counter-00000000000000000048 4364 6a0bb5de",
      "node 0 ckpt-warm-00000000000000000040 3660 23197221",
      "node 0 ckpt-warm-00000000000000000048 4364 6f310a9a",
      "node 0 journal 7607 0daea629",
      "node 0 meta 24 82d1d941",
      "node 1 ckpt-counter-00000000000000000040 3660 2cd544a9",
      "node 1 ckpt-counter-00000000000000000048 4364 6a0bb5de",
      "node 1 ckpt-warm-00000000000000000040 1092 0f992cc6",
      "node 1 ckpt-warm-00000000000000000048 1284 2325ad9b",
      "node 1 journal 7730 5e75cfc6",
      "node 1 meta 24 82d1d941",
      "node 2 ckpt-counter-00000000000000000040 3660 2cd544a9",
      "node 2 ckpt-counter-00000000000000000048 4364 6a0bb5de",
      "node 2 ckpt-warm-00000000000000000040 1092 0f992cc6",
      "node 2 ckpt-warm-00000000000000000048 1284 2325ad9b",
      "node 2 journal 7730 5e75cfc6",
      "node 2 meta 24 82d1d941",
      "node 3 meta 24 09fa9d1a",
  }, "after torn power cut");

  c.sim.run_for(200 * kMillisecond);
  c.rm.recover_domain();
  ASSERT_TRUE(c.converge());
  for (int i = 0; i < 20; ++i) {
    c.incr(3, "counter", 1);
    c.incr(3, "warm", 1);
  }
  c.plane.sync_all();
  expect_fingerprint(farm, {
      "node 0 ckpt-counter-00000000000000000056 5068 e0870022",
      "node 0 ckpt-counter-00000000000000000064 5772 3714b776",
      "node 0 ckpt-warm-00000000000000000056 5068 6636ff6a",
      "node 0 ckpt-warm-00000000000000000064 5772 d07d0cce",
      "node 0 journal 11310 61e726e4",
      "node 0 meta 24 cff9164d",
      "node 1 ckpt-counter-00000000000000000056 5068 b629426c",
      "node 1 ckpt-counter-00000000000000000064 5772 92496bd5",
      "node 1 ckpt-warm-00000000000000000056 1476 6bdeccbf",
      "node 1 ckpt-warm-00000000000000000064 1668 902c8cb2",
      "node 1 journal 11310 9f0008fc",
      "node 1 meta 24 cff9164d",
      "node 2 ckpt-counter-00000000000000000056 5068 b629426c",
      "node 2 ckpt-counter-00000000000000000064 5772 92496bd5",
      "node 2 ckpt-warm-00000000000000000056 1476 6bdeccbf",
      "node 2 ckpt-warm-00000000000000000064 1668 902c8cb2",
      "node 2 journal 11310 9f0008fc",
      "node 2 meta 24 cff9164d",
      "node 3 meta 24 b4379b78",
  }, "after cold restart");
}

#ifdef RECOVERCTL_DUMP_DIR
// Writes a post-crash DiskFarm dump (torn tail included) for the
// `recoverctl` ctest fixture: the CLI must inspect and verify the same
// artifact CI would upload after a failed recovery soak.
TEST(Recovery, FarmDumpForRecoverctl) {
  sim::DiskFarm farm(3);
  dur::DurParams dp;
  dp.checkpoint_interval = 8;
  DurableCluster c(3, farm, 61, dp);
  c.start();
  c.rm.create_object<Counter>("counter", actives(3), {{0, 1, 2}});
  ASSERT_TRUE(c.converge());
  for (int i = 0; i < 20; ++i) c.incr(0, "counter", 1);
  // No sync_all: the torn power cut leaves a mid-record tail on disk —
  // recoverctl must report it as survivable damage, not a violation.
  c.kill({0, 1, 2}, /*torn=*/true);
  ASSERT_TRUE(farm.save_to(RECOVERCTL_DUMP_DIR));
  // The dump really recovers: load it into a fresh farm and cold-restart.
  sim::DiskFarm restored(3);
  ASSERT_TRUE(restored.load_from(RECOVERCTL_DUMP_DIR));
  DurableCluster life2(3, restored, 62, dp);
  life2.rm.register_factory(
      "counter", [](NodeId) { return std::make_shared<Counter>(); });
  life2.rm.properties().set_properties("counter", actives(3));
  life2.plane.attach_all();
  life2.rm.recover_domain();
  ASSERT_TRUE(life2.converge());
  EXPECT_GE(life2.counter_value(0, "counter"), 0);
}
#endif

}  // namespace
}  // namespace eternal::ft
