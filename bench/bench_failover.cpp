// E3 — Client-visible failover time by replication style.
//
// A client writes 1 KiB values continuously; at a fixed instant we crash a
// replica (the primary, for passive styles) and measure the *client-visible
// blackout*: the longest gap between consecutive successful replies around
// the crash. The simulated state-apply cost model (400 us/KiB) charges the
// new cold-passive primary for installing its backlog of unapplied
// postimages before it may serve.
//
// Expected shape: ACTIVE and WARM_PASSIVE pay only the membership-change
// time (warm backups already applied every update); COLD_PASSIVE adds the
// backlog-apply time, growing linearly with the backlog.
#include "harness.hpp"

using namespace eternal;
using namespace eternal::bench;

namespace {

struct Result {
  double blackout_ms = 0;
  double steady_latency_us = 0;
};

cdr::Bytes put_arg(int i) {
  return cdr::make_bytes([i](cdr::Writer& w) {
    w.put_string("key" + std::to_string(i % 64));
    w.put_string(std::string(1024, 'v'));
  });
}

Result measure(rep::Style style, int backlog_writes, std::uint64_t seed) {
  rep::EngineParams ep;
  ep.update_apply_us_per_kib = 400;  // simulated postimage-install cost
  FtCluster c(4, seed, ep);
  c.domain.host_on<app::KvStore>(rep::GroupConfig{"kv", style}, {0, 1, 2});
  c.settle();
  c.domain.client(3).set_retry_interval(20 * sim::kMillisecond);

  // Build a backlog of updates. Warm backups apply them as they arrive;
  // cold backups only log them — the difference is the promotion bill.
  for (int i = 0; i < backlog_writes; ++i) {
    c.timed_call(3, "kv", "put", put_arg(i));
  }

  util::Summary steady;
  for (int i = 0; i < 20; ++i) {
    steady.add(static_cast<double>(c.timed_call(3, "kv", "put", put_arg(i))));
  }

  // Crash the primary (node 0 — the lowest synced member) mid-run and keep
  // invoking; blocking calls ride the client's retransmission machinery.
  c.fabric.crash(0);
  const sim::Time crash_at = c.sim.now();
  sim::Time longest_gap = 0;
  sim::Time last_ok = crash_at;
  for (int i = 0; i < 30; ++i) {
    c.timed_call(3, "kv", "put", put_arg(100 + i));
    longest_gap = std::max(longest_gap, c.sim.now() - last_ok);
    last_ok = c.sim.now();
  }
  return {static_cast<double>(longest_gap) / sim::kMillisecond,
          steady.mean()};
}

}  // namespace

int main() {
  banner("E3", "client-visible failover blackout by replication style");
  Table table({"style", "backlog (1KiB writes)", "steady lat (us)",
               "blackout (ms)"});
  for (auto [style, name] :
       {std::pair{rep::Style::Active, "ACTIVE"},
        std::pair{rep::Style::WarmPassive, "WARM_PASSIVE"},
        std::pair{rep::Style::ColdPassive, "COLD_PASSIVE"}}) {
    for (int backlog : {10, 100, 400}) {
      util::Summary blackout, steady;
      for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        const Result r = measure(style, backlog, seed);
        blackout.add(r.blackout_ms);
        steady.add(r.steady_latency_us);
      }
      table.row({name, std::to_string(backlog), fmt(steady.mean()),
                 fmt(blackout.mean(), 2)});
    }
  }
  table.print();
  std::puts("\nshape check: ACTIVE ~= WARM_PASSIVE (membership-change time "
            "only) << COLD_PASSIVE, whose blackout grows linearly with the "
            "unapplied-update backlog.");
  obs_report("failover");
  return 0;
}
