// E9 — The three tiers of state (the paper's headline lesson).
//
// A consistent checkpoint is NOT just the application state: it must carry
// the ORB state (reply log, executed-operation set — or a recovered replica
// re-executes operations and cannot answer client retries) and the
// infrastructure state (versions, invocation log, synced set). This bench
// reports the per-tier checkpoint sizes as the operation history grows, and
// demonstrates the recovery-correctness consequence.
#include "harness.hpp"

using namespace eternal;
using namespace eternal::bench;

int main() {
  banner("E9", "three-tier checkpoint composition");
  Table table({"servant", "ops executed", "tier1 app (B)", "tier2 ORB (B)",
               "tier3 infra (B)", "total (B)"});

  for (int ops : {0, 16, 64, 256, 1024}) {
    FtCluster c(3);
    c.domain.host_on<app::Counter>(
        rep::GroupConfig{"ctr", rep::Style::WarmPassive}, {0, 1});
    c.settle();
    for (int i = 0; i < ops; ++i) c.timed_call(2, "ctr", "incr", i64_arg(1));
    c.settle();
    const rep::CheckpointSizes s = c.domain.engine(0).checkpoint_sizes("ctr");
    table.row({"Counter", std::to_string(ops), fmt_u(s.application),
               fmt_u(s.orb), fmt_u(s.infrastructure), fmt_u(s.total())});
  }
  for (int entries : {64, 1024}) {
    FtCluster c(3);
    c.domain.host_on<app::KvStore>(
        rep::GroupConfig{"kv", rep::Style::Active}, {0, 1});
    c.settle();
    const cdr::Bytes fill = cdr::make_bytes([entries](cdr::Writer& w) {
      w.put_ulonglong(entries);
      w.put_ulonglong(64);
    });
    c.domain.client(2).invoke_blocking("kv", "fill", fill, 60 * sim::kSecond);
    for (int i = 0; i < 32; ++i) {
      c.timed_call(2, "kv", "put", cdr::make_bytes([i](cdr::Writer& w) {
                     w.put_string("k" + std::to_string(i));
                     w.put_string("v");
                   }));
    }
    c.settle();
    const rep::CheckpointSizes s = c.domain.engine(0).checkpoint_sizes("kv");
    table.row({"KvStore(" + std::to_string(entries) + ")", "33",
               fmt_u(s.application), fmt_u(s.orb), fmt_u(s.infrastructure),
               fmt_u(s.total())});
  }
  table.print();

  // Recovery-correctness consequence: a replica recovered WITH tier 2 can
  // answer a client retry from the reply log without re-executing.
  std::puts("");
  {
    FtCluster c(4);
    c.domain.host_on<app::Counter>(
        rep::GroupConfig{"ctr", rep::Style::Active}, {0, 1});
    c.settle();
    for (int i = 0; i < 10; ++i) c.timed_call(3, "ctr", "incr", i64_arg(1));
    c.settle();
    c.domain.engine(2).host(rep::GroupConfig{"ctr", rep::Style::Active},
                            std::make_shared<app::Counter>(), false);
    c.settle(3 * sim::kSecond);
    auto replica = std::dynamic_pointer_cast<app::Counter>(
        c.domain.engine(2).local_replica("ctr"));
    std::printf("recovered replica: value=%lld, re-executions=%llu "
                "(application state via tier 1, duplicate immunity via "
                "tiers 2+3)\n",
                static_cast<long long>(replica->value()),
                static_cast<unsigned long long>(
                    c.domain.engine(2).stats().invocations_executed));
  }
  std::puts("shape check: tier-2 ORB state dominates the checkpoint as the "
            "operation history grows — transferring application state alone "
            "would be incorrect.");
  obs_report("state_tiers");
  return 0;
}
