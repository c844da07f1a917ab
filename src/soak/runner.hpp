// SoakRunner — seed-swept invariant campaigns.
//
// One run = one randomized (seed, workload, campaign) schedule: build a
// fresh cluster, host Counter groups through the ReplicationManager, drive
// an open-loop WorkloadGen while a ChaosPlan injects faults, heal and
// drain, then audit the recorded history against the system's correctness
// invariants:
//
//   * no lost operation        — every invoked op is answered (obsctl);
//   * no duplicate execution   — no op executes twice on one node (obsctl);
//   * no unsuppressed retry    — client retries map to suppressions (obsctl);
//   * view convergence         — final membership views agree (obsctl);
//   * end-state convergence    — after heal + drain, every synced replica
//     of a group holds identical state at the same version (components may
//     diverge mid-partition by design; remerge reconciliation must erase
//     the difference — and the oracle must stay silent in fault-free runs);
//   * complete drain           — nothing is left in flight after recovery.
//
// The audit consumes the per-node flight recorder (the same dumps `obsctl
// audit` reads offline), so a soak violation is a real observability
// artifact: the runner can leave the dump behind, and every violation
// report carries the exact one-line `soakctl run --seed N ...` command
// that replays the schedule bit-identically.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dur/durability.hpp"
#include "soak/chaos.hpp"
#include "soak/workload.hpp"
#include "util/stats.hpp"

namespace eternal::soak {

struct SoakConfig {
  std::size_t nodes = 7;
  std::size_t groups = 3;
  std::uint32_t replicas = 3;      // initial replicas per group
  std::uint32_t min_replicas = 2;  // RM auto-restores below this
  /// Host every third group warm-passive (failover + re-invocation under
  /// original identifiers); the rest are active.
  bool mix_styles = true;
  /// Divergence-oracle cadence (EngineParams::divergence_check_interval).
  std::uint64_t divergence_check_interval = 8;

  WorkloadParams workload;
  ChaosParams chaos;
  /// Durable mode: every node gets a simulated disk with a journal +
  /// checkpoint plane, and the runner installs the chaos DurabilityHooks so
  /// domain-kill motifs power-cut the whole domain and cold-restart it from
  /// disk, and disk-full motifs freeze one node's tape mid-run. With
  /// nested_fraction > 0 the runner also hosts the Teller/Account trio the
  /// workload's nested transfers target.
  bool durable = false;
  dur::DurParams durability;
  /// Fault-free control run: the campaign is drawn (so the spec is still
  /// reported) but never started. bench_load uses this for baselines.
  bool fault_free = false;

  sim::Time run_time = 2 * sim::kSecond;
  sim::Time drain_timeout = 30 * sim::kSecond;

  /// Record + audit the run (flight recorder at `recorder_capacity` per
  /// node; a run that overwrites any record fails as inconclusive).
  /// bench_load disables this for pure latency sweeps.
  bool audit = true;
  std::size_t recorder_capacity = 1 << 15;
  /// Fixture hook: absorb a forged duplicate ExecStart record before the
  /// audit, to prove violation reporting + seed repro end-to-end.
  bool inject_duplicate = false;
  /// On violation, write the flight-recorder dump here ("" = don't).
  std::string dump_dir;
};

struct SoakResult {
  std::uint64_t seed = 0;
  bool clean = false;
  std::vector<std::string> violations;
  std::string campaign;  // ChaosPlan::spec(), "" for an empty schedule
  std::string repro;     // one-line soakctl command replaying this schedule
  std::string dump_path; // written on violation when dump_dir is set
  std::string farm_dump_path;  // durable runs: DiskFarm dump on violation

  WorkloadStats workload;
  std::uint64_t duplicates_dropped = 0;  // receiver-side suppressions
  std::uint64_t sends_suppressed = 0;    // sender-side suppressions
  std::uint64_t failovers = 0;
  std::uint64_t replicas_spawned = 0;    // RM auto-restore actions
  std::uint64_t divergences = 0;
  std::uint64_t records_dropped = 0;     // flight-recorder ring overwrites

  std::string summary() const;
};

class SoakRunner {
 public:
  explicit SoakRunner(SoakConfig cfg) : cfg_(std::move(cfg)) {}

  const SoakConfig& config() const noexcept { return cfg_; }

  /// Execute one schedule. Deterministic: same config + seed, same result.
  SoakResult run(std::uint64_t seed);

  /// Execute seeds [first, first+count); returns all results. `on_result`
  /// (optional) observes each run as it completes — the CLI streams
  /// progress through it.
  std::vector<SoakResult> sweep(
      std::uint64_t first, std::uint64_t count,
      const std::function<void(const SoakResult&)>& on_result = {});

  /// The one-line CLI command that replays `seed` under this config.
  std::string repro_command(std::uint64_t seed) const;

 private:
  SoakConfig cfg_;
};

}  // namespace eternal::soak
