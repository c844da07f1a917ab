// The benchmark's three workloads and the unreplicated PlainOrb baseline.
//
// Each run_* call is one repetition: it builds a fresh simulated cluster
// from the seed, warms it up, measures one window, drains, and checks the
// outcome. Everything simulated is a pure function of (workload, seed,
// variant); only the host-clock fields vary between repetitions.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// How a repetition is instrumented. Untraced is what the end-to-end
/// metrics measure; the others feed the traced run's per-layer read-out.
enum class Variant {
  Untraced,   // the stack as shipped, benchmark spans off
  Traced,     // benchmark spans on (sim.step, totem.recv, rep.invoke, ...)
  ObsTrace,   // the stack's own operation tracer on (ETERNAL_TRACE=1)
  NoDur,      // durability plane not attached (durable workloads only)
};

const char* variant_name(Variant v);

/// One offered-rate step of an open-loop staircase.
struct StepResult {
  double offered_rate = 0;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t refused = 0;  // shed + failed
  std::uint64_t in_flight_start = 0;
  std::uint64_t in_flight_end = 0;
  double p50_us = 0;
  double p99_us = 0;
  bool meets_limit = false;
};

struct RepResult {
  std::vector<std::string> violations;  // correctness gate; empty = pass

  // --- host clock (measured) ---
  double setup_s = 0;      // wall time from workload start to first op
  double window_cpu_ns = 0;  // process CPU over the measured window
  /// The same CPU time cut into slices of kSliceEvents simulated events
  /// (the last slice is the remainder). Every repetition of a variant
  /// simulates the same events, so slice k is the same work in each.
  std::vector<double> slice_cpu_ns;
  std::uint64_t allocs = 0;  // operator-new calls over the window

  // --- simulated / exact ---
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t writes_completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  std::uint64_t unanswered = 0;
  double window_sim_s = 0;
  std::vector<double> latency_us;  // the e2e latency sample
  std::vector<StepResult> steps;   // openloop_durable staircase
  double latency_limit_us = 0;     // openloop_durable: max_rate_ok's limit
  double max_rate_ok = 0;          // openloop_durable
  double outage_ms = 0;            // crash_recover
  std::vector<double> recover_cpu_ms;   // crash_recover, per cold restart
  std::vector<double> recover_span_ns;  // ... recover_node loop only
  std::vector<double> reconverge_sim_ms;
  std::uint64_t tail_lost_writes = 0;  // acked writes inside the sync window

  /// Exact per-layer counts over the window (registry / public stats).
  std::map<std::string, double> counts;
  /// Benchmark span totals over the window (Traced variant only).
  std::vector<LayerTotals> spans;
};

/// Simulated events per host-CPU slice of the measured window.
constexpr std::uint64_t kSliceEvents = 4096;

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double q);

RepResult run_pipeline_small(std::uint64_t seed, Variant v);
RepResult run_openloop_durable(std::uint64_t seed, Variant v);
RepResult run_crash_recover(std::uint64_t seed, Variant v);

struct PlainResult {
  double cpu_ns_per_op = 0;
  double allocs_per_op = 0;
  double lat_p50_us = 0;
};

/// PlainOrb::invoke_blocking with the same 8-byte incr argument over the
/// same simulated LAN: the unreplicated single-server baseline.
PlainResult run_plain_orb(std::uint64_t seed);

}  // namespace perfbench
