// Umbrella header for the observability subsystem: the metrics registry
// and the one record stream — the per-node flight recorder — with its two
// emit façades, operation-lifecycle tracing and the membership & fault
// event journal.
//
// Environment controls (read once by configure_from_env):
//   ETERNAL_TRACE=1        enable the global operation tracer
//   ETERNAL_BLACKBOX=dir   arm fault dumps of the flight recorder into `dir`
//                          (see obs/recorder.hpp)
//   ETERNAL_BLACKBOX_CAP=N per-node flight-recorder capacity (default 2048),
//                          shared by trace spans and journal events
#pragma once

#include <string>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace eternal::obs {

/// Apply the ETERNAL_* environment variables above to the global tracer
/// and flight recorder. Idempotent; benches call it at startup so
/// observability can be toggled without recompiling.
void configure_from_env();

/// Machine-readable snapshot of the whole observability state: metrics
/// registry, whether tracing is on, and the flight recorder's status with
/// every surviving record inline. The bench harness writes this next to
/// each bench's stdout tables so the perf trajectory is diffable across
/// runs.
/// {"metrics":{...},"trace":{"enabled":...},"records":{...,"list":[...]}}
std::string report_json();

}  // namespace eternal::obs
