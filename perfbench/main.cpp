// perfbench: the repository benchmark program.
//
//   perfbench --workload <pipeline_small|openloop_durable|crash_recover>
//             --seed <n> --seconds <s> --trace <0|1> [--span-dir <dir>]
//
// Runs one workload in repetitions until --seconds of host time have been
// measured (after one discarded warm-up repetition), checks every
// repetition's outputs, and prints a labelled table followed by one JSON
// line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set; with --trace 1 they are the per-layer
// set, from repetitions that alternate untraced, traced and paired
// variants. perfbench/README.md documents every metric.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string span_dir;
};

bool parse(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--span-dir") {
      a.span_dir = v;
    } else {
      return false;
    }
  }
  return have_workload && (argc % 2) == 1 && a.seconds > 0;
}

/// The stack's observability toggles, pinned for every measured run: a
/// caller's ETERNAL_TRACE=1 alone moves pipeline_small host ns/op by about
/// a third. Set before the first stack object reads them.
void pin_environment() {
  static const char* const kPins[][2] = {{"ETERNAL_TRACE", "0"},
                                         {"ETERNAL_JOURNAL", "1"},
                                         {"ETERNAL_BLACKBOX", "0"},
                                         {"ETERNAL_LOG_LEVEL", "off"}};
  for (const auto& p : kPins) {
    const char* caller = std::getenv(p[0]);
    std::printf("env %s=%s%s%s%s\n", p[0], p[1],
                caller != nullptr && std::strcmp(caller, p[1]) != 0
                    ? " (caller had "
                    : "",
                caller != nullptr && std::strcmp(caller, p[1]) != 0 ? caller
                                                                    : "",
                caller != nullptr && std::strcmp(caller, p[1]) != 0 ? ")"
                                                                    : "");
    setenv(p[0], p[1], 1);
  }
}

void print_provenance(const Args& a) {
  const std::string flags = PERFBENCH_CXX_FLAGS;
  const std::string type = PERFBENCH_BUILD_TYPE;
  const bool optimized = flags.find("-O2") != std::string::npos ||
                         flags.find("-O3") != std::string::npos;
  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              a.workload.c_str(), a.seed, a.seconds, a.trace ? 1 : 0);
  std::printf("build type=%s flags='%s' compiler='%s' nproc=%ld%s\n",
              type.c_str(), flags.c_str(), PERFBENCH_COMPILER,
              sysconf(_SC_NPROCESSORS_ONLN),
              optimized ? "" : "  WARNING: not an optimized build");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A percentile is reported only with at least 10 samples beyond it.
bool supported(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double per_op(double x, std::uint64_t ops) {
  return ops == 0 ? 0.0 : x / static_cast<double>(ops);
}

double host_ns_per_op(const RepResult& r) {
  return per_op(r.window_cpu_ns, r.completed);
}

double goodput(const RepResult& r) {
  const auto it = r.counts.find("load.completed_in_window");
  const double done =
      it != r.counts.end() ? it->second : static_cast<double>(r.completed);
  return r.window_sim_s > 0 ? done / r.window_sim_s : 0.0;
}

double count(const RepResult& r, const char* name) {
  const auto it = r.counts.find(name);
  return it == r.counts.end() ? 0.0 : it->second;
}

/// Everything simulated about a repetition, rendered exactly. Two
/// repetitions of one seed must give the same string.
std::string modelled_fingerprint(const RepResult& r) {
  std::string s;
  char buf[64];
  auto add = [&](const char* k, double v) {
    std::snprintf(buf, sizeof(buf), "%s=%.17g;", k, v);
    s += buf;
  };
  add("attempted", static_cast<double>(r.attempted));
  add("completed", static_cast<double>(r.completed));
  add("window_sim_s", r.window_sim_s);
  add("max_rate_ok", r.max_rate_ok);
  add("outage_ms", r.outage_ms);
  add("cpu_slices", static_cast<double>(r.slice_cpu_ns.size()));
  double lat_sum = 0;
  for (double x : r.latency_us) lat_sum = lat_sum * 1.000001 + x;
  add("latency_hash", lat_sum);
  for (const auto& [k, v] : r.counts) add(k.c_str(), v);
  return s;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string label;  // modelled | measured | measured, exact
  std::string note;
};

struct Report {
  std::vector<Metric> metrics;
  void add(std::string name, double value, std::string unit,
           std::string label, std::string note = {}) {
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(label), std::move(note)});
  }
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_table(const char* title, const Report& rep) {
  std::printf("\n%s\n", title);
  for (const Metric& m : rep.metrics) {
    std::printf("  %-30s %16.6f %-6s  [%s]%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.label.c_str(), m.note.empty() ? "" : "  ",
                m.note.c_str());
  }
}

/// {"name": "label", ...}: which metrics are modelled or exact counts
/// (bit-identical for one seed) and which read a host clock.
std::string labels_json(const Report& rep) {
  std::string out = "{";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + rep.metrics[i].name + "\": \"" + rep.metrics[i].label + "\"";
  }
  return out + "}";
}

std::string metrics_json(const Report& rep) {
  std::string out = "{";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    if (i != 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

using RunFn = std::function<RepResult(std::uint64_t, Variant)>;

/// A run that fails the gate reports the failure, not numbers.
int report_failure(const std::vector<std::string>& violations,
                   std::uint64_t attempted, std::uint64_t failed) {
  std::printf("\nCORRECTNESS GATE FAILED (%zu):\n", violations.size());
  for (const std::string& v : violations) std::printf("  %s\n", v.c_str());
  std::printf("{\"correct\": false, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {}}\n",
              std::max<std::uint64_t>(attempted, 1), failed);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--span-dir <dir>]\n");
    return 2;
  }
  pin_environment();
  print_provenance(args);

  RunFn run;
  std::vector<Variant> variants = {Variant::Untraced};
  const bool durable_pair = args.workload == "openloop_durable";
  if (args.workload == "pipeline_small") {
    run = run_pipeline_small;
  } else if (args.workload == "openloop_durable") {
    run = run_openloop_durable;
  } else if (args.workload == "crash_recover") {
    run = run_crash_recover;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.trace) {
    variants.push_back(Variant::Traced);
    variants.push_back(Variant::ObsTrace);
    if (durable_pair) variants.push_back(Variant::NoDur);
  }

  std::vector<std::string> violations;
  auto gate = [&](const RepResult& r, Variant v, int rep) {
    for (const std::string& s : r.violations) {
      violations.push_back(std::string(variant_name(v)) + " rep " +
                           std::to_string(rep) + ": " + s);
    }
  };

  // Warm-up repetition: fills the slab pools and caches; its outputs are
  // checked but not measured.
  const RepResult warm = run(args.seed, Variant::Untraced);
  gate(warm, Variant::Untraced, 0);
  if (!violations.empty()) {
    return report_failure(violations, warm.attempted,
                          warm.shed + warm.failed + warm.unanswered);
  }

  std::map<Variant, std::vector<RepResult>> reps;
  const std::int64_t start = wall_ns();
  const int min_rounds = args.trace ? 2 : 3;
  for (int round = 1;; ++round) {
    for (Variant v : variants) {
      reps[v].push_back(run(args.seed, v));
      gate(reps[v].back(), v, round);
    }
    const double elapsed = static_cast<double>(wall_ns() - start) * 1e-9;
    if (!violations.empty() || (round >= min_rounds && elapsed >= args.seconds)) {
      break;
    }
  }

  // Determinism: every repetition of a variant simulates the same thing,
  // and benchmark spans must not perturb the simulation.
  const std::string fp = modelled_fingerprint(reps[Variant::Untraced][0]);
  for (const auto& [v, rs] : reps) {
    if (v == Variant::ObsTrace || v == Variant::NoDur) continue;
    for (std::size_t i = 0; i < rs.size(); ++i) {
      if (modelled_fingerprint(rs[i]) != fp) {
        violations.push_back(std::string(variant_name(v)) + " rep " +
                             std::to_string(i + 1) +
                             ": simulated outcome differs from rep 1");
      }
    }
  }

  std::uint64_t attempted = 0, failed = 0;
  for (const auto& [v, rs] : reps) {
    for (const RepResult& r : rs) {
      attempted += r.attempted;
      failed += r.shed + r.failed + r.unanswered;
    }
  }

  if (args.trace && durable_pair) {
    // Detaching durability must leave everything the clients see alone.
    const RepResult& d0 = reps[Variant::NoDur].front();
    const RepResult& u0 = reps[Variant::Untraced].front();
    if (d0.latency_us != u0.latency_us || d0.completed != u0.completed ||
        count(d0, "net.bytes") != count(u0, "net.bytes") ||
        d0.max_rate_ok != u0.max_rate_ok) {
      violations.push_back(
          "durability detached changed the modelled metrics");
    }
  }
  if (!violations.empty()) return report_failure(violations, attempted, failed);

  const RepResult& r0 = reps[Variant::Untraced].front();
  auto med = [&](Variant v, const std::function<double(const RepResult&)>& f) {
    std::vector<double> xs;
    for (const RepResult& r : reps[v]) xs.push_back(f(r));
    return median(xs);
  };
  // Host-clock costs take the least-disturbed repetition: every repetition
  // does the same simulated work, and co-tenant interference on a shared
  // host only ever adds time (regimes of +30-60% lasting seconds to
  // minutes were seen on a 4-vCPU KVM guest), so the minimum is far
  // steadier run to run than the median.
  auto least = [&](Variant v, const std::function<double(const RepResult&)>& f) {
    double best = 0;
    for (const RepResult& r : reps[v]) {
      const double x = f(r);
      if (best == 0 || x < best) best = x;
    }
    return best;
  };
  // host_ns_per_op of a variant: each CPU slice (the same simulated events
  // in every repetition) at its least-disturbed repetition, summed. On the
  // shared host the slowdowns come in bursts shorter than a repetition, so
  // this is steadier run to run than the least-disturbed whole repetition.
  auto host_ns = [&](Variant v) {
    const std::vector<RepResult>& rs = reps[v];
    std::size_t n = rs.front().slice_cpu_ns.size();
    for (const RepResult& r : rs) n = std::min(n, r.slice_cpu_ns.size());
    double sum = 0;
    for (std::size_t k = 0; k < n; ++k) {
      double best = rs.front().slice_cpu_ns[k];
      for (const RepResult& r : rs) best = std::min(best, r.slice_cpu_ns[k]);
      sum += best;
    }
    return per_op(sum, rs.front().completed);
  };
  const std::uint64_t ops = r0.completed;
  const double lat_n = static_cast<double>(r0.latency_us.size());

  std::printf("\nrepetitions:");
  for (const auto& [v, rs] : reps) {
    std::printf(" %s=%zu", variant_name(v), rs.size());
  }
  std::printf("  (plus 1 warm-up)\n");
  std::printf("host ns/op per untraced repetition:");
  for (const RepResult& r : reps[Variant::Untraced]) {
    std::printf(" %.0f", host_ns_per_op(r));
  }
  std::printf("\nhost ns/op: least-disturbed repetition %.0f, per-slice "
              "floor %.0f (%zu slices of %" PRIu64 " events)",
              least(Variant::Untraced, host_ns_per_op),
              host_ns(Variant::Untraced), r0.slice_cpu_ns.size(),
              kSliceEvents);
  std::printf("\nsetup ms per untraced repetition:");
  for (const RepResult& r : reps[Variant::Untraced]) {
    std::printf(" %.2f", r.setup_s * 1e3);
  }
  std::printf("\n");
  std::printf("ops per repetition: attempted=%" PRIu64 " completed=%" PRIu64
              " latency samples=%.0f\n",
              r0.attempted, r0.completed, lat_n);
  if (!r0.steps.empty()) {
    std::printf("\nstaircase (limit p99 <= %.0f us):\n", r0.latency_limit_us);
    for (const StepResult& s : r0.steps) {
      std::printf("  %6.0f ops/s  attempted=%" PRIu64 " completed=%" PRIu64
                  " refused=%" PRIu64 " in_flight %" PRIu64 "->%" PRIu64
                  "  p50=%.0fus p99=%.0fus %s\n",
                  s.offered_rate, s.attempted, s.completed, s.refused,
                  s.in_flight_start, s.in_flight_end, s.p50_us, s.p99_us,
                  s.meets_limit ? "ok" : "over");
    }
  }

  // Workload-specific end-to-end figures (printed every run; recorded as
  // per-layer metrics because every gated metric must exist on every
  // workload).
  const double recover_host_ms =
      least(Variant::Untraced, [](const RepResult& r) {
        return median(r.recover_cpu_ms);
      });

  Report rep;
  if (!args.trace) {
    rep.add("setup_s", med(Variant::Untraced,
                           [](const RepResult& r) { return r.setup_s; }),
            "s", "measured");
    rep.add("host_ns_per_op", host_ns(Variant::Untraced), "ns", "measured");
    rep.add("allocs_per_op",
            med(Variant::Untraced,
                [](const RepResult& r) {
                  return per_op(static_cast<double>(r.allocs), r.completed);
                }),
            "count", "measured, exact");
    rep.add("wire_bytes_per_op", per_op(count(r0, "net.bytes"), ops), "B",
            "measured, exact");
    const std::string n = "n=" + std::to_string(r0.latency_us.size());
    rep.add("lat_p50_us", percentile(r0.latency_us, 0.50), "us", "modelled",
            n);
    rep.add("lat_p99_us", percentile(r0.latency_us, 0.99), "us", "modelled",
            n);
    rep.add("goodput_ops_s", goodput(r0), "ops/s", "modelled");
    rep.add("served_frac",
            r0.attempted == 0 ? 0.0
                              : static_cast<double>(r0.completed) /
                                    static_cast<double>(r0.attempted),
            "ratio", "measured", "1 - fail_frac");
    rep.add("peak_rss_mb", peak_rss_mib(), "MiB", "measured");

    Report extra;
    if (supported(r0.latency_us.size(), 0.999)) {
      extra.add("lat_p999_us", percentile(r0.latency_us, 0.999), "us",
                "modelled", n);
    } else {
      std::printf("\nlat_p999_us omitted: %s has fewer than 10 samples past "
                  "p99.9\n", n.c_str());
    }
    extra.add("fail_frac",
              r0.attempted == 0 ? 0.0
                                : static_cast<double>(r0.attempted -
                                                      r0.completed) /
                                      static_cast<double>(r0.attempted),
              "ratio", "measured");
    if (args.workload == "openloop_durable") {
      extra.add("max_rate_ok", r0.max_rate_ok, "ops/s", "modelled");
    }
    if (args.workload == "crash_recover") {
      extra.add("outage_ms", r0.outage_ms, "ms", "modelled");
      extra.add("recover_host_ms", recover_host_ms, "ms", "measured");
      extra.add("tail_lost_writes", static_cast<double>(r0.tail_lost_writes),
                "count", "modelled", "acked writes inside a power cut's sync window");
    }
    print_table("end-to-end metrics:", rep);
    print_table("end-to-end metrics (workload-specific, not in BENCHMARK.json):",
                extra);
  } else {
    // Per-layer read-out. Exact counts come from the first untraced
    // repetition (every repetition simulates the same thing). Span times
    // come from the least-disturbed traced repetition, and a paired cost is
    // one variant's host ns/op floor minus the untraced one's.
    const double base_ns = host_ns(Variant::Untraced);
    auto span = [&](Layer l, const std::function<double(const LayerTotals&)>& f) {
      return least(Variant::Traced, [&](const RepResult& r) {
        return per_op(f(r.spans[static_cast<std::size_t>(l)]), r.completed);
      });
    };
    auto cnt = [&](const char* name) { return count(r0, name); };
    auto cnt_op = [&](const char* name) { return per_op(cnt(name), ops); };
    const char* kExact = "measured, exact";

    rep.add("sim.events_per_op", cnt_op("sim.events"), "count", kExact);
    rep.add("sim.timers_per_op", cnt_op("sim.timers"), "count", kExact);
    rep.add("sim.self_ns_per_op",
            span(Layer::SimStep, [](const LayerTotals& t) {
              return static_cast<double>(t.self_ns);
            }),
            "ns", "measured");
    rep.add("sim.self_allocs_per_op",
            span(Layer::SimStep, [](const LayerTotals& t) {
              return static_cast<double>(t.self_allocs);
            }),
            "count", kExact);
    rep.add("net.datagrams_per_op", cnt_op("net.datagrams"), "count", kExact);
    rep.add("net.multicasts_per_op", cnt_op("net.multicasts"), "count",
            kExact);
    rep.add("totem.recv_ns_per_op",
            span(Layer::TotemRecv, [](const LayerTotals& t) {
              return static_cast<double>(t.incl_ns);
            }),
            "ns", "measured", "inclusive: rep, GIOP, journal append");
    rep.add("totem.recv_calls_per_op",
            span(Layer::TotemRecv, [](const LayerTotals& t) {
              return static_cast<double>(t.calls);
            }),
            "count", kExact);
    rep.add("totem.rotations_per_op", cnt_op("totem.client_visits"), "count",
            kExact);
    rep.add("totem.ops_per_frame",
            per_op(cnt("totem.broadcasts"),
                   static_cast<std::uint64_t>(cnt("net.multicasts"))),
            "count", kExact, "ordered messages per multicast frame");
    rep.add("totem.retransmits_per_op", cnt_op("totem.retransmits"), "count",
            kExact);
    rep.add("rep.invoke_ns_per_op",
            span(Layer::RepInvoke, [](const LayerTotals& t) {
              return static_cast<double>(t.incl_ns);
            }),
            "ns", "measured");
    rep.add("rep.executions_per_op", cnt_op("rep.executions"), "count",
            kExact);
    rep.add("rep.suppressed_per_op", cnt_op("rep.suppressed"), "count",
            kExact, "beside executions_per_op: wasted-work ratio");
    rep.add("rep.state_updates_per_write",
            per_op(cnt("rep.state_updates"), r0.writes_completed), "count",
            kExact);
    rep.add("app.state_capture_ns_per_op",
            span(Layer::AppState, [](const LayerTotals& t) {
              return static_cast<double>(t.incl_ns);
            }),
            "ns", "measured");
    rep.add("app.state_captures_per_op",
            span(Layer::AppState, [](const LayerTotals& t) {
              return static_cast<double>(t.calls);
            }),
            "count", kExact);
    rep.add("dur.appends_per_op", cnt_op("dur.appends"), "count", kExact);
    rep.add("dur.journal_bytes_per_op", cnt_op("dur.journal_bytes"), "B",
            kExact);
    rep.add("dur.checkpoints_cut", cnt("dur.checkpoints_cut"), "count",
            kExact);
    rep.add("dur.compacted_bytes_per_op", cnt_op("dur.compacted_bytes"), "B",
            kExact);
    rep.add("dur.resident_bytes", cnt("dur.resident_bytes"), "B", kExact);
    rep.add("dur.overhead_ns_per_op",
            durable_pair ? base_ns - host_ns(Variant::NoDur) : 0.0,
            "ns", "measured",
            durable_pair ? "untraced minus the same seed with dur detached"
                         : "n/a: no paired run on this workload");
    rep.add("load.max_rate_ok", r0.max_rate_ok, "ops/s", "modelled");
    const RepResult& o0 = reps[Variant::ObsTrace].front();
    rep.add("obs.trace_ns_per_op",
            host_ns(Variant::ObsTrace) - base_ns, "ns",
            "measured", "ETERNAL_TRACE=1 minus untraced");
    rep.add("obs.trace_allocs_per_op",
            per_op(static_cast<double>(o0.allocs), o0.completed) -
                per_op(static_cast<double>(r0.allocs), r0.completed),
            "count", kExact);
    rep.add("obs.trace_wire_bytes_per_op",
            per_op(count(o0, "net.bytes"), o0.completed) -
                cnt_op("net.bytes"),
            "B", kExact);
    rep.add("obs.trace_lat_p50_us",
            percentile(o0.latency_us, 0.5) - percentile(r0.latency_us, 0.5),
            "us", "modelled");
    const PlainResult plain = run_plain_orb(args.seed);
    rep.add("orb.plain_ns_per_op", plain.cpu_ns_per_op, "ns", "measured");
    rep.add("orb.plain_allocs_per_op", plain.allocs_per_op, "count", kExact);
    rep.add("orb.plain_lat_us", plain.lat_p50_us, "us", "modelled");
    rep.add("trace.overhead_ns_per_op",
            host_ns(Variant::Traced) - base_ns, "ns", "measured",
            "traced minus untraced host_ns_per_op");
    if (args.workload == "crash_recover") {
      // Fault and recovery read-out. Only crash_recover feeds it, and that
      // workload is not in BENCHMARK.json while it trips the recovery
      // divergence defect (README, known defects), so the benchmarked
      // workloads do not print these always-zero figures.
      rep.add("totem.token_losses", cnt("totem.token_losses"), "count", kExact);
      rep.add("totem.views_installed", cnt("totem.views_installed"), "count",
              kExact);
      rep.add("rep.failovers", cnt("rep.failovers"), "count", kExact);
      rep.add("rep.snapshots_served", cnt("rep.snapshots_served"), "count",
              kExact);
      rep.add("dur.records_scanned", cnt("dur.records_scanned"), "count",
              kExact);
      rep.add("dur.records_replayed", cnt("dur.records_replayed"), "count",
              kExact);
      rep.add("dur.checkpoints_loaded", cnt("dur.checkpoints_loaded"), "count",
              kExact);
      rep.add("ft.recover_domain_ns",
              least(Variant::Traced,
                    [](const RepResult& r) { return median(r.recover_span_ns); }),
              "ns", "measured");
      rep.add("ft.reconverge_sim_ms", median(r0.reconverge_sim_ms), "ms",
              "modelled");
      rep.add("ft.replicas_spawned", cnt("ft.replicas_spawned"), "count",
              kExact);
      rep.add("ft.outage_ms", r0.outage_ms, "ms", "modelled");
      rep.add("ft.recover_host_ms", recover_host_ms, "ms", "measured");
    }
    print_table("per-layer metrics (traced run):", rep);

    if (!args.span_dir.empty()) {
      const std::string path = args.span_dir + "/spans-" + args.workload +
                               "-seed" + std::to_string(args.seed) + ".csv";
      const SpanLog& log = SpanLog::get();
      if (log.write_csv(path)) {
        std::printf("\nspans: %zu kept (%" PRIu64 " past the cap) -> %s\n",
                    log.kept(), log.dropped(), path.c_str());
      }
    }
  }


  std::printf("\ncorrectness gate: pass (%zu repetitions checked)\n",
              [&] {
                std::size_t n = 1;
                for (const auto& [v, rs] : reps) n += rs.size();
                return n;
              }());
  std::printf("labels %s\n", labels_json(rep).c_str());
  std::printf("{\"correct\": true, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              attempted, failed, metrics_json(rep).c_str());
  return 0;
}
