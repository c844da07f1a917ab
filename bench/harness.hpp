// Shared scaffolding for the experiment harnesses (bench_*).
//
// Each bench binary regenerates one table/figure of the evaluation: it
// builds a simulated cluster, drives a workload, and prints a markdown
// table of *simulated-time* metrics. EXPERIMENTS.md records how each maps
// to the paper's evaluation and how the shapes compare.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "app/servants.hpp"
#include "ft/replication_manager.hpp"
#include "obs/obs.hpp"
#include "rep/domain.hpp"
#include "util/stats.hpp"

namespace eternal::bench {

/// Total global operator-new calls so far in this process. Exact, not
/// sampled: the bench binaries link counting new/delete replacements
/// (alloc_hook.cpp). Monotonic — diff two snapshots around a measured
/// region to get its allocation cost.
std::uint64_t alloc_count() noexcept;

/// Snapshot-and-diff wrapper around alloc_count() for measured loops:
///   AllocWindow aw; ...loop...; double apo = aw.per_op(samples);
struct AllocWindow {
  std::uint64_t start = alloc_count();
  std::uint64_t delta() const noexcept { return alloc_count() - start; }
  double per_op(std::uint64_t ops) const noexcept {
    return ops == 0 ? 0.0 : static_cast<double>(delta()) / static_cast<double>(ops);
  }
};

/// Committed allocation budget: `--max-allocs <N>` on a bench command line.
/// Zero when absent (no budget enforced).
inline double alloc_budget(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--max-allocs") == 0) return std::atof(argv[i + 1]);
  }
  return 0.0;
}

/// The allocs/op regression guard ctest wires onto the smoke runs: nonzero
/// exit when the mean of the measured FT allocs/op figures exceeds the
/// budget committed in bench/CMakeLists.txt.
inline int enforce_alloc_budget(double budget,
                                const std::vector<double>& allocs_per_op) {
  if (budget <= 0.0 || allocs_per_op.empty()) return 0;
  double sum = 0;
  for (double v : allocs_per_op) sum += v;
  const double mean = sum / static_cast<double>(allocs_per_op.size());
  std::printf("\nalloc budget: mean %.1f allocs/op vs committed max %.1f\n",
              mean, budget);
  if (mean > budget) {
    std::printf("FAIL: allocation regression — mean allocs/op %.1f exceeds "
                "the committed budget %.1f\n", mean, budget);
    return 1;
  }
  return 0;
}

struct FtCluster {
  explicit FtCluster(std::size_t n, std::uint64_t seed = 1,
                     rep::EngineParams ep = {}, totem::Params tp = {})
      : sim(seed), net(sim, n), fabric(sim, net, tp), domain(fabric, ep),
        rm(domain, notifier) {
    // Each cluster is a fresh experiment: apply the ETERNAL_TRACE /
    // ETERNAL_BLACKBOX toggles and wipe the previous cluster's telemetry,
    // so an obs_report() after the sweep reads the last run's story.
    obs::configure_from_env();
    obs::Registry::global().reset();
    obs::Tracer::global().clear();  // empties the record store
    // Self-describing dumps: stamp the run seed first, so obsctl audit can
    // name the schedule behind any violation it reports.
    obs::Journal::global().emit(0, 0, obs::EventKind::RunMeta,
                                "seed=" + std::to_string(seed));
    fabric.start_all();
    fabric.run_until_converged(2 * sim::kSecond);
    sim.run_for(300 * sim::kMillisecond);
  }

  void settle(sim::Time t = sim::kSecond) { sim.run_for(t); }

  /// Client round trip in simulated microseconds; drives the simulation.
  sim::Time timed_call(sim::NodeId node, const std::string& group,
                       const std::string& op, cdr::Bytes args) {
    const sim::Time start = sim.now();
    domain.client(node).invoke_blocking(group, op, std::move(args),
                                        30 * sim::kSecond);
    return sim.now() - start;
  }

  sim::Simulation sim;
  sim::Network net;
  totem::Fabric fabric;
  rep::Domain domain;
  ft::FaultNotifier notifier;
  ft::ReplicationManager rm;
};

inline cdr::Bytes i64_arg(std::int64_t v) {
  return cdr::make_bytes([v](cdr::Writer& w) { w.put_longlong(v); });
}

inline cdr::Bytes payload_arg(std::size_t bytes) {
  return cdr::make_bytes(
      [bytes](cdr::Writer& w) { w.put_octet_seq(cdr::Bytes(bytes, 0xAB)); });
}

/// Markdown table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  Table& row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
    return *this;
  }

  void print() const {
    auto line = [](const std::vector<std::string>& cells) {
      std::string out = "|";
      for (const auto& c : cells) out += " " + c + " |";
      std::puts(out.c_str());
    };
    line(headers_);
    std::vector<std::string> sep;
    for (std::size_t i = 0; i < headers_.size(); ++i) sep.push_back("---");
    line(sep);
    for (const auto& r : rows_) line(r);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int decimals = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

inline std::string fmt_u(std::uint64_t v) { return std::to_string(v); }

inline void banner(const std::string& id, const std::string& title) {
  std::printf("\n## %s — %s\n\n", id.c_str(), title.c_str());
}

/// Observability read-out, printed after each bench's tables: the metrics
/// registry snapshot (values reflect the most recent cluster — FtCluster
/// resets telemetry at construction), the lifecycle trace of the last
/// completed invocation when `ETERNAL_TRACE=1`, and the membership & fault
/// event journal when it captured anything. When `name` is non-empty the
/// same data is also written machine-readable to BENCH_<name>.json in the
/// working directory, so runs are diffable without scraping stdout.
inline void obs_report(const std::string& name = {}) {
  if (!name.empty()) {
    const std::string path = "BENCH_" + name + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      const std::string json = obs::report_json();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::printf("\n[obs] wrote %s\n", path.c_str());
    }
  }
  std::printf("\n### observability — metrics registry snapshot\n\n```\n%s```\n",
              obs::Registry::global().to_text().c_str());

  const auto lines = [](const std::vector<obs::FlightRecord>& recs) {
    std::string out;
    for (const obs::FlightRecord& r : recs) out += r.str() + '\n';
    return out;
  };
  const auto& store = obs::FlightRecorder::global();
  const auto& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    std::printf("\n### observability — operation lifecycle trace\n\n");
    if (auto op = tracer.last_completed_op()) {
      std::printf("last completed operation %s (%llu records captured, "
                  "%llu overwritten):\n\n```\n%s```\n",
                  op->str().c_str(),
                  static_cast<unsigned long long>(store.absorbed()),
                  static_cast<unsigned long long>(store.dropped()),
                  lines(tracer.records_for(*op)).c_str());
    } else {
      std::printf("(no completed operation in the rings: %llu records, "
                  "%llu overwritten)\n",
                  static_cast<unsigned long long>(store.absorbed()),
                  static_cast<unsigned long long>(store.dropped()));
    }
  }

  const auto events = obs::Journal::global().events();
  if (!events.empty()) {
    std::printf("\n### observability — membership & fault event journal "
                "(%zu events, %llu records overwritten)\n\n```\n%s```\n",
                events.size(),
                static_cast<unsigned long long>(store.dropped()),
                lines(events).c_str());
  }
}

}  // namespace eternal::bench
