#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <functional>
#include <memory>
#include <optional>

#include "app/servants.hpp"
#include "ft/recovery.hpp"
#include "ft/replication_manager.hpp"
#include "harness.hpp"
#include "obs/obs.hpp"
#include "orb/exceptions.hpp"
#include "orb/plain.hpp"
#include "rep/stub.hpp"
#include "spans.hpp"

namespace perfbench {

using namespace eternal;

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::Untraced: return "untraced";
    case Variant::Traced: return "traced";
    case Variant::ObsTrace: return "obs-trace";
    case Variant::NoDur: return "no-dur";
  }
  return "?";
}

namespace {

// ---------------------------------------------------------------------------
// Workload constants. Changing any of them changes the benchmark.
// ---------------------------------------------------------------------------

// pipeline_small: 3 active replicas + 1 client node, 8 calls outstanding.
constexpr std::size_t kPipeNodes = 4;
constexpr sim::NodeId kPipeClient = 3;
constexpr std::size_t kPipeDepth = 8;
constexpr int kPipeOps = 12000;  // >= 10000 so p99.9 has 10 samples past it
constexpr int kWarmupCalls = 50;

// Open-loop layout shared by openloop_durable and crash_recover: clients
// on nodes 0-2, replicas only on nodes 3-6, so a power cut of every
// replica-hosting node leaves the clients (and their retries) alive.
constexpr std::size_t kLoopNodes = 7;
const std::vector<sim::NodeId> kClients = {0, 1, 2};
const std::vector<sim::NodeId> kServers = {3, 4, 5, 6};
struct GroupSpec {
  const char* name;
  rep::Style style;
  std::vector<sim::NodeId> nodes;
};
const std::vector<GroupSpec> kGroups = {
    {"g0", rep::Style::Active, {3, 4, 5}},
    {"g1", rep::Style::Active, {4, 5, 6}},
    {"g2", rep::Style::WarmPassive, {3, 5, 6}},
};
constexpr std::size_t kClientDepth = 4;
constexpr double kZipfS = 1.2;
constexpr double kReadFraction = 0.2;
constexpr std::uint64_t kDivergenceInterval = 8;

// openloop_durable staircase (ops/s offered, per step) and the latency
// limit max_rate_ok is judged against. The first kRefSteps steps sit below
// the knee at the time of writing; their arrivals form the e2e latency
// sample, the rest bracket the knee.
const std::vector<double> kStairRates = {2000, 4000, 6000, 8000, 10000, 12000};
constexpr std::size_t kRefSteps = 3;
constexpr sim::Time kStepTime = 500 * sim::kMillisecond;
constexpr double kLatencyLimitUs = 5000;
constexpr double kFailAllowance = 0.001;

// crash_recover: fixed rate below the knee and a fixed fault schedule.
constexpr double kCrashRate = 1000;
constexpr sim::Time kCrashActiveAt = 100 * sim::kMillisecond;
constexpr sim::Time kCrashPrimaryAt = 300 * sim::kMillisecond;
constexpr sim::Time kRestartAt = 600 * sim::kMillisecond;
constexpr sim::Time kRestoreAt = 700 * sim::kMillisecond;
constexpr sim::Time kFirstCutAt = 1000 * sim::kMillisecond;
constexpr sim::Time kCutEvery = 500 * sim::kMillisecond;
constexpr sim::Time kCutDown = 20 * sim::kMillisecond;
constexpr int kCuts = 5;
constexpr sim::Time kCrashRunTime = kFirstCutAt + kCuts * kCutEvery;

constexpr sim::Time kDrainTimeout = 30 * sim::kSecond;
constexpr sim::Time kSettleTime = 500 * sim::kMillisecond;

// ---------------------------------------------------------------------------
// Instrumented servant and cluster scaffolding.
// ---------------------------------------------------------------------------

/// app::Counter with its state-capture hooks timed. Counter inherits
/// Replica's default get_update/apply_update, which call the virtual
/// get_state/set_state, so timing these two covers all four hooks; the
/// bytes are the base class's.
class TimedCounter : public app::Counter {
 public:
  void get_state(cdr::Encoder& out) const override {
    Span s(Layer::AppState);
    app::Counter::get_state(out);
  }
  void set_state(cdr::Decoder& in) override {
    Span s(Layer::AppState);
    app::Counter::set_state(in);
  }
};

struct Cluster {
  Cluster(std::size_t nodes, std::uint64_t seed, rep::EngineParams ep,
          Variant v, bool durable)
      : variant(v), sim(seed), net(sim, nodes), fabric(sim, net),
        domain(fabric, ep), rm(domain, notifier), farm(nodes) {
    // Fresh telemetry per repetition, with the stack's own operation
    // tracer on only for the paired ETERNAL_TRACE run.
    obs::configure_from_env();
    obs::Registry::global().reset();
    obs::Tracer::global().enable(v == Variant::ObsTrace);
    obs::Tracer::global().clear();
    obs::Journal::global().clear();
    obs::FlightRecorder::global().clear();
    if (durable && v != Variant::NoDur) {
      plane.emplace(domain, farm, dur::DurParams{});
      rm.set_durability_plane(&*plane);
      plane->attach_all();
    }
    if (v == Variant::Traced) {
      // The same call Fabric installs, wrapped in a totem.recv span.
      for (sim::NodeId n = 0; n < nodes; ++n) {
        net.set_handler(n, [node = &fabric.node(n)](sim::NodeId from,
                                                     const sim::Frame& f) {
          Span s(Layer::TotemRecv);
          node->on_receive(from, f);
        });
      }
    }
    fabric.start_all();
    fabric.run_until_converged(2 * sim::kSecond);
    sim.run_for(300 * sim::kMillisecond);
  }

  void create_counter(const std::string& group, rep::Style style,
                      const std::vector<sim::NodeId>& nodes) {
    ft::Properties props;
    props.replication_style = style;
    props.initial_number_replicas = static_cast<std::uint32_t>(nodes.size());
    props.minimum_number_replicas = static_cast<std::uint32_t>(nodes.size());
    if (variant == Variant::Traced) {
      rm.create_object<TimedCounter>(group, props, nodes);
    } else {
      rm.create_object<app::Counter>(group, props, nodes);
    }
  }

  Variant variant;
  sim::Simulation sim;
  sim::Network net;
  totem::Fabric fabric;
  rep::Domain domain;
  ft::FaultNotifier notifier;
  ft::ReplicationManager rm;
  sim::DiskFarm farm;
  std::optional<ft::DurabilityPlane> plane;
};

/// Process CPU marks every kSliceEvents events while a window is open.
struct SliceClock {
  bool on = false;
  std::uint64_t events = 0;
  std::vector<std::int64_t> marks;
} g_slices;

/// One simulated event, inside a sim.step span. The measured windows are
/// driven event by event so the step span sees every event.
bool step(sim::Simulation& sim) {
  bool more;
  {
    Span s(Layer::SimStep);
    more = sim.step();
  }
  if (g_slices.on && ++g_slices.events % kSliceEvents == 0) {
    g_slices.marks.push_back(cpu_ns());
  }
  return more;
}

/// Step until simulated time `t` (a sentinel event marks it).
void run_to(sim::Simulation& sim, sim::Time t) {
  bool reached = false;
  sim.at(t, [&reached] { reached = true; });
  while (!reached && step(sim)) {
  }
}

/// Step until `done()` or until `limit` simulated time has passed.
template <typename Pred>
void step_until(sim::Simulation& sim, sim::Time limit, Pred done) {
  const sim::Time deadline = sim.now() + limit;
  while (!done() && sim.now() < deadline && step(sim)) {
  }
}

/// After the drain, let in-flight state updates, digests and membership
/// settle before the gate compares replicas: a reply can reach its client
/// before every replica has delivered the state change behind it.
void settle(sim::Simulation& sim) {
  run_to(sim, sim.now() + kSettleTime);
}

// ---------------------------------------------------------------------------
// Exact per-layer counters.
// ---------------------------------------------------------------------------

struct Snap {
  std::uint64_t events = 0, timers = 0;
  std::uint64_t unicasts = 0, multicasts = 0, bytes = 0;
  std::uint64_t broadcasts = 0, retransmits = 0, token_losses = 0;
  std::uint64_t views = 0, visits = 0;
  std::uint64_t executions = 0, suppressed = 0, state_updates = 0;
  std::uint64_t snapshots_served = 0, failovers = 0;
  std::uint64_t spawned = 0;
};

Snap take_snap(Cluster& c, sim::NodeId visit_node) {
  Snap s;
  auto& reg = obs::Registry::global();
  s.events = reg.counter("sim.events_fired").value();
  s.timers = reg.counter("sim.timers_scheduled").value();
  const sim::NetStats& ns = c.net.stats();
  s.unicasts = ns.unicasts_sent;
  s.multicasts = ns.multicasts_sent;
  s.bytes = ns.bytes_sent;
  for (sim::NodeId n = 0; n < c.fabric.size(); ++n) {
    const totem::NodeStats t = c.fabric.node(n).stats();
    s.broadcasts += t.broadcasts;
    s.retransmits += t.retransmissions;
    s.token_losses += t.token_losses;
    s.views += t.views_installed;
    if (n == visit_node) s.visits = t.token_visits;
    const rep::EngineStats e = c.domain.engine(n).stats();
    s.executions += e.invocations_executed;
    s.suppressed += e.sends_suppressed + e.responses_suppressed +
                    e.duplicate_invocations_dropped;
    s.state_updates += e.state_updates_applied;
    s.snapshots_served += e.snapshots_served;
    s.failovers += e.failovers;
  }
  s.spawned = c.rm.replicas_spawned();
  return s;
}

/// dur.* registry counters restart from zero with each NodeDurability life
/// (recover_node builds a new one), so they are banked before a cold
/// restart and re-based after it.
class DurTally {
 public:
  static constexpr std::size_t kN = 4;

  void start(std::size_t nodes) {
    base_.assign(nodes, {});
    for (sim::NodeId n = 0; n < nodes; ++n) base_[n] = read(n);
  }
  void bank(const std::vector<sim::NodeId>& nodes) {
    for (sim::NodeId n : nodes) {
      const auto cur = read(n);
      for (std::size_t i = 0; i < kN; ++i) sum_[i] += cur[i] - base_[n][i];
      base_[n] = cur;
    }
  }
  void rebase(const std::vector<sim::NodeId>& nodes) {
    for (sim::NodeId n : nodes) base_[n] = read(n);
  }
  void finish(std::map<std::string, double>& counts) {
    std::vector<sim::NodeId> all;
    for (sim::NodeId n = 0; n < base_.size(); ++n) all.push_back(n);
    bank(all);
    counts["dur.appends"] = static_cast<double>(sum_[0]);
    counts["dur.journal_bytes"] = static_cast<double>(sum_[1]);
    counts["dur.checkpoints_cut"] = static_cast<double>(sum_[2]);
    counts["dur.compacted_bytes"] = static_cast<double>(sum_[3]);
  }

 private:
  static std::array<std::uint64_t, kN> read(sim::NodeId n) {
    static const char* const kNames[kN] = {"journal_appends", "journal_bytes",
                                           "checkpoints_cut",
                                           "compacted_bytes"};
    std::array<std::uint64_t, kN> v{};
    for (std::size_t i = 0; i < kN; ++i) {
      v[i] = obs::Registry::global()
                 .counter(obs::node_metric("dur", kNames[i], n))
                 .value();
    }
    return v;
  }

  std::vector<std::array<std::uint64_t, kN>> base_;
  std::array<std::uint64_t, kN> sum_{};
};

/// The measured window: host clocks, allocation count and the exact
/// counters between open() and close().
class Window {
 public:
  Window(Cluster& c, sim::NodeId visit_node)
      : c_(c), visit_node_(visit_node) {}

  void open() {
    if (c_.variant == Variant::Traced) {
      SpanLog::get().reset_totals();
      SpanLog::get().enable(kSpanCapacity);
    }
    dur_.start(c_.fabric.size());
    s0_ = take_snap(c_, visit_node_);
    sim0_ = c_.sim.now();
    g_slices.events = 0;
    g_slices.marks.clear();
    g_slices.marks.reserve(kMaxSlices);
    allocs0_ = bench::alloc_count();
    cpu0_ = cpu_ns();
    g_slices.marks.push_back(cpu0_);
    g_slices.on = true;
  }

  DurTally& dur() { return dur_; }

  void close(RepResult& r) {
    const std::int64_t cpu1 = cpu_ns();
    g_slices.on = false;
    r.window_cpu_ns = static_cast<double>(cpu1 - cpu0_);
    r.allocs = bench::alloc_count() - allocs0_;
    g_slices.marks.push_back(cpu1);
    for (std::size_t i = 1; i < g_slices.marks.size(); ++i) {
      r.slice_cpu_ns.push_back(
          static_cast<double>(g_slices.marks[i] - g_slices.marks[i - 1]));
    }
    if (c_.variant == Variant::Traced) {
      SpanLog::get().disable();
      for (std::size_t l = 0; l < static_cast<std::size_t>(Layer::kCount); ++l) {
        r.spans.push_back(SpanLog::get().totals(static_cast<Layer>(l)));
      }
    }
    const Snap s1 = take_snap(c_, visit_node_);
    auto& k = r.counts;
    auto d = [](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(b - a);
    };
    k["sim.events"] = d(s0_.events, s1.events);
    k["sim.timers"] = d(s0_.timers, s1.timers);
    k["net.datagrams"] = d(s0_.unicasts + s0_.multicasts,
                           s1.unicasts + s1.multicasts);
    k["net.multicasts"] = d(s0_.multicasts, s1.multicasts);
    k["net.bytes"] = d(s0_.bytes, s1.bytes);
    k["totem.broadcasts"] = d(s0_.broadcasts, s1.broadcasts);
    k["totem.retransmits"] = d(s0_.retransmits, s1.retransmits);
    k["totem.token_losses"] = d(s0_.token_losses, s1.token_losses);
    k["totem.views_installed"] = d(s0_.views, s1.views);
    k["totem.client_visits"] = d(s0_.visits, s1.visits);
    k["rep.executions"] = d(s0_.executions, s1.executions);
    k["rep.suppressed"] = d(s0_.suppressed, s1.suppressed);
    k["rep.state_updates"] = d(s0_.state_updates, s1.state_updates);
    k["rep.snapshots_served"] = d(s0_.snapshots_served, s1.snapshots_served);
    k["rep.failovers"] = d(s0_.failovers, s1.failovers);
    k["ft.replicas_spawned"] = d(s0_.spawned, s1.spawned);
    dur_.finish(k);
    double resident = 0;
    for (sim::NodeId n = 0; n < c_.farm.size(); ++n) {
      const sim::Disk& disk = c_.farm.disk(n);
      for (const std::string& f : disk.list()) {
        resident += static_cast<double>(disk.size(f));
      }
    }
    k["dur.resident_bytes"] = resident;
    r.window_sim_s = static_cast<double>(c_.sim.now() - sim0_) / sim::kSecond;
  }

 private:
  static constexpr std::size_t kSpanCapacity = 1 << 16;
  // Slice marks are reserved up front so the window's alloc count stays
  // exact; the longest window (openloop_durable) needs about 100.
  static constexpr std::size_t kMaxSlices = 4096;

  Cluster& c_;
  sim::NodeId visit_node_;
  DurTally dur_;
  Snap s0_;
  sim::Time sim0_ = 0;
  std::uint64_t allocs0_ = 0;
  std::int64_t cpu0_ = 0;
};

std::int64_t counter_value(Cluster& c, sim::NodeId n, const std::string& g) {
  auto* ctr = dynamic_cast<app::Counter*>(
      c.domain.engine(n).local_replica(g).get());
  return ctr != nullptr ? ctr->value() : -1;
}

/// Correctness gate: the divergence oracle stayed silent for the whole run.
void check_divergences(Cluster& c, std::vector<std::string>& violations) {
  const std::uint64_t n = c.domain.total(
      [](const rep::EngineStats& e) { return e.divergences_detected; });
  if (n != 0) {
    violations.push_back("divergence oracle fired " + std::to_string(n) +
                         " times");
  }
}

/// Correctness gate, part 1: every synced replica of `group` holds the
/// same state version and value; returns that value (or -1).
std::int64_t check_replicas(Cluster& c, const std::string& group,
                            std::size_t min_synced,
                            std::vector<std::string>& violations) {
  std::size_t synced = 0;
  std::int64_t value = -1;
  std::uint64_t version = 0;
  for (sim::NodeId n = 0; n < c.fabric.size(); ++n) {
    if (!c.fabric.is_up(n)) continue;
    rep::Engine& e = c.domain.engine(n);
    if (!e.hosts(group) || !e.is_synced(group)) continue;
    const std::int64_t v = counter_value(c, n, group);
    const std::uint64_t ver = e.state_version(group);
    if (synced == 0) {
      value = v;
      version = ver;
    } else if (v != value || ver != version) {
      violations.push_back(group + ": replica " + std::to_string(n) +
                           " holds value " + std::to_string(v) + " @v" +
                           std::to_string(ver) + ", sibling " +
                           std::to_string(value) + " @v" +
                           std::to_string(version));
    }
    ++synced;
  }
  if (synced < min_synced) {
    violations.push_back(group + ": " + std::to_string(synced) +
                         " synced replicas, expected >= " +
                         std::to_string(min_synced));
  }
  return value;
}

cdr::Bytes incr_arg() { return bench::i64_arg(1); }

// ---------------------------------------------------------------------------
// Open-loop generator with per-operation outcomes.
// ---------------------------------------------------------------------------

/// Poisson arrivals per client node, Zipf group popularity and a read
/// share, as soak::WorkloadGen draws them, but recording each operation's
/// group, kind, due time and completion: the correctness gate needs the
/// acknowledged writes per group and outage_ms needs per-group service
/// times, neither of which WorkloadGen's aggregate stats expose. Each
/// client keeps at most kClientDepth calls outstanding (bench_load's E13
/// cap, the model's only capacity limit); later arrivals wait in a client
/// queue instead of being shed, so past the knee the backlog and the
/// latency (timed from the due time) grow while nothing fails.
class OpenLoop {
 public:
  struct Op {
    std::uint32_t group = 0;
    bool write = false;
    bool shed = false;
    bool finished = false;
    bool ok = false;
    int step = 0;
    sim::Time due = 0;
    sim::Time done = 0;
  };

  explicit OpenLoop(std::uint64_t seed) : rng_(seed ^ 0x6f70656e6c6f6f70ULL) {
    double total = 0;
    for (std::size_t k = 1; k <= kGroups.size(); ++k) {
      total += 1.0 / std::pow(static_cast<double>(k), kZipfS);
      zipf_cdf_.push_back(total);
    }
    for (double& x : zipf_cdf_) x /= total;
    slots_.resize(kClients.size());
  }

  void bind(rep::Domain& d) { domain_ = &d; }

  /// Offer `rate` ops/s from now for `duration`, tagging arrivals `step`.
  void offer(double rate, sim::Time duration, int step) {
    sim::Simulation& sim = domain_->simulation();
    step_ = step;
    end_ = sim.now() + duration;
    mean_us_ = 1e6 * static_cast<double>(kClients.size()) / rate;
    for (std::size_t i = 0; i < kClients.size(); ++i) arm(i);
  }

  std::uint64_t in_flight() const noexcept { return in_flight_; }
  const std::vector<Op>& ops() const noexcept { return ops_; }

  /// Operations due before `t` and not yet answered at `t`.
  std::uint64_t in_flight_at(sim::Time t) const {
    std::uint64_t n = 0;
    for (const Op& o : ops_) {
      if (!o.shed && o.due < t && (!o.finished || o.done > t)) ++n;
    }
    return n;
  }

 private:
  void arm(std::size_t i) {
    sim::Simulation& sim = domain_->simulation();
    const auto d = std::max<sim::Time>(
        1, static_cast<sim::Time>(rng_.exponential(mean_us_)));
    if (sim.now() + d >= end_) return;
    slots_[i].arrival = sim.after(d, [this, i] { fire(i); });
  }

  void fire(std::size_t i) {
    arm(i);  // open loop: the next arrival does not wait for this one
    sim::Simulation& sim = domain_->simulation();
    const double u = rng_.uniform01();
    const auto g = static_cast<std::uint32_t>(std::min<std::size_t>(
        static_cast<std::size_t>(
            std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
            zipf_cdf_.begin()),
        kGroups.size() - 1));
    const bool write = !rng_.chance(kReadFraction);
    ops_.push_back(Op{g, write, false, false, false, step_, sim.now(), 0});
    ++in_flight_;
    slots_[i].queue.push_back(ops_.size() - 1);
    pump(i);
  }

  /// Issue queued arrivals while the client is under its pipelining cap.
  void pump(std::size_t i) {
    Slot& slot = slots_[i];
    while (slot.outstanding < kClientDepth && !slot.queue.empty()) {
      const std::size_t idx = slot.queue.front();
      slot.queue.pop_front();
      const Op& o = ops_[idx];
      rep::Client& client = domain_->client(kClients[i]);
      try {
        Span s(Layer::RepInvoke);
        const std::string& group = kGroups[o.group].name;
        rep::Invocation inv = o.write ? client.invoke(group, "incr", incr_arg())
                                      : client.invoke(group, "get", {});
        s.set_op(inv.id().hash());
        ++slot.outstanding;
        inv.then([this, i, idx](orb::Future<cdr::Bytes>::State& st) {
          --in_flight_;
          --slots_[i].outstanding;
          Op& done = ops_[idx];
          done.finished = true;
          done.ok = st.error == nullptr;
          done.done = domain_->simulation().now();
          // Refill from a fresh event, not from inside the reply path.
          domain_->simulation().after(0, [this, i] { pump(i); });
        });
      } catch (const orb::SystemException&) {
        ops_[idx].shed = true;  // TRANSIENT backpressure
        --in_flight_;
      }
    }
  }

  struct Slot {
    sim::TimerHandle arrival;
    std::deque<std::size_t> queue;  // due, not yet issued
    std::size_t outstanding = 0;
  };

  rep::Domain* domain_ = nullptr;
  util::Xoshiro256 rng_;
  std::vector<double> zipf_cdf_;
  std::vector<Slot> slots_;
  std::vector<Op> ops_;
  std::uint64_t in_flight_ = 0;
  sim::Time end_ = 0;
  double mean_us_ = 0;
  int step_ = 0;
};

/// Builds the open-loop layout and warms every group up with blocking
/// calls; returns the acknowledged warm-up writes per group.
std::vector<std::int64_t> setup_loop_layout(Cluster& c) {
  for (const GroupSpec& g : kGroups) c.create_counter(g.name, g.style, g.nodes);
  c.sim.run_for(500 * sim::kMillisecond);
  std::vector<std::int64_t> acked(kGroups.size(), 0);
  for (std::size_t g = 0; g < kGroups.size(); ++g) {
    for (sim::NodeId client : kClients) {
      c.domain.client(client).invoke_blocking(kGroups[g].name, "incr",
                                              incr_arg());
      ++acked[g];
    }
  }
  return acked;
}

/// Fills the open-loop outcome fields shared by both open-loop workloads
/// and runs the counter part of the correctness gate. `lost_window` lists
/// [from, to) intervals in which an acknowledged write may be lost with
/// the journal's unsynced tail (a power cut's documented window).
void finish_open_loop(
    Cluster& c, const OpenLoop& load, std::vector<std::int64_t> acked,
    const std::vector<std::pair<sim::Time, sim::Time>>& lost_window,
    std::size_t min_synced, RepResult& r) {
  std::vector<std::int64_t> may_lose(kGroups.size(), 0);
  std::vector<std::int64_t> failed_writes(kGroups.size(), 0);
  for (const OpenLoop::Op& o : load.ops()) {
    ++r.attempted;
    if (o.shed) {
      ++r.shed;
    } else if (!o.finished) {
      ++r.unanswered;
    } else if (!o.ok) {
      ++r.failed;
      if (o.write) ++failed_writes[o.group];
    } else {
      ++r.completed;
      if (o.write) {
        ++r.writes_completed;
        ++acked[o.group];
        for (const auto& [from, to] : lost_window) {
          if (o.done >= from && o.done < to) {
            ++may_lose[o.group];
            break;
          }
        }
      }
    }
  }
  if (load.in_flight() != 0) {
    r.violations.push_back(std::to_string(load.in_flight()) +
                           " operations still in flight after the drain");
  }
  for (std::size_t g = 0; g < kGroups.size(); ++g) {
    const std::string& name = kGroups[g].name;
    const std::int64_t v = check_replicas(c, name, min_synced, r.violations);
    // No doubled write ever; a lost one only inside a power cut's window.
    if (v > acked[g] + failed_writes[g] || v < acked[g] - may_lose[g]) {
      r.violations.push_back(name + ": counter " + std::to_string(v) +
                             " vs " + std::to_string(acked[g]) +
                             " acknowledged incr");
    } else if (v < acked[g]) {
      r.tail_lost_writes += static_cast<std::uint64_t>(acked[g] - v);
    }
  }
  check_divergences(c, r.violations);
}

}  // namespace

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// ---------------------------------------------------------------------------
// pipeline_small
// ---------------------------------------------------------------------------

RepResult run_pipeline_small(std::uint64_t seed, Variant v) {
  RepResult r;
  const std::int64_t t0 = wall_ns();
  Cluster c(kPipeNodes, seed, rep::EngineParams{}, v, /*durable=*/false);
  c.create_counter("ctr", rep::Style::Active, {0, 1, 2});
  c.sim.run_for(sim::kSecond);
  rep::GroupRef ctr = c.domain.ref(kPipeClient, "ctr");
  std::int64_t last = 0;
  for (int i = 0; i < kWarmupCalls; ++i) {
    last = ctr.call<std::int64_t>("incr", std::int64_t{1});
  }
  r.setup_s = static_cast<double>(wall_ns() - t0) * 1e-9;

  Window w(c, kPipeClient);
  w.open();
  struct InFlight {
    rep::TypedInvocation<std::int64_t> inv;
    sim::Time issued = 0;
  };
  std::deque<InFlight> inflight;
  int issued = 0;
  auto refill = [&] {
    while (issued < kPipeOps && inflight.size() < kPipeDepth) {
      try {
        Span s(Layer::RepInvoke);
        auto inv = ctr.invoke<std::int64_t>("incr", std::int64_t{1});
        s.set_op(inv.id().hash());
        inflight.push_back({std::move(inv), c.sim.now()});
        ++issued;
        ++r.attempted;
      } catch (const orb::SystemException&) {
        ++r.shed;
        break;
      }
    }
  };
  r.latency_us.reserve(kPipeOps);
  refill();
  const sim::Time deadline = c.sim.now() + 60 * sim::kSecond;
  while (!inflight.empty() && c.sim.now() < deadline) {
    if (inflight.front().inv.ready()) {
      // One client, total order: replies complete oldest first, and each
      // incr returns the counter after it, so a lost or doubled write
      // shows as a skipped or repeated value.
      const std::int64_t got = inflight.front().inv.get();
      if (got != last + 1) {
        r.violations.push_back("incr returned " + std::to_string(got) +
                               " after " + std::to_string(last));
      }
      last = got;
      r.latency_us.push_back(
          static_cast<double>(c.sim.now() - inflight.front().issued));
      inflight.pop_front();
      ++r.completed;
      ++r.writes_completed;
      refill();
    } else if (!step(c.sim)) {
      break;
    }
  }
  r.unanswered = inflight.size();
  w.close(r);
  settle(c.sim);

  if (r.unanswered != 0) {
    r.violations.push_back(std::to_string(r.unanswered) +
                           " operations still in flight after the drain");
  }
  const std::int64_t value = check_replicas(c, "ctr", 3, r.violations);
  if (value != kWarmupCalls + static_cast<std::int64_t>(r.completed)) {
    r.violations.push_back("ctr: counter " + std::to_string(value) + " vs " +
                           std::to_string(kWarmupCalls + r.completed) +
                           " acknowledged incr");
  }
  check_divergences(c, r.violations);
  return r;
}

// ---------------------------------------------------------------------------
// openloop_durable
// ---------------------------------------------------------------------------

RepResult run_openloop_durable(std::uint64_t seed, Variant v) {
  RepResult r;
  const std::int64_t t0 = wall_ns();
  OpenLoop load(seed);  // outlives the cluster: replies may land at teardown
  rep::EngineParams ep;
  ep.divergence_check_interval = kDivergenceInterval;
  Cluster c(kLoopNodes, seed, ep, v, /*durable=*/true);
  load.bind(c.domain);
  std::vector<std::int64_t> acked = setup_loop_layout(c);
  r.setup_s = static_cast<double>(wall_ns() - t0) * 1e-9;

  Window w(c, kClients.front());
  w.open();
  const sim::Time start = c.sim.now();
  std::vector<sim::Time> step_start;
  for (std::size_t s = 0; s < kStairRates.size(); ++s) {
    step_start.push_back(c.sim.now());
    load.offer(kStairRates[s], kStepTime, static_cast<int>(s));
    run_to(c.sim, c.sim.now() + kStepTime);
  }
  const sim::Time stairs_end = c.sim.now();
  step_until(c.sim, kDrainTimeout, [&] { return load.in_flight() == 0; });
  w.close(r);
  settle(c.sim);
  r.window_sim_s = static_cast<double>(stairs_end - start) / sim::kSecond;

  finish_open_loop(c, load, acked, {}, 3, r);

  r.latency_limit_us = kLatencyLimitUs;
  r.steps.resize(kStairRates.size());
  std::vector<std::vector<double>> lat(kStairRates.size());
  std::uint64_t done_in_window = 0;
  for (const OpenLoop::Op& o : load.ops()) {
    StepResult& st = r.steps[static_cast<std::size_t>(o.step)];
    ++st.attempted;
    if (o.finished && o.ok) {
      ++st.completed;
      lat[static_cast<std::size_t>(o.step)].push_back(
          static_cast<double>(o.done - o.due));
      if (static_cast<std::size_t>(o.step) < kRefSteps) {
        r.latency_us.push_back(static_cast<double>(o.done - o.due));
      }
      if (o.done <= stairs_end) ++done_in_window;
    } else {
      ++st.refused;
    }
  }
  for (std::size_t s = 0; s < kStairRates.size(); ++s) {
    StepResult& st = r.steps[s];
    st.offered_rate = kStairRates[s];
    st.in_flight_start = load.in_flight_at(step_start[s]);
    st.in_flight_end = load.in_flight_at(step_start[s] + kStepTime);
    st.p50_us = percentile(lat[s], 0.50);
    st.p99_us = percentile(lat[s], 0.99);
    // Meets the limit with its fail allowance, and the backlog at the end
    // of the step is no more than Little's law allows at the limit.
    st.meets_limit =
        st.p99_us <= kLatencyLimitUs &&
        static_cast<double>(st.refused) <=
            kFailAllowance * static_cast<double>(st.attempted) &&
        static_cast<double>(st.in_flight_end) <=
            st.offered_rate * kLatencyLimitUs * 1e-6;
    if (st.meets_limit) r.max_rate_ok = st.offered_rate;
  }
  r.counts["load.completed_in_window"] = static_cast<double>(done_in_window);
  return r;
}

// ---------------------------------------------------------------------------
// crash_recover
// ---------------------------------------------------------------------------

RepResult run_crash_recover(std::uint64_t seed, Variant v) {
  RepResult r;
  const std::int64_t t0 = wall_ns();
  OpenLoop load(seed);
  rep::EngineParams ep;
  ep.divergence_check_interval = kDivergenceInterval;
  Cluster c(kLoopNodes, seed, ep, v, /*durable=*/true);
  load.bind(c.domain);
  std::vector<std::int64_t> acked = setup_loop_layout(c);
  r.setup_s = static_cast<double>(wall_ns() - t0) * 1e-9;

  // Faults: (time, groups hit). The victims are fixed by the layout: an
  // active replica of g0 that is not g2's primary, then g2's primary.
  struct Fault {
    sim::Time at;
    std::vector<std::uint32_t> groups;
  };
  std::vector<Fault> faults;
  auto groups_on = [&](sim::NodeId n) {
    std::vector<std::uint32_t> gs;
    for (std::uint32_t g = 0; g < kGroups.size(); ++g) {
      if (c.domain.engine(n).hosts(kGroups[g].name)) gs.push_back(g);
    }
    return gs;
  };
  auto primary_of = [&](const std::string& g) {
    for (sim::NodeId n : kServers) {
      if (c.domain.engine(n).hosts(g) && c.domain.engine(n).is_primary(g)) {
        return n;
      }
    }
    return kServers.front();
  };
  auto all_groups = [] {
    std::vector<std::uint32_t> gs;
    for (std::uint32_t g = 0; g < kGroups.size(); ++g) gs.push_back(g);
    return gs;
  };

  Window w(c, kClients.front());
  w.open();
  const sim::Time start = c.sim.now();
  load.offer(kCrashRate, kCrashRunTime, 0);

  // 1. Process crashes: an active replica, then the warm-passive primary.
  // The RM restores MinimumNumberReplicas on a spare (state transfer).
  const sim::NodeId wp_primary = primary_of("g2");
  sim::NodeId active_victim = kServers.front();
  for (sim::NodeId n : kGroups[0].nodes) {
    if (n != wp_primary) {
      active_victim = n;
      break;
    }
  }
  run_to(c.sim, start + kCrashActiveAt);
  faults.push_back({c.sim.now(), groups_on(active_victim)});
  c.fabric.crash(active_victim);
  run_to(c.sim, start + kCrashPrimaryAt);
  faults.push_back({c.sim.now(), groups_on(wp_primary)});
  c.fabric.crash(wp_primary);
  run_to(c.sim, start + kRestartAt);
  c.domain.restart(active_victim);
  c.domain.restart(wp_primary);
  // Put the layout back (replicas on the server nodes only) so the power
  // cuts below take every replica down: re-add the restarted nodes, then
  // retire the spares the RM placed on client nodes.
  run_to(c.sim, start + kRestoreAt);
  for (const GroupSpec& g : kGroups) {
    for (sim::NodeId n : g.nodes) {
      if (!c.domain.engine(n).hosts(g.name)) c.rm.add_member(g.name, n);
    }
  }
  run_to(c.sim, start + kRestoreAt + 100 * sim::kMillisecond);
  for (const GroupSpec& g : kGroups) {
    for (sim::NodeId n : kClients) {
      if (c.domain.engine(n).hosts(g.name)) c.rm.remove_member(g.name, n);
    }
  }

  // 2-4. Power cuts of every replica-hosting node, each followed by a cold
  // restart from the journals. recover_domain() would also cold-restart
  // the live client nodes (dropping their in-flight calls), so the
  // benchmark runs recover_node over the cut nodes, as the soak domkill
  // motif does.
  std::vector<std::pair<sim::Time, sim::Time>> lost_window;
  const sim::Time sync = dur::DurParams{}.sync_interval;
  for (int k = 0; k < kCuts; ++k) {
    run_to(c.sim, start + kFirstCutAt + static_cast<sim::Time>(k) * kCutEvery);
    const sim::Time cut = c.sim.now();
    faults.push_back({cut, all_groups()});
    lost_window.emplace_back(cut - std::min(cut, sync),
                             cut + 2 * sim::kMillisecond);
    for (sim::NodeId n : kServers) {
      c.fabric.crash(n);
      c.plane->crash(n, /*torn=*/false);
    }
    run_to(c.sim, cut + kCutDown);
    w.dur().bank(kServers);
    const std::int64_t cpu0 = cpu_ns();
    const std::int64_t wall0 = wall_ns();
    {
      Span s(Layer::FtRecover);
      for (sim::NodeId n : kServers) {
        const dur::RecoveryStats rs = c.rm.recover_node(n);
        r.counts["dur.records_scanned"] += static_cast<double>(rs.records_scanned);
        r.counts["dur.records_replayed"] +=
            static_cast<double>(rs.records_replayed);
        r.counts["dur.checkpoints_loaded"] +=
            static_cast<double>(rs.checkpoints_loaded);
      }
    }
    r.recover_span_ns.push_back(static_cast<double>(wall_ns() - wall0));
    w.dur().rebase(kServers);
    const sim::Time restarted = c.sim.now();
    step_until(c.sim, 2 * sim::kSecond, [&] { return c.fabric.converged(); });
    r.recover_cpu_ms.push_back(static_cast<double>(cpu_ns() - cpu0) * 1e-6);
    r.reconverge_sim_ms.push_back(
        static_cast<double>(c.sim.now() - restarted) / sim::kMillisecond);
  }
  run_to(c.sim, start + kCrashRunTime);
  const sim::Time run_end = c.sim.now();
  step_until(c.sim, kDrainTimeout, [&] { return load.in_flight() == 0; });
  w.close(r);
  settle(c.sim);
  r.window_sim_s = static_cast<double>(run_end - start) / sim::kSecond;

  finish_open_loop(c, load, acked, lost_window, 2, r);
  std::uint64_t done_in_window = 0;
  for (const OpenLoop::Op& o : load.ops()) {
    if (o.finished && o.ok) {
      r.latency_us.push_back(static_cast<double>(o.done - o.due));
      if (o.done <= run_end) ++done_in_window;
    }
  }
  r.counts["load.completed_in_window"] = static_cast<double>(done_in_window);

  // outage_ms: per fault and hit group, the fault to the first operation
  // due at or after it that was served; the worst over the run.
  for (const Fault& f : faults) {
    for (std::uint32_t g : f.groups) {
      sim::Time first = c.sim.now();
      for (const OpenLoop::Op& o : load.ops()) {
        if (o.group == g && o.finished && o.ok && o.due >= f.at) {
          first = std::min(first, o.done);
        }
      }
      r.outage_ms = std::max(
          r.outage_ms, static_cast<double>(first - f.at) / sim::kMillisecond);
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// PlainOrb baseline
// ---------------------------------------------------------------------------

PlainResult run_plain_orb(std::uint64_t seed) {
  constexpr int kOps = 4000;
  sim::Simulation sim(seed);
  sim::Network net(sim, 2);
  orb::PlainOrb client(sim, net, 0);
  orb::PlainOrb server(sim, net, 1);
  client.attach();
  server.attach();
  server.adapter().activate("ctr", std::make_shared<app::Counter>());
  for (int i = 0; i < kWarmupCalls; ++i) {
    client.invoke_blocking(1, "ctr", "incr", incr_arg());
  }
  std::vector<double> lat;
  lat.reserve(kOps);
  const std::uint64_t allocs0 = bench::alloc_count();
  const std::int64_t cpu0 = cpu_ns();
  for (int i = 0; i < kOps; ++i) {
    const sim::Time t = sim.now();
    client.invoke_blocking(1, "ctr", "incr", incr_arg());
    lat.push_back(static_cast<double>(sim.now() - t));
  }
  PlainResult p;
  p.cpu_ns_per_op = static_cast<double>(cpu_ns() - cpu0) / kOps;
  p.allocs_per_op =
      static_cast<double>(bench::alloc_count() - allocs0) / kOps;
  p.lat_p50_us = percentile(lat, 0.5);
  return p;
}

}  // namespace perfbench
