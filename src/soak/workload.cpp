#include "soak/workload.hpp"

#include <algorithm>
#include <cmath>

#include "cdr/cdr.hpp"
#include "orb/exceptions.hpp"

namespace eternal::soak {

namespace {

// Distinct PRNG stream per concern: the workload's draws must not perturb
// the simulation's protocol stream (jitter, loss), and vice versa.
constexpr std::uint64_t kWorkloadSalt = 0x776f726b6c6f6164ULL;  // "workload"

cdr::Bytes incr_arg() {
  return cdr::make_bytes([](cdr::Writer& w) { w.put_longlong(1); });
}

}  // namespace

WorkloadGen::WorkloadGen(rep::Domain& domain, WorkloadParams params,
                         std::vector<std::string> groups, std::uint64_t seed)
    : domain_(domain),
      sim_(domain.simulation()),
      params_(params),
      groups_(std::move(groups)),
      rng_(seed ^ kWorkloadSalt) {
  if (params_.clients == 0) params_.clients = 1;
  params_.clients = std::min(params_.clients, domain_.size());
  if (params_.offered_rate <= 0) params_.offered_rate = 1.0;
  // Per-client inter-arrival mean so the *total* offered rate is as asked.
  mean_interarrival_us_ = 1e6 * static_cast<double>(params_.clients) /
                          params_.offered_rate;

  // Zipf CDF over the groups: weight of the k-th most popular is 1/k^s.
  zipf_cdf_.reserve(groups_.size());
  double total = 0;
  for (std::size_t k = 1; k <= groups_.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k), params_.zipf_s);
    zipf_cdf_.push_back(total);
  }
  for (double& c : zipf_cdf_) c /= total;

  slots_.resize(params_.clients);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].node = static_cast<sim::NodeId>(i);
  }
}

WorkloadGen::~WorkloadGen() { stop(); }

std::vector<sim::NodeId> WorkloadGen::client_nodes() const {
  std::vector<sim::NodeId> nodes;
  nodes.reserve(slots_.size());
  for (const Slot& s : slots_) nodes.push_back(s.node);
  return nodes;
}

void WorkloadGen::start() {
  running_ = true;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    rep::Client& c = domain_.client(slots_[i].node);
    c.set_max_outstanding(params_.max_outstanding);
    c.set_retry_interval(params_.retry_interval);
    arm(i);
    if (params_.churn_interval > 0) {
      slots_[i].churn = sim_.after(exp_delay(static_cast<double>(
                                       params_.churn_interval)),
                                   [this, i] { churn_tick(i); });
    }
  }
}

void WorkloadGen::stop() {
  running_ = false;
  for (Slot& s : slots_) {
    s.arrival.cancel();
    s.churn.cancel();
  }
}

sim::Time WorkloadGen::exp_delay(double mean_us) {
  const double d = rng_.exponential(mean_us);
  return std::max<sim::Time>(1, static_cast<sim::Time>(d));
}

std::size_t WorkloadGen::pick_group() {
  const double u = rng_.uniform01();
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  const auto idx = static_cast<std::size_t>(it - zipf_cdf_.begin());
  return std::min(idx, groups_.size() - 1);
}

void WorkloadGen::arm(std::size_t i) {
  if (!running_ || !slots_[i].active) return;
  slots_[i].arrival =
      sim_.after(exp_delay(mean_interarrival_us_), [this, i] { fire(i); });
}

void WorkloadGen::fire(std::size_t i) {
  // Open loop: the next arrival is scheduled before — and regardless of —
  // this operation's fate.
  arm(i);
  // The nested draw must short-circuit when the mix is disabled: consuming
  // an extra rng_ draw per arrival would shift every existing seed's
  // schedule and invalidate committed campaign baselines.
  const bool nested = params_.nested_fraction > 0 &&
                      !params_.nested_group.empty() &&
                      params_.nested_accounts.size() >= 2 &&
                      rng_.chance(params_.nested_fraction);
  ++stats_.issued;
  // The client stub must be re-fetched per arrival: a restart after a crash
  // would have replaced it (chaos never crashes client nodes, but the
  // lookup is cheap and makes the generator safe by construction).
  rep::Client& c = domain_.client(slots_[i].node);
  try {
    rep::Invocation inv = [&] {
      if (nested) {
        ++stats_.nested;
        // Alternate the direction so neither account drains monotonically;
        // an occasional NO_FUNDS still surfaces as a carried exception,
        // which is part of the point (exceptions through nested replay).
        const bool forward = rng_.chance(0.5);
        return c.invoke(params_.nested_group, "transfer",
                        cdr::make_bytes([&](cdr::Writer& w) {
                          w.put_string(
                              params_.nested_accounts[forward ? 0 : 1]);
                          w.put_string(
                              params_.nested_accounts[forward ? 1 : 0]);
                          w.put_longlong(1);
                        }));
      }
      const std::string& group = groups_[pick_group()];
      const bool read = rng_.chance(params_.read_fraction);
      return read ? c.invoke(group, "get", {})
                  : c.invoke(group, "incr", incr_arg());
    }();
    ++in_flight_;
    const sim::Time sent = sim_.now();
    inv.then([this, sent](orb::Future<cdr::Bytes>::State& st) {
      --in_flight_;
      if (st.error) {
        ++stats_.failed;
      } else {
        ++stats_.completed;
        stats_.latency_us.add(static_cast<double>(sim_.now() - sent));
      }
    });
  } catch (const orb::SystemException&) {
    // TRANSIENT backpressure: the send queue or pipelining cap is full.
    // Under open-loop overload this is the expected shedding signal.
    ++stats_.shed;
  }
}

void WorkloadGen::churn_tick(std::size_t i) {
  if (!running_) return;
  Slot& s = slots_[i];
  s.active = !s.active;
  if (s.active) {
    ++stats_.churn_joins;
    arm(i);
  } else {
    ++stats_.churn_leaves;
    s.arrival.cancel();
  }
  s.churn = sim_.after(exp_delay(static_cast<double>(params_.churn_interval)),
                       [this, i] { churn_tick(i); });
}

}  // namespace eternal::soak
