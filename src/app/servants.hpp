// Reusable demo servants.
//
// These are the replicated application objects used throughout the tests,
// examples and benches: a counter, an echo object (latency benches), a bank
// account + teller (nested operations across groups), the paper's
// automobile inventory (partition + fulfillment), a key-value store with
// incremental state updates (large-state transfer benches), and a probe
// that exposes the sanitized time/randomness services.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "rep/replica.hpp"

namespace eternal::app {

/// Replicated counter: incr(delta) -> value, set(value), get() -> value.
class Counter : public rep::Replica {
 public:
  Counter();
  std::int64_t value() const noexcept { return value_; }

  void get_state(cdr::Writer& out) const override;
  void set_state(cdr::Decoder& in) override;

 private:
  std::int64_t value_ = 0;
  std::uint64_t ops_ = 0;
};

/// Echo object: echo(bytes) -> bytes, used by the latency benches.
class Echo : public rep::Replica {
 public:
  Echo();
  void get_state(cdr::Writer& out) const override;
  void set_state(cdr::Decoder& in) override;

 private:
  std::uint64_t calls_ = 0;
};

/// Bank account: deposit(amount), withdraw(amount) (NO_FUNDS exception on
/// overdraft), balance() -> amount.
class Account : public rep::Replica {
 public:
  Account();
  std::int64_t balance() const noexcept { return balance_; }

  void get_state(cdr::Writer& out) const override;
  void set_state(cdr::Decoder& in) override;

 private:
  std::int64_t balance_ = 0;
};

/// Teller: transfer(from_group, to_group, amount) — a *nested* operation
/// that withdraws from one replicated account group and deposits into
/// another, exercising the mixed-replication interaction machinery.
class Teller : public rep::Replica {
 public:
  Teller();
  std::uint64_t transfers() const noexcept { return transfers_; }

  void get_state(cdr::Writer& out) const override;
  void set_state(cdr::Decoder& in) override;

 private:
  std::uint64_t transfers_ = 0;
};

/// The paper's automobile inventory (Section 8): showrooms sell, the
/// factory manufactures; a disconnected showroom keeps selling and its
/// sales are replayed as fulfillment operations after remerge, generating
/// back orders and rush manufacturing orders when oversold.
class Inventory : public rep::Replica {
 public:
  Inventory();

  std::int64_t stock() const noexcept { return stock_; }
  std::int64_t shipped() const noexcept { return shipped_; }
  std::int64_t back_orders() const noexcept { return back_orders_; }
  std::int64_t rush_orders() const noexcept { return rush_orders_; }

  void get_state(cdr::Writer& out) const override;
  void set_state(cdr::Decoder& in) override;

 private:
  std::int64_t stock_ = 0;
  std::int64_t shipped_ = 0;
  std::int64_t back_orders_ = 0;
  std::int64_t rush_orders_ = 0;
};

/// Key-value store with incremental postimages: put/del ship only the
/// touched key, not the whole map. fill(count, value_size) builds large
/// state for the state-transfer benches.
class KvStore : public rep::Replica {
 public:
  KvStore();

  std::size_t size() const noexcept { return data_.size(); }
  const std::map<std::string, std::string>& data() const { return data_; }

  void get_state(cdr::Writer& out) const override;
  void set_state(cdr::Decoder& in) override;
  void get_update(const std::string& op, cdr::Writer& out) const override;
  void apply_update(const std::string& op, cdr::Decoder& in) override;

 private:
  std::map<std::string, std::string> data_;
  // Postimage of the last mutation: (key, has_value, value).
  std::string last_key_;
  std::string last_value_;
  bool last_was_erase_ = false;
};

/// Probe for the sanitized non-determinism services: sample() returns
/// (logical_time, deterministic_random) — identical at every replica.
class NondetProbe : public rep::Replica {
 public:
  NondetProbe();
  void get_state(cdr::Writer& out) const override;
  void set_state(cdr::Decoder& in) override;

 private:
  std::uint64_t samples_ = 0;
  std::uint64_t last_random_ = 0;
};

}  // namespace eternal::app
