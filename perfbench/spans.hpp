// Benchmark-side span tracing: host-clock spans recorded around the calls
// the benchmark makes into each layer's public API (the stack itself carries
// no host-clock probes). One process, one thread, so the log is a plain
// singleton with a span stack.
//
// Each span has a layer name, a start and an end (steady clock, ns since
// the log was enabled), the span open when it began (its parent) and an op
// id where the call site knows one. Closing a span folds its inclusive and
// self time (duration minus what its children covered) and its inclusive
// and self allocation counts into per-layer totals; the first `capacity`
// spans are also kept verbatim and written out by write_csv() at exit.
// Disabled, a Span costs one branch.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  SimStep,         // Simulation::step(): one simulated event
  TotemRecv,       // totem::Node::on_receive via the network handler
  RepInvoke,       // Client::invoke / GroupRef::invoke
  AppState,        // Replica get_state/set_state/get_update/apply_update
  FtRecover,       // ReplicationManager::recover_node over the cut nodes
  kCount,
};

const char* layer_name(Layer l);

struct LayerTotals {
  std::uint64_t calls = 0;
  std::int64_t incl_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t incl_allocs = 0;
  std::uint64_t self_allocs = 0;
};

class SpanLog {
 public:
  static SpanLog& get();

  bool on() const noexcept { return on_; }
  /// Start recording; reserves the verbatim store so recording itself
  /// allocates nothing.
  void enable(std::size_t capacity);
  void disable() noexcept { on_ = false; }

  void open(Layer layer, std::uint64_t op);
  void close(std::uint64_t op);

  const LayerTotals& totals(Layer l) const {
    return totals_[static_cast<std::size_t>(l)];
  }
  void reset_totals() { totals_ = {}; }

  std::size_t kept() const noexcept { return recs_.size(); }
  std::uint64_t dropped() const noexcept { return dropped_; }
  /// One line per kept span: id,parent,layer,op,start_ns,end_ns.
  bool write_csv(const std::string& path) const;

 private:
  struct Frame {
    Layer layer;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t op;
    std::int64_t start;
    std::uint64_t allocs0;
    std::int64_t child_ns;
    std::uint64_t child_allocs;
  };
  struct Rec {
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t op;
    std::int64_t start;
    std::int64_t end;
    Layer layer;
  };

  bool on_ = false;
  std::int64_t epoch_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
  std::vector<Frame> stack_;
  std::vector<Rec> recs_;
  std::array<LayerTotals, static_cast<std::size_t>(Layer::kCount)> totals_{};
};

/// RAII span; `set_op` attaches an op id learnt during the call.
class Span {
 public:
  explicit Span(Layer layer, std::uint64_t op = 0)
      : on_(SpanLog::get().on()), op_(op) {
    if (on_) SpanLog::get().open(layer, op);
  }
  ~Span() {
    if (on_) SpanLog::get().close(op_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_op(std::uint64_t op) noexcept { op_ = op; }

 private:
  bool on_;
  std::uint64_t op_;
};

/// Host clocks: steady (wall) ns and process CPU ns.
std::int64_t wall_ns();
std::int64_t cpu_ns();

}  // namespace perfbench
