// Per-node durability manager: the write-ahead journal, checkpoint store
// and meta file behind one engine, plus the node-local half of recovery.
//
// Steady state (off the delivery hot path, per "The Low Latency Fault
// Tolerance System"): the engine appends each totally-ordered delivery
// addressed to a hosted group into the journal — an in-memory buffer
// append — and a periodic sync timer extends the durable prefix (group
// commit) and atomically rewrites the meta file (ring-epoch and client
// op-id high waters). A crash therefore loses at most one sync interval
// of tail: the documented durability window. Checkpoint cuts are driven
// by the engine at group-consistent total-order boundaries; the manager
// persists them, retires old versions, and compacts the journal below the
// minimum position any retained checkpoint could still replay from.
//
// Recovery (`recover()`) is the node-local half of disaster recovery: it
// loads the newest valid checkpoint per group (falling back to the
// previous on CRC failure), scans the journal's intact prefix, gates the
// records each group still needs (index >= that group's checkpoint
// position), and derives the identifier floors — ring epoch and client
// op-id — that keep every identifier unique across the restart. The
// orchestration half (rebuilding engines and replaying) lives in
// ft/recovery.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dur/journal.hpp"
#include "sim/simulation.hpp"

namespace eternal::obs {
class Counter;
}

namespace eternal::dur {

struct DurParams {
  /// Group-commit interval: how often the journal tail and meta file are
  /// made durable. 0 = sync on every append (slow, zero-loss).
  sim::Time sync_interval = 1 * sim::kMillisecond;
  /// Cut a group checkpoint every this many state versions (0 = never).
  std::uint64_t checkpoint_interval = 64;
  /// E14 cost model (the simulator has no wall clock): simulated cost of
  /// replaying one journal record / loading one KiB of checkpoint.
  std::uint64_t replay_us_per_record = 25;
  std::uint64_t load_us_per_kib = 4;
};

/// Identifier high waters the engine reports and recovery restores.
struct MetaSnapshot {
  std::uint64_t max_epoch = 0;
  std::uint64_t client_next_op = 0;
};

struct RecoveredGroup {
  std::string name;
  std::uint8_t style = 0;
  bool has_checkpoint = false;
  std::uint64_t state_version = 0;
  std::uint64_t digest = 0;    // digest the recovered state must match
  std::uint64_t position = 0;  // first journal index to replay
  Bytes blob;                  // engine checkpoint state
};

struct RecoveryStats {
  std::size_t checkpoints_loaded = 0;
  std::size_t checkpoint_fallbacks = 0;
  std::size_t records_scanned = 0;
  std::size_t records_replayed = 0;  // after per-group gating
  std::size_t tail_lost_bytes = 0;
  bool journal_clean = true;
  std::uint64_t simulated_cost_us = 0;
};

/// Everything the orchestrator needs to rebuild one node.
struct RecoveredNode {
  std::vector<RecoveredGroup> groups;
  std::vector<JournalRecord> records;  // gated, in journal order
  std::uint64_t epoch_floor = 0;       // seed into totem before restart
  std::uint64_t client_op_floor = 0;   // next client op_seq floor
  RecoveryStats stats;
};

class NodeDurability {
 public:
  NodeDurability(sim::Simulation& sim, sim::Disk& disk, sim::NodeId node,
                 DurParams params);
  ~NodeDurability();

  NodeDurability(const NodeDurability&) = delete;
  NodeDurability& operator=(const NodeDurability&) = delete;

  const DurParams& params() const noexcept { return params_; }
  std::uint64_t checkpoint_interval() const noexcept {
    return params_.checkpoint_interval;
  }
  sim::NodeId node() const noexcept { return node_; }
  sim::Disk& disk() noexcept { return disk_; }
  Journal& journal() noexcept { return journal_; }

  /// The engine reports its identifier high waters through this; pulled
  /// at every sync tick and checkpoint cut.
  void set_meta_provider(std::function<MetaSnapshot()> fn) {
    meta_provider_ = std::move(fn);
  }

  /// Arm the periodic group-commit timer.
  void start();
  /// Append one delivery (engine hook; buffered until the next sync).
  void append(JournalRecord rec);
  /// Persist one group checkpoint at the current journal position, retire
  /// old versions, compact the journal, and sync everything. `blob`, when
  /// set, writes the checkpoint blob in place into the record's frame.
  void cut_checkpoint(CheckpointRecord rec, const BlobWriter& blob = nullptr);
  /// Force the tail + meta durable now (tests, benches, orderly stop).
  void sync_now();

  /// Power-cut this node's durable state view: cancel the timer and drop
  /// the unsynced tail (torn = keep a partial mid-record prefix).
  void on_crash(bool torn);
  /// Cancel the timer without touching the disk (orderly teardown).
  void close();

  /// Node-local recovery: load checkpoints, scan + gate the journal,
  /// derive identifier floors. Leaves the journal open for appends at the
  /// next index and re-arms the sync timer.
  RecoveredNode recover();

 private:
  void write_meta();
  void sync_tick();

  sim::Simulation& sim_;
  sim::Disk& disk_;
  sim::NodeId node_;
  DurParams params_;
  Journal journal_;
  CheckpointStore checkpoints_;
  std::function<MetaSnapshot()> meta_provider_;
  sim::TimerHandle sync_timer_;
  bool closed_ = false;

  obs::Counter& appends_;
  obs::Counter& append_bytes_;
  obs::Counter& append_failures_;
  obs::Counter& syncs_;
  obs::Counter& checkpoints_cut_;
  obs::Counter& compacted_bytes_;
  obs::Counter& recoveries_;
  obs::Counter& replayed_;
  obs::Counter& fallbacks_;
  obs::Counter& tail_lost_;
};

}  // namespace eternal::dur
