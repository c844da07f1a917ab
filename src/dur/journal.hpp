// Write-ahead operation journal + checkpoint store over one sim::Disk.
//
// The journal is a single append-only file ("journal") of framed
// JournalRecords. Appends buffer in the disk's unsynced tail; `sync`
// extends the durable prefix (group commit — the engine's sync timer calls
// it periodically, so a crash loses at most one sync interval of tail:
// the documented durability window). `scan` walks the file frame by frame
// and stops cleanly at the first truncated or CRC-corrupt frame, returning
// the intact prefix plus forensic stats. `compact` drops every record
// below a threshold *absolute index* — record indices are stored inside
// each record, so positions referenced by checkpoints stay valid across
// compaction.
//
// The journal keeps one small in-memory entry per retained frame (its
// index, byte offset and group), built by the single scan in `open` and
// extended by `append`. Compaction is then one prefix drop at a known
// offset: the retained frames are already on disk byte for byte, so
// nothing is read, decoded, re-encoded or re-checksummed, and a cut costs
// O(retained tail), never O(tape). The entries also tell the durability
// manager which groups still have records on the tape.
//
// The checkpoint store keeps the two newest checkpoints per group as
// atomic files ("ckpt-<group>-<version padded>"): the newest is what
// recovery loads, the previous is the fallback when the newest fails its
// CRC — the "missing newest checkpoint" corruption class. It remembers
// the version and journal position of each retained file (from `save`,
// or read once at construction for files an earlier life left behind), so
// compaction never reads a checkpoint back.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dur/record.hpp"
#include "sim/disk.hpp"

namespace eternal::dur {

struct ScanResult {
  std::vector<JournalRecord> records;  // intact prefix, file order
  std::size_t bytes_scanned = 0;       // bytes covered by intact frames
  std::size_t tail_lost_bytes = 0;     // bytes past the last intact frame
  bool clean = true;                   // false = scan stopped mid-file
};

class Journal {
 public:
  explicit Journal(sim::Disk& disk, std::string file = "journal");

  /// Scan the on-disk file once: drop a corrupt tail, rebuild the frame
  /// entries and re-derive the append index (after recovery or
  /// construction over an existing file). Between two opens the file is
  /// written only through this journal.
  void open();

  /// Frame and append one record; assigns the next absolute index into
  /// `rec.index`. Returns false (journal broken) when the disk is full.
  bool append(JournalRecord& rec);
  void sync();

  ScanResult scan() const;
  /// Drop all records with index < keep_from in one step: the file keeps
  /// the retained frames' bytes unchanged and becomes durable as a unit.
  /// Returns bytes reclaimed.
  std::size_t compact(std::uint64_t keep_from);

  /// Calls `fn(group, first)` for every group with a record still on the
  /// tape; `first` is the absolute index of its oldest retained record.
  template <class Fn>
  void for_each_group(Fn&& fn) const {
    for (const GroupTape& g : groups_) {
      if (g.retained > 0) fn(g.name, g.first);
    }
  }

  std::uint64_t next_index() const noexcept { return next_index_; }
  bool broken() const noexcept { return broken_; }
  const std::string& file() const noexcept { return file_; }

 private:
  /// One retained frame.
  struct Entry {
    std::uint64_t index = 0;
    std::size_t offset = 0;   // frame start within the file
    std::uint32_t group = 0;  // into groups_
  };
  /// One group that has appeared on the tape since open().
  struct GroupTape {
    std::string name;
    std::uint64_t first = 0;    // oldest retained record's index
    std::size_t retained = 0;   // records of this group still on the tape
  };

  void track(std::uint64_t index, std::size_t offset,
             const std::string& group);

  sim::Disk& disk_;
  std::string file_;
  std::uint64_t next_index_ = 0;
  bool broken_ = false;  // disk-full hit: stop appending, keep serving
  std::vector<Entry> entries_;     // retained frames, file order
  std::vector<GroupTape> groups_;  // few per node: searched linearly
  std::size_t end_ = 0;            // file size as this journal wrote it
  cdr::Arena arena_;               // frames appended records in place
};

class CheckpointStore {
 public:
  /// Learns the version and position of every checkpoint already on disk
  /// (one read per file); afterwards only save() changes what it knows.
  explicit CheckpointStore(sim::Disk& disk);

  /// Persist atomically and retire all but the two newest versions for
  /// the group; `blob`, when set, writes the blob in place (see
  /// encode_checkpoint_record_into). Returns false when the disk is full.
  bool save(const CheckpointRecord& rec, const BlobWriter& blob = nullptr);

  /// Newest checkpoint for `group` that passes its CRC; falls back to the
  /// previous one (bumping `*fallbacks`) when the newest is corrupt.
  std::optional<CheckpointRecord> load_newest(const std::string& group,
                                              std::size_t* fallbacks) const;

  /// Groups that have at least one stored checkpoint.
  std::vector<std::string> groups() const;

  /// Per group, the journal position of the *older* retained checkpoint
  /// (0 when only one exists, or when its file was unreadable at load) —
  /// the journal may be compacted to the minimum of these without losing
  /// any fallback replay. Answered from memory: no file is read.
  std::map<std::string, std::uint64_t> safe_positions() const;

 private:
  /// One retained checkpoint file.
  struct Kept {
    std::uint64_t version = 0;
    std::uint64_t position = 0;
  };

  static std::string file_name(const std::string& group,
                               std::uint64_t version);
  std::optional<CheckpointRecord> load_file(const std::string& name) const;
  /// Record a retained file (sorted by version); returns the group's list.
  std::vector<Kept>& keep(const std::string& group, Kept k);

  sim::Disk& disk_;
  std::map<std::string, std::vector<Kept>> kept_;  // oldest first, <= 2
};

}  // namespace eternal::dur
