#include "dur/journal.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace eternal::dur {

namespace {

/// Checkpoint file names are "ckpt-<group>-<20-digit version>".
constexpr std::size_t kCkptPrefix = 5;   // "ckpt-"
constexpr std::size_t kCkptSuffix = 21;  // "-" + 20 version digits

/// The group of a checkpoint file name, empty when it is not one.
std::string ckpt_group(const std::string& name) {
  if (name.size() <= kCkptPrefix + kCkptSuffix) return {};
  return name.substr(kCkptPrefix, name.size() - kCkptPrefix - kCkptSuffix);
}

/// Walk the intact frame prefix of `data`, handing each decoded record and
/// its frame offset to `fn`. Returns the bytes the intact frames cover.
template <class Fn>
std::size_t walk_frames(const sim::DiskBytes& data, Fn&& fn) {
  std::size_t at = 0;
  while (at < data.size()) {
    std::size_t off = 0, len = 0;
    if (!frame_parse(data, at, off, len)) break;
    cdr::Decoder dec(std::span<const std::uint8_t>(data.data() + off, len));
    JournalRecord rec;
    try {
      rec = decode_journal_record(dec);
    } catch (const cdr::MarshalError&) {
      break;  // frame intact but payload garbage: stop at the prefix
    }
    fn(std::move(rec), at);
    at = off + len;
  }
  return at;
}

}  // namespace

Journal::Journal(sim::Disk& disk, std::string file)
    : disk_(disk), file_(std::move(file)) {
  open();
}

void Journal::open() {
  entries_.clear();
  groups_.clear();
  end_ = 0;
  if (const sim::DiskBytes* data = disk_.read(file_)) {
    end_ = walk_frames(*data, [this](JournalRecord&& r, std::size_t at) {
      track(r.index, at, r.group);
    });
    if (end_ < data->size()) {
      // Drop the corrupt tail before appending the new life's records —
      // otherwise the next scan would stop at the old garbage forever.
      disk_.truncate(file_, end_);
      disk_.sync(file_);
    }
  }
  next_index_ = entries_.empty() ? 0 : entries_.back().index + 1;
  broken_ = false;
}

void Journal::track(std::uint64_t index, std::size_t offset,
                    const std::string& group) {
  auto g = std::find_if(groups_.begin(), groups_.end(),
                        [&group](const auto& t) { return t.name == group; });
  if (g == groups_.end()) {
    groups_.push_back({group, index, 0});
    g = groups_.end() - 1;
  }
  if (g->retained++ == 0) g->first = index;
  entries_.push_back(
      {index, offset, static_cast<std::uint32_t>(g - groups_.begin())});
}

bool Journal::append(JournalRecord& rec) {
  if (broken_) return false;
  rec.index = next_index_;
  enc_.clear();
  frame_begin(enc_);
  encode_journal_record_into(enc_, rec);
  frame_end(enc_);
  if (!disk_.append(file_, enc_.data())) {
    broken_ = true;  // disk full: the journal stops, the engine keeps going
    return false;
  }
  track(rec.index, end_, rec.group);
  end_ += enc_.size();
  ++next_index_;
  return true;
}

void Journal::sync() { disk_.sync(file_); }

ScanResult Journal::scan() const {
  ScanResult out;
  const sim::DiskBytes* data = disk_.read(file_);
  if (!data) return out;
  out.bytes_scanned =
      walk_frames(*data, [&out](JournalRecord&& r, std::size_t) {
        out.records.push_back(std::move(r));
      });
  out.tail_lost_bytes = data->size() - out.bytes_scanned;
  out.clean = out.tail_lost_bytes == 0;
  return out;
}

std::size_t Journal::compact(std::uint64_t keep_from) {
  const auto cut = std::partition_point(
      entries_.begin(), entries_.end(),
      [keep_from](const Entry& e) { return e.index < keep_from; });
  if (cut == entries_.begin()) return 0;
  const std::size_t drop = cut == entries_.end() ? end_ : cut->offset;
  if (!disk_.drop_prefix(file_, drop)) return 0;
  entries_.erase(entries_.begin(), cut);
  end_ -= drop;
  for (GroupTape& g : groups_) g.retained = 0;
  for (Entry& e : entries_) {
    e.offset -= drop;
    GroupTape& g = groups_[e.group];
    if (g.retained++ == 0) g.first = e.index;
  }
  return drop;
}

CheckpointStore::CheckpointStore(sim::Disk& disk) : disk_(disk) {
  for (const std::string& name : disk_.list("ckpt-")) {
    const std::string group = ckpt_group(name);
    if (group.empty()) continue;
    Kept k;
    k.version = std::strtoull(name.c_str() + name.size() - 20, nullptr, 10);
    if (const auto rec = load_file(name)) k.position = rec->position;
    keep(group, k);
  }
}

std::string CheckpointStore::file_name(const std::string& group,
                                       std::uint64_t version) {
  char tail[40];
  std::snprintf(tail, sizeof tail, "-%020llu",
                static_cast<unsigned long long>(version));
  return "ckpt-" + group + tail;
}

bool CheckpointStore::save(const CheckpointRecord& rec) {
  // Framed in place, then moved onto the disk: the blob is copied once.
  cdr::Encoder enc;
  enc.reserve(64 + rec.group.size() + rec.blob.size());
  frame_begin(enc);
  encode_checkpoint_record_into(enc, rec);
  frame_end(enc);
  if (!disk_.write_file(file_name(rec.group, rec.state_version),
                        enc.take())) {
    return false;
  }
  // Retire all but the two newest versions.
  std::vector<Kept>& kept = keep(rec.group, {rec.state_version, rec.position});
  while (kept.size() > 2) {
    disk_.remove(file_name(rec.group, kept.front().version));
    kept.erase(kept.begin());
  }
  return true;
}

std::vector<CheckpointStore::Kept>& CheckpointStore::keep(
    const std::string& group, Kept k) {
  std::vector<Kept>& kept = kept_[group];
  const auto at = std::lower_bound(
      kept.begin(), kept.end(), k.version,
      [](const Kept& a, std::uint64_t v) { return a.version < v; });
  if (at != kept.end() && at->version == k.version) {
    *at = k;  // same file rewritten
  } else {
    kept.insert(at, k);
  }
  return kept;
}

std::optional<CheckpointRecord> CheckpointStore::load_file(
    const std::string& name) const {
  const sim::DiskBytes* data = disk_.read(name);
  if (!data) return std::nullopt;
  std::size_t off = 0, len = 0;
  if (!frame_parse(*data, 0, off, len)) return std::nullopt;
  cdr::Decoder dec(std::span<const std::uint8_t>(data->data() + off, len));
  try {
    return decode_checkpoint_record(dec);
  } catch (const cdr::MarshalError&) {
    return std::nullopt;
  }
}

std::optional<CheckpointRecord> CheckpointStore::load_newest(
    const std::string& group, std::size_t* fallbacks) const {
  std::vector<std::string> files = disk_.list("ckpt-" + group + "-");
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    if (auto rec = load_file(*it)) return rec;
    if (fallbacks) ++*fallbacks;
  }
  return std::nullopt;
}

std::vector<std::string> CheckpointStore::groups() const {
  std::vector<std::string> out;
  out.reserve(kept_.size());
  for (const auto& [group, kept] : kept_) out.push_back(group);
  return out;
}

std::map<std::string, std::uint64_t> CheckpointStore::safe_positions() const {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [group, kept] : kept_) {
    out[group] = kept.size() < 2 ? 0 : kept[kept.size() - 2].position;
  }
  return out;
}

}  // namespace eternal::dur
