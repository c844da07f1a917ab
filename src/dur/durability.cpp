#include "dur/durability.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace eternal::dur {

namespace {

/// Slack added above the highest client op_seq any durable artifact saw:
/// operations invoked in the last instants before a crash may never have
/// reached the journal, so the floor jumps well past them.
constexpr std::uint64_t kClientOpMargin = 1ULL << 16;

constexpr std::uint8_t kKindInvocation = 1;  // rep::Kind::Invocation

obs::Counter& ctr(const char* metric, sim::NodeId node) {
  auto& c = obs::Registry::global().counter(
      obs::node_metric("dur", metric, node));
  c.reset();
  return c;
}

}  // namespace

NodeDurability::NodeDurability(sim::Simulation& sim, sim::Disk& disk,
                               sim::NodeId node, DurParams params)
    : sim_(sim),
      disk_(disk),
      node_(node),
      params_(params),
      journal_(disk),
      checkpoints_(disk),
      appends_(ctr("journal_appends", node)),
      append_bytes_(ctr("journal_bytes", node)),
      append_failures_(ctr("append_failures", node)),
      syncs_(ctr("journal_syncs", node)),
      checkpoints_cut_(ctr("checkpoints_cut", node)),
      compacted_bytes_(ctr("compacted_bytes", node)),
      recoveries_(ctr("recoveries", node)),
      replayed_(ctr("records_replayed", node)),
      fallbacks_(ctr("checkpoint_fallbacks", node)),
      tail_lost_(ctr("tail_lost_bytes", node)) {}

NodeDurability::~NodeDurability() { close(); }

void NodeDurability::start() {
  closed_ = false;
  if (params_.sync_interval == 0) return;  // per-append sync instead
  sync_timer_ = sim_.after(params_.sync_interval, [this] { sync_tick(); });
}

void NodeDurability::sync_tick() {
  if (closed_) return;
  journal_.sync();
  write_meta();
  syncs_.inc();
  sync_timer_ = sim_.after(params_.sync_interval, [this] { sync_tick(); });
}

void NodeDurability::append(JournalRecord rec) {
  const std::size_t bytes = rec.payload.size();
  if (!journal_.append(rec)) {
    append_failures_.inc();
    return;
  }
  appends_.inc();
  append_bytes_.inc(bytes);
  if (params_.sync_interval == 0) journal_.sync();
}

void NodeDurability::cut_checkpoint(CheckpointRecord rec,
                                    const BlobWriter& blob) {
  rec.position = journal_.next_index();
  if (meta_provider_) {
    const MetaSnapshot m = meta_provider_();
    rec.max_epoch = m.max_epoch;
    rec.client_next_op = m.client_next_op;
  }
  if (!checkpoints_.save(rec, blob)) {
    append_failures_.inc();
    return;
  }
  checkpoints_cut_.inc();
  // Compact below the minimum position any retained checkpoint (newest
  // *or* its fallback) could still ask to replay from. A group that
  // journals but has no checkpoint (cold-passive backups) replays from
  // scratch, so it pins the tape at its oldest retained record.
  const std::map<std::string, std::uint64_t> safe =
      checkpoints_.safe_positions();
  std::uint64_t keep_from = rec.position;
  for (const auto& [group, pos] : safe) keep_from = std::min(keep_from, pos);
  journal_.for_each_group([&](const std::string& group, std::uint64_t first) {
    if (!safe.count(group)) keep_from = std::min(keep_from, first);
  });
  if (keep_from > 0) compacted_bytes_.inc(journal_.compact(keep_from));
  journal_.sync();
  write_meta();
}

void NodeDurability::sync_now() {
  journal_.sync();
  write_meta();
  syncs_.inc();
}

void NodeDurability::write_meta() {
  MetaRecord m;
  if (meta_provider_) {
    const MetaSnapshot s = meta_provider_();
    m.max_epoch = s.max_epoch;
    m.client_next_op = s.client_next_op;
  }
  cdr::Arena arena;
  cdr::Writer w(arena, 8 + 2 * 8);  // frame header + two ulonglongs
  frame_begin(w);
  encode_meta_record_into(w, m);
  frame_end(w);
  const std::span<const std::uint8_t> framed = w.written();
  disk_.write_file("meta", sim::DiskBytes(framed.begin(), framed.end()));
}

void NodeDurability::on_crash(bool torn) {
  close();
  disk_.crash(torn);
}

void NodeDurability::close() {
  closed_ = true;
  sync_timer_.cancel();
}

RecoveredNode NodeDurability::recover() {
  RecoveredNode out;
  recoveries_.inc();

  // Meta file (may be absent or corrupt: floors then come from the
  // checkpoints and journal alone).
  if (const sim::DiskBytes* data = disk_.read("meta")) {
    std::size_t off = 0, len = 0;
    if (frame_parse(*data, 0, off, len)) {
      cdr::Decoder dec(
          std::span<const std::uint8_t>(data->data() + off, len));
      try {
        const MetaRecord m = decode_meta_record(dec);
        out.epoch_floor = m.max_epoch;
        out.client_op_floor = m.client_next_op;
      } catch (const cdr::MarshalError&) {
      }
    }
  }

  // Newest valid checkpoint per group, with fallback.
  std::map<std::string, std::uint64_t> positions;
  for (const std::string& group : checkpoints_.groups()) {
    std::size_t fb = 0;
    const auto rec = checkpoints_.load_newest(group, &fb);
    out.stats.checkpoint_fallbacks += fb;
    fallbacks_.inc(fb);
    if (!rec) continue;  // both copies corrupt: replay from scratch
    RecoveredGroup g;
    g.name = rec->group;
    g.style = rec->style;
    g.has_checkpoint = true;
    g.state_version = rec->state_version;
    g.digest = rec->digest;
    g.position = rec->position;
    g.blob = rec->blob;
    positions[g.name] = g.position;
    out.epoch_floor = std::max(out.epoch_floor, rec->max_epoch);
    out.client_op_floor = std::max(out.client_op_floor, rec->client_next_op);
    out.stats.simulated_cost_us +=
        params_.load_us_per_kib * (g.blob.size() / 1024 + 1);
    ++out.stats.checkpoints_loaded;
    out.groups.push_back(std::move(g));
  }

  // Journal scan + per-group gating.
  ScanResult scan = journal_.scan();
  out.stats.records_scanned = scan.records.size();
  out.stats.tail_lost_bytes = scan.tail_lost_bytes;
  out.stats.journal_clean = scan.clean;
  tail_lost_.inc(scan.tail_lost_bytes);
  for (JournalRecord& r : scan.records) {
    out.epoch_floor = std::max(out.epoch_floor, r.carrier.epoch);
    if (r.kind == kKindInvocation && r.op.parent.epoch == 0 &&
        r.op.parent.seq == static_cast<std::uint64_t>(node_) + 1) {
      out.client_op_floor = std::max(out.client_op_floor, r.op.op_seq + 1);
    }
    const auto pit = positions.find(r.group);
    if (pit != positions.end() && r.index < pit->second) continue;
    out.records.push_back(std::move(r));
  }
  out.stats.records_replayed = out.records.size();
  replayed_.inc(out.records.size());
  out.stats.simulated_cost_us +=
      params_.replay_us_per_record * out.records.size();
  if (out.client_op_floor > 0) out.client_op_floor += kClientOpMargin;

  // Reopen for the new life: append index continues past the scanned
  // prefix, and the group-commit timer re-arms.
  journal_.open();
  start();
  return out;
}

}  // namespace eternal::dur
