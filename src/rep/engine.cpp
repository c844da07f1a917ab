#include "rep/engine.hpp"

#include <algorithm>
#include <cassert>
#include <optional>

#include "dur/durability.hpp"
#include "obs/journal.hpp"

namespace eternal::rep {

namespace {
/// Offset added to op_seq when replaying a fulfillment operation, so the
/// replayed operation's identifier is (a) distinct from the original and
/// (b) identical across all replicas of the ex-secondary component — which
/// lets ordinary duplicate suppression collapse their replays into one.
constexpr std::uint64_t kFulfillSeqOffset = 1ULL << 62;

std::vector<NodeId> intersect(const std::vector<NodeId>& a,
                              const std::vector<NodeId>& b) {
  std::vector<NodeId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// Parked executions kept per engine; bounds the idle footprint, not the
/// number of concurrent executions.
constexpr std::size_t kExecPoolCap = 32;
}  // namespace

EngineCounters::EngineCounters(obs::Registry& reg, NodeId node)
    : invocations_executed(
          reg.counter(obs::node_metric("engine", "invocations_executed", node))),
      duplicate_invocations_dropped(reg.counter(
          obs::node_metric("engine", "duplicate_invocations_dropped", node))),
      duplicate_replies_resent(reg.counter(
          obs::node_metric("engine", "duplicate_replies_resent", node))),
      sends_suppressed(
          reg.counter(obs::node_metric("engine", "sends_suppressed", node))),
      responses_suppressed(reg.counter(
          obs::node_metric("engine", "responses_suppressed", node))),
      state_updates_applied(reg.counter(
          obs::node_metric("engine", "state_updates_applied", node))),
      snapshots_served(
          reg.counter(obs::node_metric("engine", "snapshots_served", node))),
      snapshots_applied(
          reg.counter(obs::node_metric("engine", "snapshots_applied", node))),
      failovers(reg.counter(obs::node_metric("engine", "failovers", node))),
      fulfillment_recorded(reg.counter(
          obs::node_metric("engine", "fulfillment_recorded", node))),
      fulfillment_replayed(reg.counter(
          obs::node_metric("engine", "fulfillment_replayed", node))),
      state_digests_sent(reg.counter(
          obs::node_metric("engine", "state_digests_sent", node))),
      divergences_detected(reg.counter(
          obs::node_metric("engine", "divergences_detected", node))) {}

void EngineCounters::reset() noexcept {
  invocations_executed.reset();
  duplicate_invocations_dropped.reset();
  duplicate_replies_resent.reset();
  sends_suppressed.reset();
  responses_suppressed.reset();
  state_updates_applied.reset();
  snapshots_served.reset();
  snapshots_applied.reset();
  failovers.reset();
  fulfillment_recorded.reset();
  fulfillment_replayed.reset();
  state_digests_sent.reset();
  divergences_detected.reset();
}

EngineStats EngineCounters::snapshot() const noexcept {
  EngineStats s;
  s.invocations_executed = invocations_executed.value();
  s.duplicate_invocations_dropped = duplicate_invocations_dropped.value();
  s.duplicate_replies_resent = duplicate_replies_resent.value();
  s.sends_suppressed = sends_suppressed.value();
  s.responses_suppressed = responses_suppressed.value();
  s.state_updates_applied = state_updates_applied.value();
  s.snapshots_served = snapshots_served.value();
  s.snapshots_applied = snapshots_applied.value();
  s.failovers = failovers.value();
  s.fulfillment_recorded = fulfillment_recorded.value();
  s.fulfillment_replayed = fulfillment_replayed.value();
  s.state_digests_sent = state_digests_sent.value();
  s.divergences_detected = divergences_detected.value();
  return s;
}

std::string to_string(Style s) {
  switch (s) {
    case Style::Active: return "ACTIVE";
    case Style::WarmPassive: return "WARM_PASSIVE";
    case Style::ColdPassive: return "COLD_PASSIVE";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Execution: one in-flight operation on a local replica.
// ---------------------------------------------------------------------------

struct Engine::Execution {
  OperationId op_id;
  Envelope invocation;   // the envelope that started this execution
  GlobalSeq carrier;     // total-order position of that envelope
  giop::Message request; // parsed GIOP request (slices the invocation frame)
  /// The servant's result is written into a frame of the execution's own
  /// arena: an async servant keeps it open while suspended, and meanwhile
  /// the node arena frames other traffic.
  cdr::Arena result_arena{std::size_t{1} << 12};
  std::optional<cdr::Writer> out;
  std::unique_ptr<orb::InvokerContext> ctx;
  orb::Task task;
  std::uint64_t next_op_seq = 1;
  util::Xoshiro256 rng;
  bool read_only = false;
  std::string op_name;
  std::uint64_t span_id = 0;     // ExecStart span; parents nested invokes
  std::uint64_t exec_begin = 0;  // sim time execution started

  explicit Execution(const OperationId& id) : rng(id.hash()) {
    out.emplace(result_arena);
  }

  /// Re-arm a parked execution for a new operation. The heap-backed pieces
  /// (result arena slab, strings, context) are kept; frame references were
  /// dropped when the execution was released.
  void reinit(const OperationId& id) {
    op_id = OperationId{};
    next_op_seq = 1;
    rng = util::Xoshiro256(id.hash());
    read_only = false;
    op_name.clear();
    span_id = 0;
    exec_begin = 0;
    out.emplace(result_arena);  // abandons the previous result frame
  }
};

/// The servant's window on the world: nested invocations plus sanitized
/// time and randomness (all deterministic across replicas).
class ExecContext final : public orb::InvokerContext {
 public:
  ExecContext(Engine& engine, std::string group, Engine::Execution& exec,
              bool primary_component)
      : engine_(engine),
        group_(std::move(group)),
        exec_(exec),
        primary_component_(primary_component) {}

  orb::Future<cdr::Bytes> invoke(const std::string& target,
                                 const std::string& op,
                                 cdr::Bytes args) override;

  /// Re-aim a pooled context at a new operation. The engine and execution
  /// references stay valid: pooled Execution objects have stable addresses.
  void reset(const std::string& group, bool primary_component) {
    group_ = group;
    primary_component_ = primary_component;
  }

  std::uint64_t logical_time() const override {
    return exec_.invocation.timestamp;
  }
  std::uint64_t deterministic_random() override { return exec_.rng.next(); }
  bool is_fulfillment() const override { return exec_.invocation.fulfillment; }
  bool in_primary_component() const override { return primary_component_; }

 private:
  Engine& engine_;
  std::string group_;
  Engine::Execution& exec_;
  bool primary_component_ = false;
};

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine(sim::Simulation& sim, totem::GroupLayer& groups,
               EngineParams params)
    : sim_(sim), groups_(groups), params_(params),
      counters_(obs::Registry::global(), groups.id()),
      tracer_(obs::Tracer::global()),
      oracle_(params.divergence_check_interval) {
  counters_.reset();
  groups_.subscribe_all(
      [this](const totem::GroupMessage& m) { on_message(m); });
  groups_.set_group_view_handler(
      [this](const totem::GroupView& v) { on_group_view(v); });
}

void Engine::journal(obs::EventKind kind, std::string subject,
                     std::string detail) {
  obs::Journal::global().emit(sim_.now(), id(), kind, std::move(subject),
                              std::move(detail));
}

Engine::~Engine() = default;

Client& Engine::client() {
  if (!client_) {
    client_ = std::make_unique<Client>(
        *this, "client." + std::to_string(groups_.id()));
    // Recovery floor: never reuse an op identifier the pre-crash life
    // could have issued (client retries must stay exactly-once).
    if (client_op_floor_ != 0) client_->seed_next_op(client_op_floor_);
  }
  return *client_;
}

void Engine::host(const GroupConfig& cfg, std::shared_ptr<Replica> replica,
                  bool initial) {
  auto [it, inserted] = local_.emplace(cfg.name, LocalGroup{});
  LocalGroup& g = it->second;
  g.cfg = cfg;
  g.replica = std::move(replica);
  groups_.join(cfg.name);
  if (initial) {
    g.sync = SyncState::Synced;
    g.had_state = true;
    g.synced_set.insert(id());
    broadcast_synced_mark(g);
  } else {
    begin_resync(g);
  }
}

void Engine::unhost(const std::string& group) {
  auto it = local_.find(group);
  if (it == local_.end()) return;
  groups_.leave(group);
  local_.erase(it);
  oracle_.forget(group);
}

void Engine::reset_after_crash() {
  for (auto& [name, g] : local_) {
    g.join_retry_timer.cancel();
    g.exec_hold_timer.cancel();
    groups_.leave(name);
    oracle_.forget(name);
  }
  local_.clear();
  expected_replies_.clear();
  for (auto& [op, pending] : pending_invocation_sends_) {
    pending.timer.cancel();
  }
  pending_invocation_sends_.clear();
  for (auto& [op, pending] : pending_response_sends_) {
    pending.timer.cancel();
  }
  pending_response_sends_.clear();
  client_.reset();
}

// ---------------------------------------------------------------------------
// Durability & disaster recovery
// ---------------------------------------------------------------------------

void Engine::set_durability(dur::NodeDurability* d) {
  durability_ = d;
  if (!d) return;
  d->set_meta_provider([this] {
    dur::MetaSnapshot m;
    m.max_epoch = groups_.node().max_epoch_seen();
    m.client_next_op = client_ ? client_->next_op() : client_op_floor_;
    return m;
  });
}

void Engine::begin_recovery() {
  recovering_ = true;
  recovery_replayed_ = 0;
  recovery_pending_sends_.clear();
}

void Engine::host_recovered(const GroupConfig& cfg,
                            std::shared_ptr<Replica> replica,
                            const dur::RecoveredGroup& rec) {
  auto [it, inserted] = local_.emplace(cfg.name, LocalGroup{});
  LocalGroup& g = it->second;
  g.cfg = cfg;
  g.replica = std::move(replica);
  groups_.join(cfg.name);
  g.sync = SyncState::Synced;
  g.had_state = true;
  g.recovered = true;
  // A whole-domain restart begins as its own primary component: the
  // durable tape *is* the authoritative lineage.
  g.primary_component = true;
  journal(obs::EventKind::RecoveryBegin, g.cfg.name,
          rec.has_checkpoint
              ? "checkpoint version=" + std::to_string(rec.state_version) +
                    " replay_from=" + std::to_string(rec.position)
              : "no checkpoint, full replay");
  std::uint64_t got = 0;
  bool ok = true;
  if (rec.has_checkpoint) {
    apply_checkpoint(g, rec.blob);
    g.last_checkpoint_version = g.state_version;
    got = digest_state(*g.replica, g.state_version);
    ok = g.state_version == rec.state_version && got == rec.digest;
  } else {
    got = digest_state(*g.replica, 0);
  }
  // The checkpointed synced set names pre-crash members; this life's set
  // is rebuilt from ordered marks (finish_recovery broadcasts ours).
  g.synced_set.clear();
  g.synced_set.insert(id());
  journal(obs::EventKind::RecoveryLoaded, g.cfg.name,
          "version=" + std::to_string(g.state_version) +
              " digest=" + std::to_string(got) +
              (rec.has_checkpoint ? "" : " bootstrap") +
              (ok ? ""
                  : " mismatch expected=" + std::to_string(rec.digest) +
                        "@" + std::to_string(rec.state_version)));
}

void Engine::replay_journal_record(const dur::JournalRecord& rec) {
  try {
    decode_envelope_into(rx_env_, cdr::WireBuf(rec.payload));
  } catch (const cdr::MarshalError&) {
    return;  // framed-but-garbage payload: skip, the tape is append-only
  }
  ++recovery_replayed_;
  route(rx_env_, rec.carrier, rec.sender);
}

void Engine::finish_recovery() {
  recovering_ = false;
  // Re-issue nested invocations whose replies never made the durable
  // tape: the parent execution is still suspended on them. Everything
  // else the replay captured already had its effect pre-crash.
  std::vector<Envelope> pending = std::move(recovery_pending_sends_);
  recovery_pending_sends_.clear();
  for (Envelope& env : pending) {
    const auto git = expected_replies_.find(env.reply_group);
    if (git == expected_replies_.end() || !git->second.count(env.op_id)) {
      continue;  // reply arrived on the tape; the future resolved
    }
    std::uint32_t rank = 0;
    if (auto lit = local_.find(env.reply_group); lit != local_.end()) {
      rank = my_rank(lit->second);
    }
    send_invocation(std::move(env), rank);
  }
  for (auto& [name, g] : local_) {
    if (!g.recovered) continue;
    journal(obs::EventKind::RecoveryEnd, name,
            "version=" + std::to_string(g.state_version) +
                " replayed=" + std::to_string(recovery_replayed_));
    // Announce on the first post-recovery ring; version-carrying marks
    // also let a sibling that recovered a shorter durable prefix detect
    // its staleness and resync from us.
    broadcast_synced_mark(g);
  }
}

void Engine::maybe_cut_checkpoint(LocalGroup& g) {
  if (!durability_ || recovering_ || g.sync != SyncState::Synced) return;
  const std::uint64_t interval = durability_->checkpoint_interval();
  if (interval == 0) return;
  if (g.state_version >= g.last_checkpoint_version + interval) {
    g.checkpoint_due = true;
  }
  if (!g.checkpoint_due) return;
  // Quiescent boundary: nothing in flight, so the checkpoint reflects a
  // prefix of the total order and every journal record below the cut
  // position is fully contained in it.
  if (!g.running.empty() || !g.exec_queue.empty() ||
      !g.invocation_log.empty()) {
    return;
  }
  cut_checkpoint(g);
}

void Engine::cut_checkpoint(LocalGroup& g) {
  const std::uint64_t digest = digest_state(*g.replica, g.state_version);
  dur::CheckpointRecord rec;
  rec.group = g.cfg.name;
  rec.style = static_cast<std::uint8_t>(g.cfg.style);
  rec.state_version = g.state_version;
  rec.digest = digest;
  // The blob is encoded straight into the checkpoint record's frame.
  durability_->cut_checkpoint(std::move(rec), [this, &g](cdr::Writer& out) {
    encode_checkpoint(g, out, nullptr);
  });
  g.last_checkpoint_version = g.state_version;
  g.checkpoint_due = false;
  journal(obs::EventKind::CheckpointCut, g.cfg.name,
          "version=" + std::to_string(g.state_version) +
              " digest=" + std::to_string(digest) +
              " pos=" + std::to_string(durability_->journal().next_index()));
}

std::shared_ptr<Replica> Engine::local_replica(const std::string& group) const {
  auto it = local_.find(group);
  return it == local_.end() ? nullptr : it->second.replica;
}

bool Engine::is_synced(const std::string& group) const {
  auto it = local_.find(group);
  return it != local_.end() && it->second.sync == SyncState::Synced;
}

bool Engine::is_primary(const std::string& group) const {
  auto it = local_.find(group);
  return it != local_.end() && i_am_primary(it->second);
}

bool Engine::in_primary_component(const std::string& group) const {
  auto it = local_.find(group);
  return it != local_.end() && it->second.primary_component;
}

std::vector<NodeId> Engine::synced_members(const std::string& group) const {
  auto it = local_.find(group);
  if (it == local_.end()) return {};
  return {it->second.synced_set.begin(), it->second.synced_set.end()};
}

std::vector<NodeId> Engine::group_members(const std::string& group) const {
  auto it = local_.find(group);
  if (it == local_.end()) return {};
  return it->second.members;
}

std::uint64_t Engine::state_version(const std::string& group) const {
  auto it = local_.find(group);
  return it == local_.end() ? 0 : it->second.state_version;
}

std::size_t Engine::fulfillment_backlog(const std::string& group) const {
  auto it = local_.find(group);
  return it == local_.end() ? 0 : it->second.fulfillment_queue.size();
}

CheckpointSizes Engine::checkpoint_sizes(const std::string& group) const {
  CheckpointSizes sizes;
  auto it = local_.find(group);
  if (it != local_.end()) {
    cdr::Arena arena;
    cdr::Writer out(arena);
    encode_checkpoint(it->second, out, &sizes);
  }
  return sizes;
}

bool Engine::i_am_primary(const LocalGroup& g) const {
  if (g.sync != SyncState::Synced) return false;
  // Primary = lowest-id *synced* member; an unsynced joiner must not lead.
  for (NodeId m : g.members) {
    if (g.synced_set.count(m)) return m == id();
  }
  return !g.members.empty() && g.members.front() == id();
}

std::uint32_t Engine::my_rank(const LocalGroup& g) const {
  std::uint32_t rank = 0;
  for (NodeId m : g.members) {
    if (m == id()) return rank;
    ++rank;
  }
  return rank;
}

// ---------------------------------------------------------------------------
// Message routing
// ---------------------------------------------------------------------------

void Engine::on_message(const totem::GroupMessage& m) {
  // lint: hotpath — scratch-envelope decode per delivery (strings reuse
  // capacity, payloads are frame slices)
  try {
    decode_envelope_into(rx_env_, m.payload);
  } catch (const cdr::MarshalError&) {
    return;  // not a replication-layer message
  }
  const GlobalSeq carrier{m.ring.epoch, m.seq};
  if (durability_) {
    maybe_journal_delivery(rx_env_, carrier, m.sender, m.payload);
  }
  route(rx_env_, carrier, m.sender);
}

void Engine::maybe_journal_delivery(const Envelope& env,
                                    const GlobalSeq& carrier, NodeId sender,
                                    const cdr::WireBuf& frame) {
  // Journal exactly what replay re-routes: operations, passive postimages
  // and nested responses addressed to a group hosted here. Client reply
  // groups are never hosted, so client-bound responses stay off the disk;
  // membership/sync/oracle control traffic is re-derived live.
  switch (env.kind) {
    case Kind::Invocation:
    case Kind::StateUpdate:
    case Kind::Response:
      break;
    default:
      return;
  }
  if (local_.find(env.target_group) == local_.end()) return;
  dur::JournalRecord rec;
  rec.carrier = carrier;
  rec.sender = sender;
  rec.kind = static_cast<std::uint8_t>(env.kind);
  rec.group = env.target_group;
  rec.op = env.op_id;
  const auto bytes = frame.span();
  rec.payload.assign(bytes.begin(), bytes.end());
  durability_->append(std::move(rec));
}

void Engine::route(const Envelope& env, const GlobalSeq& carrier,
                   NodeId sender) {
  // lint: hotpath — every delivered envelope demuxes through here
  // Sender-side duplicate suppression: a sibling's copy of an invocation or
  // response we have queued (staggered) cancels our send.
  if (env.kind == Kind::Invocation && sender != id()) {
    auto it = pending_invocation_sends_.find(env.op_id);
    if (it != pending_invocation_sends_.end()) {
      it->second.timer.cancel();
      pending_invocation_sends_.erase(it);
      counters_.sends_suppressed.inc();
      if (tracing()) {
        trace_ctx(env.op_id, obs::SpanEvent::SendSuppressed, env.ctx(),
                  // lint:allow(hotpath-alloc: traced runs only)
                  "sibling=" + std::to_string(sender));
      }
    }
  }
  if (env.kind == Kind::Response && sender != id()) {
    auto it = pending_response_sends_.find(env.op_id);
    if (it != pending_response_sends_.end()) {
      it->second.timer.cancel();
      pending_response_sends_.erase(it);
      counters_.responses_suppressed.inc();
      if (tracing()) {
        trace_ctx(env.op_id, obs::SpanEvent::ResponseSuppressed, env.ctx(),
                  // lint:allow(hotpath-alloc: traced runs only)
                  "sibling=" + std::to_string(sender));
      }
    }
  }

  // The totem-layer timestamp of this invocation's delivery in total order;
  // one record per (node, carrier), keyed by the operation identifier.
  if (tracing() && env.kind == Kind::Invocation) {
    trace_ctx(env.op_id, obs::SpanEvent::TotemDeliver, env.ctx(),
              // lint:allow(hotpath-alloc: traced runs only)
              "carrier=" + carrier.str() + " from=" + std::to_string(sender) +
                  " target=" + env.target_group);
  }

  if (env.kind == Kind::Response) {
    handle_response(env, sender);
    return;
  }

  auto it = local_.find(env.target_group);
  if (it == local_.end()) return;  // no local replica of the target
  LocalGroup& g = it->second;

  switch (env.kind) {
    case Kind::Invocation:
      if (g.sync == SyncState::AwaitingSnapshot) {
        // lint:allow(hotpath-alloc: resync buffering only, not steady state)
        g.buffered.emplace_back(env, carrier);
        // The buffer may be dropped if another view change restarts the
        // resync; record the deferral so the audit can account for a
        // delivery this replica never acted on (the client's retransmit
        // reaches it again once synced).
        if (tracing()) {
          trace_ctx(env.op_id, obs::SpanEvent::ResyncDeferred, env.ctx(),
                    "group=" + g.cfg.name);
        }
        return;
      }
      if (g.sync == SyncState::Unsynced) {  // pre-marker: in snapshot
        if (tracing()) {
          trace_ctx(env.op_id, obs::SpanEvent::ResyncDeferred, env.ctx(),
                    "group=" + g.cfg.name);
        }
        return;
      }
      handle_invocation(g, env, carrier);
      return;
    case Kind::StateUpdate:
      if (g.sync == SyncState::AwaitingSnapshot) {
        // lint:allow(hotpath-alloc: resync buffering only, not steady state)
        g.buffered.emplace_back(env, carrier);
        return;
      }
      if (g.sync == SyncState::Unsynced) return;
      handle_state_update(g, env);
      return;
    case Kind::JoinRequest:
      handle_join_request(g, env);
      return;
    case Kind::Snapshot:
      handle_snapshot(g, env);
      return;
    case Kind::SyncedMark:
      handle_synced_mark(g, env);
      return;
    case Kind::StateDigest:
      // Digest comparison needs no local state (the copies under comparison
      // all ride in envelopes), so even an unsynced replica participates.
      handle_state_digest(g, env);
      return;
    case Kind::Response:
      return;  // handled above
  }
}

// ---------------------------------------------------------------------------
// Invocations and executions
// ---------------------------------------------------------------------------

void Engine::handle_invocation(LocalGroup& g, const Envelope& env,
                               const GlobalSeq& carrier) {
  // lint: hotpath — dedup, logging, and execution hand-off per invocation
  // Receiver-side duplicate detection, keyed on the operation identifier.
  auto logged = g.reply_log.find(env.op_id);
  if (logged != g.reply_log.end()) {
    // A duplicate of a completed operation (client retry or reinvocation by
    // a new primary): do not re-execute — retransmit the logged reply.
    if (!g.replaying_buffer) resend_logged_reply(g, env);
    counters_.duplicate_replies_resent.inc();
    if (tracing()) {
      trace_ctx(env.op_id, obs::SpanEvent::DuplicateReplyResent, env.ctx(),
                "group=" + g.cfg.name);
    }
    return;
  }
  if (g.known_ops.count(env.op_id)) {
    // Already logged/executing; the reply will go out when it completes.
    counters_.duplicate_invocations_dropped.inc();
    if (tracing()) {
      trace_ctx(env.op_id, obs::SpanEvent::DuplicateDropped, env.ctx(),
                "group=" + g.cfg.name);
    }
    return;
  }
  if (g.cfg.style == Style::Active) {
    remember_op(g, env.op_id);
    start_execution(g, env, carrier);
    return;
  }

  // Passive: everybody logs (the log is what failover re-executes); only
  // the primary executes, serially in log order. Read-only operations are
  // not logged at backups — they produce no state update to retire them.
  giop::Message req;
  try {
    req = giop::decode(env.giop);
  } catch (const cdr::MarshalError&) {
    return;
  }
  if (!req.request) return;
  const bool read_only =
      g.replica && g.replica->is_read_only(req.request->operation);
  if (i_am_primary(g)) {
    remember_op(g, env.op_id);
    // lint:allow(hotpath-alloc: failover log retains the envelope; its frame payloads are refcounted slices, not copies)
    if (!read_only) g.invocation_log.push_back({env, carrier, false});
    // lint:allow(hotpath-alloc: exec queue retains the envelope; its frame payloads are refcounted slices, not copies)
    g.exec_queue.emplace_back(env, carrier);
    pump_exec_queue(g);
  } else if (!read_only) {
    remember_op(g, env.op_id);
    // lint:allow(hotpath-alloc: failover log retains the envelope; its frame payloads are refcounted slices, not copies)
    g.invocation_log.push_back({env, carrier, false});
  } else {
    // A read-only operation at a backup is deliberately neither logged nor
    // marked known: there is no state update to ever retire it, and if the
    // primary dies before executing it the client's retransmit must reach
    // the next primary as a *fresh* operation — latching it as "in
    // progress" here would drop every retry forever (a liveness hole the
    // soak harness found: nobody executes, everybody suppresses). Record
    // the skip so the audit can account for the delivery.
    if (tracing()) {
      trace_ctx(env.op_id, obs::SpanEvent::ReadSkipped, env.ctx(),
                "group=" + g.cfg.name);
    }
  }
}

void Engine::pump_exec_queue(LocalGroup& g) {
  // lint: hotpath
  while (!g.executing && !g.exec_hold && !g.exec_queue.empty()) {
    auto [env, carrier] = g.exec_queue.front();
    g.exec_queue.pop_front();
    if (g.reply_log.count(env.op_id)) continue;  // completed meanwhile
    g.executing = true;
    start_execution(g, env, carrier);
  }
}

std::unique_ptr<Engine::Execution> Engine::acquire_execution(
    const OperationId& id) {
  if (exec_pool_.empty()) return std::make_unique<Execution>(id);
  auto ex = std::move(exec_pool_.back());
  exec_pool_.pop_back();
  ex->reinit(id);
  return ex;
}

void Engine::release_execution(std::unique_ptr<Execution> ex) {
  // Drop every frame reference so a parked execution pins no slab but its
  // result arena's own; string and vector capacities stay for the next
  // operation.
  ex->invocation.giop = cdr::WireBuf();
  ex->invocation.update = cdr::WireBuf();
  ex->invocation.blob = cdr::WireBuf();
  if (ex->request.request) {
    ex->request.request->object_key = cdr::WireBuf();
    ex->request.request->service_contexts.clear();
  }
  ex->request.body = cdr::WireBuf();
  ex->task = orb::Task{};
  if (exec_pool_.size() < kExecPoolCap) exec_pool_.push_back(std::move(ex));
}

void Engine::start_execution(LocalGroup& g, const Envelope& env,
                             const GlobalSeq& carrier) {
  // lint: hotpath — per-operation setup between delivery and user code
  auto exec = acquire_execution(env.op_id);
  Execution& ex = *exec;
  ex.op_id = env.op_id;
  ex.invocation = env;
  ex.carrier = carrier;
  try {
    ex.request = giop::decode(env.giop);
  } catch (const cdr::MarshalError&) {
    release_execution(std::move(exec));
    if (g.cfg.style != Style::Active) g.executing = false;
    return;
  }
  if (!ex.request.request) {
    release_execution(std::move(exec));
    if (g.cfg.style != Style::Active) g.executing = false;
    return;
  }
  ex.op_name = ex.request.request->operation;
  ex.read_only = g.replica->is_read_only(ex.op_name);
  if (!ex.ctx) {
    // lint:allow(hotpath-alloc: first use of a pooled execution only)
    ex.ctx = std::make_unique<ExecContext>(*this, g.cfg.name, ex,
                                           g.primary_component);
  } else {
    static_cast<ExecContext*>(ex.ctx.get())
        ->reset(g.cfg.name, g.primary_component);
  }
  ex.exec_begin = sim_.now();
  if (tracing()) {
    // The ExecStart span parents everything this execution causes: nested
    // invocations, the state update, the reply.
    ex.span_id = trace_ctx(env.op_id, obs::SpanEvent::ExecStart, env.ctx(),
                           "group=" + g.cfg.name + " op=" + ex.op_name);
  }

  // lint:allow(hotpath-alloc: ordered-map node per in-flight operation; the execution it holds is pooled)
  g.running.emplace(env.op_id, std::move(exec));

  std::exception_ptr dispatch_error;
  try {
    cdr::Decoder args(ex.request.body);
    ex.task = g.replica->dispatch(ex.op_name, *ex.ctx, args, *ex.out);
  } catch (...) {
    dispatch_error = std::current_exception();
  }
  if (dispatch_error) {
    finish_execution(g, ex, dispatch_error);
    return;
  }
  ex.task.on_complete([this, group_name = g.cfg.name,
                       op_id = env.op_id](std::exception_ptr error) {
    auto git = local_.find(group_name);
    if (git == local_.end()) return;
    auto eit = git->second.running.find(op_id);
    if (eit == git->second.running.end()) return;
    finish_execution(git->second, *eit->second, error);
  });
}

void Engine::finish_execution(LocalGroup& g, Execution& ex,
                              std::exception_ptr error) {
  const std::uint32_t request_id = ex.request.request->request_id;
  cdr::Arena& arena = groups_.arena();
  cdr::WireBuf reply;
  bool failed = false;
  if (error) {
    failed = true;
    try {
      std::rethrow_exception(error);
    } catch (const orb::SystemException& e) {
      reply = orb::make_exception_reply(arena, request_id, e);
    } catch (const cdr::MarshalError&) {
      reply = orb::make_exception_reply(
          arena, request_id,
          orb::SystemException("IDL:omg.org/CORBA/MARSHAL:1.0", 0,
                               orb::Completion::Maybe));
    } catch (...) {
      reply = orb::make_exception_reply(
          arena, request_id,
          orb::SystemException("IDL:omg.org/CORBA/UNKNOWN:1.0", 0,
                               orb::Completion::Maybe));
    }
  } else {
    reply = orb::make_success_reply(arena, request_id, ex.out->written());
  }

  counters_.invocations_executed.inc();
  if (tracing()) {
    // Duration span covering the whole (possibly suspended) execution.
    tracer_.span(ex.exec_begin, sim_.now(), id(), op_ref(ex.op_id),
                 obs::SpanEvent::ExecEnd,
                 {ex.invocation.trace_id, ex.span_id},
                 "group=" + g.cfg.name + " op=" + ex.op_name +
                     (failed ? " failed" : ""));
  }
  log_reply(g, ex.op_id, reply);

  const bool mutating = !failed && !ex.read_only;
  if (mutating) ++g.state_version;

  // Divergence oracle: at the configured cadence every active replica
  // broadcasts a digest of its post-operation state for cross-comparison.
  // Keyed on the group-wide state version (not a local counter) so replicas
  // that joined by state transfer check on the same boundaries. The
  // disabled path costs exactly this one branch (see bench_micro).
  if (oracle_.enabled() && mutating && g.cfg.style == Style::Active &&
      oracle_.due(g.state_version)) {
    send_state_digest(g, ex.op_id, ex.op_name);
  }

  // Passive primary: ship the postimage to the backups *before* the
  // response, so a backup promoted later is never behind a reply the
  // client has already seen.
  if (mutating && g.cfg.style != Style::Active) {
    Envelope up;
    up.kind = Kind::StateUpdate;
    up.op_id = ex.op_id;
    up.target_group = g.cfg.name;
    up.source_group = g.cfg.name;
    up.state_version = g.state_version;
    up.operation = ex.op_name;
    up.trace_id = ex.invocation.trace_id;
    up.parent_span = ex.span_id;
    cdr::Writer update(groups_.arena());
    g.replica->get_update(ex.op_name, update);
    up.update = update.seal();
    send_envelope(g.cfg.name, up);
  }

  // Record the operation for fulfillment replay if we are operating in a
  // secondary component (and this is not itself a replay).
  if (mutating && !g.primary_component && !ex.invocation.fulfillment) {
    g.fulfillment_queue.push_back(ex.invocation);
    counters_.fulfillment_recorded.inc();
    if (tracing()) {
      trace_ctx(ex.op_id, obs::SpanEvent::FulfillmentRecorded,
                ex.invocation.ctx(), "group=" + g.cfg.name);
    }
  }

  // Respond. Active replicas all respond (staggered; duplicates are
  // suppressed); the passive primary responds alone.
  if (ex.request.request->response_expected &&
      !ex.invocation.reply_group.empty()) {
    Envelope resp;
    resp.kind = Kind::Response;
    resp.op_id = ex.op_id;
    resp.target_group = ex.invocation.reply_group;
    resp.source_group = g.cfg.name;
    resp.giop = reply;
    resp.trace_id = ex.invocation.trace_id;
    resp.parent_span = ex.span_id;
    const std::uint32_t rank =
        g.cfg.style == Style::Active ? my_rank(g) : 0;
    if (tracing()) {
      trace_ctx(ex.op_id, obs::SpanEvent::ReplySend, resp.ctx(),
                "to=" + resp.target_group + " rank=" + std::to_string(rank));
    }
    queue_send(std::move(resp), rank, /*is_response=*/true);
  }

  // Retire the log entry (passive primary path).
  for (auto it = g.invocation_log.begin(); it != g.invocation_log.end();
       ++it) {
    if (it->env.op_id == ex.op_id) {
      g.invocation_log.erase(it);
      break;
    }
  }

  const OperationId done_id = ex.op_id;
  auto node = g.running.extract(ex.op_id);  // `ex` parks into the pool
  if (!node.empty()) release_execution(std::move(node.mapped()));
  if (g.cfg.style != Style::Active) {
    g.executing = false;
    pump_exec_queue(g);
  }
  if (!g.pending_serves.empty()) flush_pending_serves(g, done_id);
  maybe_cut_checkpoint(g);
}

orb::Future<cdr::Bytes> ExecContext::invoke(const std::string& target,
                                            const std::string& op,
                                            cdr::Bytes args) {
  OperationId nested;
  nested.parent = exec_.carrier;
  nested.op_seq = exec_.next_op_seq++;

  giop::FtRequestContext ft;
  ft.client_id = group_;
  ft.retention_id = static_cast<std::int32_t>(nested.op_seq);
  ft.expiration_time = exec_.invocation.timestamp;

  Envelope env;
  env.kind = Kind::Invocation;
  env.op_id = nested;
  env.target_group = target;
  env.reply_group = group_;
  env.source_group = group_;
  env.fulfillment = exec_.invocation.fulfillment;
  env.timestamp = exec_.invocation.timestamp;
  // Nested invocations stay on the root operation's trace, parented on the
  // execution span that issued them.
  env.trace_id = exec_.invocation.trace_id;
  env.parent_span = exec_.span_id;
  cdr::Writer w(engine_.groups_.arena(), args.size() + 192);
  giop::encode_request_inline(w, static_cast<std::uint32_t>(nested.hash()),
                              /*response_expected=*/true, target, op, &ft,
                              args);
  env.giop = w.seal();

  auto future = engine_.expect_reply(group_, nested);
  std::uint32_t rank = 0;
  if (auto it = engine_.local_.find(group_); it != engine_.local_.end()) {
    rank = engine_.my_rank(it->second);
  }
  engine_.send_invocation(std::move(env), rank);
  return future;
}

// ---------------------------------------------------------------------------
// Responses, suppression, sending
// ---------------------------------------------------------------------------

orb::Future<cdr::Bytes> Engine::expect_reply(const std::string& reply_group,
                                             const OperationId& op) {
  auto& slot = expected_replies_[reply_group][op];
  return slot;
}

void Engine::cancel_reply(const std::string& reply_group,
                          const OperationId& op) {
  auto it = expected_replies_.find(reply_group);
  if (it == expected_replies_.end()) return;
  it->second.erase(op);
  if (it->second.empty()) expected_replies_.erase(it);
}

void Engine::handle_response(const Envelope& env, NodeId sender) {
  ETERNAL_DEBUG("engine", "node ", id(), " response op=", env.op_id.str(),
                " target=", env.target_group, " from=", sender);
  auto it = expected_replies_.find(env.target_group);
  if (it == expected_replies_.end()) return;
  auto oit = it->second.find(env.op_id);
  if (oit == it->second.end()) return;  // duplicate response: ignore
  if (tracing()) {
    trace_ctx(env.op_id, obs::SpanEvent::ReplyDeliver, env.ctx(),
              "reply_group=" + env.target_group + " from=" +
                  std::to_string(sender));
  }
  orb::Future<cdr::Bytes> future = oit->second;
  it->second.erase(oit);
  if (it->second.empty()) expected_replies_.erase(it);
  try {
    future.resolve(orb::parse_reply(giop::decode(env.giop)));
  } catch (...) {
    future.reject(std::current_exception());
  }
}

void Engine::send_invocation(Envelope env, std::uint32_t rank) {
  queue_send(std::move(env), rank, /*is_response=*/false);
}

void Engine::queue_send(Envelope env, std::uint32_t rank, bool is_response) {
  const std::string totem_group = env.target_group;
  // Replay must not stagger: the timers would interleave with the tape.
  if (recovering_ || !params_.sender_side_suppression || rank == 0 ||
      params_.send_stagger == 0) {
    send_envelope(totem_group, env);
    return;
  }
  auto& table = is_response ? pending_response_sends_ : pending_invocation_sends_;
  const OperationId op = env.op_id;
  if (table.count(op)) return;  // already queued
  PendingSend pending;
  pending.is_response = is_response;
  pending.env = std::move(env);
  pending.timer =
      sim_.after(static_cast<sim::Time>(rank) * params_.send_stagger,
                 [this, op, is_response] {
                   auto& tbl = is_response ? pending_response_sends_
                                           : pending_invocation_sends_;
                   auto it = tbl.find(op);
                   if (it == tbl.end()) return;
                   Envelope env = std::move(it->second.env);
                   tbl.erase(it);
                   send_envelope(env.target_group, env);
                 });
  table.emplace(op, std::move(pending));
}

void Engine::resend_logged_reply(LocalGroup& g, const Envelope& inv) {
  auto it = g.reply_log.find(inv.op_id);
  if (it == g.reply_log.end() || inv.reply_group.empty()) return;
  Envelope resp;
  resp.kind = Kind::Response;
  resp.op_id = inv.op_id;
  resp.target_group = inv.reply_group;
  resp.source_group = g.cfg.name;
  resp.giop = it->second;
  // The resent reply answers the duplicate invocation, so it rides the
  // duplicate's causal context (same trace id as the original).
  resp.trace_id = inv.trace_id;
  resp.parent_span = inv.parent_span;
  const std::uint32_t rank =
      g.cfg.style == Style::Active ? my_rank(g) : 0;
  queue_send(std::move(resp), rank, /*is_response=*/true);
}

void Engine::log_reply(LocalGroup& g, const OperationId& op,
                       cdr::WireBuf reply) {
  const auto [it, fresh] = g.reply_log.emplace(op, std::move(reply));
  if (!fresh) return;
  g.reply_log_order.push_back(it);
  while (g.reply_log_order.size() > params_.reply_log_capacity) {
    g.reply_log.erase(g.reply_log_order.front());
    g.reply_log_order.pop_front();
  }
}

void Engine::remember_op(LocalGroup& g, const OperationId& op) {
  // lint: hotpath — once per delivered operation at every replica
  // lint:allow(hotpath-alloc: dedup set must retain the id — one set node per new operation, reclaimed FIFO at reply_log_capacity below)
  const auto [it, fresh] = g.known_ops.insert(op);
  if (!fresh) return;
  // lint:allow(hotpath-alloc: one FIFO slot per set node, bounded by reply_log_capacity below)
  g.known_ops_order.push_back(it);
  while (g.known_ops_order.size() > params_.reply_log_capacity) {
    g.known_ops.erase(g.known_ops_order.front());
    g.known_ops_order.pop_front();
  }
}

void Engine::send_envelope(const std::string& totem_group,
                           const Envelope& env) {
  if (recovering_) {
    // Replay regenerates every send the pre-crash life made. Responses,
    // updates and marks already had their ordered effect (their deliveries
    // are on the tape); only nested invocations may still await replies —
    // capture those for the finish_recovery() flush, drop the rest.
    if (env.kind == Kind::Invocation) {
      recovery_pending_sends_.push_back(env);
    }
    return;
  }
  ETERNAL_DEBUG("engine", "node ", id(), " send kind=",
                static_cast<int>(env.kind), " op=", env.op_id.str(),
                " totem_group=", totem_group, " target=", env.target_group);
  cdr::Writer w(groups_.arena(), 192 + env.giop.size() + env.update.size() +
                                     env.blob.size());
  encode_envelope_into(w, env);
  groups_.send(totem_group, w.seal(), env.trace_id, env.parent_span);
}

// ---------------------------------------------------------------------------
// Passive state updates
// ---------------------------------------------------------------------------

void Engine::handle_state_update(LocalGroup& g, const Envelope& env) {
  // Retire the corresponding logged invocation everywhere.
  for (auto it = g.invocation_log.begin(); it != g.invocation_log.end();
       ++it) {
    if (it->env.op_id == env.op_id) {
      g.invocation_log.erase(it);
      break;
    }
  }
  remember_op(g, env.op_id);
  if (g.reply_log.count(env.op_id)) return;  // I executed this one myself

  if (env.state_version <= g.state_version &&
      g.cfg.style == Style::WarmPassive) {
    return;  // stale update (already reflected via snapshot)
  }
  if (g.cfg.style == Style::WarmPassive) {
    cdr::Decoder dec(env.update);
    g.replica->apply_update(env.operation, dec);
    g.state_version = env.state_version;
    counters_.state_updates_applied.inc();
    if (tracing()) {
      trace_ctx(env.op_id, obs::SpanEvent::StateUpdateApplied, env.ctx(),
                "group=" + g.cfg.name + " version=" +
                    std::to_string(env.state_version));
    }
  } else if (g.cfg.style == Style::ColdPassive) {
    if (g.pending_updates.emplace(env.op_id, env.update).second) {
      g.pending_update_order.push_back(env.op_id);
      g.pending_update_meta.emplace(
          env.op_id, std::make_pair(env.operation, env.state_version));
    }
  }
  maybe_cut_checkpoint(g);
}

// ---------------------------------------------------------------------------
// Group views, failover, partitions
// ---------------------------------------------------------------------------

void Engine::on_group_view(const totem::GroupView& v) {
  if (view_observer_) view_observer_(v);
  auto it = local_.find(v.group);
  if (it == local_.end()) return;
  LocalGroup& g = it->second;

  const std::vector<NodeId> old_members = g.members;
  const bool was_primary = i_am_primary(g);
  g.members = v.members;
  if (g.members != old_members) {
    journal(obs::EventKind::GroupViewInstalled, v.group,
            "members=" + obs::format_members(v.members) +
                " was=" + obs::format_members(old_members) +
                " ring=" + v.ring.str());
  }

  // Prune synced/history knowledge to the new membership.
  auto prune = [&v](std::set<NodeId>& nodes) {
    for (auto it = nodes.begin(); it != nodes.end();) {
      if (std::find(v.members.begin(), v.members.end(), *it) ==
          v.members.end()) {
        it = nodes.erase(it);
      } else {
        ++it;
      }
    }
  };
  prune(g.synced_set);
  prune(g.history_set);
  for (auto sit = g.member_status.begin(); sit != g.member_status.end();) {
    if (std::find(v.members.begin(), v.members.end(), sit->first) ==
        v.members.end()) {
      sit = g.member_status.erase(sit);
    } else {
      ++sit;
    }
  }

  std::vector<NodeId> gained;
  for (NodeId m : v.members) {
    if (std::find(old_members.begin(), old_members.end(), m) ==
        old_members.end()) {
      gained.push_back(m);
    }
  }

  if (!old_members.empty() && g.members != old_members) {
    // Majority-of-previous rule with lowest-member tiebreak: did the part
    // of the old view that continued with us keep the primary component?
    const auto continued_primary = [&](const std::vector<NodeId>& survivors) {
      const std::size_t half = old_members.size();
      if (2 * survivors.size() > half) return true;
      if (2 * survivors.size() == half) {
        return std::find(survivors.begin(), survivors.end(),
                         old_members.front()) != survivors.end();
      }
      return false;
    };
    if (!gained.empty()) {
      // The group grew: a join, or a partition remerge. A mixed transition
      // (gain + loss in one view change — a flapping partition can re-cut
      // the ring as it merges) first applies the shrink rule: a replica
      // whose continuing component lost the majority of its previous view
      // is secondary no matter what merged in — otherwise both sides of
      // the new cut keep believing they are primary and neither resyncs.
      const auto survivors = intersect(g.members, old_members);
      if (survivors.size() < old_members.size()) {
        const bool before = g.primary_component;
        g.primary_component = g.primary_component && continued_primary(survivors);
        if (before && !g.primary_component) {
          journal(obs::EventKind::PartitionSecondary, v.group,
                  "survivors=" + obs::format_members(survivors) +
                      " of=" + obs::format_members(old_members));
        }
      }
      // Pre-merge synced knowledge is one-sided (the other component never
      // saw our marks), so discard it and rebuild from post-merge ordered
      // messages: synced replicas re-announce their mark, resyncing
      // replicas send joins.
      g.synced_set.clear();
      g.history_set.clear();
      g.member_status.clear();
      // Components reconcile: replicas that were operating in a secondary
      // component discard their state (after queueing fulfillment
      // operations) and re-acquire it from the primary component.
      if (!g.primary_component && g.sync == SyncState::Synced) {
        journal(obs::EventKind::RemergeDetected, v.group,
                "rejoining primary component, fulfillment_backlog=" +
                    std::to_string(g.fulfillment_queue.size()));
        begin_resync(g);
      } else if (g.sync == SyncState::Synced) {
        g.synced_set.insert(id());
        broadcast_synced_mark(g);
      }
      g.primary_component = true;
    } else {
      // The group shrank: crash or partition. At most one component
      // continues as primary.
      const auto survivors = intersect(g.members, old_members);
      const bool before = g.primary_component;
      g.primary_component = g.primary_component && continued_primary(survivors);
      if (before && !g.primary_component) {
        journal(obs::EventKind::PartitionSecondary, v.group,
                "survivors=" + obs::format_members(g.members) +
                    " of=" + obs::format_members(old_members));
      }
    }
  }

  maybe_self_promote(g);
  check_promotion(g, was_primary);
}

void Engine::check_promotion(LocalGroup& g, bool was_primary) {
  // Passive failover: if this replica just became the primary, apply any
  // unapplied (cold) updates and re-invoke the logged-but-unfinished
  // operations under their original identifiers.
  if (was_primary || !i_am_primary(g) || g.cfg.style == Style::Active) {
    return;
  }
  counters_.failovers.inc();
  journal(obs::EventKind::Failover, g.cfg.name,
          "style=" + to_string(g.cfg.style) + " logged_ops=" +
              std::to_string(g.invocation_log.size()) + " pending_updates=" +
              std::to_string(g.pending_update_order.size()));
  if (g.cfg.style == Style::ColdPassive) {
    std::size_t backlog_bytes = 0;
    for (const OperationId& op : g.pending_update_order) {
      auto uit = g.pending_updates.find(op);
      if (uit == g.pending_updates.end()) continue;
      auto mit = g.pending_update_meta.find(op);
      cdr::Decoder dec(uit->second);
      g.replica->apply_update(mit->second.first, dec);
      g.state_version = std::max(g.state_version, mit->second.second);
      backlog_bytes += uit->second.size();
      counters_.state_updates_applied.inc();
    }
    g.pending_updates.clear();
    g.pending_update_order.clear();
    g.pending_update_meta.clear();
    if (params_.update_apply_us_per_kib > 0 && backlog_bytes > 0) {
      // Charge the simulated cost of installing the backlog before the new
      // primary serves (this is what cold-passive recovery pays for).
      const sim::Time cost =
          params_.update_apply_us_per_kib * (backlog_bytes + 1023) / 1024;
      g.exec_hold = true;
      const std::string name = g.cfg.name;
      g.exec_hold_timer = sim_.after(cost, [this, name] {
        auto it = local_.find(name);
        if (it == local_.end()) return;
        it->second.exec_hold = false;
        pump_exec_queue(it->second);
      });
    }
  }
  for (const auto& logged : g.invocation_log) {
    if (g.reply_log.count(logged.env.op_id)) continue;
    if (tracing()) {
      // The retry stays on the original invocation's trace: the logged
      // envelope (identifier and trace context included) is re-executed
      // verbatim, which is what makes failover duplicate-safe.
      trace_ctx(logged.env.op_id, obs::SpanEvent::FailoverRetry,
                logged.env.ctx(),
                "group=" + g.cfg.name + " carrier=" + logged.carrier.str());
    }
    g.exec_queue.emplace_back(logged.env, logged.carrier);
  }
  pump_exec_queue(g);
}

void Engine::begin_resync(LocalGroup& g) {
  journal(obs::EventKind::StateTransferBegin, g.cfg.name,
          "round=" + std::to_string(g.join_round + 1) +
              (g.had_state ? " resync" : " bootstrap"));
  g.sync = SyncState::Unsynced;
  ++g.join_round;
  g.buffered.clear();
  g.snapshot_chunks.clear();
  g.pending_serves.clear();  // we are no longer an eligible donor
  g.running.clear();
  g.exec_queue.clear();
  g.executing = false;
  g.invocation_log.clear();
  g.pending_updates.clear();
  g.pending_update_order.clear();
  g.pending_update_meta.clear();

  Envelope join;
  join.kind = Kind::JoinRequest;
  join.target_group = g.cfg.name;
  join.node = id();
  join.round = g.join_round;
  join.has_history = g.had_state;
  send_envelope(g.cfg.name, join);

  // Retry with a fresh round if no snapshot materialises (donor crashed or
  // none synced yet).
  const std::string name = g.cfg.name;
  g.join_retry_timer.cancel();
  g.join_retry_timer = sim_.after(params_.join_retry, [this, name] {
    auto it = local_.find(name);
    if (it == local_.end()) return;
    if (it->second.sync == SyncState::Synced) return;
    begin_resync(it->second);
  });
}

void Engine::maybe_self_promote(LocalGroup& g) {
  // Deadlock breaker for merges where *no* component held primary state
  // (e.g. a three-way fragmentation): evaluated on ordered events, so all
  // members agree. The lowest member *that held state before its resync*
  // keeps its state and becomes the donor — a fresh, empty joiner must
  // never outrank a state holder. The promoted replica's fulfillment queue
  // is dropped (its state already reflects those operations); the others
  // resync from it and replay theirs.
  if (g.sync == SyncState::Synced) return;
  if (g.members.empty()) return;
  // A replica that knows it sits in a secondary component must not elect
  // itself: the primary component exists elsewhere, and promoting here
  // would fork the group's history (a resyncing singleton serving stale
  // state as "primary"). Merges reset the flag before re-evaluating, so
  // the no-component-held-primary deadlock this breaker exists for is
  // still broken post-merge.
  if (!g.primary_component) return;
  // Wait until every member has declared its post-merge status; the
  // declarations are totally ordered, so all members decide identically.
  for (NodeId m : g.members) {
    if (!g.member_status.count(m)) return;
  }
  for (NodeId m : g.members) {
    if (g.synced_set.count(m)) return;  // somebody authoritative exists
  }
  // Only a member that *held state before its resync* may promote; a fresh
  // replica waits for a state holder (no bootstrap fallback — bootstrap
  // replicas are marked initial at creation and never pass through here).
  NodeId leader = 0;
  bool any_history = false;
  for (NodeId m : g.members) {
    if (g.history_set.count(m)) {
      leader = m;
      any_history = true;
      break;  // members is sorted: first hit is the lowest
    }
  }
  if (!any_history || leader != id()) return;
  journal(obs::EventKind::SelfPromotion, g.cfg.name,
          "members=" + obs::format_members(g.members) +
              " dropped_fulfillment=" +
              std::to_string(g.fulfillment_queue.size()));
  g.join_retry_timer.cancel();
  g.sync = SyncState::Synced;
  g.had_state = true;
  g.primary_component = true;
  g.fulfillment_queue.clear();
  g.synced_set.insert(id());
  broadcast_synced_mark(g);
}

void Engine::replay_fulfillment(LocalGroup& g) {
  if (g.fulfillment_queue.empty()) return;
  const std::uint32_t rank = my_rank(g);
  while (!g.fulfillment_queue.empty()) {
    Envelope env = std::move(g.fulfillment_queue.front());
    g.fulfillment_queue.pop_front();
    env.fulfillment = true;
    env.op_id.op_seq += kFulfillSeqOffset;
    counters_.fulfillment_replayed.inc();
    if (tracing()) {
      trace_ctx(env.op_id, obs::SpanEvent::FulfillmentReplayed, env.ctx(),
                "group=" + g.cfg.name);
    }
    send_invocation(std::move(env), rank);
  }
}

// ---------------------------------------------------------------------------
// State transfer (three tiers)
// ---------------------------------------------------------------------------

void Engine::handle_join_request(LocalGroup& g, const Envelope& env) {
  const bool was_primary = i_am_primary(g);
  g.synced_set.erase(env.node);
  g.member_status[env.node] = false;
  if (env.has_history) {
    g.history_set.insert(env.node);
  } else {
    g.history_set.erase(env.node);
  }
  check_promotion(g, was_primary);

  if (env.node == id()) {
    // Our own marker came back in total order: this is the point the
    // donor's snapshot will describe. Start buffering everything after it.
    if (env.round == g.join_round && g.sync == SyncState::Unsynced) {
      g.sync = SyncState::AwaitingSnapshot;
      g.buffered.clear();
      g.snapshot_chunks.clear();
      g.snapshot_donor = 0;
    }
    maybe_self_promote(g);
    return;
  }

  maybe_self_promote(g);

  if (g.sync != SyncState::Synced) return;
  // Donor = lowest synced member (consistent at all replicas, since the
  // synced set is derived from the same ordered marks).
  NodeId donor = id();
  for (NodeId m : g.members) {
    if (g.synced_set.count(m)) {
      donor = m;
      break;
    }
  }
  if (donor != id()) return;
  // The marker fixes the prefix the snapshot must describe, but an
  // execution delivered *before* the marker may still be suspended awaiting
  // nested invocations — its state mutation lands only when the coroutine
  // completes, after this point. Cutting now would exclude that effect
  // while the joiner (which buffers only post-marker deliveries) has
  // already discarded its own copy: the operation would be lost on the
  // joiner forever. Defer the cut until those executions drain. Anything
  // post-marker that completes meanwhile is covered by the reply log inside
  // the snapshot, which suppresses the joiner's buffered duplicates.
  LocalGroup::PendingServe serve;
  serve.joiner = env.node;
  serve.round = env.round;
  for (const auto& [op, ex] : g.running) {
    if (!ex->read_only) serve.waiting.insert(op);
  }
  if (serve.waiting.empty()) {
    serve_snapshot(g, env.node, env.round);
    return;
  }
  // A rejoining node retries with a fresh round; a stale deferral must not
  // fire a second (earlier) snapshot at it.
  std::erase_if(g.pending_serves, [&](const LocalGroup::PendingServe& p) {
    return p.joiner == env.node;
  });
  g.pending_serves.push_back(std::move(serve));
}

void Engine::flush_pending_serves(LocalGroup& g, const OperationId& done) {
  for (std::size_t i = 0; i < g.pending_serves.size();) {
    LocalGroup::PendingServe& p = g.pending_serves[i];
    p.waiting.erase(done);
    if (!p.waiting.empty()) {
      ++i;
      continue;
    }
    const std::uint32_t joiner = p.joiner;
    const std::uint32_t round = p.round;
    g.pending_serves.erase(g.pending_serves.begin() +
                           static_cast<std::ptrdiff_t>(i));
    // The donor may itself have lost sync while draining; the joiner's
    // retry timer finds a new donor in that case.
    if (g.sync == SyncState::Synced) serve_snapshot(g, joiner, round);
  }
}

void Engine::serve_snapshot(LocalGroup& g, std::uint32_t joiner,
                            std::uint32_t round) {
  // Captured at the (ordered) marker once every pre-marker execution has
  // completed (handle_join_request defers the cut while nested invocations
  // are suspended in flight). Processing never stops — the paper's
  // "transfer while operating" requirement — and ops that complete between
  // the marker and a deferred cut are safe: their replies ride in the
  // snapshot's reply log, so the joiner suppresses its buffered copies.
  cdr::Arena arena;  // the node arena frames the chunk envelopes below
  cdr::Writer snapshot(arena);
  encode_checkpoint(g, snapshot, nullptr);
  const std::span<const std::uint8_t> blob = snapshot.written();
  counters_.snapshots_served.inc();
  const std::uint32_t chunk = params_.snapshot_chunk_bytes;
  const std::uint32_t count =
      std::max<std::uint32_t>(1, static_cast<std::uint32_t>(
                                     (blob.size() + chunk - 1) / chunk));
  for (std::uint32_t i = 0; i < count; ++i) {
    Envelope env;
    env.kind = Kind::Snapshot;
    env.target_group = g.cfg.name;
    env.node = joiner;
    env.round = round;
    env.chunk_index = i;
    env.chunk_count = count;
    const std::size_t lo = static_cast<std::size_t>(i) * chunk;
    const std::size_t hi = std::min(blob.size(), lo + chunk);
    env.blob = cdr::WireBuf(
        std::span<const std::uint8_t>(blob.data() + lo, hi - lo));
    send_envelope(g.cfg.name, env);
  }
}

void Engine::handle_snapshot(LocalGroup& g, const Envelope& env) {
  if (env.node != id()) return;
  if (g.sync != SyncState::AwaitingSnapshot || env.round != g.join_round) {
    return;
  }
  g.snapshot_chunks[env.chunk_index] = env.blob;
  if (g.snapshot_chunks.size() < env.chunk_count) return;

  Bytes blob;
  for (auto& [idx, chunk] : g.snapshot_chunks) {
    blob.insert(blob.end(), chunk.data(), chunk.data() + chunk.size());
  }
  g.snapshot_chunks.clear();
  apply_checkpoint(g, blob);
  counters_.snapshots_applied.inc();
  complete_sync(g);
}

void Engine::complete_sync(LocalGroup& g) {
  journal(obs::EventKind::StateTransferEnd, g.cfg.name,
          "version=" + std::to_string(g.state_version) + " buffered=" +
              std::to_string(g.buffered.size()) + " fulfillment_backlog=" +
              std::to_string(g.fulfillment_queue.size()));
  const bool was_primary = i_am_primary(g);
  g.join_retry_timer.cancel();
  g.sync = SyncState::Synced;
  g.had_state = true;
  g.primary_component = true;
  g.synced_set.insert(id());
  broadcast_synced_mark(g);

  // Replay everything that was delivered after the marker, in order.
  g.replaying_buffer = true;
  auto buffered = std::move(g.buffered);
  g.buffered.clear();
  for (auto& [env, carrier] : buffered) {
    if (env.kind == Kind::Invocation) {
      handle_invocation(g, env, carrier);
    } else if (env.kind == Kind::StateUpdate) {
      handle_state_update(g, env);
    }
  }
  g.replaying_buffer = false;

  // If this replica operated in a secondary component before resyncing,
  // its recorded operations are now replayed onto the merged state.
  replay_fulfillment(g);
  check_promotion(g, was_primary);
}

void Engine::broadcast_synced_mark(LocalGroup& g) {
  Envelope mark;
  mark.kind = Kind::SyncedMark;
  mark.target_group = g.cfg.name;
  mark.node = id();
  mark.state_version = g.state_version;
  send_envelope(g.cfg.name, mark);
}

void Engine::handle_synced_mark(LocalGroup& g, const Envelope& env) {
  const bool was_primary = i_am_primary(g);
  g.synced_set.insert(env.node);
  g.member_status[env.node] = true;
  // Staleness backstop (active style): every synced active replica executes
  // the same ordered prefix, so a sibling's mark carrying a state version
  // beyond what ours can still reach (our version plus our in-flight
  // mutating executions) means we missed ordered operations — e.g. the
  // ring re-formed around us while our member set never changed, so no
  // remerge reconciliation ever fired and we kept serving stale state as
  // "synced". The check must run at the ordered mark delivery itself: a
  // deferred version comparison is defeated by post-merge traffic, which
  // advances the stale replica's version *counter* past the suspect value
  // while the missed operation's effect stays absent forever.
  // Disk-recovered replicas of any style may hold durable prefixes of
  // different lengths (per-node sync timing), so the backstop extends to
  // them until the marks reconcile the survivors.
  if ((g.cfg.style == Style::Active || g.recovered) && env.node != id() &&
      g.sync == SyncState::Synced && env.state_version > g.state_version) {
    std::uint64_t inflight_mutations = 0;
    for (const auto& [op, ex] : g.running) {
      if (ex && !ex->read_only) ++inflight_mutations;
    }
    if (env.state_version > g.state_version + inflight_mutations) {
      journal(obs::EventKind::RemergeDetected, g.cfg.name,
              "stale synced replica: version=" +
                  std::to_string(g.state_version) + " behind mark=" +
                  std::to_string(env.state_version) + " from node " +
                  std::to_string(env.node) + ", resync");
      begin_resync(g);
      return;
    }
  }
  check_promotion(g, was_primary);
}

// ---------------------------------------------------------------------------
// Divergence oracle (see rep/oracle.hpp)
// ---------------------------------------------------------------------------

void Engine::send_state_digest(LocalGroup& g, const OperationId& op,
                               const std::string& op_name) {
  Envelope dig;
  dig.kind = Kind::StateDigest;
  dig.op_id = op;
  dig.target_group = g.cfg.name;
  dig.source_group = g.cfg.name;
  dig.state_version = g.state_version;
  dig.operation = op_name;
  dig.node = id();
  dig.digest = digest_state(*g.replica, g.state_version);
  counters_.state_digests_sent.inc();
  if (tracing()) {
    trace(op, obs::SpanEvent::StateDigestSent,
          "group=" + g.cfg.name + " version=" +
              std::to_string(g.state_version) + " digest=" +
              std::to_string(dig.digest));
  }
  send_envelope(g.cfg.name, dig);
}

void Engine::handle_state_digest(LocalGroup& g, const Envelope& env) {
  auto report = oracle_.observe(g.cfg.name, env.op_id, env.node, env.digest,
                                env.state_version);
  if (!report) return;
  // The digests rode the total order, so every engine hosting the group
  // convicts the same operation with the same reference/diverged pair.
  counters_.divergences_detected.inc();
  journal(obs::EventKind::DivergenceDetected, g.cfg.name, report->str());
  if (tracing()) {
    trace(env.op_id, obs::SpanEvent::DivergenceDetected,
          "group=" + g.cfg.name + " " + report->str());
  }
  if (divergence_observer_) divergence_observer_(*report);
}

void Engine::encode_checkpoint(const LocalGroup& g, cdr::Writer& out,
                               CheckpointSizes* sizes) const {
  // Three tiers, each an octet sequence written in place.

  // Tier 1: application state.
  out.begin_octet_seq();
  g.replica->get_state(out);
  const std::size_t application = out.end_octet_seq();

  // Tier 2: ORB state — the reply log and executed-operation set, both
  // oldest first so a restored replica evicts them in the same order as
  // its siblings; without them it would re-execute or fail to answer
  // retries.
  out.begin_octet_seq();
  out.put_ulong(static_cast<std::uint32_t>(g.reply_log_order.size()));
  for (const auto& entry : g.reply_log_order) {
    const OperationId& op = entry->first;
    out.put_ulonglong(op.parent.epoch);
    out.put_ulonglong(op.parent.seq);
    out.put_ulonglong(op.op_seq);
    out.put_octet_seq(entry->second.span());
  }
  out.put_ulong(static_cast<std::uint32_t>(g.known_ops_order.size()));
  for (const auto& known : g.known_ops_order) {
    const OperationId& op = *known;
    out.put_ulonglong(op.parent.epoch);
    out.put_ulonglong(op.parent.seq);
    out.put_ulonglong(op.op_seq);
  }
  const std::size_t orb = out.end_octet_seq();

  // Tier 3: infrastructure state — versions, the passive invocation log
  // (each envelope written in place as an octet sequence), and the synced
  // set.
  out.begin_octet_seq();
  out.put_ulonglong(g.state_version);
  out.put_ulong(static_cast<std::uint32_t>(g.invocation_log.size()));
  for (const auto& logged : g.invocation_log) {
    out.begin_octet_seq();
    encode_envelope_into(out, logged.env);
    out.end_octet_seq();
    out.put_ulonglong(logged.carrier.epoch);
    out.put_ulonglong(logged.carrier.seq);
  }
  out.put_ulong(static_cast<std::uint32_t>(g.synced_set.size()));
  for (NodeId n : g.synced_set) out.put_ulong(n);
  const std::size_t infrastructure = out.end_octet_seq();

  if (sizes) {
    sizes->application = application;
    sizes->orb = orb;
    sizes->infrastructure = infrastructure;
  }
}

void Engine::apply_checkpoint(LocalGroup& g, const Bytes& blob) {
  cdr::Decoder dec(blob);
  const Bytes tier1 = dec.get_octet_seq();
  const Bytes tier2 = dec.get_octet_seq();
  const Bytes tier3 = dec.get_octet_seq();

  {
    cdr::Decoder d1(tier1);
    g.replica->set_state(d1);
  }
  {
    cdr::Decoder d2(tier2);
    g.reply_log.clear();
    g.reply_log_order.clear();
    g.known_ops.clear();
    g.known_ops_order.clear();
    const std::uint32_t replies = d2.get_ulong();
    for (std::uint32_t i = 0; i < replies; ++i) {
      OperationId op;
      op.parent.epoch = d2.get_ulonglong();
      op.parent.seq = d2.get_ulonglong();
      op.op_seq = d2.get_ulonglong();
      const auto [it, fresh] = g.reply_log.emplace(op, d2.get_octet_seq_buf());
      if (fresh) g.reply_log_order.push_back(it);
    }
    const std::uint32_t known = d2.get_ulong();
    for (std::uint32_t i = 0; i < known; ++i) {
      OperationId op;
      op.parent.epoch = d2.get_ulonglong();
      op.parent.seq = d2.get_ulonglong();
      op.op_seq = d2.get_ulonglong();
      remember_op(g, op);
    }
  }
  {
    cdr::Decoder d3(tier3);
    g.state_version = d3.get_ulonglong();
    g.invocation_log.clear();
    const std::uint32_t logged = d3.get_ulong();
    for (std::uint32_t i = 0; i < logged; ++i) {
      LoggedInvocation entry;
      entry.env = decode_envelope(cdr::WireBuf(d3.get_octet_seq()));
      entry.carrier.epoch = d3.get_ulonglong();
      entry.carrier.seq = d3.get_ulonglong();
      g.invocation_log.push_back(std::move(entry));
    }
    g.synced_set.clear();
    const std::uint32_t synced = d3.get_ulong();
    for (std::uint32_t i = 0; i < synced; ++i) {
      g.synced_set.insert(d3.get_ulong());
    }
  }
}

}  // namespace eternal::rep
