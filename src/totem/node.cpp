#include "totem/node.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "obs/journal.hpp"
#include "obs/trace.hpp"

namespace eternal::totem {

namespace {
constexpr std::uint64_t kNoAru = std::numeric_limits<std::uint64_t>::max();

std::vector<NodeId> intersect(const std::vector<NodeId>& a,
                              const std::vector<NodeId>& b) {
  std::vector<NodeId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}
}  // namespace

NodeCounters::NodeCounters(obs::Registry& reg, NodeId id)
    : broadcasts(reg.counter(obs::node_metric("totem", "broadcasts", id))),
      delivered(reg.counter(obs::node_metric("totem", "delivered", id))),
      retransmissions(
          reg.counter(obs::node_metric("totem", "retransmissions", id))),
      token_visits(reg.counter(obs::node_metric("totem", "token_visits", id))),
      token_losses(reg.counter(obs::node_metric("totem", "token_losses", id))),
      views_installed(
          reg.counter(obs::node_metric("totem", "views_installed", id))),
      batch_frames(
          reg.counter(obs::node_metric("totem", "batch_frames", id))),
      malformed_dropped(
          reg.counter(obs::node_metric("totem", "malformed_dropped", id))) {}

void NodeCounters::reset() noexcept {
  broadcasts.reset();
  delivered.reset();
  retransmissions.reset();
  token_visits.reset();
  token_losses.reset();
  views_installed.reset();
  batch_frames.reset();
  malformed_dropped.reset();
}

NodeStats NodeCounters::snapshot() const noexcept {
  return NodeStats{broadcasts.value(),   delivered.value(),
                   retransmissions.value(), token_visits.value(),
                   token_losses.value(), views_installed.value(),
                   batch_frames.value(), malformed_dropped.value()};
}

Node::Node(sim::Simulation& sim, sim::Network& net, NodeId id, Params params)
    : sim_(sim), net_(net), id_(id), params_(params),
      counters_(obs::Registry::global(), id) {
  counters_.reset();
}

void Node::start() {
  if (state_ != State::Down) return;
  state_ = State::Gather;  // enter_gather requires a non-Down state
  enter_gather();
  // Periodic ring announcement: lets disjoint rings discover each other
  // once the network remerges. Runs for the life of the node.
  announce_timer_ = sim_.after(local(params_.announce_interval),
                               [this] { announce_tick(); });
}

void Node::announce_tick() {
  if (state_ == State::Down) return;
  if (state_ == State::Operational) {
    Packet pkt;
    pkt.kind = MsgKind::RingAnnounce;
    pkt.announce = RingAnnounceMsg{id_, cur_.id, cur_.members};
    multicast(pkt);
  }
  announce_timer_ = sim_.after(local(params_.announce_interval),
                               [this] { announce_tick(); });
}

void Node::halt() {
  state_ = State::Down;
  cancel_token_timers();
  join_timer_.cancel();
  consensus_timer_.cancel();
  commit_timer_.cancel();
  announce_timer_.cancel();
}

void Node::restart() {
  if (state_ != State::Down) return;
  cur_ = RingState{};
  old_.reset();
  pending_.clear();
  recovery_pending_.clear();
  last_join_.clear();
  candidates_.clear();
  last_token_id_ = 0;
  last_sent_token_.reset();
  recovery_done_from_.clear();
  commit_pass2_seen_ = false;
  start();
}

void Node::broadcast(std::string_view group, cdr::WireBuf payload,
                     bool control, std::uint64_t trace_id,
                     std::uint64_t parent_span) {
  DataMsg d;
  d.origin = id_;
  d.flags = control ? kFlagControl : 0;
  if (trace_id != 0) {
    d.flags |= kFlagTraced;
    d.trace_id = trace_id;
    d.parent_span = parent_span;
  }
  d.group = group_buf(group);
  d.payload = std::move(payload);
  pending_.push_back(std::move(d));
}

void Node::on_receive(NodeId /*from*/, const sim::Frame& wire) {
  // lint: hotpath — every datagram enters here. The scratch Packet reuses
  // its vectors' capacity across frames; payloads are slices of `wire`.
  if (state_ == State::Down) return;
  try {
    decode_packet_into(rx_pkt_, wire);
  } catch (const cdr::MarshalError&) {
    // A corrupt or hostile datagram stops here: dropped and counted, never
    // thrown past the ring.
    counters_.malformed_dropped.inc();
    return;
  }
  switch (rx_pkt_.kind) {
    case MsgKind::Data: handle_data(rx_pkt_.data); break;
    case MsgKind::Batch: handle_batch(rx_pkt_.batch); break;
    case MsgKind::Token: handle_token(rx_pkt_.token); break;
    case MsgKind::Join: handle_join(rx_pkt_.join); break;
    case MsgKind::Commit: handle_commit(rx_pkt_.commit); break;
    case MsgKind::RingAnnounce: handle_announce(rx_pkt_.announce); break;
  }
}

// ---------------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------------

void Node::store_data(const DataMsg& d) {
  // lint: hotpath — every frame passes through here, batched or not
  RingState* rs = nullptr;
  if (d.ring == cur_.id && cur_.id.valid()) {
    rs = &cur_;
  } else if (old_ && d.ring == old_->id) {
    rs = &*old_;
  } else {
    return;  // foreign or obsolete ring
  }
  if (d.seq <= rs->delivered || rs->received.count(d.seq)) return;  // dup
  // lint:allow(hotpath-alloc: ordered-store map node only; group and payload are both refcounted frame slices, so storing the message shares the arriving frame's bytes)
  rs->received.emplace(d.seq, d);
  rs->high = std::max(rs->high, d.seq);
  while (rs->received.count(rs->my_aru + 1)) ++rs->my_aru;
}

void Node::handle_data(const DataMsg& d) {
  // lint: hotpath
  const bool on_current =
      cur_.id.valid() && d.ring == cur_.id &&
      (state_ == State::Operational || state_ == State::Recovery);
  store_data(d);
  if (!on_current) return;
  // Traffic on my ring is evidence the token survived its last hop.
  if (last_sent_token_ && d.seq > last_sent_token_->seq) {
    token_retransmit_timer_.cancel();
  }
  if (token_loss_timer_.active()) {
    token_loss_timer_.cancel();
    arm_token_loss();
  }
  try_deliver();
}

void Node::handle_batch(const BatchMsg& b) {
  // lint: hotpath
  // Unpack before anything else: each inner message is stored individually,
  // so retransmission, aru accounting and recovery never see batches.
  const bool on_current =
      cur_.id.valid() && b.ring == cur_.id &&
      (state_ == State::Operational || state_ == State::Recovery);
  std::uint64_t high = 0;
  for (const DataMsg& d : b.msgs) {
    store_data(d);
    high = std::max(high, d.seq);
  }
  if (!on_current) return;
  if (last_sent_token_ && high > last_sent_token_->seq) {
    token_retransmit_timer_.cancel();
  }
  if (token_loss_timer_.active()) {
    token_loss_timer_.cancel();
    arm_token_loss();
  }
  try_deliver();
}

void Node::try_deliver() {
  // lint: hotpath
  const std::uint64_t limit =
      params_.safe_delivery ? std::min(cur_.my_aru, cur_.safe) : cur_.my_aru;
  if (cur_.delivered >= limit) return;
  // Deliverable messages form a contiguous run of keys: find the head once
  // and walk the ordered map, instead of one lookup per message. Batched
  // runs (a token visit landing max_batch messages at once) drain in a
  // single sweep. Dispatch never erases from `received` (GC happens after),
  // so the iterator stays valid across handler re-entry.
  auto it = cur_.received.find(cur_.delivered + 1);
  while (cur_.delivered < limit && it != cur_.received.end() &&
         it->first == cur_.delivered + 1) {
    ++cur_.delivered;
    // Not movable: the message must stay in `received` to serve
    // retransmission requests until it is safe-GC'd.
    dispatch(it->second, /*transitional=*/false, /*movable=*/false);
    if (state_ == State::Down) return;  // a handler halted us
    ++it;
  }
}

void Node::dispatch(DataMsg& d, bool transitional, bool movable) {
  // lint: hotpath — final hop of the delivery path
  if (d.flags & kFlagRecovery) {
    // A re-broadcast message from an earlier configuration: unwrap and file
    // it under that configuration so the flush can deliver it in old order.
    DataMsg inner = decode_data_payload(d.payload);
    store_data(inner);
    return;
  }
  if (group_view(d.group) == kRecoveryDoneGroup) {
    if (d.ring != cur_.id) return;  // stale marker from a flushed ring
    // lint:allow(hotpath-alloc: membership change only, never steady state)
    recovery_done_from_.insert(d.origin);
    if (state_ == State::Recovery) {
      bool all = true;
      for (NodeId m : cur_.members) {
        if (!recovery_done_from_.count(m)) { all = false; break; }
      }
      if (all) complete_recovery();
    }
    return;
  }
  counters_.delivered.inc();
  if (deliver_) {
    Delivered ev;
    ev.ring = d.ring;
    ev.seq = d.seq;
    ev.origin = d.origin;
    ev.control = (d.flags & kFlagControl) != 0;
    ev.transitional = transitional;
    ev.group = movable ? std::move(d.group) : d.group;
    ev.payload = movable ? std::move(d.payload) : d.payload;
    deliver_(std::move(ev));
  }
}

// ---------------------------------------------------------------------------
// Token path
// ---------------------------------------------------------------------------

sim::Time Node::token_loss_timeout() const {
  return params_.token_loss +
         params_.token_loss_per_member * cur_.members.size();
}

void Node::arm_token_loss() {
  token_loss_timer_ = sim_.after(local(token_loss_timeout()), [this] {
    if (state_ != State::Operational && state_ != State::Recovery) return;
    counters_.token_losses.inc();
    ETERNAL_DEBUG("totem", "node ", id_, " token loss on ring ",
                  cur_.id.str());
    obs::Journal::global().emit(sim_.now(), id_, obs::EventKind::TokenLoss,
                                cur_.id.str(),
                                "members=" + obs::format_members(cur_.members));
    enter_gather();
  });
}

void Node::cancel_token_timers() {
  token_loss_timer_.cancel();
  token_retransmit_timer_.cancel();
  token_hold_timer_.cancel();
}

void Node::handle_token(TokenMsg t) {
  // lint: hotpath — one visit per token rotation; sends, arus, and GC
  if (state_ != State::Operational && state_ != State::Recovery) return;
  if (!(t.ring == cur_.id) || t.dest != id_) return;
  if (t.token_id <= last_token_id_) return;  // duplicate/stale token
  last_token_id_ = t.token_id;
  counters_.token_visits.inc();
  token_loss_timer_.cancel();
  token_retransmit_timer_.cancel();

  // Rotation boundary: the lowest-id member publishes the minimum aru of the
  // rotation that just completed as the new safe point.
  if (!cur_.members.empty() && id_ == cur_.members.front()) {
    if (t.accum_min != kNoAru) {
      t.safe_seq = std::max(t.safe_seq, t.accum_min);
    }
    t.accum_min = kNoAru;
  }

  // Service retransmission requests we can satisfy.
  std::vector<std::uint64_t> still_missing;
  for (std::uint64_t s : t.retransmit) {
    auto it = cur_.received.find(s);
    if (it != cur_.received.end()) {
      Packet pkt;
      pkt.kind = MsgKind::Data;
      pkt.data = it->second;
      multicast(pkt);
      counters_.retransmissions.inc();
    } else {
      // lint:allow(hotpath-alloc: grows only under message loss; the steady-state list is empty and an empty vector never allocates)
      still_missing.push_back(s);
    }
  }

  // Broadcast pending messages, recovery rebroadcasts first. The window
  // caps *frames* per token visit. Recovery rebroadcasts always go as plain
  // Data frames (they carry old-ring coordinates) and may use the whole
  // window: recovery must finish fast. Fresh sends are packed up to
  // max_batch messages per Batch frame; with batching on, a node also
  // limits itself to a fair share of the window so the token keeps rotating
  // quickly while several members drain backlogs.
  std::uint32_t budget = params_.window;
  obs::Tracer& tracer = obs::Tracer::global();
  auto visit_span = [&](const DataMsg& d) {
    if (tracer.enabled() && (d.flags & kFlagTraced)) {
      tracer.span(sim_.now(), sim_.now(), id_, obs::OpRef{},
                  obs::SpanEvent::TokenVisitSend,
                  {d.trace_id, d.parent_span},
                  // lint:allow(hotpath-alloc: traced frames only, off in production-shaped runs)
                  "seq=" + std::to_string(d.seq));
    }
  };
  auto send_from = [&](std::deque<DataMsg>& queue) {
    while (budget > 0 && !queue.empty()) {
      DataMsg d = std::move(queue.front());
      queue.pop_front();
      d.ring = cur_.id;
      d.seq = ++t.seq;
      visit_span(d);
      Packet pkt;
      pkt.kind = MsgKind::Data;
      pkt.data = d;
      multicast(pkt);
      counters_.broadcasts.inc();
      --budget;
      store_data(d);  // self-delivery
    }
  };
  send_from(recovery_pending_);
  if (state_ == State::Operational) {
    if (params_.max_batch <= 1) {
      send_from(pending_);  // batching disabled: the seed's exact behaviour
    } else {
      std::uint32_t fair = budget;
      if (cur_.members.size() > 1) {
        fair = std::min(
            budget,
            std::max<std::uint32_t>(
                1, params_.window /
                       static_cast<std::uint32_t>(cur_.members.size())));
      }
      while (fair > 0 && !pending_.empty()) {
        Packet pkt;
        pkt.kind = MsgKind::Batch;
        pkt.batch.ring = cur_.id;
        pkt.batch.origin = id_;
        pkt.batch.msgs.reserve(
            std::min<std::size_t>(params_.max_batch, pending_.size()));
        while (pkt.batch.msgs.size() < params_.max_batch &&
               !pending_.empty()) {
          DataMsg d = std::move(pending_.front());
          pending_.pop_front();
          d.ring = cur_.id;
          d.seq = ++t.seq;
          visit_span(d);
          counters_.broadcasts.inc();
          // lint:allow(hotpath-alloc: moves into capacity reserved above)
          pkt.batch.msgs.push_back(std::move(d));
        }
        if (pkt.batch.msgs.size() == 1) {
          // A lone message goes as a plain Data frame: on quiet paths the
          // wire looks exactly as it did before batching existed.
          pkt.kind = MsgKind::Data;
          pkt.data = std::move(pkt.batch.msgs.front());
          pkt.batch.msgs.clear();
          multicast(pkt);
          store_data(pkt.data);  // self-delivery
        } else {
          multicast(pkt);
          counters_.batch_frames.inc();
          for (const DataMsg& d : pkt.batch.msgs) store_data(d);
        }
        --fair;
        --budget;
      }
    }
  }

  // Request what we are missing below the highest assigned seq.
  for (std::uint64_t s = cur_.my_aru + 1;
       s <= t.seq && still_missing.size() < params_.max_retransmit_entries;
       ++s) {
    if (!cur_.received.count(s) &&
        std::find(still_missing.begin(), still_missing.end(), s) ==
            still_missing.end()) {
      // lint:allow(hotpath-alloc: grows only under message loss, bounded by max_retransmit_entries; empty in steady state)
      still_missing.push_back(s);
    }
  }
  t.retransmit = std::move(still_missing);

  t.accum_min = std::min(t.accum_min, cur_.my_aru);
  cur_.safe = std::max(cur_.safe, t.safe_seq);

  try_deliver();
  if (state_ == State::Down) return;

  // Garbage-collect messages that are both delivered locally and stable at
  // every member; nobody can request them again and no recovery needs them.
  const std::uint64_t gc = std::min(cur_.safe, cur_.delivered);
  while (!cur_.received.empty() && cur_.received.begin()->first <= gc) {
    cur_.received.erase(cur_.received.begin());
  }

  forward_token(std::move(t));
}

void Node::forward_token(TokenMsg t) {
  // lint: hotpath — runs once per token visit
  t.dest = next_member(cur_.members, id_);
  t.token_id += 1;
  token_hold_timer_ = sim_.after(local(params_.token_hold), [this, t] {
    if (state_ != State::Operational && state_ != State::Recovery) return;
    if (!(t.ring == cur_.id)) return;
    Packet pkt;
    pkt.kind = MsgKind::Token;
    pkt.token = t;
    unicast(t.dest, pkt);
    last_sent_token_ = t;
    // Retransmit the token if we see no evidence the next member got it.
    // The resend state lives in last_sent_token_, so the timer closure
    // captures only `this` (fits the std::function inline storage).
    token_retransmit_timer_ =
        sim_.after(local(params_.token_retransmit), [this] { resend_token(); });
    arm_token_loss();
  });
}

void Node::resend_token() {
  // lint: hotpath — armed every visit, fires only when the ring stalls
  if (state_ != State::Operational && state_ != State::Recovery) return;
  if (!last_sent_token_ || !(last_sent_token_->ring == cur_.id)) return;
  Packet pkt;
  pkt.kind = MsgKind::Token;
  pkt.token = *last_sent_token_;
  unicast(pkt.token.dest, pkt);
  token_retransmit_timer_ =
      sim_.after(local(params_.token_retransmit), [this] { resend_token(); });
}

// ---------------------------------------------------------------------------
// Membership: gather / consensus / commit / recovery
// ---------------------------------------------------------------------------

void Node::enter_gather() {
  if (state_ == State::Down) return;
  cancel_token_timers();
  commit_timer_.cancel();
  join_timer_.cancel();
  consensus_timer_.cancel();

  if (cur_.id.valid()) {
    max_epoch_seen_ = std::max(max_epoch_seen_, cur_.id.epoch);
    if (!old_) {
      old_ = std::move(cur_);
    }
    cur_ = RingState{};
  }
  state_ = State::Gather;
  last_token_id_ = 0;
  last_sent_token_.reset();
  recovery_done_from_.clear();
  commit_pass2_seen_ = false;

  candidates_ = {id_};
  candidates_stable_since_ = sim_.now();
  send_join();

  join_timer_ =
      sim_.after(local(params_.join_interval), [this] { join_tick(); });
  consensus_timer_ =
      sim_.after(local(params_.join_interval), [this] { consensus_tick(); });
}

void Node::join_tick() {
  if (state_ != State::Gather) return;
  send_join();
  join_timer_ =
      sim_.after(local(params_.join_interval), [this] { join_tick(); });
}

void Node::consensus_tick() {
  if (state_ != State::Gather) return;
  try_consensus();
  if (state_ != State::Gather) return;
  consensus_timer_ =
      sim_.after(local(params_.join_interval), [this] { consensus_tick(); });
}

void Node::send_join() {
  Packet pkt;
  pkt.kind = MsgKind::Join;
  pkt.join = JoinMsg{id_, candidates_, max_epoch_seen_};
  multicast(pkt);
}

void Node::recompute_candidates() {
  // Any processor whose Join we heard recently is a candidate; mutual
  // acknowledgment is enforced by the consensus condition (everyone's last
  // Join must list exactly the same candidate set), not here.
  std::vector<NodeId> fresh{id_};
  for (const auto& [node, rec] : last_join_) {
    if (node == id_) continue;
    if (sim_.now() - rec.when > local(params_.join_freshness)) continue;
    fresh.push_back(node);
  }
  std::sort(fresh.begin(), fresh.end());
  if (fresh != candidates_) {
    candidates_ = std::move(fresh);
    candidates_stable_since_ = sim_.now();
    send_join();  // accelerate convergence
  }
}

void Node::handle_join(const JoinMsg& j) {
  last_join_[j.sender] = JoinRecord{sim_.now(), j.candidates, j.max_epoch};
  max_epoch_seen_ = std::max(max_epoch_seen_, j.max_epoch);
  switch (state_) {
    case State::Down:
      return;
    case State::Gather:
      recompute_candidates();
      return;
    case State::Operational:
      // Someone wants a membership change (new node, foreign ring, or a
      // member that lost the token). Join the gathering.
      enter_gather();
      return;
    case State::Commit:
    case State::Recovery:
      // Stragglers from the gathering we just left are expected; an
      // outsider means the membership is already stale.
      if (std::find(cur_.members.begin(), cur_.members.end(), j.sender) ==
              cur_.members.end() &&
          std::find(candidates_.begin(), candidates_.end(), j.sender) ==
              candidates_.end()) {
        enter_gather();
      }
      return;
  }
}

void Node::try_consensus() {
  if (state_ != State::Gather) return;
  recompute_candidates();
  if (sim_.now() - candidates_stable_since_ < local(params_.consensus_timeout)) {
    return;
  }
  for (NodeId p : candidates_) {
    if (p == id_) continue;
    auto it = last_join_.find(p);
    if (it == last_join_.end() || it->second.candidates != candidates_) {
      return;
    }
  }
  // Consensus reached: stop gathering; lowest id drives the commit.
  join_timer_.cancel();
  consensus_timer_.cancel();
  state_ = State::Commit;
  commit_timer_.cancel();
  commit_timer_ = sim_.after(local(params_.commit_timeout), [this] {
    if (state_ == State::Commit) enter_gather();
  });
  if (id_ == candidates_.front()) {
    build_and_send_commit();
  }
}

void Node::build_and_send_commit() {
  CommitMsg c;
  c.ring = RingId{max_epoch_seen_ + 1, id_};
  c.members = candidates_;
  c.pass = 1;
  c.infos.resize(c.members.size());
  for (std::size_t i = 0; i < c.members.size(); ++i) {
    c.infos[i].member = c.members[i];
  }
  max_epoch_seen_ = c.ring.epoch;
  fill_commit_info(c);
  if (c.members.size() == 1) {
    c.pass = 2;
    commit_timer_.cancel();
    enter_recovery(c);
    commit_pass2_seen_ = true;
    start_first_token();
    return;
  }
  c.dest = next_member(c.members, id_);
  Packet pkt;
  pkt.kind = MsgKind::Commit;
  pkt.commit = c;
  unicast(c.dest, pkt);
}

void Node::fill_commit_info(CommitMsg& c) {
  for (auto& info : c.infos) {
    if (info.member != id_) continue;
    if (old_) {
      info.has_old_ring = true;
      info.old_ring = old_->id;
      info.old_aru = old_->my_aru;
      info.old_high = old_->high;
    }
    return;
  }
}

void Node::handle_commit(CommitMsg c) {
  if (state_ == State::Down) return;
  if (c.dest != id_) return;
  if (std::find(c.members.begin(), c.members.end(), id_) == c.members.end()) {
    return;
  }
  max_epoch_seen_ = std::max(max_epoch_seen_, c.ring.epoch);

  if (c.pass == 1) {
    if (state_ != State::Gather && state_ != State::Commit) return;
    fill_commit_info(c);
    if (id_ == c.ring.leader) {
      // Pass 1 completed the loop: every member's old-ring info collected.
      c.pass = 2;
      enter_recovery(c);
      commit_pass2_seen_ = true;
      c.dest = next_member(c.members, id_);
      Packet pkt;
      pkt.kind = MsgKind::Commit;
      pkt.commit = c;
      unicast(c.dest, pkt);
      commit_timer_.cancel();
      commit_timer_ = sim_.after(local(params_.commit_timeout), [this] {
        if (state_ == State::Recovery && last_token_id_ == 0) enter_gather();
      });
    } else {
      join_timer_.cancel();
      consensus_timer_.cancel();
      state_ = State::Commit;
      candidates_ = c.members;  // accept the leader's membership
      commit_timer_.cancel();
      commit_timer_ = sim_.after(local(params_.commit_timeout), [this] {
        if (state_ == State::Commit) enter_gather();
      });
      c.dest = next_member(c.members, id_);
      Packet pkt;
      pkt.kind = MsgKind::Commit;
      pkt.commit = c;
      unicast(c.dest, pkt);
    }
    return;
  }

  // pass == 2
  if (id_ == c.ring.leader) {
    if (state_ == State::Recovery && commit_pass2_seen_ &&
        last_token_id_ == 0) {
      commit_timer_.cancel();
      start_first_token();
    }
    return;
  }
  if (state_ != State::Commit) return;
  commit_timer_.cancel();
  enter_recovery(c);
  c.dest = next_member(c.members, id_);
  Packet pkt;
  pkt.kind = MsgKind::Commit;
  pkt.commit = std::move(c);
  unicast(pkt.commit.dest, pkt);
}

void Node::enter_recovery(const CommitMsg& commit) {
  cur_ = RingState{};
  cur_.id = commit.ring;
  cur_.members = commit.members;
  state_ = State::Recovery;
  last_token_id_ = 0;
  last_sent_token_.reset();
  recovery_done_from_.clear();
  recovery_pending_.clear();

  if (old_) {
    // Members of my old ring that made it into the new ring must end up
    // with identical old-ring message sets: rebroadcast everything in
    // (low, high] that I hold; receivers deduplicate.
    std::uint64_t low = kNoAru;
    std::uint64_t high = 0;
    for (const auto& info : commit.infos) {
      if (!info.has_old_ring || !(info.old_ring == old_->id)) continue;
      low = std::min(low, info.old_aru);
      high = std::max(high, info.old_high);
    }
    if (low != kNoAru) {
      for (const auto& [seq, msg] : old_->received) {
        if (seq <= low || seq > high) continue;
        DataMsg wrap;
        wrap.origin = id_;
        wrap.flags = kFlagRecovery;
        wrap.payload = encode_data(arena_, msg);
        wrap.old_ring = old_->id;
        wrap.old_seq = seq;
        recovery_pending_.push_back(std::move(wrap));
      }
    }
  }
  // End-of-recovery marker: once every member's marker is delivered, all
  // recovery rebroadcasts (sent before the markers) are delivered too.
  DataMsg done;
  done.origin = id_;
  done.flags = kFlagControl;
  done.group = group_buf(kRecoveryDoneGroup);
  recovery_pending_.push_back(std::move(done));

  arm_token_loss();
}

void Node::start_first_token() {
  TokenMsg t;
  t.ring = cur_.id;
  t.token_id = 1;
  t.seq = 0;
  t.accum_min = kNoAru;
  t.safe_seq = 0;
  t.dest = id_;
  handle_token(std::move(t));
}

void Node::complete_recovery() {
  std::vector<NodeId> trans_members{id_};
  if (old_) {
    trans_members = intersect(cur_.members, old_->members);
    flush_old_ring();
    old_.reset();
  }
  commit_timer_.cancel();
  state_ = State::Operational;
  counters_.views_installed.inc();
  obs::Journal::global().emit(sim_.now(), id_,
                              obs::EventKind::RingViewInstalled, cur_.id.str(),
                              "members=" + obs::format_members(cur_.members));
  if (view_) {
    view_(ViewEvent{ViewEvent::Kind::Transitional, cur_.id, trans_members});
    view_(ViewEvent{ViewEvent::Kind::Regular, cur_.id, cur_.members});
  }
}

void Node::flush_old_ring() {
  // Deliver the remaining old-ring messages in the old total order. A gap
  // means the only holders of a message are outside the merged component;
  // everything past the first gap is delivered in the transitional
  // configuration, per extended virtual synchrony.
  bool gap = false;
  for (std::uint64_t seq = old_->delivered + 1; seq <= old_->high; ++seq) {
    auto it = old_->received.find(seq);
    if (it == old_->received.end()) {
      gap = true;
      continue;
    }
    // Movable: old_ is discarded as soon as this flush returns.
    dispatch(it->second, /*transitional=*/gap || params_.safe_delivery,
             /*movable=*/true);
  }
  old_->delivered = old_->high;
}

void Node::handle_announce(const RingAnnounceMsg& a) {
  if (state_ != State::Operational) return;
  const bool member =
      std::find(cur_.members.begin(), cur_.members.end(), a.sender) !=
      cur_.members.end();
  if (member) {
    if (a.ring == cur_.id) return;  // healthy: same ring as mine
    // A ring-mate operating on an *older* ring is a stale in-flight
    // announce; ignore it. (If that member is genuinely stuck on the old
    // ring it will eventually gather and its Join pulls us in.) A *newer*
    // or conflicting ring means my membership is stale: re-gather.
    if (a.ring.epoch < cur_.id.epoch) return;
  }
  // A foreign or conflicting ring is reachable: the network has remerged
  // (or a new node appeared). Re-gather to form a joint ring.
  ETERNAL_DEBUG("totem", "node ", id_, " sees foreign ring ", a.ring.str(),
                " from ", a.sender);
  obs::Journal::global().emit(sim_.now(), id_, obs::EventKind::RemergeDetected,
                              a.ring.str(),
                              "sender=" + std::to_string(a.sender) +
                                  " my_ring=" + cur_.id.str());
  enter_gather();
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

NodeId Node::next_member(const std::vector<NodeId>& members,
                         NodeId after) const {
  auto it = std::find(members.begin(), members.end(), after);
  if (it == members.end() || ++it == members.end()) return members.front();
  return *it;
}

namespace {
// Frame-size hint so payload-bearing packets seal without a growth copy.
std::size_t encode_reserve(const Packet& pkt) {
  std::size_t n = 256;
  if (pkt.kind == MsgKind::Data) {
    n += pkt.data.payload.size() + pkt.data.group.size();
  } else if (pkt.kind == MsgKind::Batch) {
    for (const DataMsg& d : pkt.batch.msgs) {
      n += d.payload.size() + d.group.size() + 64;
    }
  } else if (pkt.kind == MsgKind::Token) {
    n += pkt.token.retransmit.size() * 8;
  }
  return n;
}
}  // namespace

void Node::multicast(const Packet& pkt) {
  // lint: hotpath — every outbound frame; encoded straight into the arena
  cdr::Writer w(arena_, encode_reserve(pkt));
  encode_packet_into(w, pkt);
  net_.multicast(id_, w.seal());
}

void Node::unicast(NodeId to, const Packet& pkt) {
  // lint: hotpath — token forwarding comes through here once per visit
  cdr::Writer w(arena_, encode_reserve(pkt));
  encode_packet_into(w, pkt);
  cdr::WireBuf frame = w.seal();
  if (to == id_) {
    // The network never loops multicasts back; unicast-to-self is used by
    // single-member rings to keep the token machinery uniform.
    sim_.after(net_.params().base_latency, [this, frame] {
      if (state_ != State::Down) on_receive(id_, frame);
    });
    return;
  }
  net_.unicast(id_, to, std::move(frame));
}

}  // namespace eternal::totem
