// Totem-style single-ring total-order protocol node.
//
// One Node runs per processor. The protocol follows the published Totem
// single-ring design in structure:
//
//  * While **Operational**, a token circulates around the ring. Only the
//    token holder broadcasts; it assigns global sequence numbers from the
//    token, services retransmission requests carried on the token, and
//    advances the token's running-minimum aru. The minimum over a full
//    rotation becomes the *safe* sequence: everything at or below it is
//    known to be received by every member.
//  * Token loss (crash, partition, or message loss beyond retransmission)
//    triggers the **Gather** state: processors broadcast Join messages with
//    their candidate sets until the sets are mutually consistent, then the
//    lowest-id candidate circulates a two-pass **Commit** token that
//    installs the new ring.
//  * The **Recovery** state implements extended virtual synchrony: members
//    re-broadcast messages from their old ring that other old-ring members
//    may lack, then deliver the remaining old-ring messages in the old
//    order, a *transitional configuration* view, and finally the *regular
//    configuration* view of the new ring. Messages after a gap that cannot
//    be recovered (their only holders are gone) are delivered flagged as
//    transitional.
//  * Partitioned components each form their own ring and keep operating;
//    periodic RingAnnounce probes detect remerged connectivity and trigger
//    a joint Gather.
//
// Delivery guarantee is selectable per the Params::safe_delivery ablation:
// *agreed* (deliver once the local order is gapless — what the FT
// infrastructure uses on the fast path) or *safe* (deliver once every ring
// member is known to have the message).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/fault_plan.hpp"
#include "sim/network.hpp"
#include "sim/simulation.hpp"
#include "totem/wire.hpp"

namespace eternal::totem {

struct Params {
  sim::Time token_hold = 10;                        // us the holder keeps it
  sim::Time token_loss = 15 * sim::kMillisecond;    // base failure timeout
  sim::Time token_loss_per_member = sim::kMillisecond;
  sim::Time token_retransmit = 5 * sim::kMillisecond;
  sim::Time join_interval = 3 * sim::kMillisecond;
  sim::Time join_freshness = 9 * sim::kMillisecond; // ignore older joins
  sim::Time consensus_timeout = 8 * sim::kMillisecond;
  sim::Time commit_timeout = 40 * sim::kMillisecond;
  sim::Time announce_interval = 50 * sim::kMillisecond;
  std::uint32_t window = 64;       // max frames broadcast per token visit
  std::uint32_t max_retransmit_entries = 512;
  bool safe_delivery = false;      // ablation: safe instead of agreed
  /// Max fresh messages packed into one Batch frame per token visit. 1
  /// disables batching entirely (every message is its own Data frame, and
  /// no fair-share division of the window applies — the seed's behaviour).
  std::uint32_t max_batch = 8;
  /// Sender flow control: when the fresh-send queue holds this many
  /// messages, Node::send_queue_full() reports true and the client stub
  /// refuses new invocations with TRANSIENT. The queue itself never drops
  /// (group-membership control traffic must not be lost). 0 = unbounded.
  std::uint32_t max_pending = 4096;
};

/// A message handed up to the layer above, in total order. The payload and
/// group name are refcounted slices of the frame it arrived in (or of the
/// sender's sealed frame for self-delivery) — handing it up bumps a
/// refcount, never copies.
struct Delivered {
  RingId ring;
  std::uint64_t seq = 0;
  NodeId origin = 0;
  bool control = false;       // group-layer control traffic
  bool transitional = false;  // delivered in a transitional configuration
  cdr::WireBuf group;         // name bytes; see totem::group_view
  cdr::WireBuf payload;
};

struct ViewEvent {
  enum class Kind { Transitional, Regular };
  Kind kind = Kind::Regular;
  RingId ring;
  std::vector<NodeId> members;  // sorted
};

/// Point-in-time snapshot of one node's protocol counters. The live values
/// are `totem.*{node=N}` counters in the global obs::Registry; this struct
/// is the read-out convenience the tests and benches use.
struct NodeStats {
  std::uint64_t broadcasts = 0;
  std::uint64_t delivered = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t token_visits = 0;
  std::uint64_t token_losses = 0;
  std::uint64_t views_installed = 0;
  std::uint64_t batch_frames = 0;  // Batch frames sent (>= 2 msgs each)
  std::uint64_t malformed_dropped = 0;  // undecodable frames/announcements
};

/// Stable handles into the registry for the node's hot-path counters,
/// zeroed at node construction so each simulated cluster starts fresh.
struct NodeCounters {
  obs::Counter& broadcasts;
  obs::Counter& delivered;
  obs::Counter& retransmissions;
  obs::Counter& token_visits;
  obs::Counter& token_losses;
  obs::Counter& views_installed;
  obs::Counter& batch_frames;
  obs::Counter& malformed_dropped;

  NodeCounters(obs::Registry& reg, NodeId id);
  void reset() noexcept;
  NodeStats snapshot() const noexcept;
};

class Node {
 public:
  /// Delivery passes the event by rvalue: the consumer may move the payload
  /// out (the group layer does). Payloads are refcounted frame slices, so
  /// even the non-movable path (retransmission store keeps its entry) hands
  /// up a reference, not a copy of the bytes.
  using DeliverFn = std::function<void(Delivered&&)>;
  using ViewFn = std::function<void(const ViewEvent&)>;

  Node(sim::Simulation& sim, sim::Network& net, NodeId id, Params params);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const noexcept { return id_; }
  const Params& params() const noexcept { return params_; }

  /// Delivery of ordered messages (application and control).
  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
  /// Configuration (view) changes, in the extended-virtual-synchrony order.
  void set_view(ViewFn fn) { view_ = std::move(fn); }

  /// Begin protocol execution (enters Gather to find or form a ring).
  void start();
  /// Crash: stop all activity and discard protocol state.
  void halt();
  /// Restart after a crash with a clean slate (replica state is re-acquired
  /// by the replication layer's state transfer, not by Totem).
  void restart();

  /// Queue a payload for totally-ordered broadcast to the given group tag.
  /// Sent when this node next holds the token; queued across view changes.
  /// A non-zero trace id attaches the payload's causal trace context to the
  /// frame (kFlagTraced), so the token-visit send emits a span in that chain.
  void broadcast(std::string_view group, cdr::WireBuf payload,
                 bool control = false, std::uint64_t trace_id = 0,
                 std::uint64_t parent_span = 0);

  /// The node's wire arena: senders build payloads here (one Writer at a
  /// time), and every outbound packet is framed from it.
  cdr::Arena& arena() noexcept { return arena_; }

  /// Per-node clock-rate skew (chaos hook). rate > 1: this node's oscillator
  /// runs fast, so every protocol timeout (token loss/retransmit/hold,
  /// join/consensus/commit, announce) elapses early in simulated real time;
  /// rate < 1: timeouts elapse late. A fast failure detector convicts
  /// healthy peers; a slow one delays reconfiguration — exactly the
  /// miscalibration class the soak campaigns probe. Non-positive rates are
  /// ignored.
  void set_clock_rate(double rate) {
    if (rate > 0) clock_rate_ = rate;
  }
  double clock_rate() const noexcept { return clock_rate_; }

  bool running() const noexcept { return state_ != State::Down; }
  bool operational() const noexcept { return state_ == State::Operational; }
  RingId ring_id() const noexcept { return cur_.id; }
  const std::vector<NodeId>& members() const noexcept { return cur_.members; }
  /// Highest ring epoch this node has ever observed — the durability layer
  /// persists it so a recovered node never re-forms a ring below it.
  std::uint64_t max_epoch_seen() const noexcept { return max_epoch_seen_; }
  /// Disaster recovery: raise the epoch floor before (re)starting, so the
  /// first post-recovery ring sits above every epoch the durable journal
  /// carries — operation ids parent on (epoch, seq) carriers and must stay
  /// unique across lives.
  void seed_epoch(std::uint64_t epoch) noexcept {
    max_epoch_seen_ = std::max(max_epoch_seen_, epoch);
  }
  NodeStats stats() const noexcept { return counters_.snapshot(); }
  /// Counts a delivered payload the layer above could not decode (a
  /// malformed group announcement), alongside the undecodable frames.
  void count_malformed() noexcept { counters_.malformed_dropped.inc(); }
  std::size_t backlog() const noexcept {
    return pending_.size() + recovery_pending_.size();
  }
  /// Sender flow control: true when the fresh-send queue is at capacity.
  /// Callers that can push back (the client stub) should stop submitting;
  /// broadcast() itself still accepts, so control traffic is never lost.
  bool send_queue_full() const noexcept {
    return params_.max_pending != 0 && pending_.size() >= params_.max_pending;
  }

  /// Entry point wired to the network handler.
  void on_receive(NodeId from, const sim::Frame& wire);

 private:
  enum class State { Down, Gather, Commit, Recovery, Operational };

  struct RingState {
    RingId id;
    std::vector<NodeId> members;
    std::map<std::uint64_t, DataMsg> received;
    std::uint64_t my_aru = 0;     // contiguously received through
    std::uint64_t delivered = 0;  // delivered to the app through
    std::uint64_t safe = 0;       // stable at all members through
    std::uint64_t high = 0;       // highest seq seen
  };

  struct JoinRecord {
    sim::Time when = 0;
    std::vector<NodeId> candidates;
    std::uint64_t max_epoch = 0;
  };

  // --- message handlers ---
  void handle_data(const DataMsg& d);
  void handle_batch(const BatchMsg& b);
  void handle_token(TokenMsg t);
  void handle_join(const JoinMsg& j);
  void handle_commit(CommitMsg c);
  void handle_announce(const RingAnnounceMsg& a);

  // --- state transitions ---
  void enter_gather();
  // Periodic timer bodies; each re-arms itself through a `[this]` closure.
  void announce_tick();
  void join_tick();
  void consensus_tick();
  void try_consensus();
  void build_and_send_commit();
  void fill_commit_info(CommitMsg& c);
  void enter_recovery(const CommitMsg& commit);
  void start_first_token();
  void complete_recovery();

  // --- token machinery ---
  void forward_token(TokenMsg t);
  void resend_token();
  void arm_token_loss();
  void cancel_token_timers();
  sim::Time token_loss_timeout() const;

  // --- delivery ---
  void store_data(const DataMsg& d);
  void try_deliver();
  /// `movable`: the caller no longer needs d (old-ring flush) and the
  /// payload may be moved out instead of copied.
  void dispatch(DataMsg& d, bool transitional, bool movable);
  void flush_old_ring();

  // --- helpers ---
  /// A nominal timer interval as measured by this node's skewed clock: a
  /// fast clock (rate > 1) sees the interval elapse in fewer simulated
  /// microseconds. All protocol timer arms and elapsed-time comparisons go
  /// through this.
  sim::Time local(sim::Time nominal) const {
    if (clock_rate_ == 1.0) return nominal;
    const auto t = static_cast<sim::Time>(static_cast<double>(nominal) /
                                          clock_rate_);
    return t > 0 ? t : 1;
  }
  void send_join();
  void recompute_candidates();
  NodeId next_member(const std::vector<NodeId>& members, NodeId after) const;
  void multicast(const Packet& pkt);
  void unicast(NodeId to, const Packet& pkt);

  sim::Simulation& sim_;
  sim::Network& net_;
  const NodeId id_;
  Params params_;
  double clock_rate_ = 1.0;

  /// Arena every outbound frame is encoded into; received packets decode
  /// into the scratch Packet, whose vectors keep their capacity across
  /// frames (the arriving payload bytes themselves are never copied).
  cdr::Arena arena_;
  Packet rx_pkt_;

  State state_ = State::Down;
  RingState cur_;
  std::optional<RingState> old_;  // awaiting recovery flush
  std::uint64_t max_epoch_seen_ = 0;

  // Outbound queues. Recovery rebroadcasts drain before fresh payloads.
  std::deque<DataMsg> pending_;
  std::deque<DataMsg> recovery_pending_;

  // Token state.
  std::uint64_t last_token_id_ = 0;
  std::optional<TokenMsg> last_sent_token_;
  sim::TimerHandle token_loss_timer_;
  sim::TimerHandle token_retransmit_timer_;
  sim::TimerHandle token_hold_timer_;

  // Gather state.
  std::map<NodeId, JoinRecord> last_join_;
  std::vector<NodeId> candidates_;
  sim::Time candidates_stable_since_ = 0;
  sim::TimerHandle join_timer_;
  sim::TimerHandle consensus_timer_;
  sim::TimerHandle commit_timer_;

  // Recovery state.
  std::set<NodeId> recovery_done_from_;
  bool commit_pass2_seen_ = false;

  sim::TimerHandle announce_timer_;

  DeliverFn deliver_;
  ViewFn view_;
  NodeCounters counters_;
};

/// Group tag Node uses internally to mark end-of-recovery control messages.
inline constexpr const char* kRecoveryDoneGroup = "__totem.recovery_done";

}  // namespace eternal::totem
