// Per-node flight recorder — the one record store of a run.
//
// Both streams the system narrates itself through land here and nowhere
// else: trace spans (emitted through obs/trace's Tracer) and journal events
// (emitted through obs/journal's Journal). Each emit builds a FlightRecord
// in place in the emitting node's fixed-size ring, so the last N records
// per node survive in fixed memory no matter how long the run is. The store
// is always on; the tracer's and journal's queries are views over it.
//
// The rings are dumped to a deterministic binary file either on demand
// (`dump()`) or automatically on fault conviction: ft::FaultNotifier::push
// calls `dump_on_fault()` when a dump directory is armed, so a divergence
// conviction or crash report leaves a flight-recorder file behind for
// `tools/obsctl` to analyze. Records are fixed-size cells (details are
// truncated to kDetailCap), so per-node memory is exactly
// capacity * sizeof(FlightRecord).
//
// File format (CDR, little-endian, see recorder.cpp):
//   magic "ETFR", version u32
//   node_count u32, then per node:
//     node u32, absorbed u64, record_count u32, records oldest-first
// Each record encodes time, end, node, stream, kind, OpRef, trace context
// and the (truncated) detail string.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace eternal::obs {

/// Layer-neutral mirror of rep::OperationId (obs sits below rep).
struct OpRef {
  std::uint64_t parent_epoch = 0;
  std::uint64_t parent_seq = 0;
  std::uint64_t op_seq = 0;

  bool operator==(const OpRef&) const = default;
  bool valid() const noexcept {
    return parent_epoch != 0 || parent_seq != 0 || op_seq != 0;
  }
  std::string str() const {
    return std::to_string(parent_epoch) + ":" + std::to_string(parent_seq) +
           "/" + std::to_string(op_seq);
  }
};

/// Causal trace context carried on the wire alongside an operation. The
/// trace id names the whole causal chain (root operation and everything it
/// spawned); the parent span id names the span that caused this hop.
/// Both zero = untraced.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;

  bool operator==(const TraceContext&) const = default;
  bool traced() const noexcept { return trace_id != 0; }
};

enum class SpanEvent : std::uint8_t {
  ClientSend,            // client stub multicast the invocation
  ClientRetransmit,      // client retried under the same identifier
  TotemDeliver,          // envelope delivered in total order at a node
  ExecStart,             // replica began executing
  ExecEnd,               // execution finished (reply logged)
  ReplySend,             // response queued/multicast toward the client
  ReplyDeliver,          // response reached the waiting client
  DuplicateDropped,      // receiver-side: copy of an in-progress operation
  DuplicateReplyResent,  // receiver-side: completed op, logged reply resent
  SendSuppressed,        // sender-side: sibling's invocation copy won
  ResponseSuppressed,    // sender-side: sibling's response copy won
  StateUpdateApplied,    // passive backup applied the postimage
  FulfillmentRecorded,   // secondary component queued the op for remerge
  FulfillmentReplayed,   // queued op re-invoked after remerge
  StateDigestSent,       // divergence oracle: replica broadcast its digest
  DivergenceDetected,    // divergence oracle: digests disagreed at this op
  TokenVisitSend,        // totem assigned the message a seq on a token visit
  FailoverRetry,         // new primary re-invoked a logged operation
  ReadSkipped,           // passive backup ignored a read-only delivery
  ResyncDeferred,        // unsynced replica buffered/ignored a delivery
};

const char* to_string(SpanEvent e);

enum class EventKind : std::uint8_t {
  RingViewInstalled,    // totem installed a new ring configuration
  GroupViewInstalled,   // engine observed a group membership change
  TokenLoss,            // totem token-loss timeout fired
  RemergeDetected,      // a foreign ring became reachable again
  PartitionSecondary,   // replica found itself in a secondary component
  Failover,             // a backup became the primary
  SelfPromotion,        // merge deadlock broken by a state-holding member
  StateTransferBegin,   // replica started (re)acquiring state
  StateTransferEnd,     // replica synced (snapshot applied / marked synced)
  FaultSuspected,       // fault detector reported a crash
  FaultCleared,         // suspected processor answered again
  ReplicaSpawned,       // ReplicationManager restored MinimumNumberReplicas
  MemberAdded,          // ObjectGroupManager::add_member
  MemberRemoved,        // ObjectGroupManager::remove_member
  DivergenceDetected,   // oracle: replica state digests disagreed at an op
  RunMeta,              // run metadata stamp ("seed=N ..."), emitted once at
                        // start so dumps are self-describing for obsctl
  CheckpointCut,        // durable group checkpoint cut on the total order
  RecoveryBegin,        // node started rebuilding a group from disk
  RecoveryLoaded,       // checkpoint applied; detail carries the digest
                        // check ("... mismatch ..." = divergence from the
                        // pre-crash cut)
  RecoveryEnd,          // journal suffix replayed; group live again
  DomainRecovered,      // RM finished whole-domain disaster recovery
};

const char* to_string(EventKind k);

/// One fixed-size cell of a flight-recorder ring: a trace span or a journal
/// event, in the common layout that lets the offline analyzer merge both
/// streams into one timeline. A journal event's detail is its
/// `"subject detail"` text.
struct FlightRecord {
  static constexpr std::size_t kDetailCap = 64;

  enum class Stream : std::uint8_t { Span = 0, Journal = 1 };

  std::uint64_t time = 0;  // simulated microseconds (span begin)
  std::uint64_t end = 0;   // span end; == time for instantaneous records
  std::uint32_t node = 0;  // processor that recorded it
  Stream stream = Stream::Span;
  std::uint8_t kind = 0;  // SpanEvent (Span) or EventKind (Journal)
  OpRef op;
  std::uint64_t trace_id = 0;     // 0 = recorded without causal context
  std::uint64_t span_id = 0;      // this span's own id (0 for journal)
  std::uint64_t parent_span = 0;  // causally preceding span (0 = root)
  char detail[kDetailCap] = {};  // NUL-terminated, truncated

  SpanEvent span_event() const noexcept {
    return static_cast<SpanEvent>(kind);
  }
  EventKind journal_kind() const noexcept {
    return static_cast<EventKind>(kind);
  }
  /// The span event's or journal kind's name.
  const char* kind_str() const;
  std::string detail_str() const;
  /// Store `head`, then `" " + tail` when tail is non-empty, truncated to
  /// kDetailCap - 1 bytes.
  void set_detail(std::string_view head, std::string_view tail = {});
  /// `[time] node=N span|journal kind op trace=... dur=... detail`
  std::string str() const;
  /// One JSON object with the same fields.
  std::string json() const;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t per_node_capacity = 2048);

  /// Drops all rings; capacity must be > 0.
  void set_per_node_capacity(std::size_t capacity);
  std::size_t per_node_capacity() const noexcept { return cap_; }
  void clear();

  /// Directory dump_on_fault writes into; empty = fault dumps disarmed.
  void set_dump_dir(std::string dir) { dump_dir_ = std::move(dir); }
  const std::string& dump_dir() const noexcept { return dump_dir_; }
  bool armed() const noexcept { return !dump_dir_.empty(); }

  /// Claim the next cell of `node`'s ring (the oldest one once the ring is
  /// full), reset to a default record for the caller to fill in place;
  /// counts it as absorbed.
  FlightRecord& append(std::uint32_t node);
  /// Copy a whole record in — used by tests and fixtures to build
  /// synthetic histories. By value: `r` may be a cell append() reuses.
  void absorb(FlightRecord r) { append(r.node) = r; }

  std::uint64_t absorbed() const noexcept { return absorbed_; }
  std::size_t nodes() const noexcept { return rings_.size(); }
  std::uint64_t dropped() const noexcept;

  /// Surviving records of one node, oldest first.
  std::vector<FlightRecord> records(std::uint32_t node) const;
  /// Surviving records of every node, merged and sorted by (time, node,
  /// span_id) — the cross-node timeline.
  std::vector<FlightRecord> records() const;
  /// The timeline's records of one stream that satisfy `keep`.
  template <class Keep>
  std::vector<FlightRecord> select(FlightRecord::Stream stream,
                                   Keep keep) const {
    std::vector<FlightRecord> out = records();
    std::erase_if(out, [&](const FlightRecord& r) {
      return r.stream != stream || !keep(r);
    });
    return out;
  }
  std::vector<FlightRecord> select(FlightRecord::Stream stream) const {
    return select(stream, [](const FlightRecord&) { return true; });
  }

  /// Serialize every ring to the binary dump format.
  std::vector<std::uint8_t> encode() const;
  static std::vector<FlightRecord> decode(
      const std::vector<std::uint8_t>& bytes);

  /// Write the dump to `path`. Returns false on I/O failure.
  bool dump(const std::string& path) const;
  /// Read a dump file; throws std::runtime_error on missing/corrupt file.
  static std::vector<FlightRecord> load(const std::string& path);

  /// Fault-conviction hook (called by ft::FaultNotifier::push): when armed,
  /// write `<dump_dir>/flight-<ordinal>-<type>-t<when>.bin` and return the
  /// path; otherwise return "". The ordinal makes successive convictions
  /// distinct and the naming deterministic (simulated time, not wall time).
  std::string dump_on_fault(const std::string& type, std::uint64_t when);
  std::uint64_t fault_dumps() const noexcept { return fault_dumps_; }

  /// The process-wide store the tracer and journal write into.
  static FlightRecorder& global();

 private:
  struct Ring {
    std::vector<FlightRecord> buf;
    std::size_t next = 0;     // write index once full
    std::uint64_t total = 0;  // absorbed into this ring
  };

  std::vector<FlightRecord> ring_records(const Ring& ring) const;

  std::size_t cap_ = 0;
  std::uint64_t absorbed_ = 0;
  std::uint64_t fault_dumps_ = 0;
  std::string dump_dir_;
  std::map<std::uint32_t, Ring> rings_;
};

}  // namespace eternal::obs
