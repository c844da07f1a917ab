// Operation-lifecycle tracing.
//
// A trace is a sequence of timestamped span events keyed by the paper's
// unique operation identifiers (parent total-order position + per-parent
// operation sequence — see rep/ids.hpp). Every layer that touches an
// invocation appends an event: the client stamps the send, the Totem node
// stamps the token-visit send, the engine stamps the totally-ordered
// delivery, execution start/end, the reply send and delivery, and every
// duplicate-suppression decision. Because the identifier is identical at
// every replica, the events recorded on all processors interleave into one
// cross-layer timeline per operation, which is how a failed or slow
// invocation is reconstructed after the fact.
//
// On top of the per-operation key, records carry a *causal trace context*:
// a trace id (derived from the root operation identifier, so it is stable
// across client retransmits and failover re-invocations) and a parent span
// id. The context rides inside the rep wire envelope and through totem
// Batch frames, so spans emitted at client-invoke, token-visit send,
// deliver, replica execute, reply, and failover-retry all chain into one
// causal story — including nested invocations, whose spans parent on the
// execution span that issued them.
//
// The Tracer is an emit façade over the flight recorder (obs/recorder.hpp):
// each span is written in place into the recording node's ring, and the
// queries below are views over those records. Tracing is OFF by default;
// every call site guards with `enabled()` so the disabled cost is a single
// predictable branch (verified by bench_micro).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "obs/recorder.hpp"

namespace eternal::obs {

class Tracer {
 public:
  bool enabled() const noexcept { return enabled_; }
  void enable(bool on = true) noexcept { enabled_ = on; }

  /// Empties the record store and restarts span ids.
  void clear();

  void record(std::uint64_t time, std::uint32_t node, const OpRef& op,
              SpanEvent event, std::string_view detail = {});

  /// Record a span with causal context. Returns the span id assigned to the
  /// record (monotonic, process-wide — the simulation is single-threaded
  /// and deterministic), or 0 when tracing is disabled. `begin`/`end` are
  /// simulated time; instantaneous events pass begin == end.
  std::uint64_t span(std::uint64_t begin, std::uint64_t end,
                     std::uint32_t node, const OpRef& op, SpanEvent event,
                     const TraceContext& ctx, std::string_view detail = {});

  /// Surviving span records in timeline order (FlightRecorder::records).
  std::vector<FlightRecord> records() const;
  std::vector<FlightRecord> records_for(const OpRef& op) const;
  /// All surviving records of one causal chain.
  std::vector<FlightRecord> records_for_trace(std::uint64_t trace_id) const;
  /// The operation of the newest ReplyDeliver record — i.e. the most recent
  /// invocation whose full lifecycle is likely still in the rings.
  std::optional<OpRef> last_completed_op() const;

  /// The process-wide tracer all layers record through.
  static Tracer& global();

 private:
  bool enabled_ = false;
  std::uint64_t next_span_ = 1;  // span-id allocator (never reused)
};

}  // namespace eternal::obs
