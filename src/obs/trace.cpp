// detlint:allow(static-local) — process-wide observability singleton
// (Meyers `global()`), shared diagnostics, not replica state.
#include "obs/trace.hpp"

namespace eternal::obs {

namespace {
constexpr auto kSpan = FlightRecord::Stream::Span;
}  // namespace

void Tracer::clear() {
  FlightRecorder::global().clear();
  next_span_ = 1;
}

void Tracer::record(std::uint64_t time, std::uint32_t node, const OpRef& op,
                    SpanEvent event, std::string_view detail) {
  span(time, time, node, op, event, TraceContext{}, detail);
}

std::uint64_t Tracer::span(std::uint64_t begin, std::uint64_t end,
                           std::uint32_t node, const OpRef& op,
                           SpanEvent event, const TraceContext& ctx,
                           std::string_view detail) {
  if (!enabled_) return 0;
  FlightRecord& rec = FlightRecorder::global().append(node);
  rec.time = begin;
  rec.end = end;
  rec.node = node;
  rec.kind = static_cast<std::uint8_t>(event);
  rec.op = op;
  rec.trace_id = ctx.trace_id;
  rec.span_id = next_span_++;
  rec.parent_span = ctx.parent_span;
  rec.set_detail(detail);
  return rec.span_id;
}

std::vector<FlightRecord> Tracer::records() const {
  return FlightRecorder::global().select(kSpan);
}

std::vector<FlightRecord> Tracer::records_for(const OpRef& op) const {
  return FlightRecorder::global().select(
      kSpan, [&](const FlightRecord& r) { return r.op == op; });
}

std::vector<FlightRecord> Tracer::records_for_trace(
    std::uint64_t trace_id) const {
  return FlightRecorder::global().select(kSpan, [&](const FlightRecord& r) {
    return trace_id != 0 && r.trace_id == trace_id;
  });
}

std::optional<OpRef> Tracer::last_completed_op() const {
  const std::vector<FlightRecord> all = records();
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    if (it->span_event() == SpanEvent::ReplyDeliver) return it->op;
  }
  return std::nullopt;
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

}  // namespace eternal::obs
