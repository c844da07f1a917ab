// detlint:allow(static-local) — process-wide observability singleton
// (Meyers `global()`), shared diagnostics, not replica state.
#include "obs/journal.hpp"

namespace eternal::obs {

namespace {
constexpr auto kJournal = FlightRecord::Stream::Journal;
}  // namespace

void Journal::clear() { FlightRecorder::global().clear(); }

void Journal::emit(std::uint64_t time, std::uint32_t node, EventKind kind,
                   std::string_view subject, std::string_view detail) {
  FlightRecord& rec = FlightRecorder::global().append(node);
  rec.time = time;
  rec.end = time;
  rec.node = node;
  rec.stream = kJournal;
  rec.kind = static_cast<std::uint8_t>(kind);
  rec.set_detail(subject, detail);
}

std::vector<FlightRecord> Journal::events() const {
  return FlightRecorder::global().select(kJournal);
}

std::vector<FlightRecord> Journal::events(EventKind kind) const {
  return FlightRecorder::global().select(
      kJournal,
      [&](const FlightRecord& r) { return r.journal_kind() == kind; });
}

Journal& Journal::global() {
  static Journal journal;
  return journal;
}

std::string format_members(const std::vector<std::uint32_t>& members) {
  std::string out = "[";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(members[i]);
  }
  out += "]";
  return out;
}

}  // namespace eternal::obs
