// Membership & fault event journal.
//
// A structured log of the rare-but-load-bearing events the paper's lessons
// hinge on: ring/group view installs, token losses, partitions and
// remerges, failovers, self-promotions, state transfers, fault reports and
// automatic replica replacement. Emitters are totem::Node, rep::Engine,
// ft::FaultDetector and ft::ReplicationManager; the journal is what lets a
// partition/remerge or failover be read back as an ordered story without
// reconstructing it from debug logs.
//
// The Journal is an emit façade over the flight recorder
// (obs/recorder.hpp): each event is written in place into the emitting
// node's ring as a `"subject detail"` record, and `events()` is a view over
// those records. It is always on — its events are orders of magnitude
// rarer than messages — and bounded by the recorder's per-node capacity.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/recorder.hpp"

namespace eternal::obs {

class Journal {
 public:
  /// Empties the record store.
  void clear();

  void emit(std::uint64_t time, std::uint32_t node, EventKind kind,
            std::string_view subject, std::string_view detail = {});

  /// Surviving journal records in timeline order (FlightRecorder::records).
  std::vector<FlightRecord> events() const;
  std::vector<FlightRecord> events(EventKind kind) const;

  /// The process-wide journal all layers emit through.
  static Journal& global();
};

/// "[1, 2, 5]" — membership lists for subjects/details.
std::string format_members(const std::vector<std::uint32_t>& members);

}  // namespace eternal::obs
