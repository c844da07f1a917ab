// detlint:allow(static-local) — process-wide observability singleton
// (Meyers `global()`), shared diagnostics, not replica state.
#include "obs/recorder.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "cdr/cdr.hpp"

namespace eternal::obs {

namespace {
constexpr std::uint32_t kMagic = 0x45544652;  // "ETFR"
constexpr std::uint32_t kVersion = 1;

template <class IO>
void io(IO& wire, cdr::Ref<IO, FlightRecord> r) {
  wire.field(r.time);
  wire.field(r.end);
  wire.field(r.node);
  cdr::enumeration(wire, r.stream, FlightRecord::Stream::Span,
                   FlightRecord::Stream::Journal, "bad flight-record stream");
  wire.field(r.kind);
  wire.field(r.op.parent_epoch);
  wire.field(r.op.parent_seq);
  wire.field(r.op.op_seq);
  wire.field(r.trace_id);
  wire.field(r.span_id);
  wire.field(r.parent_span);
  wire.field(r.detail);
}

/// One node's ring as the dump lays it out.
struct DumpRing {
  std::uint32_t node = 0;
  std::uint64_t absorbed = 0;
  std::vector<FlightRecord> records;  // oldest first
};

template <class IO>
void io(IO& wire, cdr::Ref<IO, std::vector<DumpRing>> rings) {
  cdr::constant(wire, kMagic, "not a flight-recorder dump (bad magic)");
  cdr::constant(wire, kVersion, "unsupported flight-recorder dump version");
  // Node, absorbed, record count.
  cdr::sequence(wire, rings, 65536, 16, "implausible node count",
                [&](auto& ring) {
                  wire.field(ring.node);
                  wire.field(ring.absorbed);
                  // Fixed fields, then the shortest detail string.
                  cdr::sequence(wire, ring.records, 1u << 24, 70 + 5,
                                "implausible record count",
                                [&](auto& r) { io(wire, r); });
                });
}

std::string sanitize_token(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if ((ch >= 'a' && ch <= 'z') || (ch >= '0' && ch <= '9')) {
      out += ch;
    } else if (ch >= 'A' && ch <= 'Z') {
      out += static_cast<char>(ch - 'A' + 'a');
    } else {
      out += '_';
    }
  }
  return out.empty() ? std::string("fault") : out;
}
}  // namespace

const char* to_string(SpanEvent e) {
  switch (e) {
    case SpanEvent::ClientSend: return "client_send";
    case SpanEvent::ClientRetransmit: return "client_retransmit";
    case SpanEvent::TotemDeliver: return "totem_deliver";
    case SpanEvent::ExecStart: return "exec_start";
    case SpanEvent::ExecEnd: return "exec_end";
    case SpanEvent::ReplySend: return "reply_send";
    case SpanEvent::ReplyDeliver: return "reply_deliver";
    case SpanEvent::DuplicateDropped: return "duplicate_dropped";
    case SpanEvent::DuplicateReplyResent: return "duplicate_reply_resent";
    case SpanEvent::SendSuppressed: return "send_suppressed";
    case SpanEvent::ResponseSuppressed: return "response_suppressed";
    case SpanEvent::StateUpdateApplied: return "state_update_applied";
    case SpanEvent::FulfillmentRecorded: return "fulfillment_recorded";
    case SpanEvent::FulfillmentReplayed: return "fulfillment_replayed";
    case SpanEvent::StateDigestSent: return "state_digest_sent";
    case SpanEvent::DivergenceDetected: return "divergence_detected";
    case SpanEvent::TokenVisitSend: return "token_visit_send";
    case SpanEvent::FailoverRetry: return "failover_retry";
    case SpanEvent::ReadSkipped: return "read_skipped";
    case SpanEvent::ResyncDeferred: return "resync_deferred";
  }
  return "?";
}

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::RingViewInstalled: return "ring_view_installed";
    case EventKind::GroupViewInstalled: return "group_view_installed";
    case EventKind::TokenLoss: return "token_loss";
    case EventKind::RemergeDetected: return "remerge_detected";
    case EventKind::PartitionSecondary: return "partition_secondary";
    case EventKind::Failover: return "failover";
    case EventKind::SelfPromotion: return "self_promotion";
    case EventKind::StateTransferBegin: return "state_transfer_begin";
    case EventKind::StateTransferEnd: return "state_transfer_end";
    case EventKind::FaultSuspected: return "fault_suspected";
    case EventKind::FaultCleared: return "fault_cleared";
    case EventKind::ReplicaSpawned: return "replica_spawned";
    case EventKind::MemberAdded: return "member_added";
    case EventKind::MemberRemoved: return "member_removed";
    case EventKind::DivergenceDetected: return "divergence_detected";
    case EventKind::RunMeta: return "run_meta";
    case EventKind::CheckpointCut: return "checkpoint_cut";
    case EventKind::RecoveryBegin: return "recovery_begin";
    case EventKind::RecoveryLoaded: return "recovery_loaded";
    case EventKind::RecoveryEnd: return "recovery_end";
    case EventKind::DomainRecovered: return "domain_recovered";
  }
  return "?";
}

std::string FlightRecord::detail_str() const {
  return std::string(detail,
                     std::find(detail, detail + kDetailCap, '\0'));
}

void FlightRecord::set_detail(std::string_view head, std::string_view tail) {
  std::size_t n = head.copy(detail, kDetailCap - 1);
  if (!tail.empty() && n < kDetailCap - 1) {
    detail[n++] = ' ';
    n += tail.copy(detail + n, kDetailCap - 1 - n);
  }
  std::memset(detail + n, 0, kDetailCap - n);
}

const char* FlightRecord::kind_str() const {
  return stream == Stream::Span ? to_string(span_event())
                                : to_string(journal_kind());
}

std::string FlightRecord::str() const {
  std::ostringstream os;
  os << '[' << time << "] node=" << node;
  if (stream == Stream::Span) {
    os << " span " << kind_str() << ' ' << op.str();
    if (trace_id != 0) {
      os << " trace=" << trace_id << " span=" << span_id;
      if (parent_span != 0) os << " parent=" << parent_span;
      if (end != time) os << " dur=" << (end - time);
    }
  } else {
    os << " journal " << kind_str();
  }
  const std::string d = detail_str();
  if (!d.empty()) os << ' ' << d;
  return os.str();
}

std::string FlightRecord::json() const {
  std::ostringstream os;
  os << "{\"time\":" << time << ",\"end\":" << end << ",\"node\":" << node
     << ",\"stream\":\"" << (stream == Stream::Span ? "span" : "journal")
     << "\",\"kind\":\"" << kind_str() << "\",\"op\":\"" << op.str()
     << "\",\"trace\":" << trace_id << ",\"span\":" << span_id
     << ",\"parent\":" << parent_span << ",\"detail\":\"";
  for (const char ch : detail_str()) {
    if (ch == '"' || ch == '\\') os << '\\';
    os << ch;
  }
  os << "\"}";
  return os.str();
}

FlightRecorder::FlightRecorder(std::size_t per_node_capacity)
    : cap_(per_node_capacity ? per_node_capacity : 1) {}

void FlightRecorder::set_per_node_capacity(std::size_t capacity) {
  cap_ = capacity ? capacity : 1;
  clear();
}

void FlightRecorder::clear() {
  rings_.clear();
  absorbed_ = 0;
  fault_dumps_ = 0;
}

FlightRecord& FlightRecorder::append(std::uint32_t node) {
  Ring& ring = rings_[node];
  ++ring.total;
  ++absorbed_;
  if (ring.buf.size() < cap_) return ring.buf.emplace_back();
  FlightRecord& cell = ring.buf[ring.next];
  if (++ring.next == cap_) ring.next = 0;
  return cell = FlightRecord{};
}

std::uint64_t FlightRecorder::dropped() const noexcept {
  std::uint64_t d = 0;
  for (const auto& [node, ring] : rings_) d += ring.total - ring.buf.size();
  return d;
}

std::vector<FlightRecord> FlightRecorder::ring_records(
    const Ring& ring) const {
  std::vector<FlightRecord> out;
  out.reserve(ring.buf.size());
  if (ring.buf.size() < cap_) {
    out = ring.buf;
  } else {
    // next points at the oldest record once the ring has wrapped.
    out.insert(out.end(),
               ring.buf.begin() + static_cast<std::ptrdiff_t>(ring.next),
               ring.buf.end());
    out.insert(out.end(), ring.buf.begin(),
               ring.buf.begin() + static_cast<std::ptrdiff_t>(ring.next));
  }
  return out;
}

std::vector<FlightRecord> FlightRecorder::records(std::uint32_t node) const {
  auto it = rings_.find(node);
  return it == rings_.end() ? std::vector<FlightRecord>{}
                            : ring_records(it->second);
}

std::vector<FlightRecord> FlightRecorder::records() const {
  std::vector<FlightRecord> out;
  for (const auto& [node, ring] : rings_) {
    const std::vector<FlightRecord> recs = ring_records(ring);
    out.insert(out.end(), recs.begin(), recs.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const FlightRecord& a, const FlightRecord& b) {
                     if (a.time != b.time) return a.time < b.time;
                     if (a.node != b.node) return a.node < b.node;
                     return a.span_id < b.span_id;
                   });
  return out;
}

std::vector<std::uint8_t> FlightRecorder::encode() const {
  std::vector<DumpRing> dump;
  for (const auto& [node, ring] : rings_) {
    dump.push_back({node, ring.total, ring_records(ring)});
  }
  return cdr::make_bytes([&](cdr::Writer& w) { io(w, dump); });
}

std::vector<FlightRecord> FlightRecorder::decode(
    const std::vector<std::uint8_t>& bytes) {
  cdr::Decoder dec(bytes);
  std::vector<DumpRing> dump;
  io(dec, dump);
  std::vector<FlightRecord> out;
  for (const DumpRing& ring : dump) {
    out.insert(out.end(), ring.records.begin(), ring.records.end());
  }
  return out;
}

bool FlightRecorder::dump(const std::string& path) const {
  const std::vector<std::uint8_t> bytes = encode();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

std::vector<FlightRecord> FlightRecorder::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open flight dump: " + path);
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  try {
    return decode(bytes);
  } catch (const cdr::MarshalError& e) {
    throw std::runtime_error("corrupt flight dump " + path + ": " + e.what());
  }
}

std::string FlightRecorder::dump_on_fault(const std::string& type,
                                          std::uint64_t when) {
  if (!armed()) return "";
  ++fault_dumps_;
  std::ostringstream name;
  name << dump_dir_ << "/flight-" << fault_dumps_ << '-'
       << sanitize_token(type) << "-t" << when << ".bin";
  const std::string path = name.str();
  return dump(path) ? path : "";
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

}  // namespace eternal::obs
