#include "totem/wire.hpp"

namespace eternal::totem {

namespace {

template <class IO>
void io(IO& wire, cdr::Ref<IO, RingId> r) {
  wire.field(r.epoch);
  wire.field(r.leader);
}

template <class IO>
void nodes(IO& wire, cdr::Ref<IO, std::vector<NodeId>> v) {
  cdr::sequence(wire, v, 65536, 4, "implausible node list",
                [&](auto& n) { wire.field(n); });
}

template <class IO>
void seqs(IO& wire, cdr::Ref<IO, std::vector<std::uint64_t>> v) {
  cdr::sequence(wire, v, 1 << 20, 8, "implausible seq list",
                [&](auto& s) { wire.field(s); });
}

// The group tag is the CDR string "g" + group: the leading 'g' keeps the
// wire string non-empty even for the root group. Written field by field so
// neither side builds the concatenation: ulong(len+2), 'g', the name bytes
// (borrowed from the arriving frame on decode, never a std::string), NUL.
template <class IO>
void group_tag(IO& wire, cdr::Ref<IO, cdr::WireBuf> group) {
  std::uint32_t len = static_cast<std::uint32_t>(group.size() + 2);
  wire.field(len);
  // Below 2 is a malformed tag on read, a name too long for the length
  // field on write.
  if (len < 2) throw cdr::MarshalError("bad group tag");
  cdr::constant(wire, std::uint8_t{'g'}, "bad group tag");
  if constexpr (IO::kReading) {
    group = wire.get_raw_buf(len - 2);
  } else {
    wire.put_raw(group.span());
  }
  cdr::constant(wire, std::uint8_t{0}, "group tag missing NUL terminator");
}

// What every Data message carries after its flags, standalone or batched.
template <class IO>
void io_body(IO& wire, cdr::Ref<IO, DataMsg> d) {
  group_tag(wire, d.group);
  wire.field(d.payload);
  if (d.flags & kFlagTraced) {
    wire.field(d.trace_id);
    wire.field(d.parent_span);
  }
}

template <class IO>
void io(IO& wire, cdr::Ref<IO, DataMsg> d) {
  // A reused message must not keep the optional fields of an earlier one.
  if constexpr (IO::kReading) d = DataMsg{};
  io(wire, d.ring);
  wire.field(d.seq);
  wire.field(d.origin);
  wire.field(d.flags);
  io_body(wire, d);
  if (d.flags & kFlagRecovery) {
    io(wire, d.old_ring);
    wire.field(d.old_seq);
  }
}

template <class IO>
void io(IO& wire, cdr::Ref<IO, BatchMsg> b) {
  io(wire, b.ring);
  wire.field(b.origin);
  // seq, flags, the shortest group tag (length, 'g', NUL), payload length.
  cdr::sequence(wire, b.msgs, 65536, 8 + 1 + 6 + 4, "implausible batch size",
                [&](auto& d) {
                  // Ring and origin are the frame's; recovery messages are
                  // never batched, so no old-ring coordinates per message.
                  if constexpr (IO::kReading) {
                    d.ring = b.ring;
                    d.origin = b.origin;
                  }
                  wire.field(d.seq);
                  wire.field(d.flags);
                  if constexpr (IO::kReading) {
                    if (d.flags & kFlagRecovery) {
                      throw cdr::MarshalError("recovery message inside batch");
                    }
                  }
                  io_body(wire, d);
                });
}

template <class IO>
void io(IO& wire, cdr::Ref<IO, TokenMsg> t) {
  io(wire, t.ring);
  wire.field(t.token_id);
  wire.field(t.seq);
  wire.field(t.accum_min);
  wire.field(t.safe_seq);
  seqs(wire, t.retransmit);
  wire.field(t.dest);
}

template <class IO>
void io(IO& wire, cdr::Ref<IO, JoinMsg> j) {
  wire.field(j.sender);
  nodes(wire, j.candidates);
  wire.field(j.max_epoch);
}

template <class IO>
void io(IO& wire, cdr::Ref<IO, CommitMsg> c) {
  io(wire, c.ring);
  nodes(wire, c.members);
  wire.field(c.pass);
  // member, has_old_ring, old ring, old_aru, old_high.
  cdr::sequence(wire, c.infos, 65536, 4 + 1 + 12 + 16,
                "implausible commit infos", [&](auto& info) {
                  wire.field(info.member);
                  wire.field(info.has_old_ring);
                  io(wire, info.old_ring);
                  wire.field(info.old_aru);
                  wire.field(info.old_high);
                });
  wire.field(c.dest);
}

template <class IO>
void io(IO& wire, cdr::Ref<IO, RingAnnounceMsg> a) {
  wire.field(a.sender);
  io(wire, a.ring);
  nodes(wire, a.members);
}

template <class IO>
void io(IO& wire, cdr::Ref<IO, Packet> pkt) {
  cdr::enumeration(wire, pkt.kind, MsgKind::Data, MsgKind::Batch,
                   "bad totem msg kind");
  switch (pkt.kind) {
    case MsgKind::Data: io(wire, pkt.data); break;
    case MsgKind::Batch: io(wire, pkt.batch); break;
    case MsgKind::Token: io(wire, pkt.token); break;
    case MsgKind::Join: io(wire, pkt.join); break;
    case MsgKind::Commit: io(wire, pkt.commit); break;
    case MsgKind::RingAnnounce: io(wire, pkt.announce); break;
  }
}

template <class IO>
void io(IO& wire, cdr::Ref<IO, std::set<std::string>> groups) {
  cdr::sequence(wire, groups, 65536, 5, "implausible group count",
                [&](auto& g) { wire.field(g); });
}

}  // namespace

void encode_data_into(cdr::Writer& w, const DataMsg& d) { io(w, d); }

cdr::WireBuf encode_data(cdr::Arena& arena, const DataMsg& d) {
  cdr::Writer w(arena, d.payload.size() + 128);
  encode_data_into(w, d);
  return w.seal();
}

DataMsg decode_data_payload(const cdr::WireBuf& payload) {
  cdr::Decoder dec(payload);
  DataMsg d;
  io(dec, d);
  return d;
}

void encode_packet_into(cdr::Writer& w, const Packet& pkt) { io(w, pkt); }

void decode_packet_into(Packet& pkt, const cdr::WireBuf& frame) {
  cdr::Decoder dec(frame);
  io(dec, pkt);
}

void encode_group_announce_into(cdr::Writer& w,
                                const std::set<std::string>& groups) {
  io(w, groups);
}

void decode_group_announce(const cdr::WireBuf& payload,
                           std::set<std::string>& groups) {
  cdr::Decoder dec(payload);
  io(dec, groups);
}

Bytes encode(const Packet& pkt) {
  cdr::Arena arena;
  cdr::Writer w(arena);
  encode_packet_into(w, pkt);
  return w.seal().to_bytes();
}

Packet decode_packet(const Bytes& wire) {
  Packet pkt;
  decode_packet_into(pkt, cdr::WireBuf(wire));
  return pkt;
}

}  // namespace eternal::totem
