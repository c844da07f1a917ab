#include "totem/wire.hpp"

#include <algorithm>

namespace eternal::totem {

namespace {

void put_ring(cdr::Writer& w, const RingId& r) {
  w.put_ulonglong(r.epoch);
  w.put_ulong(r.leader);
}

RingId get_ring(cdr::Decoder& dec) {
  RingId r;
  r.epoch = dec.get_ulonglong();
  r.leader = dec.get_ulong();
  return r;
}

void put_nodes(cdr::Writer& w, const std::vector<NodeId>& nodes) {
  w.put_ulong(static_cast<std::uint32_t>(nodes.size()));
  for (NodeId n : nodes) w.put_ulong(n);
}

// A count field is only a claim: reserve no more elements than the bytes
// left could hold at `min_bytes` each, so a hostile count cannot allocate
// before the underflow exposes it.
std::size_t bounded(std::uint32_t n, const cdr::Decoder& dec,
                    std::size_t min_bytes) {
  return std::min<std::size_t>(n, dec.remaining() / min_bytes);
}

void get_nodes(cdr::Decoder& dec, std::vector<NodeId>& nodes) {
  const std::uint32_t n = dec.get_ulong();
  if (n > 65536) throw cdr::MarshalError("implausible node list");
  nodes.clear();
  nodes.reserve(bounded(n, dec, 4));
  for (std::uint32_t i = 0; i < n; ++i) nodes.push_back(dec.get_ulong());
}

void put_seqs(cdr::Writer& w, const std::vector<std::uint64_t>& seqs) {
  w.put_ulong(static_cast<std::uint32_t>(seqs.size()));
  for (auto s : seqs) w.put_ulonglong(s);
}

void get_seqs(cdr::Decoder& dec, std::vector<std::uint64_t>& seqs) {
  const std::uint32_t n = dec.get_ulong();
  if (n > 1 << 20) throw cdr::MarshalError("implausible seq list");
  seqs.clear();
  seqs.reserve(bounded(n, dec, 8));
  for (std::uint32_t i = 0; i < n; ++i) seqs.push_back(dec.get_ulonglong());
}

// The group tag is the CDR string "g" + group: the leading 'g' keeps the
// wire string non-empty even for the root group. Encoded field by field so
// the hot path never builds the concatenated temporary; the byte layout is
// exactly put_string("g" + group) — ulong(len+2), 'g', name bytes, NUL.
void put_group_tag(cdr::Writer& w, const cdr::WireBuf& group) {
  if (group.size() + 2 > 0xffffffffULL) {
    throw cdr::MarshalError("group name too long");
  }
  w.put_ulong(static_cast<std::uint32_t>(group.size()) + 2);
  w.put_octet('g');
  w.put_raw(group.span());
  w.put_octet(0);
}

void get_group_tag(cdr::Decoder& dec, cdr::WireBuf& group) {
  const std::uint32_t len = dec.get_ulong();
  if (len < 2 || dec.get_octet() != 'g') {
    throw cdr::MarshalError("bad group tag");
  }
  // Borrow the name bytes from the arriving frame: a slab refcount bump (or
  // an inline memcpy for small frames), never a std::string rehydration.
  group = dec.get_raw_buf(len - 2);
  if (dec.get_octet() != 0) {
    throw cdr::MarshalError("group tag missing NUL terminator");
  }
}

DataMsg decode_data_from(cdr::Decoder& dec) {
  DataMsg d;
  d.ring = get_ring(dec);
  d.seq = dec.get_ulonglong();
  d.origin = dec.get_ulong();
  d.flags = dec.get_octet();
  get_group_tag(dec, d.group);
  d.payload = dec.get_octet_seq_buf();
  if (d.flags & kFlagTraced) {
    d.trace_id = dec.get_ulonglong();
    d.parent_span = dec.get_ulonglong();
  }
  if (d.flags & kFlagRecovery) {
    d.old_ring = get_ring(dec);
    d.old_seq = dec.get_ulonglong();
  }
  return d;
}

void encode_batch_into(cdr::Writer& w, const BatchMsg& b) {
  put_ring(w, b.ring);
  w.put_ulong(b.origin);
  w.put_ulong(static_cast<std::uint32_t>(b.msgs.size()));
  for (const DataMsg& d : b.msgs) {
    // Ring and origin are the frame's; recovery messages are never batched,
    // so no old-ring coordinates per inner message.
    w.put_ulonglong(d.seq);
    w.put_octet(d.flags);
    put_group_tag(w, d.group);
    w.put_octet_seq(d.payload);
    if (d.flags & kFlagTraced) {
      w.put_ulonglong(d.trace_id);
      w.put_ulonglong(d.parent_span);
    }
  }
}

void decode_batch_from(cdr::Decoder& dec, BatchMsg& b) {
  b.ring = get_ring(dec);
  b.origin = dec.get_ulong();
  const std::uint32_t n = dec.get_ulong();
  if (n > 65536) throw cdr::MarshalError("implausible batch size");
  b.msgs.clear();
  // seq, flags, the shortest group tag (length, 'g', NUL), payload length.
  b.msgs.reserve(bounded(n, dec, 8 + 1 + 6 + 4));
  for (std::uint32_t i = 0; i < n; ++i) {
    DataMsg d;
    d.ring = b.ring;
    d.origin = b.origin;
    d.seq = dec.get_ulonglong();
    d.flags = dec.get_octet();
    if (d.flags & kFlagRecovery) {
      throw cdr::MarshalError("recovery message inside batch");
    }
    get_group_tag(dec, d.group);
    d.payload = dec.get_octet_seq_buf();
    if (d.flags & kFlagTraced) {
      d.trace_id = dec.get_ulonglong();
      d.parent_span = dec.get_ulonglong();
    }
    b.msgs.push_back(std::move(d));
  }
}

}  // namespace

void encode_data_into(cdr::Writer& w, const DataMsg& d) {
  put_ring(w, d.ring);
  w.put_ulonglong(d.seq);
  w.put_ulong(d.origin);
  w.put_octet(d.flags);
  put_group_tag(w, d.group);
  w.put_octet_seq(d.payload);
  if (d.flags & kFlagTraced) {
    w.put_ulonglong(d.trace_id);
    w.put_ulonglong(d.parent_span);
  }
  if (d.flags & kFlagRecovery) {
    put_ring(w, d.old_ring);
    w.put_ulonglong(d.old_seq);
  }
}

cdr::WireBuf encode_data(cdr::Arena& arena, const DataMsg& d) {
  cdr::Writer w(arena, d.payload.size() + 128);
  encode_data_into(w, d);
  return w.seal();
}

DataMsg decode_data_payload(const cdr::WireBuf& payload) {
  cdr::Decoder dec(payload);
  return decode_data_from(dec);
}

void encode_packet_into(cdr::Writer& w, const Packet& pkt) {
  w.put_octet(static_cast<std::uint8_t>(pkt.kind));
  switch (pkt.kind) {
    case MsgKind::Data:
      encode_data_into(w, pkt.data);
      break;
    case MsgKind::Batch:
      encode_batch_into(w, pkt.batch);
      break;
    case MsgKind::Token: {
      const TokenMsg& t = pkt.token;
      put_ring(w, t.ring);
      w.put_ulonglong(t.token_id);
      w.put_ulonglong(t.seq);
      w.put_ulonglong(t.accum_min);
      w.put_ulonglong(t.safe_seq);
      put_seqs(w, t.retransmit);
      w.put_ulong(t.dest);
      break;
    }
    case MsgKind::Join: {
      const JoinMsg& j = pkt.join;
      w.put_ulong(j.sender);
      put_nodes(w, j.candidates);
      w.put_ulonglong(j.max_epoch);
      break;
    }
    case MsgKind::Commit: {
      const CommitMsg& c = pkt.commit;
      put_ring(w, c.ring);
      put_nodes(w, c.members);
      w.put_octet(c.pass);
      w.put_ulong(static_cast<std::uint32_t>(c.infos.size()));
      for (const auto& info : c.infos) {
        w.put_ulong(info.member);
        w.put_boolean(info.has_old_ring);
        put_ring(w, info.old_ring);
        w.put_ulonglong(info.old_aru);
        w.put_ulonglong(info.old_high);
      }
      w.put_ulong(c.dest);
      break;
    }
    case MsgKind::RingAnnounce: {
      const RingAnnounceMsg& a = pkt.announce;
      w.put_ulong(a.sender);
      put_ring(w, a.ring);
      put_nodes(w, a.members);
      break;
    }
  }
}

void decode_packet_into(Packet& pkt, const cdr::WireBuf& frame) {
  cdr::Decoder dec(frame);
  const std::uint8_t kind = dec.get_octet();
  if (kind < 1 || kind > 6) throw cdr::MarshalError("bad totem msg kind");
  pkt.kind = static_cast<MsgKind>(kind);
  switch (pkt.kind) {
    case MsgKind::Data:
      pkt.data = decode_data_from(dec);
      break;
    case MsgKind::Batch:
      decode_batch_from(dec, pkt.batch);
      break;
    case MsgKind::Token: {
      TokenMsg& t = pkt.token;
      t.ring = get_ring(dec);
      t.token_id = dec.get_ulonglong();
      t.seq = dec.get_ulonglong();
      t.accum_min = dec.get_ulonglong();
      t.safe_seq = dec.get_ulonglong();
      get_seqs(dec, t.retransmit);
      t.dest = dec.get_ulong();
      break;
    }
    case MsgKind::Join: {
      JoinMsg& j = pkt.join;
      j.sender = dec.get_ulong();
      get_nodes(dec, j.candidates);
      j.max_epoch = dec.get_ulonglong();
      break;
    }
    case MsgKind::Commit: {
      CommitMsg& c = pkt.commit;
      c.ring = get_ring(dec);
      get_nodes(dec, c.members);
      c.pass = dec.get_octet();
      const std::uint32_t n = dec.get_ulong();
      if (n > 65536) throw cdr::MarshalError("implausible commit infos");
      c.infos.clear();
      for (std::uint32_t i = 0; i < n; ++i) {
        CommitInfo info;
        info.member = dec.get_ulong();
        info.has_old_ring = dec.get_boolean();
        info.old_ring = get_ring(dec);
        info.old_aru = dec.get_ulonglong();
        info.old_high = dec.get_ulonglong();
        c.infos.push_back(info);
      }
      c.dest = dec.get_ulong();
      break;
    }
    case MsgKind::RingAnnounce: {
      RingAnnounceMsg& a = pkt.announce;
      a.sender = dec.get_ulong();
      a.ring = get_ring(dec);
      get_nodes(dec, a.members);
      break;
    }
  }
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
