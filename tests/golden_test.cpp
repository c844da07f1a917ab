// Golden wire, tape and dump bytes for every codec, a decode-then-encode
// round trip over them, and a truncation and bit-flip sweep over the same
// frames.
//
// The goldens are literal bytes recorded from the codecs as they stood
// before the two CDR encoders were merged into cdr::Writer; any change to
// an encoder that moves a single byte fails here, by name. The round trip
// holds each decoder to the same bytes: whatever a codec's decoder returns
// must encode back to exactly the frame it was read from. The sweep
// decodes every prefix truncation and every single-byte XOR 0xFF of each
// golden frame: a decoder may accept the damaged frame or throw
// cdr::MarshalError, and nothing else (no other exception, no crash; the
// sanitizer builds catch the rest).
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <map>
#include <set>

#include "app/servants.hpp"
#include "dur/journal.hpp"
#include "ft/recovery.hpp"
#include "ft/replication_manager.hpp"
#include "giop/giop.hpp"
#include "obs/recorder.hpp"
#include "orb/adapter.hpp"
#include "rep/wire.hpp"
#include "totem/wire.hpp"

namespace eternal {
namespace {

using cdr::Bytes;

std::string hex(std::span<const std::uint8_t> bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (std::uint8_t b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 15]);
  }
  return out;
}

Bytes text(std::string_view s) { return Bytes(s.begin(), s.end()); }

struct Golden {
  std::string name;
  Bytes bytes;
  /// The codec's decoder over (possibly damaged) bytes.
  std::function<void(const Bytes&)> decode;
  /// Decodes intact bytes and encodes the result again; empty when the
  /// decoder does not return the whole message.
  std::function<Bytes(const Bytes&)> reencode = nullptr;
};

// --- totem ------------------------------------------------------------------

totem::DataMsg data_msg(std::uint64_t seq, std::uint8_t flags) {
  totem::DataMsg d;
  d.ring = {7, 2};
  d.seq = seq;
  d.origin = 2;
  d.flags = flags;
  d.group = totem::group_buf("bank");
  d.payload = cdr::WireBuf(text("payload"));
  if (flags & totem::kFlagTraced) {
    d.trace_id = 0x1111;
    d.parent_span = 0x2222;
  }
  if (flags & totem::kFlagRecovery) {
    d.old_ring = {5, 1};
    d.old_seq = 99;
  }
  return d;
}

void add_totem(std::vector<Golden>& out) {
  const auto decode = [](const Bytes& b) { (void)totem::decode_packet(b); };
  const auto reencode = [](const Bytes& b) {
    return totem::encode(totem::decode_packet(b));
  };
  const auto add = [&](const std::string& name, const totem::Packet& p) {
    out.push_back({"totem." + name, totem::encode(p), decode, reencode});
  };
  totem::Packet p;
  p.kind = totem::MsgKind::Data;
  p.data = data_msg(41, 0);
  add("data", p);
  p.data = data_msg(42, totem::kFlagTraced | totem::kFlagRecovery |
                            totem::kFlagControl);
  add("data_traced_recovery", p);

  p = {};
  p.kind = totem::MsgKind::Batch;
  p.batch.ring = {7, 2};
  p.batch.origin = 2;
  p.batch.msgs = {data_msg(43, 0), data_msg(44, totem::kFlagTraced)};
  add("batch", p);

  p = {};
  p.kind = totem::MsgKind::Token;
  p.token = {{7, 2}, 12, 44, 40, 39, {41, 43}, 3};
  add("token", p);

  p = {};
  p.kind = totem::MsgKind::Join;
  p.join = {1, {0, 1, 2}, 7};
  add("join", p);

  p = {};
  p.kind = totem::MsgKind::Commit;
  p.commit.ring = {8, 0};
  p.commit.members = {0, 1};
  p.commit.pass = 2;
  p.commit.infos = {{0, true, {7, 2}, 44, 45}, {1, false, {}, 0, 0}};
  p.commit.dest = 1;
  add("commit", p);

  p = {};
  p.kind = totem::MsgKind::RingAnnounce;
  p.announce = {2, {7, 2}, {0, 1, 2}};
  add("ring_announce", p);

  const std::set<std::string> groups = {"bank", "counter"};
  out.push_back(
      {"totem.group_announce", cdr::make_bytes([&](cdr::Writer& w) {
         totem::encode_group_announce_into(w, groups);
       }),
       [](const Bytes& b) {
         std::set<std::string> g;
         totem::decode_group_announce(cdr::WireBuf(b), g);
       },
       [](const Bytes& b) {
         std::set<std::string> g;
         totem::decode_group_announce(cdr::WireBuf(b), g);
         return cdr::make_bytes([&](cdr::Writer& w) {
           totem::encode_group_announce_into(w, g);
         });
       }});
}

// --- rep envelopes ----------------------------------------------------------

void add_envelopes(std::vector<Golden>& out) {
  const auto decode = [](const Bytes& b) {
    (void)rep::decode_envelope(cdr::WireBuf(b));
  };
  const auto reencode = [](const Bytes& b) {
    return rep::encode(rep::decode_envelope(cdr::WireBuf(b)));
  };
  for (int kind = 1; kind <= 7; ++kind) {
    for (const bool traced : {false, true}) {
      rep::Envelope env;
      env.kind = static_cast<rep::Kind>(kind);
      env.op_id = {{3, 17}, 2};
      env.target_group = "bank";
      env.source_group = kind == 1 ? "" : "bank";
      env.state_version = 9;
      switch (env.kind) {
        case rep::Kind::Invocation:
          env.reply_group = "client-3";
          env.timestamp = 123456;
          env.giop = cdr::WireBuf(text("GIOP-request"));
          env.operation = "incr";
          env.fulfillment = true;
          break;
        case rep::Kind::Response:
          env.giop = cdr::WireBuf(text("GIOP-reply"));
          break;
        case rep::Kind::StateUpdate:
          env.operation = "incr";
          env.update = cdr::WireBuf(text("postimage"));
          break;
        case rep::Kind::JoinRequest:
          env.node = 4;
          env.round = 2;
          break;
        case rep::Kind::Snapshot:
          env.node = 4;
          env.round = 2;
          env.chunk_index = 1;
          env.chunk_count = 3;
          env.blob = cdr::WireBuf(text("chunk"));
          break;
        case rep::Kind::SyncedMark:
          env.node = 4;
          env.has_history = true;
          break;
        case rep::Kind::StateDigest:
          env.node = 1;
          env.operation = "incr";
          env.digest = 0xfeedface;
          env.read_only = true;
          break;
      }
      if (traced) {
        env.trace_id = 0xabc;
        env.parent_span = 0xdef;
      }
      out.push_back({"rep.kind" + std::to_string(kind) +
                         (traced ? "_traced" : ""),
                     rep::encode(env), decode, reencode});
    }
  }
}

// --- GIOP and FT ------------------------------------------------------------

void decode_giop(const Bytes& b) {
  const giop::Message msg = giop::decode(b);
  if (msg.request) {
    for (const auto& c : msg.request->service_contexts) {
      if (c.context_id == static_cast<std::uint32_t>(
                              giop::ServiceId::FtRequest)) {
        (void)giop::FtRequestContext::decode(c.context_data);
      } else {
        (void)giop::FtGroupVersionContext::decode(c.context_data);
      }
    }
  }
  if (msg.reply &&
      msg.reply->reply_status == giop::ReplyStatus::SystemException) {
    cdr::Decoder dec(msg.body);
    (void)giop::SystemExceptionBody::decode(dec);
  }
}

void add_giop(std::vector<Golden>& out) {
  giop::FtRequestContext ft{"client-3", 7, 900000};
  giop::FtGroupVersionContext gv{4};
  out.push_back({"giop.ft_request_context", ft.encode(),
                 [](const Bytes& b) {
                   (void)giop::FtRequestContext::decode(cdr::WireBuf(b));
                 },
                 [](const Bytes& b) {
                   return giop::FtRequestContext::decode(cdr::WireBuf(b))
                       .encode();
                 }});
  out.push_back({"giop.ft_group_version_context", gv.encode(),
                 [](const Bytes& b) {
                   (void)giop::FtGroupVersionContext::decode(
                       cdr::WireBuf(b));
                 },
                 [](const Bytes& b) {
                   return giop::FtGroupVersionContext::decode(cdr::WireBuf(b))
                       .encode();
                 }});

  giop::RequestHeader req;
  req.service_contexts = {
      {static_cast<std::uint32_t>(giop::ServiceId::FtRequest),
       cdr::WireBuf(ft.encode())},
      {static_cast<std::uint32_t>(giop::ServiceId::FtGroupVersion),
       cdr::WireBuf(gv.encode())}};
  req.request_id = 77;
  req.object_key = cdr::WireBuf(text("bank"));
  req.operation = "deposit";
  const Bytes args{1, 0, 0, 0, 0, 0, 0, 0};
  out.push_back({"giop.request", giop::encode_request(req, args), decode_giop,
                 [](const Bytes& b) {
                   const giop::Message msg = giop::decode(b);
                   return giop::encode_request(*msg.request,
                                               msg.body.to_bytes());
                 }});

  giop::ReplyHeader rep;
  rep.request_id = 77;
  out.push_back({"giop.reply", giop::encode_reply(rep, args), decode_giop,
                 [](const Bytes& b) {
                   const giop::Message msg = giop::decode(b);
                   return giop::encode_reply(*msg.reply, msg.body.to_bytes());
                 }});

  cdr::Arena arena;
  const cdr::WireBuf ex = orb::make_exception_reply(
      arena, 78,
      orb::SystemException("IDL:omg.org/CORBA/TRANSIENT:1.0", 3,
                           orb::Completion::No));
  out.push_back({"giop.system_exception_reply", ex.to_bytes(), decode_giop,
                 [](const Bytes& b) {
                   const giop::Message msg = giop::decode(b);
                   cdr::Decoder dec(msg.body);
                   const giop::SystemExceptionBody body =
                       giop::SystemExceptionBody::decode(dec);
                   return cdr::make_bytes([&](cdr::Writer& w) {
                     giop::encode_exception_reply_into(
                         w, msg.reply->request_id, body);
                   });
                 }});

  ft::Iogr iogr;
  iogr.type_id = "IDL:Bank:1.0";
  iogr.group = "bank";
  iogr.version = 5;
  iogr.profiles = {{0, text("bank")}, {2, text("bank")}};
  out.push_back({"ft.iogr", iogr.encode(),
                 [](const Bytes& b) { (void)ft::Iogr::decode(b); },
                 [](const Bytes& b) { return ft::Iogr::decode(b).encode(); }});
}

// --- flight recorder --------------------------------------------------------

void add_flight_recorder(std::vector<Golden>& out) {
  obs::FlightRecorder fr(4);
  fr.enable();
  for (std::uint32_t i = 0; i < 3; ++i) {
    obs::FlightRecord r;
    r.time = 1000 * (i + 1);
    r.end = r.time + 5;
    r.node = i % 2;
    r.stream = i == 2 ? obs::FlightRecord::Stream::Journal
                      : obs::FlightRecord::Stream::Span;
    r.kind = static_cast<std::uint8_t>(i + 1);
    r.op = {3, 17, i};
    r.trace_id = 0xabc;
    r.span_id = 10 + i;
    r.parent_span = 9 + i;
    r.set_detail("group=bank op=incr");
    fr.absorb(r);
  }
  // The dump decoder returns the records alone, so the round trip absorbs
  // them record by record into a fresh recorder: node and count headers
  // are rebuilt from the records (each ring's absorbed total is its record
  // count, as no ring of this dump wrapped).
  out.push_back({"obs.flight_dump", fr.encode(),
                 [](const Bytes& b) { (void)obs::FlightRecorder::decode(b); },
                 [](const Bytes& b) {
                   obs::FlightRecorder again(4);
                   again.enable();
                   for (const obs::FlightRecord& r :
                        obs::FlightRecorder::decode(b)) {
                     again.absorb(r);
                   }
                   return again.encode();
                 }});
}

// --- durable tape -----------------------------------------------------------

/// A durable frame decoded and framed again through the record codec.
template <class Decode, class Encode>
std::function<Bytes(const Bytes&)> frame_reencoder(Decode decode_record,
                                                   Encode encode_record) {
  return [decode_record, encode_record](const Bytes& b) {
    std::size_t off = 0, len = 0;
    EXPECT_TRUE(dur::frame_parse(b, 0, off, len));
    cdr::Decoder dec(std::span<const std::uint8_t>(b.data() + off, len));
    const auto record = decode_record(dec);
    return cdr::make_bytes([&](cdr::Writer& w) {
      dur::frame_begin(w);
      encode_record(w, record);
      dur::frame_end(w);
    });
  };
}

template <class Decode>
std::function<void(const Bytes&)> frame_decoder(Decode decode_record) {
  return [decode_record](const Bytes& b) {
    // Through the frame check, as a journal scan or checkpoint load reads
    // it, and straight at the payload, so damage the CRC would catch still
    // reaches the record decoder.
    std::size_t off = 0, len = 0;
    if (dur::frame_parse(b, 0, off, len)) {
      cdr::Decoder dec(std::span<const std::uint8_t>(b.data() + off, len));
      decode_record(dec);
    }
    if (b.size() >= 8) {
      cdr::Decoder dec(std::span<const std::uint8_t>(b.data() + 8,
                                                     b.size() - 8));
      decode_record(dec);
    }
  };
}

void add_dur_frames(std::vector<Golden>& out) {
  sim::Disk disk;
  dur::Journal journal(disk);
  dur::JournalRecord rec;
  rec.carrier = {7, 41};
  rec.sender = 2;
  rec.kind = 1;
  rec.group = "bank";
  rec.op = {{3, 17}, 2};
  rec.payload = text("envelope-bytes");
  ASSERT_TRUE(journal.append(rec));
  out.push_back({"dur.journal_frame", *disk.read("journal"),
                 frame_decoder([](cdr::Decoder& d) {
                   (void)dur::decode_journal_record(d);
                 }),
                 frame_reencoder(
                     [](cdr::Decoder& d) {
                       return dur::decode_journal_record(d);
                     },
                     [](cdr::Writer& w, const dur::JournalRecord& r) {
                       dur::encode_journal_record_into(w, r);
                     })});

  dur::CheckpointStore store(disk);
  dur::CheckpointRecord ck;
  ck.group = "bank";
  ck.style = 1;
  ck.state_version = 9;
  ck.digest = 0xfeedface;
  ck.position = 12;
  ck.max_epoch = 7;
  ck.client_next_op = 30;
  ck.blob = text("three-tier-blob");
  ASSERT_TRUE(store.save(ck));
  out.push_back({"dur.checkpoint_frame",
                 *disk.read("ckpt-bank-00000000000000000009"),
                 frame_decoder([](cdr::Decoder& d) {
                   (void)dur::decode_checkpoint_record(d);
                 }),
                 frame_reencoder(
                     [](cdr::Decoder& d) {
                       return dur::decode_checkpoint_record(d);
                     },
                     [](cdr::Writer& w, const dur::CheckpointRecord& r) {
                       dur::encode_checkpoint_record_into(w, r);
                     })});
}

// A three-tier checkpoint blob, walked the way Engine::apply_checkpoint
// reads it (the engine's reader is private to the group state it fills).
void decode_checkpoint_blob(const Bytes& blob) {
  cdr::Decoder dec(blob);
  const Bytes tier1 = dec.get_octet_seq();
  const Bytes tier2 = dec.get_octet_seq();
  const Bytes tier3 = dec.get_octet_seq();
  cdr::Decoder d1(tier1);
  (void)d1.get_longlong();  // Counter state
  cdr::Decoder d2(tier2);
  for (std::uint32_t n = d2.get_ulong(); n > 0; --n) {
    (void)d2.get_ulonglong();
    (void)d2.get_ulonglong();
    (void)d2.get_ulonglong();
    (void)d2.get_octet_seq_buf();
  }
  for (std::uint32_t n = d2.get_ulong(); n > 0; --n) {
    (void)d2.get_ulonglong();
    (void)d2.get_ulonglong();
    (void)d2.get_ulonglong();
  }
  cdr::Decoder d3(tier3);
  (void)d3.get_ulonglong();
  for (std::uint32_t n = d3.get_ulong(); n > 0; --n) {
    (void)rep::decode_envelope(cdr::WireBuf(d3.get_octet_seq()));
    (void)d3.get_ulonglong();
    (void)d3.get_ulonglong();
  }
  for (std::uint32_t n = d3.get_ulong(); n > 0; --n) (void)d3.get_ulong();
}

/// A live checkpoint cut and meta write: a 3-replica active counter with
/// checkpoint interval 2, driven through two increments.
void add_cut_checkpoint(std::vector<Golden>& out) {
  sim::DiskFarm farm(4);
  dur::DurParams dp;
  dp.checkpoint_interval = 2;
  sim::Simulation sim(5);
  sim::Network net(sim, 4);
  totem::Fabric fabric(sim, net);
  rep::Domain domain(fabric);
  ft::FaultNotifier notifier;
  ft::ReplicationManager rm(domain, notifier);
  ft::DurabilityPlane plane(domain, farm, dp);
  rm.set_durability_plane(&plane);
  fabric.start_all();
  plane.attach_all();
  ft::Properties props;
  props.replication_style = rep::Style::Active;
  props.initial_number_replicas = 3;
  props.minimum_number_replicas = 2;
  rm.create_object<app::Counter>("counter", props, {{0, 1, 2}});
  ASSERT_TRUE(fabric.run_until_converged(2 * sim::kSecond));
  sim.run_for(300 * sim::kMillisecond);
  for (std::int64_t d : {5, 6}) {
    const Bytes arg{static_cast<std::uint8_t>(d), 0, 0, 0, 0, 0, 0, 0};
    (void)domain.client(3).invoke_blocking("counter", "incr", arg);
  }
  plane.sync_all();

  const sim::Disk& disk = farm.disk(0);
  const sim::DiskBytes* ckpt = disk.read("ckpt-counter-00000000000000000002");
  ASSERT_NE(ckpt, nullptr);
  std::size_t off = 0, len = 0;
  ASSERT_TRUE(dur::frame_parse(*ckpt, 0, off, len));
  cdr::Decoder dec(std::span<const std::uint8_t>(ckpt->data() + off, len));
  out.push_back({"rep.checkpoint_blob", dur::decode_checkpoint_record(dec).blob,
                 decode_checkpoint_blob});
  out.push_back({"dur.meta_frame", *disk.read("meta"),
                 frame_decoder([](cdr::Decoder& d) {
                   (void)dur::decode_meta_record(d);
                 }),
                 frame_reencoder(
                     [](cdr::Decoder& d) { return dur::decode_meta_record(d); },
                     [](cdr::Writer& w, const dur::MetaRecord& r) {
                       dur::encode_meta_record_into(w, r);
                     })});
}

std::vector<Golden> all_goldens() {
  std::vector<Golden> out;
  add_totem(out);
  add_envelopes(out);
  add_giop(out);
  add_flight_recorder(out);
  add_dur_frames(out);
  add_cut_checkpoint(out);
  return out;
}

const std::map<std::string, std::string>& expected() {
  static const std::map<std::string, std::string> golden = {
      {"totem.data",
       "0100000000000000070000000000000002000000000000002900000000000000"
       "0200000000000000060000006762616e6b000000070000007061796c6f6164"},
      {"totem.data_traced_recovery",
       "0100000000000000070000000000000002000000000000002a00000000000000"
       "0200000007000000060000006762616e6b000000070000007061796c6f616400"
       "1111000000000000222200000000000005000000000000000100000000000000"
       "6300000000000000"},
      {"totem.batch",
       "0600000000000000070000000000000002000000020000000200000000000000"
       "2b0000000000000000000000060000006762616e6b000000070000007061796c"
       "6f616400000000002c0000000000000004000000060000006762616e6b000000"
       "070000007061796c6f6164000000000011110000000000002222000000000000"},
      {"totem.token",
       "0200000000000000070000000000000002000000000000000c00000000000000"
       "2c00000000000000280000000000000027000000000000000200000000000000"
       "29000000000000002b0000000000000003000000"},
      {"totem.join",
       "0300000001000000030000000000000001000000020000000700000000000000"},
      {"totem.commit",
       "0400000000000000080000000000000000000000020000000000000001000000"
       "0200000002000000000000000100000007000000000000000200000000000000"
       "2c000000000000002d0000000000000001000000000000000000000000000000"
       "00000000000000000000000000000000000000000000000001000000"},
      {"totem.ring_announce",
       "0500000002000000070000000000000002000000030000000000000001000000"
       "02000000"},
      {"totem.group_announce",
       "020000000500000062616e6b0000000008000000636f756e74657200"},
      {"rep.kind1",
       "0100000000000000030000000000000011000000000000000200000000000000"
       "0500000062616e6b0000000009000000636c69656e742d330000000001000000"
       "000100000000000040e20100000000000c00000047494f502d72657175657374"
       "090000000000000005000000696e637200000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "00"},
      {"rep.kind1_traced",
       "0100000000000000030000000000000011000000000000000200000000000000"
       "0500000062616e6b0000000009000000636c69656e742d330000000001000000"
       "000100000000000040e20100000000000c00000047494f502d72657175657374"
       "090000000000000005000000696e637200000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0100000000000000bc0a000000000000ef0d000000000000"},
      {"rep.kind2",
       "0200000000000000030000000000000011000000000000000200000000000000"
       "0500000062616e6b0000000001000000000000000500000062616e6b00000000"
       "00000000000000000a00000047494f502d7265706c7900000900000000000000"
       "0100000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000"},
      {"rep.kind2_traced",
       "0200000000000000030000000000000011000000000000000200000000000000"
       "0500000062616e6b0000000001000000000000000500000062616e6b00000000"
       "00000000000000000a00000047494f502d7265706c7900000900000000000000"
       "0100000000000000000000000000000000000000000000000000000000000000"
       "000000000000000000000000000000000100000000000000bc0a000000000000"
       "ef0d000000000000"},
      {"rep.kind3",
       "0300000000000000030000000000000011000000000000000200000000000000"
       "0500000062616e6b0000000001000000000000000500000062616e6b00000000"
       "00000000000000000000000000000000090000000000000005000000696e6372"
       "0000000009000000706f7374696d616765000000000000000000000000000000"
       "00000000000000000000000000000000000000000000000000"},
      {"rep.kind3_traced",
       "0300000000000000030000000000000011000000000000000200000000000000"
       "0500000062616e6b0000000001000000000000000500000062616e6b00000000"
       "00000000000000000000000000000000090000000000000005000000696e6372"
       "0000000009000000706f7374696d616765000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000100000000000000"
       "bc0a000000000000ef0d000000000000"},
      {"rep.kind4",
       "0400000000000000030000000000000011000000000000000200000000000000"
       "0500000062616e6b0000000001000000000000000500000062616e6b00000000"
       "0000000000000000000000000000000009000000000000000100000000000000"
       "0000000000000000040000000200000000000000000000000000000000000000"
       "000000000000000000"},
      {"rep.kind4_traced",
       "0400000000000000030000000000000011000000000000000200000000000000"
       "0500000062616e6b0000000001000000000000000500000062616e6b00000000"
       "0000000000000000000000000000000009000000000000000100000000000000"
       "0000000000000000040000000200000000000000000000000000000000000000"
       "00000000000000000100000000000000bc0a000000000000ef0d000000000000"},
      {"rep.kind5",
       "0500000000000000030000000000000011000000000000000200000000000000"
       "0500000062616e6b0000000001000000000000000500000062616e6b00000000"
       "0000000000000000000000000000000009000000000000000100000000000000"
       "0000000000000000040000000200000000000000010000000300000005000000"
       "6368756e6b000000000000000000000000"},
      {"rep.kind5_traced",
       "0500000000000000030000000000000011000000000000000200000000000000"
       "0500000062616e6b0000000001000000000000000500000062616e6b00000000"
       "0000000000000000000000000000000009000000000000000100000000000000"
       "0000000000000000040000000200000000000000010000000300000005000000"
       "6368756e6b00000000000000000000000100000000000000bc0a000000000000"
       "ef0d000000000000"},
      {"rep.kind6",
       "0600000000000000030000000000000011000000000000000200000000000000"
       "0500000062616e6b0000000001000000000000000500000062616e6b00000000"
       "0000000000000000000000000000000009000000000000000100000000000000"
       "0000000000000000040000000000000001000000000000000000000000000000"
       "000000000000000000"},
      {"rep.kind6_traced",
       "0600000000000000030000000000000011000000000000000200000000000000"
       "0500000062616e6b0000000001000000000000000500000062616e6b00000000"
       "0000000000000000000000000000000009000000000000000100000000000000"
       "0000000000000000040000000000000001000000000000000000000000000000"
       "00000000000000000100000000000000bc0a000000000000ef0d000000000000"},
      {"rep.kind7",
       "0700000000000000030000000000000011000000000000000200000000000000"
       "0500000062616e6b0000000001000000000000000500000062616e6b00000000"
       "00000000000000000000000000000000090000000000000005000000696e6372"
       "0000000000000000010000000100000000000000000000000000000000000000"
       "0000000000000000cefaedfe0000000000"},
      {"rep.kind7_traced",
       "0700000000000000030000000000000011000000000000000200000000000000"
       "0500000062616e6b0000000001000000000000000500000062616e6b00000000"
       "00000000000000000000000000000000090000000000000005000000696e6372"
       "0000000000000000010000000100000000000000000000000000000000000000"
       "0000000000000000cefaedfe000000000100000000000000bc0a000000000000"
       "ef0d000000000000"},
      {"giop.ft_request_context",
       "0100000009000000636c69656e742d330000000007000000a0bb0d0000000000"},
      {"giop.ft_group_version_context",
       "0100000004000000"},
      {"giop.request",
       "47494f500100010068000000020000000d000000200000000100000009000000"
       "636c69656e742d330000000007000000a0bb0d00000000000c00000008000000"
       "01000000040000004d000000010000000400000062616e6b080000006465706f"
       "7369740000000000000000000100000000000000"},
      {"giop.reply",
       "47494f500100010118000000000000004d000000000000000000000001000000"
       "00000000"},
      {"giop.system_exception_reply",
       "47494f50010001013c000000000000004e000000020000000000000020000000"
       "49444c3a6f6d672e6f72672f434f5242412f5452414e5349454e543a312e3000"
       "0300000001000000"},
      {"ft.iogr",
       "010000000d00000049444c3a42616e6b3a312e30000000000500000062616e6b"
       "000000000500000002000000000000000400000062616e6b0200000004000000"
       "62616e6b"},
      {"obs.flight_dump",
       "5246544501000000020000000000000002000000000000000200000000000000"
       "e803000000000000ed0300000000000000000000000100000300000000000000"
       "11000000000000000000000000000000bc0a0000000000000a00000000000000"
       "09000000000000001300000067726f75703d62616e6b206f703d696e63720000"
       "b80b000000000000bd0b00000000000000000000010300000300000000000000"
       "11000000000000000200000000000000bc0a0000000000000c00000000000000"
       "0b000000000000001300000067726f75703d62616e6b206f703d696e63720000"
       "010000000000000001000000000000000100000000000000d007000000000000"
       "d507000000000000010000000002000003000000000000001100000000000000"
       "0100000000000000bc0a0000000000000b000000000000000a00000000000000"
       "1300000067726f75703d62616e6b206f703d696e637200"},
      {"dur.journal_frame",
       "5a000000b49ea629000000000000000007000000000000002900000000000000"
       "02000000010000000500000062616e6b00000000000000000300000000000000"
       "110000000000000002000000000000000e000000656e76656c6f70652d627974"
       "6573"},
      {"dur.checkpoint_frame",
       "4b0000000cbe67640500000062616e6b00010000000000000900000000000000"
       "cefaedfe000000000c0000000000000007000000000000001e00000000000000"
       "0f00000074687265652d746965722d626c6f62"},
      {"rep.checkpoint_blob",
       "100000000b000000000000000200000000000000c00000000200000000000000"
       "0000000000000000040000000000000001000000000000002400000047494f50"
       "0100010118000000000000000100000000000000000000000500000000000000"
       "0000000000000000040000000000000002000000000000002400000047494f50"
       "0100010118000000000000000200000000000000000000000b00000000000000"
       "0200000000000000000000000000000004000000000000000100000000000000"
       "0000000000000000040000000000000002000000000000001c00000002000000"
       "000000000000000003000000000000000100000002000000"},
      {"dur.meta_frame",
       "10000000c4dad34201000000000000000000000000000000"},
  };
  return golden;
}

TEST(Golden, EveryCodecMatchesItsRecordedBytes) {
  const std::vector<Golden> goldens = all_goldens();
  ASSERT_EQ(goldens.size(), 8u + 14u + 6u + 1u + 2u + 2u);
  for (const Golden& g : goldens) {
    const auto it = expected().find(g.name);
    const std::string got = hex(g.bytes);
    if (it == expected().end()) {
      ADD_FAILURE() << "no golden for " << g.name << ": {\"" << g.name
                    << "\", \"" << got << "\"},";
      continue;
    }
    EXPECT_EQ(got, it->second) << g.name;
  }
}

TEST(Golden, DecodeThenEncodeReproducesTheBytes) {
  // The checkpoint blob is read by the engine's private checkpoint reader;
  // the test walks it by hand, so there is no whole message to re-encode.
  const std::set<std::string> no_whole_decoder = {"rep.checkpoint_blob"};
  std::size_t checked = 0;
  for (const Golden& g : all_goldens()) {
    if (!g.reencode) {
      EXPECT_TRUE(no_whole_decoder.count(g.name)) << "no round trip: "
                                                  << g.name;
      continue;
    }
    EXPECT_EQ(hex(g.reencode(g.bytes)), hex(g.bytes)) << g.name;
    ++checked;
  }
  EXPECT_EQ(checked, all_goldens().size() - no_whole_decoder.size());
}

TEST(Golden, TruncationAndBitFlipSweepOnlyThrowsMarshalError) {
  std::size_t cases = 0;
  for (const Golden& g : all_goldens()) {
    // Sanity: the intact frame decodes.
    EXPECT_NO_THROW(g.decode(g.bytes)) << g.name;
    const auto attempt = [&](const Bytes& damaged, const std::string& what) {
      ++cases;
      try {
        g.decode(damaged);
      } catch (const cdr::MarshalError&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << g.name << " " << what << ": " << e.what();
      }
    };
    for (std::size_t n = 0; n < g.bytes.size(); ++n) {
      attempt(Bytes(g.bytes.begin(), g.bytes.begin() + n),
              "truncated to " + std::to_string(n));
    }
    for (std::size_t i = 0; i < g.bytes.size(); ++i) {
      Bytes flipped = g.bytes;
      flipped[i] ^= 0xFF;
      attempt(flipped, "byte " + std::to_string(i) + " flipped");
    }
  }
  EXPECT_GT(cases, 5000u);
}

}  // namespace
}  // namespace eternal
