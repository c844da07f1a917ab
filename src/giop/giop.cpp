#include "giop/giop.hpp"

namespace eternal::giop {

namespace {

constexpr std::uint8_t kMagic[4] = {'G', 'I', 'O', 'P'};

template <class IO>
void contexts(IO& wire, cdr::Ref<IO, std::vector<ServiceContext>> ctxs) {
  // Each context is at least an id and a sequence length.
  cdr::sequence(wire, ctxs, 1024, 8, "implausible service context count",
                [&](auto& c) {
                  wire.field(c.context_id);
                  wire.field(c.context_data);
                });
}

// The 12-byte GIOP header up to the message size, which the writer
// reserves and backpatches and the reader checks (see callers). Flags bit
// 0 is the byte order of everything after the header.
template <class IO>
void io(IO& wire, cdr::Ref<IO, MessageHeader> h) {
  for (const std::uint8_t m : kMagic) cdr::constant(wire, m, "bad GIOP magic");
  wire.field(h.version_major);
  wire.field(h.version_minor);
  std::uint8_t flags = cdr::kHostLittleEndian ? 1 : 0;
  wire.field(flags);
  cdr::enumeration(wire, h.msg_type, MsgType::Request, MsgType::MessageError,
                   "bad GIOP message type");
  if constexpr (IO::kReading) {
    wire.set_swap(((flags & 1) != 0) != cdr::kHostLittleEndian);
  }
}

template <class IO>
void io(IO& wire, cdr::Ref<IO, RequestHeader> h) {
  contexts(wire, h.service_contexts);
  wire.field(h.request_id);
  wire.field(h.response_expected);
  wire.field(h.object_key);
  wire.field(h.operation);
  cdr::WireBuf principal;  // requesting principal (GIOP 1.0, always empty)
  wire.field(principal);
  wire.align(8);  // body starts 8-aligned, as GIOP 1.2 requires
}

template <class IO>
void io(IO& wire, cdr::Ref<IO, ReplyHeader> h) {
  contexts(wire, h.service_contexts);
  wire.field(h.request_id);
  cdr::enumeration(wire, h.reply_status, ReplyStatus::NoException,
                   ReplyStatus::LocationForward, "bad reply status");
  wire.align(8);
}

// The context data of both FT service contexts *is* an encapsulation's
// content: the endian flag, then fields aligned relative to it.
template <class IO>
void io(IO& wire, cdr::Ref<IO, FtRequestContext> c) {
  cdr::endian_flag(wire);
  wire.field(c.client_id);
  wire.field(c.retention_id);
  wire.field(c.expiration_time);
}

template <class IO>
void io(IO& wire, cdr::Ref<IO, FtGroupVersionContext> c) {
  cdr::endian_flag(wire);
  wire.field(c.object_group_ref_version);
}

template <class IO>
void io(IO& wire, cdr::Ref<IO, SystemExceptionBody> b) {
  wire.field(b.exception_id);
  wire.field(b.minor_code);
  wire.field(b.completion_status);
}

// Writes the 12-byte GIOP header with the message size reserved, and makes
// the byte after the header the alignment origin for the content stream.
// The caller patches the returned field with size() - (start + 12).
cdr::Writer::Patch put_giop_header(cdr::Writer& w, MsgType type) {
  MessageHeader h;
  h.msg_type = type;
  io(w, h);
  const cdr::Writer::Patch size = w.reserve_ulong();
  w.mark_origin();
  return size;
}

// Reply framing around a body that `put_body` writes in place, 8-aligned
// relative to the byte after the GIOP header.
template <class PutBody>
void frame_reply(cdr::Writer& w, const ReplyHeader& hdr, PutBody&& put_body) {
  const std::size_t start = w.size();
  const cdr::Writer::Patch size = put_giop_header(w, MsgType::Reply);
  io(w, hdr);
  put_body(w);
  w.patch_ulong(size, static_cast<std::uint32_t>(w.size() - start - 12));
}

template <class Msg>
Msg decode_context(const cdr::WireBuf& data) {
  cdr::Decoder dec(data.span());
  Msg m;
  io(dec, m);
  return m;
}

}  // namespace

Bytes FtRequestContext::encode() const {
  return cdr::make_bytes([this](cdr::Writer& w) { io(w, *this); });
}

FtRequestContext FtRequestContext::decode(const cdr::WireBuf& data) {
  return decode_context<FtRequestContext>(data);
}

Bytes FtGroupVersionContext::encode() const {
  return cdr::make_bytes([this](cdr::Writer& w) { io(w, *this); });
}

FtGroupVersionContext FtGroupVersionContext::decode(const cdr::WireBuf& data) {
  return decode_context<FtGroupVersionContext>(data);
}

void SystemExceptionBody::encode(cdr::Writer& w) const { io(w, *this); }

SystemExceptionBody SystemExceptionBody::decode(cdr::Decoder& dec) {
  SystemExceptionBody body;
  io(dec, body);
  return body;
}

void encode_request_into(cdr::Writer& w, const RequestHeader& hdr,
                         std::span<const std::uint8_t> body) {
  const std::size_t start = w.size();
  const cdr::Writer::Patch size = put_giop_header(w, MsgType::Request);
  io(w, hdr);
  w.put_raw(body);
  w.patch_ulong(size, static_cast<std::uint32_t>(w.size() - start - 12));
}

void encode_request_inline(cdr::Writer& w, std::uint32_t request_id,
                           bool response_expected, std::string_view object_key,
                           std::string_view operation,
                           const FtRequestContext* ft,
                           std::span<const std::uint8_t> body) {
  const std::size_t start = w.size();
  const cdr::Writer::Patch size = put_giop_header(w, MsgType::Request);
  w.put_ulong(ft ? 1u : 0u);  // service context count
  if (ft != nullptr) {
    w.put_ulong(static_cast<std::uint32_t>(ServiceId::FtRequest));
    // The context data is a CDR encapsulation, written in place instead of
    // marshaled into a temporary and copied as an octet sequence.
    w.begin_octet_seq();
    io(w, *ft);
    w.end_octet_seq();
  }
  w.put_ulong(request_id);
  w.put_boolean(response_expected);
  w.put_octet_seq(
      {reinterpret_cast<const std::uint8_t*>(object_key.data()),
       object_key.size()});
  w.put_string(operation);
  w.put_octet_seq(std::span<const std::uint8_t>{});  // requesting principal
  w.align(8);
  w.put_raw(body);
  w.patch_ulong(size, static_cast<std::uint32_t>(w.size() - start - 12));
}

void encode_reply_into(cdr::Writer& w, const ReplyHeader& hdr,
                       std::span<const std::uint8_t> body) {
  frame_reply(w, hdr, [body](cdr::Writer& out) { out.put_raw(body); });
}

void encode_exception_reply_into(cdr::Writer& w, std::uint32_t request_id,
                                 const SystemExceptionBody& body) {
  ReplyHeader hdr;
  hdr.request_id = request_id;
  hdr.reply_status = ReplyStatus::SystemException;
  frame_reply(w, hdr, [&body](cdr::Writer& out) { body.encode(out); });
}

Message decode(const cdr::WireBuf& wire) {
  cdr::Decoder dec(wire);
  Message msg;
  io(dec, msg.header);
  msg.header.msg_size = dec.get_ulong();
  if (msg.header.msg_size != dec.remaining()) {
    throw cdr::MarshalError("GIOP size mismatch");
  }
  // The encoder aligned the message content relative to the byte after the
  // 12-byte GIOP header, so decode it with its own alignment origin. The
  // subrange decoder inherits View mode: slices below reference `wire`.
  cdr::Decoder cdec = dec.get_subrange(msg.header.msg_size);
  switch (msg.header.msg_type) {
    case MsgType::Request: io(cdec, msg.request.emplace()); break;
    case MsgType::Reply: io(cdec, msg.reply.emplace()); break;
    case MsgType::CancelRequest:
    case MsgType::LocateRequest:
    case MsgType::LocateReply:
    case MsgType::CloseConnection:
    case MsgType::MessageError:
      break;  // control messages carry no typed header
  }
  msg.body = cdec.get_raw_buf(cdec.remaining());
  return msg;
}

Bytes encode_request(const RequestHeader& hdr, const Bytes& body) {
  cdr::Arena arena;
  cdr::Writer w(arena, body.size() + 256);
  encode_request_into(w, hdr, body);
  return w.seal().to_bytes();
}

Bytes encode_reply(const ReplyHeader& hdr, const Bytes& body) {
  cdr::Arena arena;
  cdr::Writer w(arena, body.size() + 256);
  encode_reply_into(w, hdr, body);
  return w.seal().to_bytes();
}

Message decode(const Bytes& wire) { return decode(cdr::WireBuf(wire)); }

const ServiceContext* find_context(const std::vector<ServiceContext>& ctxs,
                                   ServiceId id) {
  for (const auto& c : ctxs) {
    if (c.context_id == static_cast<std::uint32_t>(id)) return &c;
  }
  return nullptr;
}

}  // namespace eternal::giop
