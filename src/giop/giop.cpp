#include "giop/giop.hpp"

#include <algorithm>

namespace eternal::giop {

namespace {

constexpr std::uint8_t kMagic[4] = {'G', 'I', 'O', 'P'};

void encode_contexts(cdr::Writer& w, const std::vector<ServiceContext>& ctxs) {
  w.put_ulong(static_cast<std::uint32_t>(ctxs.size()));
  for (const auto& c : ctxs) {
    w.put_ulong(c.context_id);
    w.put_octet_seq(c.context_data);
  }
}

std::vector<ServiceContext> decode_contexts(cdr::Decoder& dec) {
  const std::uint32_t n = dec.get_ulong();
  if (n > 1024) throw cdr::MarshalError("implausible service context count");
  std::vector<ServiceContext> ctxs;
  // Each context is at least an id and a sequence length: never reserve
  // more than the bytes left could hold.
  ctxs.reserve(std::min<std::size_t>(n, dec.remaining() / 8));
  for (std::uint32_t i = 0; i < n; ++i) {
    ServiceContext c;
    c.context_id = dec.get_ulong();
    c.context_data = dec.get_octet_seq_buf();
    ctxs.push_back(std::move(c));
  }
  return ctxs;
}

// Writes the 12-byte GIOP header with the message size reserved, and makes
// the byte after the header the alignment origin for the content stream.
// The caller patches the returned field with size() - (start + 12).
cdr::Writer::Patch put_giop_header(cdr::Writer& w, MsgType type) {
  w.put_raw(std::span<const std::uint8_t>(kMagic, 4));
  w.put_octet(1);  // major
  w.put_octet(0);  // minor
  w.put_octet(cdr::kHostLittleEndian ? 1 : 0);
  w.put_octet(static_cast<std::uint8_t>(type));
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
  encode_contexts(w, hdr.service_contexts);
  w.put_ulong(hdr.request_id);
  w.put_ulong(static_cast<std::uint32_t>(hdr.reply_status));
  w.align(8);
  put_body(w);
  w.patch_ulong(size, static_cast<std::uint32_t>(w.size() - start - 12));
}

}  // namespace

// The context data of both FT service contexts *is* an encapsulation's
// content: the endian flag, then fields aligned relative to it.
Bytes FtRequestContext::encode() const {
  return cdr::make_bytes([this](cdr::Writer& w) {
    w.put_boolean(cdr::kHostLittleEndian);
    w.put_string(client_id);
    w.put_long(retention_id);
    w.put_ulonglong(expiration_time);
  });
}

FtRequestContext FtRequestContext::decode(const cdr::WireBuf& data) {
  cdr::Decoder dec(data.span());
  const bool little = dec.get_boolean();
  dec.set_swap(little != cdr::kHostLittleEndian);
  FtRequestContext ctx;
  ctx.client_id = dec.get_string();
  ctx.retention_id = dec.get_long();
  ctx.expiration_time = dec.get_ulonglong();
  return ctx;
}

Bytes FtGroupVersionContext::encode() const {
  return cdr::make_bytes([this](cdr::Writer& w) {
    w.put_boolean(cdr::kHostLittleEndian);
    w.put_ulong(object_group_ref_version);
  });
}

FtGroupVersionContext FtGroupVersionContext::decode(const cdr::WireBuf& data) {
  cdr::Decoder dec(data.span());
  const bool little = dec.get_boolean();
  dec.set_swap(little != cdr::kHostLittleEndian);
  FtGroupVersionContext ctx;
  ctx.object_group_ref_version = dec.get_ulong();
  return ctx;
}

void SystemExceptionBody::encode(cdr::Writer& w) const {
  w.put_string(exception_id);
  w.put_ulong(minor_code);
  w.put_ulong(completion_status);
}

SystemExceptionBody SystemExceptionBody::decode(cdr::Decoder& dec) {
  SystemExceptionBody body;
  body.exception_id = dec.get_string();
  body.minor_code = dec.get_ulong();
  body.completion_status = dec.get_ulong();
  return body;
}

void encode_request_into(cdr::Writer& w, const RequestHeader& hdr,
                         std::span<const std::uint8_t> body) {
  const std::size_t start = w.size();
  const cdr::Writer::Patch size = put_giop_header(w, MsgType::Request);
  encode_contexts(w, hdr.service_contexts);
  w.put_ulong(hdr.request_id);
  w.put_boolean(hdr.response_expected);
  w.put_octet_seq(hdr.object_key);
  w.put_string(hdr.operation);
  w.put_octet_seq(std::span<const std::uint8_t>{});  // requesting principal (GIOP 1.0, always empty)
  w.align(8);           // body starts 8-aligned, as GIOP 1.2 requires
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
    w.begin_encapsulation();
    w.put_string(ft->client_id);
    w.put_long(ft->retention_id);
    w.put_ulonglong(ft->expiration_time);
    w.end_encapsulation();
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
  auto magic = dec.get_raw(4);
  for (int i = 0; i < 4; ++i) {
    if (magic[i] != kMagic[i]) throw cdr::MarshalError("bad GIOP magic");
  }
  Message msg;
  msg.header.version_major = dec.get_octet();
  msg.header.version_minor = dec.get_octet();
  const std::uint8_t flags = dec.get_octet();
  const bool little = (flags & 1) != 0;
  const std::uint8_t type_raw = dec.get_octet();
  if (type_raw > static_cast<std::uint8_t>(MsgType::MessageError)) {
    throw cdr::MarshalError("bad GIOP message type");
  }
  msg.header.msg_type = static_cast<MsgType>(type_raw);
  dec.set_swap(little != cdr::kHostLittleEndian);
  msg.header.msg_size = dec.get_ulong();
  if (msg.header.msg_size != dec.remaining()) {
    throw cdr::MarshalError("GIOP size mismatch");
  }
  // The encoder aligned the message content relative to the byte after the
  // 12-byte GIOP header, so decode it with its own alignment origin. The
  // subrange decoder inherits View mode: slices below reference `wire`.
  cdr::Decoder cdec = dec.get_subrange(msg.header.msg_size);

  switch (msg.header.msg_type) {
    case MsgType::Request: {
      RequestHeader hdr;
      hdr.service_contexts = decode_contexts(cdec);
      hdr.request_id = cdec.get_ulong();
      hdr.response_expected = cdec.get_boolean();
      hdr.object_key = cdec.get_octet_seq_buf();
      hdr.operation = cdec.get_string();
      (void)cdec.get_octet_seq_buf();  // principal
      cdec.align(8);
      msg.request = std::move(hdr);
      break;
    }
    case MsgType::Reply: {
      ReplyHeader hdr;
      hdr.service_contexts = decode_contexts(cdec);
      hdr.request_id = cdec.get_ulong();
      const std::uint32_t status = cdec.get_ulong();
      if (status > static_cast<std::uint32_t>(ReplyStatus::LocationForward)) {
        throw cdr::MarshalError("bad reply status");
      }
      hdr.reply_status = static_cast<ReplyStatus>(status);
      cdec.align(8);
      msg.reply = std::move(hdr);
      break;
    }
    default:
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
