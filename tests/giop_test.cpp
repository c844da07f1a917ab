#include <gtest/gtest.h>

#include "giop/giop.hpp"

namespace eternal::giop {
namespace {

cdr::WireBuf key(std::string_view s) {
  return cdr::WireBuf(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

TEST(Giop, RequestRoundTrip) {
  RequestHeader hdr;
  hdr.request_id = 42;
  hdr.response_expected = true;
  hdr.object_key = key("group/counter");
  hdr.operation = "increment";

  const Bytes body = cdr::make_bytes([](cdr::Writer& w) { w.put_ulong(7); });

  Bytes wire = encode_request(hdr, body);
  Message msg = decode(wire);
  ASSERT_EQ(msg.header.msg_type, MsgType::Request);
  ASSERT_TRUE(msg.request.has_value());
  EXPECT_EQ(*msg.request, hdr);

  cdr::Decoder dec(msg.body);
  EXPECT_EQ(dec.get_ulong(), 7u);
}

TEST(Giop, ReplyRoundTrip) {
  ReplyHeader hdr;
  hdr.request_id = 99;
  hdr.reply_status = ReplyStatus::NoException;

  const Bytes body =
      cdr::make_bytes([](cdr::Writer& w) { w.put_string("result"); });

  Bytes wire = encode_reply(hdr, body);
  Message msg = decode(wire);
  ASSERT_EQ(msg.header.msg_type, MsgType::Reply);
  ASSERT_TRUE(msg.reply.has_value());
  EXPECT_EQ(*msg.reply, hdr);
  cdr::Decoder dec(msg.body);
  EXPECT_EQ(dec.get_string(), "result");
}

TEST(Giop, EmptyBody) {
  RequestHeader hdr;
  hdr.request_id = 1;
  hdr.object_key = key("k");
  hdr.operation = "ping";
  Message msg = decode(encode_request(hdr, {}));
  EXPECT_TRUE(msg.body.empty());
}

TEST(Giop, BodyIsEightAligned) {
  // An 8-byte-aligned value marshaled at the start of the body must decode
  // correctly no matter the header length (operation name shifts it).
  for (const std::string op : {"a", "ab", "abc", "abcdefg", "abcdefgh"}) {
    RequestHeader hdr;
    hdr.request_id = 5;
    hdr.object_key = key("key");
    hdr.operation = op;
    const Bytes body =
        cdr::make_bytes([](cdr::Writer& w) { w.put_double(6.25); });
    Message msg = decode(encode_request(hdr, body));
    cdr::Decoder dec(msg.body);
    EXPECT_DOUBLE_EQ(dec.get_double(), 6.25) << "op=" << op;
  }
}

TEST(Giop, ServiceContextsRoundTrip) {
  FtRequestContext ft;
  ft.client_id = "client-7";
  ft.retention_id = 1234;
  ft.expiration_time = 987654321;

  FtGroupVersionContext gv;
  gv.object_group_ref_version = 17;

  RequestHeader hdr;
  hdr.request_id = 3;
  hdr.object_key = key("k");
  hdr.operation = "op";
  hdr.service_contexts.push_back(
      {static_cast<std::uint32_t>(ServiceId::FtRequest),
       cdr::WireBuf(ft.encode())});
  hdr.service_contexts.push_back(
      {static_cast<std::uint32_t>(ServiceId::FtGroupVersion),
       cdr::WireBuf(gv.encode())});

  Message msg = decode(encode_request(hdr, {}));
  ASSERT_TRUE(msg.request.has_value());
  const auto* ft_ctx =
      find_context(msg.request->service_contexts, ServiceId::FtRequest);
  ASSERT_NE(ft_ctx, nullptr);
  EXPECT_EQ(FtRequestContext::decode(ft_ctx->context_data), ft);

  const auto* gv_ctx =
      find_context(msg.request->service_contexts, ServiceId::FtGroupVersion);
  ASSERT_NE(gv_ctx, nullptr);
  EXPECT_EQ(FtGroupVersionContext::decode(gv_ctx->context_data), gv);
}

TEST(Giop, FindContextMissingReturnsNull) {
  std::vector<ServiceContext> ctxs;
  EXPECT_EQ(find_context(ctxs, ServiceId::FtRequest), nullptr);
}

TEST(Giop, SystemExceptionBodyRoundTrip) {
  SystemExceptionBody body;
  body.exception_id = "IDL:omg.org/CORBA/COMM_FAILURE:1.0";
  body.minor_code = 2;
  body.completion_status = 1;

  const Bytes wire = cdr::make_bytes([&](cdr::Writer& w) { body.encode(w); });
  cdr::Decoder dec(wire);
  EXPECT_EQ(SystemExceptionBody::decode(dec), body);
}

TEST(Giop, BadMagicThrows) {
  RequestHeader hdr;
  hdr.object_key = key("k");
  hdr.operation = "op";
  Bytes wire = encode_request(hdr, {});
  wire[0] = 'X';
  EXPECT_THROW(decode(wire), cdr::MarshalError);
}

TEST(Giop, TruncatedThrows) {
  RequestHeader hdr;
  hdr.object_key = key("k");
  hdr.operation = "op";
  Bytes wire = encode_request(hdr, {});
  wire.resize(wire.size() - 3);
  EXPECT_THROW(decode(wire), cdr::MarshalError);
}

TEST(Giop, SizeMismatchThrows) {
  RequestHeader hdr;
  hdr.object_key = key("k");
  hdr.operation = "op";
  Bytes wire = encode_request(hdr, {});
  wire.push_back(0);  // trailing garbage
  EXPECT_THROW(decode(wire), cdr::MarshalError);
}

TEST(Giop, BadMessageTypeThrows) {
  RequestHeader hdr;
  hdr.object_key = key("k");
  hdr.operation = "op";
  Bytes wire = encode_request(hdr, {});
  wire[7] = 0x42;  // message-type octet
  EXPECT_THROW(decode(wire), cdr::MarshalError);
}

TEST(Giop, LocationForwardStatus) {
  ReplyHeader hdr;
  hdr.request_id = 12;
  hdr.reply_status = ReplyStatus::LocationForward;
  Message msg = decode(encode_reply(hdr, {}));
  EXPECT_EQ(msg.reply->reply_status, ReplyStatus::LocationForward);
}

}  // namespace
}  // namespace eternal::giop
