// Typed client stub: the redesigned invocation surface (DESIGN.md §4).
//
// A GroupRef is a typed facade over Client for one object group. It owns
// the CDR boilerplate every caller used to repeat — encoding arguments,
// decoding replies — so application code reads like the IDL:
//
//   rep::GroupRef counter = domain.ref(4, "counter");
//   std::int64_t v = counter.call<std::int64_t>("incr", 10);      // blocking
//   auto inv = counter.invoke<std::int64_t>("incr", 10);          // pipelined
//   ... more invocations, sim steps ...
//   std::int64_t w = inv.get();
//
// Sync and pipelined invocations share this one surface: call<R> is
// invoke<R> + get. Multi-value replies decode as std::tuple; operations
// without a result use R = void (the default).
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>

#include "rep/engine.hpp"

namespace eternal::rep {

namespace stub_detail {

// --- argument encoding (one overload per IDL-ish parameter type) ----------
inline void put_arg(cdr::Writer& w, std::int64_t v) { w.put_longlong(v); }
inline void put_arg(cdr::Writer& w, std::uint64_t v) { w.put_ulonglong(v); }
inline void put_arg(cdr::Writer& w, std::int32_t v) { w.put_long(v); }
inline void put_arg(cdr::Writer& w, std::uint32_t v) { w.put_ulong(v); }
inline void put_arg(cdr::Writer& w, bool v) { w.put_boolean(v); }
inline void put_arg(cdr::Writer& w, double v) { w.put_double(v); }
inline void put_arg(cdr::Writer& w, const std::string& v) { w.put_string(v); }
inline void put_arg(cdr::Writer& w, const char* v) { w.put_string(v); }
inline void put_arg(cdr::Writer& w, const cdr::Bytes& v) {
  w.put_octet_seq(v);
}

// --- reply decoding -------------------------------------------------------
template <typename T>
struct CdrGet;
template <>
struct CdrGet<std::int64_t> {
  static std::int64_t get(cdr::Decoder& dec) { return dec.get_longlong(); }
};
template <>
struct CdrGet<std::uint64_t> {
  static std::uint64_t get(cdr::Decoder& dec) { return dec.get_ulonglong(); }
};
template <>
struct CdrGet<std::int32_t> {
  static std::int32_t get(cdr::Decoder& dec) { return dec.get_long(); }
};
template <>
struct CdrGet<std::uint32_t> {
  static std::uint32_t get(cdr::Decoder& dec) { return dec.get_ulong(); }
};
template <>
struct CdrGet<bool> {
  static bool get(cdr::Decoder& dec) { return dec.get_boolean(); }
};
template <>
struct CdrGet<double> {
  static double get(cdr::Decoder& dec) { return dec.get_double(); }
};
template <>
struct CdrGet<std::string> {
  static std::string get(cdr::Decoder& dec) { return dec.get_string(); }
};
template <>
struct CdrGet<cdr::Bytes> {
  static cdr::Bytes get(cdr::Decoder& dec) { return dec.get_octet_seq(); }
};
template <typename... Ts>
struct CdrGet<std::tuple<Ts...>> {
  static std::tuple<Ts...> get(cdr::Decoder& dec) {
    // Braced init guarantees left-to-right evaluation: fields decode in
    // declaration order, matching the servant's encoder.
    return std::tuple<Ts...>{CdrGet<Ts>::get(dec)...};
  }
};

template <typename R>
R decode_reply(const cdr::Bytes& reply) {
  cdr::Decoder dec(reply);
  return CdrGet<R>::get(dec);
}
template <>
inline void decode_reply<void>(const cdr::Bytes&) {}

template <typename... Args>
cdr::Bytes encode_args(const Args&... args) {
  return cdr::make_bytes([&](cdr::Writer& w) { (put_arg(w, args), ...); });
}

}  // namespace stub_detail

/// Typed handle to one pipelined invocation: Invocation plus reply decoding.
template <typename R>
class TypedInvocation {
 public:
  TypedInvocation() = default;
  explicit TypedInvocation(Invocation inv) : raw_(std::move(inv)) {}

  bool valid() const noexcept { return raw_.valid(); }
  bool ready() const noexcept { return raw_.ready(); }
  const OperationId& id() const noexcept { return raw_.id(); }
  Invocation& raw() noexcept { return raw_; }
  void cancel() { raw_.cancel(); }

  /// Drive the simulation to completion and decode the reply as R.
  R get(sim::Time timeout = 5 * sim::kSecond) {
    return stub_detail::decode_reply<R>(raw_.get(timeout));
  }

 private:
  Invocation raw_;
};

/// Typed facade over Client for one object group.
class GroupRef {
 public:
  GroupRef(Client& client, std::string group)
      : client_(&client), group_(std::move(group)) {}

  const std::string& group() const noexcept { return group_; }
  Client& client() noexcept { return *client_; }

  /// Blocking typed call: encode args, invoke, drive the simulation,
  /// decode the reply as R (void by default).
  template <typename R = void, typename... Args>
  R call(const std::string& op, const Args&... args) {
    return stub_detail::decode_reply<R>(client_->invoke_blocking(
        group_, op, stub_detail::encode_args(args...)));
  }

  /// Pipelined typed call: returns immediately with a typed handle; any
  /// number may be outstanding. Throws TRANSIENT under backpressure.
  template <typename R = void, typename... Args>
  TypedInvocation<R> invoke(const std::string& op, const Args&... args) {
    return TypedInvocation<R>(
        client_->invoke(group_, op, stub_detail::encode_args(args...)));
  }

 private:
  Client* client_ = nullptr;
  std::string group_;
};

}  // namespace eternal::rep
