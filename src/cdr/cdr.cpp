// lint:allow-file(wirecheck) — primitive CDR layer; see cdr.hpp. Verified
// by cdr_test round-trips, not by the lexical op model.
#include "cdr/cdr.hpp"

#include <cstring>

namespace eternal::cdr {

void Writer::align(std::size_t alignment) {
  const std::size_t misalign = (len_ - origin_) % alignment;
  if (misalign != 0) {
    const std::size_t pad = alignment - misalign;
    ensure(pad);
    std::memset(base_ + len_, 0, pad);
    len_ += pad;
  }
}

void Writer::put_string(std::string_view s) {
  if (s.size() + 1 > 0xffffffffULL) throw MarshalError("string too long");
  put_ulong(static_cast<std::uint32_t>(s.size() + 1));
  ensure(s.size() + 1);
  std::memcpy(base_ + len_, s.data(), s.size());
  len_ += s.size();
  base_[len_++] = 0;
}

void Writer::put_octet_seq(std::span<const std::uint8_t> bytes) {
  if (bytes.size() > 0xffffffffULL) throw MarshalError("sequence too long");
  put_ulong(static_cast<std::uint32_t>(bytes.size()));
  put_raw(bytes);
}

void Writer::put_raw(std::span<const std::uint8_t> bytes) {
  ensure(bytes.size());
  if (!bytes.empty()) std::memcpy(base_ + len_, bytes.data(), bytes.size());
  len_ += bytes.size();
}

Writer::Patch Writer::reserve_ulong() {
  align(4);
  ensure(4);
  std::memset(base_ + len_, 0, 4);
  Patch p{len_};
  len_ += 4;
  return p;
}

void Writer::patch_ulong_le(Patch p, std::uint32_t v) noexcept {
  for (std::size_t i = 0; i < 4; ++i) {
    base_[p.pos + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void Writer::begin_octet_seq() {
  if (depth_ == kMaxDepth) throw MarshalError("sequences nested too deep");
  const Patch p = reserve_ulong();
  open_[depth_++] = {p.pos, origin_};
  // Alignment inside the sequence is relative to its first octet, exactly
  // as if its content were encoded in a frame of its own.
  origin_ = len_;
}

std::uint32_t Writer::end_octet_seq() {
  if (depth_ == 0) throw MarshalError("end_octet_seq without begin");
  const OpenSeq s = open_[--depth_];
  const std::size_t len = len_ - (s.patch_pos + 4);
  if (len > 0xffffffffULL) throw MarshalError("sequence too long");
  patch_ulong(Patch{s.patch_pos}, static_cast<std::uint32_t>(len));
  origin_ = s.prev_origin;
  return static_cast<std::uint32_t>(len);
}

WireBuf Writer::seal() {
  if (sealed_) throw MarshalError("Writer sealed twice");
  if (depth_ != 0) throw MarshalError("seal with an open sequence");
  sealed_ = true;
  return arena_.seal_frame(len_);
}

void Writer::grow(std::size_t min_capacity) {
  base_ = arena_.grow_frame(len_, min_capacity);
  cap_ = arena_.frame_capacity();
}

void Decoder::align(std::size_t alignment) {
  const std::size_t misalign = pos_ % alignment;
  if (misalign != 0) {
    const std::size_t pad = alignment - misalign;
    require(pad);
    pos_ += pad;
  }
}

std::uint8_t Decoder::get_octet() {
  require(1);
  return data_[pos_++];
}

std::string Decoder::get_string() {
  const std::uint32_t len = get_ulong();
  if (len == 0) throw MarshalError("CDR string with zero length");
  require(len);
  if (data_[pos_ + len - 1] != 0) {
    throw MarshalError("CDR string missing NUL terminator");
  }
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len - 1);
  pos_ += len;
  return s;
}

Bytes Decoder::get_octet_seq() {
  const std::uint32_t len = get_ulong();
  require(len);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
  pos_ += len;
  return out;
}

WireBuf Decoder::get_octet_seq_buf() {
  const std::uint32_t len = get_ulong();
  require(len);
  WireBuf out = src_ ? src_->slice(src_off_ + pos_, len)
                     : WireBuf(data_.subspan(pos_, len));
  pos_ += len;
  return out;
}

std::string_view Decoder::get_string_view() {
  const std::uint32_t len = get_ulong();
  if (len == 0) throw MarshalError("CDR string with zero length");
  require(len);
  if (data_[pos_ + len - 1] != 0) {
    throw MarshalError("CDR string missing NUL terminator");
  }
  std::string_view s(reinterpret_cast<const char*>(data_.data() + pos_),
                     len - 1);
  pos_ += len;
  return s;
}

std::span<const std::uint8_t> Decoder::get_raw(std::size_t n) {
  require(n);
  auto view = data_.subspan(pos_, n);
  pos_ += n;
  return view;
}

WireBuf Decoder::get_raw_buf(std::size_t n) {
  require(n);
  WireBuf out = src_ ? src_->slice(src_off_ + pos_, n)
                     : WireBuf(data_.subspan(pos_, n));
  pos_ += n;
  return out;
}

Decoder Decoder::get_subrange(std::size_t n) {
  require(n);
  Decoder inner(data_.subspan(pos_, n), swap_);
  inner.src_ = src_;
  inner.src_off_ = src_off_ + pos_;
  pos_ += n;
  return inner;
}

Decoder Decoder::get_encapsulation() {
  const std::uint32_t len = get_ulong();
  require(len);
  if (len == 0) throw MarshalError("empty encapsulation");
  auto view = data_.subspan(pos_, len);
  const std::size_t start = pos_;
  pos_ += len;
  // Alignment inside an encapsulation is relative to its first octet (the
  // endianness flag), so the inner decoder spans the flag and consumes it.
  Decoder inner(view, /*swap=*/false);
  inner.src_ = src_;
  inner.src_off_ = src_off_ + start;
  const bool content_little = inner.get_boolean();
  inner.set_swap(content_little != kHostLittleEndian);
  return inner;
}

}  // namespace eternal::cdr
