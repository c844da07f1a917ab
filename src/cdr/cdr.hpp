// CORBA Common Data Representation (CDR) marshaling.
//
// Implements the CDR transfer syntax used by GIOP: primitives are aligned to
// their natural size relative to the start of the stream, strings carry a
// length (including the terminating NUL) followed by the bytes, sequences
// carry an element count, and encapsulations are octet sequences that begin
// with an endianness flag. Both byte orders are supported on read; writes
// use the host's order and record it in encapsulation flags, exactly as a
// real ORB does.
//
// Wire messages are written once, as field visitors:
//
//     template <class IO> void io(IO& wire, cdr::Ref<IO, Msg> m) {
//       wire.field(m.id);                        // width from the C++ type
//       cdr::sequence(wire, m.items, ...);       // count, then elements
//     }
//
// instantiated for Writer (encode) and Decoder (decode). Both expose the
// same field() overload set and a kReading constant, so one field list is
// both directions and encode and decode cannot drift apart.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "cdr/arena.hpp"

namespace eternal::cdr {

/// Thrown on underflow, malformed lengths, or bounds violations while
/// demarshaling. A real ORB maps this to the CORBA::MARSHAL system exception.
class MarshalError : public std::runtime_error {
 public:
  explicit MarshalError(const std::string& what) : std::runtime_error(what) {}
};

constexpr bool kHostLittleEndian = (std::endian::native == std::endian::little);

/// CDR encoder, writing in place over an arena-backed frame. The stream's
/// alignment origin is the frame start; GIOP bodies (mark_origin), octet
/// sequences and encapsulations written in place each start a fresh one.
/// The destination is an Arena frame: growth is a slab upgrade, not a
/// vector reallocation, and seal() hands back an immutable WireBuf (inline
/// when small, a refcounted slab reference when large). Callers that only
/// need the bytes read written() and let the frame go.
///
/// Length fields can be written before the content they measure:
///   * reserve_ulong()/patch_ulong() — reserve a field and backpatch it
///     (GIOP message size, batch counts); patch_ulong_le() backpatches it
///     little-endian whatever the host (the dur frame header).
///   * begin_octet_seq()/end_octet_seq() — a sequence<octet> whose content
///     is written in place, aligned relative to its first byte: the same
///     bytes as put_octet_seq of that content encoded in a frame of its own.
///   * begin_encapsulation() — the same, opened with the endian flag octet.
/// In-place sequences nest up to four deep.
///
/// One Writer may be open per Arena at a time; destroying an unsealed
/// Writer abandons the frame.
class Writer {
 public:
  explicit Writer(Arena& arena, std::size_t reserve = 256)
      : arena_(arena),
        base_(arena.begin_frame(reserve)),
        cap_(arena.frame_capacity()) {}
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;
  ~Writer() {
    if (!sealed_) arena_.abandon_frame();
  }

  std::size_t size() const noexcept { return len_; }
  /// The bytes written so far (valid until the next put grows the frame).
  std::span<const std::uint8_t> written() const noexcept {
    return {base_, len_};
  }

  void align(std::size_t alignment);

  void put_octet(std::uint8_t v) {
    ensure(1);
    base_[len_++] = v;
  }
  void put_boolean(bool v) { put_octet(v ? 1 : 0); }
  void put_char(char v) { put_octet(static_cast<std::uint8_t>(v)); }
  void put_ushort(std::uint16_t v) { put_aligned(v); }
  void put_short(std::int16_t v) { put_aligned(static_cast<std::uint16_t>(v)); }
  void put_ulong(std::uint32_t v) { put_aligned(v); }
  void put_long(std::int32_t v) { put_aligned(static_cast<std::uint32_t>(v)); }
  void put_ulonglong(std::uint64_t v) { put_aligned(v); }
  void put_longlong(std::int64_t v) {
    put_aligned(static_cast<std::uint64_t>(v));
  }
  void put_float(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, 4);
    put_aligned(bits);
  }
  void put_double(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    put_aligned(bits);
  }

  /// CDR string: ulong length including NUL, bytes, NUL.
  void put_string(std::string_view s);

  /// sequence<octet>: ulong count then raw bytes.
  void put_octet_seq(std::span<const std::uint8_t> bytes);
  void put_octet_seq(const WireBuf& buf) { put_octet_seq(buf.span()); }

  /// Raw bytes with no count (caller manages framing).
  void put_raw(std::span<const std::uint8_t> bytes);

  /// A reserved length field, filled in by patch_ulong once the content
  /// after it has been written.
  struct Patch {
    std::size_t pos = 0;
  };
  Patch reserve_ulong();
  void patch_ulong(Patch p, std::uint32_t v) {
    std::memcpy(base_ + p.pos, &v, 4);
  }

  void patch_ulong_le(Patch p, std::uint32_t v) noexcept;

  /// Opens a sequence<octet> written in place: ulong length (backpatched
  /// by end_octet_seq, which returns it), then content aligned relative to
  /// its first byte.
  void begin_octet_seq();
  std::uint32_t end_octet_seq();
  /// Opens an encapsulation in place: an in-place octet sequence whose
  /// first byte is the endian flag.
  void begin_encapsulation() {
    begin_octet_seq();
    put_octet(kHostLittleEndian ? 1 : 0);
  }
  void end_encapsulation() { (void)end_octet_seq(); }

  /// Restarts the alignment origin at the current position. GIOP framing
  /// uses this: content after the fixed 12-byte header aligns as its own
  /// stream, exactly as if it were built in a separate encoder.
  void mark_origin() noexcept { origin_ = len_; }

  /// Seals the frame into an immutable WireBuf; the Writer is finished.
  WireBuf seal();

  // --- field visitor surface (matches Decoder's) ---
  static constexpr bool kReading = false;
  void field(bool v) { put_boolean(v); }
  void field(std::uint8_t v) { put_octet(v); }
  void field(std::int32_t v) { put_long(v); }
  void field(std::uint32_t v) { put_ulong(v); }
  void field(std::uint64_t v) { put_ulonglong(v); }
  void field(const std::string& s) { put_string(s); }
  void field(const WireBuf& b) { put_octet_seq(b); }
  void field(const Bytes& b) { put_octet_seq(b); }
  /// A fixed-capacity NUL-padded C string, written as a CDR string.
  template <std::size_t N>
  void field(const char (&s)[N]) {
    put_string({s, static_cast<std::size_t>(
                       std::find(s, s + N, '\0') - s)});
  }

 private:
  template <typename T>
  void put_aligned(T v) {
    align(sizeof(T));
    ensure(sizeof(T));
    std::memcpy(base_ + len_, &v, sizeof(T));
    len_ += sizeof(T);
  }

  void ensure(std::size_t more) {
    if (len_ + more > cap_) grow(len_ + more);
  }
  void grow(std::size_t min_capacity);

  Arena& arena_;
  std::uint8_t* base_ = nullptr;
  std::size_t len_ = 0;
  std::size_t cap_ = 0;
  std::size_t origin_ = 0;  // alignment origin (innermost open sequence)
  struct OpenSeq {
    std::size_t patch_pos = 0;
    std::size_t prev_origin = 0;
  };
  static constexpr std::size_t kMaxDepth = 4;
  std::array<OpenSeq, kMaxDepth> open_{};
  std::size_t depth_ = 0;
  bool sealed_ = false;
};

/// One-shot encode for the cold edges that still traffic in Bytes (client
/// arguments, file formats, tools): runs `fill` over a Writer on a local
/// arena and returns a copy of what it wrote.
template <class Fill>
Bytes make_bytes(Fill&& fill) {
  Arena arena;
  Writer w(arena);
  fill(w);
  const std::span<const std::uint8_t> bytes = w.written();
  return Bytes(bytes.begin(), bytes.end());
}

/// CDR decoder over a borrowed byte span. The decoder does not own the
/// bytes; callers keep the backing buffer alive for the decoder's lifetime.
///
/// View mode: constructed over a WireBuf, the decoder can hand out payloads
/// that *reference* the frame instead of copying it — get_octet_seq_buf()
/// returns a WireBuf slice (refcount bump, keeps the frame alive),
/// get_string_view()/get_view() return borrowed views valid only while the
/// frame is. This is how decode_data_payload, batch unpacking and Envelope
/// decode avoid per-hop copies.
class Decoder {
 public:
  explicit Decoder(std::span<const std::uint8_t> data, bool swap = false)
      : data_(data), swap_(swap) {}
  /// View mode: borrow `frame`, enabling zero-copy payload slices. The
  /// WireBuf must outlive the decoder (and plain borrowed views taken from
  /// it), but slices returned by get_octet_seq_buf own their own reference.
  explicit Decoder(const WireBuf& frame, bool swap = false)
      : data_(frame.span()), swap_(swap), src_(&frame) {}

  std::size_t position() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool exhausted() const noexcept { return pos_ == data_.size(); }
  void set_swap(bool swap) noexcept { swap_ = swap; }
  bool swapping() const noexcept { return swap_; }

  void align(std::size_t alignment);

  std::uint8_t get_octet();
  bool get_boolean() { return get_octet() != 0; }
  char get_char() { return static_cast<char>(get_octet()); }
  std::uint16_t get_ushort() { return get_aligned<std::uint16_t>(); }
  std::int16_t get_short() {
    return static_cast<std::int16_t>(get_ushort());
  }
  std::uint32_t get_ulong() { return get_aligned<std::uint32_t>(); }
  std::int32_t get_long() { return static_cast<std::int32_t>(get_ulong()); }
  std::uint64_t get_ulonglong() { return get_aligned<std::uint64_t>(); }
  std::int64_t get_longlong() {
    return static_cast<std::int64_t>(get_ulonglong());
  }
  float get_float() {
    const std::uint32_t bits = get_ulong();
    float v;
    std::memcpy(&v, &bits, 4);
    return v;
  }
  double get_double() {
    const std::uint64_t bits = get_ulonglong();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }

  std::string get_string();
  Bytes get_octet_seq();
  /// sequence<octet> without the copy: a WireBuf referencing the source
  /// frame (View mode) or an owned copy when decoding a plain span.
  WireBuf get_octet_seq_buf();
  /// CDR string as a borrowed view into the frame (no allocation). Valid
  /// only while the backing buffer is alive.
  std::string_view get_string_view();
  /// View of n raw bytes; throws on underflow.
  std::span<const std::uint8_t> get_raw(std::size_t n);
  /// Alias of get_raw for View-mode readers: borrowed payload access.
  std::span<const std::uint8_t> get_view(std::size_t n) { return get_raw(n); }
  /// n raw bytes (no count prefix) as a WireBuf: a slice of the source
  /// frame in View mode, an owned copy otherwise. GIOP bodies use this —
  /// the body is the unframed tail of the message.
  WireBuf get_raw_buf(std::size_t n);
  /// A decoder over the next n bytes with a fresh alignment origin,
  /// inheriting this decoder's byte order and View mode. Like
  /// get_encapsulation without the count and endian flag; GIOP uses it for
  /// the header-relative content stream.
  Decoder get_subrange(std::size_t n);

  /// Reads a sequence<octet> and returns a decoder over its contents with
  /// the endian flag already consumed and applied. View mode propagates, so
  /// nested get_octet_seq_buf slices still share the source frame.
  Decoder get_encapsulation();

  // --- field visitor surface (matches Writer's) ---
  // Strings are assigned from borrowed views, so a reused object keeps its
  // capacity; WireBufs are slices of the frame in View mode.
  static constexpr bool kReading = true;
  void field(bool& v) { v = get_boolean(); }
  void field(std::uint8_t& v) { v = get_octet(); }
  void field(std::int32_t& v) { v = get_long(); }
  void field(std::uint32_t& v) { v = get_ulong(); }
  void field(std::uint64_t& v) { v = get_ulonglong(); }
  void field(std::string& s) { s.assign(get_string_view()); }
  void field(WireBuf& b) { b = get_octet_seq_buf(); }
  void field(Bytes& b) {
    const std::span<const std::uint8_t> v = get_raw(get_ulong());
    b.assign(v.begin(), v.end());
  }
  /// A fixed-capacity C string: truncated to N - 1 characters, NUL-padded.
  template <std::size_t N>
  void field(char (&s)[N]) {
    const std::string_view v = get_string_view();
    const std::size_t n = std::min(v.size(), N - 1);
    std::memcpy(s, v.data(), n);
    std::memset(s + n, 0, N - n);
  }

 private:
  template <typename T>
  T get_aligned() {
    align(sizeof(T));
    require(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    if (swap_) v = byteswap(v);
    return v;
  }

  static std::uint16_t byteswap(std::uint16_t v) noexcept {
    return static_cast<std::uint16_t>((v >> 8) | (v << 8));
  }
  static std::uint32_t byteswap(std::uint32_t v) noexcept {
    return __builtin_bswap32(v);
  }
  static std::uint64_t byteswap(std::uint64_t v) noexcept {
    return __builtin_bswap64(v);
  }

  void require(std::size_t n) const {
    if (remaining() < n) throw MarshalError("CDR underflow");
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool swap_ = false;
  const WireBuf* src_ = nullptr;  // View mode: frame the span was taken from
  std::size_t src_off_ = 0;       // offset of data_[0] within *src_
};

/// A field visitor's view of a message: mutable when decoding into it,
/// const when encoding from it.
template <class IO, class T>
using Ref = std::conditional_t<IO::kReading, T&, const T&>;

/// sequence<T>: a ulong count, then `each` over every element. On read a
/// count above `max` throws MarshalError(what), the container is refilled
/// in place, and at most remaining() / min_wire_bytes elements are
/// reserved: a count is only a claim until the bytes behind it are read.
template <class IO, class Seq, class Each>
void sequence(IO& io, Seq& seq, std::uint32_t max, std::size_t min_wire_bytes,
              const char* what, Each&& each) {
  if constexpr (IO::kReading) {
    std::uint32_t n = 0;
    io.field(n);
    if (n > max) throw MarshalError(what);
    seq.clear();
    if constexpr (requires { seq.reserve(n); }) {
      seq.reserve(std::min<std::size_t>(n, io.remaining() / min_wire_bytes));
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      if constexpr (requires { seq.emplace_back(); }) {
        each(seq.emplace_back());
      } else {
        typename Seq::value_type e{};
        each(e);
        seq.insert(std::move(e));
      }
    }
  } else {
    io.field(static_cast<std::uint32_t>(seq.size()));
    for (const auto& e : seq) each(e);
  }
}

/// A fixed value (magic, version, framing octet): written as is; on read
/// any other value throws MarshalError(what).
template <class IO, class T>
void constant(IO& io, T value, const char* what) {
  if constexpr (IO::kReading) {
    T got{};
    io.field(got);
    if (got != value) throw MarshalError(what);
  } else {
    io.field(value);
  }
}

/// An enum as its underlying integer; on read a value outside
/// [first, last] throws MarshalError(what).
template <class IO, class E>
void enumeration(IO& io, E& e, std::remove_const_t<E> first,
                 std::remove_const_t<E> last, const char* what) {
  using U = std::underlying_type_t<std::remove_const_t<E>>;
  if constexpr (IO::kReading) {
    U raw{};
    io.field(raw);
    if (raw < static_cast<U>(first) || raw > static_cast<U>(last)) {
      throw MarshalError(what);
    }
    e = static_cast<E>(raw);
  } else {
    io.field(static_cast<U>(e));
  }
}

/// The endian flag an encapsulation's content opens with: the writer
/// records the host's byte order, the reader adopts the recorded one.
template <class IO>
void endian_flag(IO& io) {
  if constexpr (IO::kReading) {
    io.set_swap(io.get_boolean() != kHostLittleEndian);
  } else {
    io.put_boolean(kHostLittleEndian);
  }
}

/// The former name of Writer, kept only because the frozen perfbench
/// workloads still spell a Replica::get_state parameter with it. Nothing
/// else may name it; it goes with the next change to perfbench/.
using Encoder = Writer;

}  // namespace eternal::cdr
