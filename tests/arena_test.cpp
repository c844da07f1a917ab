// Ownership layer under the wire API: slab pooling, arena frame protocol,
// WireBuf small-buffer threshold, Writer backpatch/encapsulation bytes
// against recorded goldens, and borrow-decode lifetimes.
#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "cdr/cdr.hpp"

namespace eternal::cdr {
namespace {

Bytes pattern(std::size_t n) {
  Bytes b(n);
  std::iota(b.begin(), b.end(), std::uint8_t{0});
  return b;
}

/// `hex` as bytes; goldens below were recorded on a little-endian host from
/// the vector-backed encoder that each inner stream used to be built in.
Bytes golden(std::string_view hex) {
  Bytes out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoul(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

// ---------------------------------------------------------------------------
// SlabPool
// ---------------------------------------------------------------------------

TEST(SlabPool, RecyclesSlabsThroughTheFreelist) {
  SlabPool& pool = SlabPool::global();
  pool.trim();
  const std::size_t live0 = pool.live();

  Slab* s = pool.acquire(1000);
  EXPECT_GE(s->capacity, 1000u);
  EXPECT_EQ(s->refs, 1u);
  EXPECT_EQ(pool.live(), live0 + 1);
  const std::uint8_t* mem = s->data;
  pool.unref(s);
  EXPECT_EQ(pool.live(), live0);
  EXPECT_GE(pool.pooled(), 1u);

  // Same size class comes back out of the freelist, not operator new.
  Slab* again = pool.acquire(1000);
  EXPECT_EQ(again->data, mem);
  pool.unref(again);
}

TEST(SlabPool, OversizeSlabsAreNeverPooled) {
  SlabPool& pool = SlabPool::global();
  pool.trim();
  // Largest size class is 4 MiB; past it the slab is a one-off.
  Slab* s = pool.acquire((std::size_t{4} << 20) + 1);
  EXPECT_EQ(s->size_class, SlabPool::kOversize);
  const std::size_t pooled = pool.pooled();
  pool.unref(s);
  EXPECT_EQ(pool.pooled(), pooled);  // freed, not parked
}

// ---------------------------------------------------------------------------
// WireBuf
// ---------------------------------------------------------------------------

TEST(WireBuf, SmallFramesAreInlineAndCopyByValue) {
  const Bytes src = pattern(WireBuf::kInlineCapacity);
  WireBuf a(src);
  EXPECT_TRUE(a.inline_storage());
  WireBuf b = a;
  EXPECT_TRUE(b.inline_storage());
  EXPECT_NE(a.data(), b.data());  // separate inline bytes
  EXPECT_EQ(a, b);
  EXPECT_EQ(b.to_bytes(), src);
}

TEST(WireBuf, LargeFramesShareTheirSlabOnCopyAndSlice) {
  const Bytes src = pattern(WireBuf::kInlineCapacity + 1);
  WireBuf a(src);
  EXPECT_FALSE(a.inline_storage());
  WireBuf b = a;
  EXPECT_EQ(a.data(), b.data());  // refcount bump, same bytes

  WireBuf mid = a.slice(100, 80);
  EXPECT_EQ(mid.data(), a.data() + 100);
  EXPECT_EQ(mid.to_bytes(), Bytes(src.begin() + 100, src.begin() + 180));
}

TEST(WireBuf, SliceOutlivesEveryOtherReference) {
  SlabPool& pool = SlabPool::global();
  pool.trim();
  const std::size_t live0 = pool.live();
  const Bytes src = pattern(1024);
  WireBuf mid;
  {
    WireBuf a(src);
    mid = a.slice(512, 256);
  }  // `a` dies; the slice must keep the slab alive
  EXPECT_EQ(pool.live(), live0 + 1);
  EXPECT_EQ(mid.to_bytes(), Bytes(src.begin() + 512, src.begin() + 768));
  mid = WireBuf();
  EXPECT_EQ(pool.live(), live0);
}

// ---------------------------------------------------------------------------
// Arena frame protocol
// ---------------------------------------------------------------------------

TEST(Arena, SealingSmallFramesRewindsTheBumpPointer) {
  Arena arena;
  const std::size_t pos0 = arena.pos();
  for (int i = 0; i < 100; ++i) {
    Writer w(arena, 64);
    w.put_ulong(static_cast<std::uint32_t>(i));
    WireBuf frame = w.seal();
    EXPECT_TRUE(frame.inline_storage());
    EXPECT_EQ(arena.pos(), pos0);  // same slab bytes reused every time
  }
}

TEST(Arena, SealingLargeFramesAdvancesPastThem) {
  Arena arena;
  Writer w(arena, 512);
  w.put_raw(pattern(WireBuf::kInlineCapacity + 1));
  WireBuf frame = w.seal();
  EXPECT_FALSE(frame.inline_storage());
  EXPECT_GE(arena.pos(), WireBuf::kInlineCapacity + 1);
  EXPECT_EQ(frame.to_bytes(), pattern(WireBuf::kInlineCapacity + 1));
}

TEST(Arena, FrameGrowsAcrossSlabUpgrade) {
  Arena arena;  // default min slab is 16 KiB
  const Bytes big = pattern(100'000);
  Writer w(arena, 16);  // deliberately under-reserved
  w.put_octet_seq(std::span<const std::uint8_t>(big.data(), big.size()));
  WireBuf frame = w.seal();

  Decoder dec(frame);
  EXPECT_EQ(dec.get_octet_seq(), big);
}

TEST(Arena, ResetDropsTheCurrentSlab) {
  Arena arena;
  Writer w(arena, 512);
  w.put_raw(pattern(1024));
  WireBuf frame = w.seal();
  ASSERT_NE(arena.slab(), nullptr);
  arena.reset();
  EXPECT_EQ(arena.slab(), nullptr);
  EXPECT_EQ(arena.pos(), 0u);
  // The sealed frame still owns its reference to the dropped slab.
  EXPECT_EQ(frame.to_bytes(), pattern(1024));
}

TEST(Arena, OneFrameOpenAtATime) {
  Arena arena;
  Writer w(arena, 64);
  EXPECT_TRUE(arena.frame_open());
  w.put_ulong(1);
  (void)w.seal();
  EXPECT_FALSE(arena.frame_open());
}

// ---------------------------------------------------------------------------
// Writer golden bytes
// ---------------------------------------------------------------------------

TEST(Writer, PrimitivesAndAlignmentMatchEncoder) {
  Arena arena;
  Writer w(arena);
  w.put_octet(7);
  w.put_ulong(0xDEADBEEF);  // 3 padding bytes
  w.put_octet(1);
  w.put_double(6.25);  // 7 padding bytes
  w.put_string("totem");
  w.put_ushort(99);

  if (!kHostLittleEndian) GTEST_SKIP() << "goldens are little-endian";
  EXPECT_EQ(w.seal().to_bytes(),
            golden("07000000efbeadde01000000000000000000000000001940"
                   "06000000746f74656d006300"));
}

TEST(Writer, ReserveAndPatchBackfillsALengthField) {
  Arena arena;
  Writer w(arena);
  w.put_ulong(0x11111111);
  Writer::Patch p = w.reserve_ulong();
  const std::size_t before = w.size();
  w.put_string("payload bytes");
  w.patch_ulong(p, static_cast<std::uint32_t>(w.size() - before));
  WireBuf frame = w.seal();

  Decoder dec(frame);
  EXPECT_EQ(dec.get_ulong(), 0x11111111u);
  const std::uint32_t len = dec.get_ulong();
  EXPECT_EQ(len, frame.size() - 8);
  EXPECT_EQ(dec.get_string(), "payload bytes");
}

TEST(Writer, LittleEndianPatchIsHostIndependent) {
  Arena arena;
  Writer w(arena);
  const Writer::Patch p = w.reserve_ulong();
  w.patch_ulong_le(p, 0x04030201);
  EXPECT_EQ(w.seal().to_bytes(), (Bytes{1, 2, 3, 4}));
}

TEST(Writer, InPlaceEncapsulationMatchesEncoderEncapsulation) {
  Arena arena;
  Writer w(arena);
  w.put_ulong(7);
  w.begin_encapsulation();
  w.put_ulong(42);
  w.put_string("ctx");
  w.end_encapsulation();
  w.put_octet(0xFF);

  if (!kHostLittleEndian) GTEST_SKIP() << "goldens are little-endian";
  EXPECT_EQ(w.seal().to_bytes(),
            golden("0700000010000000010000002a0000000400000063747800ff"));
}

TEST(Writer, NestedEncapsulationsMatchEncoder) {
  Arena arena;
  Writer w(arena);
  w.put_octet(1);  // shifts every nested origin off the frame origin
  w.begin_encapsulation();
  w.put_ulong(5);
  w.begin_encapsulation();
  w.put_double(2.5);
  w.end_encapsulation();
  w.end_encapsulation();

  if (!kHostLittleEndian) GTEST_SKIP() << "goldens are little-endian";
  EXPECT_EQ(w.seal().to_bytes(),
            golden("010000001c00000001000000050000001000000001000000"
                   "000000000000000000000440"));
}

TEST(Writer, MarkOriginRestartsAlignment) {
  // GIOP framing: a 12-byte header, then the body aligned as a fresh stream.
  Arena arena;
  Writer w(arena);
  w.put_raw(pattern(12));
  w.mark_origin();
  w.put_double(1.5);
  WireBuf frame = w.seal();

  if (!kHostLittleEndian) GTEST_SKIP() << "goldens are little-endian";
  Bytes expect = pattern(12);
  const Bytes body = golden("000000000000f83f");
  expect.insert(expect.end(), body.begin(), body.end());
  EXPECT_EQ(frame.to_bytes(), expect);
}

// ---------------------------------------------------------------------------
// Borrow decode
// ---------------------------------------------------------------------------

TEST(Decoder, OctetSeqBufBorrowsTheArrivingFrame) {
  const Bytes payload = pattern(4096);
  Arena arena;
  Writer w(arena);
  w.put_ulong(3);
  w.put_octet_seq(std::span<const std::uint8_t>(payload.data(), payload.size()));
  WireBuf frame = w.seal();

  Decoder dec(frame);
  EXPECT_EQ(dec.get_ulong(), 3u);
  WireBuf body = dec.get_octet_seq_buf();
  // Zero-copy: the payload slice points into the frame's slab.
  EXPECT_EQ(body.data(), frame.data() + 8);
  EXPECT_EQ(body.to_bytes(), payload);
}

TEST(Decoder, BorrowedSliceKeepsTheFrameAlive) {
  SlabPool& pool = SlabPool::global();
  pool.trim();
  const std::size_t live0 = pool.live();
  const Bytes payload = pattern(2048);
  WireBuf body;
  {
    Arena arena;
    Writer w(arena);
    w.put_octet_seq(std::span<const std::uint8_t>(payload.data(),
                                                  payload.size()));
    WireBuf frame = w.seal();
    Decoder dec(frame);
    body = dec.get_octet_seq_buf();
  }  // frame and arena both die; the borrowed slice owns a slab reference
  EXPECT_EQ(pool.live(), live0 + 1);
  EXPECT_EQ(body.to_bytes(), payload);
  body = WireBuf();
  EXPECT_EQ(pool.live(), live0);
}

TEST(Decoder, ViewsFromBytesDecoderStillCopy) {
  // Non-borrowing mode: a Decoder over plain Bytes has no frame to slice,
  // so get_octet_seq_buf must hand back an owning copy.
  Arena arena;
  Writer w(arena);
  w.put_octet_seq(pattern(512));
  const std::span<const std::uint8_t> bytes = w.written();
  Decoder dec(bytes);
  WireBuf body = dec.get_octet_seq_buf();
  EXPECT_EQ(body.to_bytes(), pattern(512));
  EXPECT_TRUE(body.data() < bytes.data() ||
              body.data() >= bytes.data() + bytes.size());
}

TEST(Decoder, GetStringViewBorrowsWithoutAllocating) {
  Arena arena;
  Writer w(arena);
  w.put_string("view me");
  WireBuf frame = w.seal();
  Decoder dec(frame);
  std::string_view sv = dec.get_string_view();
  EXPECT_EQ(sv, "view me");
  EXPECT_GE(reinterpret_cast<const std::uint8_t*>(sv.data()), frame.data());
  EXPECT_LT(reinterpret_cast<const std::uint8_t*>(sv.data()),
            frame.data() + frame.size());
}

}  // namespace
}  // namespace eternal::cdr
