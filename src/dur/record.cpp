#include "dur/record.hpp"

#include <array>

namespace eternal::dur {

namespace {

constexpr std::size_t kFrameHeader = 8;  // [u32 length][u32 crc32]

// Slicing-by-8 tables: kCrc[0] is the classic byte table; kCrc[k][b] is
// the CRC contribution of byte b followed by k zero bytes, so one step
// folds eight input bytes with eight independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrc = make_crc_tables();

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t len) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    const std::uint32_t lo = load_le32(data) ^ c;
    const std::uint32_t hi = load_le32(data + 4);
    c = kCrc[7][lo & 0xFFu] ^ kCrc[6][(lo >> 8) & 0xFFu] ^
        kCrc[5][(lo >> 16) & 0xFFu] ^ kCrc[4][lo >> 24] ^
        kCrc[3][hi & 0xFFu] ^ kCrc[2][(hi >> 8) & 0xFFu] ^
        kCrc[1][(hi >> 16) & 0xFFu] ^ kCrc[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) {
    c = kCrc[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

namespace {

template <class IO>
void io(IO& wire, cdr::Ref<IO, JournalRecord> r) {
  wire.field(r.index);
  io(wire, r.carrier);
  wire.field(r.sender);
  wire.field(r.kind);
  wire.field(r.group);
  io(wire, r.op);
  wire.field(r.payload);
}

// `blob`, when set, writes the checkpoint blob in place instead of r.blob.
template <class IO>
void io(IO& wire, cdr::Ref<IO, CheckpointRecord> r,
        const BlobWriter& blob = nullptr) {
  wire.field(r.group);
  wire.field(r.style);
  wire.field(r.state_version);
  wire.field(r.digest);
  wire.field(r.position);
  wire.field(r.max_epoch);
  wire.field(r.client_next_op);
  if constexpr (!IO::kReading) {
    if (blob) {
      wire.begin_octet_seq();
      blob(wire);
      wire.end_octet_seq();
      return;
    }
  }
  wire.field(r.blob);
}

template <class IO>
void io(IO& wire, cdr::Ref<IO, MetaRecord> r) {
  wire.field(r.max_epoch);
  wire.field(r.client_next_op);
}

template <class Record>
Record decode(cdr::Decoder& in) {
  Record r;
  io(in, r);
  return r;
}

}  // namespace

void encode_journal_record_into(cdr::Writer& out, const JournalRecord& r) {
  io(out, r);
}

JournalRecord decode_journal_record(cdr::Decoder& in) {
  return decode<JournalRecord>(in);
}

void encode_checkpoint_record_into(cdr::Writer& out, const CheckpointRecord& r,
                                   const BlobWriter& blob) {
  io(out, r, blob);
}

CheckpointRecord decode_checkpoint_record(cdr::Decoder& in) {
  return decode<CheckpointRecord>(in);
}

void encode_meta_record_into(cdr::Writer& out, const MetaRecord& r) {
  io(out, r);
}

MetaRecord decode_meta_record(cdr::Decoder& in) {
  return decode<MetaRecord>(in);
}

void frame_begin(cdr::Writer& out) {
  (void)out.reserve_ulong();  // length, filled by frame_end
  (void)out.reserve_ulong();  // crc32, filled by frame_end
}

void frame_end(cdr::Writer& out) {
  const std::span<const std::uint8_t> framed = out.written();
  const std::size_t len = framed.size() - kFrameHeader;
  out.patch_ulong_le({0}, static_cast<std::uint32_t>(len));
  out.patch_ulong_le({4}, crc32(framed.data() + kFrameHeader, len));
}

bool frame_parse(const Bytes& data, std::size_t offset,
                 std::size_t& payload_offset, std::size_t& payload_len) {
  if (offset + kFrameHeader > data.size()) return false;  // truncated header
  const std::uint32_t len = load_le32(data.data() + offset);
  const std::uint32_t crc = load_le32(data.data() + offset + 4);
  if (offset + kFrameHeader + len > data.size()) return false;  // torn
  if (crc32(data.data() + offset + kFrameHeader, len) != crc) return false;
  payload_offset = offset + kFrameHeader;
  payload_len = len;
  return true;
}

}  // namespace eternal::dur
