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

void encode_journal_record_into(cdr::Writer& out, const JournalRecord& r) {
  out.put_ulonglong(r.index);
  out.put_ulonglong(r.carrier.epoch);
  out.put_ulonglong(r.carrier.seq);
  out.put_ulong(r.sender);
  out.put_octet(r.kind);
  out.put_string(r.group);
  out.put_ulonglong(r.op.parent.epoch);
  out.put_ulonglong(r.op.parent.seq);
  out.put_ulonglong(r.op.op_seq);
  out.put_octet_seq(r.payload);
}

JournalRecord decode_journal_record(cdr::Decoder& in) {
  JournalRecord r;
  r.index = in.get_ulonglong();
  r.carrier.epoch = in.get_ulonglong();
  r.carrier.seq = in.get_ulonglong();
  r.sender = in.get_ulong();
  r.kind = in.get_octet();
  r.group = in.get_string();
  r.op.parent.epoch = in.get_ulonglong();
  r.op.parent.seq = in.get_ulonglong();
  r.op.op_seq = in.get_ulonglong();
  r.payload = in.get_octet_seq();
  return r;
}

void encode_checkpoint_record_into(cdr::Writer& out, const CheckpointRecord& r,
                                   const BlobWriter& blob) {
  out.put_string(r.group);
  out.put_octet(r.style);
  out.put_ulonglong(r.state_version);
  out.put_ulonglong(r.digest);
  out.put_ulonglong(r.position);
  out.put_ulonglong(r.max_epoch);
  out.put_ulonglong(r.client_next_op);
  out.begin_octet_seq();
  if (blob) {
    blob(out);
  } else {
    out.put_raw(r.blob);
  }
  out.end_octet_seq();
}

CheckpointRecord decode_checkpoint_record(cdr::Decoder& in) {
  CheckpointRecord r;
  r.group = in.get_string();
  r.style = in.get_octet();
  r.state_version = in.get_ulonglong();
  r.digest = in.get_ulonglong();
  r.position = in.get_ulonglong();
  r.max_epoch = in.get_ulonglong();
  r.client_next_op = in.get_ulonglong();
  r.blob = in.get_octet_seq();
  return r;
}

void encode_meta_record_into(cdr::Writer& out, const MetaRecord& r) {
  out.put_ulonglong(r.max_epoch);
  out.put_ulonglong(r.client_next_op);
}

MetaRecord decode_meta_record(cdr::Decoder& in) {
  MetaRecord r;
  r.max_epoch = in.get_ulonglong();
  r.client_next_op = in.get_ulonglong();
  return r;
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
