// Durability subsystem unit tests: simulated-disk semantics, record
// framing, journal corruption matrix (truncated tail / CRC flip / torn
// mid-record / disk full), checkpoint retention + fallback, and the
// compaction rules and read-free checkpoint cuts of NodeDurability.
#include <gtest/gtest.h>

#include <algorithm>

#include "dur/durability.hpp"
#include "dur/journal.hpp"
#include "dur/record.hpp"
#include "sim/disk.hpp"

namespace eternal::dur {
namespace {

JournalRecord make_record(std::uint64_t seq, const std::string& group,
                          std::size_t payload = 32) {
  JournalRecord r;
  r.carrier.epoch = 1;
  r.carrier.seq = seq;
  r.sender = 2;
  r.kind = 1;
  r.group = group;
  r.op.parent.epoch = 1;
  r.op.parent.seq = seq;
  r.op.op_seq = 7;
  r.payload.assign(payload, static_cast<std::uint8_t>(seq & 0xFF));
  return r;
}

// ---------------------------------------------------------------------------
// sim::Disk
// ---------------------------------------------------------------------------

TEST(Disk, UnsyncedTailDiesWithPowerCut) {
  sim::Disk disk;
  ASSERT_TRUE(disk.append("f", {1, 2, 3, 4}));
  disk.sync("f");
  ASSERT_TRUE(disk.append("f", {5, 6, 7, 8}));
  EXPECT_EQ(disk.size("f"), 8u);
  EXPECT_EQ(disk.synced_size("f"), 4u);
  disk.crash(/*torn=*/false);
  ASSERT_NE(disk.read("f"), nullptr);
  EXPECT_EQ(*disk.read("f"), (sim::DiskBytes{1, 2, 3, 4}));
  EXPECT_EQ(disk.synced_size("f"), 4u);
}

TEST(Disk, TornCrashKeepsPartialTail) {
  sim::Disk disk;
  ASSERT_TRUE(disk.append("f", {1, 2}));
  disk.sync("f");
  ASSERT_TRUE(disk.append("f", {3, 4, 5, 6}));
  disk.crash(/*torn=*/true);
  // Synced prefix intact + half of the 4-byte unsynced tail.
  EXPECT_EQ(*disk.read("f"), (sim::DiskBytes{1, 2, 3, 4}));
}

TEST(Disk, WriteFileIsAtomicAndDurable) {
  sim::Disk disk;
  ASSERT_TRUE(disk.write_file("meta", {9, 9}));
  ASSERT_TRUE(disk.write_file("meta", {1, 2, 3}));
  disk.crash(/*torn=*/true);
  EXPECT_EQ(*disk.read("meta"), (sim::DiskBytes{1, 2, 3}));
}

TEST(Disk, FullDiskRefusesWrites) {
  sim::Disk disk;
  disk.set_full(true);
  EXPECT_FALSE(disk.append("f", {1}));
  EXPECT_FALSE(disk.write_file("g", {1}));
  EXPECT_EQ(disk.read("f"), nullptr);
  disk.set_full(false);
  EXPECT_TRUE(disk.append("f", {1}));
}

TEST(Disk, ListIsSortedAndPrefixed) {
  sim::Disk disk;
  disk.write_file("b", {1});
  disk.write_file("a", {1});
  disk.write_file("ckpt-g-1", {1});
  EXPECT_EQ(disk.list(), (std::vector<std::string>{"a", "b", "ckpt-g-1"}));
  EXPECT_EQ(disk.list("ckpt-"), (std::vector<std::string>{"ckpt-g-1"}));
}

// ---------------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------------

TEST(Record, JournalRecordRoundTrip) {
  const JournalRecord in = make_record(42, "counter");
  const Bytes wire = cdr::make_bytes(
      [&in](cdr::Writer& w) { encode_journal_record_into(w, in); });
  cdr::Decoder dec(wire);
  const JournalRecord out = decode_journal_record(dec);
  EXPECT_EQ(out.index, in.index);
  EXPECT_EQ(out.carrier.epoch, in.carrier.epoch);
  EXPECT_EQ(out.carrier.seq, in.carrier.seq);
  EXPECT_EQ(out.sender, in.sender);
  EXPECT_EQ(out.kind, in.kind);
  EXPECT_EQ(out.group, in.group);
  EXPECT_EQ(out.op, in.op);
  EXPECT_EQ(out.payload, in.payload);
}

TEST(Record, CheckpointRecordRoundTrip) {
  CheckpointRecord in;
  in.group = "counter";
  in.style = 1;
  in.state_version = 128;
  in.digest = 0xDEADBEEFull;
  in.position = 77;
  in.max_epoch = 5;
  in.client_next_op = 900;
  in.blob = Bytes{1, 2, 3};
  const Bytes wire = cdr::make_bytes(
      [&in](cdr::Writer& w) { encode_checkpoint_record_into(w, in); });
  cdr::Decoder dec(wire);
  const CheckpointRecord out = decode_checkpoint_record(dec);
  EXPECT_EQ(out.group, in.group);
  EXPECT_EQ(out.style, in.style);
  EXPECT_EQ(out.state_version, in.state_version);
  EXPECT_EQ(out.digest, in.digest);
  EXPECT_EQ(out.position, in.position);
  EXPECT_EQ(out.max_epoch, in.max_epoch);
  EXPECT_EQ(out.client_next_op, in.client_next_op);
  EXPECT_EQ(out.blob, in.blob);
}

// Bytewise framing reference: [u32 length][u32 crc32], little-endian, then
// the payload.
Bytes frame_reference(const Bytes& payload) {
  Bytes out;
  const auto put_u32 = [&out](std::uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) {
      out.push_back(static_cast<std::uint8_t>(v >> shift));
    }
  };
  put_u32(static_cast<std::uint32_t>(payload.size()));
  put_u32(crc32(payload.data(), payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

TEST(Record, InPlaceFrameMatchesReference) {
  CheckpointRecord rec;
  rec.group = "g";  // odd-length string: the payload needs alignment padding
  rec.state_version = 7;
  rec.position = 3;
  rec.blob = Bytes{1, 2, 3, 4, 5};
  const Bytes payload = cdr::make_bytes(
      [&rec](cdr::Writer& w) { encode_checkpoint_record_into(w, rec); });
  const Bytes framed = cdr::make_bytes([&rec](cdr::Writer& w) {
    frame_begin(w);
    encode_checkpoint_record_into(w, rec);
    frame_end(w);
  });
  EXPECT_EQ(framed, frame_reference(payload));
  // A blob written in place is the same record as one copied in.
  const Bytes in_place = cdr::make_bytes([&rec](cdr::Writer& w) {
    encode_checkpoint_record_into(w, rec, [&rec](cdr::Writer& blob) {
      blob.put_raw(rec.blob);
    });
  });
  EXPECT_EQ(in_place, payload);
}

TEST(Record, FrameRejectsCorruptPayload) {
  Bytes framed = cdr::make_bytes([](cdr::Writer& w) {
    frame_begin(w);
    encode_meta_record_into(w, MetaRecord{3, 4});
    frame_end(w);
  });
  std::size_t off = 0, len = 0;
  ASSERT_TRUE(frame_parse(framed, 0, off, len));
  framed[framed.size() - 1] ^= 0xFF;  // flip a payload byte
  EXPECT_FALSE(frame_parse(framed, 0, off, len));
}

TEST(Record, FrameRejectsTruncatedHeader) {
  Bytes framed{1, 2, 3};  // shorter than the [len][crc] header
  std::size_t off = 0, len = 0;
  EXPECT_FALSE(frame_parse(framed, 0, off, len));
}

TEST(Record, Crc32KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                  check.size()),
            0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  const std::uint8_t zeros[32] = {};
  EXPECT_EQ(crc32(zeros, sizeof zeros), 0x190A55ADu);
}

// Every length 0..64 at every alignment offset 0..7 must match the plain
// one-byte-at-a-time table CRC, so word-sliced loops cannot drift at
// their head/tail boundaries.
TEST(Record, Crc32MatchesBytewiseReference) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  const auto reference = [&table](const std::uint8_t* p, std::size_t n) {
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
      c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
    }
    return c ^ 0xFFFFFFFFu;
  };
  alignas(8) std::uint8_t buf[64 + 8];
  std::uint32_t x = 0x12345678u;
  for (std::uint8_t& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(crc32(buf + offset, len), reference(buf + offset, len))
          << "offset " << offset << " len " << len;
    }
  }
}

// ---------------------------------------------------------------------------
// Journal corruption matrix
// ---------------------------------------------------------------------------

TEST(Journal, AppendScanRoundTrip) {
  sim::Disk disk;
  Journal j(disk);
  j.open();
  for (std::uint64_t i = 0; i < 5; ++i) {
    JournalRecord r = make_record(i, "g");
    ASSERT_TRUE(j.append(r));
    EXPECT_EQ(r.index, i);
  }
  j.sync();
  const ScanResult s = j.scan();
  EXPECT_TRUE(s.clean);
  EXPECT_EQ(s.tail_lost_bytes, 0u);
  ASSERT_EQ(s.records.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(s.records[i].index, i);
    EXPECT_EQ(s.records[i].carrier.seq, i);
  }
}

TEST(Journal, TruncatedTailStopsCleanly) {
  sim::Disk disk;
  Journal j(disk);
  j.open();
  for (std::uint64_t i = 0; i < 4; ++i) {
    JournalRecord r = make_record(i, "g");
    ASSERT_TRUE(j.append(r));
  }
  j.sync();
  // Chop mid-record: the scanner keeps the intact prefix. (A subsequent
  // open() would truncate the garbage — scan directly to observe it.)
  disk.truncate("journal", disk.size("journal") - 7);
  const ScanResult s = j.scan();
  EXPECT_FALSE(s.clean);
  EXPECT_EQ(s.records.size(), 3u);
  EXPECT_GT(s.tail_lost_bytes, 0u);
}

TEST(Journal, CrcFlipStopsScanAtCorruptRecord) {
  sim::Disk disk;
  Journal j(disk);
  j.open();
  std::size_t boundary = 0;
  for (std::uint64_t i = 0; i < 5; ++i) {
    JournalRecord r = make_record(i, "g");
    ASSERT_TRUE(j.append(r));
    if (i == 2) boundary = disk.size("journal");
  }
  j.sync();
  // Flip one byte inside record 3; records 0-2 stay readable.
  ASSERT_TRUE(disk.corrupt_byte("journal", boundary + 12));
  const ScanResult s = j.scan();
  EXPECT_FALSE(s.clean);
  EXPECT_EQ(s.records.size(), 3u);
}

TEST(Journal, TornCrashThenOpenTruncatesGarbageTail) {
  sim::Disk disk;
  {
    Journal j(disk);
    j.open();
    for (std::uint64_t i = 0; i < 3; ++i) {
      JournalRecord r = make_record(i, "g");
      ASSERT_TRUE(j.append(r));
    }
    j.sync();
    JournalRecord r = make_record(3, "g", 256);  // big → tail torn mid-record
    ASSERT_TRUE(j.append(r));
  }
  disk.crash(/*torn=*/true);
  // The new life must not append after a garbage partial record: open()
  // truncates to the intact prefix so later records stay reachable.
  Journal j2(disk);
  j2.open();
  EXPECT_EQ(j2.next_index(), 3u);
  JournalRecord r = make_record(9, "g");
  ASSERT_TRUE(j2.append(r));
  j2.sync();
  const ScanResult s = j2.scan();
  EXPECT_TRUE(s.clean);
  ASSERT_EQ(s.records.size(), 4u);
  EXPECT_EQ(s.records.back().index, 3u);
  EXPECT_EQ(s.records.back().carrier.seq, 9u);
}

TEST(Journal, CompactKeepsAbsoluteIndices) {
  sim::Disk disk;
  Journal j(disk);
  j.open();
  for (std::uint64_t i = 0; i < 10; ++i) {
    JournalRecord r = make_record(i, "g");
    ASSERT_TRUE(j.append(r));
  }
  j.sync();
  const std::size_t before = disk.size("journal");
  EXPECT_GT(j.compact(6), 0u);
  EXPECT_LT(disk.size("journal"), before);
  const ScanResult s = j.scan();
  ASSERT_EQ(s.records.size(), 4u);
  EXPECT_EQ(s.records.front().index, 6u);
  EXPECT_EQ(j.next_index(), 10u);
}

TEST(Journal, DiskFullMarksBroken) {
  sim::Disk disk;
  Journal j(disk);
  j.open();
  JournalRecord a = make_record(0, "g");
  ASSERT_TRUE(j.append(a));
  disk.set_full(true);
  JournalRecord b = make_record(1, "g");
  EXPECT_FALSE(j.append(b));
  EXPECT_TRUE(j.broken());
  disk.set_full(false);
  j.sync();
  EXPECT_EQ(j.scan().records.size(), 1u);
}

// ---------------------------------------------------------------------------
// Checkpoint store
// ---------------------------------------------------------------------------

CheckpointRecord make_checkpoint(const std::string& group,
                                 std::uint64_t version, std::uint64_t pos) {
  CheckpointRecord c;
  c.group = group;
  c.state_version = version;
  c.digest = version * 1000;
  c.position = pos;
  c.blob = Bytes{static_cast<std::uint8_t>(version)};
  return c;
}

TEST(CheckpointStore, RetainsTwoNewest) {
  sim::Disk disk;
  CheckpointStore store(disk);
  ASSERT_TRUE(store.save(make_checkpoint("g", 10, 5)));
  ASSERT_TRUE(store.save(make_checkpoint("g", 20, 11)));
  ASSERT_TRUE(store.save(make_checkpoint("g", 30, 17)));
  EXPECT_EQ(disk.list("ckpt-g-").size(), 2u);
  std::size_t fb = 0;
  const auto rec = store.load_newest("g", &fb);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->state_version, 30u);
  EXPECT_EQ(fb, 0u);
}

TEST(CheckpointStore, FallsBackWhenNewestCorrupt) {
  sim::Disk disk;
  CheckpointStore store(disk);
  ASSERT_TRUE(store.save(make_checkpoint("g", 10, 5)));
  ASSERT_TRUE(store.save(make_checkpoint("g", 20, 11)));
  const auto files = disk.list("ckpt-g-");
  ASSERT_EQ(files.size(), 2u);
  ASSERT_TRUE(disk.corrupt_byte(files.back(), 10));  // newest (sorted last)
  std::size_t fb = 0;
  const auto rec = store.load_newest("g", &fb);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->state_version, 10u);
  EXPECT_EQ(fb, 1u);
}

TEST(CheckpointStore, BothCorruptMeansFullReplay) {
  sim::Disk disk;
  CheckpointStore store(disk);
  ASSERT_TRUE(store.save(make_checkpoint("g", 10, 5)));
  ASSERT_TRUE(store.save(make_checkpoint("g", 20, 11)));
  for (const auto& f : disk.list("ckpt-g-")) {
    ASSERT_TRUE(disk.corrupt_byte(f, 10));
  }
  std::size_t fb = 0;
  EXPECT_FALSE(store.load_newest("g", &fb).has_value());
  EXPECT_EQ(fb, 2u);
}

TEST(CheckpointStore, SafePositionsTrackOlderRetained) {
  sim::Disk disk;
  CheckpointStore store(disk);
  ASSERT_TRUE(store.save(make_checkpoint("a", 10, 5)));
  ASSERT_TRUE(store.save(make_checkpoint("a", 20, 11)));
  ASSERT_TRUE(store.save(make_checkpoint("b", 4, 9)));
  const auto safe = store.safe_positions();
  ASSERT_EQ(safe.size(), 2u);
  EXPECT_EQ(safe.at("a"), 5u);   // older of the two retained
  EXPECT_EQ(safe.at("b"), 0u);   // single checkpoint pins the whole tape
}

// A store opened over an earlier life's files learns their positions once,
// then keeps retiring and answering from memory.
TEST(CheckpointStore, ReopenLearnsRetainedPositions) {
  sim::Disk disk;
  {
    CheckpointStore store(disk);
    ASSERT_TRUE(store.save(make_checkpoint("a", 10, 5)));
    ASSERT_TRUE(store.save(make_checkpoint("a", 20, 11)));
    ASSERT_TRUE(store.save(make_checkpoint("a-b", 7, 3)));
  }
  CheckpointStore store(disk);
  const std::size_t reads = disk.read_calls();
  EXPECT_EQ(store.safe_positions(),
            (std::map<std::string, std::uint64_t>{{"a", 5}, {"a-b", 0}}));
  ASSERT_TRUE(store.save(make_checkpoint("a", 30, 17)));
  EXPECT_EQ(store.safe_positions().at("a"), 11u);
  EXPECT_EQ(disk.read_calls(), reads);
  EXPECT_EQ(disk.list("ckpt-a-0"),
            (std::vector<std::string>{"ckpt-a-00000000000000000020",
                                      "ckpt-a-00000000000000000030"}));
  EXPECT_EQ(disk.list("ckpt-a-b-").size(), 1u);
}

TEST(CheckpointStore, GroupNamesWithDashesParse) {
  sim::Disk disk;
  CheckpointStore store(disk);
  ASSERT_TRUE(store.save(make_checkpoint("multi-part-name", 3, 1)));
  const auto groups = store.groups();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], "multi-part-name");
}

// ---------------------------------------------------------------------------
// NodeDurability: compaction rules and cut cost
// ---------------------------------------------------------------------------

std::size_t count_group(const std::vector<JournalRecord>& records,
                        const std::string& group) {
  return static_cast<std::size_t>(std::count_if(
      records.begin(), records.end(),
      [&group](const JournalRecord& r) { return r.group == group; }));
}

// A co-hosted group that journals but never checkpoints (a cold-passive
// backup) replays from scratch, so another group's cuts must never compact
// its records away.
TEST(NodeDurability, GroupWithoutCheckpointPinsTheTape) {
  sim::Simulation sim(1);
  sim::Disk disk;
  NodeDurability dur(sim, disk, 0, DurParams{});
  std::uint64_t seq = 0;
  for (std::uint64_t cut = 1; cut <= 3; ++cut) {
    for (int i = 0; i < 4; ++i) {
      dur.append(make_record(++seq, "a"));
      dur.append(make_record(++seq, "c"));
    }
    dur.cut_checkpoint(make_checkpoint("a", 10 * cut, 0));
  }
  EXPECT_EQ(count_group(dur.journal().scan().records, "c"), 12u);
  const RecoveredNode rec = dur.recover();
  EXPECT_EQ(count_group(rec.records, "c"), 12u);
  EXPECT_EQ(rec.stats.records_replayed, rec.records.size());
}

// Steady-state cuts cost O(checkpoint), not O(tape): once warm, persisting
// a checkpoint, retiring the old one and compacting the journal never read
// anything back from disk.
TEST(NodeDurability, CheckpointCutsNeverReadTheDisk) {
  sim::Simulation sim(1);
  sim::Disk disk;
  NodeDurability dur(sim, disk, 0, DurParams{});
  dur.start();
  std::uint64_t seq = 0;
  const auto cut_round = [&](std::uint64_t version) {
    for (int i = 0; i < 4; ++i) dur.append(make_record(++seq, "g"));
    sim.run_for(sim::kMillisecond);  // a group-commit tick or two
    dur.cut_checkpoint(make_checkpoint("g", version, 0));
  };
  cut_round(1);
  cut_round(2);
  const std::size_t reads = disk.read_calls();
  for (std::uint64_t v = 3; v < 53; ++v) cut_round(v);
  EXPECT_EQ(disk.read_calls(), reads);
  // ...and still compacted: only the records since the older retained
  // checkpoint remain.
  const ScanResult scan = dur.journal().scan();
  ASSERT_EQ(scan.records.size(), 4u);
  EXPECT_EQ(scan.records.front().index, 4u * 51);
  EXPECT_EQ(disk.list("ckpt-g-").size(), 2u);
  dur.close();
}

// The in-place prefix drop leaves exactly the bytes a fresh journal of the
// retained records would hold, durable as a unit, and appends continue
// behind it.
TEST(Journal, CompactMatchesReencodedSuffix) {
  sim::Disk disk;
  Journal j(disk);
  const auto reencoded = [&j] {
    Bytes out;
    for (const JournalRecord& r : j.scan().records) {
      const Bytes framed = frame_reference(cdr::make_bytes(
          [&r](cdr::Writer& w) { encode_journal_record_into(w, r); }));
      out.insert(out.end(), framed.begin(), framed.end());
    }
    return out;
  };
  for (std::uint64_t i = 0; i < 12; ++i) {
    JournalRecord r = make_record(i, i % 3 ? "g" : "h", 16 + i);
    ASSERT_TRUE(j.append(r));
  }
  const std::size_t before = disk.size("journal");
  EXPECT_EQ(j.compact(5) + disk.size("journal"), before);
  EXPECT_EQ(disk.synced_size("journal"), disk.size("journal"));
  EXPECT_EQ(*disk.read("journal"), reencoded());
  EXPECT_EQ(j.scan().records.front().index, 5u);
  std::vector<std::pair<std::string, std::uint64_t>> firsts;
  j.for_each_group([&firsts](const std::string& g, std::uint64_t first) {
    firsts.emplace_back(g, first);
  });
  EXPECT_EQ(firsts, (std::vector<std::pair<std::string, std::uint64_t>>{
                        {"h", 6}, {"g", 5}}));

  JournalRecord r = make_record(99, "g");
  ASSERT_TRUE(j.append(r));
  EXPECT_GT(j.compact(11), 0u);
  EXPECT_EQ(*disk.read("journal"), reencoded());
  const ScanResult s = j.scan();
  ASSERT_EQ(s.records.size(), 2u);
  EXPECT_EQ(s.records.front().index, 11u);
  EXPECT_EQ(s.records.back().index, 12u);
  EXPECT_EQ(j.compact(11), 0u);  // nothing left below the threshold
}

}  // namespace
}  // namespace eternal::dur
