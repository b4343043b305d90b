// Filesystem tests: namespace semantics, data paths, journaling, recovery,
// checkpoint compaction, crash consistency (parameterized over seeds).
#include <gtest/gtest.h>

#include <string>

#include "src/base/crc.h"
#include "src/base/fault.h"
#include "src/base/rng.h"
#include "src/base/serde.h"
#include "src/hw/block_device.h"
#include "src/kernel/fs.h"
#include "src/kernel/nrfs.h"
#include "src/hw/topology.h"

namespace vnros {
namespace {

std::vector<u8> bytes(std::string_view s) { return std::vector<u8>(s.begin(), s.end()); }

// --- Namespace ---------------------------------------------------------------

TEST(MemFsTest, RootExists) {
  MemFs fs;
  auto names = fs.readdir("/");
  ASSERT_TRUE(names.ok());
  EXPECT_TRUE(names.value().empty());
}

TEST(MemFsTest, MkdirCreateNesting) {
  MemFs fs;
  ASSERT_TRUE(fs.mkdir("/a").ok());
  ASSERT_TRUE(fs.mkdir("/a/b").ok());
  ASSERT_TRUE(fs.create("/a/b/f").ok());
  auto st = fs.stat("/a/b/f");
  ASSERT_TRUE(st.ok());
  EXPECT_FALSE(st.value().is_dir);
  EXPECT_EQ(st.value().size, 0u);
  auto names = fs.readdir("/a/b");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value(), std::vector<std::string>{"f"});
}

TEST(MemFsTest, MissingParentFails) {
  MemFs fs;
  EXPECT_EQ(fs.create("/no/such/file").error(), ErrorCode::kNotFound);
  EXPECT_EQ(fs.mkdir("/no/such").error(), ErrorCode::kNotFound);
}

TEST(MemFsTest, PathValidation) {
  MemFs fs;
  EXPECT_EQ(fs.create("relative").error(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(fs.create("").error(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(fs.create("//double").error(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(fs.create(std::string("/") + std::string(300, 'x')).error(),
            ErrorCode::kInvalidArgument);
}

TEST(MemFsTest, DirFileConfusions) {
  MemFs fs;
  ASSERT_TRUE(fs.mkdir("/d").ok());
  ASSERT_TRUE(fs.create("/f").ok());
  EXPECT_EQ(fs.unlink("/d").error(), ErrorCode::kIsDirectory);
  EXPECT_EQ(fs.rmdir("/f").error(), ErrorCode::kNotDirectory);
  EXPECT_EQ(fs.readdir("/f").error(), ErrorCode::kNotDirectory);
  EXPECT_EQ(fs.write("/d", 0, bytes("x")).error(), ErrorCode::kIsDirectory);
  EXPECT_EQ(fs.create("/f/under-file").error(), ErrorCode::kNotDirectory);
}

TEST(MemFsTest, RmdirOnlyWhenEmpty) {
  MemFs fs;
  ASSERT_TRUE(fs.mkdir("/d").ok());
  ASSERT_TRUE(fs.create("/d/f").ok());
  EXPECT_EQ(fs.rmdir("/d").error(), ErrorCode::kNotEmpty);
  ASSERT_TRUE(fs.unlink("/d/f").ok());
  EXPECT_TRUE(fs.rmdir("/d").ok());
  EXPECT_EQ(fs.stat("/d").error(), ErrorCode::kNotFound);
}

TEST(MemFsTest, RenameMovesSubtree) {
  MemFs fs;
  ASSERT_TRUE(fs.mkdir("/src").ok());
  ASSERT_TRUE(fs.create("/src/f").ok());
  ASSERT_TRUE(fs.write("/src/f", 0, bytes("hello")).ok());
  ASSERT_TRUE(fs.mkdir("/dst").ok());
  ASSERT_TRUE(fs.rename("/src", "/dst/moved").ok());
  EXPECT_EQ(fs.stat("/src").error(), ErrorCode::kNotFound);
  auto st = fs.stat("/dst/moved/f");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().size, 5u);
}

TEST(MemFsTest, RenameIntoOwnSubtreeRejected) {
  MemFs fs;
  ASSERT_TRUE(fs.mkdir("/a").ok());
  ASSERT_TRUE(fs.mkdir("/a/b").ok());
  EXPECT_EQ(fs.rename("/a", "/a/b/c").error(), ErrorCode::kInvalidArgument);
}

TEST(MemFsTest, RenameReplacesExistingFile) {
  MemFs fs;
  ASSERT_TRUE(fs.create("/a").ok());
  ASSERT_TRUE(fs.write("/a", 0, bytes("new")).ok());
  ASSERT_TRUE(fs.create("/b").ok());
  ASSERT_TRUE(fs.write("/b", 0, bytes("old-longer")).ok());
  // POSIX replace semantics: the destination file is atomically replaced.
  ASSERT_TRUE(fs.rename("/a", "/b").ok());
  EXPECT_EQ(fs.stat("/a").error(), ErrorCode::kNotFound);
  std::vector<u8> buf(16);
  auto n = fs.read("/b", 0, buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 3u);
  EXPECT_EQ(buf[0], 'n');
}

TEST(MemFsTest, RenameNeverReplacesDirectory) {
  MemFs fs;
  ASSERT_TRUE(fs.create("/f").ok());
  ASSERT_TRUE(fs.mkdir("/d").ok());
  EXPECT_EQ(fs.rename("/f", "/d").error(), ErrorCode::kIsDirectory);
  EXPECT_EQ(fs.rename("/d", "/f").error(), ErrorCode::kNotDirectory);
}

// --- Data path -----------------------------------------------------------------

TEST(MemFsTest, WriteExtendsAndZeroFills) {
  MemFs fs;
  ASSERT_TRUE(fs.create("/f").ok());
  ASSERT_TRUE(fs.write("/f", 10, bytes("xy")).ok());
  auto st = fs.stat("/f");
  EXPECT_EQ(st.value().size, 12u);
  std::vector<u8> buf(12);
  auto n = fs.read("/f", 0, buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 12u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(buf[i], 0) << i;
  }
  EXPECT_EQ(buf[10], 'x');
}

TEST(MemFsTest, ReadSemanticsMatchReadSpec) {
  MemFs fs;
  ASSERT_TRUE(fs.create("/f").ok());
  ASSERT_TRUE(fs.write("/f", 0, bytes("0123456789")).ok());
  std::vector<u8> buf(4);
  // Interior read.
  EXPECT_EQ(fs.read("/f", 2, buf).value(), 4u);
  EXPECT_EQ(buf[0], '2');
  // Tail-clamped read.
  EXPECT_EQ(fs.read("/f", 8, buf).value(), 2u);
  // At EOF.
  EXPECT_EQ(fs.read("/f", 10, buf).value(), 0u);
  // Past EOF.
  EXPECT_EQ(fs.read("/f", 99, buf).value(), 0u);
}

TEST(MemFsTest, TruncateBothDirections) {
  MemFs fs;
  ASSERT_TRUE(fs.create("/f").ok());
  ASSERT_TRUE(fs.write("/f", 0, bytes("abcdef")).ok());
  ASSERT_TRUE(fs.truncate("/f", 3).ok());
  EXPECT_EQ(fs.stat("/f").value().size, 3u);
  ASSERT_TRUE(fs.truncate("/f", 6).ok());
  std::vector<u8> buf(6);
  (void)fs.read("/f", 0, buf);
  EXPECT_EQ(buf[2], 'c');
  EXPECT_EQ(buf[4], 0);  // zero-extended
}

// --- View ------------------------------------------------------------------------

TEST(MemFsTest, ViewReflectsTree) {
  MemFs fs;
  (void)fs.mkdir("/d");
  (void)fs.create("/d/f");
  (void)fs.write("/d/f", 0, bytes("zz"));
  (void)fs.create("/top");
  FsAbsState v = fs.view();
  EXPECT_EQ(v.dirs, std::set<std::string>{"/d"});
  ASSERT_EQ(v.files.size(), 2u);
  EXPECT_EQ(v.files.at("/d/f"), bytes("zz"));
  EXPECT_TRUE(v.files.at("/top").empty());
}

// --- Persistence -------------------------------------------------------------------

TEST(MemFsPersistTest, FormatRejectsTinyDevice) {
  BlockDevice dev(4);
  EXPECT_FALSE(MemFs::format(dev).ok());
}

TEST(MemFsPersistTest, RecoverEmptyFs) {
  BlockDevice dev(1024);
  {
    auto fs = MemFs::format(dev);
    ASSERT_TRUE(fs.ok());
  }
  auto rec = MemFs::recover(dev);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec.value().view() == FsAbsState{});
}

TEST(MemFsPersistTest, RecoverGarbageDeviceFails) {
  BlockDevice dev(64);
  std::vector<u8> junk(kSectorSize, 0x5A);
  (void)dev.write(0, junk);
  dev.flush();
  EXPECT_EQ(MemFs::recover(dev).error(), ErrorCode::kCorrupted);
}

TEST(MemFsPersistTest, CleanRemountPreservesEverything) {
  BlockDevice dev(4096);
  FsAbsState before;
  {
    auto fsr = MemFs::format(dev);
    ASSERT_TRUE(fsr.ok());
    MemFs fs = std::move(fsr.value());
    (void)fs.mkdir("/data");
    (void)fs.create("/data/a");
    (void)fs.write("/data/a", 0, bytes("payload-a"));
    (void)fs.create("/data/b");
    (void)fs.write("/data/b", 100, bytes("sparse"));
    (void)fs.rename("/data/b", "/data/b2");
    (void)fs.fsync();
    before = fs.view();
  }
  auto rec = MemFs::recover(dev);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec.value().view() == before);
}

TEST(MemFsPersistTest, UnsyncedDataMayVanishButFsDoesNotBreak) {
  BlockDevice dev(4096);
  auto fsr = MemFs::format(dev);
  ASSERT_TRUE(fsr.ok());
  MemFs fs = std::move(fsr.value());
  (void)fs.create("/a");
  (void)fs.fsync();
  (void)fs.create("/b");  // never fsynced
  dev.crash(0);           // adversarial: all unflushed sectors lost
  auto rec = MemFs::recover(dev);
  ASSERT_TRUE(rec.ok());
  FsAbsState v = rec.value().view();
  EXPECT_EQ(v.files.count("/a"), 1u);  // fsynced: must exist
  // "/b" may or may not exist; the fs itself must still operate.
  EXPECT_TRUE(rec.value().create("/c").ok());
}

class FsCrashSweep : public ::testing::TestWithParam<u64> {};

TEST_P(FsCrashSweep, RecoveredStateIsAnAcknowledgedPrefix) {
  u64 seed = GetParam();
  BlockDevice dev(8192, seed);
  auto fsr = MemFs::format(dev);
  ASSERT_TRUE(fsr.ok());
  MemFs fs = std::move(fsr.value());
  Rng rng(seed * 31);

  std::vector<FsAbsState> states{fs.view()};
  usize fsync_floor = 0;
  for (int i = 0; i < 80; ++i) {
    std::string path = "/f" + std::to_string(rng.next_below(6));
    switch (rng.next_below(3)) {
      case 0: (void)fs.create(path); break;
      case 1: {
        std::vector<u8> data(rng.next_range(1, 64), static_cast<u8>(i));
        (void)fs.write(path, rng.next_below(32), data);
        break;
      }
      case 2: (void)fs.unlink(path); break;
      default: break;
    }
    states.push_back(fs.view());
    if (rng.chance(1, 8)) {
      (void)fs.fsync();
      fsync_floor = states.size() - 1;
    }
  }
  dev.crash(400'000);
  auto rec = MemFs::recover(dev);
  ASSERT_TRUE(rec.ok());
  FsAbsState got = rec.value().view();
  isize found = -1;
  for (usize i = 0; i < states.size(); ++i) {
    if (states[i] == got) {
      found = static_cast<isize>(i);
    }
  }
  ASSERT_GE(found, 0) << "recovered state is not any acknowledged prefix";
  EXPECT_GE(found, static_cast<isize>(fsync_floor)) << "fsynced ops lost";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsCrashSweep, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(MemFsPersistTest, CompactionKeepsStateAndResetsJournal) {
  BlockDevice dev(2048);
  auto fsr = MemFs::format(dev);
  ASSERT_TRUE(fsr.ok());
  MemFs fs = std::move(fsr.value());
  (void)fs.create("/big");
  std::vector<u8> chunk(2048, 0xA5);
  u64 head_before = 0;
  bool compacted = false;
  for (int i = 0; i < 600 && !compacted; ++i) {
    ASSERT_TRUE(fs.write("/big", (i % 4) * chunk.size(), chunk).ok());
    if (fs.stats().checkpoints > 0) {
      compacted = true;
      head_before = fs.journal_head();
    }
  }
  ASSERT_TRUE(compacted) << "journal pressure insufficient";
  EXPECT_LT(head_before, dev.num_sectors() * kSectorSize);
  (void)fs.fsync();
  FsAbsState before = fs.view();
  auto rec = MemFs::recover(dev);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec.value().view() == before);
}

TEST(MemFsPersistTest, FailedCompactionChangesNothing) {
  // A record that does not fit in the rest of the journal first compacts the
  // pre-op state. When that compaction fails, the op fails and changes
  // nothing: no path, byte or inode number, no checkpoint and no record.
  BlockDevice dev(64, 0xC0FFEEull, "fstest/compactdev");
  auto fsr = MemFs::format(dev);
  ASSERT_TRUE(fsr.ok());
  MemFs fs = std::move(fsr.value());
  ASSERT_TRUE(fs.create("/f").ok());
  ASSERT_TRUE(fs.create("/g").ok());
  const std::vector<u8> chunk(1000, 0xA5);
  const u64 record_bytes = 1039;  // a 1000-byte write record to "/f", header included
  while (fs.journal_head() + record_bytes <= dev.num_sectors() * kSectorSize) {
    ASSERT_TRUE(fs.write("/f", 0, chunk).ok());
  }
  ASSERT_EQ(fs.stats().checkpoints, 0u);
  const FsAbsState before = fs.view();
  const u64 f_ino = fs.stat("/f").value().inode;
  const u64 g_ino = fs.stat("/g").value().inode;
  const u64 records = fs.stats().journal_records;

  auto& reg = FaultRegistry::global();
  FaultSpec one_shot;
  one_shot.probability_ppm = 1'000'000;
  one_shot.one_shot = true;
  reg.arm("fstest/compactdev/write_error", one_shot);
  const std::vector<u8> next(1000, 0x5A);
  EXPECT_EQ(fs.write("/g", 0, next).error(), ErrorCode::kIoError);
  reg.disarm_prefix("fstest/compactdev/");
  EXPECT_TRUE(fs.view() == before);
  EXPECT_EQ(fs.stat("/f").value().inode, f_ino);
  EXPECT_EQ(fs.stat("/g").value().inode, g_ino);
  EXPECT_EQ(fs.stats().checkpoints, 0u);
  EXPECT_EQ(fs.stats().journal_records, records);

  // Without the fault the same write compacts, appends its record to the
  // fresh journal, and survives recovery.
  ASSERT_EQ(fs.write("/g", 0, next).value(), next.size());
  EXPECT_EQ(fs.stats().checkpoints, 1u);
  EXPECT_EQ(fs.stats().journal_records, records + 1);
  ASSERT_TRUE(fs.fsync().ok());
  const FsAbsState after = fs.view();
  EXPECT_EQ(after.files.at("/g"), next);
  auto rec = MemFs::recover(dev);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec.value().view() == after);
}

TEST(MemFsPersistTest, RecordLargerThanTheJournalIsRefused) {
  // A record that would not fit even a fresh journal gets kNoSpace before
  // any compaction, and changes nothing.
  BlockDevice dev(64);
  auto fsr = MemFs::format(dev);
  ASSERT_TRUE(fsr.ok());
  MemFs fs = std::move(fsr.value());
  ASSERT_TRUE(fs.create("/f").ok());
  const FsAbsState before = fs.view();
  const std::vector<u8> whole_device(dev.num_sectors() * kSectorSize, 0x42);
  EXPECT_EQ(fs.write("/f", 0, whole_device).error(), ErrorCode::kNoSpace);
  EXPECT_TRUE(fs.view() == before);
  EXPECT_EQ(fs.stats().checkpoints, 0u);
  EXPECT_EQ(fs.stats().journal_records, 1u);
}

// --- Journal records ----------------------------------------------------------------

// A journal record of epoch 1 over `payload`: [u32 magic "JRNL"][u64 epoch]
// [u32 len][u32 crc][payload], where the crc is crc32c of [epoch][len] and
// then of the payload.
void expect_record(Reader& r, const std::vector<u8>& payload) {
  Writer covered;
  covered.put_u64(1);
  covered.put_u32(static_cast<u32>(payload.size()));
  covered.put_raw(payload);
  EXPECT_EQ(r.get_u32(), 0x4A524E4Cu);
  EXPECT_EQ(r.get_u64(), 1u);
  EXPECT_EQ(r.get_u32(), payload.size());
  EXPECT_EQ(r.get_u32(), crc32c(covered.bytes()));
  EXPECT_EQ(r.get_raw(payload.size()), payload);
}

// The payload of each mutation's journal record, byte for byte:
// [u8 opcode][fields], strings and bytes u32-length-prefixed, u64s
// little-endian, and the packed layout they go to the device in: a batch's
// records back to back, closed by a pad record (an all-zero payload) that
// runs to the end of the sector. Recovery reads disks written with this
// layout, so it must not drift.
TEST(FsRecordTest, EachMutationWritesItsPinnedPayload) {
  const std::vector<std::pair<FsMutation, std::vector<u8>>> cases = {
      {FsMkdir{"/d"}, {1, 2, 0, 0, 0, '/', 'd'}},
      {FsCreate{"/d/f"}, {3, 4, 0, 0, 0, '/', 'd', '/', 'f'}},
      {FsWrite{"/d/f", 2, {'x', 'y'}},
       {6, 4, 0, 0, 0, '/', 'd', '/', 'f', 2, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 'x', 'y'}},
      {FsTruncate{"/d/f", 1}, {7, 4, 0, 0, 0, '/', 'd', '/', 'f', 1, 0, 0, 0, 0, 0, 0, 0}},
      {FsRename{"/d/f", "/d/g"},
       {5, 4, 0, 0, 0, '/', 'd', '/', 'f', 4, 0, 0, 0, '/', 'd', '/', 'g'}},
      {FsUnlink{"/d/g"}, {4, 4, 0, 0, 0, '/', 'd', '/', 'g'}},
      {FsRmdir{"/d"}, {2, 2, 0, 0, 0, '/', 'd'}},
  };
  BlockDevice dev(64);
  auto fsr = MemFs::format(dev);
  ASSERT_TRUE(fsr.ok());
  MemFs fs = std::move(fsr.value());
  const u64 first = fs.journal_head() / kSectorSize;  // the journal's first sector
  ASSERT_EQ(fs.journal_head() % kSectorSize, 0u);
  for (const auto& [m, payload] : cases) {
    EXPECT_EQ(encode_fs_record(m), payload) << "opcode " << m.index() + 1;
    auto decoded = decode_fs_record(payload);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(encode_fs_record(*decoded), payload);
    ASSERT_TRUE(fs.commit(m).ok());
  }
  // The records wait in the journal's tail until the fsync writes it.
  std::vector<u8> raw(kSectorSize);
  ASSERT_TRUE(dev.read(first, raw).ok());
  EXPECT_EQ(raw, std::vector<u8>(kSectorSize, 0));
  ASSERT_TRUE(fs.fsync().ok());

  // One sector: the seven records back to back (229 bytes), then the pad.
  ASSERT_TRUE(dev.read(first, raw).ok());
  Reader r(raw);
  for (const auto& [m, payload] : cases) {
    expect_record(r, payload);
  }
  EXPECT_EQ(r.position(), 229u);
  expect_record(r, std::vector<u8>(kSectorSize - 229 - 20, 0));
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(fs.journal_head(), (first + 1) * kSectorSize);

  // A second batch starts on the next sector.
  ASSERT_TRUE(fs.mkdir("/e").ok());
  ASSERT_TRUE(fs.fsync().ok());
  ASSERT_TRUE(dev.read(first + 1, raw).ok());
  Reader second(raw);
  expect_record(second, {1, 2, 0, 0, 0, '/', 'e'});
  expect_record(second, std::vector<u8>(kSectorSize - 27 - 20, 0));
  EXPECT_TRUE(second.exhausted());
  EXPECT_EQ(fs.journal_head(), (first + 2) * kSectorSize);
  // A payload that is not exactly one record is refused.
  EXPECT_FALSE(decode_fs_record(std::vector<u8>{}).has_value());
  EXPECT_FALSE(decode_fs_record(std::vector<u8>{0, 0, 0, 0, 0}).has_value());
  EXPECT_FALSE(decode_fs_record(std::vector<u8>{8, 0, 0, 0, 0}).has_value());
  EXPECT_FALSE(decode_fs_record(std::vector<u8>{1, 2, 0, 0, 0, '/'}).has_value());
  EXPECT_FALSE(decode_fs_record(std::vector<u8>{1, 2, 0, 0, 0, '/', 'd', 0}).has_value());
}

// The skip rule: a record that leaves fewer than a header's 20 bytes in its
// sector is followed by zeros, and the next record starts on the next
// sector. A batch that ends exactly at a sector's end needs no pad, so its
// fsync writes nothing. Replay follows both.
TEST(FsRecordTest, SkipRuleAndExactFill) {
  BlockDevice dev(64);
  auto fsr = MemFs::format(dev);
  ASSERT_TRUE(fsr.ok());
  MemFs fs = std::move(fsr.value());
  const u64 first = fs.journal_head();
  // A write record to "/f" is 39 bytes plus its data.
  ASSERT_TRUE(fs.create("/f").ok());                             // 27 bytes
  ASSERT_TRUE(fs.write("/f", 0, std::vector<u8>(436, 1)).ok());  // 475: 10 left
  EXPECT_EQ(fs.journal_head(), first + kSectorSize);
  ASSERT_TRUE(fs.write("/f", 0, std::vector<u8>(473, 2)).ok());  // the whole next sector
  EXPECT_EQ(fs.journal_head(), first + 2 * kSectorSize);
  const u64 writes = dev.stats().writes;
  ASSERT_TRUE(fs.fsync().ok());
  EXPECT_EQ(dev.stats().writes, writes);
  std::vector<u8> raw(kSectorSize);
  ASSERT_TRUE(dev.read(first / kSectorSize, raw).ok());
  EXPECT_EQ(std::vector<u8>(raw.end() - 10, raw.end()), std::vector<u8>(10, 0));
  const FsAbsState before = fs.view();
  auto rec = MemFs::recover(dev);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec.value().view() == before);
}


// The superblock and a checkpoint keep their bytes. Sector 0 is [u64 magic]
// [u64 epoch][u8 checkpoint valid][u64 checkpoint sectors][u32 crc32c of
// the 25 bytes before it], zero-padded. A checkpoint starts at sector 1: a
// record header of the next epoch over [u32 dir count][dirs][u32 file count]
// [(path, bytes)...], in path order.
TEST(FsRecordTest, SuperblockAndCheckpointKeepTheirPinnedBytes) {
  BlockDevice dev(64);
  {
    auto fsr = MemFs::format(dev);
    ASSERT_TRUE(fsr.ok());
    MemFs fs = std::move(fsr.value());
    ASSERT_TRUE(fs.mkdir("/d").ok());
    ASSERT_TRUE(fs.mkdir("/d/e").ok());
    ASSERT_TRUE(fs.create("/d/f").ok());
    ASSERT_TRUE(fs.write("/d/f", 0, bytes("xy")).ok());
    ASSERT_TRUE(fs.create("/g").ok());
    ASSERT_TRUE(fs.fsync().ok());
  }
  auto superblock = [](u64 epoch, bool valid, u64 sectors) {
    Writer w;
    w.put_u64(0x766E'726F'7346'5321ull);
    w.put_u64(epoch);
    w.put_u8(valid ? 1 : 0);
    w.put_u64(sectors);
    w.put_u32(crc32c(w.bytes()));
    std::vector<u8> s = w.take();
    s.resize(kSectorSize, 0);
    return s;
  };
  std::vector<u8> sector(kSectorSize);
  ASSERT_TRUE(dev.read(0, sector).ok());
  EXPECT_EQ(sector, superblock(1, false, 0));

  ASSERT_TRUE(MemFs::recover(dev).ok());  // re-anchors under a checkpoint of epoch 2
  Writer state;
  state.put_u32(2);
  state.put_string("/d");
  state.put_string("/d/e");
  state.put_u32(2);
  state.put_string("/d/f");
  state.put_bytes(bytes("xy"));
  state.put_string("/g");
  state.put_bytes({});
  Writer ckpt;
  ckpt.put_u32(0x4A524E4C);
  ckpt.put_u64(2);
  ckpt.put_u32(static_cast<u32>(state.size()));
  ckpt.put_u32(crc32c(state.bytes()));
  ckpt.put_raw(state.bytes());
  std::vector<u8> expect = ckpt.take();
  expect.resize(kSectorSize, 0);
  ASSERT_TRUE(dev.read(1, sector).ok());
  EXPECT_EQ(sector, expect);
  ASSERT_TRUE(dev.read(0, sector).ok());
  EXPECT_EQ(sector, superblock(2, true, 1));
}

// --- NR-replicated filesystem ----------------------------------------------------

TEST(NrFsTest, BasicOpsThroughReplication) {
  Topology topo(4, 2);
  NrFs fs(topo);
  auto tok = fs.register_thread(0);
  ASSERT_TRUE(fs.commit(tok, FsMkdir{"/d"}).ok());
  ASSERT_TRUE(fs.commit(tok, FsCreate{"/d/f"}).ok());
  ASSERT_EQ(fs.commit(tok, FsWrite{"/d/f", 0, bytes("replicated")}).value(), 10u);
  auto r = fs.read(tok, "/d/f", 0, 64);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), bytes("replicated"));
  auto st = fs.stat(tok, "/d/f");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().size, 10u);
  auto names = fs.readdir(tok, "/d");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value(), std::vector<std::string>{"f"});
}

TEST(NrFsTest, CrossNodeVisibility) {
  Topology topo(4, 2);
  NrFs fs(topo);
  auto t0 = fs.register_thread(0);   // node 0
  auto t1 = fs.register_thread(2);   // node 1
  ASSERT_TRUE(fs.commit(t0, FsCreate{"/x"}).ok());
  ASSERT_EQ(fs.commit(t0, FsWrite{"/x", 0, bytes("cross")}).error(), ErrorCode::kOk);
  // The other node's replica must observe it on the next read.
  auto r = fs.read(t1, "/x", 0, 16);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), bytes("cross"));
}

TEST(NrFsTest, ErrorsReplicateIdentically) {
  Topology topo(2, 1);
  NrFs fs(topo);
  auto tok = fs.register_thread(0);
  EXPECT_EQ(fs.commit(tok, FsCreate{"/no/parent"}).error(), ErrorCode::kNotFound);
  EXPECT_EQ(fs.commit(tok, FsUnlink{"/missing"}).error(), ErrorCode::kNotFound);
  ASSERT_TRUE(fs.commit(tok, FsMkdir{"/d"}).ok());
  EXPECT_EQ(fs.commit(tok, FsMkdir{"/d"}).error(), ErrorCode::kAlreadyExists);
}

}  // namespace
}  // namespace vnros
