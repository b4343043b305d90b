// Unit tests for src/base: types, Result, contracts, RNG, CRC, serde, faults.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/base/contracts.h"
#include "src/base/crc.h"
#include "src/base/fault.h"
#include "src/base/result.h"
#include "src/base/rng.h"
#include "src/base/serde.h"
#include "src/base/types.h"

namespace vnros {
namespace {

// --- Address types -----------------------------------------------------------

TEST(VAddrTest, Alignment) {
  EXPECT_TRUE(VAddr{0}.is_page_aligned());
  EXPECT_TRUE(VAddr{kPageSize}.is_page_aligned());
  EXPECT_FALSE(VAddr{kPageSize + 1}.is_page_aligned());
  EXPECT_TRUE(VAddr{3 * kLargePageSize}.is_aligned(kLargePageSize));
  EXPECT_FALSE(VAddr{kLargePageSize + kPageSize}.is_aligned(kLargePageSize));
}

TEST(VAddrTest, Canonical) {
  EXPECT_TRUE(VAddr{0}.is_canonical());
  EXPECT_TRUE(VAddr{kMaxVaddrExclusive - 1}.is_canonical());
  EXPECT_FALSE(VAddr{kMaxVaddrExclusive}.is_canonical());
}

TEST(VAddrTest, PageDecomposition) {
  VAddr va{5 * kPageSize + 123};
  EXPECT_EQ(va.page_base().value, 5 * kPageSize);
  EXPECT_EQ(va.page_offset(), 123u);
  EXPECT_EQ(va.page_base().offset(va.page_offset()), va);
}

TEST(PAddrTest, FrameNumbers) {
  EXPECT_EQ(PAddr::from_frame(7).value, 7 * kPageSize);
  EXPECT_EQ(PAddr{7 * kPageSize + 9}.frame_number(), 7u);
  EXPECT_EQ(PAddr{7 * kPageSize + 9}.page_base(), PAddr::from_frame(7));
}

TEST(TypesTest, VAddrAndPAddrDoNotCompare) {
  // Strong typing: this is a compile-time property; assert hashability here.
  std::hash<VAddr> hv;
  std::hash<PAddr> hp;
  EXPECT_EQ(hv(VAddr{42}), hv(VAddr{42}));
  EXPECT_EQ(hp(PAddr{42}), hp(PAddr{42}));
}

// --- Result -------------------------------------------------------------------

TEST(ResultTest, OkCarriesValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.error(), ErrorCode::kOk);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, ErrorCarriesCode) {
  Result<int> r(ErrorCode::kNotFound);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), ErrorCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, ErrorNamesUnique) {
  // Every code has a distinct, non-"Unknown" name (log greppability).
  std::set<std::string> names;
  for (u32 c = 0; c <= static_cast<u32>(ErrorCode::kUnsupported); ++c) {
    std::string n = error_name(static_cast<ErrorCode>(c));
    EXPECT_NE(n, "Unknown") << c;
    EXPECT_TRUE(names.insert(n).second) << "duplicate error name " << n;
  }
}

// --- Contracts ------------------------------------------------------------------

TEST(ContractsTest, DisabledByDefaultCostsNothing) {
  ASSERT_FALSE(contracts_enabled());
  u64 before = contracts_checked_count();
  VNROS_REQUIRES(1 + 1 == 3);  // would abort if evaluated
  EXPECT_EQ(contracts_checked_count(), before);
}

TEST(ContractsTest, ScopedEnableRestores) {
  {
    ScopedContracts on;
    EXPECT_TRUE(contracts_enabled());
    u64 before = contracts_checked_count();
    VNROS_ENSURES(2 + 2 == 4);
    EXPECT_EQ(contracts_checked_count(), before + 1);
    {
      ScopedContracts off(false);
      EXPECT_FALSE(contracts_enabled());
    }
    EXPECT_TRUE(contracts_enabled());
  }
  EXPECT_FALSE(contracts_enabled());
}

TEST(ContractsDeathTest, ViolationAborts) {
  ScopedContracts on;
  EXPECT_DEATH({ VNROS_REQUIRES(false); }, "requires clause violated");
}

TEST(ContractsDeathTest, CheckIsUnconditional) {
  ASSERT_FALSE(contracts_enabled());
  EXPECT_DEATH({ VNROS_CHECK(false); }, "check clause violated");
}

// --- RNG ---------------------------------------------------------------------------

TEST(RngTest, RangeInclusive) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    u64 v = rng.next_range(10, 12);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 12u);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0, 10));
    EXPECT_TRUE(rng.chance(10, 10));
    EXPECT_FALSE(rng.chance_ppm(0));
    EXPECT_TRUE(rng.chance_ppm(1'000'000));
  }
}

TEST(RngTest, UnitDoubleInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_unit_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// Parameterized sweep: next_below is uniform enough that each bucket of a
// small modulus gets hit (smoke-level chi check).
class RngBucketTest : public ::testing::TestWithParam<u64> {};

TEST_P(RngBucketTest, AllBucketsHit) {
  u64 buckets = GetParam();
  Rng rng(buckets * 77);
  std::vector<u32> hits(buckets, 0);
  for (u64 i = 0; i < buckets * 200; ++i) {
    ++hits[rng.next_below(buckets)];
  }
  for (u64 b = 0; b < buckets; ++b) {
    EXPECT_GT(hits[b], 0u) << "bucket " << b << " never hit";
  }
}

INSTANTIATE_TEST_SUITE_P(Buckets, RngBucketTest, ::testing::Values(2, 3, 7, 16, 100));

// --- CRC ------------------------------------------------------------------------------

TEST(CrcTest, EmptyIsZero) {
  EXPECT_EQ(crc32c({}), 0u);
}

TEST(CrcTest, SingleBitChangesCrc) {
  std::vector<u8> a(100, 0x55);
  std::vector<u8> b = a;
  b[50] ^= 0x01;
  EXPECT_NE(crc32c(a), crc32c(b));
}

TEST(CrcTest, IncrementalMatchesOneShot) {
  std::vector<u8> data(1000);
  Rng rng(9);
  for (auto& c : data) {
    c = static_cast<u8>(rng.next_u64());
  }
  // Both the dispatched path and the table reference chain to the one-shot
  // reference value.
  const u32 whole = crc32c_reference(data);
  EXPECT_EQ(crc32c(data), whole);
  for (usize split : {usize{0}, usize{1}, usize{500}, usize{999}, usize{1000}}) {
    std::span<const u8> head(data.data(), split);
    std::span<const u8> tail(data.data() + split, data.size() - split);
    EXPECT_EQ(crc32c(tail, crc32c(head)), whole) << "split at " << split;
    EXPECT_EQ(crc32c_reference(tail, crc32c_reference(head)), whole) << "split at " << split;
  }
}

// --- Serde ------------------------------------------------------------------------------

TEST(SerdeTest, EmptyReaderIsExhausted) {
  Reader r({});
  EXPECT_TRUE(r.exhausted());
  EXPECT_FALSE(r.get_u8().has_value());
  EXPECT_FALSE(r.get_u64().has_value());
  EXPECT_FALSE(r.get_bytes().has_value());
}

TEST(SerdeTest, LengthPrefixedBytesRejectOverrun) {
  Writer w;
  w.put_u32(100);  // claims 100 bytes follow
  w.put_u8(1);     // ...but only one does
  Reader r(w.bytes());
  EXPECT_FALSE(r.get_bytes().has_value());
}

TEST(SerdeTest, LittleEndianLayout) {
  Writer w;
  w.put_u32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.bytes()[0], 0x04);
  EXPECT_EQ(w.bytes()[3], 0x01);
}

TEST(SerdeTest, PositionTracking) {
  Writer w;
  w.put_u16(7);
  w.put_string("ab");
  Reader r(w.bytes());
  EXPECT_EQ(r.remaining(), w.size());
  (void)r.get_u16();
  EXPECT_EQ(r.position(), 2u);
  (void)r.get_string();
  EXPECT_TRUE(r.exhausted());
}

TEST(SerdeTest, RawRoundTrip) {
  Writer w;
  std::vector<u8> raw{1, 2, 3, 4};
  w.put_raw(raw);
  Reader r(w.bytes());
  auto back = r.get_raw(4);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, raw);
  EXPECT_FALSE(r.get_raw(1).has_value());
}

// --- Fault registry ----------------------------------------------------------

TEST(FaultTest, UnarmedSiteNeverFires) {
  auto& reg = FaultRegistry::global();
  auto& site = reg.site("test/unarmed");
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(site.fire().has_value());
  }
  EXPECT_FALSE(site.armed());
}

TEST(FaultTest, OneShotFiresExactlyOnceThenDisarms) {
  auto& reg = FaultRegistry::global();
  FaultSpec spec;
  spec.probability_ppm = 1'000'000;
  spec.one_shot = true;
  spec.error = ErrorCode::kNoMemory;
  reg.arm("test/oneshot", spec);
  auto& site = reg.site("test/oneshot");
  auto first = site.fire();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, ErrorCode::kNoMemory);
  EXPECT_FALSE(site.armed());
  EXPECT_FALSE(site.fire().has_value());
  EXPECT_EQ(site.stats().fires, 1u);
}

TEST(FaultTest, NthCallFiresOnExactlyThatCall) {
  auto& reg = FaultRegistry::global();
  FaultSpec spec;
  spec.nth_call = 3;
  reg.arm("test/nth", spec);
  auto& site = reg.site("test/nth");
  EXPECT_FALSE(site.fire().has_value());
  EXPECT_FALSE(site.fire().has_value());
  auto third = site.fire();
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(*third, ErrorCode::kIoError);
  // nth_call schedules auto-disarm after firing.
  EXPECT_FALSE(site.fire().has_value());
}

TEST(FaultTest, ProbabilisticScheduleReplaysFromSeed) {
  auto& reg = FaultRegistry::global();
  FaultSpec spec;
  spec.probability_ppm = 400'000;
  auto run = [&] {
    reg.reseed(0xD5);
    reg.arm("test/prob", spec);
    auto& site = reg.site("test/prob");
    std::string bits;
    for (int i = 0; i < 64; ++i) {
      bits.push_back(site.fire() ? 'x' : '.');
    }
    reg.disarm("test/prob");
    return bits;
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultTest, DelaySiteStallsOnceThenRunsFullSpeed) {
  auto& reg = FaultRegistry::global();
  FaultSpec spec;
  spec.probability_ppm = 1'000'000;
  spec.one_shot = true;
  spec.delay = 7;
  reg.arm("test/delay", spec);
  auto& site = reg.site("test/delay");
  auto stall = site.fire_delay();
  ASSERT_TRUE(stall.has_value());
  EXPECT_EQ(*stall, 7u);
  EXPECT_FALSE(site.armed());  // one_shot consumed the schedule
  EXPECT_FALSE(site.fire_delay().has_value());
  EXPECT_EQ(site.stats().fires, 1u);
}

TEST(FaultTest, ZeroDelaySpecNeverStallsButStillErrors) {
  auto& reg = FaultRegistry::global();
  FaultSpec spec;
  spec.probability_ppm = 1'000'000;
  spec.delay = 0;  // an error schedule, not a latency schedule
  reg.arm("test/delay0", spec);
  auto& site = reg.site("test/delay0");
  EXPECT_FALSE(site.fire_delay().has_value());
  EXPECT_TRUE(site.fire().has_value());
  reg.disarm("test/delay0");
}

TEST(FaultTest, DisarmPrefixOnlyHitsMatchingSites) {
  auto& reg = FaultRegistry::global();
  FaultSpec spec;
  spec.probability_ppm = 1'000'000;
  reg.arm("test/prefix/a", spec);
  reg.arm("test/prefix/b", spec);
  reg.arm("test/other", spec);
  EXPECT_EQ(reg.disarm_prefix("test/prefix/"), 2u);
  EXPECT_FALSE(reg.site("test/prefix/a").armed());
  EXPECT_FALSE(reg.site("test/prefix/b").armed());
  EXPECT_TRUE(reg.site("test/other").armed());
  reg.disarm_all();
  EXPECT_FALSE(reg.site("test/other").armed());
}

TEST(FaultTest, StatsCountEvaluationsAndFires) {
  auto& reg = FaultRegistry::global();
  reg.disarm_all();
  reg.reset_stats();
  FaultSpec spec;
  spec.probability_ppm = 1'000'000;
  reg.arm("test/stats", spec);
  auto& site = reg.site("test/stats");
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(site.fire().has_value());
  }
  EXPECT_EQ(site.stats().evaluations, 5u);
  EXPECT_EQ(site.stats().fires, 5u);
  EXPECT_GE(reg.total_fires(), 5u);
  reg.disarm_all();
}

// --- Schedule composition on one site --------------------------------------
// The chaos harness re-arms the same site with different schedules over a
// run (a ppm storm, then a one-shot, then a counted fault). These pin the
// composition semantics that replay depends on.

TEST(FaultTest, NthTriggerWinsOverPpmOnTheSameSpec) {
  auto& reg = FaultRegistry::global();
  reg.disarm_all();
  FaultSpec spec;
  spec.nth_call = 3;
  spec.probability_ppm = 1'000'000;  // would fire every call if consulted
  reg.arm("test/compose_nth", spec);
  auto& site = reg.site("test/compose_nth");
  // Exactly one trigger is consulted: a nonzero nth_call makes the schedule
  // deterministic-count, the ppm is ignored.
  EXPECT_FALSE(site.fire().has_value());
  EXPECT_FALSE(site.fire().has_value());
  EXPECT_TRUE(site.fire().has_value());
  EXPECT_FALSE(site.armed());
  reg.disarm_all();
}

TEST(FaultTest, RearmResetsTheCallCounter) {
  auto& reg = FaultRegistry::global();
  reg.disarm_all();
  FaultSpec spec;
  spec.nth_call = 2;
  reg.arm("test/compose_rearm", spec);
  auto& site = reg.site("test/compose_rearm");
  EXPECT_FALSE(site.fire().has_value());  // call 1 of the first schedule
  reg.arm("test/compose_rearm", spec);    // re-arm mid-schedule
  // The counter restarts with the new schedule: the next call is call 1
  // again, so the fire lands exactly one call later than it would have.
  EXPECT_FALSE(site.fire().has_value());
  EXPECT_TRUE(site.fire().has_value());
  reg.disarm_all();
}

TEST(FaultTest, ComposedSchedulesReplayAcrossRearms) {
  auto& reg = FaultRegistry::global();
  reg.disarm_all();
  // A chaos-style composition on ONE site: a probabilistic storm, then a
  // guaranteed one-shot, then a counted fault. The whole composition must
  // replay bit-identically from the registry seed across the re-arms.
  auto run = [&] {
    reg.reseed(0xC0'FFEE);
    auto& site = reg.site("test/compose_replay");
    std::string pattern;
    FaultSpec storm;
    storm.probability_ppm = 400'000;
    reg.arm("test/compose_replay", storm);
    for (int i = 0; i < 24; ++i) {
      pattern.push_back(site.fire() ? 'x' : '.');
    }
    FaultSpec once;
    once.probability_ppm = 1'000'000;
    once.one_shot = true;
    reg.arm("test/compose_replay", once);
    for (int i = 0; i < 4; ++i) {
      pattern.push_back(site.fire() ? 'x' : '.');
    }
    FaultSpec counted;
    counted.nth_call = 3;
    reg.arm("test/compose_replay", counted);
    for (int i = 0; i < 4; ++i) {
      pattern.push_back(site.fire() ? 'x' : '.');
    }
    reg.disarm("test/compose_replay");
    return pattern;
  };
  std::string first = run();
  EXPECT_EQ(first, run());
  // The deterministic tail is schedule-defined: the one-shot fires on its
  // first call, the counted fault on its third.
  EXPECT_EQ(first.substr(24), "x.....x.");
  reg.disarm_all();
}

TEST(FaultTest, CorruptScheduleFlipsBytesExactlyOnce) {
  auto& reg = FaultRegistry::global();
  reg.disarm_all();
  FaultSpec rot;
  rot.probability_ppm = 1'000'000;
  rot.one_shot = true;
  rot.corrupt_bytes = 5;
  reg.arm("test/compose_rot", rot);
  auto& site = reg.site("test/compose_rot");
  auto flipped = site.fire_corrupt();
  ASSERT_TRUE(flipped.has_value());
  EXPECT_EQ(*flipped, 5u);
  EXPECT_FALSE(site.armed());
  EXPECT_FALSE(site.fire_corrupt().has_value());
  // An error schedule is not a corruption schedule: corrupt_bytes == 0
  // never silently corrupts even while fire() injects errors.
  FaultSpec err;
  err.probability_ppm = 1'000'000;
  reg.arm("test/compose_rot", err);
  EXPECT_FALSE(site.fire_corrupt().has_value());
  EXPECT_TRUE(site.fire().has_value());
  reg.disarm_all();
}

}  // namespace
}  // namespace vnros
