// Unit tests for the observability substrate (src/obs): counter sharding and
// merge, histogram bucket geometry and conservation, span tracing, registry
// lookup, and the kstat syscall surface. The deeper concurrency properties
// live in the obs/* VCs (src/obs/obs_vcs.cc); these tests pin the directed
// edge cases.
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/kernel/kernel.h"
#include "src/kernel/syscall.h"
#include "src/obs/registry.h"

namespace vnros {
namespace {

TEST(CounterTest, MergesAcrossCores) {
  Counter& c = ObsRegistry::global().counter(ObsRegistry::global().instance_prefix("t") +
                                             "merge");
  for (u32 core = 0; core < 2 * kCounterShards; ++core) {
    c.add_on(core, core + 1);
  }
  if constexpr (kMetricsEnabled) {
    u64 expect = 0;
    for (u32 core = 0; core < 2 * kCounterShards; ++core) {
      expect += core + 1;
    }
    EXPECT_EQ(c.value(), expect);
  } else {
    EXPECT_EQ(c.value(), 0u);
  }
}

TEST(CounterTest, ConcurrentAddsConserveTotal) {
  Counter& c = ObsRegistry::global().counter(ObsRegistry::global().instance_prefix("t") +
                                             "conc");
  constexpr int kThreads = 4;
  constexpr u64 kPerThread = 50000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (u64 i = 0; i < kPerThread; ++i) {
        c.inc();
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(c.value(), kMetricsEnabled ? kThreads * kPerThread : 0u);
}

TEST(HistogramTest, BucketBoundaries) {
  if constexpr (!kMetricsEnabled) {
    GTEST_SKIP() << "metrics compiled out";
  }
  // Sub-linear region: one bucket per value below kSub.
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(3), 3u);
  // Every value lands in a bucket whose [lower, next-lower) range contains it.
  for (u64 v : std::vector<u64>{4, 5, 7, 8, 100, 1023, 1024, u64{1} << 32,
                                ~u64{0} >> 1, ~u64{0}}) {
    u32 b = Histogram::bucket_of(v);
    ASSERT_LT(b, Histogram::kNumBuckets);
    EXPECT_GE(v, Histogram::bucket_lower_bound(b)) << v;
    if (b + 1 < Histogram::kNumBuckets) {
      EXPECT_LT(v, Histogram::bucket_lower_bound(b + 1)) << v;
    }
  }
}

TEST(HistogramTest, SnapshotConservesCountAndSum) {
  Histogram& h = ObsRegistry::global().histogram(ObsRegistry::global().instance_prefix("t") +
                                                 "conserve");
  u64 expect_count = 0;
  u64 expect_sum = 0;
  for (u32 core = 0; core < 2 * kHistogramShards; ++core) {
    h.record_on(core, core * 37 + 1);
    ++expect_count;
    expect_sum += core * 37 + 1;
  }
  HistogramSnapshot snap = h.snapshot();
  if constexpr (kMetricsEnabled) {
    EXPECT_EQ(snap.count, expect_count);
    EXPECT_EQ(snap.sum, expect_sum);
    u64 bucket_total = 0;
    for (u64 b : snap.buckets) {
      bucket_total += b;
    }
    EXPECT_EQ(bucket_total, expect_count);
    EXPECT_GT(snap.percentile(50.0), 0u);
  } else {
    EXPECT_EQ(snap.count, 0u);
  }
}

TEST(SpanTracerTest, NestedScopesCommitInnerFirst) {
  if constexpr (!kMetricsEnabled) {
    GTEST_SKIP() << "metrics compiled out";
  }
  SpanTracer& tracer = ObsRegistry::global().tracer();
  tracer.clear();
  tracer.set_enabled(true);
  u32 outer = tracer.intern_site("test/outer");
  u32 inner = tracer.intern_site("test/inner");
  {
    SpanScope a(tracer, outer);
    SpanScope b(tracer, inner);
  }
  tracer.set_enabled(false);
  std::vector<SpanEvent> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  // Inner commits first (RAII unwind order), nests strictly inside outer.
  EXPECT_EQ(spans[0].site, inner);
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].site, outer);
  EXPECT_EQ(spans[1].depth, 0u);
  EXPECT_LT(spans[1].begin, spans[0].begin);
  EXPECT_LT(spans[0].end, spans[1].end);
  EXPECT_EQ(tracer.site_name(inner), "test/inner");
  tracer.clear();
}

TEST(SpanTracerTest, DisarmedScopesRecordNothing) {
  SpanTracer& tracer = ObsRegistry::global().tracer();
  tracer.clear();
  ASSERT_FALSE(tracer.enabled());
  u32 site = tracer.intern_site("test/disarmed");
  u64 before = tracer.recorded();
  {
    SpanScope a(tracer, site);
  }
  tracer.point(site);
  EXPECT_EQ(tracer.recorded(), before);
}

TEST(ObsRegistryTest, LookupIsStableAndPrefixed) {
  auto& reg = ObsRegistry::global();
  Counter& a = reg.counter("test/lookup_stable");
  Counter& b = reg.counter("test/lookup_stable");
  EXPECT_EQ(&a, &b);
  // Distinct instance prefixes give distinct (fresh) counters.
  std::string p1 = reg.instance_prefix("lk");
  std::string p2 = reg.instance_prefix("lk");
  EXPECT_NE(p1, p2);
  EXPECT_NE(&reg.counter(p1 + "x"), &reg.counter(p2 + "x"));
  // The JSON export is well-formed enough to contain what we created.
  std::string json = reg.json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("test/lookup_stable"), std::string::npos);
}

// json() writes one entry per metric family: each instance's counter folds
// into "<kind>/<name>" with its sum, max and instance count, and histograms
// merge bucket by bucket. A name whose prefix instance_prefix() never
// issued is its own family.
TEST(ObsRegistryTest, JsonRollsUpInstancesPerFamily) {
  auto& reg = ObsRegistry::global();
  std::string p0 = reg.instance_prefix("famtest");
  std::string p1 = reg.instance_prefix("famtest");
  reg.counter(p0 + "ops").add(3);
  reg.counter(p1 + "ops").add(5);
  reg.counter("famtest7/ops").add(11);  // only instances 0 and 1 were issued
  reg.counter("famtest01/ops").add(2);  // ids print without leading zeros
  reg.histogram(p0 + "lat").record(1);
  reg.histogram(p1 + "lat").record(1);
  reg.histogram(p1 + "lat").record(100);

  std::string json = reg.json();
  auto entry = [&](const std::string& family) {
    usize at = json.find("\"" + family + "\":{");
    return at == std::string::npos ? std::string() : json.substr(at, json.find('}', at) - at + 1);
  };
  const u64 on = kMetricsEnabled ? 1 : 0;
  EXPECT_EQ(entry("famtest/ops"), "\"famtest/ops\":{\"sum\":" + std::to_string(8 * on) +
                                      ",\"max\":" + std::to_string(5 * on) +
                                      ",\"instances\":2}");
  EXPECT_EQ(entry("famtest7/ops"), "\"famtest7/ops\":{\"sum\":" + std::to_string(11 * on) +
                                       ",\"max\":" + std::to_string(11 * on) +
                                       ",\"instances\":1}");
  EXPECT_NE(entry("famtest01/ops"), "");
  std::string lat = entry("famtest/lat");
  EXPECT_NE(lat.find("\"count\":" + std::to_string(3 * on) + ",\"sum\":" +
                     std::to_string(102 * on) + ","),
            std::string::npos)
      << lat;
  EXPECT_NE(lat.find("\"instances\":2}"), std::string::npos) << lat;
  EXPECT_EQ(json.find(p0), std::string::npos);
  EXPECT_EQ(json.find(p1), std::string::npos);
}

TEST(KstatTest, ReadsKernelCountersThroughSyscall) {
  Kernel kernel;
  SyscallDispatcher disp(kernel);
  Sys boot(disp, kInvalidPid, 0);
  auto pid = boot.spawn();
  ASSERT_TRUE(pid.ok());
  Sys sys(disp, pid.value(), 0);

  auto names = sys.kstat_list();
  ASSERT_TRUE(names.ok());
  EXPECT_FALSE(names.value().empty());
  for (const auto& name : names.value()) {
    EXPECT_TRUE(sys.kstat(name).ok()) << name;
  }
  EXPECT_EQ(sys.kstat("bogus/name").error(), ErrorCode::kNotFound);

  if constexpr (kMetricsEnabled) {
    auto pre = sys.kstat("fs/fsyncs");
    ASSERT_TRUE(pre.ok());
    ASSERT_TRUE(sys.fsync().ok());
    auto post = sys.kstat("fs/fsyncs");
    ASSERT_TRUE(post.ok());
    EXPECT_GE(post.value(), pre.value() + 1);
  }
}

TEST(KstatTest, NameTableIsTheAbi) {
  // The kstat name list IS the contract surface (kernel.h): every name an
  // application may have shipped against must keep resolving. This test is
  // the tripwire — removing or renaming an entry below is an ABI break and
  // must be a deliberate, documented decision, not a refactor side effect.
  Kernel kernel;
  const char* kAbi[] = {
      // Present since the original 17-name table, less the five names that
      // left with the retired datagram-era stream transport.
      "fs/journal_records", "fs/journal_bytes", "fs/checkpoints", "fs/fsyncs",
      "tlb/shootdowns", "tlb/ipis", "tlb/batched_pages", "tlb/full_flushes",
      "frames/allocations", "frames/frees", "frames/remote_fallbacks", "frames/injected_oom",
      // Added with the SysRing syscalls (async submission/completion queues).
      "ring/submitted", "ring/completed", "ring/sq_full", "ring/cq_depth_p99",
      // Added with the VTP stream transport.
      "vtp/conns_active", "vtp/retransmits", "vtp/cwnd_halvings", "vtp/accept_queue_p99"};
  auto names = kernel.kstat_names();
  for (const char* name : kAbi) {
    EXPECT_TRUE(kernel.kstat(name).ok()) << "kstat ABI name missing: " << name;
  }
  EXPECT_EQ(names.size(), std::size(kAbi)) << "kstat table grew/shrank: update the ABI list";
}

TEST(KstatTest, RingCountersTrackSubmissionAndCompletion) {
  if constexpr (!kMetricsEnabled) {
    GTEST_SKIP() << "counters compiled out";
  }
  Kernel kernel;
  SyscallDispatcher disp(kernel);
  Sys boot(disp, kInvalidPid, 0);
  auto pid = boot.spawn();
  ASSERT_TRUE(pid.ok());
  Sys sys(disp, pid.value(), 0);

  u64 sub0 = sys.kstat("ring/submitted").value();
  u64 comp0 = sys.kstat("ring/completed").value();
  auto ring = sys.ring_setup(8, 8);
  ASSERT_TRUE(ring.ok());
  auto fd = sys.open("/k", kOpenCreate);
  ASSERT_TRUE(fd.ok());
  std::vector<u8> body = {'a', 'b'};
  std::vector<RingSqe> batch = {
      ring_sqe<SysNr::kWrite>(1, fd.value(), body), ring_sqe<SysNr::kFsync>(2)};
  ASSERT_EQ(sys.ring_submit(ring.value(), batch).value(), 2u);
  ASSERT_EQ(sys.ring_wait(ring.value(), 0, 4).value().size(), 2u);
  EXPECT_EQ(sys.kstat("ring/submitted").value(), sub0 + 2);
  EXPECT_EQ(sys.kstat("ring/completed").value(), comp0 + 2);
}

}  // namespace
}  // namespace vnros
