#include "src/obs/vcs.h"

#include <atomic>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/counter.h"
#include "src/obs/histogram.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace vnros {
namespace {

// Counter reads are monotone while writers only add: a sampler thread that
// repeatedly merges the shards must never observe the value decrease, and
// after all writers join the merge must equal the exact total.
VcOutcome check_counter_monotonic() {
  Counter& c = ObsRegistry::global().counter(
      ObsRegistry::global().instance_prefix("vc_ctr") + "monotonic");
  constexpr u32 kWriters = 4;
  constexpr u64 kAddsPerWriter = 20000;
  std::atomic<bool> stop{false};
  std::atomic<bool> violated{false};
  std::thread sampler([&] {
    u64 last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      u64 v = c.value();
      if (v < last) {
        violated.store(true, std::memory_order_relaxed);
        return;
      }
      last = v;
    }
  });
  std::vector<std::thread> writers;
  for (u32 w = 0; w < kWriters; ++w) {
    writers.emplace_back([&c, w] {
      for (u64 i = 0; i < kAddsPerWriter; ++i) {
        c.add_on(w, 1);
      }
    });
  }
  for (std::thread& t : writers) {
    t.join();
  }
  stop.store(true, std::memory_order_release);
  sampler.join();
  if (violated.load()) {
    return VcOutcome::fail("merged counter value decreased under concurrent adds");
  }
  u64 expect = kWriters * kAddsPerWriter;
  if (c.value() != expect) {
    std::ostringstream os;
    os << "after quiesce: value=" << c.value() << " expected=" << expect;
    return VcOutcome::fail(os.str());
  }
  return VcOutcome::pass();
}

// Per-core recording merges without loss or invention: add_on(core, d) from
// every core index (including aliased ones beyond the shard count) sums
// exactly.
VcOutcome check_counter_merge_exact() {
  Counter& c = ObsRegistry::global().counter(
      ObsRegistry::global().instance_prefix("vc_ctr") + "merge");
  u64 expect = 0;
  for (u32 core = 0; core < 2 * kCounterShards; ++core) {
    c.add_on(core, core + 1);
    expect += core + 1;
  }
  if (c.value() != expect) {
    std::ostringstream os;
    os << "merge: value=" << c.value() << " expected=" << expect;
    return VcOutcome::fail(os.str());
  }
  return VcOutcome::pass();
}

// bucket_of/bucket_lower_bound form a valid partition of u64: for every
// probed v, bucket_lower_bound(b) <= v < bucket_lower_bound(b+1) where
// b = bucket_of(v). Exhaustive over the small range, then every octave edge
// (2^k - 1, 2^k, 2^k + 1) up to the top bit.
VcOutcome check_histogram_bucket_boundaries() {
  auto probe = [](u64 v) -> const char* {
    u32 b = Histogram::bucket_of(v);
    if (b >= Histogram::kNumBuckets) {
      return "bucket index out of range";
    }
    if (Histogram::bucket_lower_bound(b) > v) {
      return "lower bound above value";
    }
    if (b + 1 < Histogram::kNumBuckets && v >= Histogram::bucket_lower_bound(b + 1)) {
      return "value at or above next bucket's lower bound";
    }
    return nullptr;
  };
  for (u64 v = 0; v < 65536; ++v) {
    if (const char* err = probe(v)) {
      std::ostringstream os;
      os << "v=" << v << ": " << err;
      return VcOutcome::fail(os.str());
    }
  }
  for (u32 k = 1; k < 64; ++k) {
    u64 edge = u64{1} << k;
    for (u64 v : {edge - 1, edge, edge + 1, edge + (edge >> 1), ~u64{0} >> (64 - k - 1)}) {
      if (const char* err = probe(v)) {
        std::ostringstream os;
        os << "v=" << v << ": " << err;
        return VcOutcome::fail(os.str());
      }
    }
  }
  // Buckets are lower-bound-monotone (the partition is ordered).
  for (u32 b = 1; b < Histogram::kNumBuckets; ++b) {
    if (Histogram::bucket_lower_bound(b) <= Histogram::bucket_lower_bound(b - 1)) {
      return VcOutcome::fail("bucket lower bounds not strictly increasing");
    }
  }
  return VcOutcome::pass();
}

// Conservation: concurrent per-core recording followed by a merge loses
// nothing — merged count equals recordings made, merged sum equals the exact
// arithmetic sum, and the bucket counts account for every recording.
VcOutcome check_histogram_conservation() {
  Histogram& h = ObsRegistry::global().histogram(
      ObsRegistry::global().instance_prefix("vc_hist") + "conservation");
  constexpr u32 kRecorders = 4;
  constexpr u64 kPerRecorder = 10000;
  std::vector<std::thread> recorders;
  for (u32 r = 0; r < kRecorders; ++r) {
    recorders.emplace_back([&h, r] {
      // Deterministic mixed-magnitude values: every octave gets traffic.
      u64 x = 0x9E3779B97F4A7C15ull * (r + 1);
      for (u64 i = 0; i < kPerRecorder; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        h.record_on(r, x >> (x % 64));
      }
    });
  }
  for (std::thread& t : recorders) {
    t.join();
  }
  HistogramSnapshot snap = h.snapshot();
  u64 expect_count = kRecorders * kPerRecorder;
  if (snap.count != expect_count) {
    std::ostringstream os;
    os << "count=" << snap.count << " expected=" << expect_count;
    return VcOutcome::fail(os.str());
  }
  // Recompute the exact sum sequentially with the same generator.
  u64 expect_sum = 0;
  for (u32 r = 0; r < kRecorders; ++r) {
    u64 x = 0x9E3779B97F4A7C15ull * (r + 1);
    for (u64 i = 0; i < kPerRecorder; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      expect_sum += x >> (x % 64);
    }
  }
  if (snap.sum != expect_sum) {
    std::ostringstream os;
    os << "sum=" << snap.sum << " expected=" << expect_sum;
    return VcOutcome::fail(os.str());
  }
  u64 bucket_total = 0;
  for (u64 b : snap.buckets) {
    bucket_total += b;
  }
  if (bucket_total != snap.count) {
    std::ostringstream os;
    os << "bucket total=" << bucket_total << " != count=" << snap.count;
    return VcOutcome::fail(os.str());
  }
  return VcOutcome::pass();
}

// Spans are well-nested: within one thread (one core), every span at depth
// d+1 recorded while a depth-d span was open is contained in it, and spans
// commit in LIFO order (inner end <= outer end, inner begin >= outer begin).
VcOutcome check_span_well_nested() {
  SpanTracer tracer;
  tracer.set_enabled(true);
  u32 outer = tracer.intern_site("vc/outer");
  u32 mid = tracer.intern_site("vc/mid");
  u32 inner = tracer.intern_site("vc/inner");
  VirtualClock clock;
  tracer.set_clock(&clock);
  for (u32 i = 0; i < 100; ++i) {
    SpanScope a(tracer, outer);
    clock.advance(1);
    {
      SpanScope b(tracer, mid);
      clock.advance(1);
      {
        SpanScope c(tracer, inner);
        clock.advance(1);
      }
      clock.advance(1);
    }
    clock.advance(1);
  }
  std::vector<SpanEvent> spans = tracer.spans();
  if (spans.size() != 300) {
    std::ostringstream os;
    os << "expected 300 spans, got " << spans.size();
    return VcOutcome::fail(os.str());
  }
  // Single-threaded, so commit order is inner-before-outer per iteration.
  for (usize i = 0; i < spans.size(); i += 3) {
    const SpanEvent& in = spans[i];
    const SpanEvent& md = spans[i + 1];
    const SpanEvent& out = spans[i + 2];
    if (in.site != inner || md.site != mid || out.site != outer) {
      return VcOutcome::fail("spans committed out of LIFO order");
    }
    if (in.depth != 2 || md.depth != 1 || out.depth != 0) {
      return VcOutcome::fail("nesting depth wrong");
    }
    bool contained = out.begin <= md.begin && md.begin <= in.begin &&
                     in.begin <= in.end && in.end <= md.end && md.end <= out.end;
    if (!contained) {
      return VcOutcome::fail("inner span not contained in outer span");
    }
  }
  return VcOutcome::pass();
}

// Per-core timestamp monotonicity: a core's shard receives spans in end-time
// order, and with the tracer on virtual time the recorded trace is a pure
// function of the clock sequence (replayable bit-identically from a seed).
VcOutcome check_span_timestamps_monotone() {
  auto run = [](std::vector<SpanEvent>& out) {
    SpanTracer tracer;
    tracer.set_enabled(true);
    VirtualClock clock;
    tracer.set_clock(&clock);
    u32 site = tracer.intern_site("vc/mono");
    for (u32 i = 0; i < 2000; ++i) {  // > kRingCapacity: exercise wraparound
      SpanScope s(tracer, site);
      clock.advance(1 + i % 3);
    }
    out = tracer.spans();
  };
  std::vector<SpanEvent> first;
  std::vector<SpanEvent> second;
  run(first);
  run(second);
  std::map<u32, u64> last_end;  // shard -> last end seen
  for (const SpanEvent& ev : first) {
    auto it = last_end.find(ev.shard);
    if (it != last_end.end() && ev.end < it->second) {
      return VcOutcome::fail("per-core end timestamps not monotone in ring order");
    }
    if (ev.begin > ev.end) {
      return VcOutcome::fail("span ends before it begins");
    }
    last_end[ev.shard] = ev.end;
  }
  if (first.size() != second.size()) {
    return VcOutcome::fail("replay produced a different number of spans");
  }
  for (usize i = 0; i < first.size(); ++i) {
    if (first[i].site != second[i].site || first[i].begin != second[i].begin ||
        first[i].end != second[i].end || first[i].depth != second[i].depth) {
      return VcOutcome::fail("replay on the same virtual-clock sequence diverged");
    }
  }
  return VcOutcome::pass();
}

// Registry lookups are stable: the same name always yields the same object
// (components may cache pointers), and counter/histogram namespaces never
// alias.
VcOutcome check_registry_stable() {
  ObsRegistry& reg = ObsRegistry::global();
  std::string prefix = reg.instance_prefix("vc_reg");
  Counter& a = reg.counter(prefix + "c");
  Counter& b = reg.counter(prefix + "c");
  if (&a != &b) {
    return VcOutcome::fail("counter lookup not stable");
  }
  Histogram& h1 = reg.histogram(prefix + "h");
  Histogram& h2 = reg.histogram(prefix + "h");
  if (&h1 != &h2) {
    return VcOutcome::fail("histogram lookup not stable");
  }
  std::string p1 = reg.instance_prefix("vc_reg2");
  std::string p2 = reg.instance_prefix("vc_reg2");
  if (p1 == p2) {
    return VcOutcome::fail("instance prefixes alias");
  }
  return VcOutcome::pass();
}

}  // namespace

void register_obs_vcs(VcRegistry& registry) {
  registry.add("obs/counter_monotonic", VcCategory::kConcurrency, check_counter_monotonic);
  registry.add("obs/counter_merge_exact", VcCategory::kSystemLibraries,
               check_counter_merge_exact);
  registry.add("obs/histogram_bucket_boundaries", VcCategory::kSystemLibraries,
               check_histogram_bucket_boundaries);
  registry.add("obs/histogram_conservation", VcCategory::kConcurrency,
               check_histogram_conservation);
  registry.add("obs/span_well_nested", VcCategory::kSystemLibraries, check_span_well_nested);
  registry.add("obs/span_timestamps_monotone", VcCategory::kSystemLibraries,
               check_span_timestamps_monotone);
  registry.add("obs/registry_lookup_stable", VcCategory::kSystemLibraries,
               check_registry_stable);
}

}  // namespace vnros
