// Log-linear latency/size histograms, sharded per core like Counter.
//
// Bucketing is HDR-style log-linear: values below kSub are exact (one bucket
// per value), and every octave above that is split into kSub equal-width
// sub-buckets, so relative error is bounded by 1/kSub across the full u64
// range. bucket_of/bucket_lower_bound are pure functions; the
// obs/histogram_bucket_boundaries VC checks bucket_lower_bound(b) <= v <
// bucket_lower_bound(b+1) exhaustively over the small range and at every
// octave edge.
//
// Recording touches one shard (relaxed adds to a bucket cell plus the
// shard's exact count/sum), and snapshot() merges shards with relaxed
// loads. Count/sum conservation across concurrent per-core recording and
// merge is the obs/histogram_conservation VC.
#ifndef VNROS_SRC_OBS_HISTOGRAM_H_
#define VNROS_SRC_OBS_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <bit>
#include <string>

#include "src/base/types.h"
#include "src/obs/counter.h"

namespace vnros {

// Histograms are fatter than counters (kNumBuckets cells per shard), and
// their record sites are batch-grained rather than per-op, so fewer shards.
inline constexpr u32 kHistogramShards = 8;

struct HistogramSnapshot;

class Histogram {
 public:
  static constexpr u32 kSubBits = 2;
  static constexpr u32 kSub = 1u << kSubBits;  // sub-buckets per octave
  static constexpr u32 kNumBuckets = kSub + (64 - kSubBits) * kSub;

  // Bucket index holding `v`. Values in [0, kSub) map one-to-one; above
  // that, the octave of the MSB selects a group and the kSubBits bits below
  // the MSB select the sub-bucket.
  static u32 bucket_of(u64 v) {
    if (v < kSub) {
      return static_cast<u32>(v);
    }
    u32 msb = 63 - static_cast<u32>(std::countl_zero(v));
    u32 shift = msb - kSubBits;
    u32 sub = static_cast<u32>((v >> shift) & (kSub - 1));
    return kSub + shift * kSub + sub;
  }

  // Smallest value mapping to bucket `b`; bucket b covers
  // [bucket_lower_bound(b), bucket_lower_bound(b + 1)). The one-past-the-end
  // bound (b == kNumBuckets) saturates to u64 max.
  static u64 bucket_lower_bound(u32 b) {
    if (b < kSub) {
      return b;
    }
    if (b >= kNumBuckets) {
      return ~u64{0};
    }
    u32 shift = (b - kSub) / kSub;
    u32 sub = (b - kSub) % kSub;
    return (u64{kSub} + sub) << shift;
  }

  void record(u64 v) { record_on(obs_this_shard(), v); }

  void record_on(u32 core, u64 v) {
    Shard& s = shards_[core % kHistogramShards];
    s.buckets[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
  }

  HistogramSnapshot snapshot() const;

  const std::string& name() const { return name_; }

 private:
  friend class ObsRegistry;
  explicit Histogram(std::string name) : name_(std::move(name)) {}

  struct alignas(64) Shard {
    std::array<std::atomic<u64>, kNumBuckets> buckets{};
    std::atomic<u64> count{0};
    std::atomic<u64> sum{0};  // exact sum, not reconstructed from buckets
  };

  const std::string name_;
  std::array<Shard, kHistogramShards> shards_;
};

// Merged view of a histogram at one instant. count and sum are exact (each
// shard keeps them alongside its buckets); percentiles are bucket-granular.
struct HistogramSnapshot {
  u64 count = 0;
  u64 sum = 0;
  std::array<u64, Histogram::kNumBuckets> buckets{};

  u64 mean() const { return count == 0 ? 0 : sum / count; }

  // Adds `other` bucket by bucket: the snapshot of both histograms' records.
  void merge(const HistogramSnapshot& other);

  // Lower bound of the bucket containing the p-th percentile (p in [0,100]).
  u64 percentile(double p) const;
};

}  // namespace vnros

#endif  // VNROS_SRC_OBS_HISTOGRAM_H_
