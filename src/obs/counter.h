// Per-core monotone counters (the observability substrate's scalar type).
//
// A Counter is a set of cache-line-padded shards, one per core (hashed down
// when the machine has more cores than shards). Writers touch only their own
// shard with one relaxed fetch_add — the same verify-concurrency-once shape
// as the NR log: contention is designed out rather than locked away — and
// readers merge all shards with relaxed loads. Because every mutation is an
// unsigned add, the merged value is monotone between any two reads that each
// observe all prior increments; obs/counter_* VCs check this executably
// under concurrent recording.
#ifndef VNROS_SRC_OBS_COUNTER_H_
#define VNROS_SRC_OBS_COUNTER_H_

#include <array>
#include <atomic>
#include <string>

#include "src/base/types.h"

namespace vnros {

// Shard counts are fixed (registry-owned metrics outlive any Topology).
// Counters are hot-path, so they get one shard per plausible core; shards
// beyond the core count simply stay zero and cost only memory.
inline constexpr u32 kCounterShards = 32;

// Stable shard index for the calling thread: assigned round-robin on first
// use, so up to kCounterShards concurrent threads never share a shard.
u32 obs_this_shard();

class ObsRegistry;

class Counter {
 public:
  // Increments the calling thread's shard.
  void add(u64 delta) { add_on(obs_this_shard(), delta); }

  void inc() { add(1); }

  // Increments the shard for `core` (used where the caller knows its CoreId:
  // the merge VCs record per-core and check conservation across the merge).
  void add_on(u32 core, u64 delta) {
    cells_[core % kCounterShards].v.fetch_add(delta, std::memory_order_relaxed);
  }

  // Merged value: relaxed sum over all shards. Monotone w.r.t. any
  // happens-before-ordered pair of reads (unsigned adds only, no reset).
  u64 value() const {
    u64 sum = 0;
    for (const Cell& c : cells_) {
      sum += c.v.load(std::memory_order_relaxed);
    }
    return sum;
  }

  const std::string& name() const { return name_; }

 private:
  friend class ObsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  struct alignas(64) Cell {
    std::atomic<u64> v{0};
  };

  const std::string name_;
  std::array<Cell, kCounterShards> cells_;
};

}  // namespace vnros

#endif  // VNROS_SRC_OBS_COUNTER_H_
