// Ring-buffer span tracer on virtual time.
//
// A span is a named interval (interned site id, begin/end timestamp, nesting
// depth) recorded by RAII SpanScope objects at instrumented sites: NR
// combiner batches, page-table range ops, fs journal commits, VTP
// retransmits, blockstore RPCs. Timestamps come from an attached
// VirtualClock (hw/timer.h) so a chaos run replays its trace bit-identically
// from the seed; with no clock attached (microbenches) an internal atomic
// sequence keeps timestamps totally ordered and deterministic.
//
// Completed spans land in per-shard rings (overwrite-oldest); well-nesting
// is by construction — SpanScope is RAII and depth is a thread-local
// counter — and per-core timestamp monotonicity holds because one thread
// owns its shard and commits spans in end order. Both are still checked
// executably (obs/span_* VCs).
//
// The tracer is disarmed by default: a SpanScope at a disarmed site costs
// exactly one relaxed load (the acceptance bar for instrumenting hot paths).
#ifndef VNROS_SRC_OBS_TRACE_H_
#define VNROS_SRC_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/types.h"
#include "src/hw/timer.h"
#include "src/obs/counter.h"

namespace vnros {

struct SpanEvent {
  u32 site = 0;   // interned site id (SpanTracer::intern_site)
  u32 shard = 0;  // recording thread's shard
  u32 depth = 0;  // nesting depth at begin (0 = outermost)
  u64 begin = 0;
  u64 end = 0;
};

class SpanScope;

class SpanTracer {
 public:
  static constexpr usize kRingCapacity = 1024;  // completed spans per shard

  SpanTracer() = default;
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  // Interns `name`, returning a stable id. Sites cache the id once (like
  // FaultSite pointers), so the map lookup is off the hot path.
  u32 intern_site(std::string_view name);
  std::string site_name(u32 id) const;

  // Attaches the virtual clock timestamps are read from. nullptr reverts to
  // the internal sequence. The clock must outlive tracing.
  void set_clock(const VirtualClock* clock) {
    clock_.store(clock, std::memory_order_release);
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Records a zero-length span (an instant event, e.g. one VTP retransmit).
  void point(u32 site);

  // Snapshot of every shard's ring, oldest first per shard, shards
  // concatenated in index order. Does not consume the rings.
  std::vector<SpanEvent> spans() const;

  u64 recorded() const { return recorded_.load(std::memory_order_relaxed); }
  u64 dropped() const { return dropped_.load(std::memory_order_relaxed); }

  // Empties the rings and zeroes recorded/dropped (tests and bench runs).
  void clear();

 private:
  friend class SpanScope;

  u64 timestamp() const {
    const VirtualClock* c = clock_.load(std::memory_order_acquire);
    return c != nullptr ? c->now()
                        : seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  void commit(const SpanEvent& ev);

  struct Shard {
    mutable std::mutex mu;
    std::vector<SpanEvent> ring;  // grows to kRingCapacity, then wraps
    usize next = 0;               // overwrite cursor once full
  };

  std::atomic<bool> enabled_{false};
  std::atomic<const VirtualClock*> clock_{nullptr};
  mutable std::atomic<u64> seq_{0};
  std::atomic<u64> recorded_{0};
  std::atomic<u64> dropped_{0};
  std::array<Shard, kHistogramShards> shards_;

  mutable std::mutex sites_mu_;
  std::map<std::string, u32, std::less<>> site_ids_;
  std::vector<std::string> site_names_;
};

// RAII span: stamps begin at construction, commits {begin, end, depth} at
// destruction. Inert (one relaxed load total) when the tracer is disarmed at
// construction.
class SpanScope {
 public:
  SpanScope(SpanTracer& tracer, u32 site) {
    if (tracer.enabled()) {
      tracer_ = &tracer;
      site_ = site;
      depth_ = depth_tls()++;
      begin_ = tracer.timestamp();
    }
  }

  ~SpanScope() {
    if (tracer_ != nullptr) {
      --depth_tls();
      tracer_->commit(
          SpanEvent{site_, obs_this_shard(), depth_, begin_, tracer_->timestamp()});
    }
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  static u32& depth_tls() {
    thread_local u32 depth = 0;
    return depth;
  }

  SpanTracer* tracer_ = nullptr;
  u32 site_ = 0;
  u32 depth_ = 0;
  u64 begin_ = 0;
};

}  // namespace vnros

#endif  // VNROS_SRC_OBS_TRACE_H_
