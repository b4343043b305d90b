// Shared pieces of the vnros end-to-end benchmark: host clock, metric
// report, percentile estimators, the host-clock span tracer, and deltas of
// the obs registry between two instants.
//
// Everything here lives outside the program under test: the benchmark times
// its own calls into each layer's public functions and reads counts from
// public accessors, so the modules it drives are unchanged.
#ifndef VNROS_PERFBENCH_COMMON_H_
#define VNROS_PERFBENCH_COMMON_H_

#include <array>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/types.h"
#include "src/obs/histogram.h"

namespace vnros {
class Kernel;
}  // namespace vnros

namespace vnbench {

using vnros::u32;
using vnros::u64;
using vnros::u8;
using vnros::usize;

inline u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

inline double seconds_since(u64 start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// a / b, or 0 when nothing happened (b == 0).
inline double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

double median(std::vector<double> v);

// One named metric with its unit. `note` is printed in the human-readable
// table only (sample counts, which run it came from).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note = {};
};

using Metrics = std::vector<Metric>;

// Failure book shared by every phase of a run: counts plus the first few
// messages, so a failed check says what failed.
struct Failures {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> first;

  void fail(std::string msg) {
    ++failed;
    if (first.size() < 8) {
      first.push_back(std::move(msg));
    }
  }
  void merge(const Failures& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (const auto& m : o.first) {
      if (first.size() < 8) {
        first.push_back(m);
      }
    }
  }
};

// Percentile of integer tick samples, q in [0, 1]. Tick latencies are
// whole numbers, so a plain order statistic moves only in whole ticks. This
// is the grouped-data estimate: value k stands for the interval
// [k - 0.5, k + 0.5), and the percentile is interpolated inside the interval
// that holds it. Same samples, same result.
double tick_percentile(const std::vector<u32>& samples, double q);

// Host-time call durations. Fixed 5 ns buckets up to 200 us (exact enough
// for sub-microsecond calls), larger values kept exactly.
class NsHistogram {
 public:
  static constexpr u64 kBucketNs = 5;
  static constexpr usize kBuckets = 40'000;

  NsHistogram() : buckets_(kBuckets, 0) {}
  void record(u64 ns) {
    ++count_;
    if (ns < kBucketNs * kBuckets) {
      ++buckets_[ns / kBucketNs];
    } else {
      large_.push_back(ns);
    }
  }
  void merge(const NsHistogram& o);
  u64 count() const { return count_; }
  // Interpolated inside the bucket that holds the q-quantile; in ns.
  double percentile(double q) const;

 private:
  std::vector<u32> buckets_;
  std::vector<u64> large_;
  u64 count_ = 0;
};

// --- host-clock span tracer --------------------------------------------------

enum class Layer : u8 { kServe, kPump, kVtpTick, kClientSys, kMap, kResolve, kUnmap, kCount };
inline constexpr usize kLayers = static_cast<usize>(Layer::kCount);
const char* layer_name(Layer l);

// One recorded span. `parent` is the id of the enclosing span (0 = none);
// `op_id` is the id the client assigned to the op the call served (0 when a
// call serves no single op, such as a node's serve pass).
struct SpanRec {
  u64 id = 0;
  u64 parent = 0;
  u64 op_id = 0;
  u64 start_ns = 0;
  u64 end_ns = 0;
  Layer layer = Layer::kServe;
};

// Single-threaded span recorder. Disabled, begin/end cost one branch. When
// on, every span adds to per-layer sums; the first `keep` spans are also
// stored and written out at exit. `outer_ns` sums only spans with no
// enclosing span of the same layer (a pump that nests inside another pump's
// serve is counted once), and `top_ns` sums spans with no enclosing span at
// all — wall time minus top_ns is what no timed layer covers.
class Tracer {
 public:
  explicit Tracer(usize keep = 0) : keep_(keep) {}

  void set_on(bool on) { on_ = on; }

  void begin(Layer l, u64 op_id) {
    if (!on_) {
      return;
    }
    Frame f;
    f.layer = l;
    f.id = ++next_id_;
    f.parent = stack_.empty() ? 0 : stack_.back().id;
    f.op_id = op_id;
    ++active_[static_cast<usize>(l)];
    stack_.push_back(f);
    stack_.back().start_ns = now_ns();
  }

  void end() {
    if (!on_ || stack_.empty()) {
      return;
    }
    u64 end = now_ns();
    Frame f = stack_.back();
    stack_.pop_back();
    usize li = static_cast<usize>(f.layer);
    u64 dur = end - f.start_ns;
    if (--active_[li] == 0) {
      outer_ns[li] += dur;
    }
    if (stack_.empty()) {
      top_ns += dur;
    }
    if (spans.size() < keep_) {
      spans.push_back(SpanRec{f.id, f.parent, f.op_id, f.start_ns, end, f.layer});
    }
  }

  std::array<u64, kLayers> outer_ns{};
  u64 top_ns = 0;
  std::vector<SpanRec> spans;

 private:
  struct Frame {
    Layer layer = Layer::kServe;
    u64 id = 0;
    u64 parent = 0;
    u64 op_id = 0;
    u64 start_ns = 0;
  };

  bool on_ = false;
  usize keep_;
  u64 next_id_ = 0;
  std::vector<Frame> stack_;
  std::array<u32, kLayers> active_{};
};

// RAII span around one layer call.
class Span {
 public:
  Span(Tracer& t, Layer l, u64 op_id = 0) : t_(t) { t_.begin(l, op_id); }
  ~Span() { t_.end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
};

// Appends `tr`'s stored spans to `out` as TSV rows tagged with `thread`.
void write_spans(std::FILE* out, const Tracer& tr, u32 thread, u64 origin_ns);

// --- obs registry deltas -----------------------------------------------------

// The registry at one instant. Instance names ("ring3/completion_passes")
// are folded into families ("ring/completion_passes") by dropping the digits
// of the instance prefix; dead instances stop changing, so the delta of a
// family between two snapshots is the delta of the live instances.
struct ObsSnapshot {
  std::map<std::string, u64> counters;
  std::map<std::string, vnros::HistogramSnapshot> histograms;

  static ObsSnapshot take();
};

// Bucket-wise b - a summed over the family's instances.
vnros::HistogramSnapshot histogram_delta(const ObsSnapshot& a, const ObsSnapshot& b,
                                         std::string_view family);

// The nr.* per-layer metrics from the NR counters' deltas between a and b.
Metrics nr_metrics(const ObsSnapshot& a, const ObsSnapshot& b);

// One of the kernel's kstat contract counters (the name must exist).
u64 kstat(const vnros::Kernel& k, std::string_view name);

// Peak resident set of this process so far, MiB.
double peak_rss_mb();

}  // namespace vnbench

#endif  // VNROS_PERFBENCH_COMMON_H_
