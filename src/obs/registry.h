// Process-global metric registry, mirroring FaultRegistry (base/fault.h).
//
// Counters and histograms are owned by the registry and live for the process
// lifetime, so components cache Counter*/Histogram* once at construction and
// the hot path never touches the map or its mutex. Component *instances*
// namespace their metrics with instance_prefix("bs") -> "bs0/", "bs1/", ...
// so every instance gets fresh zeroed counters and concurrent instances
// (e.g. the chaos harness's five storage nodes) never alias.
//
// The kernel re-exports a curated subset of these under stable contract
// names through the kstat syscall (kernel/syscall.h) — applications read
// kernel counters only through the §3 contract, never through this registry.
#ifndef VNROS_SRC_OBS_REGISTRY_H_
#define VNROS_SRC_OBS_REGISTRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/types.h"
#include "src/obs/counter.h"
#include "src/obs/histogram.h"
#include "src/obs/trace.h"

namespace vnros {

class ObsRegistry {
 public:
  static ObsRegistry& global();

  // Returns the metric named `name`, creating it on first use. A name is
  // either a counter or a histogram, never both (checked).
  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);

  // The process-wide span tracer.
  SpanTracer& tracer() { return tracer_; }

  // "bs" -> "bs0/", "bs1/", ...: a fresh per-instance namespace. Monotone
  // per kind for the process lifetime.
  std::string instance_prefix(std::string_view kind);

  // Point-in-time merged views (names sorted).
  std::vector<std::pair<std::string, u64>> counters_snapshot() const;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms_snapshot() const;

  // The whole registry as one JSON object, rolled up per metric family:
  //   {"counters":{family:{sum,max,instances}},
  //    "histograms":{family:{count,sum,mean,p50,p99,instances}},
  //    "spans":{"recorded":n,"dropped":n,"sites":{name:count}}}
  // Every instance's "bsc17/attempts" folds into "bsc/attempts"; histograms
  // merge bucket by bucket. A benchmark that builds thousands of instances
  // still writes one entry per family. Wired into every BENCH_*.json via
  // bench/bench_json.h; counters_snapshot() keeps the per-instance names.
  std::string json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, u64, std::less<>> instance_ids_;
  SpanTracer tracer_;
};

}  // namespace vnros

#endif  // VNROS_SRC_OBS_REGISTRY_H_
