// The blockstore workloads: a 3-node, replication-2 cluster on a lossless
// fabric, serving closed-loop clients over VTP streams from one client host.
// Every client owns a disjoint set of keys and is the only writer of them,
// so each acked put must reach storage and every get has one right answer
// range (see README.md).
#ifndef VNROS_PERFBENCH_KV_H_
#define VNROS_PERFBENCH_KV_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/common.h"

namespace vnbench {

struct KvConfig {
  std::string name;
  usize clients = 0;
  u32 get_pct = 0;           // the rest are puts
  usize value_bytes = 0;
  usize keys_per_client = 0;  // keys = clients * keys_per_client, all preloaded
  u64 disk_sectors = 0;       // per storage node (512 B sectors)
  u64 measured_ticks = 0;     // virtual window the tick-clock metrics cover
};

// kv_fanin_small or kv_put_large; nullopt for any other name.
std::optional<KvConfig> kv_config(std::string_view name);

struct KvOptions {
  u64 seed = 1;
  double seconds = 0;  // host window; runs at least measured_ticks regardless
  bool trace = false;  // alternate traced and untraced slices
  usize setups = 1;    // setup_s is the median over this many cluster builds
  bool replay_check = false;  // run the measured ticks twice and compare
  usize keep_spans = 0;
};

struct KvResult {
  Failures failures;
  Metrics e2e;     // end-to-end metrics of this workload
  Metrics layers;  // per-layer metrics (trace mode)
  double tracing_overhead = 0;
  std::vector<std::string> notes;  // human-readable lines
  Tracer tracer;
  u64 origin_ns = 0;
};

KvResult run_kv(const KvConfig& cfg, const KvOptions& opt);

}  // namespace vnbench

#endif  // VNROS_PERFBENCH_KV_H_
