// vnbench: the vnros end-to-end benchmark.
//
//   vnbench --workload <kv_fanin_small|kv_put_large|vm_map_churn> --seed <n>
//           --seconds <s> --trace <0|1> [--spans-out <file>]
//
// Runs the named workload for the window, checks its outputs, and prints
// every metric by name with its unit; the last line of standard output is
// one JSON object. With --trace 0 it prints the end-to-end metrics, with
// --trace 1 the per-layer metrics (and writes the recorded spans to
// --spans-out). Every run also makes a short companion run of the other
// family (the vm workload for a kv run, kv_fanin_small for the vm run) so
// that each run reports every metric; README.md lists which metric comes
// from which run. Exit status: 0 all checks passed, 1 a check failed,
// 2 bad arguments, 3 the build is not one whose numbers mean anything.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <thread>

#include "perfbench/common.h"
#include "perfbench/kv.h"
#include "perfbench/vm.h"

namespace vnbench {
namespace {

// The names BENCHMARK.json lists, in its order.
const char* const kEndToEnd[] = {
    "setup_s",       "ops_per_s",     "peak_rss_mb",    "goodput_per_kilotick",
    "get_p50_ticks", "get_p99_ticks", "put_p50_ticks",  "put_p99_ticks",
    "device_bytes_per_user_byte",     "map_p50_us",     "map_p99_us",
    "unmap_p50_us",  "unmap_p99_us",  "resolve_p50_us", "resolve_p99_us",
};

const char* const kPerLayer[] = {
    "fail_ratio",
    "app.serve_ns_per_op",
    "app.pump_ns_per_put",
    "app.pump_calls_per_put",
    "app.serve_idle_ratio",
    "app.serve_busy_mean",
    "app.replicas_pushed_per_put",
    "app.stale_ignored_per_put",
    "kernel.client_syscall_ns_per_op",
    "kernel.client_syscalls_per_op",
    "kernel.client_recv_empty_ratio",
    "kernel.ring_submitted_per_op",
    "kernel.ring_passes_per_op",
    "kernel.ring_cq_overflows_per_op",
    "kernel.fs_journal_records_per_put",
    "kernel.fs_journal_bytes_per_put",
    "kernel.fs_fsyncs_per_put",
    "kernel.fs_checkpoints",
    "kernel.frames_allocs_per_map",
    "net.vtp_tick_ns_per_op",
    "net.segments_per_op",
    "net.retransmits_per_op",
    "net.cwnd_halvings_per_op",
    "hw.dev_writes_per_put",
    "hw.dev_flushes_per_put",
    "hw.tlb_shootdowns_per_unmap",
    "hw.tlb_ipis_per_unmap",
    "nr.ops_per_combine",
    "nr.batch_ops_p99",
    "nr.empty_combine_ratio",
    "nr.handoff_ratio",
    "nr.wait_spins_mean",
    "harness.other_ns_per_op",
    "harness.other_share",
    "harness.tick_p50_us",
    "harness.tick_p99_us",
    "harness.tracing_overhead",
};

constexpr double kCompanionVmSeconds = 3;

struct Args {
  std::string workload;
  u64 seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_out;
};

bool parse(int argc, char** argv, Args& a) {
  bool have_w = false, have_seed = false, have_s = false, have_t = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = argv[i + 1];
      have_w = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(argv[i + 1], &end, 10);
      have_seed = end != argv[i + 1] && *end == 0;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(argv[i + 1], &end);
      have_s = end != argv[i + 1] && *end == 0 && a.seconds > 0 && a.seconds <= 600;
    } else if (k == "--trace") {
      a.trace = std::strcmp(argv[i + 1], "1") == 0;
      have_t = a.trace || std::strcmp(argv[i + 1], "0") == 0;
    } else if (k == "--spans-out") {
      a.spans_out = argv[i + 1];
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_w && have_seed && have_s && have_t;
}

// Facts of the compile, so flags injected through CMAKE_CXX_FLAGS or the
// cache still show.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define VNBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || defined(VNBENCH_SANITIZED)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#ifdef VNROS_METRICS_DISABLED
constexpr bool kMetrics = false;
#else
constexpr bool kMetrics = true;
#endif
#ifdef VNROS_DISABLE_CONTRACTS
constexpr bool kContractsOut = true;
#else
constexpr bool kContractsOut = false;
#endif
#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

// First source that has a metric wins.
void merge_into(std::map<std::string, Metric>& into, const Metrics& from, const char* origin) {
  for (const Metric& m : from) {
    if (into.count(m.name) == 0) {
      Metric c = m;
      if (origin != nullptr) {
        c.note = c.note.empty() ? origin : c.note + "; " + origin;
      }
      into.emplace(m.name, c);
    }
  }
}

int run(const Args& a) {
  const bool kv_primary = a.workload != "vm_map_churn";
  std::optional<KvConfig> kv = kv_config(kv_primary ? a.workload : "kv_fanin_small");
  if (!kv) {
    std::fprintf(stderr, "vnbench: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  std::printf("# vnbench workload=%s seed=%llu seconds=%g trace=%d\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0);
  std::printf("# host: nproc=%u compiler=\"%s\" build_type=%s optimized=%d NDEBUG=%d\n",
              std::thread::hardware_concurrency(), VNBENCH_COMPILER, VNBENCH_BUILD_TYPE,
              kOptimized ? 1 : 0, kNdebug ? 1 : 0);
  std::printf("# build: VNROS_METRICS=%s sanitizer=%s contracts_compiled_out=%s\n",
              kMetrics ? "ON" : "OFF", kSanitized ? "yes" : "no", kContractsOut ? "yes" : "no");
  if (kSanitized || !kOptimized || !kMetrics || std::strcmp(VNBENCH_BUILD_TYPE, "Debug") == 0) {
    std::fprintf(stderr,
                 "vnbench: refusing to report numbers from a sanitizer, unoptimized or "
                 "metrics-off build\n");
    return 3;
  }
  std::fflush(stdout);

  Failures fails;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layers;
  std::vector<std::string> notes;
  double tracing_overhead = 0;
  double peak_rss = 0;
  std::FILE* spans = nullptr;
  if (a.trace && !a.spans_out.empty()) {
    spans = std::fopen(a.spans_out.c_str(), "w");
    if (spans != nullptr) {
      std::fprintf(spans, "thread\tid\tparent\tlayer\top_id\tstart_ns\tend_ns\n");
    }
  }
  const usize kv_keep = a.trace ? 100'000 : 0;
  const usize vm_keep = a.trace ? 25'000 : 0;

  if (kv_primary) {
    VmResult v = run_vm(VmOptions{a.seed, kCompanionVmSeconds, a.trace, 1, vm_keep});
    KvOptions ko{a.seed, a.seconds, a.trace, 3, true, kv_keep};
    KvResult k = run_kv(*kv, ko);
    peak_rss = peak_rss_mb();
    merge_into(e2e, k.e2e, nullptr);
    merge_into(e2e, v.e2e, "companion vm_map_churn run");
    merge_into(layers, k.layers, nullptr);
    merge_into(layers, v.layers, "companion vm_map_churn run");
    fails.merge(k.failures);
    fails.merge(v.failures);
    notes = k.notes;
    tracing_overhead = k.tracing_overhead;
    if (spans != nullptr) {
      write_spans(spans, k.tracer, 0, k.origin_ns);
      for (u32 t = 0; t < v.tracers.size(); ++t) {
        write_spans(spans, v.tracers[t], t + 1, v.origin_ns);
      }
    }
  } else {
    VmResult v = run_vm(VmOptions{a.seed, a.seconds, a.trace, 3, vm_keep});
    peak_rss = peak_rss_mb();
    KvOptions ko{a.seed, 0, a.trace, 1, false, kv_keep};
    KvResult k = run_kv(*kv, ko);
    merge_into(e2e, v.e2e, nullptr);
    merge_into(e2e, k.e2e, "companion kv_fanin_small run");
    merge_into(layers, v.layers, nullptr);
    merge_into(layers, k.layers, "companion kv_fanin_small run");
    fails.merge(v.failures);
    fails.merge(k.failures);
    notes = k.notes;
    tracing_overhead = v.tracing_overhead;
    if (spans != nullptr) {
      for (u32 t = 0; t < v.tracers.size(); ++t) {
        write_spans(spans, v.tracers[t], t + 1, v.origin_ns);
      }
      write_spans(spans, k.tracer, 0, k.origin_ns);
    }
  }
  if (spans != nullptr) {
    std::fclose(spans);
    notes.push_back("spans written to " + a.spans_out + " (the first " + std::to_string(kv_keep) +
                    " kv spans and " + std::to_string(vm_keep) + " per vm thread)");
  }
  const double fail_ratio =
      ratio(static_cast<double>(fails.failed), static_cast<double>(fails.attempted));
  e2e.emplace("peak_rss_mb", Metric{"peak_rss_mb", peak_rss, "MiB", "after the measured run"});
  layers.emplace("fail_ratio", Metric{"fail_ratio", fail_ratio, "ratio",
                                      std::to_string(fails.failed) + " of " +
                                          std::to_string(fails.attempted)});
  layers.emplace("harness.tracing_overhead",
                 Metric{"harness.tracing_overhead", tracing_overhead, "ratio",
                        "1 - traced/untraced ops_per_s over alternating slices"});

  const auto& table = a.trace ? layers : e2e;
  std::vector<const Metric*> out;
  for (const char* name : a.trace ? std::span<const char* const>(kPerLayer)
                                  : std::span<const char* const>(kEndToEnd)) {
    auto it = table.find(name);
    if (it == table.end() || !std::isfinite(it->second.value)) {
      fails.fail(std::string("metric ") + name + " was not measured");
    } else {
      out.push_back(&it->second);
    }
  }

  for (const std::string& n : notes) {
    std::printf("# %s\n", n.c_str());
  }
  std::printf("# fail_ratio = %.6g (%llu failed of %llu attempted)\n",
              ratio(static_cast<double>(fails.failed), static_cast<double>(fails.attempted)),
              static_cast<unsigned long long>(fails.failed),
              static_cast<unsigned long long>(fails.attempted));
  for (const std::string& m : fails.first) {
    std::printf("# FAILED: %s\n", m.c_str());
  }
  std::string json = "{";
  for (const Metric* m : out) {
    std::printf("%-36s %16.6g %-16s %s\n", m->name.c_str(), m->value, m->unit.c_str(),
                m->note.c_str());
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.size() > 1 ? ", " : "", m->name.c_str(), m->value, m->unit.c_str());
    json += buf;
  }
  json += "}";
  const bool correct = fails.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(fails.attempted),
              static_cast<unsigned long long>(fails.failed), json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace vnbench

int main(int argc, char** argv) {
  vnbench::Args a;
  if (!vnbench::parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: vnbench --workload <kv_fanin_small|kv_put_large|vm_map_churn> "
                 "--seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]\n");
    return 2;
  }
  return vnbench::run(a);
}
