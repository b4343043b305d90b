// Ablation A6: what does the observability substrate cost on the hot paths?
//
// The metrics substrate is always compiled in, so this binary reports
// absolute costs: two instrumented paths — NR dispatch (counters + batch
// histogram + combine span) and page-table map_range/unmap_range (range-op
// spans) — and the four obs primitives themselves (counter add, histogram
// record, disarmed and armed span scopes). DESIGN.md §8's bar for a
// disarmed span site is one relaxed load.
//
//   ./build/bench/ablate_obs_overhead
//
// VNROS_BENCH_QUICK=1 shrinks the op counts (CI smoke mode).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_json.h"

#include "src/base/contracts.h"
#include "src/kernel/frame_alloc.h"
#include "src/nr/node_replicated.h"
#include "src/obs/registry.h"
#include "src/pt/address_space.h"
#include "src/pt/frame_source.h"
#include "src/pt/page_table.h"

namespace vnros {
namespace {

bool quick_mode() {
  const char* q = std::getenv("VNROS_BENCH_QUICK");
  return q != nullptr && q[0] != '\0' && q[0] != '0';
}

// Median of `repeats` timed runs of `body(ops)`, in ns per op.
template <typename Body>
double median_ns_per_op(u64 ops, int repeats, Body&& body) {
  std::vector<double> runs;
  runs.reserve(static_cast<usize>(repeats));
  for (int r = 0; r < repeats; ++r) {
    auto start = std::chrono::steady_clock::now();
    body(ops);
    double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    runs.push_back(secs * 1e9 / static_cast<double>(ops));
  }
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2];
}

// NR dispatch: one map op through the replicated page table. The combine path
// carries c_combines_/c_combined_ops_ counters, the batch-size histogram, and
// the "nr/combine" span site.
double bench_nr_dispatch(u64 ops, int repeats) {
  Topology topo(4, 2);
  PhysMem mem(1u << 15);
  FrameAllocator frames(mem, topo);
  AddressSpace<PageTable, NodeReplicated> as(mem, frames, topo);
  auto token = as.register_thread(0);
  u64 i = 0;
  return median_ns_per_op(ops, repeats, [&](u64 n) {
    for (u64 k = 0; k < n; ++k, ++i) {
      VAddr va{u64{2} << 34 | ((i % 4096) * kPageSize)};
      (void)as.map(token, va, PAddr::from_frame((i % 1000) + 8), kPageSize, Perms::rw());
      (void)as.unmap(token, va);
    }
  });
}

// Page-table range ops: map_range + unmap_range of a 64-page batch, per page.
// Both entry points open a span site ("pt/map_range"/"pt/unmap_range").
double bench_range_ops(u64 batches, int repeats) {
  constexpr u64 kPages = 64;
  PhysMem mem(1u << 14);
  SimpleFrameSource frames(mem, (1u << 14) - 512);
  auto made = PageTable::create(mem, frames);
  VNROS_CHECK(made.ok());
  PageTable pt = std::move(made.value());
  double ns_per_batch = median_ns_per_op(batches, repeats, [&](u64 n) {
    for (u64 k = 0; k < n; ++k) {
      VAddr base{u64{3} << 34};
      (void)pt.map_range(base, PAddr::from_frame(8), kPages, Perms::rw());
      (void)pt.unmap_range(base, kPages);
    }
  });
  return ns_per_batch / static_cast<double>(kPages);
}

}  // namespace
}  // namespace vnros

int main() {
  using namespace vnros;
  const bool quick = quick_mode();
  const u64 scale = quick ? 1 : 10;
  const int repeats = quick ? 3 : 7;

  std::printf("# Ablation A6: observability substrate cost\n");
  BenchJson json("ablate_obs_overhead");
  json.config("quick", quick);

  double nr = bench_nr_dispatch(2000 * scale, repeats);
  double range = bench_range_ops(200 * scale, repeats);

  auto& reg = ObsRegistry::global();
  Counter& counter = reg.counter("obsbench/counter");
  Histogram& hist = reg.histogram("obsbench/hist");
  const u32 site = reg.tracer().intern_site("obsbench/span");

  double counter_ns = median_ns_per_op(200000 * scale, repeats, [&](u64 n) {
    for (u64 k = 0; k < n; ++k) {
      counter.add(1);
    }
  });
  double hist_ns = median_ns_per_op(200000 * scale, repeats, [&](u64 n) {
    for (u64 k = 0; k < n; ++k) {
      hist.record(k & 0xFFFF);
    }
  });
  reg.tracer().set_enabled(false);
  double span_disarmed_ns = median_ns_per_op(200000 * scale, repeats, [&](u64 n) {
    for (u64 k = 0; k < n; ++k) {
      SpanScope span(reg.tracer(), site);
    }
  });
  reg.tracer().set_enabled(true);
  double span_armed_ns = median_ns_per_op(100000 * scale, repeats, [&](u64 n) {
    for (u64 k = 0; k < n; ++k) {
      SpanScope span(reg.tracer(), site);
    }
  });
  reg.tracer().set_enabled(false);

  std::printf("%-28s %12s\n", "path", "ns/op");
  std::printf("%-28s %12.1f\n", "nr_dispatch_map_unmap", nr);
  std::printf("%-28s %12.2f\n", "range_ops_per_page", range);
  std::printf("%-28s %12.2f\n", "counter_add", counter_ns);
  std::printf("%-28s %12.2f\n", "histogram_record", hist_ns);
  std::printf("%-28s %12.2f\n", "span_disarmed", span_disarmed_ns);
  std::printf("%-28s %12.2f\n", "span_armed", span_armed_ns);

  json.row("nr_dispatch_ns", 0, nr);
  json.row("range_ops_ns_per_page", 0, range);
  json.row("counter_add_ns", 0, counter_ns);
  json.row("histogram_record_ns", 0, hist_ns);
  json.row("span_disarmed_ns", 0, span_disarmed_ns);
  json.row("span_armed_ns", 0, span_armed_ns);
  json.write();
  return 0;
}
