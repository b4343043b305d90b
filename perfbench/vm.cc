#include "perfbench/vm.h"

#include <atomic>
#include <cmath>
#include <deque>
#include <memory>
#include <thread>

#include <sched.h>

#include "src/base/contracts.h"
#include "src/base/rng.h"
#include "src/kernel/kernel.h"
#include "src/pt/address_space.h"
#include "src/pt/page_table.h"

namespace vnbench {
namespace {

using vnros::AddressSpace;
using vnros::ErrorCode;
using vnros::Kernel;
using vnros::PAddr;
using vnros::PageTable;
using vnros::Perms;
using vnros::ThreadToken;
using vnros::VAddr;

constexpr u32 kThreads = 4;
constexpr usize kLive = 64;          // live mappings per thread
constexpr u64 kSlots = 1024;         // VA ring per thread: two last-level tables
constexpr usize kResolvesPerStep = 4;
constexpr u64 kCallsPerStep = 2 + kResolvesPerStep;
constexpr double kRoundSeconds = 1.0;   // measured time per round
constexpr double kWarmupSeconds = 0.1;  // per round: threads run, nothing recorded

VAddr va_of(u32 thread, u64 slot) {
  return VAddr{(u64{thread} + 1) << 34 | ((slot % kSlots) * vnros::kPageSize)};
}

struct Live {
  u64 slot = 0;
  PAddr frame;
};

// One kernel plus the address space and each thread's live set.
struct World {
  Kernel kernel;
  AddressSpace<PageTable> as;
  std::array<ThreadToken, kThreads> tokens;
  std::array<std::deque<Live>, kThreads> live;
  std::array<u64, kThreads> next_slot{};
  u64 baseline_free = 0;

  World() : as(kernel.mem(), kernel.frames(), kernel.topo(), &kernel.tlbs()) {
    for (u32 t = 0; t < kThreads; ++t) {
      tokens[t] = as.register_thread(t);
    }
  }

  vnros::NodeId node_of(u32 t) const { return kernel.topo().node_of_core(t); }
};

struct ThreadOut {
  NsHistogram map_ns;
  NsHistogram resolve_ns;
  NsHistogram unmap_ns;
  Failures failures;
};

// Maps the next slot of thread t's ring onto a fresh frame.
ErrorCode map_next(World& w, u32 t, Tracer& tr, NsHistogram* h, u64 op_id) {
  auto frame = w.kernel.frames().alloc_on_node(w.node_of(t));
  if (!frame.ok()) {
    return frame.error();
  }
  u64 slot = w.next_slot[t]++;
  u64 t0 = now_ns();
  ErrorCode err = ErrorCode::kOk;
  {
    Span s(tr, Layer::kMap, op_id);
    err = w.as.map(w.tokens[t], va_of(t, slot), frame.value(), vnros::kPageSize, Perms::rw());
  }
  if (h != nullptr) {
    h->record(now_ns() - t0);
  }
  if (err != ErrorCode::kOk) {
    w.kernel.frames().free(frame.value());
    return err;
  }
  w.live[t].push_back(Live{slot, frame.value()});
  return ErrorCode::kOk;
}

ErrorCode unmap_oldest(World& w, u32 t, Tracer& tr, NsHistogram* h, u64 op_id) {
  Live old = w.live[t].front();
  u64 t0 = now_ns();
  ErrorCode err = ErrorCode::kOk;
  {
    Span s(tr, Layer::kUnmap, op_id);
    err = w.as.unmap(w.tokens[t], va_of(t, old.slot));
  }
  if (h != nullptr) {
    h->record(now_ns() - t0);
  }
  if (err == ErrorCode::kOk) {
    w.live[t].pop_front();
    w.kernel.frames().free(old.frame);
  }
  return err;
}

// One CPU per worker: the first kThreads CPUs of the process's affinity
// mask, or none when the mask holds fewer and the workers run unpinned.
// Unpinned, the scheduler at times packs two workers onto one CPU. Packed
// workers share a cache, their map/unmap/resolve calls cost about half as
// much, and the host figures jumped between two levels for minutes at a time.
std::vector<int> worker_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return cpus;
  }
  for (int c = 0; c < CPU_SETSIZE && cpus.size() < kThreads; ++c) {
    if (CPU_ISSET(c, &set)) {
      cpus.push_back(c);
    }
  }
  if (cpus.size() < kThreads) {
    cpus.clear();
  }
  return cpus;
}

bool pin_calling_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

std::unique_ptr<World> build(Failures& fails) {
  Tracer off;  // set-up is never traced
  auto w = std::make_unique<World>();
  // Activate both replicas (their root tables) with one map/unmap per
  // thread, then take the frame baseline the run must return to.
  for (u32 t = 0; t < kThreads; ++t) {
    if (map_next(*w, t, off, nullptr, 0) != ErrorCode::kOk ||
        unmap_oldest(*w, t, off, nullptr, 0) != ErrorCode::kOk) {
      fails.fail("vm_map_churn: warm-up map/unmap failed");
    }
  }
  for (u32 t = 0; t < kThreads; ++t) {
    w->as.sync(w->tokens[t]);
  }
  w->baseline_free = w->kernel.frames().free_frames();
  for (u32 t = 0; t < kThreads; ++t) {
    for (usize i = 0; i < kLive; ++i) {
      if (map_next(*w, t, off, nullptr, 0) != ErrorCode::kOk) {
        fails.fail("vm_map_churn: filling the live set failed");
      }
    }
  }
  return w;
}

}  // namespace

VmResult run_vm(const VmOptions& opt) {
  VmResult res;
  std::vector<double> setup_times;
  std::unique_ptr<World> w;
  for (usize s = 0; s < std::max<usize>(opt.setups, 1); ++s) {
    w.reset();
    u64 t0 = now_ns();
    w = build(res.failures);
    setup_times.push_back(seconds_since(t0));
  }
  const double setup_s = median(setup_times);
  if (res.failures.failed > 0) {
    return res;
  }

  for (u32 t = 0; t < kThreads; ++t) {
    res.tracers.emplace_back(opt.keep_spans);
  }
  std::array<ThreadOut, kThreads> outs;
  std::array<std::atomic<u64>, kThreads> calls{};
  std::atomic<bool> stop{false};
  std::atomic<bool> measuring{false};
  std::atomic<bool> traced{false};
  std::array<u64, kThreads> maps{};
  std::array<u64, kThreads> steps{};
  std::vector<vnros::Rng> rngs;
  for (u32 t = 0; t < kThreads; ++t) {
    rngs.emplace_back(opt.seed * 0x9E3779B97F4A7C15ull + t + 1);
  }

  const std::vector<int> cpus = worker_cpus();
  std::atomic<u32> pin_failures{0};
  auto worker = [&](u32 t) {
    if (!cpus.empty() && !pin_calling_thread(cpus[t])) {
      pin_failures.fetch_add(1);
    }
    ThreadOut& out = outs[t];
    Tracer& tr = res.tracers[t];
    vnros::Rng& rng = rngs[t];
    while (!stop.load(std::memory_order_relaxed)) {
      const bool m = measuring.load(std::memory_order_relaxed);
      tr.set_on(m && traced.load(std::memory_order_relaxed));
      const u64 step = ++steps[t];
      out.failures.attempted += kCallsPerStep;
      if (map_next(*w, t, tr, m ? &out.map_ns : nullptr, step) != ErrorCode::kOk) {
        out.failures.fail("vm_map_churn: map failed");
        break;
      }
      ++maps[t];
      for (usize r = 0; r < kResolvesPerStep; ++r) {
        const Live& l = w->live[t][rng.next_below(w->live[t].size())];
        u64 t0 = now_ns();
        vnros::Result<vnros::ResolveOk> got = ErrorCode::kNotMapped;
        {
          Span s(tr, Layer::kResolve, step);
          got = w->as.resolve(w->tokens[t], va_of(t, l.slot));
        }
        if (m) {
          out.resolve_ns.record(now_ns() - t0);
        }
        if (!got.ok() || got.value().paddr != l.frame || !(got.value().perms == Perms::rw())) {
          out.failures.fail("vm_map_churn: resolve disagrees with the thread's live mappings");
        }
      }
      if (unmap_oldest(*w, t, tr, m ? &out.unmap_ns : nullptr, step) != ErrorCode::kOk) {
        out.failures.fail("vm_map_churn: unmap failed");
        break;
      }
      if (m) {
        calls[t].fetch_add(kCallsPerStep, std::memory_order_relaxed);
      }
    }
    tr.set_on(false);
  };

  // Rounds: each starts the threads afresh, warms up, measures, and joins.
  // The reported figures are medians over rounds.
  const u64 allocs0 = kstat(w->kernel, "frames/allocations");
  const u64 shootdowns0 = kstat(w->kernel, "tlb/shootdowns");
  const u64 ipis0 = kstat(w->kernel, "tlb/ipis");
  const ObsSnapshot obs0 = ObsSnapshot::take();
  const usize rounds =
      std::max<usize>(1, static_cast<usize>(std::lround(opt.seconds / kRoundSeconds)));
  std::vector<double> rate[2], map50, map99, unmap50, unmap99, resolve50, resolve99;
  u64 samples = 0;
  double window_s = 0;
  res.origin_ns = now_ns();
  for (usize round = 0; round < rounds; ++round) {
    const bool traced_round = opt.trace && round % 2 == 1;
    stop.store(false);
    for (u32 t = 0; t < kThreads; ++t) {
      outs[t].map_ns = NsHistogram();
      outs[t].resolve_ns = NsHistogram();
      outs[t].unmap_ns = NsHistogram();
      calls[t].store(0);
    }
    std::vector<std::thread> threads;
    for (u32 t = 0; t < kThreads; ++t) {
      threads.emplace_back(worker, t);
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
    traced.store(traced_round);
    measuring.store(true);
    const u64 start = now_ns();
    std::this_thread::sleep_for(std::chrono::duration<double>(kRoundSeconds));
    measuring.store(false);
    const double secs = seconds_since(start);
    stop.store(true);
    for (auto& th : threads) {
      th.join();
    }
    ThreadOut all;
    u64 round_calls = 0;
    for (u32 t = 0; t < kThreads; ++t) {
      all.map_ns.merge(outs[t].map_ns);
      all.resolve_ns.merge(outs[t].resolve_ns);
      all.unmap_ns.merge(outs[t].unmap_ns);
      res.failures.merge(outs[t].failures);
      outs[t].failures = Failures();
      round_calls += calls[t].load();
    }
    window_s += secs;
    rate[traced_round ? 1 : 0].push_back(static_cast<double>(round_calls) / secs);
    if (traced_round) {
      continue;
    }
    samples += all.map_ns.count();
    map50.push_back(all.map_ns.percentile(0.50) / 1e3);
    map99.push_back(all.map_ns.percentile(0.99) / 1e3);
    unmap50.push_back(all.unmap_ns.percentile(0.50) / 1e3);
    unmap99.push_back(all.unmap_ns.percentile(0.99) / 1e3);
    resolve50.push_back(all.resolve_ns.percentile(0.50) / 1e3);
    resolve99.push_back(all.resolve_ns.percentile(0.99) / 1e3);
  }
  if (!rate[1].empty()) {
    res.tracing_overhead = 1.0 - median(rate[1]) / median(rate[0]);
  }

  // Counts over every round, before the drain below adds its own unmaps.
  u64 all_maps = 0;
  for (u64 m : maps) {
    all_maps += m;
  }
  const double dm = static_cast<double>(all_maps);
  const double allocs = static_cast<double>(kstat(w->kernel, "frames/allocations") - allocs0);
  const double shootdowns = static_cast<double>(kstat(w->kernel, "tlb/shootdowns") - shootdowns0);
  const double ipis = static_cast<double>(kstat(w->kernel, "tlb/ipis") - ipis0);
  const ObsSnapshot obs1 = ObsSnapshot::take();

  // Drain every live mapping; the frame count must return to the baseline.
  Tracer off;
  for (u32 t = 0; t < kThreads; ++t) {
    while (!w->live[t].empty()) {
      if (unmap_oldest(*w, t, off, nullptr, 0) != ErrorCode::kOk) {
        res.failures.fail("vm_map_churn: drain unmap failed");
        break;
      }
    }
  }
  for (u32 t = 0; t < kThreads; ++t) {
    w->as.sync(w->tokens[t]);
  }
  u64 free_now = w->kernel.frames().free_frames();
  ++res.failures.attempted;
  if (free_now != w->baseline_free) {
    res.failures.fail("vm_map_churn: free frames " + std::to_string(free_now) +
                      " after the drain, baseline " + std::to_string(w->baseline_free));
  }

  const std::string per_round = "median of " + std::to_string(map50.size()) + " rounds, " +
                                std::to_string(samples) + " maps, " +
                                std::to_string(samples * kResolvesPerStep) + " resolves";
  res.e2e.push_back(
      {"setup_s", setup_s, "s", "median of " + std::to_string(setup_times.size()) + " setups"});
  std::string placement = "unpinned";
  if (!cpus.empty() && pin_failures.load() == 0) {
    placement = "pinned to CPUs";
    for (int c : cpus) {
      placement += " " + std::to_string(c);
    }
  }
  res.e2e.push_back({"ops_per_s", median(rate[0]), "ops/s",
                     "map+resolve+unmap calls by " + std::to_string(kThreads) + " threads (" +
                         placement + "); median of " + std::to_string(rate[0].size()) +
                         " rounds in " + std::to_string(window_s) + " s"});
  res.e2e.push_back({"map_p50_us", median(map50), "us", per_round});
  res.e2e.push_back({"map_p99_us", median(map99), "us", per_round});
  res.e2e.push_back({"unmap_p50_us", median(unmap50), "us", per_round});
  res.e2e.push_back({"unmap_p99_us", median(unmap99), "us", per_round});
  res.e2e.push_back({"resolve_p50_us", median(resolve50), "us", per_round});
  res.e2e.push_back({"resolve_p99_us", median(resolve99), "us", per_round});

  res.layers.push_back({"kernel.frames_allocs_per_map", ratio(allocs, dm), "frames/map"});
  res.layers.push_back(
      {"hw.tlb_shootdowns_per_unmap", ratio(shootdowns, dm), "shootdowns/unmap"});
  res.layers.push_back({"hw.tlb_ipis_per_unmap", ratio(ipis, dm), "ipis/unmap"});
  const Metrics nr = nr_metrics(obs0, obs1);
  res.layers.insert(res.layers.end(), nr.begin(), nr.end());
  return res;
}

}  // namespace vnbench
