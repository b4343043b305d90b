// NR perf smoke (tier-1): proves the flat combiner actually combines.
//
// The failure mode this guards against is silent: a regression in the wait
// window, the exit re-scan, or the parked-slot handoff degenerates every
// combining session back to batch size 1 — NR still passes every functional
// test (it is just a slow ticket lock at that point), so only a batching
// *distribution* check catches it. This binary drives 16 writer threads
// that yield between ops (the same emulated-concurrency idiom as the
// nr/flat_combining_batches VC: on hosts with fewer cores than threads,
// yielding is what lets announcers genuinely overlap) and then asserts on
// the combiner's own instruments:
//
//   - batch_ops p99 >= 8  (most sessions drain half the announcers or more)
//   - combines <= combined_ops  (a session is only counted when it applies
//     at least one op; empty sessions have their own counter)
//   - handoff_ops > 0  (parked losers got their ops applied by a combiner)
//
// Exit code 1 on violation — scripts/tier1.sh runs this as the perf-smoke
// stage.
//
//   ./build/bench/nr_perf_smoke
#include <cstdio>
#include <thread>
#include <vector>

#include "src/hw/topology.h"
#include "src/nr/node_replicated.h"

namespace vnros {
namespace {

struct CounterDs {
  struct WriteOp {
    u64 delta = 0;
  };
  struct ReadOp {};
  using Response = u64;
  u64 value = 0;
  Response dispatch(ReadOp) const { return value; }
  Response dispatch_mut(const WriteOp& op) { return value += op.delta; }
};

constexpr u32 kThreads = 16;
constexpr u64 kOpsPerThread = 2000;

int run() {
  Topology topo(kThreads, kThreads);  // one replica: pure write contention
  NrConfig config;
  // Announce patience is what makes combining observable regardless of how
  // many hardware threads the host has: an announcer waits (yielding) for a
  // combiner to drain it before self-combining, so concurrent writers pile
  // into one session instead of each running a private size-1 session.
  config.announce_patience = 2;
  NodeReplicated<CounterDs> nr(topo, CounterDs{}, config);

  std::vector<std::thread> workers;
  for (u32 t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto token = nr.register_thread(t);
      for (u64 i = 0; i < kOpsPerThread; ++i) {
        nr.execute_mut(token, CounterDs::WriteOp{1});
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }

  auto tok = nr.register_thread(0);
  u64 total = nr.execute(tok, CounterDs::ReadOp{});
  if (total != u64{kThreads} * kOpsPerThread) {
    std::fprintf(stderr, "FAIL: lost ops: counter=%lu expected=%lu\n", total,
                 u64{kThreads} * kOpsPerThread);
    return 1;
  }

  auto stats = nr.stats_snapshot();
  std::printf("nr_perf_smoke: combined_ops=%lu combines=%lu empty=%lu handoffs=%lu batch_p99=%lu\n",
              stats.combined_ops, stats.combines, stats.empty_combines, stats.handoff_ops,
              stats.batch_p99);
  int rc = 0;
  if (stats.combines > stats.combined_ops) {
    std::fprintf(stderr, "FAIL: combines (%lu) > combined_ops (%lu) — empty sessions are being "
                         "counted as combines\n",
                 stats.combines, stats.combined_ops);
    rc = 1;
  }
  if (stats.batch_p99 < 8) {
    std::fprintf(stderr, "FAIL: batch_ops p99 = %lu < 8 — flat combining has degenerated to "
                         "size-1 sessions\n",
                 stats.batch_p99);
    rc = 1;
  }
  if (stats.handoff_ops == 0) {
    std::fprintf(stderr, "FAIL: handoff_ops = 0 — parked announcers are never being drained by "
                         "a combiner\n");
    rc = 1;
  }
  if (rc == 0) {
    std::printf("nr_perf_smoke: PASS\n");
  }
  return rc;
}

}  // namespace
}  // namespace vnros

int main() { return vnros::run(); }
