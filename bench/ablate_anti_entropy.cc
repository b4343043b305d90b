// Ablation: Merkle anti-entropy vs full-inventory sync (EXPERIMENTS.md A9).
//
// Two replicas share a seeded keyspace; a fraction of the keys diverge
// (newer versions and tombstones on one side). The stale node then repairs
// through the same peer call (BlockStoreNode::call_peer) and byte
// accounting (AntiEntropyScheduler) under both strategies:
//   - merkle: root exchange + top-down descent into divergent subtrees
//     (sync_with) — wire cost tracks divergence;
//   - full:   the PR 7 baseline, ship the whole (key, crc, seq) inventory
//     every pass (sync_full) — wire cost tracks keyspace.
//
// Reported per divergence point:
//   - pass_bytes:  one repair pass that actually fixes the divergence;
//   - clean_bytes: one pass over the already-converged pair (the steady
//     state a periodic repair loop spends almost all of its time in);
//   - epoch_bytes: a repair epoch of `epoch_passes` periodic passes during
//     which the divergence arises once — the deployment measurand, where
//     full-inventory pays O(keyspace) every period and Merkle pays one root
//     exchange;
//   - fg_reads:    reads a closed-loop foreground reader — a library
//     BlockStoreClient on a VTP stream to the serving node — completed and
//     checked in a fixed poll window that contains the repair pass.
//
// The reader checks every reply against what B holds. B is never written in
// the window (A is strictly older, so repair only pulls), so a kOk must
// carry B's bytes for the key and a kNotFound must be a key B tombstoned.
// Any other reply fails the run: the binary exits nonzero. The reader's
// latency is not reported: B answers each read in the pump poll it arrives
// in, so it reads 1 poll in every cell, with or without repair.
//
// Everything is virtual-time and seeded: the sweep replays bit-identically.
// Emits BENCH_ablate_anti_entropy.json. Honors VNROS_BENCH_QUICK.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/app/anti_entropy.h"
#include "src/app/blockstore.h"
#include "src/base/contracts.h"
#include "src/base/rng.h"
#include "src/hw/network.h"
#include "src/kernel/machine.h"
#include "src/kernel/syscall.h"

namespace vnros {
namespace {

constexpr Port kPortA = 9400;
constexpr Port kPortB = 9401;

enum class Strategy { kNone, kMerkle, kFull };

struct Point {
  usize divergent = 0;
  u64 pass_bytes = 0;   // the repairing pass
  u64 clean_bytes = 0;  // one steady-state pass after convergence
  u64 pass_rpcs = 0;
  u64 pulled = 0;
  u64 fg_reads = 0;  // replies checked against what B holds
  u64 fg_bad = 0;    // replies that were neither B's bytes nor B's tombstone
};

// One measured cell: seed `keys` identical blocks on both nodes, diverge
// `frac` of them on B (newer versions, every 4th a tombstone), repair A
// against B under `strategy` while a foreground reader hammers B, then run
// one more (clean) pass for the steady-state cost.
Point run_cell(Strategy strategy, usize keys, double frac, usize value_bytes,
               u64 window_polls, u64 seed) {
  Network net;
  Machine a_host({.network = &net});
  Machine b_host({.network = &net});
  Machine fg_host({.network = &net});
  BlockStoreNode b(b_host.sys, kPortB);
  BsPeer peer_b{b_host.kernel.net_addr(), kPortB};
  // What B holds for each key: its bytes, or nullopt for a tombstone.
  std::vector<std::optional<std::vector<u8>>> b_holds(keys);

  // The closed-loop foreground reader: one library client on a stream to B,
  // one step per pump poll — it starts a get, or polls the one in flight.
  BlockStoreClient reader(fg_host.sys, ClusterView::of({peer_b}, 1), {});
  Rng fg_rng(seed ^ 0xF9ull);
  u64 fg_polls = 0;
  usize fg_key = 0;
  bool in_flight = false;
  Point pt;
  auto fg_step = [&] {
    ++fg_polls;
    if (!in_flight) {
      fg_key = static_cast<usize>(fg_rng.next_below(keys));
      VNROS_CHECK(reader.start(BsOp::kGet, "ae" + std::to_string(fg_key)).ok());
      in_flight = true;
      return;
    }
    auto reply = reader.poll();
    if (!reply) {
      return;
    }
    in_flight = false;
    ++pt.fg_reads;
    const std::optional<std::vector<u8>>& held = b_holds[fg_key];
    const bool matches = reply->ok() ? held.has_value() && reply->value().value == *held
                                     : reply->error() == ErrorCode::kNotFound && !held;
    if (!matches) {
      ++pt.fg_bad;
    }
  };
  // The repairing node's pump: B serves, the reader steps, and both ends of
  // the reader's stream tick.
  auto pump = [&] {
    b.serve_once();
    fg_step();
    b_host.kernel.vtp().tick();
    fg_host.kernel.vtp().tick();
  };
  BlockStoreNode a(a_host.sys, kPortA, {}, pump);
  VNROS_CHECK(a.init().ok() && b.init().ok());

  Rng rng(seed);
  std::vector<u8> value(value_bytes);
  for (usize k = 0; k < keys; ++k) {
    for (auto& byte : value) {
      byte = static_cast<u8>(rng.next_u64());
    }
    std::string key = "ae" + std::to_string(k);
    VNROS_CHECK(a.apply_remote(key, value, k + 1, false).ok());
    VNROS_CHECK(b.apply_remote(key, value, k + 1, false).ok());
    b_holds[k] = value;
  }

  pt.divergent = std::max<usize>(static_cast<usize>(static_cast<double>(keys) * frac),
                                 frac > 0 ? 1 : 0);
  usize stride = pt.divergent == 0 ? 1 : std::max<usize>(keys / pt.divergent, 1);
  for (usize i = 0; i < pt.divergent; ++i) {
    const usize k = (i * stride) % keys;
    bool tomb = (i % 4) == 3;
    if (!tomb) {
      for (auto& byte : value) {
        byte = static_cast<u8>(rng.next_u64());
      }
    }
    VNROS_CHECK(b.apply_remote("ae" + std::to_string(k), tomb ? std::vector<u8>{} : value,
                               keys + 1 + i, tomb).ok());
    b_holds[k] = tomb ? std::nullopt : std::optional<std::vector<u8>>(value);
  }

  AntiEntropyConfig cfg;
  cfg.tokens_per_pass = ~u64{0} >> 1;  // the budget is not under test here
  AntiEntropyScheduler sched(a, cfg);

  auto sync_once = [&] {
    auto r = strategy == Strategy::kMerkle ? sched.sync_with(peer_b) : sched.sync_full(peer_b);
    VNROS_CHECK(r.ok());
  };
  if (strategy != Strategy::kNone) {
    sync_once();
    VNROS_CHECK(MerkleTree::build(a.list()).root() == MerkleTree::build(b.list()).root());
    pt.pass_bytes = sched.stats().bytes_sent + sched.stats().bytes_received;
    pt.pass_rpcs = sched.stats().rpcs;
    pt.pulled = sched.stats().pulled;
    sync_once();  // steady state: the pair is already converged
    pt.clean_bytes = sched.stats().bytes_sent + sched.stats().bytes_received - pt.pass_bytes;
  }
  while (fg_polls < window_polls) {  // equal-length foreground window per cell
    pump();
  }
  return pt;
}

}  // namespace
}  // namespace vnros

int main() {
  using namespace vnros;
  const bool quick = std::getenv("VNROS_BENCH_QUICK") != nullptr;
  const usize keys = quick ? 256 : 512;
  const usize value_bytes = 96;
  const u64 window_polls = quick ? 1024 : 4096;
  const u64 epoch_passes = 8;  // periodic passes per divergence event
  const std::vector<double> fractions = quick ? std::vector<double>{0.01, 0.25}
                                              : std::vector<double>{0.01, 0.05, 0.25};

  BenchJson json("ablate_anti_entropy");
  json.config("keys", static_cast<unsigned long long>(keys));
  json.config("value_bytes", static_cast<unsigned long long>(value_bytes));
  json.config("window_polls", static_cast<unsigned long long>(window_polls));
  json.config("epoch_passes", static_cast<unsigned long long>(epoch_passes));
  json.config("quick", quick);

  std::printf("# ablate_anti_entropy: repair bytes should track divergence, not keyspace\n");
  std::printf("# %8s %10s %9s %11s %11s %11s %8s\n", "strategy", "divergence", "divergent",
              "pass_bytes", "clean_bytes", "epoch_bytes", "fg_reads");

  double merkle_epoch_at_1pct = 0;
  double full_epoch_at_1pct = 0;
  double merkle_pass_at_1pct = 0;
  double full_pass_at_1pct = 0;
  u64 fg_bad = 0;

  for (Strategy strategy : {Strategy::kNone, Strategy::kMerkle, Strategy::kFull}) {
    const char* tag = strategy == Strategy::kNone    ? "none"
                      : strategy == Strategy::kMerkle ? "merkle"
                                                       : "full";
    for (double frac : fractions) {
      Point pt = run_cell(strategy, keys, frac, value_bytes, window_polls, 0xAB1A7Eull);
      if (pt.fg_bad != 0) {
        std::fprintf(stderr, "FAIL: %s at %.1f%%: %llu foreground reads were neither B's bytes "
                     "nor B's tombstone\n", tag, frac * 100.0,
                     static_cast<unsigned long long>(pt.fg_bad));
        fg_bad += pt.fg_bad;
      }
      // A repair epoch: the divergence arises once, the periodic loop runs
      // `epoch_passes` times — one repairing pass plus steady-state passes.
      u64 epoch_bytes = pt.pass_bytes + (epoch_passes - 1) * pt.clean_bytes;
      double x = frac * 100.0;
      std::printf("  %8s %9.1f%% %9zu %11llu %11llu %11llu %8llu\n", tag, x, pt.divergent,
                  static_cast<unsigned long long>(pt.pass_bytes),
                  static_cast<unsigned long long>(pt.clean_bytes),
                  static_cast<unsigned long long>(epoch_bytes),
                  static_cast<unsigned long long>(pt.fg_reads));
      std::string prefix = std::string(tag) + "_";
      json.row(prefix + "pass_bytes", x, static_cast<double>(pt.pass_bytes));
      json.row(prefix + "clean_bytes", x, static_cast<double>(pt.clean_bytes));
      json.row(prefix + "epoch_bytes", x, static_cast<double>(epoch_bytes));
      json.row(prefix + "pass_rpcs", x, static_cast<double>(pt.pass_rpcs));
      json.row(prefix + "pulled", x, static_cast<double>(pt.pulled));
      json.row(prefix + "fg_reads", x, static_cast<double>(pt.fg_reads));
      if (frac <= 0.011) {
        if (strategy == Strategy::kMerkle) {
          merkle_epoch_at_1pct = static_cast<double>(epoch_bytes);
          merkle_pass_at_1pct = static_cast<double>(pt.pass_bytes);
        } else if (strategy == Strategy::kFull) {
          full_epoch_at_1pct = static_cast<double>(epoch_bytes);
          full_pass_at_1pct = static_cast<double>(pt.pass_bytes);
        }
      }
    }
  }

  double epoch_ratio = merkle_epoch_at_1pct > 0 ? full_epoch_at_1pct / merkle_epoch_at_1pct : 0;
  double pass_ratio = merkle_pass_at_1pct > 0 ? full_pass_at_1pct / merkle_pass_at_1pct : 0;
  std::printf("# at 1%% divergence: full/merkle = %.1fx per repair pass, %.1fx per epoch\n",
              pass_ratio, epoch_ratio);
  json.row("full_over_merkle_pass_ratio", 1.0, pass_ratio);
  json.row("full_over_merkle_epoch_ratio", 1.0, epoch_ratio);
  json.write();
  return fg_bad == 0 ? 0 : 1;
}
