// The chaos harness (robustness counterpart of the app VCs): a multi-node
// block-store cluster driven by a seed-replayable adversarial schedule.
// Every node is a ring member (ClusterView): writes replicate with acked
// pushes and hints, the one replication protocol the benchmarks measure.
//
// Every source of nondeterminism — client op mix, crash points, partition
// cuts, fault-site arming, torn-write lengths, crash-survival of cached
// sectors — derives from ChaosConfig::seed, so any failing run replays
// exactly from the seed printed in the failure message.
//
// The schedule interleaves client operations with:
//   - node crashes (BlockDevice::crash with partial persistence and torn
//     sectors) followed by reboot + journal recovery at the same fabric
//     address (KernelConfig::link_addr); unrecoverable disks are re-imaged
//     (KernelConfig::format_on_recovery_failure) and repopulated over the
//     wire by Merkle anti-entropy passes against the surviving members,
//     which keep every block's write stamp;
//   - network partitions (Network::partition/heal) that the client's
//     failover policy must route around;
//   - fault-site arming: per-node disk read/write errors and torn writes,
//     global syscall kIoError/kNoMemory injection, frame-allocator OOM.
//
// After every `check_every` steps (and at the end) the runner quiesces —
// disarms every fault, heals every cut, drains the fabric — and checks the
// durability invariant:
//   1. no garbage: every block any node stores, and every value any get
//      returned, is byte-identical to some value the client actually wrote
//      to that key;
//   2. acked durability: for every key whose last client op was a
//      *successful* put, the acked bytes are present on at least one node
//      (keys touched by failed/timed-out ops become "uncertain" — any
//      historical value or absence is acceptable, but never garbage);
//   3. detectability: reads never return bytes that fail the block CRC;
//   4. obs coherence: the nodes' obs counters stay mutually consistent across
//      crashes — replicas applied never exceed replicas pushed (the fabric
//      never duplicates), and read repairs never exceed corrupt reads;
//   5. stamps: every read's bytes are exactly those of the attempted write
//      that owns the read's write stamp (checked at op time).
//
// Heal mode (ChaosConfig::heal) layers the self-healing storage story on
// top: silent disk bit-rot, partition flap storms and sustained slow peers
// in the schedule, background Merkle anti-entropy, and at quiesce
// anti-entropy convergence + acknowledgement-gated tombstone GC checked
// against the "replicated sequenced register with quiesce points" spec —
// the converged state must carry the maximum acknowledged write sequence,
// deleted keys must stay deleted on every node (no resurrection), and all
// live members' Merkle roots must agree.
//
// The client's ops ride VTP streams — the plane the benchmark measures —
// and the runner's pump ticks every host's VTP stack: a crash resets the
// client's stream to that node (the client reconnects) and a partition
// stalls a stream mid-flight until it heals.
//
// The global span tracer runs armed for the whole schedule, timestamped by
// the client kernel's virtual clock, so the span trace replays
// bit-identically from the seed along with everything else.
#ifndef VNROS_SRC_APP_CHAOS_H_
#define VNROS_SRC_APP_CHAOS_H_

#include <iosfwd>
#include <string>

#include "src/base/types.h"

namespace vnros {

struct ChaosConfig {
  u64 seed = 1;
  usize nodes = 3;            // block-store replicas (>= 2 for repair paths)
  usize steps = 250;          // schedule steps (each is one client op + events)
  usize keys = 10;            // key universe (small: forces overwrite churn)
  usize check_every = 50;     // quiesce + invariant check cadence

  // Per-step partition probability, parts-per-million. The other base
  // schedule rates, the value size bound and the crash severity are the
  // same in every preset: constants in chaos.cc.
  u64 partition_ppm = 25'000;  // cut a random (node|client, node) pair

  // --- Placement and membership churn --------------------------------------
  // The `nodes` initial members form one consistent-hash ring
  // (ClusterView::of: 32 points per member). Membership events are off by
  // default, and every gate below checks its own ppm before touching the
  // schedule Rng, so a preset without churn draws exactly the schedule it
  // would without these knobs.
  usize replication = 2;       // ring owners per key (capped by cluster size)
  usize max_nodes = 6;         // join cap (slots are never reused)
  u64 join_ppm = 0;            // per-step: boot a new member + rebalance all
  u64 leave_ppm = 0;           // per-step: graceful leave (aborts if it would
                               // strand a shard: rebalance reports failed > 0)
  u64 delay_ppm = 0;           // per-step: arm a one-shot serve_delay stall
  u64 delay_polls_max = 80;    // stall length drawn from [8, delay_polls_max]
  u64 admission_rate_ppm = 0;  // tokens/step granted to every node (0 = gate off)
  u64 admission_burst = 4;     // admission bucket capacity, in ops

  // --- Heal mode (self-healing storage: tombstones + Merkle anti-entropy) --
  // Off by default; every heal event is gated on `heal` *before* touching the
  // schedule Rng, so legacy and churn seed matrices replay unchanged.
  bool heal = false;           // heal events + background Merkle passes + quiesce
                               // convergence, tombstone GC and heal invariants
  bool del_heavy = false;      // client mix 5/3/2 put/get/del instead of 6/3/1
  u64 bit_rot_ppm = 0;         // per-step: arm one-shot silent disk corruption
  u64 bit_rot_bytes_max = 8;   // flipped bytes per fire, drawn from [1, max]
  u64 flap_ppm = 0;            // per-step: start a partition flap storm (a pair
                               // toggles cut/healed every step for its length)
  u64 flap_toggles_max = 8;    // storm length drawn from [2, flap_toggles_max]
  u64 slow_peer_ppm = 0;       // per-step: start a sustained slow-peer spell
                               // (serve_delay re-arms on EVERY serve: latency
                               // asymmetry, not a one-shot hiccup)
  u64 slow_peer_polls = 12;    // stall per serve during the spell
  u64 slow_spell_steps_max = 40;  // spell length drawn from [8, max]
  usize gc_every = 2;          // run tombstone GC at every Nth quiesce (0 = never)

  // --- Ring faults (async submission/completion syscall rings) --------------
  // Off by default; both draws are gated on a nonzero ppm *before* touching
  // the schedule Rng, so every existing seed matrix replays unchanged. All
  // serve/repair/client traffic rides SysRings, so these sites sit on the
  // cluster's whole syscall data plane.
  u64 ring_submit_fault_ppm = 0;    // per-step: arm one-shot syscall/ring_submit
                                    // (an accepted SQE completes immediately
                                    // with the injected error, exactly once)
  u64 ring_complete_fault_ppm = 0;  // per-step: arm one-shot syscall/ring_complete
                                    // (one pending op is deferred a reactor
                                    // pass — completion jitter, not an error)
};

struct ChaosReport {
  bool ok = false;
  std::string message;  // on failure: what broke, at which step, which seed
  u64 seed = 0;

  // Schedule accounting (what the run actually exercised).
  u64 ops = 0;
  u64 ops_ok = 0;
  u64 ops_failed = 0;   // client-visible failures (timeouts, injected errors)
  u64 crashes = 0;
  u64 reimages = 0;     // recoveries that failed and fell back to re-format
  u64 partitions = 0;
  u64 heals = 0;
  u64 faults_armed = 0;
  u64 fault_fires = 0;  // FaultRegistry fires attributable to this run
  u64 read_repairs = 0;
  // Cumulative across node reboots (obs counters are per-instance, so the
  // runner accumulates each incarnation's totals at crash/finalize time).
  u64 replicas_pushed = 0;
  u64 replicas_applied = 0;
  u64 corrupt_reads = 0;
  u64 spans_recorded = 0;  // span tracer events committed during the run
  u64 client_failovers = 0;
  u64 client_retries = 0;
  u64 client_reconnects = 0;  // client streams re-opened after a typed error
  u64 checks = 0;       // invariant checkpoints passed

  // Membership, handoff and admission accounting.
  u64 joins = 0;
  u64 leaves = 0;
  u64 aborted_leaves = 0;  // graceful leaves that would have stranded a shard
  u64 rebalanced = 0;      // shards moved by join/leave rebalancing
  u64 hints_written = 0;
  u64 hints_delivered = 0;
  u64 sheds = 0;           // requests refused by admission control
  u64 stale_ignored = 0;   // replica writes refused as older than the local copy
  u64 delays_armed = 0;    // serve_delay stalls injected

  // Self-healing accounting. The ae_* fields count heal mode's background
  // and quiesce passes plus every preset's re-image bootstraps.
  u64 tombstones_written = 0;  // sequenced deletes persisted (all incarnations)
  u64 tombstones_gced = 0;     // tombstones reclaimed after shard-wide acks
  u64 hints_dropped = 0;       // hints evicted by the per-peer cap
  u64 bit_rot_reads = 0;       // reads that silently returned flipped bytes
  u64 flaps = 0;               // partition flap storms started
  u64 slow_spells = 0;         // sustained slow-peer spells started
  u64 ae_passes = 0;           // Merkle exchanges run
  u64 ae_clean_passes = 0;     // exchanges where the roots already matched
  u64 ae_pulled = 0;           // blocks repaired by pulling from a peer
  u64 ae_pushed = 0;           // blocks repaired by pushing to a peer
  u64 ae_bytes = 0;            // repair wire bytes (requests + replies)
  u64 lin_reads_checked = 0;   // reads whose bytes matched the write owning their stamp
  u64 acked_floor_drops = 0;   // keys downgraded after re-image data loss

  // Two runs of one config must agree on every field (the determinism
  // contract that makes a printed seed useful).
  bool operator==(const ChaosReport&) const = default;
};

// Writes every field on one line as `name=value` pairs, in declaration
// order. gtest finds it through ADL, so a failed comparison prints both
// reports whole.
void PrintTo(const ChaosReport& report, std::ostream* os);

// Runs one seeded chaos schedule to completion (or first invariant
// violation). Uses the process-global FaultRegistry; do not run two
// ChaosRunners concurrently in one process.
ChaosReport run_chaos(const ChaosConfig& config);

}  // namespace vnros

#endif  // VNROS_SRC_APP_CHAOS_H_
