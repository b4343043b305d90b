#include "src/app/chaos.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/app/anti_entropy.h"
#include "src/app/blockstore.h"
#include "src/app/sim_cluster.h"
#include "src/base/contracts.h"
#include "src/base/fault.h"
#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/hw/block_device.h"
#include "src/hw/network.h"
#include "src/kernel/machine.h"
#include "src/obs/registry.h"

namespace vnros {
namespace {

constexpr u64 kDiskSectors = 16384;
constexpr usize kMaxValueBytes = 400;

// Per-step event probabilities, parts-per-million.
constexpr u64 kCrashPpm = 20'000;         // crash + reboot a random node
constexpr u64 kHealPpm = 40'000;          // heal a random active cut
constexpr u64 kDiskFaultPpm = 30'000;     // arm a one-shot disk fault on a random node
constexpr u64 kTornWritePpm = 10'000;     // arm a one-shot torn write on a random node
constexpr u64 kSyscallFaultPpm = 15'000;  // arm one-shot syscall kIoError injection
constexpr u64 kOomPpm = 8'000;            // arm one-shot frame-allocator OOM + probe it

// Crash severity: chance each unflushed sector survives, and chance a
// surviving unflushed sector is torn to a prefix.
constexpr u64 kPersistPpm = 500'000;
constexpr u64 kTornCrashPpm = 150'000;

// Member i's fault sites: its disk's under "chaos/disk<i>" and its node's
// serve_delay under "chaos/node<i>".
std::string disk_prefix(usize i) { return "chaos/disk" + std::to_string(i); }
std::string node_prefix(usize i) { return "chaos/node" + std::to_string(i); }

// What the client knows about one key: every write it attempted (acked or
// not — the put bytes are the universe of non-garbage values), and the
// bytes it is certain of. The system under test is a replicated sequenced
// register — not strictly linearizable mid-partition (an acked write can
// leave a hinted-unreachable replica stale, so reads may serve old values)
// — so the sound checkable spec is:
//   - every read that returns (bytes, seq) must return EXACTLY the bytes of
//     an attempted write with that stamp (failed writes count: at-least-once
//     delivery means they may have landed);
//   - at every quiesce no node stores bytes the client never put under that
//     key, and the certain bytes are readable on at least one node;
//   - at heal-mode quiesce (fabric healed, hints drained, anti-entropy
//     converged) the surviving state must carry a stamp >= every
//     acknowledged write's, and an acknowledged delete with no later
//     attempted write must read as absent on every node (no resurrection);
//   - re-image data loss may drop the certain bytes and lower the
//     acknowledged floor, but only when no surviving copy holds them.
struct KeyHistory {
  struct Write {
    u64 seq = 0;
    std::vector<u8> bytes;
    bool tombstone = false;
    bool acked = false;
  };
  std::vector<Write> writes;  // every attempted write, in invoke order
  u64 acked_floor = 0;        // highest acknowledged stamp (0 = none)
  bool acked_is_del = false;  // the op at acked_floor was a delete
  // Set only while the latest write to the key was a successful put.
  std::optional<std::vector<u8>> certain;

  // Whether some attempted put carried exactly `v`.
  bool was_put(const std::vector<u8>& v) const {
    for (const auto& w : writes) {
      if (!w.tombstone && w.bytes == v) {
        return true;
      }
    }
    return false;
  }
  const Write* find_seq(u64 seq) const {
    for (const auto& w : writes) {
      if (w.seq == seq) {
        return &w;
      }
    }
    return nullptr;
  }
  u64 max_attempted_seq() const {
    u64 m = 0;
    for (const auto& w : writes) {
      m = std::max(m, w.seq);
    }
    return m;
  }
};

class ChaosRunner {
 public:
  explicit ChaosRunner(const ChaosConfig& cfg) : cfg_(cfg), sched_rng_(cfg.seed) {
    VNROS_CHECK(cfg_.nodes >= 2);
    report_.seed = cfg_.seed;
  }

  ChaosReport run() {
    auto& reg = FaultRegistry::global();
    reg.disarm_all();
    reg.reset_stats();
    reg.reseed(cfg_.seed ^ 0xFA17'FA17ull);

    boot_cluster();

    // Arm the span tracer on the client kernel's virtual clock for the whole
    // schedule: spans (blockstore RPCs, fs journal commits, VTP retransmits)
    // replay bit-identically from the seed like everything else.
    SpanTracer& tracer = ObsRegistry::global().tracer();
    const u64 spans_before = tracer.recorded();
    tracer.set_clock(&client_host_->kernel.clock());
    tracer.set_enabled(true);

    for (usize step = 0; step < cfg_.steps && report_.message.empty(); ++step) {
      schedule_events(step);
      if (!report_.message.empty()) {
        break;
      }
      client_op(step);
      if ((step + 1) % cfg_.check_every == 0) {
        quiesce_and_check(step);
      }
    }
    if (report_.message.empty()) {
      quiesce_and_check(cfg_.steps);
    }

    finalize_report();
    report_.spans_recorded = tracer.recorded() - spans_before;
    tracer.set_enabled(false);
    tracer.set_clock(nullptr);
    reg.disarm_all();
    return report_;
  }

 private:
  // The cluster: member i boots on its own seeded disk, with its fault
  // sites under disk_prefix(i) and node_prefix(i), and the client machine
  // joins the fabric last. Every client poll is one rig world step.
  void boot_cluster() {
    const u64 seed = cfg_.seed;
    rig_ = std::make_unique<SimCluster>(
        cfg_.nodes, std::min(cfg_.replication, cfg_.nodes), FabricConfig{}, [seed](usize i) {
          return SimCluster::MemberSpec{
              std::make_unique<BlockDevice>(kDiskSectors, seed * 1000003ull + i, disk_prefix(i)),
              node_prefix(i)};
        });
    for (usize i = 0; i < cfg_.nodes; ++i) {
      equip(i);
    }
    client_host_ = std::make_unique<Machine>(KernelConfig{.network = &rig_->net()});

    RetryPolicy policy;
    policy.max_attempts = 6;
    policy.polls_per_attempt = 48;
    policy.backoff_base_polls = 4;
    policy.backoff_max_polls = 64;
    policy.jitter_ppm = 250'000;
    policy.deadline_polls = 2'000;
    client_ = std::make_unique<BlockStoreClient>(client_host_->sys, rig_->view(),
                                                 [this] { pump(); }, policy);
  }

  // Equips a freshly booted member: its admission bucket and its Merkle
  // repair scheduler.
  void equip(usize i) {
    BlockStoreNode& node = rig_->node(i);
    if (cfg_.admission_rate_ppm > 0) {
      AdmissionConfig ac;
      ac.enabled = true;
      ac.burst_ops = cfg_.admission_burst;
      node.set_admission(ac);
      node.grant_tokens(cfg_.admission_burst * 1'000'000);  // boot with a full bucket
    }
    // Merkle repair. Heal mode ticks it once per schedule step, so a peer
    // gets a background pass every ~64-96 steps; every preset uses it to
    // re-image a wiped disk over the wire. The seed is a pure function of
    // the run seed and the member, so a rebooted incarnation re-derives the
    // same repair schedule and the whole run stays seed-replayable. Its
    // RPCs are the node's peer calls, waiting on the node's pump.
    AntiEntropyConfig ae;
    ae.interval_polls = 64;
    ae.jitter_polls = 32;
    ae.rng_seed = cfg_.seed ^ (0xAE00'0000ull + static_cast<u64>(i) * 0x9E37ull);
    ae_.resize(rig_->size());
    ae_[i] = std::make_unique<AntiEntropyScheduler>(node, ae);
  }

  // The client's world step (SimCluster::pump).
  void pump() { rig_->pump(*client_host_); }

  usize active_count() const {
    usize n = 0;
    for (usize i = 0; i < rig_->size(); ++i) {
      if (rig_->active(i)) {
        ++n;
      }
    }
    return n;
  }

  // Picks a uniformly random active member. Without membership events every
  // member is active forever, so this draws exactly the stream the fixed
  // seed matrix was recorded against.
  usize pick_active() {
    std::vector<usize> idx;
    for (usize i = 0; i < rig_->size(); ++i) {
      if (rig_->active(i)) {
        idx.push_back(i);
      }
    }
    return idx[sched_rng_.next_below(idx.size())];
  }

  // The fabric addresses a cut or a flap storm may pick: every active
  // member's, then the client's.
  std::vector<LinkAddr> cut_ends() const {
    std::vector<LinkAddr> ends;
    for (usize i = 0; i < rig_->size(); ++i) {
      if (rig_->active(i)) {
        ends.push_back(rig_->addr(i));
      }
    }
    ends.push_back(client_host_->kernel.net_addr());
    return ends;
  }

  // --- Adversarial events ---------------------------------------------------

  void schedule_events(usize step) {
    auto& reg = FaultRegistry::global();
    if (cfg_.admission_rate_ppm > 0) {
      // The admission clock: one tick of tokens per schedule step. Ops that
      // outrun the rate are shed with kOverloaded and absorbed by the
      // client's backpressure ladder (or fail, leaving the key uncertain).
      for (usize i = 0; i < rig_->size(); ++i) {
        if (rig_->active(i)) {
          rig_->node(i).grant_tokens(cfg_.admission_rate_ppm);
        }
      }
    }
    if (sched_rng_.chance_ppm(kCrashPpm)) {
      crash_node(pick_active(), step);
      if (!report_.message.empty()) {
        return;
      }
    }
    if (sched_rng_.chance_ppm(cfg_.partition_ppm)) {
      // Cut a random pair among {active nodes, client}.
      std::vector<LinkAddr> ends = cut_ends();
      LinkAddr a = ends[sched_rng_.next_below(ends.size())];
      LinkAddr b = ends[sched_rng_.next_below(ends.size())];
      if (a != b && !rig_->net().partitioned(a, b)) {
        rig_->net().partition(a, b);
        cuts_.push_back({a, b});
        ++report_.partitions;
      }
    }
    if (!cuts_.empty() && sched_rng_.chance_ppm(kHealPpm)) {
      usize idx = sched_rng_.next_below(cuts_.size());
      rig_->net().heal(cuts_[idx].first, cuts_[idx].second);
      cuts_.erase(cuts_.begin() + static_cast<isize>(idx));
      ++report_.heals;
    }
    FaultSpec one_shot;
    one_shot.probability_ppm = 1'000'000;
    one_shot.one_shot = true;
    if (sched_rng_.chance_ppm(kDiskFaultPpm)) {
      const usize i = pick_active();
      const char* kind = sched_rng_.chance_ppm(500'000) ? "/write_error" : "/read_error";
      reg.arm(disk_prefix(i) + kind, one_shot);
      ++report_.faults_armed;
    }
    if (sched_rng_.chance_ppm(kTornWritePpm)) {
      reg.arm(disk_prefix(pick_active()) + "/torn_write", one_shot);
      ++report_.faults_armed;
    }
    if (sched_rng_.chance_ppm(kSyscallFaultPpm)) {
      reg.arm("syscall/io_error", one_shot);
      ++report_.faults_armed;
    }
    if (cfg_.ring_submit_fault_ppm > 0 && sched_rng_.chance_ppm(cfg_.ring_submit_fault_ppm)) {
      // Fires on the next accepted SQE anywhere in the cluster (the nodes'
      // serve pools and repair RPCs; the client reads its streams directly):
      // it completes immediately with the injected error instead of executing. Every ring user re-arms its
      // parked receives, so the op is absorbed like a dropped datagram.
      reg.arm("syscall/ring_submit", one_shot);
      ++report_.faults_armed;
    }
    if (cfg_.ring_complete_fault_ppm > 0 &&
        sched_rng_.chance_ppm(cfg_.ring_complete_fault_ppm)) {
      // Fires on the next pending ring op: its execution is deferred one
      // reactor pass (completion jitter). Correctness must not depend on
      // completions landing on the earliest possible pass.
      reg.arm("syscall/ring_complete", one_shot);
      ++report_.faults_armed;
    }
    if (sched_rng_.chance_ppm(kOomPpm)) {
      reg.arm("frame_alloc/oom", one_shot);
      ++report_.faults_armed;
      // Steady-state block-store traffic allocates no frames, so probe the
      // site from the client host: a small mapping that either succeeds (and
      // is unmapped) or absorbs the injected kNoMemory.
      auto probe = client_host_->sys.mmap(4096, /*writable=*/true);
      if (probe.ok()) {
        (void)client_host_->sys.munmap(probe.value());
      }
    }
    // Membership and stall events next, each gated on its own ppm *before*
    // touching the schedule Rng, so a preset that leaves them at 0 (legacy)
    // draws no schedule numbers for them.
    if (cfg_.join_ppm > 0 && rig_->size() < cfg_.max_nodes &&
        sched_rng_.chance_ppm(cfg_.join_ppm)) {
      join_node(step);
    }
    if (cfg_.leave_ppm > 0 && active_count() > std::max<usize>(2, rig_->view().replication) &&
        sched_rng_.chance_ppm(cfg_.leave_ppm)) {
      leave_node(step);
    }
    if (cfg_.delay_ppm > 0 && sched_rng_.chance_ppm(cfg_.delay_ppm)) {
      const usize i = pick_active();
      FaultSpec stall;
      stall.probability_ppm = 1'000'000;
      stall.one_shot = true;
      stall.delay = sched_rng_.next_range(8, cfg_.delay_polls_max);
      reg.arm(node_prefix(i) + "/serve_delay", stall);
      ++report_.faults_armed;
      ++report_.delays_armed;
    }
    // Heal-mode events last, each gated on `heal` *before* touching the
    // schedule Rng, so legacy and churn configs draw their exact streams.
    if (cfg_.heal && cfg_.bit_rot_ppm > 0 && sched_rng_.chance_ppm(cfg_.bit_rot_ppm)) {
      // Silent media decay: the next read of some sector returns flipped
      // bytes with no I/O error. Only the block CRC stands between this and
      // serving garbage.
      const usize i = pick_active();
      FaultSpec rot;
      rot.probability_ppm = 1'000'000;
      rot.one_shot = true;
      rot.corrupt_bytes = sched_rng_.next_range(1, cfg_.bit_rot_bytes_max);
      reg.arm(disk_prefix(i) + "/bit_rot", rot);
      ++report_.faults_armed;
    }
    if (cfg_.heal) {
      if (cfg_.flap_ppm > 0 && sched_rng_.chance_ppm(cfg_.flap_ppm)) {
        start_flap();
      }
      advance_flaps();
      if (cfg_.slow_peer_ppm > 0 && sched_rng_.chance_ppm(cfg_.slow_peer_ppm)) {
        start_slow_spell(step);
      }
      expire_slow_spells(step);
      for (usize i = 0; i < rig_->size(); ++i) {
        if (rig_->active(i) && ae_[i]) {
          ae_[i]->tick();
        }
      }
    }
  }

  // A flap storm: one endpoint pair toggles cut/healed on every schedule step
  // until its toggle budget runs out — the pathological case for repair
  // protocols that assume a partition is either up or down for a while.
  void start_flap() {
    std::vector<LinkAddr> ends = cut_ends();
    LinkAddr a = ends[sched_rng_.next_below(ends.size())];
    LinkAddr b = ends[sched_rng_.next_below(ends.size())];
    usize toggles = sched_rng_.next_range(2, cfg_.flap_toggles_max);
    if (a == b) {
      return;  // degenerate draw: the storm fizzles (rng already consumed)
    }
    flaps_.push_back(Flap{a, b, toggles, false});
    ++report_.flaps;
  }

  void advance_flaps() {
    for (auto it = flaps_.begin(); it != flaps_.end();) {
      if (it->cut) {
        rig_->net().heal(it->a, it->b);
        it->cut = false;
      } else {
        rig_->net().partition(it->a, it->b);
        it->cut = true;
      }
      if (--it->toggles_left == 0) {
        if (it->cut) {
          rig_->net().heal(it->a, it->b);
        }
        it = flaps_.erase(it);
      } else {
        ++it;
      }
    }
  }

  // A sustained slow peer: serve_delay re-arms on EVERY serve for the spell's
  // length — latency asymmetry (one member consistently slower than the
  // others), not the one-shot hiccup the churn schedule injects.
  void start_slow_spell(usize step) {
    usize i = pick_active();
    usize len = static_cast<usize>(sched_rng_.next_range(8, cfg_.slow_spell_steps_max));
    FaultSpec spell;
    spell.probability_ppm = 1'000'000;
    spell.one_shot = false;
    spell.delay = cfg_.slow_peer_polls;
    FaultRegistry::global().arm(node_prefix(i) + "/serve_delay", spell);
    slow_until_[i] = step + len;
    ++report_.slow_spells;
    ++report_.faults_armed;
  }

  void expire_slow_spells(usize step) {
    for (auto it = slow_until_.begin(); it != slow_until_.end();) {
      if (step >= it->second || !rig_->active(it->first)) {
        FaultRegistry::global().disarm(node_prefix(it->first) + "/serve_delay");
        it = slow_until_.erase(it);
      } else {
        ++it;
      }
    }
  }

  // Boots a brand-new member mid-schedule: the joiner starts with the grown
  // view; every pre-existing member rebalances against it, streaming the
  // shards whose owner set now includes the joiner (in-flight client ops keep
  // pumping underneath via the nodes' pump callbacks).
  void join_node(usize step) {
    const usize i = rig_->join();  // the joiner boots into the grown view
    equip(i);
    for (usize j = 0; j < rig_->size(); ++j) {
      if (j != i && rig_->active(j)) {
        rebalance_member(j, step);
      }
    }
    client_->set_cluster(rig_->view());
    ++report_.joins;
    VNROS_LOG_DEBUG("chaos", "node %zu joined at step %zu", i, step);
  }

  // Graceful leave: the leaver rebalances into a view without itself, which
  // moves (acked) every shard it holds to the surviving owners. If any shard
  // could not be acked anywhere (partition, injected faults), the leave is
  // ABORTED — the member stays, keeping its data — rather than risking the
  // last intact copy.
  void leave_node(usize step) {
    usize i = pick_active();
    auto moved = rig_->node(i).rebalance(rig_->without(i));
    if (!moved.ok() || moved.value().failed > 0) {
      rig_->node(i).set_cluster_view(rig_->view());  // restore membership belief
      ++report_.aborted_leaves;
      VNROS_LOG_DEBUG("chaos", "node %zu leave aborted at step %zu", i, step);
      return;
    }
    harvest_node_stats(i);
    harvest_ae_stats(i);
    auto& reg = FaultRegistry::global();
    reg.disarm_prefix(disk_prefix(i));
    reg.disarm(node_prefix(i) + "/serve_delay");
    ae_[i].reset();
    rig_->leave(i);
    for (usize j = 0; j < rig_->size(); ++j) {
      if (rig_->active(j)) {
        rebalance_member(j, step);
      }
    }
    client_->set_cluster(rig_->view());
    ++report_.leaves;
    VNROS_LOG_DEBUG("chaos", "node %zu left at step %zu", i, step);
  }

  // One member adopts the runner's current view and moves its shards.
  // Errors (an injected fault mid-rebalance) are survivable: the member has
  // adopted the view and keeps any block it failed to move, so the next
  // quiesce still finds every acked byte somewhere.
  void rebalance_member(usize j, usize step) {
    auto st = rig_->node(j).rebalance(rig_->view());
    if (!st.ok()) {
      VNROS_LOG_DEBUG("chaos", "node %zu rebalance error at step %zu: %s", j, step,
                      error_name(st.error()));
    }
  }

  void crash_node(usize i, usize step) {
    auto& reg = FaultRegistry::global();
    ++report_.crashes;

    // Global (per-process) sites are always quiesced across a reboot; the
    // node's own disk sites usually are too, but some crashes reboot with
    // them still armed — recovery must then either survive the fault or
    // fail loudly into the re-image + anti-entropy path.
    reg.disarm("syscall/io_error");
    reg.disarm("syscall/no_memory");
    reg.disarm("frame_alloc/oom");
    const bool dirty_reboot = sched_rng_.chance_ppm(300'000);
    if (!dirty_reboot) {
      reg.disarm_prefix(disk_prefix(i));
    }
    // A crash kills the (possibly stalled) serving process; its armed
    // serve_delay dies with it.
    reg.disarm(node_prefix(i) + "/serve_delay");

    harvest_node_stats(i);
    harvest_ae_stats(i);
    ae_[i].reset();
    // Power loss: unflushed sectors survive (or tear) by the crash dice,
    // then the member reboots at its address; an unrecoverable journal is
    // re-formatted by the kernel's fallback.
    rig_->disk(i).crash(kPersistPpm, kTornCrashPpm);
    const bool recoverable = rig_->reboot(i);
    equip(i);

    if (!recoverable) {
      ++report_.reimages;
      VNROS_LOG_DEBUG("chaos", "node %zu unrecoverable at step %zu: re-imaged", i, step);
      merkle_bootstrap(i);
      downgrade_lost_keys();
    }
  }

  // Re-image bootstrap: Merkle passes against every live peer pull the
  // surviving copies back over the wire with their write stamps intact, so
  // the stamp histories stay valid. Best-effort mid-schedule: a partitioned
  // or shedding peer just leaves divergence behind (in heal mode the
  // background scheduler and the quiesce convergence loop finish it; the
  // durability check needs only one intact copy).
  void merkle_bootstrap(usize i) {
    if (!sync_with_peers(i)) {
      (void)sync_with_peers(i);  // a second round, as far as the fabric allows
    }
  }

  // One Merkle pass from member i against every other live member, each
  // peer's admission bucket refilled first (repair here is not an overload
  // test). Returns whether every pass found matching roots.
  bool sync_with_peers(usize i) {
    bool all_clean = true;
    for (usize j = 0; j < rig_->size(); ++j) {
      if (j == i || !rig_->active(j)) {
        continue;
      }
      rig_->node(j).grant_tokens(64 * 1'000'000);
      const u64 clean_before = ae_[i]->stats().clean_passes;
      (void)ae_[i]->sync_with(rig_->peer(j));
      if (ae_[i]->stats().clean_passes != clean_before + 1) {
        all_clean = false;
      }
    }
    return all_clean;
  }

  // A re-image destroys everything on one disk, so a key's acknowledged
  // state may have lived only on the re-imaged node (no other owner acked
  // it, and its hints died with the disk). That is legitimate data loss
  // under total-disk failure, not a correctness bug: certain bytes that no
  // node still serves become uncertain, and an acknowledged stamp that no
  // surviving inventory entry (live or tombstone) reaches drops to zero —
  // counted in acked_floor_drops so the report shows how often the
  // schedule forced it.
  void downgrade_lost_keys() {
    std::vector<std::map<std::string, std::vector<u8>>> views;
    std::map<std::string, u64> best;  // highest surviving stamp per key
    for (usize i = 0; i < rig_->size(); ++i) {
      if (!rig_->active(i)) {
        continue;
      }
      views.push_back(rig_->node(i).view());
      for (const auto& e : rig_->node(i).list()) {
        best[e.key] = std::max(best[e.key], e.seq);
      }
    }
    for (auto& [key, h] : histories_) {
      if (h.certain && !held(views, key, *h.certain)) {
        VNROS_LOG_DEBUG("chaos", "certain key %s lost with its only replica", key.c_str());
        h.certain.reset();
      }
      if (h.acked_floor != 0 && best[key] < h.acked_floor) {
        VNROS_LOG_DEBUG("chaos", "acked floor of %s lost with its only replica", key.c_str());
        h.acked_floor = 0;
        h.acked_is_del = false;
        ++report_.acked_floor_drops;
      }
    }
  }

  // Whether some node's view holds exactly `bytes` for `key`.
  static bool held(const std::vector<std::map<std::string, std::vector<u8>>>& views,
                   const std::string& key, const std::vector<u8>& bytes) {
    for (const auto& view : views) {
      auto it = view.find(key);
      if (it != view.end() && it->second == bytes) {
        return true;
      }
    }
    return false;
  }

  // --- Client workload ------------------------------------------------------

  void client_op(usize step) {
    std::string key = "key" + std::to_string(sched_rng_.next_below(cfg_.keys));
    ++report_.ops;
    // One draw decides the op; the cut points move for the delete-heavy mix
    // (5/3/2 put/get/del instead of 6/3/1) without touching the rng stream,
    // so legacy seeds replay unchanged.
    u64 kind = sched_rng_.next_below(10);
    const u64 put_cut = cfg_.del_heavy ? 5 : 6;
    const u64 get_cut = cfg_.del_heavy ? 8 : 9;
    if (kind < put_cut) {
      std::vector<u8> value(sched_rng_.next_range(1, kMaxValueBytes));
      for (auto& b : value) {
        b = static_cast<u8>(sched_rng_.next_u64());
      }
      auto r = client_->put(key, value);
      record_write(key, std::move(value), /*tombstone=*/false, r.ok());
    } else if (kind < get_cut) {
      auto r = client_->get_with_seq(key);
      if (r.ok()) {
        ++report_.ops_ok;
        check_read(step, key, r.value().first, r.value().second);
      } else {
        ++report_.ops_failed;  // kNotFound/corrupt/timeout: all acceptable
      }
    } else {
      auto r = client_->del(key);
      record_write(key, {}, /*tombstone=*/true, r.ok());
    }
  }

  // Every attempted write is counted in the report and lands in the key's
  // history under the stamp the client assigned it (retries reuse the stamp,
  // so one op is one history entry). Acked writes raise the key's
  // acknowledged floor. Only an acked put leaves the key certain: an unacked
  // put may or may not have applied anywhere (it may even have applied and
  // destroyed the previous copy mid-overwrite), and after any delete, acked
  // or not, stale replicas may still hold (and later serve or repair from)
  // older values.
  void record_write(const std::string& key, std::vector<u8> value, bool tombstone, bool acked) {
    auto& h = histories_[key];
    const u64 seq = client_->last_write_seq();
    if (acked) {
      ++report_.ops_ok;
    } else {
      ++report_.ops_failed;
    }
    h.certain.reset();
    if (acked && !tombstone) {
      h.certain = value;
    }
    h.writes.push_back(KeyHistory::Write{seq, std::move(value), tombstone, acked});
    if (acked && seq > h.acked_floor) {
      h.acked_floor = seq;
      h.acked_is_del = tombstone;
    }
  }

  // Checked at op time: a read that returns (bytes, stamp) must return
  // EXACTLY the bytes of the attempted write that owns the stamp — stamps
  // are globally unique, so a mismatch means a node spliced bytes across
  // writes (or served a tombstone as data).
  void check_read(usize step, const std::string& key, const std::vector<u8>& bytes, u64 seq) {
    ++report_.lin_reads_checked;
    const auto& h = histories_[key];
    const KeyHistory::Write* w = h.find_seq(seq);
    if (w == nullptr) {
      fail(step, "lin: get(" + key + ") returned stamp " + std::to_string(seq) +
                     " that no write ever carried");
    } else if (w->tombstone) {
      fail(step, "lin: get(" + key + ") served bytes under delete stamp " + std::to_string(seq));
    } else if (w->bytes != bytes) {
      fail(step, "lin: get(" + key + ") bytes do not match the write at stamp " +
                     std::to_string(seq));
    }
  }

  // --- Invariant ------------------------------------------------------------

  void quiesce_and_check(usize step) {
    FaultRegistry::global().disarm_all();
    rig_->net().heal_all();
    cuts_.clear();
    flaps_.clear();        // heal_all() flattened the storms
    slow_until_.clear();   // disarm_all() ended the spells
    for (int i = 0; i < 256; ++i) {
      pump();  // drain every in-flight datagram through the servers
    }
    // Hinted-handoff convergence: with the fabric healed, a few delivery
    // passes must land every parked hint whose owner is still a member.
    // Quiesce is not an overload test, so refill admission buckets first.
    for (int round = 0; round < 4; ++round) {
      for (usize i = 0; i < rig_->size(); ++i) {
        if (rig_->active(i)) {
          rig_->node(i).grant_tokens(64 * 1'000'000);
          (void)rig_->node(i).deliver_hints();
        }
      }
      for (int i = 0; i < 32; ++i) {
        pump();
      }
    }
    if (cfg_.heal) {
      // Self-healing convergence: anti-entropy until every pair is clean,
      // then reclaim acknowledged tombstones (quiesce doubles as the
      // gc_grace barrier: the fabric is drained and every hint delivered, so
      // no stale datagram can race the reclaim), then converge again so a
      // member that missed a best-effort kTombstoneGc re-spreads its
      // tombstone instead of diverging.
      ++quiesces_;
      if (!ae_converge(step)) {
        return;
      }
      if (cfg_.gc_every > 0 && quiesces_ % cfg_.gc_every == 0) {
        run_tombstone_gc();
        if (!ae_converge(step)) {
          return;
        }
      }
      if (!check_heal_invariants(step)) {
        return;
      }
    }

    std::vector<std::map<std::string, std::vector<u8>>> views;
    for (usize i = 0; i < rig_->size(); ++i) {
      if (rig_->active(i)) {
        views.push_back(rig_->node(i).view());
      }
    }
    for (usize j = 0; j < views.size(); ++j) {
      for (const auto& [key, bytes] : views[j]) {
        auto h = histories_.find(key);
        if (h == histories_.end() || !h->second.was_put(bytes)) {
          fail(step, "node " + std::to_string(j) + " stores garbage for " + key);
          return;
        }
      }
    }
    for (const auto& [key, h] : histories_) {
      if (h.certain && !held(views, key, *h.certain)) {
        for (usize j = 0; j < rig_->size(); ++j) {
          if (!rig_->active(j)) {
            VNROS_LOG_DEBUG("chaos", "  member %zu: departed", j);
            continue;
          }
          auto local = rig_->node(j).get(key);
          VNROS_LOG_DEBUG("chaos", "  member %zu: get(%s) -> %s", j, key.c_str(),
                          local.ok() ? "stale bytes" : error_name(local.error()));
        }
        fail(step, "acked put of " + key + " readable on no node after quiesce");
        return;
      }
    }

    // Obs coherence across the cluster's whole history (incarnations are
    // accumulated at crash time). Every applied replica was pushed by some
    // peer — the runner's fabric never duplicates datagrams, so applications
    // can only lag, not lead — and every read repair was triggered by a
    // corrupt local read. Replica pushes, hint deliveries, handoffs and
    // anti-entropy pushes all leave a node through call_peer, which counts
    // each datagram, so the bound is exact.
    BlockStoreStats total = cumulative_stats();
    if (total.replicas_applied > total.replicas_pushed) {
      fail(step, "obs incoherence: " + std::to_string(total.replicas_applied) +
                     " replicas applied > " + std::to_string(total.replicas_pushed) +
                     " pushed");
      return;
    }
    if (total.read_repairs > total.corrupt_reads) {
      fail(step, "obs incoherence: " + std::to_string(total.read_repairs) +
                     " read repairs > " + std::to_string(total.corrupt_reads) +
                     " corrupt reads");
      return;
    }
    // Membership belief agreement: after churn quiesces, every live member
    // holds the same ring (version + order-insensitive fingerprint) as the
    // runner's authoritative view.
    const ClusterView& view = rig_->view();
    for (usize j = 0; j < rig_->size(); ++j) {
      if (!rig_->active(j)) {
        continue;
      }
      const BlockStoreNode& node = rig_->node(j);
      if (node.ring_version() != view.ring.version() ||
          node.ring_fingerprint() != view.ring.fingerprint()) {
        fail(step, "node " + std::to_string(j) + " ring belief diverged (version " +
                       std::to_string(node.ring_version()) + " vs " +
                       std::to_string(view.ring.version()) + ")");
        return;
      }
    }
    // Hint coherence: a delivered hint was once written (across all
    // incarnations — the same park-then-drain shape as pushed/applied).
    if (total.hints_delivered > total.hints_written) {
      fail(step, "obs incoherence: " + std::to_string(total.hints_delivered) +
                     " hints delivered > " + std::to_string(total.hints_written) + " written");
      return;
    }
    ++report_.checks;
  }

  // Runs Merkle exchanges between every ordered pair of live members until a
  // full round comes back clean (every pass found matching roots). Bounded:
  // with the fabric healed this converges in a handful of rounds — each pass
  // strictly raises some key's seq somewhere or is clean — so a round limit
  // that trips means repair itself is broken.
  bool ae_converge(usize step) {
    for (int round = 0; round < 8; ++round) {
      bool all_clean = true;
      for (usize i = 0; i < rig_->size(); ++i) {
        if (rig_->active(i) && ae_[i] && !sync_with_peers(i)) {
          all_clean = false;
        }
      }
      for (int i = 0; i < 32; ++i) {
        pump();
      }
      if (all_clean) {
        return true;
      }
    }
    fail(step, "anti-entropy failed to converge at quiesce");
    return false;
  }

  // Every live member reclaims its acknowledged tombstones. The first
  // member's pass usually clears the cluster (the ack round pushes the
  // tombstone to every peer and kTombstoneGc reclaims it there), leaving the
  // rest clean and cheap.
  void run_tombstone_gc() {
    for (usize i = 0; i < rig_->size(); ++i) {
      if (!rig_->active(i)) {
        continue;
      }
      for (usize j = 0; j < rig_->size(); ++j) {
        if (rig_->active(j)) {
          rig_->node(j).grant_tokens(64 * 1'000'000);
        }
      }
      (void)rig_->node(i).gc_tombstones(64);
      for (int poll = 0; poll < 32; ++poll) {
        pump();
      }
    }
  }

  bool check_heal_invariants(usize step) {
    // Converged means CONVERGED: every live member's Merkle root must agree
    // (quiesce anti-entropy runs whole-inventory passes between all pairs, so
    // at this point the inventories are mirrors).
    std::vector<std::vector<BlockKeyInfo>> invs;
    std::vector<usize> inv_member;
    for (usize j = 0; j < rig_->size(); ++j) {
      if (rig_->active(j)) {
        invs.push_back(rig_->node(j).list());
        inv_member.push_back(j);
      }
    }
    if (invs.empty()) {
      return true;
    }
    const u32 root0 = MerkleTree::build(invs[0]).root();
    for (usize k = 1; k < invs.size(); ++k) {
      if (MerkleTree::build(invs[k]).root() != root0) {
        fail(step, "merkle root of node " + std::to_string(inv_member[k]) +
                       " diverges from node " + std::to_string(inv_member[0]) +
                       " after anti-entropy");
        return false;
      }
    }
    // Roots agree, so invs[0] IS the converged cluster state. Check it
    // against every key's recorded history.
    std::map<std::string, const BlockKeyInfo*> converged;
    for (const auto& e : invs[0]) {
      converged[e.key] = &e;
    }
    for (const auto& [key, h] : histories_) {
      if (h.acked_floor == 0) {
        continue;  // nothing acknowledged (or the floor was lost to a re-image)
      }
      auto it = converged.find(key);
      if (it == converged.end()) {
        // Absent everywhere. Legal only if some attempted delete at or above
        // the floor may have landed and its tombstone has been reclaimed.
        bool del_covers = false;
        for (const auto& w : h.writes) {
          if (w.tombstone && w.seq >= h.acked_floor) {
            del_covers = true;
            break;
          }
        }
        if (!del_covers) {
          fail(step, "acked put of " + key + " vanished from the converged state");
          return false;
        }
        continue;
      }
      if (it->second->seq < h.acked_floor) {
        fail(step, "converged " + key + " at stamp " + std::to_string(it->second->seq) +
                       " older than acked floor " + std::to_string(h.acked_floor));
        return false;
      }
      if (h.acked_is_del && h.max_attempted_seq() <= h.acked_floor &&
          !it->second->tombstone) {
        fail(step, "resurrection: " + key + " live at stamp " +
                       std::to_string(it->second->seq) + " after acked delete at " +
                       std::to_string(h.acked_floor) + " with no later write");
        return false;
      }
    }
    return true;
  }

  void fail(usize step, const std::string& what) {
    char seed_hex[32];
    std::snprintf(seed_hex, sizeof(seed_hex), "0x%llx",
                  static_cast<unsigned long long>(cfg_.seed));
    report_.ok = false;
    report_.message = "chaos invariant violated at step " + std::to_string(step) + ": " + what +
                      " — replay with ChaosConfig{.seed = " + seed_hex + "}";
  }

  // Folds a node incarnation's obs counters into the run-cumulative totals.
  // Called right before a crash destroys the incarnation (its registry
  // counters stay put, but the rebooted node gets a fresh instance prefix)
  // and once per surviving node at finalize.
  void harvest_node_stats(usize i) {
    if (rig_->active(i)) {
      BlockStoreStats s = rig_->node(i).stats();
      report_.read_repairs += s.read_repairs;
      report_.replicas_pushed += s.replicas_pushed;
      report_.replicas_applied += s.replicas_applied;
      report_.corrupt_reads += s.corrupt_reads;
      report_.sheds += s.sheds;
      report_.stale_ignored += s.stale_ignored;
      report_.hints_written += s.hints_written;
      report_.hints_delivered += s.hints_delivered;
      report_.rebalanced += s.handoffs;
      report_.hints_dropped += s.hints_dropped;
      report_.tombstones_written += s.tombstones_written;
      report_.tombstones_gced += s.tombstones_gced;
    }
  }

  // Folds a repair scheduler's stats into the run totals (same lifecycle as
  // harvest_node_stats: at crash/leave before the incarnation dies, and once
  // per survivor at finalize).
  void harvest_ae_stats(usize i) {
    if (ae_[i]) {
      const RepairStats& s = ae_[i]->stats();
      report_.ae_passes += s.passes;
      report_.ae_clean_passes += s.clean_passes;
      report_.ae_pulled += s.pulled;
      report_.ae_pushed += s.pushed;
      report_.ae_bytes += s.bytes_sent + s.bytes_received;
    }
  }

  // Run-cumulative counter totals at this instant: everything harvested from
  // dead incarnations plus the live nodes' current values.
  BlockStoreStats cumulative_stats() const {
    BlockStoreStats total;
    total.replicas_pushed = report_.replicas_pushed;
    total.replicas_applied = report_.replicas_applied;
    total.corrupt_reads = report_.corrupt_reads;
    total.read_repairs = report_.read_repairs;
    total.sheds = report_.sheds;
    total.stale_ignored = report_.stale_ignored;
    total.hints_written = report_.hints_written;
    total.hints_delivered = report_.hints_delivered;
    for (usize i = 0; i < rig_->size(); ++i) {
      if (rig_->active(i)) {
        BlockStoreStats s = rig_->node(i).stats();
        total.replicas_pushed += s.replicas_pushed;
        total.replicas_applied += s.replicas_applied;
        total.corrupt_reads += s.corrupt_reads;
        total.read_repairs += s.read_repairs;
        total.sheds += s.sheds;
        total.stale_ignored += s.stale_ignored;
        total.hints_written += s.hints_written;
        total.hints_delivered += s.hints_delivered;
      }
    }
    return total;
  }

  void finalize_report() {
    for (usize i = 0; i < rig_->size(); ++i) {
      harvest_node_stats(i);
      harvest_ae_stats(i);
      // Devices outlive node incarnations, so bit-rot totals are read once
      // here instead of being harvested per reboot.
      report_.bit_rot_reads += rig_->disk(i).stats().bit_rot_reads;
    }
    report_.fault_fires = FaultRegistry::global().total_fires();
    report_.client_failovers = client_->retry_stats().failovers;
    report_.client_retries = client_->retry_stats().retries;
    report_.client_reconnects = client_->retry_stats().reconnects;
    if (report_.message.empty()) {
      report_.ok = true;
      report_.message = "chaos schedule completed, invariant intact";
    }
  }

  // A running partition flap storm: `(a, b)` toggles cut/healed once per
  // schedule step until the toggle budget is spent.
  struct Flap {
    LinkAddr a = 0;
    LinkAddr b = 0;
    usize toggles_left = 0;
    bool cut = false;
  };

  ChaosConfig cfg_;
  Rng sched_rng_;
  std::unique_ptr<SimCluster> rig_;  // its view is the runner's authoritative membership
  // Per member: Merkle repair (re-image bootstrap, and background passes in
  // heal mode); null while the member is down or after it left.
  std::vector<std::unique_ptr<AntiEntropyScheduler>> ae_;
  std::unique_ptr<Machine> client_host_;
  std::unique_ptr<BlockStoreClient> client_;
  std::vector<std::pair<LinkAddr, LinkAddr>> cuts_;
  std::vector<Flap> flaps_;              // heal mode: running flap storms
  std::map<usize, usize> slow_until_;    // heal mode: member -> spell expiry step
  std::map<std::string, KeyHistory> histories_;  // stamp-checker state
  usize quiesces_ = 0;                   // heal mode: GC cadence counter
  ChaosReport report_;
};

}  // namespace

ChaosReport run_chaos(const ChaosConfig& config) { return ChaosRunner(config).run(); }

void PrintTo(const ChaosReport& r, std::ostream* os) {
  *os << "ok=" << r.ok << " message=\"" << r.message << "\" seed=" << r.seed
      << " ops=" << r.ops << " ops_ok=" << r.ops_ok << " ops_failed=" << r.ops_failed
      << " crashes=" << r.crashes << " reimages=" << r.reimages
      << " partitions=" << r.partitions << " heals=" << r.heals
      << " faults_armed=" << r.faults_armed << " fault_fires=" << r.fault_fires
      << " read_repairs=" << r.read_repairs << " replicas_pushed=" << r.replicas_pushed
      << " replicas_applied=" << r.replicas_applied << " corrupt_reads=" << r.corrupt_reads
      << " spans_recorded=" << r.spans_recorded << " client_failovers=" << r.client_failovers
      << " client_retries=" << r.client_retries
      << " client_reconnects=" << r.client_reconnects << " checks=" << r.checks
      << " joins=" << r.joins << " leaves=" << r.leaves
      << " aborted_leaves=" << r.aborted_leaves << " rebalanced=" << r.rebalanced
      << " hints_written=" << r.hints_written << " hints_delivered=" << r.hints_delivered
      << " sheds=" << r.sheds << " stale_ignored=" << r.stale_ignored
      << " delays_armed=" << r.delays_armed << " tombstones_written=" << r.tombstones_written
      << " tombstones_gced=" << r.tombstones_gced << " hints_dropped=" << r.hints_dropped
      << " bit_rot_reads=" << r.bit_rot_reads << " flaps=" << r.flaps
      << " slow_spells=" << r.slow_spells << " ae_passes=" << r.ae_passes
      << " ae_clean_passes=" << r.ae_clean_passes << " ae_pulled=" << r.ae_pulled
      << " ae_pushed=" << r.ae_pushed << " ae_bytes=" << r.ae_bytes
      << " lin_reads_checked=" << r.lin_reads_checked
      << " acked_floor_drops=" << r.acked_floor_drops;
}

}  // namespace vnros
