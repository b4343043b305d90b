#include "src/app/chaos.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/app/anti_entropy.h"
#include "src/app/blockstore.h"
#include "src/base/contracts.h"
#include "src/base/fault.h"
#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/hw/block_device.h"
#include "src/hw/network.h"
#include "src/kernel/kernel.h"
#include "src/kernel/syscall.h"
#include "src/obs/registry.h"

namespace vnros {
namespace {

constexpr Port kPort = 9000;
constexpr u64 kDiskSectors = 16384;

// One simulated machine with a ready-to-use process and Sys facade (the
// app_vcs Host pattern, extended with the reboot knobs).
struct ChaosHost {
  Kernel kernel;
  SyscallDispatcher disp;
  Pid pid;
  Sys sys;

  ChaosHost(Network* net, BlockDevice* disk, bool recover, std::optional<LinkAddr> addr)
      : kernel(make_config(net, disk, recover, addr)),
        disp(kernel),
        pid(boot_pid(disp)),
        sys(disp, pid, 0) {}

  static KernelConfig make_config(Network* net, BlockDevice* disk, bool recover,
                                  std::optional<LinkAddr> addr) {
    KernelConfig config;
    config.network = net;
    config.disk = disk;
    config.recover_fs = recover;
    config.link_addr = addr;
    config.format_on_recovery_failure = recover;
    return config;
  }

  static Pid boot_pid(SyscallDispatcher& disp) {
    Sys boot(disp, kInvalidPid, 0);
    auto pid = boot.spawn();
    VNROS_CHECK(pid.ok());
    return pid.value();
  }
};

// What the client believes about one key. `history` is every value ever
// attempted (acked or not) — the universe of non-garbage bytes. `certain`
// is set only while the latest client op on the key was a successful put.
struct KeyBelief {
  std::vector<std::vector<u8>> history;
  std::optional<std::vector<u8>> certain;

  bool in_history(const std::vector<u8>& v) const {
    for (const auto& h : history) {
      if (h == v) {
        return true;
      }
    }
    return false;
  }
};

// Heal mode: the per-key op history the linearizability checker validates.
// The system under test is a replicated sequenced register — not strictly
// linearizable mid-partition (an acked write can leave a hinted-unreachable
// replica stale, so reads may serve old values) — so the sound checkable
// spec is:
//   - every read that returns (bytes, seq) must return EXACTLY the bytes of
//     an attempted write with that stamp (failed writes count: at-least-once
//     delivery means they may have landed);
//   - at quiesce (fabric healed, hints drained, anti-entropy converged) the
//     surviving state must carry a stamp >= every acknowledged write's, and
//     an acknowledged delete with no later attempted write must read as
//     absent on every node (no resurrection);
//   - re-image data loss may lower the acknowledged floor (mirrors
//     downgrade_lost_keys), but only when no surviving copy reaches it.
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
    // Heal mode rides on cluster machinery: Merkle repair discovers peers via
    // the cluster view, and re-image bootstrap must preserve write stamps
    // (the legacy anti_entropy_into re-stamps, which would invalidate the
    // linearizability histories).
    VNROS_CHECK(!cfg_.heal || cfg_.cluster);
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
  struct NodeSlot {
    std::unique_ptr<BlockDevice> disk;
    std::unique_ptr<ChaosHost> host;
    std::unique_ptr<BlockStoreNode> node;
    std::unique_ptr<AntiEntropyScheduler> ae;  // heal mode: background Merkle repair
    LinkAddr addr = 0;
    BsNodeId id = 0;
    bool active = true;  // false once the member gracefully left (slots are
                         // never reused, so id == slot index forever)
    std::string fault_prefix;
    std::string node_prefix;  // serve_delay latency-injection site prefix
  };

  void boot_slot_machine(usize i) {
    auto& slot = slots_[i];
    slot.id = static_cast<BsNodeId>(i);
    slot.active = true;
    slot.fault_prefix = "chaos/disk" + std::to_string(i);
    slot.node_prefix = "chaos/node" + std::to_string(i);
    slot.disk = std::make_unique<BlockDevice>(kDiskSectors, cfg_.seed * 1000003ull + i,
                                              slot.fault_prefix);
    slot.host = std::make_unique<ChaosHost>(&net_, slot.disk.get(), /*recover=*/false,
                                            std::nullopt);
    slot.addr = slot.host->kernel.net_addr();
  }

  void boot_cluster() {
    if (cfg_.cluster) {
      view_.ring = PlacementRing(cfg_.vnodes);
      view_.replication = std::min(cfg_.replication, cfg_.nodes);
    }
    slots_.resize(cfg_.nodes);
    for (usize i = 0; i < cfg_.nodes; ++i) {
      boot_slot_machine(i);
      if (cfg_.cluster) {
        view_.ring.add_node(slots_[i].id);
        view_.directory[slots_[i].id] = BsPeer{slots_[i].addr, kPort};
      }
    }
    for (usize i = 0; i < cfg_.nodes; ++i) {
      make_node(i);
    }
    client_host_ = std::make_unique<ChaosHost>(&net_, nullptr, /*recover=*/false, std::nullopt);
    client_addr_ = client_host_->kernel.net_addr();

    RetryPolicy policy;
    policy.max_attempts = 6;
    policy.polls_per_attempt = 48;
    policy.backoff_base_polls = 4;
    policy.backoff_max_polls = 64;
    policy.jitter_ppm = 250'000;
    policy.deadline_polls = 2'000;
    client_ = std::make_unique<BlockStoreClient>(client_host_->sys, slots_[0].addr, kPort,
                                                 [this] { pump_all(); }, policy);
    for (usize i = 1; i < cfg_.nodes; ++i) {
      client_->add_failover(slots_[i].addr, kPort);
    }
    if (cfg_.cluster) {
      client_->set_cluster(view_);
    }
  }

  void make_node(usize i) {
    auto& slot = slots_[i];
    std::vector<BsPeer> peers;
    if (!cfg_.cluster) {
      for (usize j = 0; j < cfg_.nodes; ++j) {
        if (j != i) {
          peers.push_back(BsPeer{slots_[j].addr, kPort});
        }
      }
    }
    slot.node = std::make_unique<BlockStoreNode>(slot.host->sys, kPort, std::move(peers),
                                                 [this, i] { pump_except(i); }, slot.node_prefix);
    // A node booting mid-schedule can absorb a pending one-shot fault (e.g.
    // global syscall io_error) on its very first syscall. Boot is retried
    // like an operator would: one-shots are consumed by the failed attempt,
    // so a bounded number of retries either boots or proves the fault
    // persistent (which no schedule arms).
    Result<Unit> booted = ErrorCode::kIoError;
    for (int attempt = 0; attempt < 3 && !(booted = slot.node->init()).ok(); ++attempt) {
      VNROS_LOG_DEBUG("chaos", "node %zu init attempt failed: %s", i,
                      error_name(booted.error()));
    }
    VNROS_CHECK(booted.ok());
    if (cfg_.cluster) {
      ClusterConfig cc;
      cc.self = slot.id;
      slot.node->configure_cluster(cc, view_);
      if (cfg_.admission_rate_ppm > 0) {
        AdmissionConfig ac;
        ac.enabled = true;
        ac.burst_ops = cfg_.admission_burst;
        slot.node->set_admission(ac);
        slot.node->grant_tokens(cfg_.admission_burst * 1'000'000);  // boot with a full bucket
      }
    }
    if (cfg_.heal && cfg_.cluster) {
      // Background Merkle repair. One tick per schedule step, so a peer gets
      // a repair pass every ~64-96 steps. The seed is a pure function of the
      // run seed and the slot, so a rebooted incarnation re-derives the same
      // repair schedule and the whole run stays seed-replayable.
      AntiEntropyConfig ae;
      ae.interval_polls = 64;
      ae.jitter_polls = 32;
      ae.rng_seed = cfg_.seed ^ (0xAE00'0000ull + static_cast<u64>(i) * 0x9E37ull);
      slot.ae = std::make_unique<AntiEntropyScheduler>(slot.host->sys, *slot.node,
                                                       [this, i] { pump_except(i); }, ae);
    }
  }

  usize active_count() const {
    usize n = 0;
    for (const auto& slot : slots_) {
      if (slot.active) {
        ++n;
      }
    }
    return n;
  }

  // Picks a uniformly random active slot. In legacy (non-cluster) runs every
  // slot is active forever, so this draws exactly the stream the fixed seed
  // matrix was recorded against.
  usize pick_active() {
    std::vector<usize> idx;
    for (usize i = 0; i < slots_.size(); ++i) {
      if (slots_[i].active) {
        idx.push_back(i);
      }
    }
    return idx[sched_rng_.next_below(idx.size())];
  }

  // The client's pump: every node serves, then every host's VTP stack —
  // the client's included — advances one tick (retransmits, window probes,
  // reaping). Node-to-node waits use pump_except: datagrams need no tick.
  void pump_all() {
    net_.release_held();
    for (auto& slot : slots_) {
      if (slot.node) {
        slot.node->serve_once();
      }
    }
    for (auto& slot : slots_) {
      if (slot.host) {
        slot.host->kernel.vtp().tick();
      }
    }
    if (client_host_) {
      client_host_->kernel.vtp().tick();
    }
  }

  void pump_except(usize skip) {
    net_.release_held();
    for (usize j = 0; j < slots_.size(); ++j) {
      if (j != skip && slots_[j].node) {
        slots_[j].node->serve_once();
      }
    }
  }

  // --- Adversarial events ---------------------------------------------------

  void schedule_events(usize step) {
    auto& reg = FaultRegistry::global();
    if (cfg_.cluster && cfg_.admission_rate_ppm > 0) {
      // The admission clock: one tick of tokens per schedule step. Ops that
      // outrun the rate are shed with kOverloaded and absorbed by the
      // client's backpressure ladder (or fail, leaving the key uncertain).
      for (auto& slot : slots_) {
        if (slot.active && slot.node) {
          slot.node->grant_tokens(cfg_.admission_rate_ppm);
        }
      }
    }
    if (sched_rng_.chance_ppm(cfg_.crash_ppm)) {
      crash_node(pick_active(), step);
      if (!report_.message.empty()) {
        return;
      }
    }
    if (sched_rng_.chance_ppm(cfg_.partition_ppm)) {
      // Cut a random pair among {active nodes, client}.
      std::vector<LinkAddr> ends;
      for (const auto& slot : slots_) {
        if (slot.active) {
          ends.push_back(slot.addr);
        }
      }
      ends.push_back(client_addr_);
      LinkAddr a = ends[sched_rng_.next_below(ends.size())];
      LinkAddr b = ends[sched_rng_.next_below(ends.size())];
      if (a != b && !net_.partitioned(a, b)) {
        net_.partition(a, b);
        cuts_.push_back({a, b});
        ++report_.partitions;
      }
    }
    if (!cuts_.empty() && sched_rng_.chance_ppm(cfg_.heal_ppm)) {
      usize idx = sched_rng_.next_below(cuts_.size());
      net_.heal(cuts_[idx].first, cuts_[idx].second);
      cuts_.erase(cuts_.begin() + static_cast<isize>(idx));
      ++report_.heals;
    }
    FaultSpec one_shot;
    one_shot.probability_ppm = 1'000'000;
    one_shot.one_shot = true;
    if (sched_rng_.chance_ppm(cfg_.disk_fault_ppm)) {
      const auto& slot = slots_[pick_active()];
      const char* kind = sched_rng_.chance_ppm(500'000) ? "/write_error" : "/read_error";
      reg.arm(slot.fault_prefix + kind, one_shot);
      ++report_.faults_armed;
    }
    if (sched_rng_.chance_ppm(cfg_.torn_write_ppm)) {
      const auto& slot = slots_[pick_active()];
      reg.arm(slot.fault_prefix + "/torn_write", one_shot);
      ++report_.faults_armed;
    }
    if (sched_rng_.chance_ppm(cfg_.syscall_fault_ppm)) {
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
    if (sched_rng_.chance_ppm(cfg_.oom_ppm)) {
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
    // Cluster-mode events last, each gated on `cluster` *before* touching the
    // schedule Rng, so legacy configs draw the exact legacy stream.
    if (cfg_.cluster && cfg_.join_ppm > 0 && slots_.size() < cfg_.max_nodes &&
        sched_rng_.chance_ppm(cfg_.join_ppm)) {
      join_node(step);
    }
    if (cfg_.cluster && cfg_.leave_ppm > 0 &&
        active_count() > std::max<usize>(2, view_.replication) &&
        sched_rng_.chance_ppm(cfg_.leave_ppm)) {
      leave_node(step);
    }
    if (cfg_.cluster && cfg_.delay_ppm > 0 && sched_rng_.chance_ppm(cfg_.delay_ppm)) {
      const auto& slot = slots_[pick_active()];
      FaultSpec stall;
      stall.probability_ppm = 1'000'000;
      stall.one_shot = true;
      stall.delay = sched_rng_.next_range(8, cfg_.delay_polls_max);
      reg.arm(slot.node_prefix + "/serve_delay", stall);
      ++report_.faults_armed;
      ++report_.delays_armed;
    }
    // Heal-mode events last, each gated on `heal` *before* touching the
    // schedule Rng, so legacy and churn configs draw their exact streams.
    if (cfg_.heal && cfg_.bit_rot_ppm > 0 && sched_rng_.chance_ppm(cfg_.bit_rot_ppm)) {
      // Silent media decay: the next read of some sector returns flipped
      // bytes with no I/O error. Only the block CRC stands between this and
      // serving garbage.
      const auto& slot = slots_[pick_active()];
      FaultSpec rot;
      rot.probability_ppm = 1'000'000;
      rot.one_shot = true;
      rot.corrupt_bytes = sched_rng_.next_range(1, cfg_.bit_rot_bytes_max);
      reg.arm(slot.fault_prefix + "/bit_rot", rot);
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
      for (auto& slot : slots_) {
        if (slot.active && slot.ae) {
          slot.ae->tick();
        }
      }
    }
  }

  // A flap storm: one endpoint pair toggles cut/healed on every schedule step
  // until its toggle budget runs out — the pathological case for repair
  // protocols that assume a partition is either up or down for a while.
  void start_flap() {
    std::vector<LinkAddr> ends;
    for (const auto& slot : slots_) {
      if (slot.active) {
        ends.push_back(slot.addr);
      }
    }
    ends.push_back(client_addr_);
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
        net_.heal(it->a, it->b);
        it->cut = false;
      } else {
        net_.partition(it->a, it->b);
        it->cut = true;
      }
      if (--it->toggles_left == 0) {
        if (it->cut) {
          net_.heal(it->a, it->b);
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
    FaultRegistry::global().arm(slots_[i].node_prefix + "/serve_delay", spell);
    slow_until_[i] = step + len;
    ++report_.slow_spells;
    ++report_.faults_armed;
  }

  void expire_slow_spells(usize step) {
    for (auto it = slow_until_.begin(); it != slow_until_.end();) {
      if (step >= it->second || !slots_[it->first].active) {
        FaultRegistry::global().disarm(slots_[it->first].node_prefix + "/serve_delay");
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
    usize i = slots_.size();
    slots_.emplace_back();
    boot_slot_machine(i);
    auto& slot = slots_[i];
    view_.ring.add_node(slot.id);
    view_.directory[slot.id] = BsPeer{slot.addr, kPort};
    make_node(i);  // configures the joiner with the grown view
    for (usize j = 0; j < slots_.size(); ++j) {
      if (j != i && slots_[j].active && slots_[j].node) {
        rebalance_slot(j, step);
      }
    }
    client_->add_failover(slot.addr, kPort);
    client_->set_cluster(view_);
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
    auto& slot = slots_[i];
    ClusterView candidate = view_;
    candidate.ring.remove_node(slot.id);
    candidate.directory.erase(slot.id);
    auto moved = slot.node->rebalance(candidate);
    if (!moved.ok() || moved.value().failed > 0) {
      slot.node->set_cluster_view(view_);  // restore membership belief
      ++report_.aborted_leaves;
      VNROS_LOG_DEBUG("chaos", "node %zu leave aborted at step %zu", i, step);
      return;
    }
    view_ = candidate;
    harvest_node_stats(slot);
    harvest_ae_stats(slot);
    auto& reg = FaultRegistry::global();
    reg.disarm_prefix(slot.fault_prefix);
    reg.disarm(slot.node_prefix + "/serve_delay");
    slot.ae.reset();
    slot.node.reset();
    slot.host.reset();
    slot.active = false;
    for (usize j = 0; j < slots_.size(); ++j) {
      if (slots_[j].active && slots_[j].node) {
        rebalance_slot(j, step);
      }
    }
    client_->set_cluster(view_);
    ++report_.leaves;
    VNROS_LOG_DEBUG("chaos", "node %zu left at step %zu", i, step);
  }

  // One member adopts the runner's current view and moves its shards.
  // Errors (an injected fault mid-rebalance) are survivable: the member has
  // adopted the view and keeps any block it failed to move, so the next
  // quiesce still finds every acked byte somewhere.
  void rebalance_slot(usize j, usize step) {
    auto st = slots_[j].node->rebalance(view_);
    if (!st.ok()) {
      VNROS_LOG_DEBUG("chaos", "node %zu rebalance error at step %zu: %s", j, step,
                      error_name(st.error()));
    }
  }

  void crash_node(usize i, usize step) {
    auto& reg = FaultRegistry::global();
    auto& slot = slots_[i];
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
      reg.disarm_prefix(slot.fault_prefix);
    }
    // A crash kills the (possibly stalled) serving process; its armed
    // serve_delay dies with it.
    reg.disarm(slot.node_prefix + "/serve_delay");

    harvest_node_stats(slot);
    harvest_ae_stats(slot);
    slot.ae.reset();
    slot.node.reset();
    slot.host.reset();
    slot.disk->crash(cfg_.persist_ppm, cfg_.torn_crash_ppm);

    // Probe recovery first so the runner knows whether the kernel's
    // format-on-failure fallback will engage (the probe is idempotent:
    // recover() re-checkpoints, so running it twice recovers the same state).
    const bool recoverable = [&] {
      auto probe = MemFs::recover(*slot.disk);
      return probe.ok();
    }();

    slot.host = std::make_unique<ChaosHost>(&net_, slot.disk.get(), /*recover=*/true, slot.addr);
    make_node(i);

    if (!recoverable) {
      ++report_.reimages;
      VNROS_LOG_DEBUG("chaos", "node %zu unrecoverable at step %zu: re-imaged", i, step);
      if (cfg_.heal) {
        merkle_bootstrap(i);
        downgrade_lost_floors();
      } else {
        anti_entropy_into(i);
      }
      downgrade_lost_keys();
    }
  }

  // Heal-mode re-image bootstrap: Merkle passes against every live peer pull
  // the surviving copies back over the wire with their write stamps intact —
  // unlike anti_entropy_into, which re-stamps through node->put() and would
  // invalidate the linearizability histories. Best-effort mid-schedule: a
  // partitioned or shedding peer just leaves divergence for the background
  // scheduler and the quiesce convergence loop to finish.
  void merkle_bootstrap(usize i) {
    auto& slot = slots_[i];
    if (!slot.ae) {
      return;
    }
    for (int round = 0; round < 2; ++round) {
      bool all_clean = true;
      for (auto& peer : slots_) {
        if (&peer == &slot || !peer.active || !peer.node) {
          continue;
        }
        peer.node->grant_tokens(64 * 1'000'000);
        const u64 clean_before = slot.ae->stats().clean_passes;
        (void)slot.ae->sync_with(BsPeer{peer.addr, kPort});
        if (slot.ae->stats().clean_passes != clean_before + 1) {
          all_clean = false;
        }
      }
      if (all_clean) {
        break;
      }
    }
  }

  // The heal-mode analog of downgrade_lost_keys: a re-image may destroy the
  // only copy that carried a key's acknowledged stamp. If no surviving
  // inventory entry (live or tombstone) reaches the acked floor, the floor
  // drops to zero — legitimate data loss under total-disk failure, accounted
  // separately so the report shows how often the schedule forced it.
  void downgrade_lost_floors() {
    std::map<std::string, u64> best;
    for (const auto& slot : slots_) {
      if (!slot.node) {
        continue;
      }
      for (const auto& e : slot.node->list()) {
        auto [it, inserted] = best.try_emplace(e.key, e.seq);
        if (!inserted) {
          it->second = std::max(it->second, e.seq);
        }
      }
    }
    for (auto& [key, h] : histories_) {
      if (h.acked_floor == 0) {
        continue;
      }
      auto it = best.find(key);
      if (it == best.end() || it->second < h.acked_floor) {
        VNROS_LOG_DEBUG("chaos", "acked floor of %s lost with its only replica", key.c_str());
        h.acked_floor = 0;
        h.acked_is_del = false;
        ++report_.acked_floor_drops;
      }
    }
  }

  // Repopulates a re-imaged node from the surviving replicas' local views.
  // In cluster mode only the keys the node actually owns are restored —
  // placement, not mirroring.
  void anti_entropy_into(usize i) {
    for (usize j = 0; j < slots_.size(); ++j) {
      if (j == i || !slots_[j].node) {
        continue;
      }
      for (const auto& [key, value] : slots_[j].node->view()) {
        if (cfg_.cluster) {
          auto owners = view_.owners(key);
          if (std::find(owners.begin(), owners.end(), slots_[i].id) == owners.end()) {
            continue;
          }
        }
        auto have = slots_[i].node->get(key);
        if (have.ok() && have.value() == value) {
          continue;
        }
        if (!have.ok()) {
          (void)slots_[i].node->put(key, value);
        }
      }
    }
  }

  // A re-image destroys everything on one disk. Any certain key whose acked
  // bytes now exist on no replica was only ever held by the re-imaged node
  // (best-effort replication never reached a peer): that is legitimate data
  // loss under total-disk failure, not a correctness bug — downgrade the key
  // to uncertain instead of failing the invariant on it later.
  void downgrade_lost_keys() {
    std::vector<std::map<std::string, std::vector<u8>>> views;
    for (const auto& slot : slots_) {
      if (slot.node) {
        views.push_back(slot.node->view());
      }
    }
    for (auto& [key, belief] : beliefs_) {
      if (!belief.certain) {
        continue;
      }
      bool held = false;
      for (const auto& view : views) {
        auto it = view.find(key);
        if (it != view.end() && it->second == *belief.certain) {
          held = true;
          break;
        }
      }
      if (!held) {
        VNROS_LOG_DEBUG("chaos", "certain key %s lost with its only replica", key.c_str());
        belief.certain.reset();
      }
    }
  }

  // --- Client workload ------------------------------------------------------

  void client_op(usize step) {
    std::string key = "key" + std::to_string(sched_rng_.next_below(cfg_.keys));
    auto& belief = beliefs_[key];
    ++report_.ops;
    // One draw decides the op; the cut points move for the delete-heavy mix
    // (5/3/2 put/get/del instead of 6/3/1) without touching the rng stream,
    // so legacy seeds replay unchanged.
    u64 kind = sched_rng_.next_below(10);
    const u64 put_cut = cfg_.del_heavy ? 5 : 6;
    const u64 get_cut = cfg_.del_heavy ? 8 : 9;
    if (kind < put_cut) {
      std::vector<u8> value(sched_rng_.next_range(1, cfg_.max_value_bytes));
      for (auto& b : value) {
        b = static_cast<u8>(sched_rng_.next_u64());
      }
      belief.history.push_back(value);
      auto r = client_->put(key, value);
      if (cfg_.heal) {
        record_write(key, value, /*tombstone=*/false, r.ok());
      }
      if (r.ok()) {
        ++report_.ops_ok;
        belief.certain = std::move(value);
      } else {
        // Unacked: the put may or may not have applied anywhere (it may even
        // have applied and destroyed the previous copy mid-overwrite), so
        // nothing about this key is certain any more.
        ++report_.ops_failed;
        belief.certain.reset();
      }
    } else if (kind < get_cut) {
      auto r = client_->get_with_seq(key);
      if (r.ok()) {
        ++report_.ops_ok;
        if (!belief.in_history(r.value().first)) {
          fail(step, "get(" + key + ") returned bytes the client never wrote");
        } else if (cfg_.heal) {
          check_read(step, key, r.value().first, r.value().second);
        }
      } else {
        ++report_.ops_failed;  // kNotFound/corrupt/timeout: all acceptable
      }
    } else {
      auto r = client_->del(key);
      if (cfg_.heal) {
        record_write(key, {}, /*tombstone=*/true, r.ok());
      }
      if (r.ok()) {
        ++report_.ops_ok;
      } else {
        ++report_.ops_failed;
      }
      // Acked or not, stale replicas may still hold (and later serve or
      // repair from) older values, so a delete only removes certainty.
      belief.certain.reset();
    }
  }

  // Heal mode: every attempted write lands in the key's history under the
  // stamp the client assigned it (retries reuse the stamp, so one op is one
  // history entry). Acked writes raise the key's acknowledged floor.
  void record_write(const std::string& key, std::vector<u8> value, bool tombstone, bool acked) {
    auto& h = histories_[key];
    const u64 seq = client_->last_write_seq();
    h.writes.push_back(KeyHistory::Write{seq, std::move(value), tombstone, acked});
    if (acked && seq > h.acked_floor) {
      h.acked_floor = seq;
      h.acked_is_del = tombstone;
    }
  }

  // Heal mode, checked at op time: a read that returns (bytes, stamp) must
  // return EXACTLY the bytes of the attempted write that owns the stamp —
  // stamps are globally unique, so a mismatch means a node spliced bytes
  // across writes (or served a tombstone as data).
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
    net_.heal_all();
    cuts_.clear();
    flaps_.clear();        // heal_all() flattened the storms
    slow_until_.clear();   // disarm_all() ended the spells
    for (int i = 0; i < 256; ++i) {
      pump_all();  // drain every in-flight datagram through the servers
    }
    if (cfg_.cluster) {
      // Hinted-handoff convergence: with the fabric healed, a few delivery
      // passes must land every parked hint whose owner is still a member.
      // Quiesce is not an overload test, so refill admission buckets first.
      for (int round = 0; round < 4; ++round) {
        for (auto& slot : slots_) {
          if (slot.active && slot.node) {
            slot.node->grant_tokens(64 * 1'000'000);
            (void)slot.node->deliver_hints();
          }
        }
        for (int i = 0; i < 32; ++i) {
          pump_all();
        }
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
    for (const auto& slot : slots_) {
      if (slot.node) {
        views.push_back(slot.node->view());
      }
    }
    for (const auto& [key, belief] : beliefs_) {
      for (usize j = 0; j < views.size(); ++j) {
        auto it = views[j].find(key);
        if (it != views[j].end() && !belief.in_history(it->second)) {
          fail(step, "node " + std::to_string(j) + " stores garbage for " + key);
          return;
        }
      }
      if (belief.certain) {
        bool held = false;
        for (const auto& view : views) {
          auto it = view.find(key);
          if (it != view.end() && it->second == *belief.certain) {
            held = true;
            break;
          }
        }
        if (!held) {
          for (usize j = 0; j < slots_.size(); ++j) {
            if (!slots_[j].node) {
              VNROS_LOG_DEBUG("chaos", "  slot %zu: departed", j);
              continue;
            }
            auto local = slots_[j].node->get(key);
            VNROS_LOG_DEBUG("chaos", "  slot %zu: get(%s) -> %s", j, key.c_str(),
                            local.ok() ? "stale bytes" : error_name(local.error()));
          }
          fail(step, "acked put of " + key + " readable on no node after quiesce");
          return;
        }
      }
    }

    // Obs coherence across the cluster's whole history (incarnations are
    // accumulated at crash time). Every applied replica was pushed by some
    // peer — the runner's fabric never duplicates datagrams, so applications
    // can only lag, not lead — and every read repair was triggered by a
    // corrupt local read.
    BlockStoreStats total = cumulative_stats();
    u64 pushed_bound = total.replicas_pushed;
    if (cfg_.heal) {
      // Anti-entropy ships replicas through its own rpc layer, not the
      // node's push_acked, so its pushes are missing from replicas_pushed.
      // Each repair rpc puts at most kAeRpcAttempts datagrams on the wire,
      // bounding the replica applications it can have caused.
      u64 ae_rpcs = ae_rpcs_harvested_;
      for (const auto& slot : slots_) {
        if (slot.ae) {
          ae_rpcs += slot.ae->stats().rpcs;
        }
      }
      pushed_bound += ae_rpcs * kAeRpcAttempts;
    }
    if (total.replicas_applied > pushed_bound) {
      fail(step, "obs incoherence: " + std::to_string(total.replicas_applied) +
                     " replicas applied > " + std::to_string(pushed_bound) +
                     " pushed (incl. repair rpc bound)");
      return;
    }
    if (total.read_repairs > total.corrupt_reads) {
      fail(step, "obs incoherence: " + std::to_string(total.read_repairs) +
                     " read repairs > " + std::to_string(total.corrupt_reads) +
                     " corrupt reads");
      return;
    }
    if (cfg_.cluster) {
      // Membership belief agreement: after churn quiesces, every live member
      // holds the same ring (version + order-insensitive fingerprint) as the
      // runner's authoritative view.
      for (usize j = 0; j < slots_.size(); ++j) {
        if (!slots_[j].active || !slots_[j].node) {
          continue;
        }
        if (slots_[j].node->ring_version() != view_.ring.version() ||
            slots_[j].node->ring_fingerprint() != view_.ring.fingerprint()) {
          fail(step, "node " + std::to_string(j) + " ring belief diverged (version " +
                         std::to_string(slots_[j].node->ring_version()) + " vs " +
                         std::to_string(view_.ring.version()) + ")");
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
      for (auto& slot : slots_) {
        if (!slot.active || !slot.ae) {
          continue;
        }
        for (auto& peer : slots_) {
          if (&peer == &slot || !peer.active || !peer.node) {
            continue;
          }
          peer.node->grant_tokens(64 * 1'000'000);  // quiesce is not an overload test
          const u64 clean_before = slot.ae->stats().clean_passes;
          (void)slot.ae->sync_with(BsPeer{peer.addr, kPort});
          if (slot.ae->stats().clean_passes != clean_before + 1) {
            all_clean = false;
          }
        }
      }
      for (int i = 0; i < 32; ++i) {
        pump_all();
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
    for (auto& slot : slots_) {
      if (!slot.active || !slot.node) {
        continue;
      }
      for (auto& peer : slots_) {
        if (peer.active && peer.node) {
          peer.node->grant_tokens(64 * 1'000'000);
        }
      }
      (void)slot.node->gc_tombstones(64);
      for (int i = 0; i < 32; ++i) {
        pump_all();
      }
    }
  }

  bool check_heal_invariants(usize step) {
    // Converged means CONVERGED: every live member's Merkle root must agree
    // (quiesce anti-entropy runs whole-inventory passes between all pairs, so
    // at this point the inventories are mirrors).
    std::vector<std::vector<BlockKeyInfo>> invs;
    std::vector<usize> inv_slot;
    for (usize j = 0; j < slots_.size(); ++j) {
      if (slots_[j].active && slots_[j].node) {
        invs.push_back(slots_[j].node->list());
        inv_slot.push_back(j);
      }
    }
    if (invs.empty()) {
      return true;
    }
    const u32 root0 = MerkleTree::build(invs[0]).root();
    for (usize k = 1; k < invs.size(); ++k) {
      if (MerkleTree::build(invs[k]).root() != root0) {
        fail(step, "merkle root of node " + std::to_string(inv_slot[k]) +
                       " diverges from node " + std::to_string(inv_slot[0]) +
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
  void harvest_node_stats(const NodeSlot& slot) {
    if (slot.node) {
      BlockStoreStats s = slot.node->stats();
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
  void harvest_ae_stats(const NodeSlot& slot) {
    if (slot.ae) {
      const RepairStats& s = slot.ae->stats();
      report_.ae_passes += s.passes;
      report_.ae_clean_passes += s.clean_passes;
      report_.ae_pulled += s.pulled;
      report_.ae_pushed += s.pushed;
      report_.ae_bytes += s.bytes_sent + s.bytes_received;
      ae_rpcs_harvested_ += s.rpcs;
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
    for (const auto& slot : slots_) {
      if (slot.node) {
        BlockStoreStats s = slot.node->stats();
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
    for (const auto& slot : slots_) {
      harvest_node_stats(slot);
      harvest_ae_stats(slot);
      if (slot.disk) {
        // Devices outlive node incarnations, so bit-rot totals are read once
        // here instead of being harvested per reboot.
        report_.bit_rot_reads += slot.disk->stats().bit_rot_reads;
      }
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

  static constexpr u64 kAeRpcAttempts = 2;  // AntiEntropyConfig default

  ChaosConfig cfg_;
  Rng sched_rng_;
  Network net_;
  std::vector<NodeSlot> slots_;
  std::unique_ptr<ChaosHost> client_host_;
  LinkAddr client_addr_ = 0;
  std::unique_ptr<BlockStoreClient> client_;
  std::vector<std::pair<LinkAddr, LinkAddr>> cuts_;
  std::map<std::string, KeyBelief> beliefs_;
  ClusterView view_;  // cluster mode: the runner's authoritative membership
  std::vector<Flap> flaps_;              // heal mode: running flap storms
  std::map<usize, usize> slow_until_;    // heal mode: slot -> spell expiry step
  std::map<std::string, KeyHistory> histories_;  // heal mode: lin-checker state
  usize quiesces_ = 0;                   // heal mode: GC cadence counter
  u64 ae_rpcs_harvested_ = 0;            // repair rpcs from dead incarnations
  ChaosReport report_;
};

}  // namespace

ChaosReport run_chaos(const ChaosConfig& config) { return ChaosRunner(config).run(); }

}  // namespace vnros
