// NodeReplicated<D>: node replication of a sequential structure (§4.1).
//
// One replica of D lives on each NUMA node. Mutating operations are appended
// to the shared log by a *flat combiner*: each thread publishes its op in a
// per-thread slot; whichever thread acquires the replica's combiner lock
// batches every pending slot, appends the batch to the log with a single
// reservation, replays the log into the local replica, and distributes
// responses.
//
// Three mechanisms make the batches real (DESIGN.md §10):
//  - Wait window: a fresh combiner polls the replica's pending counter for a
//    bounded spin window (NrConfig::combiner_wait_spins, yielding
//    periodically so announcers can run on oversubscribed hosts) before
//    collecting, so concurrent announcers land in ONE session instead of
//    each paying a full log/publish round for a size-1 batch.
//  - Handoff: threads that lose the combiner race park on their own slot's
//    cacheline and only re-contend when the lock looks free; an outgoing
//    combiner re-scans once before releasing, so freshly announced ops are
//    completed by the incumbent rather than forcing a new session.
//  - Log-tail-free reads: read-only operations never load the shared
//    log tail. They linearize against completed_ — a cached completed-tail
//    the combiner advances (release) after applying a session but *before*
//    delivering responses — then take the replica's distributed
//    readers-writer lock once the local replica has caught up to that
//    floor. Why this is still linearizable: an op observably completed only
//    after its kDone delivery, which the combiner sequences after the
//    completed_ advance, so any read invoked after the op returned reads
//    completed_ >= the op's log index and waits for it locally.
//
// Liveness of the bounded log: a combiner that finds the log full *helps* —
// it first drains its own replica, then try-locks laggard replicas and
// replays the log into them. Publishers never block while holding unpublished
// reservations (reservation is a CAS that only succeeds when space exists),
// so helping always makes progress.
//
// Correctness statement (checked, not proven — see src/spec/linearizability.h
// and the nr/* VCs): any concurrent history of execute()/execute_mut() calls
// is linearizable with respect to sequential D.
#ifndef VNROS_SRC_NR_NODE_REPLICATED_H_
#define VNROS_SRC_NR_NODE_REPLICATED_H_

#include <atomic>
#include <deque>
#include <functional>
#include <string>
#include <optional>
#include <thread>
#include <vector>

#include "src/base/contracts.h"
#include "src/base/types.h"
#include "src/hw/topology.h"
#include "src/nr/dispatch.h"
#include "src/nr/log.h"
#include "src/nr/rwlock.h"
#include "src/obs/registry.h"

namespace vnros {

// Identifies a registered thread: which replica it uses and its flat-
// combining / reader slot there.
struct ThreadToken {
  usize replica = 0;
  usize slot = 0;
  CoreId core = 0;
};

// Flat-combining slots per replica: at most this many threads register with
// one replica.
inline constexpr usize kMaxThreadsPerReplica = 64;

struct NrConfig {
  NrLogShard shard;                      // which log this instance appends to
  usize max_combiner_batch = 0;          // 0 = unbounded (ablation knob)
  bool batched_publish = true;           // false = per-entry release stores (ablation knob)
  // Combiner wait window: how many polls of the pending counter a fresh
  // combiner spends waiting for announcers before collecting its batch
  // (0 disables the window). Every kWaitYieldEvery-th poll yields, so on
  // oversubscribed hosts the window is where parked announcers get to run.
  u32 combiner_wait_spins = 192;
  // Announcer patience: how many polls (one yield each) a thread that has
  // announced a write waits for an active combiner to drain its slot before
  // seizing the combiner lock itself — classic flat combining's "wait for
  // help first" policy. Under real write concurrency it turns N size-1
  // sessions into one size-N session; on oversubscribed hosts the yields
  // are what let the other announcers run at all. 0 (default) seizes
  // immediately, which is right for low-contention and read-heavy mixes
  // where an unconditional yield would be the dominant cost per write.
  u32 announce_patience = 0;
};

struct NrStats {
  u64 combines = 0;        // combiner sessions that appended a non-empty batch
  u64 combined_ops = 0;    // ops appended (avg batch = combined_ops/combines)
  u64 helps = 0;           // laggard-replica help actions
  u64 empty_combines = 0;  // sessions that found nothing pending (catch-up only)
  u64 handoff_ops = 0;     // ops completed by a combiner other than their announcer
  u64 batch_p99 = 0;       // p99 per-session batch size (bucket lower bound)
};

template <Dispatch D>
class NodeReplicated {
 public:
  using WriteOp = typename D::WriteOp;
  using ReadOp = typename D::ReadOp;
  using Response = typename D::Response;

  NodeReplicated(const Topology& topo, const D& initial, NrConfig config = {})
      : topo_(topo),
        config_(config),
        log_(config.shard.log_capacity, topo.num_nodes()),
        obs_prefix_(ObsRegistry::global().instance_prefix(
            config.shard.name.empty() ? std::string("nr") : "nr." + config.shard.name)),
        c_combines_(ObsRegistry::global().counter(obs_prefix_ + "combines")),
        c_combined_ops_(ObsRegistry::global().counter(obs_prefix_ + "combined_ops")),
        c_helps_(ObsRegistry::global().counter(obs_prefix_ + "helps")),
        c_empty_combines_(ObsRegistry::global().counter(obs_prefix_ + "empty_combines")),
        c_handoff_ops_(ObsRegistry::global().counter(obs_prefix_ + "handoff_ops")),
        h_batch_ops_(ObsRegistry::global().histogram(obs_prefix_ + "batch_ops")),
        h_wait_spins_(ObsRegistry::global().histogram(obs_prefix_ + "wait_spins")),
        span_combine_(ObsRegistry::global().tracer().intern_site("nr/combine")) {
    for (u32 n = 0; n < topo.num_nodes(); ++n) {
      replicas_.emplace_back(initial, kMaxThreadsPerReplica);
    }
  }

  usize num_replicas() const { return replicas_.size(); }

  // Registers the calling thread as running on `core`; the token routes its
  // operations to that core's NUMA node replica.
  ThreadToken register_thread(CoreId core) {
    NodeId node = topo_.node_of_core(core);
    Replica& r = replicas_[node];
    // seq_cst: DistRwLock::write_lock's bounded drain needs this increment
    // ordered before the thread's first read_lock flag store in the seq_cst
    // total order (registration is cold; the fence costs nothing that
    // matters).
    usize slot = r.registered.fetch_add(1, std::memory_order_seq_cst);
    VNROS_CHECK(slot < kMaxThreadsPerReplica);
    if (slot == 0) {
      // Node activation. Serialize with help()'s passive skip-forward (which
      // checks `registered` under the same combiner lock), then insist this
      // replica was never skip-forwarded: a skip-forwarded replica's state is
      // unreconstructable (the entries are gone from the log), so late
      // activation of a node after the log has wrapped is a contract
      // violation, not a silent stale read. Register threads at startup.
      Backoff backoff;
      while (r.combiner.exchange(true, std::memory_order_acq_rel)) {
        backoff.pause();
      }
      VNROS_CHECK(log_.ltail(node) == 0);
      r.combiner.store(false, std::memory_order_release);
    }
    return ThreadToken{node, slot, core};
  }

  Response execute_mut(const ThreadToken& token, WriteOp op) {
    Replica& r = replicas_[token.replica];
    OpSlot& slot = r.slots[token.slot];
    VNROS_CHECK(slot.state.load(std::memory_order_relaxed) == kEmpty);
    slot.op = std::move(op);
    // Count-before-announce: the increment is sequenced before the kPending
    // release store, so any combiner that *sees* the slot pending also sees a
    // pending count covering it — combine()'s fetch_sub can never underflow.
    r.pending.fetch_add(1, std::memory_order_relaxed);
    slot.state.store(kPending, std::memory_order_release);

    Backoff backoff;
    u32 patience = config_.announce_patience;
    for (;;) {
      u32 s = slot.state.load(std::memory_order_acquire);
      if (s == kDone) {
        Response resp = slot.resp;
        slot.state.store(kEmpty, std::memory_order_release);
        return resp;
      }
      // Patience: prefer being combined over combining. Yielding here is
      // what lets concurrent announcers pile up into one session instead of
      // each seizing the lock for a size-1 batch.
      if (patience > 0) {
        --patience;
        std::this_thread::yield();
        continue;
      }
      // Handoff: while a combiner is active, park on our own slot's
      // cacheline instead of hammering the lock word — the incumbent's wait
      // window and exit re-scan will usually complete our op for us. Only
      // attempt the lock when it looks free (one relaxed load; coherence
      // makes a release visible eventually, so parking cannot deadlock).
      if (!r.combiner.load(std::memory_order_relaxed)) {
        if (!r.combiner.exchange(true, std::memory_order_acq_rel)) {
          if (slot.state.load(std::memory_order_acquire) != kDone) {
            combine(token.replica, token.slot);
          }
          r.combiner.store(false, std::memory_order_release);
          continue;
        }
      }
      backoff.pause();
    }
  }

  Response execute(const ThreadToken& token, const ReadOp& op) {
    Replica& r = replicas_[token.replica];
    // Linearization floor: every op that observably completed before this
    // read began is covered by completed_ (the combiner advances it before
    // delivering responses), so the read never loads the shared log tail —
    // the cacheline every combiner CASes. It only has to bring its *local*
    // replica up to the floor, which on a warm replica is a no-op.
    u64 floor = completed_.load(std::memory_order_acquire);
    Backoff backoff;
    while (log_.ltail(token.replica) < floor) {
      if (!r.combiner.load(std::memory_order_relaxed) &&
          !r.combiner.exchange(true, std::memory_order_acq_rel)) {
        apply_up_to(token.replica, floor, 0, nullptr, 0);
        r.combiner.store(false, std::memory_order_release);
      } else {
        backoff.pause();
      }
    }
    r.rwlock.read_lock(token.slot);
    Response resp = r.structure.dispatch(op);
    r.rwlock.read_unlock(token.slot);
    return resp;
  }

  // Brings the token's replica up to the current log tail (test/teardown
  // aid; also the "sync" operation NR exposes for idle replicas). Unlike
  // execute(), sync deliberately reads the shared tail: it is a quiescence
  // primitive, not a hot-path read.
  void sync(const ThreadToken& token) {
    Replica& r = replicas_[token.replica];
    u64 t = log_.tail();
    Backoff backoff;
    while (log_.ltail(token.replica) < t) {
      if (!r.combiner.load(std::memory_order_relaxed) &&
          !r.combiner.exchange(true, std::memory_order_acq_rel)) {
        apply_up_to(token.replica, log_.tail(), 0, nullptr, 0);
        r.combiner.store(false, std::memory_order_release);
      } else {
        backoff.pause();
      }
    }
  }

  // Read-only view of a replica's sequential structure. Caller must have
  // quiesced concurrent mutators (tests only).
  const D& peek(usize replica) const { return replicas_[replica].structure; }

  // Thin view over the obs counters ("nr<N>/..."): race-free merged reads.
  NrStats stats_snapshot() const {
    NrStats s;
    s.combines = c_combines_.value();
    s.combined_ops = c_combined_ops_.value();
    s.helps = c_helps_.value();
    s.empty_combines = c_empty_combines_.value();
    s.handoff_ops = c_handoff_ops_.value();
    s.batch_p99 = h_batch_ops_.snapshot().percentile(99);
    return s;
  }

 private:
  enum SlotState : u32 { kEmpty = 0, kPending = 1, kDone = 2 };

  struct alignas(64) OpSlot {
    std::atomic<u32> state{kEmpty};
    WriteOp op{};
    Response resp{};
  };

  struct Replica {
    Replica(const D& initial, usize max_threads)
        : structure(initial), rwlock(max_threads), slots(max_threads) {}

    D structure;
    DistRwLock rwlock;
    std::atomic<bool> combiner{false};
    std::deque<OpSlot> slots;  // deque: OpSlot is immovable (atomics)
    std::atomic<usize> registered{0};
    // Monotone count of announced ops. Together with `collected` (the
    // combiner's monotone count of ops taken into batches) it bounds the
    // combiner's slot scan: `pending - collected` ops are waiting, so the
    // scan stops after finding that many pending slots instead of sweeping
    // all kMaxThreadsPerReplica slots every session. Announcers pay one
    // relaxed fetch_add; the combiner only ever loads it.
    std::atomic<usize> pending{0};
    // Fields below are only touched under the combiner lock.
    usize collected = 0;       // ops ever taken into a batch
    // Upper bound on slots worth scanning; refreshed from `registered`
    // when a scan comes up short.
    usize registered_cache = 0;
    std::vector<usize> batch;  // scratch, reused across sessions
  };

  // Wait-window pacing: yield every kWaitYieldEvery-th poll (on hosts with
  // fewer cores than threads, yields are the only moments parked announcers
  // can run) and leave early after kWaitQuietExit consecutive polls with no
  // new arrival — a read-heavy replica must not burn the whole budget every
  // session waiting for writers that never come.
  static constexpr u32 kWaitYieldEvery = 16;
  static constexpr u32 kWaitQuietExit = 48;

  // Bounded combiner wait window (combiner lock held): poll the pending
  // counter until every registered thread has announced, the spin budget is
  // exhausted, or arrivals go quiet. Returns the pending-op count to collect.
  usize wait_window(Replica& r) {
    usize have = r.pending.load(std::memory_order_acquire) - r.collected;
    u32 budget = config_.combiner_wait_spins;
    if (budget == 0) {
      return have;
    }
    // Waiting beyond "every registered thread has one op in flight" (or the
    // batch cap) cannot grow this session's batch.
    usize goal = r.registered.load(std::memory_order_acquire);
    if (config_.max_combiner_batch != 0 && goal > config_.max_combiner_batch) {
      goal = config_.max_combiner_batch;
    }
    // Escalation gate: a solo writer (nothing but its own op pending) exits
    // immediately — even a short PAUSE-loop probe costs more than a cheap op,
    // and with no second announcer there is no batch to wait for. The full
    // window engages only on evidence of concurrency: a second pending op
    // already announced when the combiner looks. The wait_spins histogram
    // records engaged windows only; drowning it in zero-spin fast-path
    // sessions would cost a record per solo write and bury the signal.
    if (have <= 1 || have >= goal) {
      return have;
    }
    u32 spins = 0;
    u32 quiet = 0;
    usize last = have;
    while (have < goal && spins < budget && quiet < kWaitQuietExit) {
      ++spins;
      if (spins % kWaitYieldEvery == 0) {
        std::this_thread::yield();
      } else {
        DistRwLock::cpu_relax();
      }
      have = r.pending.load(std::memory_order_acquire) - r.collected;
      if (have == last) {
        ++quiet;
      } else {
        quiet = 0;
        last = have;
      }
    }
    h_wait_spins_.record(spins);
    return have;
  }

  // Runs a combining session on replica `ri` (combiner lock held): wait
  // window, collect, append, apply, then ONE exit re-scan so ops announced
  // while the session ran are helped by the incumbent instead of forcing a
  // freshly-contended session. `self_slot` is the caller's announcement slot
  // (or kNoSlot from paths with nothing pending) — every batched op from a
  // different slot is a handoff: its announcer never took the lock.
  static constexpr usize kNoSlot = ~usize{0};

  void combine(usize ri, usize self_slot = kNoSlot) {
    Replica& r = replicas_[ri];
    // The combine span traces *combining* sessions (batch > 1): tracing the
    // solo fast path would add a ring write per uncontended mutation and
    // tell the reader nothing the counters don't.
    std::optional<SpanScope> span;
    bool rescanned = false;
    for (;;) {
      // Collect pending ops into a batch. `want` bounds the scan: once that
      // many pending slots are found there is no point sweeping the rest.
      // (Ops announced after the wait window are left for the re-scan or the
      // next session.) Count-before-announce makes `pending >= collected` at
      // any lock acquisition, so the subtraction cannot underflow.
      usize want = rescanned ? r.pending.load(std::memory_order_acquire) - r.collected
                             : wait_window(r);
      if (config_.max_combiner_batch != 0 && want > config_.max_combiner_batch) {
        want = config_.max_combiner_batch;
      }
      std::vector<usize>& batch = r.batch;
      batch.clear();
      if (want > 0) {
        scan_pending(r, r.registered_cache, want, batch);
        if (batch.size() < want) {
          // The cached bound missed recently registered threads (or a counted
          // op's kPending store is not visible yet): refresh and scan the new
          // slots only.
          usize fresh = r.registered.load(std::memory_order_acquire);
          if (fresh > r.registered_cache) {
            usize old = r.registered_cache;
            r.registered_cache = fresh;
            scan_pending(r, fresh, want, batch, old);
          }
        }
      }
      if (batch.empty()) {
        if (!rescanned) {
          c_empty_combines_.inc();
          apply_up_to(ri, log_.tail(), 0, nullptr, 0);
        }
        return;
      }
      r.collected += batch.size();
      c_combines_.inc();
      c_combined_ops_.add(batch.size());
      h_batch_ops_.record(batch.size());
      if (batch.size() > 1 && !span) {
        span.emplace(ObsRegistry::global().tracer(), span_combine_);
      }
      usize handed = 0;
      for (usize idx : batch) {
        handed += idx != self_slot ? 1 : 0;
      }
      if (handed > 0) {
        c_handoff_ops_.add(handed);
      }

      u64 start = log_.reserve(batch.size(), [this, ri] { help(ri); });
      if (config_.batched_publish) {
        log_.publish_batch(start, batch.size(),
                           [&](usize k) -> const WriteOp& { return r.slots[batch[k]].op; });
      } else {
        for (usize k = 0; k < batch.size(); ++k) {
          log_.publish(start + k, r.slots[batch[k]].op);
        }
      }
      apply_up_to(ri, log_.tail(), start, batch.data(), batch.size());
      if (rescanned) {
        return;
      }
      rescanned = true;
    }
  }

  // Appends the indices of pending slots in [from, bound) to `batch`,
  // stopping once `batch` holds `want` entries.
  static void scan_pending(Replica& r, usize bound, usize want, std::vector<usize>& batch,
                           usize from = 0) {
    for (usize i = from; i < bound && batch.size() < want; ++i) {
      if (r.slots[i].state.load(std::memory_order_acquire) == kPending) {
        batch.push_back(i);
      }
    }
  }

  // Replays the log into replica `ri` from its ltail to `upto`. Entries in
  // [batch_start, batch_start + batch_len) belong to this session's batch;
  // their responses are stashed in the corresponding local slots during the
  // replay but delivered (kDone) only AFTER completed_ has been advanced
  // past `upto`. That ordering is the linearization argument for the
  // log-tail-free read path: an announcer returns only after observing
  // kDone (acquire), which synchronizes with the combiner's release stores,
  // so anything sequenced after that return — including a read on another
  // replica — observes completed_ at or beyond the op's index.
  void apply_up_to(usize ri, u64 upto, u64 batch_start, const usize* batch_slots,
                   usize batch_len) {
    Replica& r = replicas_[ri];
    u64 lt = log_.ltail(ri);
    // A session's own batch can never have been applied before this call:
    // the combiner lock is held continuously from before the reservation, so
    // no helper could have advanced this replica past batch_start.
    VNROS_CHECK(batch_slots == nullptr || lt <= batch_start);
    if (lt >= upto) {
      return;
    }
    // The registration counter bounds the reader-drain scan to live slots
    // (see DistRwLock::write_lock for why it must be the counter, not a
    // pre-loaded count).
    r.rwlock.write_lock(r.registered);
    while (lt < upto) {
      const WriteOp& op = log_.wait_for(lt);
      Response resp = r.structure.dispatch_mut(op);
      if (batch_slots != nullptr && lt >= batch_start && lt < batch_start + batch_len) {
        // Stash only: the owner thread reads resp after its kDone acquire.
        r.slots[batch_slots[lt - batch_start]].resp = std::move(resp);
      }
      ++lt;
      log_.advance_ltail(ri, lt);
    }
    r.rwlock.write_unlock();
    advance_completed(upto);
    if (batch_slots != nullptr) {
      for (u64 i = batch_start; i < batch_start + batch_len; ++i) {
        if (i >= upto) {
          break;  // not applied this call (upto was capped); owner keeps waiting
        }
        r.slots[batch_slots[i - batch_start]].state.store(kDone, std::memory_order_release);
      }
    }
  }

  // Monotonically advances the cached completed-tail to `upto` (release).
  void advance_completed(u64 upto) {
    u64 cur = completed_.load(std::memory_order_relaxed);
    while (cur < upto &&
           !completed_.compare_exchange_weak(cur, upto, std::memory_order_release,
                                             std::memory_order_relaxed)) {
    }
  }

  // Log-full help: drain our own replica first (we may be the laggard), then
  // try-lock other laggards and replay the log into them.
  //
  // Passive replicas: a replica whose node has never registered a thread has
  // no possible observer — no token routes to it — so replaying the log into
  // it is pure waste (on hosts where one node carries all the threads it was
  // the single largest NR cost: a full-log replay storm per wraparound).
  // Help skip-forwards such a replica's ltail without applying. The flip
  // side is an activation precondition checked in register_thread: the first
  // thread of a node must register before the replica is ever skip-forwarded
  // (in practice, before the log first wraps — i.e. at startup), because
  // after a skip-forward the discarded entries cannot be replayed.
  void help(usize self) {
    c_helps_.inc();
    apply_up_to(self, log_.tail(), 0, nullptr, 0);
    for (usize ri = 0; ri < replicas_.size(); ++ri) {
      if (ri == self) {
        continue;
      }
      Replica& r = replicas_[ri];
      if (log_.ltail(ri) >= log_.tail()) {
        continue;
      }
      if (!r.combiner.exchange(true, std::memory_order_acq_rel)) {
        // The registered check is under the combiner lock so it serializes
        // with the activation handshake in register_thread: either the
        // registrant's lock round-trip happened first (we see registered > 0
        // and replay normally) or ours did (the registrant's ltail check
        // fails loudly instead of reading from a stale replica).
        if (r.registered.load(std::memory_order_seq_cst) == 0) {
          log_.advance_ltail(ri, log_.tail());
        } else {
          apply_up_to(ri, log_.tail(), 0, nullptr, 0);
        }
        r.combiner.store(false, std::memory_order_release);
      }
    }
  }

  const Topology topo_;
  const NrConfig config_;
  NrLog<WriteOp> log_;
  // Cached completed-tail: every log entry below it has been applied to at
  // least one replica and is about to be (or already) delivered. Combiners
  // write it once per session; readers only load it — unlike the log tail,
  // which every reservation CASes.
  alignas(64) std::atomic<u64> completed_{0};
  std::deque<Replica> replicas_;  // deque: Replica is immovable
  // Metrics ("nr<N>/..." or "nr.<shard><N>/..."): combiner sessions are also
  // traced as spans so the batching behaviour is visible in a chaos trace.
  const std::string obs_prefix_;
  Counter& c_combines_;
  Counter& c_combined_ops_;
  Counter& c_helps_;
  Counter& c_empty_combines_;
  Counter& c_handoff_ops_;
  Histogram& h_batch_ops_;
  Histogram& h_wait_spins_;
  const u32 span_combine_;
};

}  // namespace vnros

#endif  // VNROS_SRC_NR_NODE_REPLICATED_H_
