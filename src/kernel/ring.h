// SysRing: io_uring-shaped submission/completion queues on the Sys facade.
//
// A ring is a fixed-slot submission queue (SQ) plus a fixed-slot completion
// queue (CQ), created per process via SysNr::kRingSetup. Each submission
// queue entry (SQE) names one ordinary syscall by number plus its argument
// bytes — encoded exactly as the synchronous frame minus the leading nr —
// and carries a caller-chosen user_data word for correlation. The kernel's
// reactor executes pending SQEs through the same SyscallDispatcher handlers
// as the synchronous path (refinement by construction: the executor IS the
// synchronous transition function) and posts one completion queue entry
// (CQE) per SQE, carrying the same (err, payload) bytes a synchronous reply
// would.
//
// The spec, in the executable style of §3:
//   - exactly-once: every reaped CQE matches exactly one accepted SQE, and
//     every accepted SQE is reaped exactly once (kernel/ring_completion_unique,
//     which also drives CQ overflow and armed fault sites);
//   - refinement: a CQE's (err, payload) equals the synchronous syscall's
//     reply on the same pre-state, byte for byte, and the post-state is the
//     same (kernel/ring_refines_sync);
//   - backpressure is typed: a submission that cannot accept any entry
//     returns kWouldBlock through Result (never silently drops);
//   - completions past CQ capacity spill to an accounted overflow list and
//     are delivered on later reaps — accounting, not loss.
//
// Completion-awareness: an op whose synchronous form returns kWouldBlock
// transiently (udp_recvfrom / vtp_recv with an empty queue) is not completed
// with that error — it parks on the event it waits for (a WaitKey, see
// src/net/readiness.h) and completes on a later reactor pass once that event
// fires. The reactor is readiness-driven, in io_uring's poll-armed style: a
// pass drains net input, then executes only new, deferred and woken SQEs,
// so it costs O(ready), not O(parked). Skipping a parked SQE is invisible:
// re-executing it would only have returned kWouldBlock again. Closing a
// socket fd completes every SQE parked on it with kBadFd — the synchronous
// reply on a closed fd — before the fd number can be reused. A waiter that
// asks for more completions than are ready parks on the existing scheduler
// machinery (Scheduler::block, the same path SimFutex uses) and is woken when
// a completion is posted; callers that pass tid 0 poll instead of parking.
//
// Lock order: this table's lock, then a net stack's, then the readiness
// record's. Net code never takes the ring lock.
#ifndef VNROS_SRC_KERNEL_RING_H_
#define VNROS_SRC_KERNEL_RING_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/base/fault.h"
#include "src/base/result.h"
#include "src/base/serde.h"
#include "src/kernel/scheduler.h"
#include "src/net/ip.h"
#include "src/obs/registry.h"

namespace vnros {

// One submission: the syscall number, its argument bytes (same encoding as
// the synchronous frame after the nr word), and the caller's correlation id.
// ring_sqe<SysNr::k...> (src/kernel/syscall.h) builds one from typed args.
struct RingSqe {
  u64 user_data = 0;
  u32 op = 0;  // a SysNr value
  std::vector<u8> args;

  bool operator==(const RingSqe&) const = default;
};

// One completion: the originating SQE's user_data, the syscall's ErrorCode,
// and the same payload bytes a synchronous reply would carry after the
// error word.
struct RingCqe {
  u64 user_data = 0;
  u32 err = 0;  // an ErrorCode value
  std::vector<u8> payload;

  bool operator==(const RingCqe&) const = default;
};

// What one execution reports to the reactor besides (err, payload).
struct RingExecNote {
  // The event a transient kWouldBlock waits on; set by the handlers of the
  // parkable ops (kSysPark in the syscall table: udp_recvfrom, vtp_accept,
  // vtp_send, vtp_recv).
  std::optional<WaitKey> wait;
  // The events of a socket fd this execution closed: the reactor completes
  // the SQEs parked on them with kBadFd (see SysRingTable::cancel).
  std::vector<WaitKey> closed;
};

// A parked SQE as tests and VCs see it: in flight, executed at least once,
// and waiting for `key` with no wakeup pending.
struct RingParkedOp {
  u64 user_data = 0;
  u32 op = 0;
  WaitKey key;
};

// Aggregate counters for the kstat surface (ring/submitted, ring/completed,
// ring/sq_full, ring/cq_depth_p99).
class SysRingTable {
 public:
  // Slot bounds: a ring must have at least one slot each side; the cap keeps
  // a hostile setup frame from driving giant kernel allocations.
  static constexpr u32 kMaxSlots = 4096;

  // Executes one syscall by number against the owning kernel's state: the
  // dispatcher's own switch, so a ring-executed op IS the synchronous
  // transition. Appends the reply payload, fills `note`, and returns the
  // ErrorCode.
  using Executor =
      std::function<ErrorCode(u32 op, Reader& args, Writer& payload, RingExecNote& note)>;

  // `ip` is the kernel's net input: passes drain it and take its readiness
  // record's marks.
  SysRingTable(Scheduler& sched, IpStack& ip);

  // kRingSetup: creates a ring, returns its id (per-process namespace).
  Result<u32> setup(Pid pid, u32 sq_slots, u32 cq_slots);

  // kRingSubmit: accepts a prefix of `entries` bounded by free SQ slots and
  // runs a reactor pass. Returns the number accepted (possibly < entries
  // size — each refused entry is counted in sq_full); if no entry fits the
  // typed error is kWouldBlock. Ops without kSysRing in the syscall table
  // are accepted and completed immediately with kUnsupported (exactly-once
  // is preserved: refusal is only ever about capacity).
  Result<u32> submit(Pid pid, u32 ring_id, std::span<const RingSqe> entries,
                     const Executor& exec, const ThreadToken& sched_tok);

  // kRingWait: runs a reactor pass, then reaps up to max_reap completions
  // (CQ first, then the overflow list, FIFO). If fewer than min_complete are
  // ready and ops are still in flight, a caller with a nonzero tid parks on
  // the scheduler (woken when a completion is posted) and gets kWouldBlock;
  // a tid-0 caller just gets what is ready. With nothing in flight the call
  // always returns immediately — there is nothing to wait for.
  Result<std::vector<RingCqe>> wait(Pid pid, u32 ring_id, u32 min_complete, u32 max_reap,
                                    Tid tid, const Executor& exec,
                                    const ThreadToken& sched_tok);

  // Tears down all of a process's rings (process exit). In-flight SQEs are
  // discarded with their process; counters keep their totals.
  void destroy_rings(Pid pid);

  // A socket fd of `pid` was closed: completes every SQE of the process that
  // is parked on one of `keys` (the closed object's events) with kBadFd.
  // The dispatcher calls this before it returns the fd number to the free
  // list, so no parked op can run against the object that reuses it.
  void cancel(Pid pid, std::span<const WaitKey> keys, const ThreadToken& sched_tok);

  // --- thin views for kstat + tests ---------------------------------------
  u64 submitted() const { return c_submitted_->value(); }
  u64 completed() const { return c_completed_->value(); }
  u64 sq_full() const { return c_sq_full_->value(); }
  u64 cq_overflows() const { return c_cq_overflow_->value(); }
  // Executions of an SQE that had parked: a tripwire for wakeups that did
  // not need to happen (0 on idle sockets, one per woken op otherwise).
  u64 parked_reexecs() const { return c_parked_reexecs_->value(); }
  u64 cq_depth_p99() const { return h_cq_depth_->snapshot().percentile(99.0); }
  // In-flight (accepted, not yet completed) SQEs on one ring; 0 for unknown
  // rings. Test/VC helper for the submitted == completed + in_flight books.
  usize in_flight(Pid pid, u32 ring_id) const;
  // Completions ready to reap (CQ + overflow) on one ring.
  usize ready(Pid pid, u32 ring_id) const;
  // The ring's parked SQEs that no pending wakeup will run, in submission
  // order: each one's event must not have happened (kernel/ring_readiness).
  std::vector<RingParkedOp> parked(Pid pid, u32 ring_id) const;

 private:
  struct Pending {
    RingSqe sqe;
    u64 submit_pass = 0;    // reactor pass number at accept (latency books)
    bool deferred = false;  // "syscall/ring_complete" fired once already
    std::optional<WaitKey> parked_on;  // set from a kWouldBlock until re-executed
  };

  struct Ring {
    Pid pid = kInvalidPid;
    u32 sq_slots = 0;
    u32 cq_slots = 0;
    std::map<u64, Pending> sq;    // accepted, not yet completed, by submission seq
    std::set<u64> runnable;       // seqs the next pass executes: new, deferred, woken
    std::deque<RingCqe> cq;       // completed, not yet reaped
    std::deque<RingCqe> overflow; // completions past cq_slots (accounted)
    std::deque<Tid> waiters;      // parked ring_wait callers
  };

  // One parked SQE on a wait list.
  struct ParkRef {
    Ring* ring = nullptr;  // a node of rings_: stable until destroy_rings unlists it
    u64 seq = 0;
  };

  // Drains net input, then moves the SQEs parked on every marked key into
  // their ring's runnable set. Caller holds mu_.
  void poll_readiness();
  // Executes the ring's runnable SQEs in submission order; SQEs woken during
  // the pass run in it when they come later in the order. Caller holds mu_.
  void reactor_pass(Ring& ring, const Executor& exec, const ThreadToken& sched_tok);
  // Parks an SQE whose execution returned kWouldBlock on `key`.
  void park(Ring& ring, u64 seq, Pending& p, WaitKey key);
  void cancel_locked(Pid pid, std::span<const WaitKey> keys, const ThreadToken& sched_tok);
  // Drops `ring`'s SQEs from the wait lists (ring teardown).
  void unlist(Ring& ring);
  // Posts a completion and wakes the ring's parked waiters.
  void post_completion(Ring& ring, RingCqe cqe, const ThreadToken& sched_tok);

  Scheduler& sched_;
  IpStack& ip_;
  mutable std::mutex mu_;
  std::map<std::pair<Pid, u32>, Ring> rings_;
  u32 next_ring_id_ = 1;
  u64 next_seq_ = 0;
  // Wait lists: the SQEs parked on each armed key. A key's list moves to the
  // runnable sets when the key is marked.
  std::map<WaitKey, std::vector<ParkRef>> waiting_;
  std::vector<WaitKey> marked_;  // scratch for poll_readiness

  // Fault sites: submit-side injects a typed error as the op's completion
  // (the SQE is accepted and completed exactly once, just with the injected
  // error); complete-side defers an SQE the pass was about to execute by one
  // pass (deterministic slow completion). It is evaluated only for SQEs a
  // pass executes, and a deferred SQE runs on the next pass without needing
  // a wakeup. Chaos arms both over the blockstore's ring-served workload.
  FaultSite* submit_fault_ = &FaultRegistry::global().site("syscall/ring_submit");
  FaultSite* complete_fault_ = &FaultRegistry::global().site("syscall/ring_complete");

  // Per-kernel-instance obs instruments (kstat reads these thin views).
  std::string obs_prefix_;
  Counter* c_submitted_;
  Counter* c_completed_;
  Counter* c_sq_full_;
  Counter* c_cq_overflow_;
  Counter* c_parked_reexecs_;
  Histogram* h_cq_depth_;           // CQ+overflow depth at each post
  Histogram* h_completion_passes_;  // reactor passes from accept to post
  u64 pass_counter_ = 0;
};

}  // namespace vnros

#endif  // VNROS_SRC_KERNEL_RING_H_
