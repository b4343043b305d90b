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
// with that error — it stays in flight and completes on a later reactor pass
// once data arrives. A waiter that asks for more completions than are ready
// parks on the existing scheduler machinery (Scheduler::block, the same path
// SimFutex uses) and is woken when a completion is posted; callers that pass
// tid 0 poll instead of parking.
#ifndef VNROS_SRC_KERNEL_RING_H_
#define VNROS_SRC_KERNEL_RING_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/base/fault.h"
#include "src/base/result.h"
#include "src/base/serde.h"
#include "src/kernel/scheduler.h"
#include "src/obs/registry.h"

namespace vnros {

// One submission: the syscall number, its argument bytes (same encoding as
// the synchronous frame after the nr word), and the caller's correlation id.
struct RingSqe {
  u64 user_data = 0;
  u32 op = 0;  // a SysNr value
  std::vector<u8> args;
};

// One completion: the originating SQE's user_data, the syscall's ErrorCode,
// and the same payload bytes a synchronous reply would carry after the
// error word.
struct RingCqe {
  u64 user_data = 0;
  u32 err = 0;  // an ErrorCode value
  std::vector<u8> payload;
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
  // transition. Appends the reply payload and returns the ErrorCode.
  using Executor = std::function<ErrorCode(u32 op, Reader& args, Writer& payload)>;

  explicit SysRingTable(Scheduler& sched);

  // kRingSetup: creates a ring, returns its id (per-process namespace).
  Result<u32> setup(Pid pid, u32 sq_slots, u32 cq_slots);

  // kRingSubmit: accepts a prefix of `entries` bounded by free SQ slots and
  // runs a reactor pass. Returns the number accepted (possibly < entries
  // size — each refused entry is counted in sq_full); if no entry fits the
  // typed error is kWouldBlock. Ops outside the ring-submittable set are
  // accepted and completed immediately with kUnsupported (exactly-once is
  // preserved: refusal is only ever about capacity).
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

  // --- thin views for kstat + tests ---------------------------------------
  u64 submitted() const { return c_submitted_->value(); }
  u64 completed() const { return c_completed_->value(); }
  u64 sq_full() const { return c_sq_full_->value(); }
  u64 cq_overflows() const { return c_cq_overflow_->value(); }
  u64 cq_depth_p99() const { return h_cq_depth_->snapshot().percentile(99.0); }
  // In-flight (accepted, not yet completed) SQEs on one ring; 0 for unknown
  // rings. Test/VC helper for the submitted == completed + in_flight books.
  usize in_flight(Pid pid, u32 ring_id) const;
  // Completions ready to reap (CQ + overflow) on one ring.
  usize ready(Pid pid, u32 ring_id) const;

 private:
  struct Pending {
    RingSqe sqe;
    u64 submit_pass = 0;    // reactor pass number at accept (latency books)
    bool deferred = false;  // "syscall/ring_complete" fired once already
  };

  struct Ring {
    u32 sq_slots = 0;
    u32 cq_slots = 0;
    std::deque<Pending> sq;       // accepted, not yet completed (FIFO)
    std::deque<RingCqe> cq;       // completed, not yet reaped
    std::deque<RingCqe> overflow; // completions past cq_slots (accounted)
    std::deque<Tid> waiters;      // parked ring_wait callers
  };

  // Executes every pending SQE once; ops that complete are moved to the CQ
  // (or overflow) and parked waiters are woken. Returns completions posted.
  // Caller holds mu_.
  usize reactor_pass(Ring& ring, const Executor& exec, const ThreadToken& sched_tok);
  void post_completion(Ring& ring, RingCqe cqe);

  Scheduler& sched_;
  mutable std::mutex mu_;
  std::map<std::pair<Pid, u32>, Ring> rings_;
  u32 next_ring_id_ = 1;

  // Fault sites: submit-side injects a typed error as the op's completion
  // (the SQE is accepted and completed exactly once, just with the injected
  // error); complete-side defers a ready completion by one reactor pass
  // (deterministic slow completion). Chaos arms both over the blockstore's
  // ring-served workload.
  FaultSite* submit_fault_ = &FaultRegistry::global().site("syscall/ring_submit");
  FaultSite* complete_fault_ = &FaultRegistry::global().site("syscall/ring_complete");

  // Per-kernel-instance obs instruments (kstat reads these thin views).
  std::string obs_prefix_;
  Counter* c_submitted_;
  Counter* c_completed_;
  Counter* c_sq_full_;
  Counter* c_cq_overflow_;
  Histogram* h_cq_depth_;           // CQ+overflow depth at each post
  Histogram* h_completion_passes_;  // reactor passes from accept to post
  u64 pass_counter_ = 0;
};

// True for the syscalls a ring accepts: the data-plane I/O subset whose
// handlers are self-contained transitions (no process-control side effects,
// no nested rings). Everything else completes with kUnsupported.
bool ring_submittable(u32 op);

}  // namespace vnros

#endif  // VNROS_SRC_KERNEL_RING_H_
