// Ring-backed async syscalls for green threads: co_await a kernel SQE.
//
// URingExecutor owns one SysRing on a Sys facade and bridges its completions
// into the UScheduler: submit() returns an awaitable that enqueues one SQE
// and parks the calling uthread; poll() reaps CQEs and makes the matching
// tasks runnable again. The delivery discipline mirrors UChannel (U3): each
// CQE is *reserved* for the awaiter whose user_data it carries — written
// straight into the parked frame before make_ready — so no task can observe
// another task's completion and no wakeup is lost.
//
// Single-threaded like the rest of ulib: the host loop interleaves
// sched.step() with executor.poll(), exactly the way the blockstore serve
// loop pumps its worker ring.
#ifndef VNROS_SRC_ULIB_URING_H_
#define VNROS_SRC_ULIB_URING_H_

#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/base/result.h"
#include "src/base/types.h"
#include "src/kernel/syscall.h"
#include "src/ulib/uthread.h"

namespace vnros {

// What a completed ring op resolves to: the same (err, payload) pair the
// synchronous syscall reply carries.
struct RingOpResult {
  ErrorCode err = ErrorCode::kOk;
  std::vector<u8> payload;
};

class URingExecutor {
 public:
  URingExecutor(UScheduler& sched, Sys& sys) : sched_(sched), sys_(sys) {}

  URingExecutor(const URingExecutor&) = delete;
  URingExecutor& operator=(const URingExecutor&) = delete;

  Result<Unit> init(u32 sq_slots = 64, u32 cq_slots = 64) {
    auto id = sys_.ring_setup(sq_slots, cq_slots);
    if (!id.ok()) {
      return id.error();
    }
    ring_ = id.value();
    return Unit{};
  }

  struct OpAwaiter {
    URingExecutor* exec;
    RingSqe sqe;  // user_data is assigned at submission
    std::optional<RingOpResult> result;
    UTask::Handle handle{};

    bool await_ready() {
      // Submit eagerly. A rejected submission (SQ full, ring not set up)
      // resolves immediately with the typed error instead of parking the
      // task forever on a completion that will never arrive.
      ErrorCode err = exec->submit_one(sqe);
      if (err != ErrorCode::kOk) {
        result = RingOpResult{err, {}};
        return true;
      }
      // The submit-side reactor pass may already have queued our CQE; we
      // still suspend and let the next poll() deliver it — completions are
      // only observable through ring_wait, so nothing is lost.
      return false;
    }
    void await_suspend(UTask::Handle h) {
      handle = h;
      exec->waiters_[sqe.user_data] = this;
    }
    RingOpResult await_resume() {
      VNROS_CHECK(result.has_value());
      return std::move(*result);
    }
  };

  // co_await executor.submit<SysNr::k...>(args...) from inside a uthread.
  template <SysNr N, typename... A>
  OpAwaiter submit(A&&... args) {
    return OpAwaiter{this, ring_sqe<N>(0, std::forward<A>(args)...), std::nullopt};
  }

  // Reaps ready completions and re-queues their uthreads. Returns the number
  // delivered. Drive this from the host loop between sched.step() calls; a
  // CQE whose awaiter vanished (task destroyed while parked) is dropped.
  usize poll(u32 max_reap = 64) {
    auto cqes = sys_.ring_wait(ring_, 0, max_reap);
    if (!cqes.ok()) {
      return 0;
    }
    usize delivered = 0;
    for (RingCqe& cqe : cqes.value()) {
      auto it = waiters_.find(cqe.user_data);
      if (it == waiters_.end()) {
        continue;
      }
      OpAwaiter* waiter = it->second;
      waiters_.erase(it);
      waiter->result =
          RingOpResult{static_cast<ErrorCode>(cqe.err), std::move(cqe.payload)};
      sched_.make_ready(waiter->handle);
      ++delivered;
    }
    return delivered;
  }

  // Tasks parked on an in-flight or not-yet-reaped op.
  usize pending() const { return waiters_.size(); }
  u32 ring_id() const { return ring_; }

 private:
  friend struct OpAwaiter;

  // Gives `sqe` the next user_data and submits it alone.
  ErrorCode submit_one(RingSqe& sqe) {
    sqe.user_data = next_user_data_++;
    auto accepted = sys_.ring_submit(ring_, std::span<const RingSqe>(&sqe, 1));
    if (!accepted.ok()) {
      return accepted.error();
    }
    return accepted.value() == 1 ? ErrorCode::kOk : ErrorCode::kWouldBlock;
  }

  UScheduler& sched_;
  Sys& sys_;
  u32 ring_ = 0;
  u64 next_user_data_ = 1;
  std::map<u64, OpAwaiter*> waiters_;
};

}  // namespace vnros

#endif  // VNROS_SRC_ULIB_URING_H_
