#include "src/kernel/ring.h"

#include <algorithm>
#include <utility>

#include "src/base/contracts.h"

namespace vnros {

namespace {

// SysNr values duplicated here as raw u32s to keep ring.h free of a
// syscall.h include cycle (syscall.h includes kernel.h includes ring.h).
constexpr u32 kNrOpen = 10;
constexpr u32 kNrClose = 11;
constexpr u32 kNrRead = 12;
constexpr u32 kNrWrite = 13;
constexpr u32 kNrLseek = 14;
constexpr u32 kNrFstat = 15;
constexpr u32 kNrFsync = 22;
constexpr u32 kNrUdpSendTo = 62;
constexpr u32 kNrUdpRecvFrom = 63;
constexpr u32 kNrVtpAccept = 111;
constexpr u32 kNrVtpSend = 113;
constexpr u32 kNrVtpRecv = 114;

// Ops whose transient kWouldBlock means "nothing to deliver yet" (or, for
// vtp_send, "no buffer space yet"): the ring parks these in flight instead
// of completing with the error.
bool parkable(u32 op) {
  return op == kNrUdpRecvFrom || op == kNrVtpAccept || op == kNrVtpSend ||
         op == kNrVtpRecv;
}

}  // namespace

bool ring_submittable(u32 op) {
  switch (op) {
    case kNrOpen:
    case kNrClose:
    case kNrRead:
    case kNrWrite:
    case kNrLseek:
    case kNrFstat:
    case kNrFsync:
    case kNrUdpSendTo:
    case kNrUdpRecvFrom:
    case kNrVtpAccept:
    case kNrVtpSend:
    case kNrVtpRecv:
      return true;
    default:
      return false;
  }
}

SysRingTable::SysRingTable(Scheduler& sched)
    : sched_(sched), obs_prefix_(ObsRegistry::global().instance_prefix("ring")) {
  ObsRegistry& reg = ObsRegistry::global();
  c_submitted_ = &reg.counter(obs_prefix_ + "submitted");
  c_completed_ = &reg.counter(obs_prefix_ + "completed");
  c_sq_full_ = &reg.counter(obs_prefix_ + "sq_full");
  c_cq_overflow_ = &reg.counter(obs_prefix_ + "cq_overflow");
  h_cq_depth_ = &reg.histogram(obs_prefix_ + "cq_depth");
  h_completion_passes_ = &reg.histogram(obs_prefix_ + "completion_passes");
}

Result<u32> SysRingTable::setup(Pid pid, u32 sq_slots, u32 cq_slots) {
  if (sq_slots == 0 || cq_slots == 0 || sq_slots > kMaxSlots || cq_slots > kMaxSlots) {
    return ErrorCode::kInvalidArgument;
  }
  std::lock_guard<std::mutex> lock(mu_);
  u32 id = next_ring_id_++;
  Ring ring;
  ring.sq_slots = sq_slots;
  ring.cq_slots = cq_slots;
  rings_.emplace(std::make_pair(pid, id), std::move(ring));
  return id;
}

void SysRingTable::post_completion(Ring& ring, RingCqe cqe) {
  if (ring.cq.size() < ring.cq_slots) {
    ring.cq.push_back(std::move(cqe));
  } else {
    // Accounted spill, never a drop: overflow completions are reaped after
    // the CQ proper, in posting order.
    ring.overflow.push_back(std::move(cqe));
    c_cq_overflow_->inc();
  }
  c_completed_->inc();
  h_cq_depth_->record(ring.cq.size() + ring.overflow.size());
}

usize SysRingTable::reactor_pass(Ring& ring, const Executor& exec,
                                 const ThreadToken& sched_tok) {
  ++pass_counter_;
  usize posted = 0;
  // One execution attempt per pending SQE, FIFO. Completed entries leave the
  // SQ; parked entries (transient kWouldBlock on a recv) stay for the next
  // pass. Iterate over a stable snapshot of positions: execution never adds
  // SQEs (ring ops are not ring-submittable).
  for (usize i = 0; i < ring.sq.size();) {
    Pending& p = ring.sq[i];
    if (!p.deferred) {
      if (auto injected = complete_fault_->fire()) {
        // Deterministic slow completion: defer this op — execution and
        // completion together — by one reactor pass. The injected code is
        // irrelevant; the site is a delay, not an error.
        (void)injected;
        p.deferred = true;
        ++i;
        continue;
      }
    }
    Reader args(p.sqe.args);
    Writer payload;
    ErrorCode err = exec(p.sqe.op, args, payload);
    if (err == ErrorCode::kWouldBlock && parkable(p.sqe.op)) {
      ++i;
      continue;
    }
    h_completion_passes_->record(pass_counter_ - p.submit_pass);
    post_completion(ring, RingCqe{p.sqe.user_data, static_cast<u32>(err), payload.take()});
    ++posted;
    ring.sq.erase(ring.sq.begin() + static_cast<std::ptrdiff_t>(i));
  }
  if (posted > 0) {
    while (!ring.waiters.empty()) {
      Tid tid = ring.waiters.front();
      ring.waiters.pop_front();
      (void)sched_.wake(sched_tok, tid);
    }
  }
  return posted;
}

Result<u32> SysRingTable::submit(Pid pid, u32 ring_id, std::span<const RingSqe> entries,
                                 const Executor& exec, const ThreadToken& sched_tok) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rings_.find({pid, ring_id});
  if (it == rings_.end()) {
    return ErrorCode::kNotFound;
  }
  Ring& ring = it->second;
  u32 accepted = 0;
  for (const RingSqe& e : entries) {
    if (ring.sq.size() >= ring.sq_slots) {
      // Typed backpressure: every refused entry is accounted; nothing is
      // silently dropped. Acceptance is a strict prefix so the caller can
      // resubmit the tail verbatim.
      c_sq_full_->add(entries.size() - accepted);
      break;
    }
    c_submitted_->inc();
    ++accepted;
    if (!ring_submittable(e.op)) {
      h_completion_passes_->record(0);
      post_completion(ring, RingCqe{e.user_data, static_cast<u32>(ErrorCode::kUnsupported), {}});
      continue;
    }
    if (auto injected = submit_fault_->fire()) {
      // The entry is accepted and completes exactly once — with the injected
      // error instead of its effect (the op never executes).
      h_completion_passes_->record(0);
      post_completion(ring, RingCqe{e.user_data, static_cast<u32>(*injected), {}});
      continue;
    }
    Pending p;
    p.sqe = e;
    p.submit_pass = pass_counter_;
    ring.sq.push_back(std::move(p));
  }
  if (accepted == 0 && !entries.empty()) {
    return ErrorCode::kWouldBlock;
  }
  usize posted = reactor_pass(ring, exec, sched_tok);
  if (posted == 0 && accepted > 0) {
    // Immediate completions above (unsupported op / injected error) still
    // need to release parked waiters even when the pass itself posted none.
    bool ready_now = !ring.cq.empty() || !ring.overflow.empty();
    while (ready_now && !ring.waiters.empty()) {
      Tid tid = ring.waiters.front();
      ring.waiters.pop_front();
      (void)sched_.wake(sched_tok, tid);
    }
  }
  return accepted;
}

Result<std::vector<RingCqe>> SysRingTable::wait(Pid pid, u32 ring_id, u32 min_complete,
                                                u32 max_reap, Tid tid, const Executor& exec,
                                                const ThreadToken& sched_tok) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rings_.find({pid, ring_id});
  if (it == rings_.end()) {
    return ErrorCode::kNotFound;
  }
  Ring& ring = it->second;
  (void)reactor_pass(ring, exec, sched_tok);
  usize available = ring.cq.size() + ring.overflow.size();
  if (available < min_complete && !ring.sq.empty() && tid != 0) {
    // Completion-aware parking: block on the scheduler (the SimFutex path)
    // and let the next posted completion wake us. kWouldBlock tells the
    // caller the park happened — nothing was reaped.
    ErrorCode blocked = sched_.block(sched_tok, tid);
    if (blocked != ErrorCode::kOk) {
      return blocked;
    }
    ring.waiters.push_back(tid);
    return ErrorCode::kWouldBlock;
  }
  // With nothing in flight (or a polling caller) the wait returns
  // immediately with whatever is ready — possibly nothing.
  std::vector<RingCqe> out;
  usize take = std::min<usize>(available, max_reap);
  out.reserve(take);
  while (out.size() < take) {
    std::deque<RingCqe>& q = !ring.cq.empty() ? ring.cq : ring.overflow;
    out.push_back(std::move(q.front()));
    q.pop_front();
  }
  // Freed CQ slots absorb the overflow backlog in posting order.
  while (ring.cq.size() < ring.cq_slots && !ring.overflow.empty()) {
    ring.cq.push_back(std::move(ring.overflow.front()));
    ring.overflow.pop_front();
  }
  return out;
}

void SysRingTable::destroy_rings(Pid pid) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = rings_.begin(); it != rings_.end();) {
    if (it->first.first == pid) {
      it = rings_.erase(it);
    } else {
      ++it;
    }
  }
}

usize SysRingTable::in_flight(Pid pid, u32 ring_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rings_.find({pid, ring_id});
  return it == rings_.end() ? 0 : it->second.sq.size();
}

usize SysRingTable::ready(Pid pid, u32 ring_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rings_.find({pid, ring_id});
  return it == rings_.end() ? 0 : it->second.cq.size() + it->second.overflow.size();
}

}  // namespace vnros
