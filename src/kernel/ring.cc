#include "src/kernel/ring.h"

#include <algorithm>
#include <utility>

#include "src/base/contracts.h"
#include "src/kernel/syscall.h"

namespace vnros {

SysRingTable::SysRingTable(Scheduler& sched, IpStack& ip)
    : sched_(sched), ip_(ip), obs_prefix_(ObsRegistry::global().instance_prefix("ring")) {
  ObsRegistry& reg = ObsRegistry::global();
  c_submitted_ = &reg.counter(obs_prefix_ + "submitted");
  c_completed_ = &reg.counter(obs_prefix_ + "completed");
  c_sq_full_ = &reg.counter(obs_prefix_ + "sq_full");
  c_cq_overflow_ = &reg.counter(obs_prefix_ + "cq_overflow");
  c_parked_reexecs_ = &reg.counter(obs_prefix_ + "parked_reexecs");
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
  ring.pid = pid;
  ring.sq_slots = sq_slots;
  ring.cq_slots = cq_slots;
  rings_.emplace(std::make_pair(pid, id), std::move(ring));
  return id;
}

void SysRingTable::post_completion(Ring& ring, RingCqe cqe, const ThreadToken& sched_tok) {
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
  while (!ring.waiters.empty()) {
    Tid tid = ring.waiters.front();
    ring.waiters.pop_front();
    (void)sched_.wake(sched_tok, tid);
  }
}

void SysRingTable::poll_readiness() {
  ip_.poll();
  ip_.readiness().take(marked_);
  for (const WaitKey& key : marked_) {
    auto it = waiting_.find(key);
    if (it == waiting_.end()) {
      continue;
    }
    for (const ParkRef& ref : it->second) {
      ref.ring->runnable.insert(ref.seq);
    }
    waiting_.erase(it);
  }
  marked_.clear();
}

void SysRingTable::park(Ring& ring, u64 seq, Pending& p, WaitKey key) {
  p.parked_on = key;
  if (ip_.readiness().arm(key)) {
    ring.runnable.insert(seq);  // the event beat the arming: run it next pass
    return;
  }
  waiting_[key].push_back(ParkRef{&ring, seq});
}

void SysRingTable::reactor_pass(Ring& ring, const Executor& exec,
                                const ThreadToken& sched_tok) {
  ++pass_counter_;
  // Net input first: every event before this pass marks its key, and the
  // SQEs parked on it join the runnable set. Without parked SQEs there is
  // nothing to wake, and each executed net op drains input itself.
  auto some_parked = [&ring] { return ring.sq.size() > ring.runnable.size(); };
  if (some_parked()) {
    poll_readiness();
  }
  // Runnable SQEs in submission order. An SQE woken mid-pass runs in this
  // pass when it comes later in the order, as it would have when every
  // pending SQE was executed each pass; an earlier one waits for the next.
  for (auto it = ring.runnable.begin(); it != ring.runnable.end();) {
    const u64 seq = *it;
    Pending& p = ring.sq.at(seq);
    if (!p.deferred && complete_fault_->fire()) {
      // Deterministic slow completion: defer this op — execution and
      // completion together — by one reactor pass. The injected code is
      // irrelevant; the site is a delay, not an error. It stays runnable.
      p.deferred = true;
      it = ring.runnable.upper_bound(seq);
      continue;
    }
    ring.runnable.erase(it);
    if (p.parked_on) {
      c_parked_reexecs_->inc();
      p.parked_on.reset();
    }
    Reader args(p.sqe.args);
    Writer payload;
    RingExecNote note;
    ErrorCode err = exec(p.sqe.op, args, payload, note);
    if (err == ErrorCode::kWouldBlock && (sys_flags(p.sqe.op) & kSysPark) != 0) {
      VNROS_CHECK(note.wait.has_value());  // every parkable handler names its event
      park(ring, seq, p, *note.wait);
    } else {
      h_completion_passes_->record(pass_counter_ - p.submit_pass);
      u64 user_data = p.sqe.user_data;
      ring.sq.erase(seq);
      post_completion(ring, RingCqe{user_data, static_cast<u32>(err), payload.take()},
                      sched_tok);
    }
    if (!note.closed.empty()) {
      // This op closed a socket: its parked ops complete after it, before
      // any later op can run against a reused fd.
      cancel_locked(ring.pid, note.closed, sched_tok);
    }
    // The op may have delivered frames to this host (a loopback send):
    // their events must wake the parked SQEs still ahead in this pass.
    if (some_parked()) {
      poll_readiness();
    }
    it = ring.runnable.upper_bound(seq);
  }
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
    if ((sys_flags(e.op) & kSysRing) == 0) {
      h_completion_passes_->record(0);
      post_completion(ring, RingCqe{e.user_data, static_cast<u32>(ErrorCode::kUnsupported), {}},
                      sched_tok);
      continue;
    }
    if (auto injected = submit_fault_->fire()) {
      // The entry is accepted and completes exactly once — with the injected
      // error instead of its effect (the op never executes).
      h_completion_passes_->record(0);
      post_completion(ring, RingCqe{e.user_data, static_cast<u32>(*injected), {}}, sched_tok);
      continue;
    }
    Pending p;
    p.sqe = e;
    p.submit_pass = pass_counter_;
    const u64 seq = next_seq_++;
    ring.sq.emplace(seq, std::move(p));
    ring.runnable.insert(seq);
  }
  if (accepted == 0 && !entries.empty()) {
    return ErrorCode::kWouldBlock;
  }
  reactor_pass(ring, exec, sched_tok);
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
  reactor_pass(ring, exec, sched_tok);
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

void SysRingTable::cancel(Pid pid, std::span<const WaitKey> keys, const ThreadToken& sched_tok) {
  std::lock_guard<std::mutex> lock(mu_);
  cancel_locked(pid, keys, sched_tok);
}

void SysRingTable::cancel_locked(Pid pid, std::span<const WaitKey> keys,
                                 const ThreadToken& sched_tok) {
  auto closed = [&keys](const Pending& p) {
    return p.parked_on && std::find(keys.begin(), keys.end(), *p.parked_on) != keys.end();
  };
  for (const WaitKey& key : keys) {
    waiting_.erase(key);
    ip_.readiness().disarm(key);
  }
  // Parked SQEs keep `parked_on` until they run again, so this finds the
  // ones still waiting and the ones woken but not yet re-executed.
  for (auto rit = rings_.lower_bound({pid, 0}); rit != rings_.end() && rit->first.first == pid;
       ++rit) {
    Ring& ring = rit->second;
    for (auto pit = ring.sq.begin(); pit != ring.sq.end();) {
      if (!closed(pit->second)) {
        ++pit;
        continue;
      }
      h_completion_passes_->record(pass_counter_ - pit->second.submit_pass);
      u64 user_data = pit->second.sqe.user_data;
      ring.runnable.erase(pit->first);
      pit = ring.sq.erase(pit);
      post_completion(ring, RingCqe{user_data, static_cast<u32>(ErrorCode::kBadFd), {}},
                      sched_tok);
    }
  }
}

void SysRingTable::unlist(Ring& ring) {
  for (auto& [seq, p] : ring.sq) {
    if (!p.parked_on) {
      continue;
    }
    auto it = waiting_.find(*p.parked_on);
    if (it == waiting_.end()) {
      continue;
    }
    std::erase_if(it->second, [&](const ParkRef& r) { return r.ring == &ring && r.seq == seq; });
    if (it->second.empty()) {
      ip_.readiness().disarm(it->first);
      waiting_.erase(it);
    }
  }
}

void SysRingTable::destroy_rings(Pid pid) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = rings_.lower_bound({pid, 0}); it != rings_.end() && it->first.first == pid;) {
    unlist(it->second);
    it = rings_.erase(it);
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

std::vector<RingParkedOp> SysRingTable::parked(Pid pid, u32 ring_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RingParkedOp> out;
  auto it = rings_.find({pid, ring_id});
  if (it == rings_.end()) {
    return out;
  }
  for (const auto& [seq, p] : it->second.sq) {
    if (p.parked_on && it->second.runnable.count(seq) == 0) {
      out.push_back(RingParkedOp{p.sqe.user_data, p.sqe.op, *p.parked_on});
    }
  }
  return out;
}

}  // namespace vnros
