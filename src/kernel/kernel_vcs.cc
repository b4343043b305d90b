// Verification conditions for the kernel services: allocator set semantics,
// VM mapping/copy obligations, scheduler and process-directory refinement,
// filesystem model equivalence and crash consistency, syscall marshalling
// and the paper's read_spec contract, futex lost-wakeup freedom.
#include "src/kernel/vcs.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/fault.h"
#include "src/base/rng.h"
#include "src/kernel/frame_alloc.h"
#include "src/kernel/fs.h"
#include "src/kernel/futex.h"
#include "src/kernel/kernel.h"
#include "src/kernel/machine.h"
#include "src/kernel/nrfs.h"
#include "src/kernel/pipe.h"
#include "src/kernel/process.h"
#include "src/kernel/scheduler.h"
#include "src/kernel/syscall.h"
#include "src/kernel/vm.h"

namespace vnros {
namespace {

// --- Frame allocator -----------------------------------------------------------

VcOutcome vc_frame_alloc_set_semantics(u64 seed) {
  PhysMem mem(1024);
  Topology topo(4, 2);
  FrameAllocator alloc(mem, topo);
  Rng rng(seed);
  std::set<u64> model;  // allocated frame numbers
  std::vector<PAddr> held;
  const u64 total = alloc.total_frames();

  for (int i = 0; i < 3000; ++i) {
    if (held.empty() || rng.chance(3, 5)) {
      auto r = alloc.alloc_on_node(static_cast<NodeId>(rng.next_below(2)));
      if (!r.ok()) {
        if (model.size() != total) {
          return VcOutcome::fail("alloc failed while frames remain");
        }
        continue;
      }
      u64 fn = r.value().frame_number();
      if (model.count(fn) != 0) {
        return VcOutcome::fail("frame handed out twice");
      }
      model.insert(fn);
      held.push_back(r.value());
    } else {
      usize idx = rng.next_below(held.size());
      PAddr f = held[idx];
      held[idx] = held.back();
      held.pop_back();
      alloc.free(f);
      model.erase(f.frame_number());
    }
    if (alloc.free_frames() != total - model.size()) {
      return VcOutcome::fail("free-count accounting diverged from the model");
    }
  }
  return VcOutcome::pass();
}

VcOutcome vc_frame_alloc_numa_locality() {
  PhysMem mem(1024);
  Topology topo(4, 2);  // 2 nodes
  FrameAllocator alloc(mem, topo);
  // Allocations with a free preferred pool must come from it (no fallbacks).
  for (int i = 0; i < 50; ++i) {
    auto a = alloc.alloc_on_node(0);
    auto b = alloc.alloc_on_node(1);
    if (!a.ok() || !b.ok()) {
      return VcOutcome::fail("alloc failed");
    }
  }
  if (alloc.stats().remote_fallbacks != 0) {
    return VcOutcome::fail("allocator fell back remotely despite local space");
  }
  return VcOutcome::pass();
}

VcOutcome vc_frame_alloc_exhaustion() {
  PhysMem mem(64);
  Topology topo(2, 1);
  FrameAllocator alloc(mem, topo, 8);
  std::vector<PAddr> all;
  for (;;) {
    auto r = alloc.alloc_on_node(0);
    if (!r.ok()) {
      break;
    }
    all.push_back(r.value());
  }
  if (all.size() != alloc.total_frames()) {
    return VcOutcome::fail("exhaustion before all frames were handed out");
  }
  if (alloc.alloc_on_node(1).ok()) {
    return VcOutcome::fail("alloc succeeded on an exhausted machine");
  }
  alloc.free(all.back());
  if (!alloc.alloc_on_node(0).ok()) {
    return VcOutcome::fail("alloc failed right after a free");
  }
  return VcOutcome::pass();
}

// --- Virtual memory ------------------------------------------------------------

VcOutcome vc_vm_mmap_balance(u64 seed) {
  PhysMem mem(2048);
  Topology topo(2, 1);
  FrameAllocator alloc(mem, topo);
  u64 baseline = alloc.free_frames();
  {
    VmManager vm(mem, alloc);
    Rng rng(seed);
    std::vector<VAddr> regions;
    for (int i = 0; i < 60; ++i) {
      if (regions.empty() || rng.chance(2, 3)) {
        auto r = vm.mmap(rng.next_range(1, 5 * kPageSize), Perms::rw());
        if (r.ok()) {
          regions.push_back(r.value());
        }
      } else {
        usize idx = rng.next_below(regions.size());
        if (!vm.munmap(regions[idx]).ok()) {
          return VcOutcome::fail("munmap of live region failed");
        }
        regions.erase(regions.begin() + static_cast<std::ptrdiff_t>(idx));
      }
    }
    // Double-munmap must fail cleanly.
    if (!regions.empty()) {
      VAddr v = regions[0];
      (void)vm.munmap(v);
      if (vm.munmap(v).ok()) {
        return VcOutcome::fail("double munmap succeeded");
      }
    }
  }
  // VmManager teardown must return every frame (incl. page-table frames).
  PhysMem mem2(2048);  // silence unused warning path; real check below
  (void)mem2;
  FrameAllocator* ap = &alloc;
  if (ap->free_frames() != baseline) {
    return VcOutcome::fail("frames leaked across VmManager lifetime");
  }
  return VcOutcome::pass();
}

VcOutcome vc_vm_copy_roundtrip(u64 seed) {
  PhysMem mem(2048);
  Topology topo(2, 1);
  FrameAllocator alloc(mem, topo);
  VmManager vm(mem, alloc);
  Rng rng(seed);
  auto region = vm.mmap(8 * kPageSize, Perms::rw());
  if (!region.ok()) {
    return VcOutcome::fail("mmap failed");
  }
  for (int i = 0; i < 50; ++i) {
    // Random offset and length, deliberately crossing page boundaries.
    u64 off = rng.next_below(7 * kPageSize);
    usize len = static_cast<usize>(rng.next_range(1, kPageSize + 500));
    std::vector<u8> out(len);
    for (auto& b : out) {
      b = static_cast<u8>(rng.next_u64());
    }
    if (!vm.copy_out(region.value().offset(off), out).ok()) {
      return VcOutcome::fail("copy_out failed inside a mapped region");
    }
    std::vector<u8> back(len);
    if (!vm.copy_in(region.value().offset(off), back).ok()) {
      return VcOutcome::fail("copy_in failed");
    }
    if (back != out) {
      return VcOutcome::fail("user-memory round-trip corrupted bytes");
    }
  }
  // Out-of-region access must fail, and not partially write.
  std::vector<u8> probe(64);
  if (vm.copy_in(region.value().offset(8 * kPageSize + kPageSize), probe).ok()) {
    return VcOutcome::fail("copy_in from unmapped memory succeeded");
  }
  return VcOutcome::pass();
}

VcOutcome vc_vm_write_protection() {
  PhysMem mem(1024);
  Topology topo(2, 1);
  FrameAllocator alloc(mem, topo);
  VmManager vm(mem, alloc);
  auto ro = vm.mmap(kPageSize, Perms::ro());
  if (!ro.ok()) {
    return VcOutcome::fail("mmap failed");
  }
  std::vector<u8> data(16, 0xAB);
  auto w = vm.copy_out(ro.value(), data);
  if (w.ok() || w.error() != ErrorCode::kNotPermitted) {
    return VcOutcome::fail("write through a read-only mapping was not rejected");
  }
  std::vector<u8> back(16);
  if (!vm.copy_in(ro.value(), back).ok()) {
    return VcOutcome::fail("read of a read-only mapping failed");
  }
  return VcOutcome::pass();
}

VcOutcome vc_vm_process_isolation() {
  PhysMem mem(2048);
  Topology topo(2, 1);
  FrameAllocator alloc(mem, topo);
  VmManager vm_a(mem, alloc);
  VmManager vm_b(mem, alloc);
  auto ra = vm_a.mmap(2 * kPageSize, Perms::rw());
  auto rb = vm_b.mmap(2 * kPageSize, Perms::rw());
  if (!ra.ok() || !rb.ok()) {
    return VcOutcome::fail("mmap failed");
  }
  // Same virtual address in both (deterministic base), different frames.
  std::vector<u8> pa(64, 0xAA), pb(64, 0xBB);
  (void)vm_a.copy_out(ra.value(), pa);
  (void)vm_b.copy_out(rb.value(), pb);
  std::vector<u8> check(64);
  (void)vm_a.copy_in(ra.value(), check);
  if (check != pa) {
    return VcOutcome::fail("process A's memory was disturbed by process B");
  }
  (void)vm_b.copy_in(rb.value(), check);
  if (check != pb) {
    return VcOutcome::fail("process B's memory was disturbed by process A");
  }
  return VcOutcome::pass();
}

// --- Scheduler -------------------------------------------------------------------

VcOutcome vc_sched_exactly_one_state(u64 seed) {
  Topology topo(4, 2);
  Scheduler sched(topo);
  auto tok = sched.register_core(0);
  Rng rng(seed);
  std::vector<Tid> tids;
  for (Tid t = 1; t <= 12; ++t) {
    if (sched.add_thread(tok, t, 1, 1, static_cast<CoreId>(rng.next_below(4))) !=
        ErrorCode::kOk) {
      return VcOutcome::fail("add_thread failed");
    }
    tids.push_back(t);
  }
  for (int i = 0; i < 500; ++i) {
    u64 kind = rng.next_below(4);
    Tid t = tids[rng.next_below(tids.size())];
    switch (kind) {
      case 0: (void)sched.block(tok, t); break;
      case 1: (void)sched.wake(tok, t); break;
      case 2: (void)sched.pick(tok, static_cast<CoreId>(rng.next_below(4))); break;
      case 3: (void)sched.yield(tok, static_cast<CoreId>(rng.next_below(4))); break;
      default: break;
    }
    // Invariant: every live thread is in exactly one place.
    sched.sync(tok);
    const SchedulerDs& ds = sched.peek(0);
    for (Tid tid : tids) {
      const auto& info = ds.threads.at(tid);
      usize in_queues = 0;
      for (const auto& q : ds.queues) {
        in_queues += static_cast<usize>(std::count(q.begin(), q.end(), tid));
      }
      usize in_running = static_cast<usize>(
          std::count(ds.running.begin(), ds.running.end(), tid));
      switch (info.state) {
        case ThreadState::kReady:
          if (in_queues != 1 || in_running != 0) {
            return VcOutcome::fail("ready thread not in exactly one queue");
          }
          break;
        case ThreadState::kRunning:
          if (in_queues != 0 || in_running != 1) {
            return VcOutcome::fail("running thread misplaced");
          }
          break;
        case ThreadState::kBlocked:
        case ThreadState::kExited:
          if (in_queues != 0 || in_running != 0) {
            return VcOutcome::fail("blocked/exited thread still queued");
          }
          break;
      }
    }
  }
  return VcOutcome::pass();
}

VcOutcome vc_sched_round_robin_fairness() {
  Topology topo(2, 1);
  Scheduler sched(topo);
  auto tok = sched.register_core(0);
  for (Tid t = 1; t <= 5; ++t) {
    (void)sched.add_thread(tok, t, 1, 1, 0);
  }
  std::map<Tid, int> picks;
  for (int round = 0; round < 10; ++round) {
    Tid t = sched.pick(tok, 0);
    if (t == 0) {
      return VcOutcome::fail("idle despite ready threads");
    }
    ++picks[t];
  }
  for (Tid t = 1; t <= 5; ++t) {
    if (picks[t] != 2) {
      return VcOutcome::fail("round-robin fairness violated: thread " + std::to_string(t) +
                             " picked " + std::to_string(picks[t]) + "x in 10 picks");
    }
  }
  return VcOutcome::pass();
}

VcOutcome vc_sched_priority() {
  Topology topo(2, 1);
  Scheduler sched(topo);
  auto tok = sched.register_core(0);
  (void)sched.add_thread(tok, 1, 1, 1, 0);   // low
  (void)sched.add_thread(tok, 2, 1, 5, 0);   // high
  (void)sched.add_thread(tok, 3, 1, 5, 0);   // high
  if (sched.pick(tok, 0) != 2 || sched.pick(tok, 0) != 3) {
    return VcOutcome::fail("higher priority threads not preferred");
  }
  // Both high threads requeued behind; next picks alternate among them, the
  // low thread starves until they block.
  (void)sched.block(tok, 2);
  (void)sched.block(tok, 3);
  if (sched.pick(tok, 0) != 1) {
    return VcOutcome::fail("low priority thread not scheduled once highs blocked");
  }
  return VcOutcome::pass();
}

VcOutcome vc_sched_blocked_never_picked() {
  Topology topo(2, 1);
  Scheduler sched(topo);
  auto tok = sched.register_core(0);
  (void)sched.add_thread(tok, 1, 1, 1, 0);
  (void)sched.add_thread(tok, 2, 1, 1, 0);
  (void)sched.block(tok, 1);
  for (int i = 0; i < 6; ++i) {
    if (sched.pick(tok, 0) == 1) {
      return VcOutcome::fail("blocked thread was scheduled");
    }
  }
  (void)sched.wake(tok, 1);
  bool seen = false;
  for (int i = 0; i < 4; ++i) {
    if (sched.pick(tok, 0) == 1) {
      seen = true;
    }
  }
  if (!seen) {
    return VcOutcome::fail("woken thread never scheduled again");
  }
  return VcOutcome::pass();
}

VcOutcome vc_sched_nr_replicas_agree(u64 seed) {
  Topology topo(4, 2);
  Scheduler sched(topo);
  auto t0 = sched.register_core(0);
  auto t1 = sched.register_core(2);
  Rng rng(seed);
  for (Tid t = 1; t <= 8; ++t) {
    (void)sched.add_thread(rng.chance(1, 2) ? t0 : t1, t, 1, 1,
                           static_cast<CoreId>(rng.next_below(4)));
  }
  for (int i = 0; i < 300; ++i) {
    const auto& tok = rng.chance(1, 2) ? t0 : t1;
    switch (rng.next_below(4)) {
      case 0: (void)sched.block(tok, rng.next_range(1, 8)); break;
      case 1: (void)sched.wake(tok, rng.next_range(1, 8)); break;
      case 2: (void)sched.pick(tok, static_cast<CoreId>(rng.next_below(4))); break;
      default: (void)sched.yield(tok, static_cast<CoreId>(rng.next_below(4))); break;
    }
  }
  sched.sync(t0);
  sched.sync(t1);
  if (!(sched.peek(0) == sched.peek(1))) {
    return VcOutcome::fail("scheduler replicas diverged");
  }
  return VcOutcome::pass();
}

// --- Process directory ---------------------------------------------------------------

VcOutcome vc_proc_lifecycle() {
  PhysMem mem(2048);
  Topology topo(2, 1);
  FrameAllocator frames(mem, topo);
  ProcessManager pm(mem, frames, topo);
  auto tok = pm.register_core(0);

  auto root = pm.spawn(tok, kInvalidPid);
  auto child = pm.spawn(tok, root.value());
  if (!root.ok() || !child.ok() || root.value() == child.value()) {
    return VcOutcome::fail("spawn failed or pids not unique");
  }
  // Waiting on a live child reports WouldBlock.
  auto early = pm.wait(tok, root.value(), child.value());
  if (early.ok() || early.error() != ErrorCode::kWouldBlock) {
    return VcOutcome::fail("wait on a running child did not block");
  }
  if (!pm.exit(tok, child.value(), 42).ok()) {
    return VcOutcome::fail("exit failed");
  }
  if (pm.get(child.value()) != nullptr) {
    return VcOutcome::fail("exited process object not torn down");
  }
  // Wrong parent cannot reap.
  auto stranger = pm.spawn(tok, kInvalidPid);
  auto stolen = pm.wait(tok, stranger.value(), child.value());
  if (stolen.ok() || stolen.error() != ErrorCode::kNotPermitted) {
    return VcOutcome::fail("non-parent reaped a child");
  }
  auto code = pm.wait(tok, root.value(), child.value());
  if (!code.ok() || code.value() != 42) {
    return VcOutcome::fail("exit code lost");
  }
  auto again = pm.wait(tok, root.value(), child.value());
  if (again.ok()) {
    return VcOutcome::fail("child reaped twice");
  }
  return VcOutcome::pass();
}

VcOutcome vc_proc_signals() {
  PhysMem mem(2048);
  Topology topo(2, 1);
  FrameAllocator frames(mem, topo);
  ProcessManager pm(mem, frames, topo);
  auto tok = pm.register_core(0);
  auto pid = pm.spawn(tok, kInvalidPid);

  if (!pm.kill(tok, pid.value(), kSigTerm).ok() || !pm.kill(tok, pid.value(), kSigUsr1).ok()) {
    return VcOutcome::fail("kill failed");
  }
  auto s1 = pm.take_signal(tok, pid.value());
  auto s2 = pm.take_signal(tok, pid.value());
  auto s3 = pm.take_signal(tok, pid.value());
  if (!s1.ok() || !s2.ok() || !s3.ok()) {
    return VcOutcome::fail("take_signal failed");
  }
  std::set<u32> got{s1.value(), s2.value()};
  if (got != std::set<u32>{kSigTerm, kSigUsr1} || s3.value() != 0) {
    return VcOutcome::fail("pending signal set wrong");
  }
  // SIGKILL is immediate.
  if (!pm.kill(tok, pid.value(), kSigKill).ok()) {
    return VcOutcome::fail("SIGKILL failed");
  }
  auto meta = pm.meta(tok, pid.value());
  if (!meta.ok() || meta.value().state != ProcState::kZombie ||
      meta.value().exit_code != -static_cast<i32>(kSigKill)) {
    return VcOutcome::fail("SIGKILL did not zombify with -9");
  }
  if (pm.kill(tok, pid.value(), kSigTerm).ok()) {
    return VcOutcome::fail("signalled a zombie");
  }
  return VcOutcome::pass();
}

VcOutcome vc_proc_nr_replicas_agree(u64 seed) {
  PhysMem mem(4096);
  Topology topo(4, 2);
  FrameAllocator frames(mem, topo);
  ProcessManager pm(mem, frames, topo);
  auto t0 = pm.register_core(0);
  auto t1 = pm.register_core(2);
  Rng rng(seed);
  std::vector<Pid> pids;
  for (int i = 0; i < 150; ++i) {
    const auto& tok = rng.chance(1, 2) ? t0 : t1;
    switch (rng.next_below(4)) {
      case 0: {
        auto p = pm.spawn(tok, kInvalidPid);
        if (p.ok()) {
          pids.push_back(p.value());
        }
        break;
      }
      case 1:
        if (!pids.empty()) {
          (void)pm.exit(tok, pids[rng.next_below(pids.size())], 1);
        }
        break;
      case 2:
        if (!pids.empty()) {
          (void)pm.kill(tok, pids[rng.next_below(pids.size())], kSigTerm);
        }
        break;
      default:
        if (!pids.empty()) {
          (void)pm.take_signal(tok, pids[rng.next_below(pids.size())]);
        }
        break;
    }
  }
  pm.sync(t0);
  pm.sync(t1);
  if (!(pm.peek(0) == pm.peek(1))) {
    return VcOutcome::fail("process directory replicas diverged");
  }
  return VcOutcome::pass();
}

// --- Filesystem ---------------------------------------------------------------------

// Reference model: dirs as a set, files as a map (the FsAbsState itself).
struct FsModel {
  FsAbsState s;

  static bool parent_ok(const FsAbsState& s, const std::string& path) {
    auto slash = path.rfind('/');
    if (slash == 0) {
      return true;  // parent is root
    }
    std::string parent = path.substr(0, slash);
    return s.dirs.count(parent) != 0;
  }

  static bool exists(const FsAbsState& s, const std::string& path) {
    return s.dirs.count(path) != 0 || s.files.count(path) != 0;
  }

  ErrorCode mkdir(const std::string& p) {
    if (!parent_ok(s, p)) return ErrorCode::kNotFound;
    if (exists(s, p)) return ErrorCode::kAlreadyExists;
    s.dirs.insert(p);
    return ErrorCode::kOk;
  }
  ErrorCode create(const std::string& p) {
    if (!parent_ok(s, p)) return ErrorCode::kNotFound;
    if (exists(s, p)) return ErrorCode::kAlreadyExists;
    s.files[p] = {};
    return ErrorCode::kOk;
  }
  ErrorCode unlink(const std::string& p) {
    if (s.dirs.count(p) != 0) return ErrorCode::kIsDirectory;
    if (s.files.erase(p) == 0) return ErrorCode::kNotFound;
    return ErrorCode::kOk;
  }
  ErrorCode rmdir(const std::string& p) {
    if (s.files.count(p) != 0) return ErrorCode::kNotDirectory;
    if (s.dirs.count(p) == 0) return ErrorCode::kNotFound;
    std::string prefix = p + "/";
    for (const auto& d : s.dirs) {
      if (d.rfind(prefix, 0) == 0) return ErrorCode::kNotEmpty;
    }
    for (const auto& [f, bytes] : s.files) {
      if (f.rfind(prefix, 0) == 0) return ErrorCode::kNotEmpty;
    }
    s.dirs.erase(p);
    return ErrorCode::kOk;
  }
  ErrorCode write(const std::string& p, u64 off, const std::vector<u8>& data) {
    if (s.dirs.count(p) != 0) return ErrorCode::kIsDirectory;
    auto it = s.files.find(p);
    if (it == s.files.end()) return ErrorCode::kNotFound;
    if (off > kMaxFileBytes || data.size() > kMaxFileBytes - off) return ErrorCode::kNoSpace;
    if (data.empty()) return ErrorCode::kOk;  // a write of 0 bytes changes nothing
    if (off + data.size() > it->second.size()) {
      it->second.resize(off + data.size(), 0);
    }
    std::copy(data.begin(), data.end(), it->second.begin() + static_cast<std::ptrdiff_t>(off));
    return ErrorCode::kOk;
  }
  ErrorCode truncate(const std::string& p, u64 size) {
    if (s.dirs.count(p) != 0) return ErrorCode::kIsDirectory;
    auto it = s.files.find(p);
    if (it == s.files.end()) return ErrorCode::kNotFound;
    if (size > kMaxFileBytes) return ErrorCode::kNoSpace;
    it->second.resize(size, 0);
    return ErrorCode::kOk;
  }
  // POSIX-style rename: a file destination is atomically replaced; a
  // directory destination is never replaced. Mirrors MemFs::check's rename
  // order so error codes agree step-by-step.
  ErrorCode rename(const std::string& from, const std::string& to) {
    if (!parent_ok(s, from)) return ErrorCode::kNotFound;
    bool from_is_dir = s.dirs.count(from) != 0;
    if (!from_is_dir && s.files.count(from) == 0) return ErrorCode::kNotFound;
    if (!parent_ok(s, to)) return ErrorCode::kNotFound;
    if (exists(s, to)) {
      if (s.dirs.count(to) != 0) return ErrorCode::kIsDirectory;
      if (from_is_dir) return ErrorCode::kNotDirectory;
      if (from == to) return ErrorCode::kOk;
    }
    if (from_is_dir && to.rfind(from + "/", 0) == 0) return ErrorCode::kInvalidArgument;
    if (!from_is_dir) {
      auto node = std::move(s.files[from]);
      s.files.erase(from);
      s.files[to] = std::move(node);  // replaces any existing destination file
      return ErrorCode::kOk;
    }
    // Directory: move the dir and rewrite every path under it.
    std::string prefix = from + "/";
    std::set<std::string> dirs;
    std::map<std::string, std::vector<u8>> files;
    for (const auto& d : s.dirs) {
      if (d == from) {
        dirs.insert(to);
      } else if (d.rfind(prefix, 0) == 0) {
        dirs.insert(to + "/" + d.substr(prefix.size()));
      } else {
        dirs.insert(d);
      }
    }
    for (auto& [f, bytes] : s.files) {
      if (f.rfind(prefix, 0) == 0) {
        files[to + "/" + f.substr(prefix.size())] = std::move(bytes);
      } else {
        files[f] = std::move(bytes);
      }
    }
    s.dirs = std::move(dirs);
    s.files = std::move(files);
    return ErrorCode::kOk;
  }
};

// Random path pool: small so collisions are common.
std::string pick_path(Rng& rng) {
  static const char* dirs[] = {"", "/d0", "/d1", "/d0/sub"};
  static const char* names[] = {"a", "b", "c", "log"};
  return std::string(dirs[rng.next_below(4)]) + "/" + names[rng.next_below(4)];
}

std::string pick_dir(Rng& rng) {
  static const char* dirs[] = {"/d0", "/d1", "/d0/sub", "/d2"};
  return dirs[rng.next_below(4)];
}

// Applies one random op to both fs and model, comparing results.
// Returns empty string on agreement, a diagnostic otherwise.
std::string fs_step(MemFs& fs, FsModel& model, Rng& rng) {
  switch (rng.next_below(8)) {
    case 0: {
      std::string p = pick_dir(rng);
      ErrorCode a = fs.mkdir(p).error();
      ErrorCode b = model.mkdir(p);
      if (a != b) return "mkdir(" + p + "): " + error_name(a) + " vs " + error_name(b);
      break;
    }
    case 1: {
      std::string p = pick_path(rng);
      ErrorCode a = fs.create(p).error();
      ErrorCode b = model.create(p);
      if (a != b) return "create(" + p + "): " + error_name(a) + " vs " + error_name(b);
      break;
    }
    case 2: {
      std::string p = pick_path(rng);
      ErrorCode a = fs.unlink(p).error();
      ErrorCode b = model.unlink(p);
      if (a != b) return "unlink(" + p + "): " + error_name(a) + " vs " + error_name(b);
      break;
    }
    case 3: {
      std::string p = pick_dir(rng);
      ErrorCode a = fs.rmdir(p).error();
      ErrorCode b = model.rmdir(p);
      if (a != b) return "rmdir(" + p + "): " + error_name(a) + " vs " + error_name(b);
      break;
    }
    case 4: {
      std::string p = pick_path(rng);
      u64 off = rng.next_below(64);
      std::vector<u8> data(rng.next_range(0, 100));  // 0: a write that changes nothing
      for (auto& c : data) {
        c = static_cast<u8>(rng.next_u64());
      }
      ErrorCode a = fs.write(p, off, data).error();
      ErrorCode b = model.write(p, off, data);
      if (a != b) return "write(" + p + "): " + error_name(a) + " vs " + error_name(b);
      break;
    }
    case 5: {
      std::string p = pick_path(rng);
      u64 size = rng.next_below(128);
      ErrorCode a = fs.truncate(p, size).error();
      ErrorCode b = model.truncate(p, size);
      if (a != b) return "truncate(" + p + "): " + error_name(a) + " vs " + error_name(b);
      break;
    }
    case 6: {
      std::string p = pick_path(rng);
      u64 off = rng.next_below(64);
      std::vector<u8> buf(rng.next_range(1, 100));
      auto a = fs.read(p, off, buf);
      auto it = model.s.files.find(p);
      if (it == model.s.files.end()) {
        bool model_err = model.s.dirs.count(p) != 0;
        if (a.ok()) return "read(" + p + ") succeeded on missing file";
        (void)model_err;
      } else {
        u64 expect = off >= it->second.size()
                         ? 0
                         : std::min<u64>(buf.size(), it->second.size() - off);
        if (!a.ok() || a.value() != expect) return "read(" + p + ") length mismatch";
        for (u64 i = 0; i < expect; ++i) {
          if (buf[i] != it->second[off + i]) return "read(" + p + ") bytes mismatch";
        }
      }
      break;
    }
    case 7: {
      // File renames (incl. replace-onto-existing, since the small path pool
      // collides often) plus occasional directory renames. pick_path and
      // pick_dir pools are disjoint, so files stay files and dirs stay dirs —
      // the model's parent_ok can't express a file used as a directory.
      std::string from;
      std::string to;
      if (rng.chance(1, 4)) {
        from = pick_dir(rng);
        to = pick_dir(rng);
      } else {
        from = pick_path(rng);
        to = pick_path(rng);
      }
      ErrorCode a = fs.rename(from, to).error();
      ErrorCode b = model.rename(from, to);
      if (a != b) {
        return "rename(" + from + ", " + to + "): " + error_name(a) + " vs " + error_name(b);
      }
      break;
    }
    default:
      break;
  }
  return "";
}

VcOutcome vc_fs_model_equivalence(u64 seed, usize steps) {
  MemFs fs;
  FsModel model;
  Rng rng(seed);
  for (usize i = 0; i < steps; ++i) {
    std::string diag = fs_step(fs, model, rng);
    if (!diag.empty()) {
      return VcOutcome::fail(diag + " (step " + std::to_string(i) + ")");
    }
    if (fs.view() != model.s) {
      return VcOutcome::fail("abstract state diverged at step " + std::to_string(i));
    }
  }
  return VcOutcome::pass();
}

// Directed check of the rename replace semantics (POSIX): a file destination
// is atomically replaced (its old inode is gone, the source bytes are served
// under the new name), a directory destination is rejected, and the replace
// survives recovery (journal replay runs the same checks-then-change core).
VcOutcome vc_fs_rename_replace() {
  BlockDevice dev(8192);
  auto fsr = MemFs::format(dev);
  if (!fsr.ok()) {
    return VcOutcome::fail("format failed");
  }
  MemFs fs = std::move(fsr.value());
  std::vector<u8> a_bytes{1, 2, 3, 4};
  std::vector<u8> b_bytes{9, 9};
  if (!fs.mkdir("/d").ok() || !fs.create("/d/a").ok() || !fs.create("/d/b").ok() ||
      !fs.write("/d/a", 0, a_bytes).ok() || !fs.write("/d/b", 0, b_bytes).ok()) {
    return VcOutcome::fail("setup failed");
  }
  // File onto existing file: replaces.
  if (fs.rename("/d/a", "/d/b").error() != ErrorCode::kOk) {
    return VcOutcome::fail("rename onto existing file refused");
  }
  FsAbsState v = fs.view();
  if (v.files.count("/d/a") != 0) {
    return VcOutcome::fail("source path survived the rename");
  }
  auto it = v.files.find("/d/b");
  if (it == v.files.end() || it->second != a_bytes) {
    return VcOutcome::fail("destination does not carry the source bytes");
  }
  // Self-rename is a no-op, not a self-unlink.
  if (fs.rename("/d/b", "/d/b").error() != ErrorCode::kOk || fs.view() != v) {
    return VcOutcome::fail("self-rename not a no-op");
  }
  // Directory destinations are never replaced; a directory never replaces a file.
  if (!fs.mkdir("/e").ok() || !fs.create("/f").ok()) {
    return VcOutcome::fail("setup 2 failed");
  }
  if (fs.rename("/d/b", "/e").error() != ErrorCode::kIsDirectory) {
    return VcOutcome::fail("file onto directory not rejected with kIsDirectory");
  }
  if (fs.rename("/e", "/f").error() != ErrorCode::kNotDirectory) {
    return VcOutcome::fail("directory onto file not rejected with kNotDirectory");
  }
  // The replace persists: recovery replays the same journaled rename.
  if (!fs.fsync().ok()) {
    return VcOutcome::fail("fsync failed");
  }
  FsAbsState before = fs.view();
  auto rec = MemFs::recover(dev);
  if (!rec.ok() || rec.value().view() != before) {
    return VcOutcome::fail("rename replace did not survive recovery");
  }
  return VcOutcome::pass();
}

VcOutcome vc_fs_persistence_clean(u64 seed) {
  BlockDevice dev(8192);
  auto fsr = MemFs::format(dev);
  if (!fsr.ok()) {
    return VcOutcome::fail("format failed");
  }
  MemFs fs = std::move(fsr.value());
  FsModel model;
  Rng rng(seed);
  for (int i = 0; i < 200; ++i) {
    (void)fs_step(fs, model, rng);
  }
  (void)fs.fsync();
  FsAbsState before = fs.view();
  auto rec = MemFs::recover(dev);
  if (!rec.ok()) {
    return VcOutcome::fail("recover failed: " + std::string(error_name(rec.error())));
  }
  if (rec.value().view() != before) {
    return VcOutcome::fail("clean remount lost state");
  }
  return VcOutcome::pass();
}

// Empty when `recovered` is one of `states` (the state after each
// acknowledged op) at or after index `fsync_state`; a diagnostic otherwise.
// Consecutive states repeat whenever an op failed, so the *last* matching
// index is the witness.
std::string acknowledged_prefix_diag(const std::vector<FsAbsState>& states, isize fsync_state,
                                     const FsAbsState& recovered) {
  isize found = -1;
  for (usize i = 0; i < states.size(); ++i) {
    if (states[i] == recovered) {
      found = static_cast<isize>(i);
    }
  }
  if (found < 0) {
    return "recovered state matches no acknowledged prefix";
  }
  // ...and everything acknowledged before the last fsync must have survived.
  if (found < fsync_state) {
    return "fsynced operations were lost (state " + std::to_string(found) + " < fsync state " +
           std::to_string(fsync_state) + ")";
  }
  return "";
}

VcOutcome vc_fs_crash_consistency(u64 seed) {
  BlockDevice dev(8192, seed);
  auto fsr = MemFs::format(dev);
  if (!fsr.ok()) {
    return VcOutcome::fail("format failed");
  }
  MemFs fs = std::move(fsr.value());
  FsModel model;
  Rng rng(seed ^ 0xC4A5);

  std::vector<FsAbsState> states;  // state after each acknowledged op
  states.push_back(fs.view());
  isize last_fsync_state = 0;
  for (int i = 0; i < 120; ++i) {
    (void)fs_step(fs, model, rng);
    states.push_back(fs.view());
    if (rng.chance(1, 10)) {
      (void)fs.fsync();
      last_fsync_state = static_cast<isize>(states.size()) - 1;
    }
  }
  // Crash: unflushed sectors each survive with 50% probability.
  dev.crash(500'000);
  auto rec = MemFs::recover(dev);
  if (!rec.ok()) {
    return VcOutcome::fail("recover after crash failed: " +
                           std::string(error_name(rec.error())));
  }
  const std::string diag = acknowledged_prefix_diag(states, last_fsync_state, rec.value().view());
  return diag.empty() ? VcOutcome::pass() : VcOutcome::fail(diag);
}

// Crash consistency at the journal's sector boundaries, with torn sectors.
// Most ops are small records (a file toggled into or out of existence, or a
// random model op); when a sector is nearly full, a write sized against the
// journal head ends exactly at a sector's end or leaves fewer than a record
// header's bytes in it (the skip rule), and now and then a write spans
// several sectors. Each round runs 30 steps that fsync now and then and 100
// more that do not, so the crash lands inside a batch many sectors long: it
// keeps each unflushed sector with probability 0, 50% or 100% and tears
// half of the sectors it keeps. The recovered state must be an
// acknowledged prefix at or after the last fsync. Four rounds per persist
// level run on one device, each on the state the previous one recovered.
VcOutcome vc_fs_crash_torn(u64 seed) {
  constexpr u64 kWriteRecord = 39;  // a write record to "/j", without its data
  for (u64 persist_ppm : {u64{0}, u64{500'000}, u64{1'000'000}}) {
    BlockDevice dev(128, seed * 0x9E37 + persist_ppm);
    auto made = MemFs::format(dev);
    if (!made.ok()) {
      return VcOutcome::fail("format failed");
    }
    MemFs fs = std::move(made.value());
    if (!fs.create("/j").ok() || !fs.fsync().ok()) {
      return VcOutcome::fail("setup failed");
    }
    FsModel model{fs.view()};
    Rng rng(seed ^ persist_ppm ^ 0x7042);
    for (int round = 0; round < 4; ++round) {
      std::vector<FsAbsState> states{fs.view()};
      isize last_fsync_state = 0;
      for (int i = 0; i < 130; ++i) {
        const u64 left = kSectorSize - fs.journal_head() % kSectorSize;
        // The room for a write that closes a sector: the rest of this one,
        // or also the next one when this one cannot hold a write record.
        const u64 room = left > kWriteRecord + kRecHeaderBytes ? left : left + kSectorSize;
        std::optional<u64> data_bytes;
        if (left < 100 && rng.chance(1, 2)) {
          data_bytes = room - kWriteRecord - (rng.chance(1, 2) ? 0 : rng.next_range(1, 19));
        } else if (const u64 q = rng.next_below(32); q == 0) {
          data_bytes = rng.next_range(kSectorSize, 4 * kSectorSize);
        } else if (q <= 3) {
          (void)fs_step(fs, model, rng);
        } else {
          const std::string t = "/t" + std::to_string(rng.next_below(32));
          if (!fs.create(t).ok() && !fs.unlink(t).ok()) {
            return VcOutcome::fail("toggling " + t + " failed");
          }
        }
        if (data_bytes &&
            !fs.write("/j", 0, std::vector<u8>(*data_bytes, static_cast<u8>(i))).ok()) {
          return VcOutcome::fail("write to /j failed");
        }
        states.push_back(fs.view());
        if (i < 30 && rng.chance(1, 8)) {
          if (!fs.fsync().ok()) {
            return VcOutcome::fail("fsync failed");
          }
          last_fsync_state = static_cast<isize>(states.size()) - 1;
        }
      }
      dev.crash(persist_ppm, 500'000);
      auto rec = MemFs::recover(dev);
      if (!rec.ok()) {
        return VcOutcome::fail("recover after a torn crash failed: " +
                               std::string(error_name(rec.error())));
      }
      const std::string diag =
          acknowledged_prefix_diag(states, last_fsync_state, rec.value().view());
      if (!diag.empty()) {
        return VcOutcome::fail(diag + " (persist " + std::to_string(persist_ppm) +
                               " ppm, round " + std::to_string(round) + ")");
      }
      fs = std::move(rec.value());
      model.s = fs.view();
    }
    if (persist_ppm != 0 && dev.stats().torn_crash_sectors == 0) {
      return VcOutcome::fail("no crash tore a sector");
    }
  }
  return VcOutcome::pass();
}

VcOutcome vc_fs_checkpoint_compaction() {
  BlockDevice dev(4096);
  auto fsr = MemFs::format(dev);
  if (!fsr.ok()) {
    return VcOutcome::fail("format failed");
  }
  MemFs fs = std::move(fsr.value());
  if (!fs.create("/blob").ok()) {
    return VcOutcome::fail("create failed");
  }
  // Write enough journal volume to force at least one compaction.
  std::vector<u8> chunk(4096, 0x5A);
  for (int i = 0; i < 500; ++i) {
    if (!fs.write("/blob", (i % 8) * chunk.size(), chunk).ok()) {
      return VcOutcome::fail("write failed at iteration " + std::to_string(i));
    }
  }
  if (fs.stats().checkpoints == 0) {
    return VcOutcome::fail("no compaction despite journal pressure");
  }
  (void)fs.fsync();
  FsAbsState before = fs.view();
  auto rec = MemFs::recover(dev);
  if (!rec.ok() || rec.value().view() != before) {
    return VcOutcome::fail("state wrong after compaction + remount");
  }
  return VcOutcome::pass();
}

// --- Syscall layer -------------------------------------------------------------------

VcOutcome vc_sys_read_contract(u64 seed) {
  Machine machine;
  Sys& sys = machine.sys;

  auto fd = sys.open("/data", kOpenCreate);
  if (!fd.ok()) {
    return VcOutcome::fail("open failed");
  }
  Rng rng(seed);
  std::vector<u8> contents;
  u64 offset = 0;  // model of the fd offset
  for (int i = 0; i < 150; ++i) {
    switch (rng.next_below(3)) {
      case 0: {  // write at the current offset
        std::vector<u8> data(rng.next_range(1, 300));
        for (auto& b : data) {
          b = static_cast<u8>(rng.next_u64());
        }
        auto w = sys.write(fd.value(), data);
        if (!w.ok() || w.value() != data.size()) {
          return VcOutcome::fail("write failed");
        }
        if (offset + data.size() > contents.size()) {
          contents.resize(offset + data.size(), 0);
        }
        std::copy(data.begin(), data.end(),
                  contents.begin() + static_cast<std::ptrdiff_t>(offset));
        offset += data.size();
        break;
      }
      case 1: {  // seek
        u64 target = rng.next_below(contents.size() + 200);
        auto s = sys.lseek(fd.value(), static_cast<i64>(target), SeekWhence::kSet);
        if (!s.ok() || s.value() != target) {
          return VcOutcome::fail("lseek failed");
        }
        offset = target;
        break;
      }
      case 2: {  // read: the paper's read_spec
        u64 len = rng.next_range(1, 300);
        auto r = sys.read(fd.value(), len);
        if (!r.ok()) {
          return VcOutcome::fail("read failed");
        }
        u64 expect =
            offset >= contents.size() ? 0 : std::min<u64>(len, contents.size() - offset);
        if (r.value().size() != expect) {
          return VcOutcome::fail("read_len != min(buffer.len, size - offset)");
        }
        for (u64 k = 0; k < expect; ++k) {
          if (r.value()[k] != contents[offset + k]) {
            return VcOutcome::fail("read bytes != contents[offset..offset+read_len]");
          }
        }
        offset += expect;
        break;
      }
      default:
        break;
    }
  }
  return VcOutcome::pass();
}

// A seeded value of each wire field type, small enough that every strict
// prefix of a frame built from it can go through the dispatcher.
template <typename T>
struct Arbitrary;

template <typename E>
struct Arbitrary<std::vector<E>> {
  static std::vector<E> make(Rng& rng) {
    std::vector<E> out(rng.next_below(std::is_same_v<E, u8> ? 9 : 4));
    for (E& e : out) {
      e = Arbitrary<E>::make(rng);
    }
    return out;
  }
};

template <typename A, typename B>
struct Arbitrary<std::pair<A, B>> {
  static std::pair<A, B> make(Rng& rng) {
    return {Arbitrary<A>::make(rng), Arbitrary<B>::make(rng)};
  }
};

template <typename... A>
struct Arbitrary<std::tuple<A...>> {
  static std::tuple<A...> make(Rng& rng) { return std::tuple<A...>{Arbitrary<A>::make(rng)...}; }
};

template <typename T>
struct Arbitrary {
  static T make(Rng& rng) {
    if constexpr (std::is_same_v<T, bool>) {
      return rng.chance(1, 2);
    } else if constexpr (std::is_integral_v<T>) {
      return static_cast<T>(rng.next_u64());
    } else if constexpr (std::is_same_v<T, VAddr>) {
      return VAddr{rng.next_u64()};
    } else if constexpr (std::is_same_v<T, SeekWhence>) {
      return static_cast<SeekWhence>(rng.next_below(3));
    } else if constexpr (std::is_same_v<T, Unit>) {
      return Unit{};
    } else if constexpr (std::is_same_v<T, std::string>) {
      std::string out(rng.next_below(6), 'a');
      for (char& ch : out) {
        ch = static_cast<char>('a' + rng.next_below(26));
      }
      return out;
    } else if constexpr (std::is_same_v<T, FileStat>) {
      return FileStat{rng.next_u64(), rng.next_u64(), rng.chance(1, 2)};
    } else if constexpr (std::is_same_v<T, Datagram>) {
      return Datagram{rng.next_u32(), static_cast<Port>(rng.next_u64()),
                      Arbitrary<std::vector<u8>>::make(rng)};
    } else if constexpr (std::is_same_v<T, RingSqe>) {
      return RingSqe{rng.next_u64(), rng.next_u32(), Arbitrary<std::vector<u8>>::make(rng)};
    } else {
      static_assert(std::is_same_v<T, RingCqe>, "no generator for this wire type");
      return RingCqe{rng.next_u64(), rng.next_u32(), Arbitrary<std::vector<u8>>::make(rng)};
    }
  }
};

// One row of the syscall table: seeded arguments and replies round-trip
// through their codecs, consuming exactly the encoded bytes; every strict
// prefix of the frame, and the frame plus one byte, is refused with
// kInvalidArgument before any handler runs (the process's view is
// unchanged); no strict prefix of a reply decodes, and the reply plus one
// byte decodes as kCorrupted.
template <SysNr N>
std::optional<std::string> check_sys_row(Rng& rng, SyscallDispatcher& disp, Pid pid) {
  const std::string row = "syscall " + std::to_string(static_cast<u32>(N)) + ": ";
  const SysArgs<N> args = Arbitrary<SysArgs<N>>::make(rng);
  std::vector<u8> frame = std::apply([](const auto&... a) { return sys_frame<N>(a...); }, args);
  Reader r(std::span<const u8>(frame).subspan(4));
  auto decoded = SysDesc<N>::decode(r);
  if (!decoded || !(*decoded == args) || !r.exhausted()) {
    return row + "arguments do not round-trip";
  }
  const SysAbsState before = disp.view(pid);
  for (usize cut = 0; cut <= frame.size(); ++cut) {
    std::vector<u8> probe(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(cut));
    if (cut == frame.size()) {
      probe.push_back(static_cast<u8>(rng.next_u64()));  // one byte over
    }
    std::vector<u8> reply = disp.handle(pid, 0, probe);
    Reader rr(reply);
    auto err = rr.get_u32();
    if (!err || static_cast<ErrorCode>(*err) != ErrorCode::kInvalidArgument || !rr.exhausted()) {
      return row + "a frame of " + std::to_string(probe.size()) + " of " +
             std::to_string(frame.size()) + " bytes was not refused";
    }
    if (!(disp.view(pid) == before)) {
      return row + "a refused frame changed the process's state";
    }
  }

  const SysReply<N> value = Arbitrary<SysReply<N>>::make(rng);
  std::vector<u8> payload = to_wire(value);
  auto back = sys_reply<N>(ErrorCode::kOk, payload);
  payload.push_back(static_cast<u8>(rng.next_u64()));
  if (!back.ok() || !(back.value() == value) || !round_trips(value) ||
      sys_reply<N>(ErrorCode::kOk, payload).error() != ErrorCode::kCorrupted) {
    return row + "reply does not round-trip, or a strict prefix or one byte over is accepted";
  }
  return std::nullopt;
}

// The marshalling obligation over the whole syscall table (every row of
// VNROS_SYSCALLS), plus mutation fuzz of a valid read frame: the dispatcher
// answers every mutated frame with an error word.
VcOutcome vc_sys_marshalling_rejects_garbage(u64 seed) {
  Machine machine;
  Sys& sys = machine.sys;
  auto fd = sys.open("/x", kOpenCreate);
  std::vector<u8> data{1, 2, 3};
  (void)sys.write(fd.value(), data);

  Rng rng(seed);
  for (int draw = 0; draw < 4; ++draw) {
    auto bad = [&]<usize... I>(std::index_sequence<I...>) {
      std::optional<std::string> first;
      ((first = check_sys_row<kSysNrs[I]>(rng, machine.disp, machine.pid)).has_value() || ...);
      return first;
    }(std::make_index_sequence<std::size(kSysNrs)>{});
    if (bad) {
      return VcOutcome::fail(*bad);
    }
  }

  const std::vector<u8> frame = sys_frame<SysNr::kRead>(fd.value(), u64{3});
  for (int i = 0; i < 300; ++i) {
    std::vector<u8> fuzzed = frame;
    fuzzed[rng.next_below(fuzzed.size())] ^= static_cast<u8>(1 + rng.next_below(255));
    if (rng.chance(1, 4)) {
      fuzzed.push_back(static_cast<u8>(rng.next_u64()));
    }
    auto reply = machine.disp.handle(machine.pid, 0, fuzzed);
    Reader r(reply);
    if (!r.get_u32()) {
      return VcOutcome::fail("reply without error word");
    }
  }
  return VcOutcome::pass();
}

VcOutcome vc_sys_fd_isolation() {
  Kernel kernel;
  SyscallDispatcher disp(kernel);
  Sys boot(disp, kInvalidPid, 0);
  auto p1 = boot.spawn();
  auto p2 = boot.spawn();
  Sys a(disp, p1.value(), 0), b(disp, p2.value(), 1);
  auto fd = a.open("/shared", kOpenCreate);
  if (!fd.ok()) {
    return VcOutcome::fail("open failed");
  }
  // The same numeric fd in process B must be invalid.
  auto r = b.read(fd.value(), 10);
  if (r.ok() || r.error() != ErrorCode::kBadFd) {
    return VcOutcome::fail("fd leaked across processes");
  }
  return VcOutcome::pass();
}

VcOutcome vc_sys_user_copy_roundtrip() {
  Machine machine;
  Kernel& kernel = machine.kernel;
  Sys& sys = machine.sys;

  auto buf = sys.mmap(3 * kPageSize, true);
  if (!buf.ok()) {
    return VcOutcome::fail("mmap failed");
  }
  auto fd = sys.open("/file", kOpenCreate);
  std::vector<u8> data(5000);
  for (usize i = 0; i < data.size(); ++i) {
    data[i] = static_cast<u8>(i * 7);
  }
  (void)sys.write(fd.value(), data);
  (void)sys.lseek(fd.value(), 0, SeekWhence::kSet);

  // read_user: file -> user memory (crosses page boundaries).
  auto n = sys.read_user(fd.value(), buf.value().offset(100), 5000);
  if (!n.ok() || n.value() != 5000) {
    return VcOutcome::fail("read_user failed");
  }
  // write_user: user memory -> a second file; then compare.
  auto fd2 = sys.open("/copy", kOpenCreate);
  Process* proc = kernel.procs().get(machine.pid);
  std::vector<u8> check(5000);
  (void)proc->vm().copy_in(buf.value().offset(100), check);
  if (check != data) {
    return VcOutcome::fail("user memory contents wrong after read_user");
  }
  auto m = sys.write_user(fd2.value(), buf.value().offset(100), 5000);
  if (!m.ok() || m.value() != 5000) {
    return VcOutcome::fail("write_user failed");
  }
  auto readback = sys.read(fd2.value(), 5000);
  (void)sys.lseek(fd2.value(), 0, SeekWhence::kSet);
  readback = sys.read(fd2.value(), 5000);
  if (!readback.ok() || readback.value() != data) {
    return VcOutcome::fail("file copied through user memory diverged");
  }
  return VcOutcome::pass();
}


// readdir returns lexicographically sorted names (deterministic directory
// iteration is part of the contract the paper's spec style demands).
VcOutcome vc_sys_readdir_sorted() {
  Machine machine;
  Sys& sys = machine.sys;
  (void)sys.mkdir("/dir");
  for (const char* name : {"zeta", "alpha", "mid", "beta"}) {
    (void)sys.open(std::string("/dir/") + name, kOpenCreate);
  }
  auto names = sys.readdir("/dir");
  if (!names.ok()) {
    return VcOutcome::fail("readdir failed");
  }
  std::vector<std::string> expect = {"alpha", "beta", "mid", "zeta"};
  if (names.value() != expect) {
    return VcOutcome::fail("directory listing not sorted");
  }
  return VcOutcome::pass();
}

// Descriptor reuse is safe: between close and reuse a stale fd is kBadFd
// (never silently aliases another file), and a recycled number carries a
// fresh OpenFile — no offset or path leaks from its previous life. The
// free list keeps the fd namespace bounded under open/close churn.
VcOutcome vc_sys_fd_reuse_safe() {
  Machine machine;
  Sys& sys = machine.sys;
  auto fd1 = sys.open("/a", kOpenCreate);
  if (!fd1.ok() || sys.write(fd1.value(), std::vector<u8>{'A', 'A', 'A'}).error() !=
                       ErrorCode::kOk) {
    return VcOutcome::fail("setup failed");
  }
  if (!sys.close(fd1.value()).ok()) {
    return VcOutcome::fail("close failed");
  }
  // The stale window: closed but not yet reused.
  if (sys.read(fd1.value(), 1).error() != ErrorCode::kBadFd) {
    return VcOutcome::fail("stale fd still usable after close");
  }
  auto fd2 = sys.open("/b", kOpenCreate);
  if (!fd2.ok()) {
    return VcOutcome::fail("second open failed");
  }
  if (fd2.value() != fd1.value()) {
    return VcOutcome::fail("closed fd was not recycled");
  }
  // The recycled descriptor must be /b at offset 0 — not /a, not /a's offset.
  if (sys.write(fd2.value(), std::vector<u8>{'B'}).error() != ErrorCode::kOk ||
      sys.fstat(fd2.value()).value().size != 1) {
    return VcOutcome::fail("recycled fd aliased previous file state");
  }
  auto check = sys.open("/a", kOpenCreate);
  if (!check.ok() || sys.fstat(check.value()).value().size != 3) {
    return VcOutcome::fail("old file disturbed through recycled fd");
  }
  (void)sys.close(check.value());
  // Churn must not grow the namespace: after close, reopen gets the same
  // number back instead of extending next_fd.
  for (int i = 0; i < 64; ++i) {
    auto fd = sys.open("/churn", kOpenCreate);
    if (!fd.ok() || fd.value() != check.value()) {
      return VcOutcome::fail("fd namespace grew under open/close churn");
    }
    (void)sys.close(fd.value());
  }
  return VcOutcome::pass();
}

// kOpenAppend positions at EOF; kOpenTrunc wins when both are given.
VcOutcome vc_sys_open_flag_matrix() {
  Machine machine;
  Sys& sys = machine.sys;
  auto fd = sys.open("/f", kOpenCreate);
  std::vector<u8> ten(10, 'x');
  (void)sys.write(fd.value(), ten);
  (void)sys.close(fd.value());

  auto app = sys.open("/f", kOpenAppend);
  if (sys.lseek(app.value(), 0, SeekWhence::kCur).value() != 10) {
    return VcOutcome::fail("append did not position at EOF");
  }
  auto both = sys.open("/f", kOpenAppend | kOpenTrunc);
  if (sys.lseek(both.value(), 0, SeekWhence::kCur).value() != 0 ||
      sys.fstat(both.value()).value().size != 0) {
    return VcOutcome::fail("trunc+append did not truncate to offset 0");
  }
  // kOpenCreate on an existing file preserves contents.
  (void)sys.write(both.value(), ten);
  auto again = sys.open("/f", kOpenCreate);
  if (sys.fstat(again.value()).value().size != 10) {
    return VcOutcome::fail("create-on-existing clobbered the file");
  }
  return VcOutcome::pass();
}

// kstat refinement: the counter an application reads through the kstat
// syscall refines the kernel's own thin-view stats. For every published name,
// a value read through Sys between two kernel-side reads is bounded by them;
// reads are monotone in program order; unknown names report kNotFound rather
// than a value. This VC lives with the kernel VCs (obs cannot depend on the
// kernel) but belongs to the obs/* suite by name.
VcOutcome vc_obs_kstat_refinement() {
  Machine machine;
  Kernel& kernel = machine.kernel;
  Sys& sys = machine.sys;

  // Generate activity that moves fs/frames counters.
  (void)sys.mkdir("/k");
  for (int i = 0; i < 8; ++i) {
    auto fd = sys.open("/k/f" + std::to_string(i), kOpenCreate);
    if (fd.ok()) {
      std::vector<u8> data(32, static_cast<u8>(i));
      (void)sys.write(fd.value(), data);
      (void)sys.close(fd.value());
    }
    (void)sys.fsync();
  }

  auto names = sys.kstat_list();
  if (!names.ok() || names.value().empty()) {
    return VcOutcome::fail("kstat_list failed or empty");
  }
  std::map<std::string, u64> first_read;
  for (const auto& name : names.value()) {
    auto pre = kernel.kstat(name);
    auto via_sys = sys.kstat(name);
    auto post = kernel.kstat(name);
    if (!pre.ok() || !via_sys.ok() || !post.ok()) {
      return VcOutcome::fail("published name not readable: " + name);
    }
    if (via_sys.value() < pre.value() || via_sys.value() > post.value()) {
      return VcOutcome::fail("kstat(" + name + ") outside kernel-side bounds");
    }
    first_read[name] = via_sys.value();
  }
  // More activity, then re-read: counters are monotone in program order.
  (void)sys.fsync();
  for (const auto& name : names.value()) {
    auto again = sys.kstat(name);
    if (!again.ok() || again.value() < first_read[name]) {
      return VcOutcome::fail("kstat(" + name + ") went backwards");
    }
  }
  auto pre = sys.kstat("fs/fsyncs");
  (void)sys.fsync();
  auto post = sys.kstat("fs/fsyncs");
  if (!pre.ok() || !post.ok() || post.value() < pre.value() + 1) {
    return VcOutcome::fail("fs/fsyncs did not count an fsync");
  }
  if (sys.kstat("no/such_counter").error() != ErrorCode::kNotFound) {
    return VcOutcome::fail("unknown kstat name did not report kNotFound");
  }
  return VcOutcome::pass();
}

// --- Futex -------------------------------------------------------------------------

VcOutcome vc_futex_value_check() {
  FutexTable futex;
  std::atomic<u32> word{7};
  // Wrong expected value: immediate WouldBlock, no hang.
  if (futex.wait(&word, 8) != ErrorCode::kWouldBlock) {
    return VcOutcome::fail("wait with stale expected value blocked");
  }
  return VcOutcome::pass();
}

VcOutcome vc_futex_no_lost_wakeup(u64 seed) {
  // The classic race: waiter checks the word, waker changes it and wakes.
  // With the check under the queue lock no wakeup may be lost. Stress it.
  Rng rng(seed);
  for (int round = 0; round < 60; ++round) {
    FutexTable futex;
    std::atomic<u32> word{0};
    std::atomic<bool> woken{false};
    std::thread waiter([&] {
      ErrorCode e = futex.wait(&word, 0);
      // Either we blocked and were woken (kOk), or we observed the new value
      // already (kWouldBlock). Both are correct; hanging is the bug.
      (void)e;
      woken.store(true);
    });
    // Random jitter to hit different interleavings.
    for (u64 spin = rng.next_below(2000); spin > 0; --spin) {
      std::atomic_thread_fence(std::memory_order_relaxed);
    }
    word.store(1, std::memory_order_release);
    while (futex.wake(&word, 64) == 0 && !woken.load()) {
      // keep waking until the waiter is out (covers wake-before-wait)
    }
    waiter.join();
  }
  return VcOutcome::pass();
}

VcOutcome vc_simfutex_scheduler_integration() {
  Topology topo(2, 1);
  Scheduler sched(topo);
  SimFutex futex(sched);
  auto tok = sched.register_core(0);
  (void)sched.add_thread(tok, 1, 1, 1, 0);
  (void)sched.add_thread(tok, 2, 1, 1, 0);

  // Thread 1 waits on a futex word that currently equals `expected`.
  if (futex.wait(tok, 1, VAddr{0x1000}, 5, 5, 1) != ErrorCode::kOk) {
    return VcOutcome::fail("wait failed");
  }
  auto st = sched.thread_state(tok, 1);
  if (!st.ok() || st.value() != ThreadState::kBlocked) {
    return VcOutcome::fail("waiter not blocked in the scheduler");
  }
  for (int i = 0; i < 4; ++i) {
    if (sched.pick(tok, 0) == 1) {
      return VcOutcome::fail("blocked futex waiter got scheduled");
    }
  }
  if (futex.wake(tok, 1, VAddr{0x1000}, 8) != 1) {
    return VcOutcome::fail("wake released wrong count");
  }
  st = sched.thread_state(tok, 1);
  if (!st.ok() || st.value() == ThreadState::kBlocked) {
    return VcOutcome::fail("woken waiter still blocked");
  }
  // Value mismatch: no block.
  if (futex.wait(tok, 1, VAddr{0x1000}, 6, 5, 2) != ErrorCode::kWouldBlock) {
    return VcOutcome::fail("wait blocked despite changed value");
  }
  return VcOutcome::pass();
}


// --- Pipes --------------------------------------------------------------------------

// P1: FIFO byte-stream identity under random chunked writes and reads.
VcOutcome vc_pipe_stream_identity(u64 seed) {
  PipeTable pipes;
  PipeId id = pipes.create();
  Rng rng(seed);
  std::vector<u8> written, read_back;
  for (int i = 0; i < 400; ++i) {
    if (rng.chance(1, 2)) {
      std::vector<u8> chunk(rng.next_range(1, 700));
      for (auto& b : chunk) {
        b = static_cast<u8>(rng.next_u64());
      }
      auto n = pipes.write(id, chunk);
      if (!n.ok()) {
        return VcOutcome::fail("write failed");
      }
      written.insert(written.end(), chunk.begin(),
                     chunk.begin() + static_cast<isize>(n.value()));
      // P2: never exceed capacity.
      if (pipes.buffered(id) > PipeTable::kCapacity) {
        return VcOutcome::fail("capacity bound violated");
      }
    } else {
      std::vector<u8> buf(rng.next_range(1, 700));
      auto n = pipes.read(id, buf);
      if (n.ok()) {
        read_back.insert(read_back.end(), buf.begin(),
                         buf.begin() + static_cast<isize>(n.value()));
      } else if (n.error() != ErrorCode::kWouldBlock) {
        return VcOutcome::fail("read failed unexpectedly");
      }
    }
    // P1: reads so far are a prefix of writes so far.
    if (read_back.size() > written.size() ||
        !std::equal(read_back.begin(), read_back.end(), written.begin())) {
      return VcOutcome::fail("read bytes are not the FIFO prefix of written bytes");
    }
  }
  // Drain and compare fully.
  for (;;) {
    std::vector<u8> buf(4096);
    auto n = pipes.read(id, buf);
    if (!n.ok() || n.value() == 0) {
      break;
    }
    read_back.insert(read_back.end(), buf.begin(), buf.begin() + static_cast<isize>(n.value()));
  }
  if (read_back != written) {
    return VcOutcome::fail("drained bytes differ from written bytes");
  }
  return VcOutcome::pass();
}

// P3/P4: EOF and EPIPE semantics around endpoint closes.
VcOutcome vc_pipe_close_semantics() {
  PipeTable pipes;
  PipeId id = pipes.create();
  std::vector<u8> data{1, 2, 3};
  std::vector<u8> buf(8);
  if (pipes.read(id, buf).error() != ErrorCode::kWouldBlock) {
    return VcOutcome::fail("empty pipe with live writer must WouldBlock");
  }
  (void)pipes.write(id, data);
  pipes.close_writer(id);
  auto n = pipes.read(id, buf);
  if (!n.ok() || n.value() != 3) {
    return VcOutcome::fail("buffered bytes must survive writer close");
  }
  n = pipes.read(id, buf);
  if (!n.ok() || n.value() != 0) {
    return VcOutcome::fail("drained pipe with no writer must report EOF (0)");
  }
  // Writer side gone: a fresh pipe with no reader refuses writes.
  PipeId id2 = pipes.create();
  pipes.close_reader(id2);
  if (pipes.write(id2, data).error() != ErrorCode::kPipeClosed) {
    return VcOutcome::fail("write with no reader must be PipeClosed");
  }
  // Both ends closed: pipe destroyed.
  pipes.close_writer(id2);
  if (pipes.exists(id2)) {
    return VcOutcome::fail("fully closed pipe not destroyed");
  }
  return VcOutcome::pass();
}

// Pipes through the full syscall boundary (fd routing + marshalling).
VcOutcome vc_pipe_via_syscalls() {
  Machine machine;
  Sys& sys = machine.sys;
  auto ends = sys.pipe_create();
  if (!ends.ok()) {
    return VcOutcome::fail("pipe_create failed");
  }
  auto [rfd, wfd] = ends.value();
  std::vector<u8> msg{'p', 'i', 'p', 'e'};
  auto w = sys.write(wfd, msg);
  if (!w.ok() || w.value() != 4) {
    return VcOutcome::fail("pipe write via syscall failed");
  }
  auto r = sys.read(rfd, 16);
  if (!r.ok() || r.value() != msg) {
    return VcOutcome::fail("pipe read via syscall returned wrong bytes");
  }
  // Wrong-direction operations are BadFd-rejected.
  if (sys.read(wfd, 1).error() != ErrorCode::kBadFd ||
      sys.write(rfd, msg).error() != ErrorCode::kBadFd) {
    return VcOutcome::fail("wrong-direction pipe ops not rejected");
  }
  // EOF after closing the write end.
  (void)sys.close(wfd);
  auto eof = sys.read(rfd, 4);
  if (!eof.ok() || !eof.value().empty()) {
    return VcOutcome::fail("EOF not observed after write-end close");
  }
  return VcOutcome::pass();
}

// --- Demand paging --------------------------------------------------------------------

VcOutcome vc_vm_demand_paging(u64 seed) {
  PhysMem mem(2048);
  Topology topo(2, 1);
  FrameAllocator alloc(mem, topo);
  VmManager vm(mem, alloc);
  u64 free_before = alloc.free_frames();

  const u64 kPages = 32;
  auto region = vm.mmap_lazy(kPages * kPageSize, Perms::rw());
  if (!region.ok()) {
    return VcOutcome::fail("mmap_lazy failed");
  }
  // Reservation costs nothing (no data frames; PT may lazily build later).
  if (alloc.free_frames() != free_before) {
    return VcOutcome::fail("lazy mmap allocated frames eagerly");
  }
  if (vm.resident_pages(region.value()).value() != 0) {
    return VcOutcome::fail("lazy region shows resident pages before any touch");
  }
  // Touch a random subset of pages; exactly those become resident.
  Rng rng(seed);
  std::set<u64> touched;
  for (int i = 0; i < 40; ++i) {
    u64 page = rng.next_below(kPages);
    touched.insert(page);
    std::vector<u8> byte{static_cast<u8>(page)};
    if (!vm.copy_out(region.value().offset(page * kPageSize + 7), byte).ok()) {
      return VcOutcome::fail("touch write failed");
    }
  }
  if (vm.resident_pages(region.value()).value() != touched.size()) {
    return VcOutcome::fail("resident pages != touched pages");
  }
  if (vm.stats().faults_served != touched.size()) {
    return VcOutcome::fail("fault counter disagrees with touched pages");
  }
  // The touched bytes read back; untouched pages read as zero after a touch.
  for (u64 page : touched) {
    std::vector<u8> b(1);
    (void)vm.copy_in(region.value().offset(page * kPageSize + 7), b);
    if (b[0] != static_cast<u8>(page)) {
      return VcOutcome::fail("faulted page lost its data");
    }
  }
  // munmap returns exactly the touched frames.
  if (!vm.munmap(region.value()).ok()) {
    return VcOutcome::fail("munmap of lazy region failed");
  }
  if (alloc.free_frames() != free_before) {
    return VcOutcome::fail("frames leaked through the lazy lifecycle");
  }
  return VcOutcome::pass();
}

VcOutcome vc_vm_lazy_write_protection() {
  PhysMem mem(1024);
  Topology topo(2, 1);
  FrameAllocator alloc(mem, topo);
  VmManager vm(mem, alloc);
  auto ro = vm.mmap_lazy(kPageSize, Perms::ro());
  if (!ro.ok()) {
    return VcOutcome::fail("mmap_lazy failed");
  }
  std::vector<u8> b{1};
  auto w = vm.copy_out(ro.value(), b);
  if (w.ok() || w.error() != ErrorCode::kNotPermitted) {
    return VcOutcome::fail("write fault on read-only lazy region not rejected");
  }
  // A read touch faults the page in read-only.
  if (!vm.copy_in(ro.value(), b).ok() || b[0] != 0) {
    return VcOutcome::fail("read touch of lazy page failed or non-zero");
  }
  return VcOutcome::pass();
}

// --- NR-replicated filesystem ------------------------------------------------------------

// A seeded mutation of any of the seven kinds over the small path pools.
// Renames move a file onto a file path (replacing whatever is there) or a
// directory onto a directory path.
FsMutation pick_mutation(Rng& rng, int step) {
  switch (rng.next_below(7)) {
    case 0: return FsMkdir{pick_dir(rng)};
    case 1: return FsRmdir{pick_dir(rng)};
    case 2: return FsCreate{pick_path(rng)};
    case 3: return FsUnlink{pick_path(rng)};
    case 4: {
      const bool dirs = rng.chance(1, 4);
      std::string from = dirs ? pick_dir(rng) : pick_path(rng);
      std::string to = dirs ? pick_dir(rng) : pick_path(rng);
      return FsRename{std::move(from), std::move(to)};
    }
    case 5: {
      std::string path = pick_path(rng);
      u64 off = rng.next_below(64);
      return FsWrite{std::move(path), off,
                     std::vector<u8>(rng.next_range(1, 80), static_cast<u8>(step))};
    }
    default: {
      std::string path = pick_path(rng);
      return FsTruncate{std::move(path), rng.next_below(128)};
    }
  }
}

// NrFs commits every mutation kind through the shared FsMutation, and each
// reply equals a single MemFs's.
VcOutcome vc_nrfs_matches_memfs(u64 seed) {
  static const char* const kNames[] = {"mkdir",  "rmdir", "create",  "unlink",
                                       "rename", "write", "truncate"};
  Topology topo(4, 2);
  NrFs nrfs(topo);
  MemFs reference;
  auto tok = nrfs.register_thread(0);
  Rng rng(seed);
  for (int i = 0; i < 250; ++i) {
    if (rng.chance(1, 5)) {
      std::string path = pick_path(rng);
      u64 off = rng.next_below(64);
      u64 len = rng.next_range(1, 80);
      auto a = nrfs.read(tok, path, off, len);
      std::vector<u8> buf(len);
      auto b = reference.read(path, off, buf);
      if (a.ok() != b.ok()) {
        return VcOutcome::fail("read result kind diverged");
      }
      if (a.ok()) {
        buf.resize(b.value());
        if (a.value() != buf) {
          return VcOutcome::fail("read bytes diverged");
        }
      }
      continue;
    }
    FsMutation m = pick_mutation(rng, i);
    auto a = nrfs.commit(tok, m);
    auto b = reference.commit(m);
    if (a.error() != b.error() || a.value_or(0) != b.value_or(0)) {
      return VcOutcome::fail(std::string(kNames[m.index()]) + " diverged at step " +
                             std::to_string(i));
    }
  }
  // Replicated view == reference view, on every replica.
  auto tok1 = nrfs.register_thread(2);
  nrfs.sync(tok);
  nrfs.sync(tok1);
  for (usize r = 0; r < nrfs.num_replicas(); ++r) {
    if (nrfs.peek(r).fs.view() != reference.view()) {
      return VcOutcome::fail("replica " + std::to_string(r) + " diverged from reference");
    }
  }
  return VcOutcome::pass();
}

VcOutcome vc_nrfs_concurrent_convergence(u64 seed) {
  Topology topo(4, 2);
  NrFs nrfs(topo);
  {
    auto tok = nrfs.register_thread(0);
    (void)nrfs.commit(tok, FsMkdir{"/d"});
  }
  Rng seeder(seed);
  std::vector<std::thread> workers;
  for (u32 t = 0; t < 4; ++t) {
    u64 tseed = seeder.next_u64();
    workers.emplace_back([&, t, tseed] {
      Rng rng(tseed);
      auto tok = nrfs.register_thread(t);
      for (int i = 0; i < 300; ++i) {
        std::string path = "/d/f" + std::to_string(rng.next_below(8));
        switch (rng.next_below(3)) {
          case 0: (void)nrfs.commit(tok, FsCreate{path}); break;
          case 1: {
            u64 off = rng.next_below(32);
            (void)nrfs.commit(tok, FsWrite{path, off, std::vector<u8>(8, static_cast<u8>(t))});
            break;
          }
          default: (void)nrfs.read(tok, path, 0, 16); break;
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  auto t0 = nrfs.register_thread(0);
  auto t1 = nrfs.register_thread(2);
  nrfs.sync(t0);
  nrfs.sync(t1);
  if (nrfs.peek(0).fs.view() != nrfs.peek(1).fs.view()) {
    return VcOutcome::fail("filesystem replicas diverged under concurrency");
  }
  return VcOutcome::pass();
}

// --- Fault injection -------------------------------------------------------------

// Every path in `fs` with its inode number.
std::map<std::string, u64> inodes_of(const MemFs& fs) {
  FsAbsState v = fs.view();
  std::map<std::string, u64> out;
  for (const auto& d : v.dirs) {
    out[d] = fs.stat(d).value().inode;
  }
  for (const auto& [f, bytes] : v.files) {
    out[f] = fs.stat(f).value().inode;
  }
  return out;
}

// The state recover() yields from `dev` after a crash that loses every
// unflushed sector, read from a copy of the stable media so that `dev` and
// the filesystem on it keep running.
Result<FsAbsState> recover_flushed_copy(const BlockDevice& dev) {
  BlockDevice copy(dev.num_sectors(), 0, "vc/fscopydev");
  const std::vector<u8> media = dev.snapshot_stable();
  for (u64 s = 0; s < dev.num_sectors(); ++s) {
    (void)copy.write(s, std::span<const u8>(media.data() + s * kSectorSize, kSectorSize));
  }
  copy.flush();
  auto rec = MemFs::recover(copy);
  if (!rec.ok()) {
    return rec.error();
  }
  return rec.value().view();
}

// Group commit under device write faults. Each step arms a one-shot write
// fault, commits one mutation whose checks pass, then fsyncs. The fault
// lands on the first device write: the mutation's, when its record fills a
// journal sector, or else fsync's write of the tail. So exactly one of the
// two returns kIoError, and:
//   - a failed mutation changes no path, byte or inode number (only its
//     record is dropped), and the fsync after it makes the batch durable:
//     recovery equals the view;
//   - a failed fsync changes nothing: the mutation stays applied but not
//     durable, and a crash that loses every unflushed sector recovers the
//     state at the previous fsync. The batch stays pending, and the next
//     clean fsync makes it durable.
VcOutcome vc_fs_io_error_rollback(u64 seed) {
  auto& reg = FaultRegistry::global();
  reg.reseed(seed);
  BlockDevice dev(1024, seed, "vc/fsfaultdev");
  auto made = MemFs::format(dev);
  if (!made.ok()) {
    return VcOutcome::fail("format failed");
  }
  MemFs fs = std::move(made.value());
  if (!fs.mkdir("/d").ok() || !fs.create("/d/base").ok() ||
      !fs.write("/d/base", 0, std::vector<u8>(64, 0x5A)).ok() || !fs.create("/d/victim").ok() ||
      !fs.write("/d/victim", 0, std::vector<u8>(32, 0x33)).ok() || !fs.mkdir("/d/empty").ok() ||
      !fs.fsync().ok()) {
    return VcOutcome::fail("setup failed");
  }

  static const char* const kOps[] = {"mkdir",  "rmdir", "create",  "unlink",
                                     "rename", "write", "truncate"};
  FaultSpec one_shot;
  one_shot.probability_ppm = 1'000'000;
  one_shot.one_shot = true;
  Rng rng(seed);
  FsAbsState durable = fs.view();  // the state at the last completed fsync
  usize op_faults = 0;
  usize fsync_faults = 0;
  for (int i = 0; i < 30; ++i) {
    // Pick an op whose checks pass on the current state: the files, the
    // empty directories under /d, or a fresh name.
    const FsAbsState before = fs.view();
    const std::map<std::string, u64> inodes_before = inodes_of(fs);
    std::vector<std::string> files;
    for (const auto& [path, bytes] : before.files) {
      files.push_back(path);
    }
    std::vector<std::string> dirs(before.dirs.begin(), before.dirs.end());
    dirs.erase(std::remove(dirs.begin(), dirs.end(), "/d"), dirs.end());
    const std::string fresh = "/d/n" + std::to_string(i);
    auto any_file = [&] { return files[rng.next_below(files.size())]; };
    FsMutation m;
    switch (rng.next_below(8)) {
      case 0:
        m = FsMkdir{fresh};
        break;
      case 1:
        m = FsCreate{fresh};
        break;
      case 2: {
        std::vector<u8> data(rng.next_range(1, 200));
        for (auto& b : data) {
          b = static_cast<u8>(rng.next_u64());
        }
        m = FsWrite{any_file(), rng.next_below(64), std::move(data)};
        break;
      }
      case 3:
        m = FsTruncate{any_file(), rng.next_below(128)};
        break;
      case 4:
        m = FsRename{any_file(), fresh};
        break;
      case 5:
        m = files.size() > 1 ? FsMutation(FsUnlink{any_file()}) : FsMutation(FsCreate{fresh});
        break;
      case 6:
        m = dirs.empty() ? FsMutation(FsMkdir{fresh}) : FsMutation(FsRmdir{dirs.back()});
        break;
      default:  // rename onto an existing file
        m = files.size() > 1 ? FsMutation(FsRename{files.front(), files.back()})
                             : FsMutation(FsCreate{fresh});
        break;
    }
    const std::string what = std::string(kOps[m.index()]) + " at step " + std::to_string(i);

    reg.arm("vc/fsfaultdev/write_error", one_shot);
    const ErrorCode op_err = fs.commit(m).error();
    const FsAbsState after_op = fs.view();
    const std::map<std::string, u64> inodes_after_op = inodes_of(fs);
    const ErrorCode fsync_err = fs.fsync().error();
    reg.disarm_prefix("vc/fsfaultdev/");
    const bool op_failed = op_err == ErrorCode::kIoError;
    const bool fsync_failed = fsync_err == ErrorCode::kIoError;
    if ((op_err != ErrorCode::kOk && !op_failed) ||
        (fsync_err != ErrorCode::kOk && !fsync_failed)) {
      return VcOutcome::fail(what + ": wrong error surfaced: " + error_name(op_err) + ", " +
                             error_name(fsync_err));
    }
    if (op_failed == fsync_failed) {
      return VcOutcome::fail(what + ": the op and fsync must fail exactly once between them");
    }
    if (op_failed) {
      ++op_faults;
      if (after_op != before || inodes_after_op != inodes_before) {
        return VcOutcome::fail("failed " + what + " changed a path, byte or inode number");
      }
      durable = before;
    } else {
      ++fsync_faults;
      if (fs.view() != after_op || inodes_of(fs) != inodes_after_op) {
        return VcOutcome::fail("failed fsync after " + what + " changed the state");
      }
    }
    auto rec = recover_flushed_copy(dev);
    if (!rec.ok() || rec.value() != durable) {
      return VcOutcome::fail("a crash after " + what +
                             " did not recover the state at the last fsync");
    }
  }
  if (op_faults == 0 || fsync_faults == 0) {
    return VcOutcome::fail("the faults never landed on both an op and an fsync");
  }
  // The same ops succeed once the faults are gone, the next clean fsync
  // makes the pending batch durable, and the state persists.
  if (!fs.create("/d/after").ok() || !fs.write("/d/after", 0, std::vector<u8>{1, 2, 3}).ok() ||
      !fs.rename("/d/after", "/d/base").ok() || !fs.fsync().ok()) {
    return VcOutcome::fail("filesystem broken after injected faults");
  }
  auto rec = recover_flushed_copy(dev);
  if (!rec.ok() || rec.value() != fs.view()) {
    return VcOutcome::fail("recovered state diverged after injected-fault run");
  }
  return VcOutcome::pass();
}

// Recovery must propagate device read errors, never silently treat them as
// end-of-journal (that would resurrect a stale prefix as if it were the
// acknowledged state).
VcOutcome vc_fs_recovery_error_propagates(u64 seed) {
  auto& reg = FaultRegistry::global();
  reg.reseed(seed);
  BlockDevice dev(4096, seed, "vc/recfaultdev");
  FsAbsState expected;
  {
    auto made = MemFs::format(dev);
    if (!made.ok()) {
      return VcOutcome::fail("format failed");
    }
    MemFs fs = std::move(made.value());
    if (!fs.create("/f").ok() || !fs.write("/f", 0, std::vector<u8>(100, 0x77)).ok() ||
        !fs.fsync().ok()) {
      return VcOutcome::fail("setup failed");
    }
    expected = fs.view();
  }
  FaultSpec one_shot;
  one_shot.probability_ppm = 1'000'000;
  one_shot.one_shot = true;
  reg.arm("vc/recfaultdev/read_error", one_shot);
  auto rec = MemFs::recover(dev);
  if (rec.ok()) {
    return VcOutcome::fail("recovery swallowed a device read error");
  }
  auto clean = MemFs::recover(dev);
  if (!clean.ok()) {
    return VcOutcome::fail("clean retry of recovery failed");
  }
  if (!(clean.value().view() == expected)) {
    return VcOutcome::fail("recovered state lost acknowledged data");
  }
  return VcOutcome::pass();
}

// Schedulable allocator OOM: the armed site makes exactly one allocation
// fail with kNoMemory (counted), and the allocator is unharmed afterwards.
VcOutcome vc_frame_alloc_injected_oom() {
  auto& reg = FaultRegistry::global();
  PhysMem mem(256);
  Topology topo(2, 1);
  FrameAllocator alloc(mem, topo);
  FaultSpec one_shot;
  one_shot.probability_ppm = 1'000'000;
  one_shot.one_shot = true;
  one_shot.error = ErrorCode::kNoMemory;
  reg.arm("frame_alloc/oom", one_shot);
  auto denied = alloc.alloc_frame();
  if (denied.ok() || denied.error() != ErrorCode::kNoMemory) {
    return VcOutcome::fail("armed OOM did not surface as kNoMemory");
  }
  if (alloc.stats().injected_oom != 1) {
    return VcOutcome::fail("injected OOM not counted");
  }
  auto granted = alloc.alloc_frame();
  if (!granted.ok()) {
    return VcOutcome::fail("allocation failed after the one-shot disarmed");
  }
  alloc.free(granted.value());
  return VcOutcome::pass();
}

// Syscall-boundary injection: an armed site turns the next eligible syscall
// into a clean typed error at the contract boundary — the app sees kIoError
// or kNoMemory exactly as if the kernel had hit the fault internally, and
// the next call succeeds.
VcOutcome vc_sys_fault_injection() {
  auto& reg = FaultRegistry::global();
  Machine machine;
  Sys& sys = machine.sys;

  FaultSpec one_shot;
  one_shot.probability_ppm = 1'000'000;
  one_shot.one_shot = true;
  reg.arm("syscall/io_error", one_shot);
  auto denied = sys.open("/victim", kOpenCreate);
  if (denied.ok() || denied.error() != ErrorCode::kIoError) {
    return VcOutcome::fail("armed io_error did not surface on open");
  }
  auto fd = sys.open("/victim", kOpenCreate);
  if (!fd.ok()) {
    return VcOutcome::fail("open failed after the one-shot disarmed");
  }
  (void)sys.close(fd.value());

  one_shot.error = ErrorCode::kNoMemory;
  reg.arm("syscall/no_memory", one_shot);
  auto mm = sys.mmap(4096, /*writable=*/true);
  if (mm.ok() || mm.error() != ErrorCode::kNoMemory) {
    return VcOutcome::fail("armed no_memory did not surface on mmap");
  }
  auto mm2 = sys.mmap(4096, /*writable=*/true);
  if (!mm2.ok()) {
    return VcOutcome::fail("mmap failed after the one-shot disarmed");
  }
  (void)sys.munmap(mm2.value());
  return VcOutcome::pass();
}

// --- Async rings (src/kernel/ring.h) ------------------------------------------

// [nr][args]: the synchronous frame for the same op a RingSqe carries.
std::vector<u8> ring_sync_frame(const RingSqe& sqe) {
  Writer w;
  w.put_u32(sqe.op);
  w.put_raw(sqe.args);
  return w.take();
}

// Refinement: a random op stream executed synchronously on kernel A and
// through the ring on identically-prepared kernel B yields byte-identical
// (err, payload) replies per op and identical final SysAbsState. The ring's
// executor IS the synchronous switch, so this checks the queueing machinery
// adds nothing and loses nothing. Ops that would park (recv with an empty
// queue) are excluded here — parking is the one intended divergence, and
// ring_completion_unique plus ring_syscall_test cover it.
VcOutcome vc_ring_refines_sync(u64 seed) {
  Machine ma, mb;
  if (ma.pid != mb.pid) {
    return VcOutcome::fail("mirrored spawn diverged");
  }
  Sys& sa = ma.sys;
  Sys& sb = mb.sys;
  if (ma.kernel.net_addr() != mb.kernel.net_addr()) {
    return VcOutcome::fail("mirrored kernels got different fabric addresses");
  }
  auto ring = sb.ring_setup(8, 8);
  if (!ring.ok()) {
    return VcOutcome::fail("ring_setup failed");
  }
  // One bound UDP socket per side; same fd by identical allocation history.
  auto ua = sa.udp_socket();
  auto ub = sb.udp_socket();
  if (ua.value() != ub.value() || !sa.udp_bind(ua.value(), 7000).ok() ||
      !sb.udp_bind(ub.value(), 7000).ok()) {
    return VcOutcome::fail("mirrored socket setup diverged");
  }

  Rng rng(seed);
  const std::vector<std::string> paths = {"/r0", "/r1", "/r2"};
  std::vector<Fd> files;  // fds open on both sides (same numbers)
  usize queued = 0;       // self-sent datagrams not yet received
  u64 user_data = 0;

  for (int i = 0; i < 160; ++i) {
    ++user_data;
    RingSqe sqe;
    switch (rng.next_below(8)) {
      case 0: {
        sqe = ring_sqe<SysNr::kOpen>(user_data, paths[rng.next_below(paths.size())], kOpenCreate);
        break;
      }
      case 1:
        if (!files.empty()) {
          Fd fd = files[rng.next_below(files.size())];
          std::vector<u8> data(1 + rng.next_below(64), static_cast<u8>('a' + (i % 26)));
          sqe = ring_sqe<SysNr::kWrite>(user_data, fd, data);
          break;
        }
        [[fallthrough]];
      case 2:
        if (!files.empty()) {
          sqe = ring_sqe<SysNr::kRead>(user_data, files[rng.next_below(files.size())], 32);
          break;
        }
        [[fallthrough]];
      case 3: {
        sqe = ring_sqe<SysNr::kFsync>(user_data);
        break;
      }
      case 4:
        if (files.size() > 1) {
          sqe = ring_sqe<SysNr::kClose>(user_data, files.back());
          break;
        }
        [[fallthrough]];
      case 5: {
        std::vector<u8> payload(1 + rng.next_below(32), static_cast<u8>(i));
        sqe = ring_sqe<SysNr::kUdpSendTo>(user_data, ua.value(), ma.kernel.net_addr(), 7000, payload);
        break;
      }
      case 6:
        if (queued > 0) {
          sqe = ring_sqe<SysNr::kUdpRecvFrom>(user_data, ua.value());
          break;
        }
        [[fallthrough]];
      default:
        if (!files.empty()) {
          sqe = ring_sqe<SysNr::kFstat>(user_data, files[rng.next_below(files.size())]);
        } else {
          sqe = ring_sqe<SysNr::kFsync>(user_data);
        }
        break;
    }

    std::vector<u8> reply_a = ma.disp.handle(ma.pid, 0, ring_sync_frame(sqe));
    auto accepted = sb.ring_submit(ring.value(), std::span<const RingSqe>(&sqe, 1));
    if (!accepted.ok() || accepted.value() != 1) {
      return VcOutcome::fail("single-entry submit not accepted");
    }
    auto cqes = sb.ring_wait(ring.value(), 1, 1);
    if (!cqes.ok() || cqes.value().size() != 1) {
      return VcOutcome::fail("completion not ready after submit pass");
    }
    const RingCqe& cqe = cqes.value()[0];
    if (cqe.user_data != user_data) {
      return VcOutcome::fail("user_data correlation broken");
    }
    Reader ra(reply_a);
    auto err_a = ra.get_u32();
    auto payload_a = ra.get_raw(ra.remaining());
    if (!err_a || !payload_a || *err_a != cqe.err || *payload_a != cqe.payload) {
      return VcOutcome::fail("CQE (err, payload) diverges from the synchronous reply");
    }
    // Track mirrored state from side A's (identical) reply.
    if (*err_a == static_cast<u32>(ErrorCode::kOk)) {
      const SysNr nr = static_cast<SysNr>(sqe.op);
      if (nr == SysNr::kOpen) {
        files.push_back(sys_reply<SysNr::kOpen>(cqe).value());
      } else if (nr == SysNr::kClose) {
        files.pop_back();
      } else if (nr == SysNr::kUdpSendTo) {
        ++queued;
      } else if (nr == SysNr::kUdpRecvFrom) {
        --queued;
      }
    }
  }

  // Batched phase: independent writes to distinct files submitted as one
  // batch complete as a set — same multiset of replies, same final state as
  // the sequential synchronous execution.
  std::vector<RingSqe> batch;
  std::map<u64, std::vector<u8>> expect;  // user_data -> sync reply bytes
  for (int i = 0; i < 6; ++i) {
    std::string path = "/batch" + std::to_string(i);
    auto open_a = sa.open(path, kOpenCreate);
    auto open_b = sb.open(path, kOpenCreate);
    if (open_a.value() != open_b.value()) {
      return VcOutcome::fail("mirrored open diverged before batch");
    }
    std::vector<u8> data(8 + i, static_cast<u8>('0' + i));
    ++user_data;
    RingSqe sqe = ring_sqe<SysNr::kWrite>(user_data, open_a.value(), data);
    expect[user_data] = ma.disp.handle(ma.pid, 0, ring_sync_frame(sqe));
    batch.push_back(std::move(sqe));
  }
  auto accepted = sb.ring_submit(ring.value(), batch);
  if (!accepted.ok() || accepted.value() != static_cast<u32>(batch.size())) {
    return VcOutcome::fail("batch submit not fully accepted");
  }
  usize reaped = 0;
  while (reaped < batch.size()) {
    auto cqes = sb.ring_wait(ring.value(), 1, 4);
    if (!cqes.ok() || cqes.value().empty()) {
      return VcOutcome::fail("batch completions missing");
    }
    for (const RingCqe& cqe : cqes.value()) {
      auto it = expect.find(cqe.user_data);
      if (it == expect.end()) {
        return VcOutcome::fail("batch CQE with unknown user_data");
      }
      Reader ra(it->second);
      auto err_a = ra.get_u32();
      auto payload_a = ra.get_raw(ra.remaining());
      if (*err_a != cqe.err || *payload_a != cqe.payload) {
        return VcOutcome::fail("batched CQE diverges from synchronous reply");
      }
      expect.erase(it);
      ++reaped;
    }
  }

  if (!(ma.disp.view(ma.pid) == mb.disp.view(mb.pid))) {
    return VcOutcome::fail("final abstract state diverged between sync and ring");
  }
  return VcOutcome::pass();
}

// Exactly-once: every accepted SQE is reaped exactly once, under forced CQ
// overflow, parked recvs, and an armed submit fault site. The books balance
// at every step: accepted == reaped + ready + in_flight.
VcOutcome vc_ring_completion_unique(u64 seed) {
  FaultRegistry& freg = FaultRegistry::global();
  freg.reseed(seed * 0x9E37'79B9'7F4A'7C15ull + 1);
  Machine machine;
  Kernel& kernel = machine.kernel;
  Sys& sys = machine.sys;
  auto ring = sys.ring_setup(32, 4);  // small CQ: reaping lag must overflow
  if (!ring.ok()) {
    return VcOutcome::fail("ring_setup failed");
  }
  auto sock = sys.udp_socket();
  if (!sock.ok() || !sys.udp_bind(sock.value(), 9000).ok()) {
    return VcOutcome::fail("socket setup failed");
  }
  auto file = sys.open("/uniq", kOpenCreate);
  if (!file.ok()) {
    return VcOutcome::fail("open failed");
  }

  FaultSpec flaky;
  flaky.probability_ppm = 120'000;
  flaky.error = ErrorCode::kIoError;
  freg.arm("syscall/ring_submit", flaky);

  Rng rng(seed);
  u64 user_data = 0;
  u64 accepted_total = 0;
  std::set<u64> outstanding;  // accepted, not yet reaped
  std::set<u64> reaped;
  usize parked_recvs = 0;

  auto reap_some = [&](u32 max_reap) -> bool {
    auto cqes = sys.ring_wait(ring.value(), 0, max_reap);
    if (!cqes.ok()) {
      return false;
    }
    for (const RingCqe& cqe : cqes.value()) {
      if (reaped.count(cqe.user_data) != 0) {
        return false;  // duplicate completion
      }
      if (outstanding.erase(cqe.user_data) != 1) {
        return false;  // completion nobody submitted
      }
      reaped.insert(cqe.user_data);
    }
    return true;
  };

  for (int round = 0; round < 200; ++round) {
    u32 choice = static_cast<u32>(rng.next_below(10));
    if (choice < 4) {
      // A burst of writes/fsyncs, reaped lazily → CQ overflow pressure.
      std::vector<RingSqe> batch;
      usize n = 1 + rng.next_below(4);
      for (usize i = 0; i < n; ++i) {
        std::vector<u8> data(4, static_cast<u8>(round));
        batch.push_back(ring_sqe<SysNr::kWrite>(++user_data, file.value(), data));
      }
      auto acc = sys.ring_submit(ring.value(), batch);
      if (!acc.ok() && acc.error() != ErrorCode::kWouldBlock) {
        return VcOutcome::fail("submit failed unexpectedly");
      }
      u32 took = acc.ok() ? acc.value() : 0;
      accepted_total += took;
      for (u32 i = 0; i < took; ++i) {
        outstanding.insert(batch[i].user_data);
      }
      user_data -= (n - took);  // unaccepted ids are never live
    } else if (choice < 6) {
      // A recv with nothing queued: parks in flight until data arrives.
      RingSqe sqe = ring_sqe<SysNr::kUdpRecvFrom>(++user_data, sock.value());
      auto acc = sys.ring_submit(ring.value(), std::span<const RingSqe>(&sqe, 1));
      if (acc.ok() && acc.value() == 1) {
        accepted_total += 1;
        outstanding.insert(sqe.user_data);
        ++parked_recvs;
      } else {
        --user_data;
      }
    } else if (choice < 8 && parked_recvs > 0) {
      // Feed one parked recv: self-send, next pass completes it.
      std::vector<u8> payload(3, static_cast<u8>(round));
      if (sys.udp_sendto(sock.value(), kernel.net_addr(), 9000, payload).ok()) {
        --parked_recvs;
      }
    } else {
      if (!reap_some(1 + static_cast<u32>(rng.next_below(6)))) {
        freg.disarm("syscall/ring_submit");
        return VcOutcome::fail("reap violated exactly-once");
      }
    }
    // The books must balance at every step.
    usize in_flight = kernel.rings().in_flight(machine.pid, ring.value());
    usize ready = kernel.rings().ready(machine.pid, ring.value());
    if (accepted_total != reaped.size() + ready + in_flight) {
      freg.disarm("syscall/ring_submit");
      return VcOutcome::fail("accepted != reaped + ready + in_flight");
    }
  }
  freg.disarm("syscall/ring_submit");

  // Drain: feed every parked recv, then reap until empty.
  while (parked_recvs > 0) {
    std::vector<u8> payload(2, 0xEE);
    if (!sys.udp_sendto(sock.value(), kernel.net_addr(), 9000, payload).ok()) {
      return VcOutcome::fail("drain send failed");
    }
    --parked_recvs;
  }
  for (int i = 0; i < 64 && !outstanding.empty(); ++i) {
    if (!reap_some(8)) {
      return VcOutcome::fail("drain reap violated exactly-once");
    }
  }
  if (!outstanding.empty()) {
    return VcOutcome::fail("accepted SQEs never completed");
  }
  if (kernel.rings().in_flight(machine.pid, ring.value()) != 0 ||
      kernel.rings().ready(machine.pid, ring.value()) != 0) {
    return VcOutcome::fail("ring not empty after full drain");
  }
  if (kernel.rings().cq_overflows() == 0) {
    return VcOutcome::fail("overflow pressure never exercised the overflow path");
  }
  return VcOutcome::pass();
}

// No lost wakeups. The reactor re-executes a parked SQE only after a net
// stack marks the event it waits on, so one missed mark strands the op for
// good. A server process serves from one ring — a parked accept, parked
// datagram recvs, a parked recv per inbound stream and per outbound stream —
// while a client host connects, sends, closes and datagrams across a lossy,
// duplicating, reordering fabric with partitions. Outbound streams meet a
// listener the client toggles, so they end in refusals, resets, sheds and
// SYN timeouts. "syscall/ring_complete" defers completions throughout.
// Checked after every pass: no parked SQE without a pending wakeup has an
// event that already happened (the stacks' const probes say so). Checked
// per completion: stream bytes match what that stream's client sent, in
// order, and kBadFd reaches exactly the ops whose fd was closed under them.
// At quiesce every accepted SQE has completed exactly once. The caller
// arms "syscall/ring_complete"; the schedule disarms it to quiesce.
VcOutcome ring_readiness_schedule(u64 seed, FaultRegistry& freg) {
  FabricConfig lossy;
  lossy.loss_ppm = 40'000;
  lossy.dup_ppm = 40'000;
  lossy.reorder_ppm = 60'000;
  Network net(lossy, seed ^ 0x5EED'0000ull);
  Machine server({.network = &net});
  Machine client({.network = &net});
  Kernel& sk = server.kernel;
  Kernel& ck = client.kernel;
  Sys& ss = server.sys;
  Sys& cs = client.sys;
  constexpr Port kServe = 5000;
  constexpr Port kDgramPort = 6000;
  constexpr Port kBack = 7000;  // the client's toggled listener
  auto listener = ss.vtp_listen(kServe, 8);
  auto dsock = ss.udp_socket();
  auto csock = cs.udp_socket();
  auto ring = ss.ring_setup(64, 64);
  if (!listener.ok() || !dsock.ok() || !csock.ok() || !ring.ok() ||
      !ss.udp_bind(dsock.value(), kDgramPort).ok()) {
    return VcOutcome::fail("setup failed");
  }

  // Byte k of client stream `id`; byte 0 names the stream.
  auto stream_byte = [](u64 id, u64 k) {
    return static_cast<u8>(k == 0 ? id : id * 31 + k * 7 + (k >> 8));
  };
  struct ClientStream {
    Fd fd = kInvalidFd;
    u64 id = 0;
    u64 sent = 0;
  };
  std::vector<ClientStream> cstreams;
  std::map<u64, u64> sent_by_id;  // every client stream's bytes accepted by its stack
  u64 next_id = 1;
  Fd back_listener = kInvalidFd;

  struct ServerStream {
    Fd fd = kInvalidFd;
    bool inbound = true;
    bool armed = false;    // a recv SQE is outstanding
    bool closing = false;  // a ring close is outstanding
    bool closed = false;   // its fd is closed: its recv may complete kBadFd
    i64 id = -1;           // learned from the first byte (inbound)
    u64 got = 0;
  };
  std::map<u64, ServerStream> streams;  // by serial
  u64 next_serial = 1;
  enum class OpKind { kAccept, kRecv, kDgram, kClose };
  struct Sub {
    OpKind kind = OpKind::kAccept;
    u64 serial = 0;  // kRecv / kClose: the stream
  };
  std::map<u64, Sub> outstanding;  // by user_data
  u64 next_ud = 1;
  bool accept_armed = false;
  usize dgram_armed = 0;
  bool listener_open = true;
  bool dsock_open = true;
  const Pid pid = server.pid;
  // Coverage: a schedule that parked nothing, delivered nothing, cancelled
  // nothing or never saw a stream fail proves nothing.
  u64 parked_seen = 0, bytes_in = 0, cancels = 0, accepts = 0, failures = 0, dgrams = 0;

  auto lost_wakeup = [&]() -> std::optional<std::string> {
    for (const RingParkedOp& op : sk.rings().parked(pid, ring.value())) {
      ++parked_seen;
      if (sk.ip().readiness().ready(op.key)) {
        return "parked SQE " + std::to_string(op.user_data) + " (op " + std::to_string(op.op) +
               ") missed the event it waits on";
      }
    }
    return std::nullopt;
  };
  auto submit = [&](std::vector<std::pair<RingSqe, Sub>>& batch) -> std::optional<std::string> {
    if (batch.empty()) {
      return std::nullopt;
    }
    std::vector<RingSqe> sqes;
    for (auto& [sqe, sub] : batch) {
      sqes.push_back(sqe);
    }
    auto acc = ss.ring_submit(ring.value(), sqes);
    if (!acc.ok() || acc.value() != sqes.size()) {
      return std::string("submit refused entries");
    }
    for (auto& [sqe, sub] : batch) {
      outstanding[sqe.user_data] = sub;
    }
    batch.clear();
    return lost_wakeup();
  };
  auto arm_recv = [&](std::vector<std::pair<RingSqe, Sub>>& batch, u64 serial,
                      ServerStream& st) {
    batch.push_back({ring_sqe<SysNr::kVtpRecv>(next_ud++, st.fd, 512), Sub{OpKind::kRecv, serial}});
    st.armed = true;
  };
  // Closes a server stream synchronously; legal only when no recv of it can
  // run again except as a cancellation (not armed, or parked).
  auto close_sync = [&](u64 serial) -> std::optional<std::string> {
    ServerStream& st = streams.at(serial);
    if (!ss.vtp_close(st.fd).ok()) {
      return std::string("server close failed");
    }
    st.closed = true;
    if (!st.armed) {
      streams.erase(serial);
    }
    return std::nullopt;
  };
  auto parked_uds = [&] {
    std::set<u64> uds;
    for (const RingParkedOp& op : sk.rings().parked(pid, ring.value())) {
      uds.insert(op.user_data);
    }
    return uds;
  };
  auto recv_ud_of = [&](u64 serial) -> u64 {
    for (const auto& [ud, sub] : outstanding) {
      if (sub.kind == OpKind::kRecv && sub.serial == serial) {
        return ud;
      }
    }
    return 0;
  };

  auto reap = [&]() -> std::optional<std::string> {
    auto cqes = ss.ring_wait(ring.value(), 0, 64);
    if (!cqes.ok()) {
      return std::string("ring_wait failed");
    }
    if (auto lost = lost_wakeup()) {
      return lost;
    }
    for (const RingCqe& cqe : cqes.value()) {
      auto it = outstanding.find(cqe.user_data);
      if (it == outstanding.end()) {
        return "completion " + std::to_string(cqe.user_data) + " nobody awaits";
      }
      const Sub sub = it->second;
      outstanding.erase(it);
      const ErrorCode err = static_cast<ErrorCode>(cqe.err);
      switch (sub.kind) {
        case OpKind::kAccept: {
          accept_armed = false;
          if (err == ErrorCode::kBadFd && !listener_open) {
            break;
          }
          if (err != ErrorCode::kOk) {
            return "accept failed with " + std::string(error_name(err));
          }
          Fd fd = sys_reply<SysNr::kVtpAccept>(cqe).value_or(0);
          for (const auto& [serial, st] : streams) {
            if (st.fd == fd && !st.closed) {
              return "accept handed out fd " + std::to_string(fd) + " of a live stream";
            }
          }
          ServerStream st;
          st.fd = fd;
          streams[next_serial++] = st;
          ++accepts;
          break;
        }
        case OpKind::kDgram: {
          --dgram_armed;
          if (err == ErrorCode::kBadFd && !dsock_open) {
            break;
          }
          auto dg = sys_reply<SysNr::kUdpRecvFrom>(cqe);
          if (!dg.ok() || dg.value().payload.empty() || dg.value().payload[0] != 'D') {
            return std::string("datagram recv completed wrong");
          }
          ++dgrams;
          break;
        }
        case OpKind::kClose: {
          if (err != ErrorCode::kOk) {
            return std::string("ring close failed");
          }
          ServerStream& st = streams.at(sub.serial);
          st.closed = true;
          if (!st.armed) {
            streams.erase(sub.serial);
          }
          break;
        }
        case OpKind::kRecv: {
          ServerStream& st = streams.at(sub.serial);
          st.armed = false;
          if (err == ErrorCode::kBadFd) {
            if (!st.closed) {
              return "recv on an open stream completed kBadFd";
            }
            ++cancels;
          } else if (err == ErrorCode::kOk) {
            auto data = sys_reply<SysNr::kVtpRecv>(cqe);
            if (!data.ok() || data.value().empty()) {
              return std::string("recv completed without bytes");
            }
            if (!st.inbound) {
              return std::string("bytes on an outbound stream nobody writes");
            }
            for (u8 b : data.value()) {
              if (st.id < 0) {
                st.id = b;
              } else if (b != stream_byte(static_cast<u64>(st.id), st.got)) {
                return "stream " + std::to_string(st.id) + " byte " + std::to_string(st.got) +
                       " is not what its client sent";
              }
              ++st.got;
            }
            bytes_in += data.value().size();
            if (st.got > sent_by_id[static_cast<u64>(st.id)]) {
              return "stream " + std::to_string(st.id) + " delivered more than was sent";
            }
          } else if (err != ErrorCode::kPipeClosed && err != ErrorCode::kConnReset &&
                     err != ErrorCode::kConnRefused && err != ErrorCode::kTimedOut &&
                     err != ErrorCode::kOverloaded) {
            return "recv completed with " + std::string(error_name(err));
          } else {
            ++failures;  // the stream ended: release the fd
            if (!st.closed && !st.closing) {
              if (auto bad = close_sync(sub.serial)) {
                return bad;
              }
              break;
            }
          }
          if (st.closed) {
            streams.erase(sub.serial);
          }
          break;
        }
      }
    }
    return std::nullopt;
  };

  Rng rng(seed);
  bool cut = false;
  for (int step = 0; step < 400; ++step) {
    const u64 roll = rng.next_below(100);
    if (roll < 12 && cstreams.size() < 6 && next_id < 200) {
      auto fd = cs.vtp_connect(sk.net_addr(), kServe, 0);
      if (fd.ok()) {
        cstreams.push_back(ClientStream{fd.value(), next_id++});
      }
    } else if (roll < 40 && !cstreams.empty()) {
      ClientStream& c = cstreams[rng.next_below(cstreams.size())];
      std::vector<u8> chunk(1 + rng.next_below(48));
      for (usize i = 0; i < chunk.size(); ++i) {
        chunk[i] = stream_byte(c.id, c.sent + i);
      }
      auto n = cs.vtp_send(c.fd, chunk);
      if (n.ok()) {
        c.sent += n.value();
        sent_by_id[c.id] = c.sent;
      } else if (n.error() != ErrorCode::kWouldBlock) {
        const Fd dead = c.fd;  // the stream failed: drop it
        (void)cs.vtp_close(dead);
        std::erase_if(cstreams, [dead](const ClientStream& x) { return x.fd == dead; });
      }
    } else if (roll < 46 && !cstreams.empty()) {
      usize i = rng.next_below(cstreams.size());
      (void)cs.vtp_close(cstreams[i].fd);
      cstreams.erase(cstreams.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (roll < 54) {
      std::vector<u8> dg = {'D', static_cast<u8>(step)};
      (void)cs.udp_sendto(csock.value(), sk.net_addr(), kDgramPort, dg);
    } else if (roll < 60) {
      usize outbound = 0;
      for (const auto& [serial, st] : streams) {
        outbound += st.inbound ? 0 : 1;
      }
      if (outbound < 3) {
        auto fd = ss.vtp_connect(ck.net_addr(), kBack, 0);
        if (fd.ok()) {
          ServerStream st;
          st.fd = fd.value();
          st.inbound = false;
          streams[next_serial++] = st;
        }
      }
    } else if (roll < 64) {
      if (back_listener == kInvalidFd) {
        auto l = cs.vtp_listen(kBack, 2);
        if (l.ok()) {
          back_listener = l.value();
        }
      } else {
        (void)cs.vtp_close(back_listener);  // resets the queued connections
        back_listener = kInvalidFd;
      }
    } else if (roll < 72 && !streams.empty()) {
      auto it = streams.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.next_below(streams.size())));
      const u64 serial = it->first;
      ServerStream& st = it->second;
      if (!st.closed && !st.closing) {
        if (rng.chance(1, 2)) {
          RingSqe close = ring_sqe<SysNr::kClose>(next_ud++, st.fd);
          std::vector<std::pair<RingSqe, Sub>> batch = {{close, Sub{OpKind::kClose, serial}}};
          st.closing = true;
          if (auto bad = submit(batch)) {
            return VcOutcome::fail(*bad);
          }
        } else if (!st.armed || parked_uds().count(recv_ud_of(serial)) != 0) {
          if (auto bad = close_sync(serial)) {
            return VcOutcome::fail(*bad);
          }
        }
      }
    } else if (roll < 76) {
      if (cut) {
        net.heal(sk.net_addr(), ck.net_addr());
      } else {
        net.partition(sk.net_addr(), ck.net_addr());
      }
      cut = !cut;
    }

    // Keep the server's SQEs armed: the accept, two datagram recvs, and a
    // recv on every stream that is not closing.
    std::vector<std::pair<RingSqe, Sub>> batch;
    if (!accept_armed) {
      batch.push_back(
          {ring_sqe<SysNr::kVtpAccept>(next_ud++, listener.value()), Sub{OpKind::kAccept}});
      accept_armed = true;
    }
    while (dgram_armed < 2) {
      batch.push_back(
          {ring_sqe<SysNr::kUdpRecvFrom>(next_ud++, dsock.value()), Sub{OpKind::kDgram}});
      ++dgram_armed;
    }
    for (auto& [serial, st] : streams) {
      if (!st.armed && !st.closed && !st.closing) {
        arm_recv(batch, serial, st);
      }
    }
    if (auto bad = submit(batch)) {
      return VcOutcome::fail(*bad);
    }
    sk.vtp().tick();
    ck.vtp().tick();
    if (auto bad = reap()) {
      return VcOutcome::fail(*bad);
    }
  }

  // Quiesce: a clean fabric, no faults, every fd closed. Closing the
  // listener first stops accepts from recycling fd numbers under the
  // streams' still-outstanding recvs.
  freg.disarm("syscall/ring_complete");
  net.heal_all();
  net.set_config(FabricConfig{});
  net.release_held();
  for (const ClientStream& c : cstreams) {
    (void)cs.vtp_close(c.fd);
  }
  if (!ss.vtp_close(listener.value()).ok()) {
    return VcOutcome::fail("listener close failed");
  }
  listener_open = false;
  std::vector<u64> live;
  for (const auto& [serial, st] : streams) {
    if (!st.closed && !st.closing) {
      live.push_back(serial);
    }
  }
  for (u64 serial : live) {
    streams.at(serial).closed = true;
    if (!ss.vtp_close(streams.at(serial).fd).ok()) {
      return VcOutcome::fail("server close failed at quiesce");
    }
  }
  if (!ss.close(dsock.value()).ok()) {
    return VcOutcome::fail("datagram socket close failed");
  }
  dsock_open = false;
  for (int i = 0; i < 8 && !outstanding.empty(); ++i) {
    sk.vtp().tick();
    ck.vtp().tick();
    if (auto bad = reap()) {
      return VcOutcome::fail(*bad);
    }
  }
  if (!outstanding.empty()) {
    return VcOutcome::fail(std::to_string(outstanding.size()) + " SQEs never completed");
  }
  if (sk.rings().in_flight(pid, ring.value()) != 0) {
    return VcOutcome::fail("ring still holds SQEs after every completion was reaped");
  }
  if (parked_seen == 0 || bytes_in == 0 || cancels == 0 || accepts == 0 || failures == 0 ||
      dgrams == 0) {
    return VcOutcome::fail("schedule left a case unexercised: parked " +
                           std::to_string(parked_seen) + ", bytes " + std::to_string(bytes_in) +
                           ", cancels " + std::to_string(cancels) + ", accepts " +
                           std::to_string(accepts) + ", failures " + std::to_string(failures) +
                           ", datagrams " + std::to_string(dgrams));
  }
  return VcOutcome::pass();
}

VcOutcome vc_ring_readiness(u64 seed) {
  FaultRegistry& freg = FaultRegistry::global();
  freg.reseed(seed * 0x2545'F491'4F6C'DD1Dull + 7);
  FaultSpec slow;
  slow.probability_ppm = 150'000;
  freg.arm("syscall/ring_complete", slow);
  VcOutcome out = ring_readiness_schedule(seed, freg);
  freg.disarm("syscall/ring_complete");
  return out;
}

}  // namespace

void register_kernel_vcs(VcRegistry& reg) {
  for (u64 seed = 1; seed <= 3; ++seed) {
    reg.add("kernel/frame_alloc_set_semantics_seed" + std::to_string(seed),
            VcCategory::kMemoryManagement, [seed] { return vc_frame_alloc_set_semantics(seed); });
  }
  reg.add("kernel/frame_alloc_numa_locality", VcCategory::kMemoryManagement,
          [] { return vc_frame_alloc_numa_locality(); });
  reg.add("kernel/frame_alloc_exhaustion", VcCategory::kMemoryManagement,
          [] { return vc_frame_alloc_exhaustion(); });

  for (u64 seed = 1; seed <= 3; ++seed) {
    reg.add("kernel/vm_mmap_balance_seed" + std::to_string(seed),
            VcCategory::kMemoryManagement, [seed] { return vc_vm_mmap_balance(seed); });
    reg.add("kernel/vm_copy_roundtrip_seed" + std::to_string(seed),
            VcCategory::kMemoryManagement, [seed] { return vc_vm_copy_roundtrip(seed); });
  }
  reg.add("kernel/vm_write_protection", VcCategory::kMemorySafety,
          [] { return vc_vm_write_protection(); });
  reg.add("kernel/vm_process_isolation", VcCategory::kMemorySafety,
          [] { return vc_vm_process_isolation(); });

  for (u64 seed = 1; seed <= 2; ++seed) {
    reg.add("kernel/sched_exactly_one_state_seed" + std::to_string(seed),
            VcCategory::kScheduler, [seed] { return vc_sched_exactly_one_state(seed); });
    reg.add("kernel/sched_nr_replicas_agree_seed" + std::to_string(seed),
            VcCategory::kScheduler, [seed] { return vc_sched_nr_replicas_agree(seed); });
  }
  reg.add("kernel/sched_round_robin_fairness", VcCategory::kScheduler,
          [] { return vc_sched_round_robin_fairness(); });
  reg.add("kernel/sched_priority", VcCategory::kScheduler, [] { return vc_sched_priority(); });
  reg.add("kernel/sched_blocked_never_picked", VcCategory::kScheduler,
          [] { return vc_sched_blocked_never_picked(); });

  reg.add("kernel/proc_lifecycle", VcCategory::kProcessManagement,
          [] { return vc_proc_lifecycle(); });
  reg.add("kernel/proc_signals", VcCategory::kProcessManagement,
          [] { return vc_proc_signals(); });
  for (u64 seed = 1; seed <= 2; ++seed) {
    reg.add("kernel/proc_nr_replicas_agree_seed" + std::to_string(seed),
            VcCategory::kProcessManagement, [seed] { return vc_proc_nr_replicas_agree(seed); });
  }

  for (u64 seed = 1; seed <= 4; ++seed) {
    reg.add("kernel/fs_model_equivalence_seed" + std::to_string(seed),
            VcCategory::kFilesystem, [seed] { return vc_fs_model_equivalence(seed, 400); });
  }
  for (u64 seed = 1; seed <= 2; ++seed) {
    reg.add("kernel/fs_persistence_clean_seed" + std::to_string(seed), VcCategory::kFilesystem,
            [seed] { return vc_fs_persistence_clean(seed); });
  }
  for (u64 seed = 1; seed <= 4; ++seed) {
    reg.add("kernel/fs_crash_consistency_seed" + std::to_string(seed),
            VcCategory::kFilesystem, [seed] { return vc_fs_crash_consistency(seed); });
    reg.add("kernel/fs_crash_torn_seed" + std::to_string(seed), VcCategory::kFilesystem,
            [seed] { return vc_fs_crash_torn(seed); });
  }
  reg.add("kernel/fs_checkpoint_compaction", VcCategory::kFilesystem,
          [] { return vc_fs_checkpoint_compaction(); });
  reg.add("kernel/fs_rename_replace", VcCategory::kFilesystem,
          [] { return vc_fs_rename_replace(); });

  for (u64 seed = 1; seed <= 2; ++seed) {
    reg.add("kernel/sys_read_contract_seed" + std::to_string(seed), VcCategory::kRefinement,
            [seed] { return vc_sys_read_contract(seed); });
    reg.add("kernel/sys_marshalling_rejects_garbage_seed" + std::to_string(seed),
            VcCategory::kMemorySafety,
            [seed] { return vc_sys_marshalling_rejects_garbage(seed); });
  }
  reg.add("kernel/sys_fd_isolation", VcCategory::kProcessManagement,
          [] { return vc_sys_fd_isolation(); });
  reg.add("kernel/sys_user_copy_roundtrip", VcCategory::kRefinement,
          [] { return vc_sys_user_copy_roundtrip(); });
  reg.add("kernel/sys_readdir_sorted", VcCategory::kFilesystem,
          [] { return vc_sys_readdir_sorted(); });
  reg.add("kernel/sys_fd_reuse_safe", VcCategory::kProcessManagement,
          [] { return vc_sys_fd_reuse_safe(); });
  reg.add("kernel/sys_open_flag_matrix", VcCategory::kFilesystem,
          [] { return vc_sys_open_flag_matrix(); });
  reg.add("obs/kstat_refinement", VcCategory::kRefinement,
          [] { return vc_obs_kstat_refinement(); });

  reg.add("kernel/futex_value_check", VcCategory::kThreadsSync,
          [] { return vc_futex_value_check(); });
  for (u64 seed = 1; seed <= 2; ++seed) {
    reg.add("kernel/futex_no_lost_wakeup_seed" + std::to_string(seed),
            VcCategory::kThreadsSync, [seed] { return vc_futex_no_lost_wakeup(seed); });
  }
  reg.add("kernel/simfutex_scheduler_integration", VcCategory::kThreadsSync,
          [] { return vc_simfutex_scheduler_integration(); });

  for (u64 seed = 1; seed <= 3; ++seed) {
    reg.add("kernel/pipe_stream_identity_seed" + std::to_string(seed),
            VcCategory::kProcessManagement, [seed] { return vc_pipe_stream_identity(seed); });
  }
  reg.add("kernel/pipe_close_semantics", VcCategory::kProcessManagement,
          [] { return vc_pipe_close_semantics(); });
  reg.add("kernel/pipe_via_syscalls", VcCategory::kRefinement,
          [] { return vc_pipe_via_syscalls(); });

  for (u64 seed = 1; seed <= 3; ++seed) {
    reg.add("kernel/vm_demand_paging_seed" + std::to_string(seed),
            VcCategory::kMemoryManagement, [seed] { return vc_vm_demand_paging(seed); });
  }
  reg.add("kernel/vm_lazy_write_protection", VcCategory::kMemorySafety,
          [] { return vc_vm_lazy_write_protection(); });

  for (u64 seed = 1; seed <= 3; ++seed) {
    reg.add("kernel/nrfs_matches_memfs_seed" + std::to_string(seed), VcCategory::kFilesystem,
            [seed] { return vc_nrfs_matches_memfs(seed); });
  }
  for (u64 seed = 1; seed <= 2; ++seed) {
    reg.add("kernel/nrfs_concurrent_convergence_seed" + std::to_string(seed),
            VcCategory::kConcurrency, [seed] { return vc_nrfs_concurrent_convergence(seed); });
  }

  for (u64 seed = 1; seed <= 3; ++seed) {
    reg.add("kernel/fs_io_error_rollback_seed" + std::to_string(seed), VcCategory::kFilesystem,
            [seed] { return vc_fs_io_error_rollback(seed); });
  }
  for (u64 seed = 1; seed <= 2; ++seed) {
    reg.add("kernel/fs_recovery_error_propagates_seed" + std::to_string(seed),
            VcCategory::kFilesystem, [seed] { return vc_fs_recovery_error_propagates(seed); });
  }
  reg.add("kernel/frame_alloc_injected_oom", VcCategory::kMemoryManagement,
          [] { return vc_frame_alloc_injected_oom(); });
  reg.add("kernel/sys_fault_injection", VcCategory::kRefinement,
          [] { return vc_sys_fault_injection(); });

  for (u64 seed = 1; seed <= 3; ++seed) {
    reg.add("kernel/ring_refines_sync_seed" + std::to_string(seed), VcCategory::kRefinement,
            [seed] { return vc_ring_refines_sync(seed); });
    reg.add("kernel/ring_completion_unique_seed" + std::to_string(seed),
            VcCategory::kRefinement, [seed] { return vc_ring_completion_unique(seed); });
    reg.add("kernel/ring_readiness_seed" + std::to_string(seed), VcCategory::kRefinement,
            [seed] { return vc_ring_readiness(seed); });
  }
}

}  // namespace vnros
