#include "src/kernel/syscall.h"

#include <algorithm>

#include "src/base/contracts.h"

namespace vnros {
namespace {

// Ephemeral UDP ports are allocated from here per kernel instance.
constexpr Port kEphemeralBase = 49152;

// Upper bound on a single I/O request. A frame asking for more is malformed
// (prevents a hostile length field from driving giant kernel allocations).
constexpr u64 kMaxIoBytes = u64{16} << 20;

// Syscalls eligible for "syscall/io_error" injection: the filesystem ops
// whose contract already includes a device-failure branch.
bool io_error_eligible(SysNr nr) {
  switch (nr) {
    case SysNr::kOpen:
    case SysNr::kRead:
    case SysNr::kWrite:
    case SysNr::kFstat:
    case SysNr::kMkdir:
    case SysNr::kUnlink:
    case SysNr::kRmdir:
    case SysNr::kReaddir:
    case SysNr::kRename:
    case SysNr::kTruncate:
    case SysNr::kFsync:
    case SysNr::kReadUser:
    case SysNr::kWriteUser:
      return true;
    default:
      return false;
  }
}

// Syscalls eligible for "syscall/no_memory" injection: the ones whose
// contract already has a kNoMemory branch (frame exhaustion).
bool no_memory_eligible(SysNr nr) {
  return nr == SysNr::kMmap || nr == SysNr::kSpawn;
}

void put_fd(Writer& w, Fd fd) { w.put_u32(static_cast<u32>(fd)); }

std::optional<Fd> get_fd(Reader& r) {
  auto v = r.get_u32();
  if (!v) {
    return std::nullopt;
  }
  return static_cast<Fd>(*v);
}

}  // namespace

// --- Dispatcher scaffolding ------------------------------------------------------

SyscallDispatcher::ProcState& SyscallDispatcher::proc_state(Pid pid) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = procs_.find(pid);
  if (it == procs_.end()) {
    it = procs_.emplace(pid, std::make_unique<ProcState>()).first;
  }
  return *it->second;
}

void SyscallDispatcher::destroy_process_state(Pid pid) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    procs_.erase(pid);
  }
  kernel_.rings().destroy_rings(pid);
}

Fd SyscallDispatcher::alloc_fd(ProcState& ps) {
  if (!ps.free_fds.empty()) {
    Fd fd = ps.free_fds.back();
    ps.free_fds.pop_back();
    return fd;
  }
  return ps.next_fd++;
}

void SyscallDispatcher::release_fd(ProcState& ps, Fd fd) { ps.free_fds.push_back(fd); }

ThreadToken SyscallDispatcher::proc_token(CoreId core) {
  std::lock_guard<std::mutex> lock(token_mu_);
  auto it = proc_tokens_.find(core);
  if (it == proc_tokens_.end()) {
    it = proc_tokens_.emplace(core, kernel_.procs().register_core(core)).first;
  }
  return it->second;
}

ThreadToken SyscallDispatcher::sched_token(CoreId core) {
  std::lock_guard<std::mutex> lock(token_mu_);
  auto it = sched_tokens_.find(core);
  if (it == sched_tokens_.end()) {
    it = sched_tokens_.emplace(core, kernel_.sched().register_core(core)).first;
  }
  return it->second;
}

SysAbsState SyscallDispatcher::view(Pid pid) const {
  SysAbsState state;
  state.fs = kernel_.fs().view();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = procs_.find(pid);
  if (it != procs_.end()) {
    state.fds = it->second->fds;
  }
  return state;
}

std::vector<u8> SyscallDispatcher::handle(Pid pid, CoreId core, std::span<const u8> frame) {
  Reader args(frame);
  Writer reply;
  auto nr = args.get_u32();
  ErrorCode err = ErrorCode::kInvalidArgument;
  Writer payload;
  if (nr) {
    err = exec_syscall(pid, core, *nr, args, payload);
  }
  reply.put_u32(static_cast<u32>(err));
  reply.put_raw(payload.bytes());
  return reply.take();
}

// The shared transition function: the synchronous path calls it once per
// frame; the ring reactor calls it once per execution attempt of a pending
// SQE. Fault eligibility gates sit here so both paths see the same injected
// error distribution per executed op.
ErrorCode SyscallDispatcher::exec_syscall(Pid pid, CoreId core, u32 raw_nr, Reader& args,
                                          Writer& payload, RingExecNote* note) {
  const SysNr nr = static_cast<SysNr>(raw_nr);
  if (io_error_eligible(nr)) {
    if (auto injected = io_fault_site_->fire()) {
      return *injected;
    }
  }
  if (no_memory_eligible(nr)) {
    if (auto injected = mem_fault_site_->fire()) {
      return *injected;
    }
  }
  ErrorCode err = ErrorCode::kInvalidArgument;
  {
    switch (nr) {
      case SysNr::kGetPid:
        payload.put_u64(pid);
        err = ErrorCode::kOk;
        break;
      case SysNr::kOpen: err = do_open(pid, args, payload); break;
      case SysNr::kClose: err = close_fd(pid, core, args, /*vtp_only=*/false, note); break;
      case SysNr::kRead: err = do_read(pid, args, payload); break;
      case SysNr::kWrite: err = do_write(pid, args, payload); break;
      case SysNr::kLseek: err = do_lseek(pid, args, payload); break;
      case SysNr::kFstat: err = do_fstat(pid, args, payload); break;
      case SysNr::kMkdir: {
        auto path = args.get_string();
        err = path && args.exhausted() ? kernel_.fs().mkdir(*path).error()
                                       : ErrorCode::kInvalidArgument;
        break;
      }
      case SysNr::kUnlink: {
        auto path = args.get_string();
        err = path && args.exhausted() ? kernel_.fs().unlink(*path).error()
                                       : ErrorCode::kInvalidArgument;
        break;
      }
      case SysNr::kRmdir: {
        auto path = args.get_string();
        err = path && args.exhausted() ? kernel_.fs().rmdir(*path).error()
                                       : ErrorCode::kInvalidArgument;
        break;
      }
      case SysNr::kReaddir: err = do_readdir(pid, args, payload); break;
      case SysNr::kRename: {
        auto from = args.get_string();
        auto to = args.get_string();
        err = from && to && args.exhausted() ? kernel_.fs().rename(*from, *to).error()
                                             : ErrorCode::kInvalidArgument;
        break;
      }
      case SysNr::kTruncate: {
        auto path = args.get_string();
        auto size = args.get_u64();
        err = path && size && args.exhausted() ? kernel_.fs().truncate(*path, *size).error()
                                               : ErrorCode::kInvalidArgument;
        break;
      }
      case SysNr::kFsync:
        err = kernel_.fs().fsync().error();
        break;
      case SysNr::kPipeCreate: err = do_pipe_create(pid, args, payload); break;
      case SysNr::kReadUser: err = do_read_user(pid, args, payload); break;
      case SysNr::kWriteUser: err = do_write_user(pid, args, payload); break;
      case SysNr::kMmap: err = do_mmap(pid, args, payload); break;
      case SysNr::kMunmap: err = do_munmap(pid, args, payload); break;
      case SysNr::kSpawn: err = do_spawn(pid, core, args, payload); break;
      case SysNr::kWaitPid: err = do_waitpid(pid, core, args, payload); break;
      case SysNr::kExit: err = do_exit(pid, core, args, payload); break;
      case SysNr::kKill: err = do_kill(pid, core, args, payload); break;
      case SysNr::kTakeSignal: err = do_take_signal(pid, core, args, payload); break;
      case SysNr::kFutexWait: err = do_futex_wait(pid, core, args, payload); break;
      case SysNr::kFutexWake: err = do_futex_wake(pid, core, args, payload); break;
      case SysNr::kUdpSocket: err = do_udp_socket(pid, args, payload); break;
      case SysNr::kUdpBind: err = do_udp_bind(pid, args, payload); break;
      case SysNr::kUdpSendTo: err = do_udp_sendto(pid, args, payload); break;
      case SysNr::kUdpRecvFrom: err = do_udp_recvfrom(pid, args, payload, note); break;
      case SysNr::kVtpListen: err = do_vtp_listen(pid, args, payload); break;
      case SysNr::kVtpAccept: err = do_vtp_accept(pid, args, payload, note); break;
      case SysNr::kVtpConnect: err = do_vtp_connect(pid, args, payload); break;
      case SysNr::kVtpSend: err = do_vtp_send(pid, args, payload, note); break;
      case SysNr::kVtpRecv: err = do_vtp_recv(pid, args, payload, note); break;
      case SysNr::kVtpClose: err = close_fd(pid, core, args, /*vtp_only=*/true, note); break;
      case SysNr::kConsoleWrite: err = do_console_write(pid, args, payload); break;
      case SysNr::kKstat: err = do_kstat(pid, args, payload); break;
      case SysNr::kKstatList: err = do_kstat_list(pid, args, payload); break;
      case SysNr::kRingSetup: err = do_ring_setup(pid, args, payload); break;
      case SysNr::kRingSubmit: err = do_ring_submit(pid, core, args, payload); break;
      case SysNr::kRingWait: err = do_ring_wait(pid, core, args, payload); break;
      default:
        err = ErrorCode::kUnsupported;
        break;
    }
  }
  return err;
}

// --- File handlers ------------------------------------------------------------------

ErrorCode SyscallDispatcher::do_open(Pid pid, Reader& args, Writer& reply) {
  auto path = args.get_string();
  auto flags = args.get_u32();
  if (!path || !flags || !args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  MemFs& fs = kernel_.fs();
  auto st = fs.stat(*path);
  if (!st.ok()) {
    if (st.error() != ErrorCode::kNotFound || (*flags & kOpenCreate) == 0) {
      return st.error();
    }
    auto created = fs.create(*path);
    if (!created.ok()) {
      return created.error();
    }
    st = fs.stat(*path);
    if (!st.ok()) {
      return st.error();
    }
  }
  if (st.value().is_dir) {
    return ErrorCode::kIsDirectory;
  }
  if ((*flags & kOpenTrunc) != 0) {
    auto tr = fs.truncate(*path, 0);
    if (!tr.ok()) {
      return tr.error();
    }
  }
  ProcState& ps = proc_state(pid);
  std::lock_guard<std::mutex> lock(mu_);
  Fd fd = alloc_fd(ps);
  OpenFile of;
  of.kind = OpenFile::Kind::kFile;
  of.path = *path;
  of.offset = (*flags & kOpenAppend) != 0 && (*flags & kOpenTrunc) == 0 ? st.value().size : 0;
  ps.fds[fd] = of;
  put_fd(reply, fd);
  return ErrorCode::kOk;
}

ErrorCode SyscallDispatcher::close_fd(Pid pid, CoreId core, Reader& args, bool vtp_only,
                                      RingExecNote* note) {
  auto fd = get_fd(args);
  if (!fd || !args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  ProcState& ps = proc_state(pid);
  // The events ring ops can park on through this fd.
  std::vector<WaitKey> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ps.fds.find(*fd);
    if (it == ps.fds.end() || (vtp_only && it->second.kind != OpenFile::Kind::kVtp)) {
      return ErrorCode::kBadFd;
    }
    const OpenFile& of = it->second;
    if (of.kind == OpenFile::Kind::kUdp && of.port != 0) {
      (void)kernel_.udp().unbind(of.port);
      events.push_back({WaitKey::Kind::kUdpRecv, of.port});
    }
    if (of.kind == OpenFile::Kind::kPipeRead) {
      kernel_.pipes().close_reader(of.pipe);
    }
    if (of.kind == OpenFile::Kind::kPipeWrite) {
      kernel_.pipes().close_writer(of.pipe);
    }
    if (of.kind == OpenFile::Kind::kVtp) {
      if (of.listener) {
        (void)kernel_.vtp().unlisten(of.port);
        events.push_back({WaitKey::Kind::kVtpAccept, of.port});
      } else {
        (void)kernel_.vtp().close(of.conn);
        events.push_back({WaitKey::Kind::kVtpRecv, of.conn});
        events.push_back({WaitKey::Kind::kVtpSend, of.conn});
      }
    }
    ps.fds.erase(it);
    if (events.empty()) {
      release_fd(ps, *fd);  // nothing can park on a file or pipe fd
      return ErrorCode::kOk;
    }
  }
  // Ops parked on the socket complete with kBadFd — the synchronous reply on
  // the now-closed fd — before the number can be reused, so a parked recv
  // never reads the stream that inherits it. The ring lock orders before
  // mu_, so this runs outside it. A close the reactor itself executes hands
  // the events back instead: the reactor holds the ring lock and cancels
  // before it runs another op.
  if (note != nullptr) {
    note->closed = std::move(events);
  } else {
    kernel_.rings().cancel(pid, events, sched_token(core));
  }
  std::lock_guard<std::mutex> lock(mu_);
  release_fd(ps, *fd);
  return ErrorCode::kOk;
}

ErrorCode SyscallDispatcher::do_read(Pid pid, Reader& args, Writer& reply) {
  auto fd = get_fd(args);
  auto len = args.get_u64();
  if (!fd || !len || *len > kMaxIoBytes || !args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  ProcState& ps = proc_state(pid);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ps.fds.find(*fd);
  if (it == ps.fds.end()) {
    return ErrorCode::kBadFd;
  }
  if (it->second.kind == OpenFile::Kind::kPipeRead) {
    std::vector<u8> buf(*len);
    auto r = kernel_.pipes().read(it->second.pipe, buf);
    if (!r.ok()) {
      return r.error();
    }
    buf.resize(r.value());
    reply.put_bytes(buf);
    return ErrorCode::kOk;
  }
  if (it->second.kind != OpenFile::Kind::kFile) {
    return ErrorCode::kBadFd;
  }
  OpenFile& of = it->second;
  auto st = kernel_.fs().stat(of.path);
  if (!st.ok()) {
    return st.error();  // file unlinked while open: surfaced, not UB
  }
  const u64 pre_offset = of.offset;
  const u64 file_size = st.value().size;

  std::vector<u8> buf(*len);
  auto r = kernel_.fs().read(of.path, pre_offset, buf);
  if (!r.ok()) {
    return r.error();
  }
  u64 n = r.value();
  of.offset = pre_offset + n;

  // The paper's read_spec, executably:
  //   read_len == min(buffer.len(), pre.files[fd].size - pre.files[fd].offset)
  //   && post.files[fd].offset == pre.files[fd].offset + read_len
  VNROS_ENSURES(n == std::min<u64>(*len, file_size > pre_offset ? file_size - pre_offset : 0));
  VNROS_ENSURES(of.offset == pre_offset + n);

  buf.resize(n);
  reply.put_bytes(buf);
  return ErrorCode::kOk;
}

ErrorCode SyscallDispatcher::do_write(Pid pid, Reader& args, Writer& reply) {
  auto fd = get_fd(args);
  auto data = args.get_bytes();
  if (!fd || !data || !args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  ProcState& ps = proc_state(pid);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ps.fds.find(*fd);
  if (it == ps.fds.end()) {
    return ErrorCode::kBadFd;
  }
  if (it->second.kind == OpenFile::Kind::kPipeWrite) {
    auto r = kernel_.pipes().write(it->second.pipe, *data);
    if (!r.ok()) {
      return r.error();
    }
    reply.put_u64(r.value());
    return ErrorCode::kOk;
  }
  if (it->second.kind != OpenFile::Kind::kFile) {
    return ErrorCode::kBadFd;
  }
  OpenFile& of = it->second;
  auto r = kernel_.fs().write(of.path, of.offset, *data);
  if (!r.ok()) {
    return r.error();
  }
  of.offset += r.value();
  reply.put_u64(r.value());
  return ErrorCode::kOk;
}

ErrorCode SyscallDispatcher::do_lseek(Pid pid, Reader& args, Writer& reply) {
  auto fd = get_fd(args);
  auto delta = args.get_i64();
  auto whence = args.get_u32();
  if (!fd || !delta || !whence || *whence > 2 || !args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  ProcState& ps = proc_state(pid);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ps.fds.find(*fd);
  if (it == ps.fds.end() || it->second.kind != OpenFile::Kind::kFile) {
    return ErrorCode::kBadFd;
  }
  OpenFile& of = it->second;
  i64 base = 0;
  switch (static_cast<SeekWhence>(*whence)) {
    case SeekWhence::kSet: base = 0; break;
    case SeekWhence::kCur: base = static_cast<i64>(of.offset); break;
    case SeekWhence::kEnd: {
      auto st = kernel_.fs().stat(of.path);
      if (!st.ok()) {
        return st.error();
      }
      base = static_cast<i64>(st.value().size);
      break;
    }
  }
  i64 target = base + *delta;
  if (target < 0) {
    return ErrorCode::kInvalidArgument;
  }
  of.offset = static_cast<u64>(target);
  reply.put_u64(of.offset);
  return ErrorCode::kOk;
}

ErrorCode SyscallDispatcher::do_fstat(Pid pid, Reader& args, Writer& reply) {
  auto fd = get_fd(args);
  if (!fd || !args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  ProcState& ps = proc_state(pid);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ps.fds.find(*fd);
  if (it == ps.fds.end() || it->second.kind != OpenFile::Kind::kFile) {
    return ErrorCode::kBadFd;
  }
  auto st = kernel_.fs().stat(it->second.path);
  if (!st.ok()) {
    return st.error();
  }
  reply.put_u64(st.value().inode);
  reply.put_u64(st.value().size);
  reply.put_bool(st.value().is_dir);
  return ErrorCode::kOk;
}

ErrorCode SyscallDispatcher::do_readdir(Pid, Reader& args, Writer& reply) {
  auto path = args.get_string();
  if (!path || !args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  auto names = kernel_.fs().readdir(*path);
  if (!names.ok()) {
    return names.error();
  }
  reply.put_u32(static_cast<u32>(names.value().size()));
  for (const auto& n : names.value()) {
    reply.put_string(n);
  }
  return ErrorCode::kOk;
}

ErrorCode SyscallDispatcher::do_pipe_create(Pid pid, Reader& args, Writer& reply) {
  if (!args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  PipeId id = kernel_.pipes().create();
  ProcState& ps = proc_state(pid);
  std::lock_guard<std::mutex> lock(mu_);
  Fd rfd = alloc_fd(ps);
  Fd wfd = alloc_fd(ps);
  OpenFile rend;
  rend.kind = OpenFile::Kind::kPipeRead;
  rend.pipe = id;
  OpenFile wend;
  wend.kind = OpenFile::Kind::kPipeWrite;
  wend.pipe = id;
  ps.fds[rfd] = rend;
  ps.fds[wfd] = wend;
  put_fd(reply, rfd);
  put_fd(reply, wfd);
  return ErrorCode::kOk;
}

ErrorCode SyscallDispatcher::do_read_user(Pid pid, Reader& args, Writer& reply) {
  auto fd = get_fd(args);
  auto uaddr = args.get_u64();
  auto len = args.get_u64();
  if (!fd || !uaddr || !len || *len > kMaxIoBytes || !args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  Process* proc = kernel_.procs().get(pid);
  if (proc == nullptr) {
    return ErrorCode::kNotFound;
  }
  ProcState& ps = proc_state(pid);
  // Data-race-freedom obligation: the buffer (process memory) is borrowed
  // exclusively for the duration of the handler.
  ExclusiveBorrow borrow(ps.borrow);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ps.fds.find(*fd);
  if (it == ps.fds.end() || it->second.kind != OpenFile::Kind::kFile) {
    return ErrorCode::kBadFd;
  }
  OpenFile& of = it->second;
  std::vector<u8> buf(*len);
  auto r = kernel_.fs().read(of.path, of.offset, buf);
  if (!r.ok()) {
    return r.error();
  }
  buf.resize(r.value());
  // Mapping obligation: the bytes land in user memory through the verified
  // page table.
  auto copied = proc->vm().copy_out(VAddr{*uaddr}, buf);
  if (!copied.ok()) {
    return copied.error();
  }
  of.offset += r.value();
  reply.put_u64(r.value());
  return ErrorCode::kOk;
}

ErrorCode SyscallDispatcher::do_write_user(Pid pid, Reader& args, Writer& reply) {
  auto fd = get_fd(args);
  auto uaddr = args.get_u64();
  auto len = args.get_u64();
  if (!fd || !uaddr || !len || *len > kMaxIoBytes || !args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  Process* proc = kernel_.procs().get(pid);
  if (proc == nullptr) {
    return ErrorCode::kNotFound;
  }
  ProcState& ps = proc_state(pid);
  ExclusiveBorrow borrow(ps.borrow);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ps.fds.find(*fd);
  if (it == ps.fds.end() || it->second.kind != OpenFile::Kind::kFile) {
    return ErrorCode::kBadFd;
  }
  OpenFile& of = it->second;
  std::vector<u8> buf(*len);
  auto copied = proc->vm().copy_in(VAddr{*uaddr}, buf);
  if (!copied.ok()) {
    return copied.error();
  }
  auto r = kernel_.fs().write(of.path, of.offset, buf);
  if (!r.ok()) {
    return r.error();
  }
  of.offset += r.value();
  reply.put_u64(r.value());
  return ErrorCode::kOk;
}

// --- Memory handlers -------------------------------------------------------------

ErrorCode SyscallDispatcher::do_mmap(Pid pid, Reader& args, Writer& reply) {
  auto length = args.get_u64();
  auto writable = args.get_bool();
  if (!length || !writable || *length > kMaxIoBytes) {
    return ErrorCode::kInvalidArgument;
  }
  // Optional trailing field (newer frames): demand-page the region instead of
  // backing it eagerly. Two-field frames from older callers stay valid.
  bool lazy = false;
  if (!args.exhausted()) {
    auto l = args.get_bool();
    if (!l || !args.exhausted()) {
      return ErrorCode::kInvalidArgument;
    }
    lazy = *l;
  }
  Process* proc = kernel_.procs().get(pid);
  if (proc == nullptr) {
    return ErrorCode::kNotFound;
  }
  Perms perms{*writable, true, false};
  auto r = lazy ? proc->vm().mmap_lazy(*length, perms) : proc->vm().mmap(*length, perms);
  if (!r.ok()) {
    return r.error();
  }
  reply.put_u64(r.value().value);
  return ErrorCode::kOk;
}

ErrorCode SyscallDispatcher::do_munmap(Pid pid, Reader& args, Writer&) {
  auto base = args.get_u64();
  if (!base || !args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  Process* proc = kernel_.procs().get(pid);
  if (proc == nullptr) {
    return ErrorCode::kNotFound;
  }
  return proc->vm().munmap(VAddr{*base}).error();
}

// --- Process handlers ---------------------------------------------------------------

ErrorCode SyscallDispatcher::do_spawn(Pid pid, CoreId core, Reader& args, Writer& reply) {
  if (!args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  auto r = kernel_.procs().spawn(proc_token(core), pid);
  if (!r.ok()) {
    return r.error();
  }
  reply.put_u64(r.value());
  return ErrorCode::kOk;
}

ErrorCode SyscallDispatcher::do_waitpid(Pid pid, CoreId core, Reader& args, Writer& reply) {
  auto child = args.get_u64();
  if (!child || !args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  auto r = kernel_.procs().wait(proc_token(core), pid, *child);
  if (!r.ok()) {
    return r.error();
  }
  reply.put_i64(r.value());
  return ErrorCode::kOk;
}

ErrorCode SyscallDispatcher::do_exit(Pid pid, CoreId core, Reader& args, Writer&) {
  auto code = args.get_i64();
  if (!code || !args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  auto r = kernel_.procs().exit(proc_token(core), pid, static_cast<i32>(*code));
  if (!r.ok()) {
    return r.error();
  }
  destroy_process_state(pid);
  return ErrorCode::kOk;
}

ErrorCode SyscallDispatcher::do_kill(Pid pid, CoreId core, Reader& args, Writer&) {
  auto target = args.get_u64();
  auto signal = args.get_u32();
  if (!target || !signal || !args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  (void)pid;  // permission model: any process may signal any other (no uids)
  auto r = kernel_.procs().kill(proc_token(core), *target, *signal);
  if (!r.ok()) {
    return r.error();
  }
  if (*signal == kSigKill) {
    destroy_process_state(*target);
  }
  return ErrorCode::kOk;
}

ErrorCode SyscallDispatcher::do_take_signal(Pid pid, CoreId core, Reader& args, Writer& reply) {
  if (!args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  auto r = kernel_.procs().take_signal(proc_token(core), pid);
  if (!r.ok()) {
    return r.error();
  }
  reply.put_u32(r.value());
  return ErrorCode::kOk;
}

// --- Futex handlers ---------------------------------------------------------------

ErrorCode SyscallDispatcher::do_futex_wait(Pid pid, CoreId core, Reader& args, Writer&) {
  auto uaddr = args.get_u64();
  auto expected = args.get_u32();
  auto tid = args.get_u64();
  if (!uaddr || !expected || !tid || !args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  Process* proc = kernel_.procs().get(pid);
  if (proc == nullptr) {
    return ErrorCode::kNotFound;
  }
  auto current = proc->vm().read_u32(VAddr{*uaddr});
  if (!current.ok()) {
    return current.error();
  }
  return kernel_.simfutex().wait(sched_token(core), pid, VAddr{*uaddr}, current.value(),
                                 *expected, *tid);
}

ErrorCode SyscallDispatcher::do_futex_wake(Pid pid, CoreId core, Reader& args, Writer& reply) {
  auto uaddr = args.get_u64();
  auto count = args.get_u64();
  if (!uaddr || !count || !args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  usize woken = kernel_.simfutex().wake(sched_token(core), pid, VAddr{*uaddr}, *count);
  reply.put_u64(woken);
  return ErrorCode::kOk;
}

// --- Network handlers ----------------------------------------------------------------

ErrorCode SyscallDispatcher::do_udp_socket(Pid pid, Reader& args, Writer& reply) {
  if (!args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  ProcState& ps = proc_state(pid);
  std::lock_guard<std::mutex> lock(mu_);
  Fd fd = alloc_fd(ps);
  OpenFile of;
  of.kind = OpenFile::Kind::kUdp;
  ps.fds[fd] = of;
  put_fd(reply, fd);
  return ErrorCode::kOk;
}

ErrorCode SyscallDispatcher::do_udp_bind(Pid pid, Reader& args, Writer&) {
  auto fd = get_fd(args);
  auto port = args.get_u16();
  if (!fd || !port || !args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  ProcState& ps = proc_state(pid);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ps.fds.find(*fd);
  if (it == ps.fds.end() || it->second.kind != OpenFile::Kind::kUdp) {
    return ErrorCode::kBadFd;
  }
  if (it->second.port != 0) {
    return ErrorCode::kAlreadyExists;
  }
  auto r = kernel_.udp().bind(*port);
  if (!r.ok()) {
    return r.error();
  }
  it->second.port = *port;
  return ErrorCode::kOk;
}

ErrorCode SyscallDispatcher::do_udp_sendto(Pid pid, Reader& args, Writer&) {
  auto fd = get_fd(args);
  auto dst = args.get_u32();
  auto dport = args.get_u16();
  auto data = args.get_bytes();
  if (!fd || !dst || !dport || !data || !args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  ProcState& ps = proc_state(pid);
  Port src_port;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ps.fds.find(*fd);
    if (it == ps.fds.end() || it->second.kind != OpenFile::Kind::kUdp) {
      return ErrorCode::kBadFd;
    }
    if (it->second.port == 0) {
      // Auto-bind an ephemeral port, as first use of an unbound socket.
      Port p = static_cast<Port>(kEphemeralBase + (next_ephemeral_++ % 16000));
      auto b = kernel_.udp().bind(p);
      if (!b.ok()) {
        return b.error();
      }
      it->second.port = p;
    }
    src_port = it->second.port;
  }
  return kernel_.udp().send(*dst, *dport, src_port, *data).error();
}

ErrorCode SyscallDispatcher::do_udp_recvfrom(Pid pid, Reader& args, Writer& reply,
                                             RingExecNote* note) {
  auto fd = get_fd(args);
  if (!fd || !args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  ProcState& ps = proc_state(pid);
  Port port;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ps.fds.find(*fd);
    if (it == ps.fds.end() || it->second.kind != OpenFile::Kind::kUdp) {
      return ErrorCode::kBadFd;
    }
    if (it->second.port == 0) {
      return ErrorCode::kNotConnected;
    }
    port = it->second.port;
  }
  auto r = kernel_.udp().recv(port);
  if (!r.ok()) {
    if (note != nullptr) {
      note->wait = WaitKey{WaitKey::Kind::kUdpRecv, port};
    }
    return r.error();
  }
  reply.put_u32(r.value().src_addr);
  reply.put_u16(r.value().src_port);
  reply.put_bytes(r.value().payload);
  return ErrorCode::kOk;
}

ErrorCode SyscallDispatcher::do_vtp_listen(Pid pid, Reader& args, Writer& reply) {
  auto port = args.get_u16();
  auto backlog = args.get_u64();
  if (!port || !backlog || !args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  auto r = kernel_.vtp().listen(*port, *backlog);
  if (!r.ok()) {
    return r.error();
  }
  ProcState& ps = proc_state(pid);
  std::lock_guard<std::mutex> lock(mu_);
  Fd fd = alloc_fd(ps);
  OpenFile of;
  of.kind = OpenFile::Kind::kVtp;
  of.listener = true;
  of.port = *port;
  ps.fds[fd] = of;
  put_fd(reply, fd);
  return ErrorCode::kOk;
}

ErrorCode SyscallDispatcher::do_vtp_connect(Pid pid, Reader& args, Writer& reply) {
  auto dst = args.get_u32();
  auto dport = args.get_u16();
  auto sport = args.get_u16();
  if (!dst || !dport || !sport || !args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  auto r = kernel_.vtp().connect(*dst, *dport, *sport);
  if (!r.ok()) {
    return r.error();
  }
  ProcState& ps = proc_state(pid);
  std::lock_guard<std::mutex> lock(mu_);
  Fd fd = alloc_fd(ps);
  OpenFile of;
  of.kind = OpenFile::Kind::kVtp;
  of.conn = r.value();
  ps.fds[fd] = of;
  put_fd(reply, fd);
  return ErrorCode::kOk;
}

ErrorCode SyscallDispatcher::do_vtp_accept(Pid pid, Reader& args, Writer& reply,
                                           RingExecNote* note) {
  auto fd = get_fd(args);
  if (!fd || !args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  ProcState& ps = proc_state(pid);
  Port port;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ps.fds.find(*fd);
    if (it == ps.fds.end() || it->second.kind != OpenFile::Kind::kVtp ||
        !it->second.listener) {
      return ErrorCode::kBadFd;
    }
    port = it->second.port;
  }
  auto r = kernel_.vtp().accept(port);
  if (!r.ok()) {
    if (note != nullptr) {
      note->wait = WaitKey{WaitKey::Kind::kVtpAccept, port};
    }
    return r.error();  // kWouldBlock while empty: transient, ring-parkable
  }
  std::lock_guard<std::mutex> lock(mu_);
  Fd nfd = alloc_fd(ps);
  OpenFile of;
  of.kind = OpenFile::Kind::kVtp;
  of.conn = r.value();
  ps.fds[nfd] = of;
  put_fd(reply, nfd);
  return ErrorCode::kOk;
}

ErrorCode SyscallDispatcher::do_vtp_send(Pid pid, Reader& args, Writer& reply,
                                         RingExecNote* note) {
  auto fd = get_fd(args);
  auto data = args.get_bytes();
  if (!fd || !data || !args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  ProcState& ps = proc_state(pid);
  ConnId conn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ps.fds.find(*fd);
    if (it == ps.fds.end() || it->second.kind != OpenFile::Kind::kVtp || it->second.listener) {
      return ErrorCode::kBadFd;
    }
    conn = it->second.conn;
  }
  auto r = kernel_.vtp().send(conn, *data);
  if (!r.ok()) {
    if (note != nullptr) {
      note->wait = WaitKey{WaitKey::Kind::kVtpSend, conn};
    }
    return r.error();  // kWouldBlock when the send buffer is full
  }
  reply.put_u64(r.value());  // stream semantics: bytes accepted, not all-or-nothing
  return ErrorCode::kOk;
}

ErrorCode SyscallDispatcher::do_vtp_recv(Pid pid, Reader& args, Writer& reply,
                                         RingExecNote* note) {
  auto fd = get_fd(args);
  auto max_len = args.get_u64();
  if (!fd || !max_len || *max_len > kMaxIoBytes || !args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  ProcState& ps = proc_state(pid);
  ConnId conn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ps.fds.find(*fd);
    if (it == ps.fds.end() || it->second.kind != OpenFile::Kind::kVtp || it->second.listener) {
      return ErrorCode::kBadFd;
    }
    conn = it->second.conn;
  }
  auto r = kernel_.vtp().recv(conn, *max_len);
  if (!r.ok()) {
    if (note != nullptr) {
      note->wait = WaitKey{WaitKey::Kind::kVtpRecv, conn};
    }
    return r.error();
  }
  reply.put_bytes(r.value());
  return ErrorCode::kOk;
}

ErrorCode SyscallDispatcher::do_console_write(Pid, Reader& args, Writer&) {
  auto text = args.get_string();
  if (!text || !args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  kernel_.console().write(*text);
  return ErrorCode::kOk;
}

ErrorCode SyscallDispatcher::do_kstat(Pid, Reader& args, Writer& reply) {
  auto name = args.get_string();
  if (!name || !args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  auto value = kernel_.kstat(*name);
  if (!value.ok()) {
    return value.error();
  }
  reply.put_u64(value.value());
  return ErrorCode::kOk;
}

ErrorCode SyscallDispatcher::do_kstat_list(Pid, Reader& args, Writer& reply) {
  if (!args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  auto names = kernel_.kstat_names();
  reply.put_u32(static_cast<u32>(names.size()));
  for (const auto& n : names) {
    reply.put_string(n);
  }
  return ErrorCode::kOk;
}

// --- Ring handlers ---------------------------------------------------------------------

ErrorCode SyscallDispatcher::do_ring_setup(Pid pid, Reader& args, Writer& reply) {
  auto sq_slots = args.get_u32();
  auto cq_slots = args.get_u32();
  if (!sq_slots || !cq_slots || !args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  auto r = kernel_.rings().setup(pid, *sq_slots, *cq_slots);
  if (!r.ok()) {
    return r.error();
  }
  reply.put_u32(r.value());
  return ErrorCode::kOk;
}

ErrorCode SyscallDispatcher::do_ring_submit(Pid pid, CoreId core, Reader& args, Writer& reply) {
  auto ring_id = args.get_u32();
  auto count = args.get_u32();
  if (!ring_id || !count || *count > SysRingTable::kMaxSlots) {
    return ErrorCode::kInvalidArgument;
  }
  std::vector<RingSqe> entries;
  entries.reserve(*count);
  for (u32 i = 0; i < *count; ++i) {
    auto user_data = args.get_u64();
    auto op = args.get_u32();
    auto op_args = args.get_bytes();
    if (!user_data || !op || !op_args) {
      return ErrorCode::kInvalidArgument;
    }
    entries.push_back(RingSqe{*user_data, *op, std::move(*op_args)});
  }
  if (!args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  auto exec = [this, pid, core](u32 op, Reader& a, Writer& p, RingExecNote& note) {
    return exec_syscall(pid, core, op, a, p, &note);
  };
  auto r = kernel_.rings().submit(pid, *ring_id, entries, exec, sched_token(core));
  if (!r.ok()) {
    return r.error();
  }
  reply.put_u32(r.value());
  return ErrorCode::kOk;
}

ErrorCode SyscallDispatcher::do_ring_wait(Pid pid, CoreId core, Reader& args, Writer& reply) {
  auto ring_id = args.get_u32();
  auto min_complete = args.get_u32();
  auto max_reap = args.get_u32();
  auto tid = args.get_u64();
  if (!ring_id || !min_complete || !max_reap || !tid || !args.exhausted()) {
    return ErrorCode::kInvalidArgument;
  }
  auto exec = [this, pid, core](u32 op, Reader& a, Writer& p, RingExecNote& note) {
    return exec_syscall(pid, core, op, a, p, &note);
  };
  auto r = kernel_.rings().wait(pid, *ring_id, *min_complete, *max_reap, *tid, exec,
                                sched_token(core));
  if (!r.ok()) {
    return r.error();
  }
  reply.put_u32(static_cast<u32>(r.value().size()));
  for (const RingCqe& cqe : r.value()) {
    reply.put_u64(cqe.user_data);
    reply.put_u32(cqe.err);
    reply.put_bytes(cqe.payload);
  }
  return ErrorCode::kOk;
}

// --- User-side facade ------------------------------------------------------------------

Result<std::vector<u8>> Sys::invoke(Writer& frame) {
  std::vector<u8> reply = dispatcher_.handle(pid_, core_, frame.bytes());
  Reader r(reply);
  auto err = r.get_u32();
  if (!err) {
    return ErrorCode::kCorrupted;  // kernel reply must at least carry an error word
  }
  if (static_cast<ErrorCode>(*err) != ErrorCode::kOk) {
    return static_cast<ErrorCode>(*err);
  }
  auto rest = r.get_raw(r.remaining());
  return rest ? Result<std::vector<u8>>(std::move(*rest)) : ErrorCode::kCorrupted;
}

Result<Fd> Sys::open(std::string_view path, u32 flags) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kOpen));
  w.put_string(path);
  w.put_u32(flags);
  auto reply = invoke(w);
  if (!reply.ok()) {
    return reply.error();
  }
  Reader r(reply.value());
  auto fd = r.get_u32();
  if (!fd) {
    return ErrorCode::kCorrupted;
  }
  return static_cast<Fd>(*fd);
}

Result<Unit> Sys::close(Fd fd) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kClose));
  put_fd(w, fd);
  auto reply = invoke(w);
  if (!reply.ok()) {
    return reply.error();
  }
  return Unit{};
}

Result<std::vector<u8>> Sys::read(Fd fd, usize len) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kRead));
  put_fd(w, fd);
  w.put_u64(len);
  auto reply = invoke(w);
  if (!reply.ok()) {
    return reply.error();
  }
  Reader r(reply.value());
  auto data = r.get_bytes();
  if (!data) {
    return ErrorCode::kCorrupted;
  }
  return std::move(*data);
}

Result<u64> Sys::write(Fd fd, std::span<const u8> data) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kWrite));
  put_fd(w, fd);
  w.put_bytes(data);
  auto reply = invoke(w);
  if (!reply.ok()) {
    return reply.error();
  }
  Reader r(reply.value());
  auto n = r.get_u64();
  if (!n) {
    return ErrorCode::kCorrupted;
  }
  return *n;
}

Result<u64> Sys::lseek(Fd fd, i64 delta, SeekWhence whence) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kLseek));
  put_fd(w, fd);
  w.put_i64(delta);
  w.put_u32(static_cast<u32>(whence));
  auto reply = invoke(w);
  if (!reply.ok()) {
    return reply.error();
  }
  Reader r(reply.value());
  auto off = r.get_u64();
  if (!off) {
    return ErrorCode::kCorrupted;
  }
  return *off;
}

Result<FileStat> Sys::fstat(Fd fd) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kFstat));
  put_fd(w, fd);
  auto reply = invoke(w);
  if (!reply.ok()) {
    return reply.error();
  }
  Reader r(reply.value());
  auto ino = r.get_u64();
  auto size = r.get_u64();
  auto is_dir = r.get_bool();
  if (!ino || !size || !is_dir) {
    return ErrorCode::kCorrupted;
  }
  return FileStat{*ino, *size, *is_dir};
}

Result<Unit> Sys::mkdir(std::string_view path) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kMkdir));
  w.put_string(path);
  auto reply = invoke(w);
  return reply.ok() ? Result<Unit>(Unit{}) : reply.error();
}

Result<Unit> Sys::unlink(std::string_view path) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kUnlink));
  w.put_string(path);
  auto reply = invoke(w);
  return reply.ok() ? Result<Unit>(Unit{}) : reply.error();
}

Result<Unit> Sys::rmdir(std::string_view path) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kRmdir));
  w.put_string(path);
  auto reply = invoke(w);
  return reply.ok() ? Result<Unit>(Unit{}) : reply.error();
}

Result<std::vector<std::string>> Sys::readdir(std::string_view path) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kReaddir));
  w.put_string(path);
  auto reply = invoke(w);
  if (!reply.ok()) {
    return reply.error();
  }
  Reader r(reply.value());
  auto count = r.get_u32();
  if (!count) {
    return ErrorCode::kCorrupted;
  }
  std::vector<std::string> names;
  names.reserve(*count);
  for (u32 i = 0; i < *count; ++i) {
    auto name = r.get_string();
    if (!name) {
      return ErrorCode::kCorrupted;
    }
    names.push_back(std::move(*name));
  }
  return names;
}

Result<Unit> Sys::rename(std::string_view from, std::string_view to) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kRename));
  w.put_string(from);
  w.put_string(to);
  auto reply = invoke(w);
  return reply.ok() ? Result<Unit>(Unit{}) : reply.error();
}

Result<Unit> Sys::truncate(std::string_view path, u64 size) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kTruncate));
  w.put_string(path);
  w.put_u64(size);
  auto reply = invoke(w);
  return reply.ok() ? Result<Unit>(Unit{}) : reply.error();
}

Result<Unit> Sys::fsync() {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kFsync));
  auto reply = invoke(w);
  return reply.ok() ? Result<Unit>(Unit{}) : reply.error();
}

Result<u64> Sys::read_user(Fd fd, VAddr buffer, usize len) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kReadUser));
  put_fd(w, fd);
  w.put_u64(buffer.value);
  w.put_u64(len);
  auto reply = invoke(w);
  if (!reply.ok()) {
    return reply.error();
  }
  Reader r(reply.value());
  auto n = r.get_u64();
  if (!n) {
    return ErrorCode::kCorrupted;
  }
  return *n;
}

Result<u64> Sys::write_user(Fd fd, VAddr buffer, usize len) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kWriteUser));
  put_fd(w, fd);
  w.put_u64(buffer.value);
  w.put_u64(len);
  auto reply = invoke(w);
  if (!reply.ok()) {
    return reply.error();
  }
  Reader r(reply.value());
  auto n = r.get_u64();
  if (!n) {
    return ErrorCode::kCorrupted;
  }
  return *n;
}

Result<std::pair<Fd, Fd>> Sys::pipe_create() {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kPipeCreate));
  auto reply = invoke(w);
  if (!reply.ok()) {
    return reply.error();
  }
  Reader r(reply.value());
  auto rfd = r.get_u32();
  auto wfd = r.get_u32();
  if (!rfd || !wfd) {
    return ErrorCode::kCorrupted;
  }
  return std::pair<Fd, Fd>{static_cast<Fd>(*rfd), static_cast<Fd>(*wfd)};
}

Result<VAddr> Sys::mmap(u64 length, bool writable, bool lazy) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kMmap));
  w.put_u64(length);
  w.put_bool(writable);
  if (lazy) {
    // Trailing optional field; omitted for eager maps so the frame matches
    // what older clients emit.
    w.put_bool(true);
  }
  auto reply = invoke(w);
  if (!reply.ok()) {
    return reply.error();
  }
  Reader r(reply.value());
  auto addr = r.get_u64();
  if (!addr) {
    return ErrorCode::kCorrupted;
  }
  return VAddr{*addr};
}

Result<Unit> Sys::munmap(VAddr base) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kMunmap));
  w.put_u64(base.value);
  auto reply = invoke(w);
  return reply.ok() ? Result<Unit>(Unit{}) : reply.error();
}

Result<Pid> Sys::spawn() {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kSpawn));
  auto reply = invoke(w);
  if (!reply.ok()) {
    return reply.error();
  }
  Reader r(reply.value());
  auto pid = r.get_u64();
  if (!pid) {
    return ErrorCode::kCorrupted;
  }
  return *pid;
}

Result<i32> Sys::waitpid(Pid child) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kWaitPid));
  w.put_u64(child);
  auto reply = invoke(w);
  if (!reply.ok()) {
    return reply.error();
  }
  Reader r(reply.value());
  auto code = r.get_i64();
  if (!code) {
    return ErrorCode::kCorrupted;
  }
  return static_cast<i32>(*code);
}

Result<Unit> Sys::exit_proc(i32 code) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kExit));
  w.put_i64(code);
  auto reply = invoke(w);
  return reply.ok() ? Result<Unit>(Unit{}) : reply.error();
}

Result<Unit> Sys::kill(Pid target, u32 signal) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kKill));
  w.put_u64(target);
  w.put_u32(signal);
  auto reply = invoke(w);
  return reply.ok() ? Result<Unit>(Unit{}) : reply.error();
}

Result<u32> Sys::take_signal() {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kTakeSignal));
  auto reply = invoke(w);
  if (!reply.ok()) {
    return reply.error();
  }
  Reader r(reply.value());
  auto sig = r.get_u32();
  if (!sig) {
    return ErrorCode::kCorrupted;
  }
  return *sig;
}

Result<Unit> Sys::futex_wait(VAddr uaddr, u32 expected, Tid tid) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kFutexWait));
  w.put_u64(uaddr.value);
  w.put_u32(expected);
  w.put_u64(tid);
  auto reply = invoke(w);
  return reply.ok() ? Result<Unit>(Unit{}) : reply.error();
}

Result<u64> Sys::futex_wake(VAddr uaddr, usize count) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kFutexWake));
  w.put_u64(uaddr.value);
  w.put_u64(count);
  auto reply = invoke(w);
  if (!reply.ok()) {
    return reply.error();
  }
  Reader r(reply.value());
  auto n = r.get_u64();
  if (!n) {
    return ErrorCode::kCorrupted;
  }
  return *n;
}

Result<Fd> Sys::udp_socket() {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kUdpSocket));
  auto reply = invoke(w);
  if (!reply.ok()) {
    return reply.error();
  }
  Reader r(reply.value());
  auto fd = r.get_u32();
  if (!fd) {
    return ErrorCode::kCorrupted;
  }
  return static_cast<Fd>(*fd);
}

Result<Unit> Sys::udp_bind(Fd fd, Port port) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kUdpBind));
  put_fd(w, fd);
  w.put_u16(port);
  auto reply = invoke(w);
  return reply.ok() ? Result<Unit>(Unit{}) : reply.error();
}

Result<Unit> Sys::udp_sendto(Fd fd, NetAddr dst, Port dst_port, std::span<const u8> data) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kUdpSendTo));
  put_fd(w, fd);
  w.put_u32(dst);
  w.put_u16(dst_port);
  w.put_bytes(data);
  auto reply = invoke(w);
  return reply.ok() ? Result<Unit>(Unit{}) : reply.error();
}

Result<Datagram> Sys::udp_recvfrom(Fd fd) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kUdpRecvFrom));
  put_fd(w, fd);
  auto reply = invoke(w);
  if (!reply.ok()) {
    return reply.error();
  }
  Reader r(reply.value());
  auto src = r.get_u32();
  auto port = r.get_u16();
  auto data = r.get_bytes();
  if (!src || !port || !data) {
    return ErrorCode::kCorrupted;
  }
  return Datagram{*src, *port, std::move(*data)};
}

Result<Fd> Sys::vtp_listen(Port port, usize backlog) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kVtpListen));
  w.put_u16(port);
  w.put_u64(backlog);
  auto reply = invoke(w);
  if (!reply.ok()) {
    return reply.error();
  }
  Reader r(reply.value());
  auto fd = r.get_u32();
  if (!fd) {
    return ErrorCode::kCorrupted;
  }
  return static_cast<Fd>(*fd);
}

Result<Fd> Sys::vtp_connect(NetAddr dst, Port dst_port, Port src_port) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kVtpConnect));
  w.put_u32(dst);
  w.put_u16(dst_port);
  w.put_u16(src_port);
  auto reply = invoke(w);
  if (!reply.ok()) {
    return reply.error();
  }
  Reader r(reply.value());
  auto fd = r.get_u32();
  if (!fd) {
    return ErrorCode::kCorrupted;
  }
  return static_cast<Fd>(*fd);
}

Result<Fd> Sys::vtp_accept(Fd listener) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kVtpAccept));
  put_fd(w, listener);
  auto reply = invoke(w);
  if (!reply.ok()) {
    return reply.error();
  }
  Reader r(reply.value());
  auto fd = r.get_u32();
  if (!fd) {
    return ErrorCode::kCorrupted;
  }
  return static_cast<Fd>(*fd);
}

Result<u64> Sys::vtp_send(Fd fd, std::span<const u8> data) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kVtpSend));
  put_fd(w, fd);
  w.put_bytes(data);
  auto reply = invoke(w);
  if (!reply.ok()) {
    return reply.error();
  }
  Reader r(reply.value());
  auto accepted = r.get_u64();
  if (!accepted) {
    return ErrorCode::kCorrupted;
  }
  return *accepted;
}

Result<std::vector<u8>> Sys::vtp_recv(Fd fd, usize max_len) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kVtpRecv));
  put_fd(w, fd);
  w.put_u64(max_len);
  auto reply = invoke(w);
  if (!reply.ok()) {
    return reply.error();
  }
  Reader r(reply.value());
  auto data = r.get_bytes();
  if (!data) {
    return ErrorCode::kCorrupted;
  }
  return std::move(*data);
}

Result<Unit> Sys::vtp_close(Fd fd) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kVtpClose));
  put_fd(w, fd);
  auto reply = invoke(w);
  return reply.ok() ? Result<Unit>(Unit{}) : reply.error();
}

Result<Unit> Sys::console_write(std::string_view text) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kConsoleWrite));
  w.put_string(text);
  auto reply = invoke(w);
  return reply.ok() ? Result<Unit>(Unit{}) : reply.error();
}

Result<u64> Sys::kstat(std::string_view name) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kKstat));
  w.put_string(name);
  auto reply = invoke(w);
  if (!reply.ok()) {
    return reply.error();
  }
  Reader r(reply.value());
  auto value = r.get_u64();
  if (!value) {
    return ErrorCode::kCorrupted;
  }
  return *value;
}

Result<std::vector<std::string>> Sys::kstat_list() {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kKstatList));
  auto reply = invoke(w);
  if (!reply.ok()) {
    return reply.error();
  }
  Reader r(reply.value());
  auto count = r.get_u32();
  if (!count) {
    return ErrorCode::kCorrupted;
  }
  std::vector<std::string> names;
  names.reserve(*count);
  for (u32 i = 0; i < *count; ++i) {
    auto name = r.get_string();
    if (!name) {
      return ErrorCode::kCorrupted;
    }
    names.push_back(std::move(*name));
  }
  return names;
}

Result<u32> Sys::ring_setup(u32 sq_slots, u32 cq_slots) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kRingSetup));
  w.put_u32(sq_slots);
  w.put_u32(cq_slots);
  auto reply = invoke(w);
  if (!reply.ok()) {
    return reply.error();
  }
  Reader r(reply.value());
  auto id = r.get_u32();
  return id ? Result<u32>(*id) : ErrorCode::kCorrupted;
}

Result<u32> Sys::ring_submit(u32 ring_id, std::span<const RingSqe> entries) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kRingSubmit));
  w.put_u32(ring_id);
  w.put_u32(static_cast<u32>(entries.size()));
  for (const RingSqe& e : entries) {
    w.put_u64(e.user_data);
    w.put_u32(e.op);
    w.put_bytes(e.args);
  }
  auto reply = invoke(w);
  if (!reply.ok()) {
    return reply.error();
  }
  Reader r(reply.value());
  auto accepted = r.get_u32();
  return accepted ? Result<u32>(*accepted) : ErrorCode::kCorrupted;
}

Result<std::vector<RingCqe>> Sys::ring_wait(u32 ring_id, u32 min_complete, u32 max_reap,
                                            Tid tid) {
  Writer w;
  w.put_u32(static_cast<u32>(SysNr::kRingWait));
  w.put_u32(ring_id);
  w.put_u32(min_complete);
  w.put_u32(max_reap);
  w.put_u64(tid);
  auto reply = invoke(w);
  if (!reply.ok()) {
    return reply.error();
  }
  Reader r(reply.value());
  auto count = r.get_u32();
  if (!count) {
    return ErrorCode::kCorrupted;
  }
  std::vector<RingCqe> out;
  out.reserve(*count);
  for (u32 i = 0; i < *count; ++i) {
    auto user_data = r.get_u64();
    auto err = r.get_u32();
    auto payload = r.get_bytes();
    if (!user_data || !err || !payload) {
      return ErrorCode::kCorrupted;
    }
    out.push_back(RingCqe{*user_data, *err, std::move(*payload)});
  }
  return out;
}

}  // namespace vnros
