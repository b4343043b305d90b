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

void SyscallDispatcher::destroy_process_state(Pid pid, CoreId core) {
  // Every descriptor closes as close would: ports unbind, listeners stop
  // listening, streams close and pipe ends drop, and ops parked on a socket
  // complete with kBadFd. Then the table and the rings go.
  std::vector<Fd> open;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = procs_.find(pid);
    if (it != procs_.end()) {
      for (const auto& entry : it->second->fds) {
        open.push_back(entry.first);
      }
    }
  }
  for (Fd fd : open) {
    (void)close_fd(SysCtx{pid, core, nullptr}, fd, /*vtp_only=*/false);
  }
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

Fd SyscallDispatcher::install_fd(Pid pid, OpenFile of) {
  ProcState& ps = proc_state(pid);
  std::lock_guard<std::mutex> lock(mu_);
  Fd fd = alloc_fd(ps);
  ps.fds[fd] = std::move(of);
  return fd;
}

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
  auto nr = wire_get<u32>(args);
  ErrorCode err = ErrorCode::kInvalidArgument;
  Writer payload;
  if (nr) {
    err = exec_syscall(pid, core, *nr, args, payload);
  }
  Codec<u32>::put(reply, static_cast<u32>(err));
  reply.put_raw(payload.bytes());
  return reply.take();
}

// --- Handlers ----------------------------------------------------------------------
//
// One per table row. Each receives its arguments already decoded and checked
// for exact consumption (exec<N>), and returns its typed reply; exec<N>
// encodes it.

template <>
Result<Pid> SyscallDispatcher::run<SysNr::kGetPid>(const SysCtx& c, SysArgs<SysNr::kGetPid>&) {
  return c.pid;
}

// --- File handlers ------------------------------------------------------------------

template <>
Result<Fd> SyscallDispatcher::run<SysNr::kOpen>(const SysCtx& c, SysArgs<SysNr::kOpen>& a) {
  const auto& [path, flags] = a;
  MemFs& fs = kernel_.fs();
  auto st = fs.stat(path);
  if (!st.ok()) {
    if (st.error() != ErrorCode::kNotFound || (flags & kOpenCreate) == 0) {
      return st.error();
    }
    auto created = fs.create(path);
    if (!created.ok()) {
      return created.error();
    }
    st = fs.stat(path);
    if (!st.ok()) {
      return st.error();
    }
  }
  if (st.value().is_dir) {
    return ErrorCode::kIsDirectory;
  }
  // Truncating an empty file changes nothing, so it journals nothing.
  if ((flags & kOpenTrunc) != 0 && st.value().size != 0) {
    auto tr = fs.truncate(path, 0);
    if (!tr.ok()) {
      return tr.error();
    }
  }
  OpenFile of;
  of.kind = OpenFile::Kind::kFile;
  of.path = path;
  of.offset = (flags & kOpenAppend) != 0 && (flags & kOpenTrunc) == 0 ? st.value().size : 0;
  return install_fd(c.pid, std::move(of));
}

Result<Unit> SyscallDispatcher::close_fd(const SysCtx& c, Fd fd, bool vtp_only) {
  ProcState& ps = proc_state(c.pid);
  // The events ring ops can park on through this fd.
  std::vector<WaitKey> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ps.fds.find(fd);
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
      release_fd(ps, fd);  // nothing can park on a file or pipe fd
      return Unit{};
    }
  }
  // Ops parked on the socket complete with kBadFd — the synchronous reply on
  // the now-closed fd — before the number can be reused, so a parked recv
  // never reads the stream that inherits it. The ring lock orders before
  // mu_, so this runs outside it. A close the reactor itself executes hands
  // the events back instead: the reactor holds the ring lock and cancels
  // before it runs another op.
  if (c.note != nullptr) {
    c.note->closed = std::move(events);
  } else {
    kernel_.rings().cancel(c.pid, events, sched_token(c.core));
  }
  std::lock_guard<std::mutex> lock(mu_);
  release_fd(ps, fd);
  return Unit{};
}

template <>
Result<Unit> SyscallDispatcher::run<SysNr::kClose>(const SysCtx& c, SysArgs<SysNr::kClose>& a) {
  return close_fd(c, std::get<0>(a), /*vtp_only=*/false);
}

template <>
Result<std::vector<u8>> SyscallDispatcher::run<SysNr::kRead>(const SysCtx& c,
                                                             SysArgs<SysNr::kRead>& a) {
  const auto& [fd, len] = a;
  if (len > kMaxIoBytes) {
    return ErrorCode::kInvalidArgument;
  }
  ProcState& ps = proc_state(c.pid);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ps.fds.find(fd);
  if (it == ps.fds.end()) {
    return ErrorCode::kBadFd;
  }
  if (it->second.kind == OpenFile::Kind::kPipeRead) {
    std::vector<u8> buf(len);
    auto r = kernel_.pipes().read(it->second.pipe, buf);
    if (!r.ok()) {
      return r.error();
    }
    buf.resize(r.value());
    return buf;
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

  std::vector<u8> buf(len);
  auto r = kernel_.fs().read(of.path, pre_offset, buf);
  if (!r.ok()) {
    return r.error();
  }
  u64 n = r.value();
  of.offset = pre_offset + n;

  // The paper's read_spec, executably:
  //   read_len == min(buffer.len(), pre.files[fd].size - pre.files[fd].offset)
  //   && post.files[fd].offset == pre.files[fd].offset + read_len
  VNROS_ENSURES(n == std::min<u64>(len, file_size > pre_offset ? file_size - pre_offset : 0));
  VNROS_ENSURES(of.offset == pre_offset + n);

  buf.resize(n);
  return buf;
}

template <>
Result<u64> SyscallDispatcher::run<SysNr::kWrite>(const SysCtx& c, SysArgs<SysNr::kWrite>& a) {
  const auto& [fd, data] = a;
  ProcState& ps = proc_state(c.pid);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ps.fds.find(fd);
  if (it == ps.fds.end()) {
    return ErrorCode::kBadFd;
  }
  if (it->second.kind == OpenFile::Kind::kPipeWrite) {
    return kernel_.pipes().write(it->second.pipe, data);
  }
  if (it->second.kind != OpenFile::Kind::kFile) {
    return ErrorCode::kBadFd;
  }
  OpenFile& of = it->second;
  auto r = kernel_.fs().write(of.path, of.offset, data);
  if (r.ok()) {
    of.offset += r.value();
  }
  return r;
}

template <>
Result<u64> SyscallDispatcher::run<SysNr::kLseek>(const SysCtx& c, SysArgs<SysNr::kLseek>& a) {
  const auto& [fd, delta, whence] = a;
  ProcState& ps = proc_state(c.pid);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ps.fds.find(fd);
  if (it == ps.fds.end() || it->second.kind != OpenFile::Kind::kFile) {
    return ErrorCode::kBadFd;
  }
  OpenFile& of = it->second;
  i64 base = 0;
  switch (whence) {
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
  i64 target = 0;
  if (__builtin_add_overflow(base, delta, &target) || target < 0) {
    return ErrorCode::kInvalidArgument;
  }
  of.offset = static_cast<u64>(target);
  return of.offset;
}

template <>
Result<FileStat> SyscallDispatcher::run<SysNr::kFstat>(const SysCtx& c,
                                                       SysArgs<SysNr::kFstat>& a) {
  ProcState& ps = proc_state(c.pid);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ps.fds.find(std::get<0>(a));
  if (it == ps.fds.end() || it->second.kind != OpenFile::Kind::kFile) {
    return ErrorCode::kBadFd;
  }
  return kernel_.fs().stat(it->second.path);
}

template <>
Result<Unit> SyscallDispatcher::run<SysNr::kMkdir>(const SysCtx&, SysArgs<SysNr::kMkdir>& a) {
  return kernel_.fs().mkdir(std::get<0>(a));
}

template <>
Result<Unit> SyscallDispatcher::run<SysNr::kUnlink>(const SysCtx&, SysArgs<SysNr::kUnlink>& a) {
  return kernel_.fs().unlink(std::get<0>(a));
}

template <>
Result<Unit> SyscallDispatcher::run<SysNr::kRmdir>(const SysCtx&, SysArgs<SysNr::kRmdir>& a) {
  return kernel_.fs().rmdir(std::get<0>(a));
}

template <>
Result<std::vector<std::string>> SyscallDispatcher::run<SysNr::kReaddir>(
    const SysCtx&, SysArgs<SysNr::kReaddir>& a) {
  return kernel_.fs().readdir(std::get<0>(a));
}

template <>
Result<Unit> SyscallDispatcher::run<SysNr::kRename>(const SysCtx&, SysArgs<SysNr::kRename>& a) {
  const auto& [from, to] = a;
  return kernel_.fs().rename(from, to);
}

template <>
Result<Unit> SyscallDispatcher::run<SysNr::kTruncate>(const SysCtx&,
                                                      SysArgs<SysNr::kTruncate>& a) {
  const auto& [path, size] = a;
  return kernel_.fs().truncate(path, size);
}

template <>
Result<Unit> SyscallDispatcher::run<SysNr::kFsync>(const SysCtx&, SysArgs<SysNr::kFsync>&) {
  return kernel_.fs().fsync();
}

template <>
Result<FdPair> SyscallDispatcher::run<SysNr::kPipeCreate>(const SysCtx& c,
                                                          SysArgs<SysNr::kPipeCreate>&) {
  PipeId id = kernel_.pipes().create();
  ProcState& ps = proc_state(c.pid);
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
  return FdPair{rfd, wfd};
}

template <>
Result<u64> SyscallDispatcher::run<SysNr::kReadUser>(const SysCtx& c,
                                                     SysArgs<SysNr::kReadUser>& a) {
  const auto& [fd, uaddr, len] = a;
  if (len > kMaxIoBytes) {
    return ErrorCode::kInvalidArgument;
  }
  Process* proc = kernel_.procs().get(c.pid);
  if (proc == nullptr) {
    return ErrorCode::kNotFound;
  }
  ProcState& ps = proc_state(c.pid);
  // Data-race-freedom obligation: the buffer (process memory) is borrowed
  // exclusively for the duration of the handler.
  ExclusiveBorrow borrow(ps.borrow);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ps.fds.find(fd);
  if (it == ps.fds.end() || it->second.kind != OpenFile::Kind::kFile) {
    return ErrorCode::kBadFd;
  }
  OpenFile& of = it->second;
  std::vector<u8> buf(len);
  auto r = kernel_.fs().read(of.path, of.offset, buf);
  if (!r.ok()) {
    return r.error();
  }
  buf.resize(r.value());
  // Mapping obligation: the bytes land in user memory through the verified
  // page table.
  auto copied = proc->vm().copy_out(uaddr, buf);
  if (!copied.ok()) {
    return copied.error();
  }
  of.offset += r.value();
  return r;
}

template <>
Result<u64> SyscallDispatcher::run<SysNr::kWriteUser>(const SysCtx& c,
                                                      SysArgs<SysNr::kWriteUser>& a) {
  const auto& [fd, uaddr, len] = a;
  if (len > kMaxIoBytes) {
    return ErrorCode::kInvalidArgument;
  }
  Process* proc = kernel_.procs().get(c.pid);
  if (proc == nullptr) {
    return ErrorCode::kNotFound;
  }
  ProcState& ps = proc_state(c.pid);
  ExclusiveBorrow borrow(ps.borrow);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ps.fds.find(fd);
  if (it == ps.fds.end() || it->second.kind != OpenFile::Kind::kFile) {
    return ErrorCode::kBadFd;
  }
  OpenFile& of = it->second;
  std::vector<u8> buf(len);
  auto copied = proc->vm().copy_in(uaddr, buf);
  if (!copied.ok()) {
    return copied.error();
  }
  auto r = kernel_.fs().write(of.path, of.offset, buf);
  if (r.ok()) {
    of.offset += r.value();
  }
  return r;
}

// --- Memory handlers -------------------------------------------------------------

template <>
Result<VAddr> SyscallDispatcher::run<SysNr::kMmap>(const SysCtx& c, SysArgs<SysNr::kMmap>& a) {
  const auto& [length, writable, lazy] = a;
  if (length > kMaxIoBytes) {
    return ErrorCode::kInvalidArgument;
  }
  Process* proc = kernel_.procs().get(c.pid);
  if (proc == nullptr) {
    return ErrorCode::kNotFound;
  }
  // A lazy region is demand-paged instead of backed eagerly.
  Perms perms{writable, true, false};
  return lazy ? proc->vm().mmap_lazy(length, perms) : proc->vm().mmap(length, perms);
}

template <>
Result<Unit> SyscallDispatcher::run<SysNr::kMunmap>(const SysCtx& c, SysArgs<SysNr::kMunmap>& a) {
  Process* proc = kernel_.procs().get(c.pid);
  if (proc == nullptr) {
    return ErrorCode::kNotFound;
  }
  return proc->vm().munmap(std::get<0>(a));
}

// --- Process handlers ---------------------------------------------------------------

template <>
Result<Pid> SyscallDispatcher::run<SysNr::kSpawn>(const SysCtx& c, SysArgs<SysNr::kSpawn>&) {
  return kernel_.procs().spawn(proc_token(c.core), c.pid);
}

template <>
Result<i64> SyscallDispatcher::run<SysNr::kWaitPid>(const SysCtx& c,
                                                    SysArgs<SysNr::kWaitPid>& a) {
  auto r = kernel_.procs().wait(proc_token(c.core), c.pid, std::get<0>(a));
  if (!r.ok()) {
    return r.error();
  }
  return i64{r.value()};
}

template <>
Result<Unit> SyscallDispatcher::run<SysNr::kExit>(const SysCtx& c, SysArgs<SysNr::kExit>& a) {
  auto r = kernel_.procs().exit(proc_token(c.core), c.pid, static_cast<i32>(std::get<0>(a)));
  if (r.ok()) {
    destroy_process_state(c.pid, c.core);
  }
  return r;
}

template <>
Result<Unit> SyscallDispatcher::run<SysNr::kKill>(const SysCtx& c, SysArgs<SysNr::kKill>& a) {
  // Permission model: any process may signal any other (no uids).
  const auto& [target, signal] = a;
  auto r = kernel_.procs().kill(proc_token(c.core), target, signal);
  if (r.ok() && signal == kSigKill) {
    destroy_process_state(target, c.core);
  }
  return r;
}

template <>
Result<u32> SyscallDispatcher::run<SysNr::kTakeSignal>(const SysCtx& c,
                                                       SysArgs<SysNr::kTakeSignal>&) {
  return kernel_.procs().take_signal(proc_token(c.core), c.pid);
}

// --- Futex handlers ---------------------------------------------------------------

template <>
Result<Unit> SyscallDispatcher::run<SysNr::kFutexWait>(const SysCtx& c,
                                                       SysArgs<SysNr::kFutexWait>& a) {
  const auto& [uaddr, expected, tid] = a;
  Process* proc = kernel_.procs().get(c.pid);
  if (proc == nullptr) {
    return ErrorCode::kNotFound;
  }
  auto current = proc->vm().read_u32(uaddr);
  if (!current.ok()) {
    return current.error();
  }
  ErrorCode err =
      kernel_.simfutex().wait(sched_token(c.core), c.pid, uaddr, current.value(), expected, tid);
  if (err != ErrorCode::kOk) {
    return err;
  }
  return Unit{};
}

template <>
Result<u64> SyscallDispatcher::run<SysNr::kFutexWake>(const SysCtx& c,
                                                      SysArgs<SysNr::kFutexWake>& a) {
  const auto& [uaddr, count] = a;
  return kernel_.simfutex().wake(sched_token(c.core), c.pid, uaddr, count);
}

// --- Network handlers ----------------------------------------------------------------

template <>
Result<Fd> SyscallDispatcher::run<SysNr::kUdpSocket>(const SysCtx& c,
                                                     SysArgs<SysNr::kUdpSocket>&) {
  OpenFile of;
  of.kind = OpenFile::Kind::kUdp;
  return install_fd(c.pid, std::move(of));
}

template <>
Result<Unit> SyscallDispatcher::run<SysNr::kUdpBind>(const SysCtx& c,
                                                     SysArgs<SysNr::kUdpBind>& a) {
  const auto& [fd, port] = a;
  ProcState& ps = proc_state(c.pid);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ps.fds.find(fd);
  if (it == ps.fds.end() || it->second.kind != OpenFile::Kind::kUdp) {
    return ErrorCode::kBadFd;
  }
  if (it->second.port != 0) {
    return ErrorCode::kAlreadyExists;
  }
  auto r = kernel_.udp().bind(port);
  if (r.ok()) {
    it->second.port = port;
  }
  return r;
}

template <>
Result<Unit> SyscallDispatcher::run<SysNr::kUdpSendTo>(const SysCtx& c,
                                                       SysArgs<SysNr::kUdpSendTo>& a) {
  const auto& [fd, dst, dport, data] = a;
  ProcState& ps = proc_state(c.pid);
  Port src_port = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ps.fds.find(fd);
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
  return kernel_.udp().send(dst, dport, src_port, data);
}

template <>
Result<Datagram> SyscallDispatcher::run<SysNr::kUdpRecvFrom>(const SysCtx& c,
                                                             SysArgs<SysNr::kUdpRecvFrom>& a) {
  ProcState& ps = proc_state(c.pid);
  Port port = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ps.fds.find(std::get<0>(a));
    if (it == ps.fds.end() || it->second.kind != OpenFile::Kind::kUdp) {
      return ErrorCode::kBadFd;
    }
    if (it->second.port == 0) {
      return ErrorCode::kNotConnected;
    }
    port = it->second.port;
  }
  auto r = kernel_.udp().recv(port);
  if (!r.ok() && c.note != nullptr) {
    c.note->wait = WaitKey{WaitKey::Kind::kUdpRecv, port};
  }
  return r;
}

template <>
Result<Fd> SyscallDispatcher::run<SysNr::kVtpListen>(const SysCtx& c,
                                                     SysArgs<SysNr::kVtpListen>& a) {
  const auto& [port, backlog] = a;
  if (backlog > kMaxVtpBacklog) {
    return ErrorCode::kInvalidArgument;
  }
  auto r = kernel_.vtp().listen(port, backlog);
  if (!r.ok()) {
    return r.error();
  }
  OpenFile of;
  of.kind = OpenFile::Kind::kVtp;
  of.listener = true;
  of.port = port;
  return install_fd(c.pid, std::move(of));
}

template <>
Result<Fd> SyscallDispatcher::run<SysNr::kVtpConnect>(const SysCtx& c,
                                                      SysArgs<SysNr::kVtpConnect>& a) {
  const auto& [dst, dport, sport] = a;
  auto r = kernel_.vtp().connect(dst, dport, sport);
  if (!r.ok()) {
    return r.error();
  }
  OpenFile of;
  of.kind = OpenFile::Kind::kVtp;
  of.conn = r.value();
  return install_fd(c.pid, std::move(of));
}

template <>
Result<Fd> SyscallDispatcher::run<SysNr::kVtpAccept>(const SysCtx& c,
                                                     SysArgs<SysNr::kVtpAccept>& a) {
  ProcState& ps = proc_state(c.pid);
  Port port = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ps.fds.find(std::get<0>(a));
    if (it == ps.fds.end() || it->second.kind != OpenFile::Kind::kVtp ||
        !it->second.listener) {
      return ErrorCode::kBadFd;
    }
    port = it->second.port;
  }
  auto r = kernel_.vtp().accept(port);
  if (!r.ok()) {
    if (c.note != nullptr) {
      c.note->wait = WaitKey{WaitKey::Kind::kVtpAccept, port};
    }
    return r.error();  // kWouldBlock while empty: transient, ring-parkable
  }
  OpenFile of;
  of.kind = OpenFile::Kind::kVtp;
  of.conn = r.value();
  return install_fd(c.pid, std::move(of));
}

Result<ConnId> SyscallDispatcher::vtp_conn(Pid pid, Fd fd) {
  ProcState& ps = proc_state(pid);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ps.fds.find(fd);
  if (it == ps.fds.end() || it->second.kind != OpenFile::Kind::kVtp || it->second.listener) {
    return ErrorCode::kBadFd;
  }
  return it->second.conn;
}

template <>
Result<u64> SyscallDispatcher::run<SysNr::kVtpSend>(const SysCtx& c,
                                                    SysArgs<SysNr::kVtpSend>& a) {
  const auto& [fd, data] = a;
  auto conn = vtp_conn(c.pid, fd);
  if (!conn.ok()) {
    return conn.error();
  }
  // Stream semantics: the reply is the bytes accepted, not all-or-nothing;
  // kWouldBlock when the send buffer is full.
  auto r = kernel_.vtp().send(conn.value(), data);
  if (!r.ok() && c.note != nullptr) {
    c.note->wait = WaitKey{WaitKey::Kind::kVtpSend, conn.value()};
  }
  return r;
}

template <>
Result<std::vector<u8>> SyscallDispatcher::run<SysNr::kVtpRecv>(const SysCtx& c,
                                                                SysArgs<SysNr::kVtpRecv>& a) {
  const auto& [fd, max_len] = a;
  if (max_len > kMaxIoBytes) {
    return ErrorCode::kInvalidArgument;
  }
  auto conn = vtp_conn(c.pid, fd);
  if (!conn.ok()) {
    return conn.error();
  }
  auto r = kernel_.vtp().recv(conn.value(), max_len);
  if (!r.ok() && c.note != nullptr) {
    c.note->wait = WaitKey{WaitKey::Kind::kVtpRecv, conn.value()};
  }
  return r;
}

template <>
Result<Unit> SyscallDispatcher::run<SysNr::kVtpClose>(const SysCtx& c,
                                                      SysArgs<SysNr::kVtpClose>& a) {
  return close_fd(c, std::get<0>(a), /*vtp_only=*/true);
}

template <>
Result<Unit> SyscallDispatcher::run<SysNr::kConsoleWrite>(const SysCtx&,
                                                          SysArgs<SysNr::kConsoleWrite>& a) {
  kernel_.console().write(std::get<0>(a));
  return Unit{};
}

template <>
Result<u64> SyscallDispatcher::run<SysNr::kKstat>(const SysCtx&, SysArgs<SysNr::kKstat>& a) {
  return kernel_.kstat(std::get<0>(a));
}

template <>
Result<std::vector<std::string>> SyscallDispatcher::run<SysNr::kKstatList>(
    const SysCtx&, SysArgs<SysNr::kKstatList>&) {
  return kernel_.kstat_names();
}

// --- Ring handlers ---------------------------------------------------------------------

SysRingTable::Executor SyscallDispatcher::ring_executor(const SysCtx& c) {
  return [this, c](u32 op, Reader& args, Writer& payload, RingExecNote& note) {
    return exec_syscall(c.pid, c.core, op, args, payload, &note);
  };
}

template <>
Result<u32> SyscallDispatcher::run<SysNr::kRingSetup>(const SysCtx& c,
                                                      SysArgs<SysNr::kRingSetup>& a) {
  const auto& [sq_slots, cq_slots] = a;
  return kernel_.rings().setup(c.pid, sq_slots, cq_slots);
}

template <>
Result<u32> SyscallDispatcher::run<SysNr::kRingSubmit>(const SysCtx& c,
                                                       SysArgs<SysNr::kRingSubmit>& a) {
  const auto& [ring_id, entries] = a;
  if (entries.size() > SysRingTable::kMaxSlots) {
    return ErrorCode::kInvalidArgument;
  }
  return kernel_.rings().submit(c.pid, ring_id, entries, ring_executor(c), sched_token(c.core));
}

template <>
Result<std::vector<RingCqe>> SyscallDispatcher::run<SysNr::kRingWait>(
    const SysCtx& c, SysArgs<SysNr::kRingWait>& a) {
  const auto& [ring_id, min_complete, max_reap, tid] = a;
  return kernel_.rings().wait(c.pid, ring_id, min_complete, max_reap, tid, ring_executor(c),
                              sched_token(c.core));
}

// --- Dispatch ----------------------------------------------------------------------------

template <SysNr N>
ErrorCode SyscallDispatcher::exec(const SysCtx& c, Reader& args, Writer& payload) {
  if constexpr ((SysDesc<N>::kFlags & kSysIoError) != 0) {
    if (auto injected = io_fault_site_->fire()) {
      return *injected;
    }
  }
  if constexpr ((SysDesc<N>::kFlags & kSysNoMemory) != 0) {
    if (auto injected = mem_fault_site_->fire()) {
      return *injected;
    }
  }
  auto decoded = SysDesc<N>::decode(args);
  if (!decoded) {
    return ErrorCode::kInvalidArgument;
  }
  auto reply = run<N>(c, *decoded);
  if (reply.ok()) {
    Codec<SysReply<N>>::put(payload, reply.value());
  }
  return reply.error();
}

// The shared transition function: the synchronous path calls it once per
// frame; the ring reactor calls it once per execution attempt of a pending
// SQE.
ErrorCode SyscallDispatcher::exec_syscall(Pid pid, CoreId core, u32 nr, Reader& args,
                                          Writer& payload, RingExecNote* note) {
  const SysCtx c{pid, core, note};
  switch (static_cast<SysNr>(nr)) {
#define VNROS_SYS_EXEC(name, number, sig, flags) \
  case SysNr::name:                              \
    return exec<SysNr::name>(c, args, payload);
    VNROS_SYSCALLS(VNROS_SYS_EXEC)
#undef VNROS_SYS_EXEC
  }
  return ErrorCode::kUnsupported;
}

}  // namespace vnros
