// The syscall layer: the paper's client application contract (§3), made
// executable.
//
// Every call crosses a real marshalling boundary: the user-side Sys facade
// serializes the syscall number and arguments into a byte frame
// (src/base/serde), the kernel-side SyscallDispatcher deserializes, checks,
// executes, and serializes the reply. This discharges, dynamically, the three
// obligations §3 names:
//   - marshalling: arguments/results round-trip the boundary byte-exactly
//     (each frame layout is declared once, in VNROS_SYSCALLS below; the
//     kernel/sys_marshalling_* VCs check every row of it);
//   - mapping: user buffers are reached through the process's verified page
//     table (read_user/write_user translate page-by-page);
//   - data-race freedom: each process's syscall state is guarded by a
//     BorrowCell — a concurrent conflicting entry trips a contract instead
//     of racing (the dynamic stand-in for Rust's unique &mut).
//
// The read() handler carries the paper's read_spec as an executable
// postcondition — see SyscallDispatcher::run<SysNr::kRead>.
#ifndef VNROS_SRC_KERNEL_SYSCALL_H_
#define VNROS_SRC_KERNEL_SYSCALL_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "src/base/fault.h"
#include "src/base/result.h"
#include "src/base/serde.h"
#include "src/kernel/kernel.h"
#include "src/spec/ownership.h"

namespace vnros {

inline constexpr u32 kOpenCreate = 1u << 0;   // create if missing
inline constexpr u32 kOpenTrunc = 1u << 1;    // truncate to zero
inline constexpr u32 kOpenAppend = 1u << 2;   // start offset at EOF

enum class SeekWhence : u32 { kSet = 0, kCur = 1, kEnd = 2 };

// The largest backlog vtp_listen accepts. The backlog is the only bound on a
// listener's queued and half-open connections, so an unchecked one would let
// a SYN flood grow the stack's connection table without limit.
inline constexpr u64 kMaxVtpBacklog = 4096;

// The kernel types a syscall frame carries, as field lists for the codec
// in src/base/serde.h.
template <>
struct WireEnum<SeekWhence> {
  static constexpr SeekWhence kValues[] = {SeekWhence::kSet, SeekWhence::kCur, SeekWhence::kEnd};
};
template <>
struct Codec<FileStat>
    : FieldsCodec<FileStat, &FileStat::inode, &FileStat::size, &FileStat::is_dir> {};
template <>
struct Codec<Datagram>
    : FieldsCodec<Datagram, &Datagram::src_addr, &Datagram::src_port, &Datagram::payload> {};
template <>
struct Codec<RingSqe> : FieldsCodec<RingSqe, &RingSqe::user_data, &RingSqe::op, &RingSqe::args> {};
template <>
struct Codec<RingCqe>
    : FieldsCodec<RingCqe, &RingCqe::user_data, &RingCqe::err, &RingCqe::payload> {};

// --- The syscall table -------------------------------------------------------
//
// One row per syscall: X(name, number, Reply(Args...), flags). The row is the
// only place the syscall's number, argument layout, reply layout and flags are
// written. SysNr, the Sys facade, ring_sqe, the dispatcher's decoders, the
// fault-injection gates and the ring's submittable and parkable sets are all
// derived from it. A frame is [u32 nr][args in order]; a reply is
// [u32 ErrorCode][Reply] (no Reply bytes unless the code is kOk).
//
// Flags:
inline constexpr u32 kSysRing = 1u << 0;      // a ring accepts it as an SQE
inline constexpr u32 kSysPark = 1u << 1;      // a ring parks its transient kWouldBlock
inline constexpr u32 kSysIoError = 1u << 2;   // "syscall/io_error" may fail it
inline constexpr u32 kSysNoMemory = 1u << 3;  // "syscall/no_memory" may fail it

using FdPair = std::pair<Fd, Fd>;  // (read end, write end)

// clang-format off
#define VNROS_SYSCALLS(X)                                                                      \
  X(kGetPid, 1, Pid(), 0)                                                                      \
  /* Filesystem. */                                                                            \
  X(kOpen, 10, Fd(std::string path, u32 flags), kSysRing | kSysIoError)                        \
  X(kClose, 11, Unit(Fd fd), kSysRing)                                                         \
  X(kRead, 12, std::vector<u8>(Fd fd, u64 len), kSysRing | kSysIoError)                        \
  X(kWrite, 13, u64(Fd fd, std::vector<u8> data), kSysRing | kSysIoError)                      \
  X(kLseek, 14, u64(Fd fd, i64 delta, SeekWhence whence), kSysRing)                            \
  X(kFstat, 15, FileStat(Fd fd), kSysRing | kSysIoError)                                       \
  X(kMkdir, 16, Unit(std::string path), kSysIoError)                                           \
  X(kUnlink, 17, Unit(std::string path), kSysIoError)                                          \
  X(kRmdir, 18, Unit(std::string path), kSysIoError)                                           \
  X(kReaddir, 19, std::vector<std::string>(std::string path), kSysIoError)                     \
  X(kRename, 20, Unit(std::string from, std::string to), kSysIoError)                          \
  X(kTruncate, 21, Unit(std::string path, u64 size), kSysIoError)                              \
  X(kFsync, 22, Unit(), kSysRing | kSysIoError)                                                \
  /* Read into / write from a user-space buffer (the mapping obligation). */                   \
  X(kReadUser, 23, u64(Fd fd, VAddr buffer, u64 len), kSysIoError)                             \
  X(kWriteUser, 24, u64(Fd fd, VAddr buffer, u64 len), kSysIoError)                            \
  X(kPipeCreate, 25, FdPair(), 0)                                                              \
  /* Virtual memory. */                                                                        \
  X(kMmap, 30, VAddr(u64 length, bool writable, bool lazy), kSysNoMemory)                      \
  X(kMunmap, 31, Unit(VAddr base), 0)                                                          \
  /* Processes. */                                                                             \
  X(kSpawn, 40, Pid(), kSysNoMemory)                                                           \
  X(kWaitPid, 41, i64(Pid child), 0)                                                           \
  X(kExit, 42, Unit(i64 code), 0)                                                              \
  X(kKill, 43, Unit(Pid target, u32 signal), 0)                                                \
  X(kTakeSignal, 44, u32(), 0)                                                                 \
  /* Futex. */                                                                                 \
  X(kFutexWait, 50, Unit(VAddr uaddr, u32 expected, Tid tid), 0)                               \
  X(kFutexWake, 51, u64(VAddr uaddr, u64 count), 0)                                            \
  /* Network: UDP. */                                                                          \
  X(kUdpSocket, 60, Fd(), 0)                                                                   \
  X(kUdpBind, 61, Unit(Fd fd, Port port), 0)                                                   \
  X(kUdpSendTo, 62, Unit(Fd fd, NetAddr dst, Port dst_port, std::vector<u8> data), kSysRing)   \
  X(kUdpRecvFrom, 63, Datagram(Fd fd), kSysRing | kSysPark)                                    \
  /* 70-75 belonged to a retired stream transport; never reassign them. */                     \
  /* Console. */                                                                               \
  X(kConsoleWrite, 80, Unit(std::string text), 0)                                              \
  /* Introspection: the kernel's contract counters (read-only). */                             \
  X(kKstat, 90, u64(std::string name), 0)                                                      \
  X(kKstatList, 91, std::vector<std::string>(), 0)                                             \
  /* Async submission/completion rings (src/kernel/ring.h). */                                 \
  X(kRingSetup, 100, u32(u32 sq_slots, u32 cq_slots), 0)                                       \
  X(kRingSubmit, 101, u32(u32 ring_id, std::vector<RingSqe> entries), 0)                       \
  X(kRingWait, 102,                                                                            \
    std::vector<RingCqe>(u32 ring_id, u32 min_complete, u32 max_reap, Tid tid), 0)             \
  /* Network: VTP streams (src/net/vtp.h). */                                                  \
  X(kVtpListen, 110, Fd(Port port, u64 backlog), 0)                                            \
  X(kVtpAccept, 111, Fd(Fd listener), kSysRing | kSysPark)                                     \
  X(kVtpConnect, 112, Fd(NetAddr dst, Port dst_port, Port src_port), 0)                        \
  X(kVtpSend, 113, u64(Fd fd, std::vector<u8> data), kSysRing | kSysPark)                      \
  X(kVtpRecv, 114, std::vector<u8>(Fd fd, u64 max_len), kSysRing | kSysPark)                   \
  X(kVtpClose, 115, Unit(Fd fd), 0)
// clang-format on

// Syscall numbers (stable ABI).
enum class SysNr : u32 {
#define VNROS_SYS_ENUM(name, nr, sig, flags) name = nr,
  VNROS_SYSCALLS(VNROS_SYS_ENUM)
#undef VNROS_SYS_ENUM
};

// Every syscall, in table order.
inline constexpr SysNr kSysNrs[] = {
#define VNROS_SYS_LIST(name, nr, sig, flags) SysNr::name,
    VNROS_SYSCALLS(VNROS_SYS_LIST)
#undef VNROS_SYS_LIST
};

// The flags of a raw syscall number; 0 for a number outside the table.
constexpr u32 sys_flags(u32 nr) {
  switch (static_cast<SysNr>(nr)) {
#define VNROS_SYS_FLAGS(name, number, sig, flags) \
  case SysNr::name:                               \
    return flags;
    VNROS_SYSCALLS(VNROS_SYS_FLAGS)
#undef VNROS_SYS_FLAGS
  }
  return 0;
}

template <u32 Flags, typename Sig>
struct SysSpec;

template <u32 Flags, typename R, typename... A>
struct SysSpec<Flags, R(A...)> {
  using Reply = R;
  using Args = std::tuple<A...>;
  static constexpr u32 kFlags = Flags;

  // Appends the argument fields in declaration order (the frame minus nr).
  static void encode(Writer& w, WireIn<A>... args) { (Codec<A>::put(w, args), ...); }

  // Decodes one argument tuple that must use up the rest of the frame: a
  // short, malformed or over-long frame is nullopt.
  static std::optional<Args> decode(Reader& r) {
    std::optional<Args> out(std::in_place);
    bool ok = std::apply([&r](A&... a) { return (Codec<A>::get(r, a) && ...); }, *out);
    if (!ok || !r.exhausted()) {
      out.reset();
    }
    return out;
  }
};

template <SysNr N>
struct SysDesc;
#define VNROS_SYS_DESC(name, nr, sig, flags) \
  template <>                                \
  struct SysDesc<SysNr::name> : SysSpec<flags, sig> {};
VNROS_SYSCALLS(VNROS_SYS_DESC)
#undef VNROS_SYS_DESC

template <SysNr N>
using SysReply = typename SysDesc<N>::Reply;
template <SysNr N>
using SysArgs = typename SysDesc<N>::Args;

// Compile-time ABI pins over the table.
consteval bool sys_numbers_unique() {
  for (usize i = 0; i < std::size(kSysNrs); ++i) {
    for (usize j = i + 1; j < std::size(kSysNrs); ++j) {
      if (kSysNrs[i] == kSysNrs[j]) {
        return false;
      }
    }
  }
  return true;
}
consteval bool sys_numbers_avoid_retired() {
  for (SysNr nr : kSysNrs) {
    if (static_cast<u32>(nr) >= 70 && static_cast<u32>(nr) <= 75) {
      return false;
    }
  }
  return true;
}
consteval bool sys_parkable_ops_are_ring_ops() {
  for (SysNr nr : kSysNrs) {
    u32 f = sys_flags(static_cast<u32>(nr));
    if ((f & kSysPark) != 0 && (f & kSysRing) == 0) {
      return false;
    }
  }
  return true;
}
static_assert(sys_numbers_unique(), "two syscalls share a number");
static_assert(sys_numbers_avoid_retired(), "syscall numbers 70-75 are retired");
static_assert(sys_parkable_ops_are_ring_ops(), "a parkable syscall must be ring-submittable");

// True when `A...` encode as syscall N's arguments.
template <SysNr N, typename... A>
concept SysArgsFor = requires(Writer& w, A&&... a) {
  SysDesc<N>::encode(w, std::forward<A>(a)...);
};

// The synchronous frame of syscall N: [u32 nr][args].
template <SysNr N, typename... A>
  requires SysArgsFor<N, A...>
std::vector<u8> sys_frame(A&&... args) {
  Writer w;
  Codec<u32>::put(w, static_cast<u32>(N));
  SysDesc<N>::encode(w, std::forward<A>(args)...);
  return w.take();
}

// A ring submission of syscall N: its args are the synchronous frame after
// the nr word, so ring and synchronous calls share one encoding.
template <SysNr N, typename... A>
  requires((SysDesc<N>::kFlags & kSysRing) != 0 && SysArgsFor<N, A...>)
RingSqe ring_sqe(u64 user_data, A&&... args) {
  Writer w;
  SysDesc<N>::encode(w, std::forward<A>(args)...);
  return RingSqe{user_data, static_cast<u32>(N), w.take()};
}

// The typed reply of syscall N from its (err, payload) pair, as a synchronous
// reply or a CQE carries it. A kOk payload that does not decode to exactly
// one Reply is kCorrupted.
template <SysNr N>
Result<SysReply<N>> sys_reply(ErrorCode err, std::span<const u8> payload) {
  if (err != ErrorCode::kOk) {
    return err;
  }
  auto out = from_wire<SysReply<N>>(payload);
  if (!out) {
    return ErrorCode::kCorrupted;
  }
  return std::move(*out);
}

template <SysNr N>
Result<SysReply<N>> sys_reply(const RingCqe& cqe) {
  return sys_reply<N>(static_cast<ErrorCode>(cqe.err), cqe.payload);
}

// An open descriptor. Files carry the read_spec's (path, offset) pair;
// socket fds carry their transport identity.
struct OpenFile {
  enum class Kind : u8 { kFile, kUdp, kVtp, kPipeRead, kPipeWrite } kind = Kind::kFile;
  std::string path;
  u64 offset = 0;
  Port port = 0;      // udp: bound port; vtp listener: listening port
  ConnId conn = 0;    // vtp: connection
  PipeId pipe = 0;    // pipe endpoints
  bool listener = false;

  bool operator==(const OpenFile&) const = default;
};

// Abstract per-process syscall state (the §3 spec's State), used by the
// kernel/sys_* VCs: the fd table plus the filesystem view.
struct SysAbsState {
  std::map<Fd, OpenFile> fds;
  FsAbsState fs;

  bool operator==(const SysAbsState&) const = default;
};

// Kernel-side entry point. One instance per Kernel.
class SyscallDispatcher {
 public:
  explicit SyscallDispatcher(Kernel& kernel) : kernel_(kernel) {}

  // The "syscall instruction": a serialized request frame in, a serialized
  // reply frame out. `core` models which CPU the calling thread runs on.
  std::vector<u8> handle(Pid pid, CoreId core, std::span<const u8> frame);

  // Abstract view for refinement checks.
  SysAbsState view(Pid pid) const;

  // Tears down a process's syscall state on exit or SIGKILL: closes every
  // fd through close_fd, then drops the fd table and the process's rings.
  // `core` is the core the exit or kill runs on.
  void destroy_process_state(Pid pid, CoreId core);

 private:
  struct ProcState {
    std::map<Fd, OpenFile> fds;
    Fd next_fd = 3;  // 0..2 reserved by convention
    // Closed descriptors, recycled LIFO before next_fd grows. Between close
    // and reuse a stale fd stays kBadFd; reuse hands out a fresh OpenFile
    // (kernel/sys_fd_reuse_safe VC + SyscallTest.FdReuse).
    std::vector<Fd> free_fds;
    BorrowCell borrow;
  };

  // Who is calling: the process, its core, and — for an op the ring reactor
  // runs — where the handler reports what the op parks on or closes.
  struct SysCtx {
    Pid pid = kInvalidPid;
    CoreId core = 0;
    RingExecNote* note = nullptr;
  };

  ProcState& proc_state(Pid pid);
  // Allocates a descriptor: pops the free list, else extends next_fd.
  // Caller holds mu_.
  static Fd alloc_fd(ProcState& ps);
  // Returns a closed descriptor to the free list. Caller holds mu_.
  static void release_fd(ProcState& ps, Fd fd);
  // Allocates a descriptor for `of`. Takes mu_.
  Fd install_fd(Pid pid, OpenFile of);
  // close / vtp_close: tears down the fd's object and retires the number.
  // Ring ops parked on a socket fd complete with kBadFd before the number
  // returns to the free list (SysRingTable::cancel). `vtp_only` restricts
  // the call to stream fds (vtp_close's contract).
  Result<Unit> close_fd(const SysCtx& c, Fd fd, bool vtp_only);
  // The stream a non-listener VTP fd carries; kBadFd for anything else.
  Result<ConnId> vtp_conn(Pid pid, Fd fd);
  // The reactor's executor for ring_submit and ring_wait: exec_syscall with
  // the caller's identity and a note.
  SysRingTable::Executor ring_executor(const SysCtx& c);

  // The shared transition function: executes one syscall by number against
  // kernel state, appending the reply payload. Both the synchronous path
  // (handle) and the ring reactor (kernel_.rings()) dispatch through here,
  // so a ring-executed op refines the synchronous one by construction. The
  // reactor passes a `note` for the handlers to report what an op parks on
  // or closes; the synchronous path passes none.
  ErrorCode exec_syscall(Pid pid, CoreId core, u32 nr, Reader& args, Writer& payload,
                         RingExecNote* note = nullptr);
  // One table row: applies the row's fault-injection gates ("syscall/
  // io_error", "syscall/no_memory"), once per execution attempt, then decodes
  // the arguments — exactly, before any handler runs — runs the handler and
  // encodes its reply.
  template <SysNr N>
  ErrorCode exec(const SysCtx& c, Reader& args, Writer& payload);
  // The handler of syscall N: typed arguments in, typed reply out. One
  // explicit specialization per table row, in syscall.cc.
  template <SysNr N>
  Result<SysReply<N>> run(const SysCtx& c, SysArgs<N>& args);

  Kernel& kernel_;
  // Transient-error injection at the contract boundary: "syscall/io_error"
  // fails the kSysIoError rows with kIoError, "syscall/no_memory" fails the
  // kSysNoMemory rows with kNoMemory — errors the §3 contract already
  // allows, so a correct application must tolerate them (and the chaos
  // harness checks that it does).
  FaultSite* io_fault_site_ = &FaultRegistry::global().site("syscall/io_error");
  FaultSite* mem_fault_site_ = &FaultRegistry::global().site("syscall/no_memory");
  mutable std::mutex mu_;
  std::map<Pid, std::unique_ptr<ProcState>> procs_;
  u64 next_ephemeral_ = 0;  // ephemeral UDP port counter
  // One scheduler/process-directory token per core, created lazily.
  std::mutex token_mu_;
  std::map<CoreId, ThreadToken> proc_tokens_;
  std::map<CoreId, ThreadToken> sched_tokens_;
  ThreadToken proc_token(CoreId core);
  ThreadToken sched_token(CoreId core);
};

// User-side facade: what a process links against (the Sys type of §3). All
// methods marshal through the dispatcher — there is no back door.
class Sys {
 public:
  Sys(SyscallDispatcher& dispatcher, Pid pid, CoreId core = 0)
      : dispatcher_(dispatcher), pid_(pid), core_(core) {}

  Pid pid() const { return pid_; }

  // --- Files ---------------------------------------------------------------
  Result<Fd> open(std::string_view path, u32 flags = 0) {
    return call<SysNr::kOpen>(path, flags);
  }
  Result<Unit> close(Fd fd) { return call<SysNr::kClose>(fd); }
  // Reads up to `len` bytes at the fd's offset, advancing it (§3 read_spec).
  Result<std::vector<u8>> read(Fd fd, usize len) { return call<SysNr::kRead>(fd, len); }
  // Writes at the fd's offset, advancing it; returns bytes written.
  Result<u64> write(Fd fd, std::span<const u8> data) { return call<SysNr::kWrite>(fd, data); }
  Result<u64> lseek(Fd fd, i64 delta, SeekWhence whence) {
    return call<SysNr::kLseek>(fd, delta, whence);
  }
  Result<FileStat> fstat(Fd fd) { return call<SysNr::kFstat>(fd); }
  Result<Unit> mkdir(std::string_view path) { return call<SysNr::kMkdir>(path); }
  Result<Unit> unlink(std::string_view path) { return call<SysNr::kUnlink>(path); }
  Result<Unit> rmdir(std::string_view path) { return call<SysNr::kRmdir>(path); }
  Result<std::vector<std::string>> readdir(std::string_view path) {
    return call<SysNr::kReaddir>(path);
  }
  Result<Unit> rename(std::string_view from, std::string_view to) {
    return call<SysNr::kRename>(from, to);
  }
  Result<Unit> truncate(std::string_view path, u64 size) {
    return call<SysNr::kTruncate>(path, size);
  }
  Result<Unit> fsync() { return call<SysNr::kFsync>(); }
  // Reads into / writes from this process's own mapped memory.
  Result<u64> read_user(Fd fd, VAddr buffer, usize len) {
    return call<SysNr::kReadUser>(fd, buffer, len);
  }
  Result<u64> write_user(Fd fd, VAddr buffer, usize len) {
    return call<SysNr::kWriteUser>(fd, buffer, len);
  }
  // Creates a pipe; returns (read_fd, write_fd).
  Result<FdPair> pipe_create() { return call<SysNr::kPipeCreate>(); }

  // --- Memory ----------------------------------------------------------------
  Result<VAddr> mmap(u64 length, bool writable, bool lazy = false) {
    return call<SysNr::kMmap>(length, writable, lazy);
  }
  Result<Unit> munmap(VAddr base) { return call<SysNr::kMunmap>(base); }

  // --- Processes ---------------------------------------------------------------
  Result<Pid> spawn() { return call<SysNr::kSpawn>(); }
  Result<i32> waitpid(Pid child) {  // kWouldBlock while running
    auto code = call<SysNr::kWaitPid>(child);
    return code.ok() ? Result<i32>(static_cast<i32>(code.value())) : code.error();
  }
  Result<Unit> exit_proc(i32 code) { return call<SysNr::kExit>(code); }
  Result<Unit> kill(Pid target, u32 signal) { return call<SysNr::kKill>(target, signal); }
  Result<u32> take_signal() { return call<SysNr::kTakeSignal>(); }

  // --- Futex -------------------------------------------------------------------
  Result<Unit> futex_wait(VAddr uaddr, u32 expected, Tid tid) {
    return call<SysNr::kFutexWait>(uaddr, expected, tid);
  }
  Result<u64> futex_wake(VAddr uaddr, usize count) {
    return call<SysNr::kFutexWake>(uaddr, count);
  }

  // --- Network ------------------------------------------------------------------
  Result<Fd> udp_socket() { return call<SysNr::kUdpSocket>(); }
  Result<Unit> udp_bind(Fd fd, Port port) { return call<SysNr::kUdpBind>(fd, port); }
  Result<Unit> udp_sendto(Fd fd, NetAddr dst, Port dst_port, std::span<const u8> data) {
    return call<SysNr::kUdpSendTo>(fd, dst, dst_port, data);
  }
  Result<Datagram> udp_recvfrom(Fd fd) { return call<SysNr::kUdpRecvFrom>(fd); }
  // VTP stream sockets. vtp_send returns how many bytes the transport
  // accepted (partial under backpressure, kWouldBlock when none fit);
  // vtp_accept/vtp_recv return kWouldBlock while nothing is ready — all
  // three park cleanly when submitted through a ring. vtp_connect with
  // src_port 0 takes an unused ephemeral port; an explicit src_port whose
  // (dst, dst_port, src_port) tuple is already live fails kAlreadyExists.
  // vtp_listen refuses a backlog above kMaxVtpBacklog.
  Result<Fd> vtp_listen(Port port, usize backlog = 16) {
    return call<SysNr::kVtpListen>(port, backlog);
  }
  Result<Fd> vtp_connect(NetAddr dst, Port dst_port, Port src_port) {
    return call<SysNr::kVtpConnect>(dst, dst_port, src_port);
  }
  Result<Fd> vtp_accept(Fd listener) { return call<SysNr::kVtpAccept>(listener); }
  Result<u64> vtp_send(Fd fd, std::span<const u8> data) { return call<SysNr::kVtpSend>(fd, data); }
  Result<std::vector<u8>> vtp_recv(Fd fd, usize max_len) {
    return call<SysNr::kVtpRecv>(fd, max_len);
  }
  Result<Unit> vtp_close(Fd fd) { return call<SysNr::kVtpClose>(fd); }

  // --- Console ---------------------------------------------------------------------
  Result<Unit> console_write(std::string_view text) { return call<SysNr::kConsoleWrite>(text); }

  // --- Async rings -------------------------------------------------------------------
  // io_uring-shaped submission/completion queues (src/kernel/ring.h): setup
  // returns a ring id; submit accepts a prefix of the batch bounded by free
  // SQ slots (typed kWouldBlock when none fits); wait reaps up to max_reap
  // completions, parking on the scheduler when fewer than min_complete are
  // ready and `tid` is nonzero (kWouldBlock signals the park — nothing
  // reaped). Build each RingSqe with ring_sqe<SysNr::k...>.
  Result<u32> ring_setup(u32 sq_slots, u32 cq_slots) {
    return call<SysNr::kRingSetup>(sq_slots, cq_slots);
  }
  Result<u32> ring_submit(u32 ring_id, std::span<const RingSqe> entries) {
    return call<SysNr::kRingSubmit>(ring_id, entries);
  }
  Result<std::vector<RingCqe>> ring_wait(u32 ring_id, u32 min_complete, u32 max_reap,
                                         Tid tid = 0) {
    return call<SysNr::kRingWait>(ring_id, min_complete, max_reap, tid);
  }

  // --- Introspection ----------------------------------------------------------------
  // Reads one of the kernel's contract counters by stable name (e.g.
  // "fs/fsyncs"); kNotFound for names outside the published table. The value
  // is monotone in program order: a kstat read is never less than an earlier
  // read of the same name (obs/kstat_refinement VC).
  Result<u64> kstat(std::string_view name) { return call<SysNr::kKstat>(name); }
  // Enumerates every published counter name.
  Result<std::vector<std::string>> kstat_list() { return call<SysNr::kKstatList>(); }

 private:
  // Sends syscall N's frame through the dispatcher and decodes its reply.
  template <SysNr N, typename... A>
  Result<SysReply<N>> call(A&&... args) {
    std::vector<u8> reply = dispatcher_.handle(pid_, core_, sys_frame<N>(std::forward<A>(args)...));
    Reader r(reply);
    auto err = wire_get<u32>(r);
    if (!err) {
      return ErrorCode::kCorrupted;  // kernel reply must at least carry an error word
    }
    return sys_reply<N>(static_cast<ErrorCode>(*err), std::span<const u8>(reply).subspan(4));
  }

  SyscallDispatcher& dispatcher_;
  Pid pid_;
  CoreId core_;
};

}  // namespace vnros

#endif  // VNROS_SRC_KERNEL_SYSCALL_H_
