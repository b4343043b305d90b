// The syscall layer: the paper's client application contract (§3), made
// executable.
//
// Every call crosses a real marshalling boundary: the user-side Sys facade
// serializes the syscall number and arguments into a byte frame
// (src/base/serde), the kernel-side SyscallDispatcher deserializes, checks,
// executes, and serializes the reply. This discharges, dynamically, the three
// obligations §3 names:
//   - marshalling: arguments/results round-trip the boundary byte-exactly
//     (kernel/marshal_* VCs cover every frame type);
//   - mapping: user buffers are reached through the process's verified page
//     table (read_user/write_user translate page-by-page);
//   - data-race freedom: each process's syscall state is guarded by a
//     BorrowCell — a concurrent conflicting entry trips a contract instead
//     of racing (the dynamic stand-in for Rust's unique &mut).
//
// The read() handler carries the paper's read_spec as an executable
// postcondition — see SyscallDispatcher::do_read.
#ifndef VNROS_SRC_KERNEL_SYSCALL_H_
#define VNROS_SRC_KERNEL_SYSCALL_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/base/fault.h"
#include "src/base/result.h"
#include "src/base/serde.h"
#include "src/kernel/kernel.h"
#include "src/spec/ownership.h"

namespace vnros {

// Syscall numbers (stable ABI).
enum class SysNr : u32 {
  kGetPid = 1,
  // Filesystem.
  kOpen = 10,
  kClose = 11,
  kRead = 12,
  kWrite = 13,
  kLseek = 14,
  kFstat = 15,
  kMkdir = 16,
  kUnlink = 17,
  kRmdir = 18,
  kReaddir = 19,
  kRename = 20,
  kTruncate = 21,
  kFsync = 22,
  kReadUser = 23,   // read into a user-space buffer (mapping obligation)
  kWriteUser = 24,  // write from a user-space buffer
  kPipeCreate = 25,
  // Virtual memory.
  kMmap = 30,
  kMunmap = 31,
  // Processes.
  kSpawn = 40,
  kWaitPid = 41,
  kExit = 42,
  kKill = 43,
  kTakeSignal = 44,
  // Futex.
  kFutexWait = 50,
  kFutexWake = 51,
  // Network: UDP.
  kUdpSocket = 60,
  kUdpBind = 61,
  kUdpSendTo = 62,
  kUdpRecvFrom = 63,
  // 70-75 belonged to a retired stream transport; never reassign them.
  // Console.
  kConsoleWrite = 80,
  // Introspection: the kernel's contract counters (read-only).
  kKstat = 90,
  kKstatList = 91,
  // Async submission/completion rings (src/kernel/ring.h).
  kRingSetup = 100,
  kRingSubmit = 101,
  kRingWait = 102,
  // Network: VTP (verified stream transport — windowed, AIMD, selective
  // retransmit; src/net/vtp.h). accept/send/recv are ring-submittable with
  // transient kWouldBlock parking.
  kVtpListen = 110,
  kVtpAccept = 111,
  kVtpConnect = 112,
  kVtpSend = 113,
  kVtpRecv = 114,
  kVtpClose = 115,
};

inline constexpr u32 kOpenCreate = 1u << 0;   // create if missing
inline constexpr u32 kOpenTrunc = 1u << 1;    // truncate to zero
inline constexpr u32 kOpenAppend = 1u << 2;   // start offset at EOF

enum class SeekWhence : u32 { kSet = 0, kCur = 1, kEnd = 2 };

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

  // Tears down a process's syscall state (fds) — called on exit.
  void destroy_process_state(Pid pid);

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

  ProcState& proc_state(Pid pid);
  // Allocates a descriptor: pops the free list, else extends next_fd.
  // Caller holds mu_.
  static Fd alloc_fd(ProcState& ps);
  // Returns a closed descriptor to the free list. Caller holds mu_.
  static void release_fd(ProcState& ps, Fd fd);
  // close / vtp_close: tears down the fd's object and retires the number.
  // Ring ops parked on a socket fd complete with kBadFd before the number
  // returns to the free list (SysRingTable::cancel). `vtp_only` restricts
  // the call to stream fds (vtp_close's contract).
  ErrorCode close_fd(Pid pid, CoreId core, Reader& args, bool vtp_only, RingExecNote* note);

  // The shared transition function: executes one syscall by number against
  // kernel state, appending the reply payload. Both the synchronous path
  // (handle) and the ring reactor (kernel_.rings()) dispatch through here,
  // so a ring-executed op refines the synchronous one by construction.
  // Fault-injection eligibility ("syscall/io_error", "syscall/no_memory")
  // is applied here, once per execution attempt. The reactor passes a
  // `note` for the handlers to report what an op parks on or closes; the
  // synchronous path passes none.
  ErrorCode exec_syscall(Pid pid, CoreId core, u32 nr, Reader& args, Writer& payload,
                         RingExecNote* note = nullptr);

  // Handlers append their reply payload to `reply` and return the ErrorCode.
  ErrorCode do_open(Pid pid, Reader& args, Writer& reply);
  ErrorCode do_read(Pid pid, Reader& args, Writer& reply);
  ErrorCode do_write(Pid pid, Reader& args, Writer& reply);
  ErrorCode do_lseek(Pid pid, Reader& args, Writer& reply);
  ErrorCode do_fstat(Pid pid, Reader& args, Writer& reply);
  ErrorCode do_readdir(Pid pid, Reader& args, Writer& reply);
  ErrorCode do_pipe_create(Pid pid, Reader& args, Writer& reply);
  ErrorCode do_read_user(Pid pid, Reader& args, Writer& reply);
  ErrorCode do_write_user(Pid pid, Reader& args, Writer& reply);
  ErrorCode do_mmap(Pid pid, Reader& args, Writer& reply);
  ErrorCode do_munmap(Pid pid, Reader& args, Writer& reply);
  ErrorCode do_spawn(Pid pid, CoreId core, Reader& args, Writer& reply);
  ErrorCode do_waitpid(Pid pid, CoreId core, Reader& args, Writer& reply);
  ErrorCode do_exit(Pid pid, CoreId core, Reader& args, Writer& reply);
  ErrorCode do_kill(Pid pid, CoreId core, Reader& args, Writer& reply);
  ErrorCode do_take_signal(Pid pid, CoreId core, Reader& args, Writer& reply);
  ErrorCode do_futex_wait(Pid pid, CoreId core, Reader& args, Writer& reply);
  ErrorCode do_futex_wake(Pid pid, CoreId core, Reader& args, Writer& reply);
  ErrorCode do_udp_socket(Pid pid, Reader& args, Writer& reply);
  ErrorCode do_udp_bind(Pid pid, Reader& args, Writer& reply);
  ErrorCode do_udp_sendto(Pid pid, Reader& args, Writer& reply);
  // The parkable handlers name the event a kWouldBlock waits on in `note`.
  ErrorCode do_udp_recvfrom(Pid pid, Reader& args, Writer& reply, RingExecNote* note);
  ErrorCode do_vtp_listen(Pid pid, Reader& args, Writer& reply);
  ErrorCode do_vtp_accept(Pid pid, Reader& args, Writer& reply, RingExecNote* note);
  ErrorCode do_vtp_connect(Pid pid, Reader& args, Writer& reply);
  ErrorCode do_vtp_send(Pid pid, Reader& args, Writer& reply, RingExecNote* note);
  ErrorCode do_vtp_recv(Pid pid, Reader& args, Writer& reply, RingExecNote* note);
  ErrorCode do_console_write(Pid pid, Reader& args, Writer& reply);
  ErrorCode do_kstat(Pid pid, Reader& args, Writer& reply);
  ErrorCode do_kstat_list(Pid pid, Reader& args, Writer& reply);
  ErrorCode do_ring_setup(Pid pid, Reader& args, Writer& reply);
  ErrorCode do_ring_submit(Pid pid, CoreId core, Reader& args, Writer& reply);
  ErrorCode do_ring_wait(Pid pid, CoreId core, Reader& args, Writer& reply);

  Kernel& kernel_;
  // Transient-error injection at the contract boundary: "syscall/io_error"
  // fails filesystem syscalls with kIoError, "syscall/no_memory" fails
  // mmap/spawn with kNoMemory — errors the §3 contract already allows, so
  // a correct application must tolerate them (and the chaos harness checks
  // that it does).
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
  Result<Fd> open(std::string_view path, u32 flags = 0);
  Result<Unit> close(Fd fd);
  // Reads up to `len` bytes at the fd's offset, advancing it (§3 read_spec).
  Result<std::vector<u8>> read(Fd fd, usize len);
  // Writes at the fd's offset, advancing it; returns bytes written.
  Result<u64> write(Fd fd, std::span<const u8> data);
  Result<u64> lseek(Fd fd, i64 delta, SeekWhence whence);
  Result<FileStat> fstat(Fd fd);
  Result<Unit> mkdir(std::string_view path);
  Result<Unit> unlink(std::string_view path);
  Result<Unit> rmdir(std::string_view path);
  Result<std::vector<std::string>> readdir(std::string_view path);
  Result<Unit> rename(std::string_view from, std::string_view to);
  Result<Unit> truncate(std::string_view path, u64 size);
  Result<Unit> fsync();
  // Reads into / writes from this process's own mapped memory.
  Result<u64> read_user(Fd fd, VAddr buffer, usize len);
  Result<u64> write_user(Fd fd, VAddr buffer, usize len);
  // Creates a pipe; returns (read_fd, write_fd).
  Result<std::pair<Fd, Fd>> pipe_create();

  // --- Memory ----------------------------------------------------------------
  Result<VAddr> mmap(u64 length, bool writable, bool lazy = false);
  Result<Unit> munmap(VAddr base);

  // --- Processes ---------------------------------------------------------------
  Result<Pid> spawn();
  Result<i32> waitpid(Pid child);   // kWouldBlock while running
  Result<Unit> exit_proc(i32 code);
  Result<Unit> kill(Pid target, u32 signal);
  Result<u32> take_signal();

  // --- Futex -------------------------------------------------------------------
  Result<Unit> futex_wait(VAddr uaddr, u32 expected, Tid tid);
  Result<u64> futex_wake(VAddr uaddr, usize count);

  // --- Network ------------------------------------------------------------------
  Result<Fd> udp_socket();
  Result<Unit> udp_bind(Fd fd, Port port);
  Result<Unit> udp_sendto(Fd fd, NetAddr dst, Port dst_port, std::span<const u8> data);
  Result<Datagram> udp_recvfrom(Fd fd);
  // VTP stream sockets. vtp_send returns how many bytes the transport
  // accepted (partial under backpressure, kWouldBlock when none fit);
  // vtp_accept/vtp_recv return kWouldBlock while nothing is ready — all
  // three park cleanly when submitted through a ring. vtp_connect with
  // src_port 0 takes an unused ephemeral port; an explicit src_port whose
  // (dst, dst_port, src_port) tuple is already live fails kAlreadyExists.
  Result<Fd> vtp_listen(Port port, usize backlog = 16);
  Result<Fd> vtp_connect(NetAddr dst, Port dst_port, Port src_port);
  Result<Fd> vtp_accept(Fd listener);
  Result<u64> vtp_send(Fd fd, std::span<const u8> data);
  Result<std::vector<u8>> vtp_recv(Fd fd, usize max_len);
  Result<Unit> vtp_close(Fd fd);

  // --- Console ---------------------------------------------------------------------
  Result<Unit> console_write(std::string_view text);

  // --- Async rings -------------------------------------------------------------------
  // io_uring-shaped submission/completion queues (src/kernel/ring.h): setup
  // returns a ring id; submit accepts a prefix of the batch bounded by free
  // SQ slots (typed kWouldBlock when none fits); wait reaps up to max_reap
  // completions, parking on the scheduler when fewer than min_complete are
  // ready and `tid` is nonzero (kWouldBlock signals the park — nothing
  // reaped). Args inside each RingSqe use the synchronous frame encoding
  // minus the leading nr word; see ring_args below.
  Result<u32> ring_setup(u32 sq_slots, u32 cq_slots);
  Result<u32> ring_submit(u32 ring_id, std::span<const RingSqe> entries);
  Result<std::vector<RingCqe>> ring_wait(u32 ring_id, u32 min_complete, u32 max_reap,
                                         Tid tid = 0);

  // --- Introspection ----------------------------------------------------------------
  // Reads one of the kernel's contract counters by stable name (e.g.
  // "fs/fsyncs"); kNotFound for names outside the published table. The value
  // is monotone in program order: a kstat read is never less than an earlier
  // read of the same name (obs/kstat_refinement VC).
  Result<u64> kstat(std::string_view name);
  // Enumerates every published counter name.
  Result<std::vector<std::string>> kstat_list();

 private:
  // Sends a frame, returns the reply reader payload (after the error word).
  Result<std::vector<u8>> invoke(Writer& frame);

  SyscallDispatcher& dispatcher_;
  Pid pid_;
  CoreId core_;
};

// Argument-frame builders for ring submissions: each returns the byte
// encoding the corresponding synchronous syscall uses after the nr word, so
// a RingSqe{user_data, nr, ring_args::...} is exactly the synchronous frame
// split at the nr boundary. Keeping these next to the Sys facade makes the
// marshalling obligation one definition, not two.
namespace ring_args {

inline std::vector<u8> open(std::string_view path, u32 flags = 0) {
  Writer w;
  w.put_string(path);
  w.put_u32(flags);
  return w.take();
}

inline std::vector<u8> close(Fd fd) {
  Writer w;
  w.put_u32(static_cast<u32>(fd));
  return w.take();
}

inline std::vector<u8> read(Fd fd, usize len) {
  Writer w;
  w.put_u32(static_cast<u32>(fd));
  w.put_u64(len);
  return w.take();
}

inline std::vector<u8> write(Fd fd, std::span<const u8> data) {
  Writer w;
  w.put_u32(static_cast<u32>(fd));
  w.put_bytes(data);
  return w.take();
}

inline std::vector<u8> fsync() { return {}; }

inline std::vector<u8> udp_sendto(Fd fd, NetAddr dst, Port dst_port, std::span<const u8> data) {
  Writer w;
  w.put_u32(static_cast<u32>(fd));
  w.put_u32(dst);
  w.put_u16(dst_port);
  w.put_bytes(data);
  return w.take();
}

inline std::vector<u8> udp_recvfrom(Fd fd) {
  Writer w;
  w.put_u32(static_cast<u32>(fd));
  return w.take();
}

inline std::vector<u8> vtp_accept(Fd listener) {
  Writer w;
  w.put_u32(static_cast<u32>(listener));
  return w.take();
}

inline std::vector<u8> vtp_send(Fd fd, std::span<const u8> data) {
  Writer w;
  w.put_u32(static_cast<u32>(fd));
  w.put_bytes(data);
  return w.take();
}

inline std::vector<u8> vtp_recv(Fd fd, usize max_len) {
  Writer w;
  w.put_u32(static_cast<u32>(fd));
  w.put_u64(max_len);
  return w.take();
}

}  // namespace ring_args

}  // namespace vnros

#endif  // VNROS_SRC_KERNEL_SYSCALL_H_
