// Syscall-layer tests: the client application contract as seen through the
// Sys facade — fd lifecycle, the read_spec semantics, marshalling hygiene,
// memory syscalls, process syscalls, futex syscalls, socket syscalls.
#include <gtest/gtest.h>

#include <string>

#include "src/kernel/fs.h"
#include "src/kernel/kernel.h"
#include "src/kernel/machine.h"
#include "src/kernel/syscall.h"

namespace vnros {
namespace {

std::vector<u8> bytes(std::string_view s) { return std::vector<u8>(s.begin(), s.end()); }

// One machine; each test runs as its process (`sys`, `pid`).
class SysTest : public ::testing::Test, protected Machine {};

// --- Files --------------------------------------------------------------------

TEST_F(SysTest, OpenMissingWithoutCreateFails) {
  EXPECT_EQ(sys.open("/nope", 0).error(), ErrorCode::kNotFound);
}

TEST_F(SysTest, OpenCreateWriteReadClose) {
  auto fd = sys.open("/f", kOpenCreate);
  ASSERT_TRUE(fd.ok());
  EXPECT_GE(fd.value(), 3);
  ASSERT_EQ(sys.write(fd.value(), bytes("hello world")).value(), 11u);
  (void)sys.lseek(fd.value(), 0, SeekWhence::kSet);
  auto r = sys.read(fd.value(), 5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), bytes("hello"));
  // Offset advanced: next read continues.
  r = sys.read(fd.value(), 100);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), bytes(" world"));
  ASSERT_TRUE(sys.close(fd.value()).ok());
  EXPECT_EQ(sys.read(fd.value(), 1).error(), ErrorCode::kBadFd);
}

TEST_F(SysTest, FdReuse) {
  // The descriptor table runs a LIFO free list (alloc_fd/release_fd): a
  // closed slot is handed to the very next allocation, so a long-lived
  // process's fd namespace stays bounded by its peak concurrent opens
  // instead of growing without bound. Safety is the kernel/sys_fd_reuse_safe
  // VC; this pins the directed behaviour.
  auto fd1 = sys.open("/a", kOpenCreate);
  ASSERT_TRUE(fd1.ok());
  ASSERT_EQ(sys.write(fd1.value(), bytes("AAA")).value(), 3u);
  ASSERT_TRUE(sys.close(fd1.value()).ok());
  EXPECT_EQ(sys.read(fd1.value(), 1).error(), ErrorCode::kBadFd);  // stale handle is dead
  auto fd2 = sys.open("/b", kOpenCreate);
  ASSERT_TRUE(fd2.ok());
  EXPECT_EQ(fd2.value(), fd1.value());  // LIFO reuse of the released slot
  // The recycled slot is a fresh OpenFile: offset 0, new file, no leakage
  // from the previous tenant.
  ASSERT_EQ(sys.write(fd2.value(), bytes("B")).value(), 1u);
  EXPECT_EQ(sys.fstat(fd2.value()).value().size, 1u);
  ASSERT_TRUE(sys.close(fd2.value()).ok());
  // Churn never grows the namespace: the same slot comes back every time.
  for (int i = 0; i < 64; ++i) {
    auto fd = sys.open("/churn", kOpenCreate);
    ASSERT_TRUE(fd.ok());
    EXPECT_EQ(fd.value(), fd1.value());
    ASSERT_TRUE(sys.close(fd.value()).ok());
  }
}

TEST_F(SysTest, OpenTruncAndAppend) {
  auto fd = sys.open("/f", kOpenCreate);
  (void)sys.write(fd.value(), bytes("0123456789"));
  (void)sys.close(fd.value());

  auto fd_app = sys.open("/f", kOpenAppend);
  ASSERT_TRUE(fd_app.ok());
  EXPECT_EQ(sys.lseek(fd_app.value(), 0, SeekWhence::kCur).value(), 10u);

  auto fd_trunc = sys.open("/f", kOpenTrunc);
  ASSERT_TRUE(fd_trunc.ok());
  EXPECT_EQ(sys.fstat(fd_trunc.value()).value().size, 0u);
}

TEST_F(SysTest, OpenCreateTruncJournalsOnlyWhatChanges) {
  // open(O_CREAT|O_TRUNC) journals a create for a new file and a truncate
  // only for a file that has bytes: truncating an empty file changes nothing.
  auto records = [&] { return sys.kstat("fs/journal_records").value(); };
  u64 before = records();
  auto fd = sys.open("/f", kOpenCreate | kOpenTrunc);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(records(), before + 1);  // the create
  ASSERT_TRUE(sys.close(fd.value()).ok());

  before = records();
  fd = sys.open("/f", kOpenCreate | kOpenTrunc);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(records(), before);  // an existing empty file: nothing to journal
  ASSERT_EQ(sys.write(fd.value(), bytes("abc")).value(), 3u);
  ASSERT_TRUE(sys.close(fd.value()).ok());

  before = records();
  fd = sys.open("/f", kOpenCreate | kOpenTrunc);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(records(), before + 1);  // the truncate
  EXPECT_EQ(sys.fstat(fd.value()).value().size, 0u);
}

TEST_F(SysTest, ZeroLengthWriteChangesNothing) {
  // POSIX write(2) with a count of 0 changes nothing: past EOF it neither
  // extends the file nor journals a record. Its checks still run, so a
  // missing path or a directory still fails.
  auto fd = sys.open("/f", kOpenCreate);
  ASSERT_TRUE(fd.ok());
  ASSERT_EQ(sys.lseek(fd.value(), 1000, SeekWhence::kSet).value(), 1000u);
  const u64 records = sys.kstat("fs/journal_records").value();
  EXPECT_EQ(sys.write(fd.value(), {}).value(), 0u);
  EXPECT_EQ(sys.fstat(fd.value()).value().size, 0u);
  EXPECT_EQ(sys.kstat("fs/journal_records").value(), records);
  ASSERT_TRUE(sys.mkdir("/d").ok());
  EXPECT_EQ(kernel.fs().write("/missing", 0, {}).error(), ErrorCode::kNotFound);
  EXPECT_EQ(kernel.fs().write("/d", 0, {}).error(), ErrorCode::kIsDirectory);
}

TEST_F(SysTest, FileSizeIsBounded) {
  // No file grows past kMaxFileBytes: a truncate or a write past it is
  // refused with kNoSpace before anything is journaled, and the file is left
  // as it was.
  auto fd = sys.open("/f", kOpenCreate);
  ASSERT_TRUE(fd.ok());
  ASSERT_EQ(sys.write(fd.value(), bytes("keep")).value(), 4u);
  const u64 records = sys.kstat("fs/journal_records").value();
  EXPECT_EQ(sys.truncate("/f", u64{1} << 62).error(), ErrorCode::kNoSpace);
  EXPECT_EQ(sys.truncate("/f", kMaxFileBytes + 1).error(), ErrorCode::kNoSpace);
  ASSERT_EQ(sys.lseek(fd.value(), i64{1} << 62, SeekWhence::kSet).value(), u64{1} << 62);
  EXPECT_EQ(sys.write(fd.value(), bytes("x")).error(), ErrorCode::kNoSpace);
  ASSERT_EQ(sys.lseek(fd.value(), static_cast<i64>(kMaxFileBytes), SeekWhence::kSet).value(),
            kMaxFileBytes);
  EXPECT_EQ(sys.write(fd.value(), bytes("x")).error(), ErrorCode::kNoSpace);
  // A direct write whose end would wrap past u64's range is refused too.
  EXPECT_EQ(kernel.fs().write("/f", ~u64{0} - 1, bytes("xy")).error(), ErrorCode::kNoSpace);
  EXPECT_EQ(sys.kstat("fs/journal_records").value(), records);
  EXPECT_EQ(sys.fstat(fd.value()).value().size, 4u);

  // The file keeps working: a write at offset 0 lands.
  ASSERT_EQ(sys.lseek(fd.value(), 0, SeekWhence::kSet).value(), 0u);
  ASSERT_EQ(sys.write(fd.value(), bytes("K")).value(), 1u);
  ASSERT_EQ(sys.lseek(fd.value(), 0, SeekWhence::kSet).value(), 0u);
  EXPECT_EQ(sys.read(fd.value(), 16).value(), bytes("Keep"));
}

TEST_F(SysTest, IndependentOffsetsPerFd) {
  auto a = sys.open("/f", kOpenCreate);
  (void)sys.write(a.value(), bytes("abcdef"));
  auto b = sys.open("/f", 0);
  auto rb = sys.read(b.value(), 3);
  EXPECT_EQ(rb.value(), bytes("abc"));
  (void)sys.lseek(a.value(), 0, SeekWhence::kSet);
  auto ra = sys.read(a.value(), 2);
  EXPECT_EQ(ra.value(), bytes("ab"));
  // b's offset unaffected by a's seek.
  rb = sys.read(b.value(), 3);
  EXPECT_EQ(rb.value(), bytes("def"));
}

TEST_F(SysTest, LseekWhences) {
  auto fd = sys.open("/f", kOpenCreate);
  (void)sys.write(fd.value(), bytes("0123456789"));
  EXPECT_EQ(sys.lseek(fd.value(), -3, SeekWhence::kEnd).value(), 7u);
  EXPECT_EQ(sys.lseek(fd.value(), 1, SeekWhence::kCur).value(), 8u);
  EXPECT_EQ(sys.lseek(fd.value(), 2, SeekWhence::kSet).value(), 2u);
  EXPECT_EQ(sys.lseek(fd.value(), -3, SeekWhence::kSet).error(), ErrorCode::kInvalidArgument);
}

TEST_F(SysTest, DirectoryOpsThroughSyscalls) {
  ASSERT_TRUE(sys.mkdir("/dir").ok());
  auto fd = sys.open("/dir/x", kOpenCreate);
  ASSERT_TRUE(fd.ok());
  auto names = sys.readdir("/dir");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value(), std::vector<std::string>{"x"});
  ASSERT_TRUE(sys.rename("/dir/x", "/dir/y").ok());
  ASSERT_TRUE(sys.unlink("/dir/y").ok());
  ASSERT_TRUE(sys.rmdir("/dir").ok());
  EXPECT_EQ(sys.open("/dir", 0).error(), ErrorCode::kNotFound);
}

TEST_F(SysTest, OpenDirectoryRejected) {
  ASSERT_TRUE(sys.mkdir("/d").ok());
  EXPECT_EQ(sys.open("/d", 0).error(), ErrorCode::kIsDirectory);
}

// --- Memory ------------------------------------------------------------------------

TEST_F(SysTest, MmapMunmap) {
  auto base = sys.mmap(2 * kPageSize, true);
  ASSERT_TRUE(base.ok());
  EXPECT_TRUE(base.value().is_page_aligned());
  ASSERT_TRUE(sys.munmap(base.value()).ok());
  EXPECT_EQ(sys.munmap(base.value()).error(), ErrorCode::kNotMapped);
}

TEST_F(SysTest, UserBufferIoThroughPageTable) {
  auto buf = sys.mmap(kPageSize, true);
  ASSERT_TRUE(buf.ok());
  auto fd = sys.open("/f", kOpenCreate);
  (void)sys.write(fd.value(), bytes("through the MMU"));
  (void)sys.lseek(fd.value(), 0, SeekWhence::kSet);
  auto n = sys.read_user(fd.value(), buf.value(), 15);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 15u);
  // Verify the bytes actually landed in the process's physical frames.
  Process* proc = kernel.procs().get(pid);
  std::vector<u8> check(15);
  ASSERT_TRUE(proc->vm().copy_in(buf.value(), check).ok());
  EXPECT_EQ(check, bytes("through the MMU"));
}

TEST_F(SysTest, ReadUserIntoUnmappedFails) {
  auto fd = sys.open("/f", kOpenCreate);
  (void)sys.write(fd.value(), bytes("data"));
  (void)sys.lseek(fd.value(), 0, SeekWhence::kSet);
  EXPECT_EQ(sys.read_user(fd.value(), VAddr{0xDEAD000}, 4).error(), ErrorCode::kNotMapped);
}

// --- Processes -----------------------------------------------------------------------

TEST_F(SysTest, SpawnWaitExit) {
  auto child = sys.spawn();
  ASSERT_TRUE(child.ok());
  EXPECT_EQ(sys.waitpid(child.value()).error(), ErrorCode::kWouldBlock);
  Sys child_sys(disp, child.value(), 1);
  ASSERT_TRUE(child_sys.exit_proc(17).ok());
  EXPECT_EQ(sys.waitpid(child.value()).value(), 17);
  EXPECT_EQ(sys.waitpid(child.value()).error(), ErrorCode::kNotFound);
}

TEST_F(SysTest, ExitAndSigkillReleaseSockets) {
  // A process's sockets die with it: exit and SIGKILL close every fd as
  // close does, so its ports can be bound again and its streams end.
  auto listener = sys.vtp_listen(80);
  ASSERT_TRUE(listener.ok());
  auto child = sys.spawn();
  ASSERT_TRUE(child.ok());
  Sys child_sys(disp, child.value(), 1);
  auto udp = child_sys.udp_socket();
  ASSERT_TRUE(child_sys.udp_bind(udp.value(), 9000).ok());
  ASSERT_TRUE(child_sys.vtp_listen(9001).ok());
  ASSERT_TRUE(child_sys.vtp_connect(kernel.net_addr(), 80, 1234).ok());
  Fd server = kInvalidFd;
  for (int i = 0; i < 200 && server == kInvalidFd; ++i) {
    kernel.vtp().tick();
    auto acc = sys.vtp_accept(listener.value());
    if (acc.ok()) {
      server = acc.value();
    }
  }
  ASSERT_NE(server, kInvalidFd) << "handshake did not complete";

  ASSERT_TRUE(child_sys.exit_proc(0).ok());
  auto mine = sys.udp_socket();
  EXPECT_TRUE(sys.udp_bind(mine.value(), 9000).ok());
  EXPECT_TRUE(sys.vtp_listen(9001).ok());
  ErrorCode end = ErrorCode::kWouldBlock;
  for (int i = 0; i < 200 && end == ErrorCode::kWouldBlock; ++i) {
    kernel.vtp().tick();
    end = sys.vtp_recv(server, 64).error();
  }
  EXPECT_EQ(end, ErrorCode::kPipeClosed) << "the exited child's stream stayed open";

  auto victim = sys.spawn();
  ASSERT_TRUE(victim.ok());
  Sys victim_sys(disp, victim.value(), 1);
  auto held = victim_sys.udp_socket();
  ASSERT_TRUE(victim_sys.udp_bind(held.value(), 9100).ok());
  ASSERT_TRUE(sys.kill(victim.value(), kSigKill).ok());
  auto again = sys.udp_socket();
  EXPECT_TRUE(sys.udp_bind(again.value(), 9100).ok());
}

TEST_F(SysTest, KillAndSignals) {
  auto child = sys.spawn();
  ASSERT_TRUE(sys.kill(child.value(), kSigTerm).ok());
  Sys child_sys(disp, child.value(), 1);
  EXPECT_EQ(child_sys.take_signal().value(), kSigTerm);
  EXPECT_EQ(child_sys.take_signal().value(), 0u);
  ASSERT_TRUE(sys.kill(child.value(), kSigKill).ok());
  EXPECT_EQ(sys.waitpid(child.value()).value(), -9);
}

// --- Futex ------------------------------------------------------------------------------

TEST_F(SysTest, FutexSyscalls) {
  auto word_region = sys.mmap(kPageSize, true);
  ASSERT_TRUE(word_region.ok());
  VAddr uaddr = word_region.value();
  Process* proc = kernel.procs().get(pid);
  ASSERT_TRUE(proc->vm().write_u32(uaddr, 5).ok());

  // Register a simulated thread, then wait on the futex word.
  auto sched_tok = kernel.sched().register_core(0);
  (void)kernel.sched().add_thread(sched_tok, 77, pid, 1, 0);
  ASSERT_TRUE(sys.futex_wait(uaddr, 5, 77).ok());
  EXPECT_EQ(kernel.sched().thread_state(sched_tok, 77).value(), ThreadState::kBlocked);
  EXPECT_EQ(sys.futex_wake(uaddr, 1).value(), 1u);
  EXPECT_NE(kernel.sched().thread_state(sched_tok, 77).value(), ThreadState::kBlocked);
  // Mismatched expectation does not block.
  EXPECT_EQ(sys.futex_wait(uaddr, 6, 77).error(), ErrorCode::kWouldBlock);
}

// --- Sockets -------------------------------------------------------------------------------

TEST_F(SysTest, UdpLoopbackBetweenProcesses) {
  auto p2 = Sys(disp, kInvalidPid, 0).spawn();
  Sys other(disp, p2.value(), 1);

  auto server = other.udp_socket();
  ASSERT_TRUE(other.udp_bind(server.value(), 5000).ok());
  auto client = sys.udp_socket();
  ASSERT_TRUE(sys.udp_sendto(client.value(), kernel.net_addr(), 5000, bytes("ping")).ok());
  auto dgram = other.udp_recvfrom(server.value());
  ASSERT_TRUE(dgram.ok());
  EXPECT_EQ(dgram.value().payload, bytes("ping"));
  // Reply to the ephemeral source port.
  ASSERT_TRUE(other
                  .udp_sendto(server.value(), dgram.value().src_addr, dgram.value().src_port,
                              bytes("pong"))
                  .ok());
  auto reply = sys.udp_recvfrom(client.value());
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().payload, bytes("pong"));
}

TEST_F(SysTest, UdpDoubleBindRejected) {
  auto a = sys.udp_socket();
  auto b = sys.udp_socket();
  ASSERT_TRUE(sys.udp_bind(a.value(), 6000).ok());
  EXPECT_EQ(sys.udp_bind(b.value(), 6000).error(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(sys.udp_bind(a.value(), 6001).error(), ErrorCode::kAlreadyExists);
}

TEST_F(SysTest, VtpStreamOverLoopback) {
  auto listener = sys.vtp_listen(80);
  ASSERT_TRUE(listener.ok());
  auto client = sys.vtp_connect(kernel.net_addr(), 80, 1234);
  ASSERT_TRUE(client.ok());
  // A second connection on the live tuple would alias the first.
  EXPECT_EQ(sys.vtp_connect(kernel.net_addr(), 80, 1234).error(), ErrorCode::kAlreadyExists);
  // Pump the protocol until the handshake completes.
  Fd server = kInvalidFd;
  for (int i = 0; i < 200 && server == kInvalidFd; ++i) {
    kernel.vtp().tick();
    auto acc = sys.vtp_accept(listener.value());
    if (acc.ok()) {
      server = acc.value();
    }
  }
  ASSERT_NE(server, kInvalidFd) << "handshake did not complete";
  auto sent = sys.vtp_send(client.value(), bytes("stream-data"));
  ASSERT_TRUE(sent.ok());
  EXPECT_EQ(sent.value(), 11u);
  ASSERT_TRUE(sys.vtp_close(client.value()).ok());  // the FIN queues behind the data
  std::vector<u8> got;
  for (int i = 0; i < 200 && got.size() < 11; ++i) {
    kernel.vtp().tick();
    auto r = sys.vtp_recv(server, 64);
    if (r.ok()) {
      got.insert(got.end(), r.value().begin(), r.value().end());
    }
  }
  EXPECT_EQ(got, bytes("stream-data"));
  kernel.vtp().tick();
  EXPECT_EQ(sys.vtp_recv(server, 64).error(), ErrorCode::kPipeClosed);
}

// --- Console & pid ------------------------------------------------------------------------------

TEST_F(SysTest, ConsoleWrite) {
  ASSERT_TRUE(sys.console_write("boot: ").ok());
  ASSERT_TRUE(sys.console_write("ok\n").ok());
  EXPECT_EQ(kernel.console().contents(), "boot: ok\n");
}


// --- Pipes ---------------------------------------------------------------------------------

TEST_F(SysTest, PipeBasicTransfer) {
  auto ends = sys.pipe_create();
  ASSERT_TRUE(ends.ok());
  auto [rfd, wfd] = ends.value();
  EXPECT_EQ(sys.write(wfd, bytes("through the pipe")).value(), 16u);
  EXPECT_EQ(sys.read(rfd, 7).value(), bytes("through"));
  EXPECT_EQ(sys.read(rfd, 100).value(), bytes(" the pipe"));
  EXPECT_EQ(sys.read(rfd, 1).error(), ErrorCode::kWouldBlock);
}

TEST_F(SysTest, PipeEofAfterWriterClose) {
  auto ends = sys.pipe_create();
  auto [rfd, wfd] = ends.value();
  (void)sys.write(wfd, bytes("tail"));
  ASSERT_TRUE(sys.close(wfd).ok());
  EXPECT_EQ(sys.read(rfd, 10).value(), bytes("tail"));
  auto eof = sys.read(rfd, 10);
  ASSERT_TRUE(eof.ok());
  EXPECT_TRUE(eof.value().empty());
}

TEST_F(SysTest, PipeEpipeAfterReaderClose) {
  auto ends = sys.pipe_create();
  auto [rfd, wfd] = ends.value();
  ASSERT_TRUE(sys.close(rfd).ok());
  EXPECT_EQ(sys.write(wfd, bytes("x")).error(), ErrorCode::kPipeClosed);
}

TEST_F(SysTest, PipeFdsAreProcessLocal) {
  auto ends = sys.pipe_create();
  auto [rfd, wfd] = ends.value();
  (void)wfd;
  auto p2 = Sys(disp, kInvalidPid, 0).spawn();
  Sys other(disp, p2.value(), 1);
  EXPECT_EQ(other.read(rfd, 1).error(), ErrorCode::kBadFd);
}

// --- Marshalling hygiene -----------------------------------------------------------------------

TEST_F(SysTest, UnknownSyscallNumberRejected) {
  Writer w;
  w.put_u32(9999);
  auto reply = disp.handle(pid, 0, w.bytes());
  Reader r(reply);
  EXPECT_EQ(static_cast<ErrorCode>(*r.get_u32()), ErrorCode::kUnsupported);
}

TEST_F(SysTest, EmptyFrameRejected) {
  auto reply = disp.handle(pid, 0, {});
  Reader r(reply);
  EXPECT_EQ(static_cast<ErrorCode>(*r.get_u32()), ErrorCode::kInvalidArgument);
}

TEST_F(SysTest, TrailingGarbageRejected) {
  // Frames are exact, also for syscalls that take no arguments: one byte past
  // them is malformed.
  for (SysNr nr : {SysNr::kFsync, SysNr::kGetPid}) {
    Writer w;
    w.put_u32(static_cast<u32>(nr));
    w.put_u8(0xFF);
    auto reply = disp.handle(pid, 0, w.bytes());
    Reader r(reply);
    EXPECT_EQ(static_cast<ErrorCode>(r.get_u32().value()), ErrorCode::kInvalidArgument);
    EXPECT_TRUE(r.exhausted());
  }
  // The same fsync arguments as a ring SQE (getpid is not ring-submittable).
  auto ring = sys.ring_setup(1, 1);
  ASSERT_TRUE(ring.ok());
  RingSqe sqe{7, static_cast<u32>(SysNr::kFsync), {0xFF}};
  ASSERT_EQ(sys.ring_submit(ring.value(), std::span<const RingSqe>(&sqe, 1)).value(), 1u);
  auto cqes = sys.ring_wait(ring.value(), 0, 1);
  ASSERT_TRUE(cqes.ok());
  ASSERT_EQ(cqes.value().size(), 1u);
  EXPECT_EQ(static_cast<ErrorCode>(cqes.value()[0].err), ErrorCode::kInvalidArgument);
}

TEST_F(SysTest, VtpListenBacklogIsBounded) {
  // The backlog is the only bound on a listener's queued and half-open
  // connections, so the syscall boundary refuses an unbounded one.
  EXPECT_EQ(sys.vtp_listen(90, ~u64{0}).error(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(sys.vtp_listen(90, kMaxVtpBacklog + 1).error(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(sys.vtp_listen(90, kMaxVtpBacklog).ok());
}

}  // namespace
}  // namespace vnros
