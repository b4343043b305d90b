// Edge-case tests for the SysRing submission/completion queues (src/kernel/
// ring.cc): backpressure when the SQ fills, accounted CQ overflow with no
// completion loss, wait semantics with nothing pending, kernel-side parking
// of a waiting thread, non-fs opcodes (vtp) through the ring, cancel-on-close
// of parked ops, the readiness-driven reactor's re-execution tripwire, and a
// two-thread run for TSan. The refinement, exactly-once and no-lost-wakeup
// properties live in the kernel/ring_* VCs (src/kernel/kernel_vcs.cc); these
// tests pin the directed corners.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/kernel/machine.h"
#include "src/kernel/ring.h"
#include "src/kernel/syscall.h"

namespace vnros {
namespace {

std::vector<u8> bytes(std::string_view s) { return std::vector<u8>(s.begin(), s.end()); }

// ring_sqe takes exactly the arguments of the syscall it names, and only for
// ring-submittable syscalls: anything else does not compile.
template <SysNr N, typename... A>
concept SqeBuilds = requires(u64 user_data, A... args) { ring_sqe<N>(user_data, args...); };
static_assert(SqeBuilds<SysNr::kVtpSend, Fd, std::span<const u8>>);
static_assert(!SqeBuilds<SysNr::kVtpRecv, Fd, std::span<const u8>>);
static_assert(SqeBuilds<SysNr::kVtpRecv, Fd, u64>);
static_assert(!SqeBuilds<SysNr::kRingSetup, u32, u32>);

// One machine; each test runs as its process (`sys`, `pid`).
class RingSysTest : public ::testing::Test, protected Machine {
 protected:
  // A bound UDP socket whose queue is empty: recvfrom through the ring parks.
  Fd bound_socket(Port port) {
    auto sock = sys.udp_socket();
    EXPECT_TRUE(sock.ok());
    EXPECT_TRUE(sys.udp_bind(sock.value(), port).ok());
    return sock.value();
  }

  RingSqe recv_sqe(u64 ud, Fd sock) { return ring_sqe<SysNr::kUdpRecvFrom>(ud, sock); }

  // Ticks the (loopback) stack until a synchronous accept on `listener`
  // returns a stream.
  Fd accept_stream(Fd listener) {
    for (int i = 0; i < 200; ++i) {
      kernel.vtp().tick();
      auto acc = sys.vtp_accept(listener);
      if (acc.ok()) {
        return acc.value();
      }
    }
    ADD_FAILURE() << "handshake did not complete";
    return kInvalidFd;
  }
};

TEST_F(RingSysTest, SqFullReturnsTypedWouldBlock) {
  auto ring = sys.ring_setup(2, 8);
  ASSERT_TRUE(ring.ok());
  Fd sock = bound_socket(6100);
  // Two parked recvs occupy both SQ slots.
  std::vector<RingSqe> fill = {recv_sqe(1, sock), recv_sqe(2, sock)};
  ASSERT_EQ(sys.ring_submit(ring.value(), fill).value(), 2u);
  u64 sq_full_before = kernel.rings().sq_full();
  RingSqe extra = recv_sqe(3, sock);
  auto r = sys.ring_submit(ring.value(), std::span<const RingSqe>(&extra, 1));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), ErrorCode::kWouldBlock);
  EXPECT_EQ(kernel.rings().sq_full(), sq_full_before + 1);
}

TEST_F(RingSysTest, PartialPrefixAcceptedWhenSqFillsMidBatch) {
  auto ring = sys.ring_setup(2, 8);
  ASSERT_TRUE(ring.ok());
  Fd sock = bound_socket(6101);
  // A 3-entry batch into 2 slots: the accepted count reports the prefix that
  // made it in; the tail was never enqueued (typed backpressure, not loss).
  std::vector<RingSqe> batch = {recv_sqe(1, sock), recv_sqe(2, sock), recv_sqe(3, sock)};
  auto accepted = sys.ring_submit(ring.value(), batch);
  ASSERT_TRUE(accepted.ok());
  EXPECT_EQ(accepted.value(), 2u);
  EXPECT_EQ(kernel.rings().in_flight(pid, ring.value()), 2u);
}

TEST_F(RingSysTest, CqOverflowIsAccountedAndLossFree) {
  auto ring = sys.ring_setup(8, 2);
  ASSERT_TRUE(ring.ok());
  auto fd = sys.open("/f", kOpenCreate);
  ASSERT_TRUE(fd.ok());
  // Four immediately-completing writes against a 2-slot CQ: two completions
  // spill to the accounted overflow list.
  std::vector<RingSqe> batch;
  for (u64 i = 1; i <= 4; ++i) {
    batch.push_back(ring_sqe<SysNr::kWrite>(i, fd.value(), bytes("x")));
  }
  u64 overflows_before = kernel.rings().cq_overflows();
  ASSERT_EQ(sys.ring_submit(ring.value(), batch).value(), 4u);
  EXPECT_EQ(kernel.rings().cq_overflows(), overflows_before + 2);
  // No completion is lost and FIFO order survives the spill.
  auto cqes = sys.ring_wait(ring.value(), 0, 16);
  ASSERT_TRUE(cqes.ok());
  ASSERT_EQ(cqes.value().size(), 4u);
  for (u64 i = 0; i < 4; ++i) {
    EXPECT_EQ(cqes.value()[i].user_data, i + 1);
    EXPECT_EQ(static_cast<ErrorCode>(cqes.value()[i].err), ErrorCode::kOk);
  }
}

TEST_F(RingSysTest, WaitWithNothingPendingReturnsImmediately) {
  auto ring = sys.ring_setup(8, 8);
  ASSERT_TRUE(ring.ok());
  // min_complete > 0 but no op in flight: the wait must not park (there is
  // nothing that could ever complete) — it returns an empty reap.
  auto cqes = sys.ring_wait(ring.value(), 1, 4, /*tid=*/42);
  ASSERT_TRUE(cqes.ok());
  EXPECT_TRUE(cqes.value().empty());
}

TEST_F(RingSysTest, WaitParksThreadUntilCompletionWakesIt) {
  auto ring = sys.ring_setup(8, 8);
  ASSERT_TRUE(ring.ok());
  Fd sock = bound_socket(6102);
  RingSqe sqe = recv_sqe(9, sock);
  ASSERT_EQ(sys.ring_submit(ring.value(), std::span<const RingSqe>(&sqe, 1)).value(), 1u);

  // Register a schedulable thread so the wait has something to park.
  constexpr Tid kTid = 77;
  ThreadToken tok = kernel.sched().register_core(0);
  ASSERT_EQ(kernel.sched().add_thread(tok, kTid, pid, /*priority=*/1, /*affinity=*/0),
            ErrorCode::kOk);
  auto blocked = sys.ring_wait(ring.value(), 1, 4, kTid);
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.error(), ErrorCode::kWouldBlock);
  EXPECT_EQ(kernel.sched().thread_state(tok, kTid).value(), ThreadState::kBlocked);

  // A datagram lands; the next reactor pass completes the recv and wakes the
  // parked waiter instead of leaving it blocked forever.
  ASSERT_TRUE(sys.udp_sendto(sock, kernel.net_addr(), 6102, bytes("ping")).ok());
  auto cqes = sys.ring_wait(ring.value(), 1, 4, /*tid=*/0);
  ASSERT_TRUE(cqes.ok());
  ASSERT_EQ(cqes.value().size(), 1u);
  EXPECT_EQ(cqes.value()[0].user_data, 9u);
  EXPECT_EQ(kernel.sched().thread_state(tok, kTid).value(), ThreadState::kReady);
}

TEST_F(RingSysTest, UnsupportedOpcodeCompletesWithTypedError) {
  auto ring = sys.ring_setup(8, 8);
  ASSERT_TRUE(ring.ok());
  // Ring ops themselves (and unknown numbers) are not ring-submittable: the
  // SQE is consumed and completes immediately with kUnsupported rather than
  // poisoning the queue or recursing into the ring table.
  std::vector<RingSqe> batch = {
      RingSqe{1, static_cast<u32>(SysNr::kRingSetup), {}},
      RingSqe{2, 9999, {}},
  };
  ASSERT_EQ(sys.ring_submit(ring.value(), batch).value(), 2u);
  auto cqes = sys.ring_wait(ring.value(), 0, 4);
  ASSERT_TRUE(cqes.ok());
  ASSERT_EQ(cqes.value().size(), 2u);
  for (const RingCqe& cqe : cqes.value()) {
    EXPECT_EQ(static_cast<ErrorCode>(cqe.err), ErrorCode::kUnsupported);
  }
}

TEST_F(RingSysTest, VtpSendAndRecvThroughRing) {
  // Handshake synchronously (the ring carries data ops, not connection setup).
  auto listener = sys.vtp_listen(80);
  ASSERT_TRUE(listener.ok());
  auto client = sys.vtp_connect(kernel.net_addr(), 80, 1234);
  ASSERT_TRUE(client.ok());
  Fd server = kInvalidFd;
  for (int i = 0; i < 200 && server == kInvalidFd; ++i) {
    kernel.vtp().tick();
    auto acc = sys.vtp_accept(listener.value());
    if (acc.ok()) {
      server = acc.value();
    }
  }
  ASSERT_NE(server, kInvalidFd) << "handshake did not complete";

  auto ring = sys.ring_setup(8, 8);
  ASSERT_TRUE(ring.ok());
  // Park the recv first, then send through the ring; the recv stays pending
  // across vtp ticks until the stream delivers.
  std::vector<RingSqe> batch = {
      ring_sqe<SysNr::kVtpRecv>(1, server, 64),
      ring_sqe<SysNr::kVtpSend>(2, client.value(), bytes("ring-stream")),
  };
  ASSERT_EQ(sys.ring_submit(ring.value(), batch).value(), 2u);
  std::vector<u8> got;
  bool send_done = false;
  for (int i = 0; i < 400 && (got.size() < 11 || !send_done); ++i) {
    kernel.vtp().tick();
    auto cqes = sys.ring_wait(ring.value(), 0, 4);
    ASSERT_TRUE(cqes.ok());
    for (RingCqe& cqe : cqes.value()) {
      ASSERT_EQ(static_cast<ErrorCode>(cqe.err), ErrorCode::kOk);
      if (cqe.user_data == 2) {
        send_done = true;
      } else {
        auto data = sys_reply<SysNr::kVtpRecv>(cqe);
        ASSERT_TRUE(data.ok());
        got.insert(got.end(), data.value().begin(), data.value().end());
        if (got.size() < 11) {
          // Re-arm the recv for the rest of the stream.
          RingSqe again = ring_sqe<SysNr::kVtpRecv>(1, server, 64);
          ASSERT_EQ(sys.ring_submit(ring.value(), std::span<const RingSqe>(&again, 1)).value(),
                    1u);
        }
      }
    }
  }
  EXPECT_TRUE(send_done);
  EXPECT_EQ(got, bytes("ring-stream"));
}

// The fd-reuse hazard: a recv parked on a stream fd that is closed, ahead of
// whose re-execution a parked accept recycles the fd number for the next
// stream. Closing completes the parked recv with kBadFd (the synchronous
// reply on a closed fd) on the spot, so the next stream's first bytes reach
// the recv armed on it, not the stale one.
TEST_F(RingSysTest, CloseCompletesParkedRecvBeforeItsFdIsReused) {
  auto listener = sys.vtp_listen(81);
  ASSERT_TRUE(listener.ok());
  auto first = sys.vtp_connect(kernel.net_addr(), 81, 2001);
  ASSERT_TRUE(first.ok());
  Fd stale = accept_stream(listener.value());
  ASSERT_NE(stale, kInvalidFd);

  auto ring = sys.ring_setup(8, 8);
  ASSERT_TRUE(ring.ok());
  std::vector<RingSqe> park = {
      ring_sqe<SysNr::kVtpAccept>(1, listener.value()),
      ring_sqe<SysNr::kVtpRecv>(2, stale, 64),
  };
  ASSERT_EQ(sys.ring_submit(ring.value(), park).value(), 2u);

  // The next stream connects and sends (its client end takes a new fd), the
  // stale stream closes, and the handshake lands — all before the reactor
  // runs again.
  auto second = sys.vtp_connect(kernel.net_addr(), 81, 2002);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(sys.vtp_send(second.value(), bytes("fresh")).ok());
  ASSERT_TRUE(sys.vtp_close(stale).ok());
  for (int i = 0; i < 4; ++i) {
    kernel.vtp().tick();
  }

  auto cqes = sys.ring_wait(ring.value(), 0, 8);
  ASSERT_TRUE(cqes.ok());
  ASSERT_EQ(cqes.value().size(), 2u);
  EXPECT_EQ(cqes.value()[0].user_data, 2u);
  EXPECT_EQ(static_cast<ErrorCode>(cqes.value()[0].err), ErrorCode::kBadFd);
  EXPECT_TRUE(cqes.value()[0].payload.empty());
  ASSERT_EQ(cqes.value()[1].user_data, 1u);
  ASSERT_EQ(static_cast<ErrorCode>(cqes.value()[1].err), ErrorCode::kOk);
  Fd reused = sys_reply<SysNr::kVtpAccept>(cqes.value()[1]).value();
  EXPECT_EQ(reused, stale) << "the accept should recycle the closed fd number";

  RingSqe recv = ring_sqe<SysNr::kVtpRecv>(3, reused, 64);
  ASSERT_EQ(sys.ring_submit(ring.value(), std::span<const RingSqe>(&recv, 1)).value(), 1u);
  auto got = sys.ring_wait(ring.value(), 0, 8);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.value().size(), 1u);
  EXPECT_EQ(got.value()[0].user_data, 3u);
  EXPECT_EQ(sys_reply<SysNr::kVtpRecv>(got.value()[0]).value(), bytes("fresh"));
}

// A close the reactor itself executes cancels the ops parked on the fd right
// after its own completion, before any later op in the pass runs.
TEST_F(RingSysTest, RingSubmittedCloseCancelsParkedOpsAfterItself) {
  auto listener = sys.vtp_listen(82);
  ASSERT_TRUE(listener.ok());
  ASSERT_TRUE(sys.vtp_connect(kernel.net_addr(), 82, 2003).ok());
  Fd stream = accept_stream(listener.value());
  ASSERT_NE(stream, kInvalidFd);
  Fd sock = bound_socket(6104);

  auto ring = sys.ring_setup(8, 8);
  ASSERT_TRUE(ring.ok());
  std::vector<RingSqe> park = {
      ring_sqe<SysNr::kVtpRecv>(1, stream, 64),
      recv_sqe(2, sock),
  };
  ASSERT_EQ(sys.ring_submit(ring.value(), park).value(), 2u);
  std::vector<RingSqe> close = {
      ring_sqe<SysNr::kClose>(3, stream),
      ring_sqe<SysNr::kClose>(4, sock),
  };
  ASSERT_EQ(sys.ring_submit(ring.value(), close).value(), 2u);
  auto cqes = sys.ring_wait(ring.value(), 0, 8);
  ASSERT_TRUE(cqes.ok());
  std::vector<std::pair<u64, ErrorCode>> got;
  for (const RingCqe& cqe : cqes.value()) {
    got.emplace_back(cqe.user_data, static_cast<ErrorCode>(cqe.err));
  }
  std::vector<std::pair<u64, ErrorCode>> want = {{3, ErrorCode::kOk},
                                                 {1, ErrorCode::kBadFd},
                                                 {4, ErrorCode::kOk},
                                                 {2, ErrorCode::kBadFd}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(kernel.rings().in_flight(pid, ring.value()), 0u);
}

// Send-side readiness: a vtp_send parked on a full send buffer runs again
// once ACKs free space in it, and not before.
TEST_F(RingSysTest, ParkedSendWakesWhenAcksFreeBufferSpace) {
  auto listener = sys.vtp_listen(83);
  ASSERT_TRUE(listener.ok());
  auto client = sys.vtp_connect(kernel.net_addr(), 83, 2004);
  ASSERT_TRUE(client.ok());
  Fd server = accept_stream(listener.value());
  ASSERT_NE(server, kInvalidFd);
  // The server reads nothing, so its window closes and the client's send
  // buffer fills.
  const std::vector<u8> blob(64 * 1024, 0xAB);
  bool full = false;
  for (int i = 0; i < 64 && !full; ++i) {
    auto n = sys.vtp_send(client.value(), blob);
    full = !n.ok();
    if (full) {
      ASSERT_EQ(n.error(), ErrorCode::kWouldBlock);
    }
    kernel.vtp().tick();
  }
  ASSERT_TRUE(full);

  auto ring = sys.ring_setup(4, 4);
  ASSERT_TRUE(ring.ok());
  RingSqe send = ring_sqe<SysNr::kVtpSend>(1, client.value(), bytes("tail"));
  ASSERT_EQ(sys.ring_submit(ring.value(), std::span<const RingSqe>(&send, 1)).value(), 1u);
  for (int i = 0; i < 8; ++i) {
    kernel.vtp().tick();
    ASSERT_TRUE(sys.ring_wait(ring.value(), 0, 4).value().empty());
  }
  auto parked = kernel.rings().parked(pid, ring.value());
  ASSERT_EQ(parked.size(), 1u);
  EXPECT_EQ(parked[0].key.kind, WaitKey::Kind::kVtpSend);

  // Draining the server reopens its window; the ACKs that follow free the
  // client's buffer and wake the parked send.
  std::vector<RingCqe> done;
  for (int i = 0; i < 400 && done.empty(); ++i) {
    (void)sys.vtp_recv(server, 64 * 1024);
    kernel.vtp().tick();
    done = sys.ring_wait(ring.value(), 0, 4).value();
  }
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(sys_reply<SysNr::kVtpSend>(done[0]).value(), 4u);
}

// The reactor's tripwire: ops parked on idle sockets are never re-executed,
// however many passes run; one datagram re-executes exactly the one op
// parked on its port.
TEST_F(RingSysTest, ParkedOpsRunAgainOnlyWhenTheirSocketSignals) {
  constexpr usize kSockets = 1000;
  constexpr Port kBase = 20000;
  auto ring = sys.ring_setup(1024, 1024);
  ASSERT_TRUE(ring.ok());
  std::vector<Fd> socks;
  std::vector<RingSqe> batch;
  for (usize i = 0; i < kSockets; ++i) {
    socks.push_back(bound_socket(static_cast<Port>(kBase + i)));
    batch.push_back(recv_sqe(i + 1, socks.back()));
  }
  ASSERT_EQ(sys.ring_submit(ring.value(), batch).value(), kSockets);
  ASSERT_EQ(kernel.rings().in_flight(pid, ring.value()), kSockets);

  const u64 before = kernel.rings().parked_reexecs();
  for (int pass = 0; pass < 100; ++pass) {
    auto cqes = sys.ring_wait(ring.value(), 0, 16);
    ASSERT_TRUE(cqes.ok());
    ASSERT_TRUE(cqes.value().empty());
  }
  EXPECT_EQ(kernel.rings().parked_reexecs(), before);

  ASSERT_TRUE(sys.udp_sendto(socks[0], kernel.net_addr(), kBase + 500, bytes("one")).ok());
  auto cqes = sys.ring_wait(ring.value(), 0, 16);
  ASSERT_TRUE(cqes.ok());
  ASSERT_EQ(cqes.value().size(), 1u);
  EXPECT_EQ(cqes.value()[0].user_data, 501u);
  EXPECT_EQ(kernel.rings().parked_reexecs(), before + 1);
  EXPECT_EQ(kernel.rings().in_flight(pid, ring.value()), kSockets - 1);
}

// Lock order under real threads (the TSan stage runs this): one thread ticks
// and delivers into the server's VtpStack, which marks the readiness record
// from the rx path, while another drives reactor passes over a recv parked
// on the same stream. Every byte arrives, in order.
TEST(RingThreadsTest, TickerAndRingWaiterShareAStack) {
  Network net;
  Machine server({.network = &net});
  Machine client({.network = &net});
  Sys& ssys = server.sys;
  Sys& csys = client.sys;
  auto listener = ssys.vtp_listen(90);
  ASSERT_TRUE(listener.ok());
  auto conn = csys.vtp_connect(server.kernel.net_addr(), 90, 3000);
  ASSERT_TRUE(conn.ok());
  Fd stream = kInvalidFd;
  for (int i = 0; i < 200 && stream == kInvalidFd; ++i) {
    client.kernel.vtp().tick();
    server.kernel.vtp().tick();
    auto acc = ssys.vtp_accept(listener.value());
    if (acc.ok()) {
      stream = acc.value();
    }
  }
  ASSERT_NE(stream, kInvalidFd);
  auto ring = ssys.ring_setup(4, 8);
  ASSERT_TRUE(ring.ok());

  // No ASSERT between the thread's start and its join: a fatal failure
  // would return past the join.
  constexpr usize kChunks = 200;
  std::vector<u8> sent;
  std::atomic<bool> done{false};
  std::atomic<bool> send_failed{false};
  std::thread ticker([&] {
    for (usize i = 0; i < kChunks || !done.load(); ++i) {
      if (i < kChunks) {
        std::vector<u8> chunk(1 + i % 7, static_cast<u8>(i));
        auto n = csys.vtp_send(conn.value(), chunk);
        if (!n.ok() || n.value() != chunk.size()) {
          send_failed.store(true);
          return;
        }
        sent.insert(sent.end(), chunk.begin(), chunk.end());
      }
      client.kernel.vtp().tick();
      server.kernel.vtp().tick();
    }
  });
  usize total = 0;
  for (usize i = 0; i < kChunks; ++i) {
    total += 1 + i % 7;
  }
  std::vector<u8> got;
  bool ring_ok = true;
  bool armed = false;
  for (int spin = 0; spin < 2'000'000 && ring_ok && got.size() < total; ++spin) {
    if (!armed) {
      RingSqe sqe = ring_sqe<SysNr::kVtpRecv>(1, stream, 256);
      auto acc = ssys.ring_submit(ring.value(), std::span<const RingSqe>(&sqe, 1));
      ring_ok = acc.ok() && acc.value() == 1;
      armed = true;
    }
    auto cqes = ssys.ring_wait(ring.value(), 0, 4);
    ring_ok = ring_ok && cqes.ok();
    for (const RingCqe& cqe : ring_ok ? cqes.value() : std::vector<RingCqe>{}) {
      auto data = sys_reply<SysNr::kVtpRecv>(cqe);
      ring_ok = data.ok();
      if (ring_ok) {
        got.insert(got.end(), data.value().begin(), data.value().end());
      }
      armed = false;
    }
  }
  done.store(true);
  ticker.join();
  EXPECT_FALSE(send_failed.load());
  EXPECT_TRUE(ring_ok);
  EXPECT_EQ(got, sent);
}

TEST_F(RingSysTest, DestroyedProcessTearsDownItsRings) {
  auto ring = sys.ring_setup(4, 4);
  ASSERT_TRUE(ring.ok());
  Fd sock = bound_socket(6103);
  RingSqe sqe = recv_sqe(1, sock);
  ASSERT_EQ(sys.ring_submit(ring.value(), std::span<const RingSqe>(&sqe, 1)).value(), 1u);
  ASSERT_TRUE(sys.exit_proc(0).ok());
  // The ring died with the process: further waits see kNotFound, and the
  // parked op did not leak into the table.
  EXPECT_EQ(sys.ring_wait(ring.value(), 0, 4).error(), ErrorCode::kNotFound);
  EXPECT_EQ(kernel.rings().in_flight(pid, ring.value()), 0u);
}

}  // namespace
}  // namespace vnros
