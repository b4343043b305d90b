// Edge-case tests for the SysRing submission/completion queues (src/kernel/
// ring.cc): backpressure when the SQ fills, accounted CQ overflow with no
// completion loss, wait semantics with nothing pending, kernel-side parking
// of a waiting thread, and non-fs opcodes (vtp) through the ring. The
// refinement and exactly-once properties live in the kernel/ring_* VCs
// (src/kernel/kernel_vcs.cc); these tests pin the directed corners.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/kernel/ring.h"
#include "src/kernel/syscall.h"
#include "src/obs/counter.h"

namespace vnros {
namespace {

std::vector<u8> bytes(std::string_view s) { return std::vector<u8>(s.begin(), s.end()); }

class RingSysTest : public ::testing::Test {
 protected:
  RingSysTest() : disp(kernel), boot(disp, kInvalidPid, 0), pid(spawn()), sys(disp, pid, 0) {}

  Pid spawn() {
    auto p = boot.spawn();
    EXPECT_TRUE(p.ok());
    return p.value();
  }

  // A bound UDP socket whose queue is empty: recvfrom through the ring parks.
  Fd bound_socket(Port port) {
    auto sock = sys.udp_socket();
    EXPECT_TRUE(sock.ok());
    EXPECT_TRUE(sys.udp_bind(sock.value(), port).ok());
    return sock.value();
  }

  RingSqe recv_sqe(u64 ud, Fd sock) {
    return RingSqe{ud, static_cast<u32>(SysNr::kUdpRecvFrom), ring_args::udp_recvfrom(sock)};
  }

  Kernel kernel;
  SyscallDispatcher disp;
  Sys boot;
  Pid pid;
  Sys sys;
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
  if (kMetricsEnabled) {
    EXPECT_EQ(kernel.rings().sq_full(), sq_full_before + 1);
  }
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
    batch.push_back(RingSqe{i, static_cast<u32>(SysNr::kWrite),
                            ring_args::write(fd.value(), bytes("x"))});
  }
  u64 overflows_before = kernel.rings().cq_overflows();
  ASSERT_EQ(sys.ring_submit(ring.value(), batch).value(), 4u);
  if (kMetricsEnabled) {
    EXPECT_EQ(kernel.rings().cq_overflows(), overflows_before + 2);
  }
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
      RingSqe{1, static_cast<u32>(SysNr::kVtpRecv), ring_args::vtp_recv(server, 64)},
      RingSqe{2, static_cast<u32>(SysNr::kVtpSend),
              ring_args::vtp_send(client.value(), bytes("ring-stream"))},
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
        Reader r(cqe.payload);
        auto data = r.get_bytes();
        ASSERT_TRUE(data.has_value());
        got.insert(got.end(), data->begin(), data->end());
        if (got.size() < 11) {
          // Re-arm the recv for the rest of the stream.
          RingSqe again{1, static_cast<u32>(SysNr::kVtpRecv), ring_args::vtp_recv(server, 64)};
          ASSERT_EQ(sys.ring_submit(ring.value(), std::span<const RingSqe>(&again, 1)).value(),
                    1u);
        }
      }
    }
  }
  EXPECT_TRUE(send_done);
  EXPECT_EQ(got, bytes("ring-stream"));
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
