// User-space library tests: futex-based primitives and the allocator.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/base/rng.h"
#include "src/kernel/futex.h"
#include "src/kernel/kernel.h"
#include "src/kernel/machine.h"
#include "src/kernel/syscall.h"
#include "src/ulib/alloc.h"
#include "src/ulib/sync.h"
#include "src/ulib/uring.h"
#include "src/ulib/uthread.h"
#include "src/ulib/uvtp.h"

namespace vnros {
namespace {

// --- FutexMutex ------------------------------------------------------------------

TEST(FutexMutexTest, UncontendedLockUnlock) {
  FutexTable futex;
  FutexMutex mu(futex);
  mu.lock();
  mu.unlock();
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
  // Uncontended operations never touch the futex.
  EXPECT_EQ(futex.stats().waits, 0u);
  EXPECT_EQ(futex.stats().wakes, 0u);
}

TEST(FutexMutexTest, TryLockFailsWhenHeld) {
  FutexTable futex;
  FutexMutex mu(futex);
  mu.lock();
  EXPECT_FALSE(mu.try_lock());
  mu.unlock();
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(FutexMutexTest, HandoffUnderContention) {
  FutexTable futex;
  FutexMutex mu(futex);
  u64 counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10'000; ++i) {
        MutexGuard g(mu);
        ++counter;
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter, 40'000u);
}

// --- FutexCondVar -------------------------------------------------------------------

TEST(FutexCondVarTest, NotifyWakesWaiter) {
  FutexTable futex;
  FutexMutex mu(futex);
  FutexCondVar cv(futex);
  bool flag = false;
  std::thread waiter([&] {
    MutexGuard g(mu);
    while (!flag) {
      cv.wait(mu);
    }
  });
  // Let the waiter reach the wait.
  std::this_thread::yield();
  {
    MutexGuard g(mu);
    flag = true;
  }
  cv.notify_one();
  waiter.join();
  SUCCEED();
}

TEST(FutexCondVarTest, NotifyAllReleasesEveryone) {
  FutexTable futex;
  FutexMutex mu(futex);
  FutexCondVar cv(futex);
  bool go = false;
  std::atomic<int> released{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      MutexGuard g(mu);
      while (!go) {
        cv.wait(mu);
      }
      ++released;
    });
  }
  std::this_thread::yield();
  {
    MutexGuard g(mu);
    go = true;
  }
  cv.notify_all();
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(released.load(), 4);
}

// --- FutexSemaphore ------------------------------------------------------------------

TEST(FutexSemaphoreTest, TryAcquireHonoursCount) {
  FutexTable futex;
  FutexSemaphore sem(futex, 2);
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_FALSE(sem.try_acquire());
  sem.release();
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_EQ(sem.value(), 0u);
}

TEST(FutexSemaphoreTest, AcquireBlocksUntilRelease) {
  FutexTable futex;
  FutexSemaphore sem(futex, 0);
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    sem.acquire();
    acquired.store(true);
  });
  for (int i = 0; i < 100; ++i) {
    ASSERT_FALSE(acquired.load());
    std::this_thread::yield();
  }
  sem.release();
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

// --- FutexRwLock -------------------------------------------------------------------------

TEST(FutexRwLockTest, ConcurrentReadersNoDeadlock) {
  FutexTable futex;
  FutexRwLock rw(futex);
  rw.lock_shared();
  rw.lock_shared();  // same thread, second share: must not deadlock
  rw.unlock_shared();
  rw.unlock_shared();
  rw.lock();
  rw.unlock();
  SUCCEED();
}

// --- FutexBarrier -------------------------------------------------------------------------

TEST(FutexBarrierTest, SinglePartyPassesImmediately) {
  FutexTable futex;
  FutexBarrier barrier(futex, 1);
  barrier.arrive_and_wait();
  barrier.arrive_and_wait();
  SUCCEED();
}

// --- UserAllocator ----------------------------------------------------------------------------

TEST(UserAllocatorTest, FreshArenaIsOneBlock) {
  UserAllocator alloc(4096);
  EXPECT_TRUE(alloc.fully_coalesced());
  EXPECT_TRUE(alloc.check_invariants());
  EXPECT_EQ(alloc.largest_free(), 4096 - UserAllocator::kHeaderSize);
}

TEST(UserAllocatorTest, AllocateAligned) {
  UserAllocator alloc(4096);
  auto a = alloc.allocate(1);
  auto b = alloc.allocate(100);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(*a % UserAllocator::kAlignment, 0u);
  EXPECT_EQ(*b % UserAllocator::kAlignment, 0u);
  EXPECT_NE(*a, *b);
  EXPECT_EQ(alloc.live_blocks(), 2u);
}

TEST(UserAllocatorTest, ExhaustionReturnsNullopt) {
  UserAllocator alloc(1024);
  std::vector<usize> offs;
  while (auto off = alloc.allocate(64)) {
    offs.push_back(*off);
  }
  EXPECT_FALSE(alloc.allocate(64).has_value());
  EXPECT_FALSE(offs.empty());
  // A smaller request may still fit... after one free it definitely does.
  alloc.free(offs[0]);
  EXPECT_TRUE(alloc.allocate(64).has_value());
}

TEST(UserAllocatorTest, CoalescesBothNeighbours) {
  UserAllocator alloc(4096);
  auto a = alloc.allocate(64);
  auto b = alloc.allocate(64);
  auto c = alloc.allocate(64);
  ASSERT_TRUE(a && b && c);
  // Free a and c (non-adjacent), then b: the middle free must merge all.
  alloc.free(*a);
  alloc.free(*c);
  EXPECT_TRUE(alloc.check_invariants());
  alloc.free(*b);
  EXPECT_TRUE(alloc.fully_coalesced());
}

TEST(UserAllocatorTest, SplitLeavesUsableRemainder) {
  UserAllocator alloc(4096);
  auto big = alloc.allocate(1000);
  ASSERT_TRUE(big);
  auto small = alloc.allocate(100);
  ASSERT_TRUE(small);
  EXPECT_TRUE(alloc.check_invariants());
}

TEST(UserAllocatorDeathTest, DoubleFreeAborts) {
  UserAllocator alloc(1024);
  auto a = alloc.allocate(64);
  alloc.free(*a);
  EXPECT_DEATH(alloc.free(*a), "check clause");
}

class AllocChurnSweep : public ::testing::TestWithParam<u64> {};

TEST_P(AllocChurnSweep, InvariantsAcrossChurn) {
  UserAllocator alloc(1 << 15);
  Rng rng(GetParam());
  std::vector<usize> live;
  for (int i = 0; i < 1500; ++i) {
    if (live.empty() || rng.chance(3, 5)) {
      if (auto off = alloc.allocate(rng.next_range(1, 800))) {
        live.push_back(*off);
      }
    } else {
      usize idx = rng.next_below(live.size());
      alloc.free(live[idx]);
      live[idx] = live.back();
      live.pop_back();
    }
    ASSERT_TRUE(alloc.check_invariants()) << "step " << i;
  }
  for (usize off : live) {
    alloc.free(off);
  }
  EXPECT_TRUE(alloc.fully_coalesced());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocChurnSweep, ::testing::Values(10, 20, 30, 40));


// --- Green threads (UScheduler / UChannel) ------------------------------------

UTask append_task(std::vector<int>& log, int id, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    log.push_back(id);
    co_await Yield{};
  }
}

TEST(UThreadTest, SingleTaskRunsToCompletion) {
  UScheduler sched;
  std::vector<int> log;
  sched.spawn(append_task(log, 7, 3));
  EXPECT_EQ(sched.live_tasks(), 1u);
  sched.run();
  EXPECT_EQ(sched.live_tasks(), 0u);
  EXPECT_EQ(log, (std::vector<int>{7, 7, 7}));
}

TEST(UThreadTest, StepExposesSchedulingOrder) {
  UScheduler sched;
  std::vector<int> log;
  sched.spawn(append_task(log, 0, 2));
  sched.spawn(append_task(log, 1, 2));
  EXPECT_TRUE(sched.step());  // task 0 runs to its first yield
  EXPECT_TRUE(sched.step());  // task 1
  EXPECT_EQ(log, (std::vector<int>{0, 1}));
  sched.run();
  EXPECT_FALSE(sched.step());  // empty queue
  EXPECT_EQ(sched.trace().front(), 0u);
}

UTask recv_one(UChannel<int>& chan, int& out) {
  out = co_await chan.recv();
}

TEST(UThreadTest, ChannelParksAndWakes) {
  UScheduler sched;
  UChannel<int> chan(sched);
  int got = -1;
  sched.spawn(recv_one(chan, got));
  sched.step();  // consumer parks on the empty channel
  EXPECT_EQ(chan.waiters(), 1u);
  EXPECT_EQ(got, -1);
  chan.send(42);
  EXPECT_EQ(chan.waiters(), 0u);
  sched.run();
  EXPECT_EQ(got, 42);
}

TEST(UThreadTest, SendToNobodyQueues) {
  UScheduler sched;
  UChannel<int> chan(sched);
  chan.send(1);
  chan.send(2);
  EXPECT_EQ(chan.pending(), 2u);
  int a = -1, b = -1;
  sched.spawn(recv_one(chan, a));
  sched.spawn(recv_one(chan, b));
  sched.run();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

UTask ping_task(UChannel<int>& in, UChannel<int>& out, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    int v = co_await in.recv();
    out.send(v + 1);
  }
}

TEST(UThreadTest, PingPong) {
  UScheduler sched;
  UChannel<int> ping(sched), pong(sched);
  sched.spawn(ping_task(ping, pong, 10));
  int final_value = -1;
  sched.spawn([](UChannel<int>& out, UChannel<int>& in, int& result) -> UTask {
    int v = 0;
    for (int i = 0; i < 10; ++i) {
      out.send(v);
      v = co_await in.recv();
    }
    result = v;
  }(ping, pong, final_value));
  sched.run();
  EXPECT_EQ(final_value, 10);  // incremented once per round trip
}

// --- Ring awaitables (URingExecutor) -------------------------------------------

std::vector<u8> bytes(std::string_view s) { return std::vector<u8>(s.begin(), s.end()); }

class URingUTest : public ::testing::Test, protected Machine {
 protected:
  URingUTest() : exec(sched, sys) {
    auto ok = exec.init(16, 16);
    EXPECT_TRUE(ok.ok());
  }

  // Drives green threads and ring completions together until quiescent:
  // nothing runnable and no completion delivered. Returns iterations used.
  u64 pump() {
    u64 iters = 0;
    while (sched.live_tasks() > 0) {
      bool stepped = sched.step();
      usize delivered = exec.poll();
      if (!stepped && delivered == 0) {
        break;  // deadlocked or done; caller asserts which
      }
      ++iters;
    }
    return iters;
  }

  UScheduler sched;
  URingExecutor exec;
};

TEST_F(URingUTest, OtherTasksRunWhileOpInFlight) {
  auto fd = sys.open("/f", kOpenCreate);
  ASSERT_TRUE(fd.ok());
  std::vector<std::string> order;
  sched.spawn([](URingExecutor& ex, Fd f, std::vector<std::string>& log) -> UTask {
    log.push_back("w:submit");
    RingOpResult r = co_await ex.submit<SysNr::kWrite>(f, bytes("ring!"));
    log.push_back("w:done");
    VNROS_CHECK(r.err == ErrorCode::kOk);
  }(exec, fd.value(), order));
  sched.spawn([](std::vector<std::string>& log) -> UTask {
    log.push_back("bg");
    co_await Yield{};
  }(order));
  pump();
  EXPECT_EQ(sched.live_tasks(), 0u);
  // The background task got the core while the write was awaiting completion.
  EXPECT_EQ(order, (std::vector<std::string>{"w:submit", "bg", "w:done"}));
  (void)sys.lseek(fd.value(), 0, SeekWhence::kSet);
  EXPECT_EQ(sys.read(fd.value(), 100).value(), bytes("ring!"));
}

TEST_F(URingUTest, ManyTasksEachCompleteTheirOwnOps) {
  constexpr int kTasks = 8;
  int done = 0;
  for (int t = 0; t < kTasks; ++t) {
    std::string path = "/t" + std::to_string(t);
    auto fd = sys.open(path, kOpenCreate);
    ASSERT_TRUE(fd.ok());
    sched.spawn([](URingExecutor& ex, Fd f, int id, int& fin) -> UTask {
      std::string body = "task-" + std::to_string(id);
      RingOpResult w = co_await ex.submit<SysNr::kWrite>(f, bytes(body));
      VNROS_CHECK(w.err == ErrorCode::kOk);
      RingOpResult s = co_await ex.submit<SysNr::kFsync>();
      VNROS_CHECK(s.err == ErrorCode::kOk);
      ++fin;
    }(exec, fd.value(), t, done));
  }
  pump();
  EXPECT_EQ(done, kTasks);
  EXPECT_EQ(exec.pending(), 0u);
  for (int t = 0; t < kTasks; ++t) {
    auto fd = sys.open("/t" + std::to_string(t), 0);
    ASSERT_TRUE(fd.ok());
    EXPECT_EQ(sys.read(fd.value(), 100).value(), bytes("task-" + std::to_string(t)));
    (void)sys.close(fd.value());
  }
}

TEST_F(URingUTest, RecvParksUntilPeerTaskSends) {
  auto sock = sys.udp_socket();
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(sys.udp_bind(sock.value(), 5000).ok());
  NetAddr self = kernel.net_addr();
  std::vector<u8> got;
  sched.spawn([](URingExecutor& ex, Fd s, std::vector<u8>& out) -> UTask {
    // Kernel parks this SQE on transient kWouldBlock instead of failing it.
    RingOpResult r = co_await ex.submit<SysNr::kUdpRecvFrom>(s);
    auto dg = sys_reply<SysNr::kUdpRecvFrom>(r.err, r.payload);
    VNROS_CHECK(dg.ok());
    out = dg.value().payload;
  }(exec, sock.value(), got));
  sched.spawn([](URingExecutor& ex, Fd s, NetAddr dst) -> UTask {
    co_await Yield{};  // make sure the receiver parks first
    RingOpResult r = co_await ex.submit<SysNr::kUdpSendTo>(s, dst, 5000, bytes("wake up"));
    VNROS_CHECK(r.err == ErrorCode::kOk);
  }(exec, sock.value(), self));
  pump();
  EXPECT_EQ(sched.live_tasks(), 0u);
  EXPECT_EQ(got, bytes("wake up"));
}

TEST_F(URingUTest, SqFullResolvesAwaiterWithTypedError) {
  URingExecutor tiny(sched, sys);
  ASSERT_TRUE(tiny.init(1, 4).ok());
  auto sock = sys.udp_socket();
  ASSERT_TRUE(sys.udp_bind(sock.value(), 5001).ok());
  ErrorCode blocked_err = ErrorCode::kOk;
  std::vector<u8> got;
  // Task A parks a recv: the pending SQE occupies the single SQ slot.
  sched.spawn([](URingExecutor& ex, Fd s, std::vector<u8>& out) -> UTask {
    RingOpResult r = co_await ex.submit<SysNr::kUdpRecvFrom>(s);
    auto dg = sys_reply<SysNr::kUdpRecvFrom>(r.err, r.payload);
    VNROS_CHECK(dg.ok());
    out = dg.value().payload;
  }(tiny, sock.value(), got));
  // Task B's submit finds the SQ full; the awaitable resolves immediately
  // with the backpressure error instead of parking forever, and B unblocks A.
  sched.spawn([](URingExecutor& ex, Sys& sc, Fd s, NetAddr dst, ErrorCode& e) -> UTask {
    co_await Yield{};
    RingOpResult r = co_await ex.submit<SysNr::kFsync>();
    e = r.err;
    VNROS_CHECK(sc.udp_sendto(s, dst, 5001, bytes("relief")).ok());
  }(tiny, sys, sock.value(), kernel.net_addr(), blocked_err));
  while (sched.live_tasks() > 0) {
    bool stepped = sched.step();
    usize delivered = tiny.poll();
    if (!stepped && delivered == 0) {
      break;
    }
  }
  EXPECT_EQ(sched.live_tasks(), 0u);
  EXPECT_EQ(blocked_err, ErrorCode::kWouldBlock);
  EXPECT_EQ(got, bytes("relief"));
}

// --- VTP awaitables (UVtp) -----------------------------------------------------

TEST_F(URingUTest, VtpEchoServerAndClientAsUthreads) {
  UVtp uvtp(exec, sys);
  auto listener = uvtp.listen(80, 4);
  ASSERT_TRUE(listener.ok());
  std::vector<u8> echoed;
  // Server uthread: accept parks on the empty queue, recv parks until the
  // client's bytes arrive, then the payload is sent straight back.
  sched.spawn([](UVtp& vtp, Fd lfd) -> UTask {
    auto conn = co_await vtp.accept(lfd);
    VNROS_CHECK(conn.ok());
    auto req = co_await vtp.recv(conn.value(), 4096);
    VNROS_CHECK(req.ok());
    auto n = co_await vtp.send(conn.value(), req.value());
    VNROS_CHECK(n.ok() && n.value() == req.value().size());
  }(uvtp, listener.value()));
  // Client uthread: connect is synchronous; the loopback handshake completes
  // as the parked accept retries pump the stack.
  sched.spawn([](UVtp& vtp, NetAddr self, std::vector<u8>& out) -> UTask {
    auto conn = vtp.connect(self, 80, 2001);
    VNROS_CHECK(conn.ok());
    auto n = co_await vtp.send(conn.value(), bytes("ping over vtp"));
    VNROS_CHECK(n.ok());
    auto reply = co_await vtp.recv(conn.value(), 4096);
    VNROS_CHECK(reply.ok());
    out = reply.value();
  }(uvtp, kernel.net_addr(), echoed));
  pump();
  EXPECT_EQ(sched.live_tasks(), 0u);
  EXPECT_EQ(exec.pending(), 0u);
  EXPECT_EQ(echoed, bytes("ping over vtp"));
}

TEST_F(URingUTest, VtpSendAllDrainsPastBackpressure) {
  UVtp uvtp(exec, sys);
  auto listener = uvtp.listen(81, 4);
  ASSERT_TRUE(listener.ok());
  // More than the receive window, so the sender must stall on flow control
  // mid-stream and resume as the reader drains.
  std::vector<u8> payload(3 * VtpStack::kRcvWindow);
  for (usize i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<u8>(i * 31 + 7);
  }
  std::vector<u8> received;
  Result<Unit> sent = ErrorCode::kWouldBlock;
  sched.spawn([](UVtp& vtp, Fd lfd, usize want, std::vector<u8>& out) -> UTask {
    auto conn = co_await vtp.accept(lfd);
    VNROS_CHECK(conn.ok());
    while (out.size() < want) {
      auto chunk = co_await vtp.recv(conn.value(), 2048);
      VNROS_CHECK(chunk.ok());
      out.insert(out.end(), chunk.value().begin(), chunk.value().end());
    }
  }(uvtp, listener.value(), payload.size(), received));
  sched.spawn([](UVtp& vtp, NetAddr self, std::vector<u8> data, Result<Unit>* done,
                 UScheduler& sc) -> UTask {
    auto conn = vtp.connect(self, 81, 2002);
    VNROS_CHECK(conn.ok());
    sc.spawn(vtp.send_all(conn.value(), std::move(data), done));
    co_return;
  }(uvtp, kernel.net_addr(), payload, &sent, sched));
  pump();
  EXPECT_EQ(sched.live_tasks(), 0u);
  EXPECT_TRUE(sent.ok());
  EXPECT_EQ(received, payload);
}

}  // namespace
}  // namespace vnros
