// Unit and concurrency tests for node replication: the log, the distributed
// RW lock, flat combining, replica convergence and the lock baselines.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "src/base/rng.h"
#include "src/hw/topology.h"
#include "src/nr/baselines.h"
#include "src/nr/log.h"
#include "src/nr/node_replicated.h"
#include "src/nr/rwlock.h"
#include "src/nr/vcs.h"

namespace vnros {
namespace {

struct CounterDs {
  struct WriteOp {
    u64 delta = 0;
  };
  struct ReadOp {};
  using Response = u64;
  u64 value = 0;
  Response dispatch(ReadOp) const { return value; }
  Response dispatch_mut(const WriteOp& op) { return value += op.delta; }
  bool operator==(const CounterDs&) const = default;
};

// --- DistRwLock -------------------------------------------------------------------

TEST(DistRwLockTest, WriterExcludesReaders) {
  DistRwLock lock(4);
  lock.write_lock();
  std::atomic<bool> reader_in{false};
  std::thread reader([&] {
    lock.read_lock(0);
    reader_in.store(true);
    lock.read_unlock(0);
  });
  // Reader must not get in while the writer holds the lock.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_FALSE(reader_in.load());
    std::this_thread::yield();
  }
  lock.write_unlock();
  reader.join();
  EXPECT_TRUE(reader_in.load());
}

TEST(DistRwLockTest, ReadersSharePeacefully) {
  DistRwLock lock(4);
  lock.read_lock(0);
  lock.read_lock(1);  // concurrent reader: no deadlock
  lock.read_unlock(0);
  lock.read_unlock(1);
  EXPECT_TRUE(lock.try_write_lock());
  lock.write_unlock();
}

TEST(DistRwLockTest, TryWriteFailsWhenHeld) {
  DistRwLock lock(2);
  lock.write_lock();
  EXPECT_FALSE(lock.try_write_lock());
  lock.write_unlock();
}

// --- NrLog -------------------------------------------------------------------------

TEST(NrLogTest, ReservePublishConsume) {
  NrLog<int> log(8, 2);
  u64 idx = log.reserve(3, [] {});
  EXPECT_EQ(idx, 0u);
  log.publish(0, 10);
  log.publish(1, 11);
  log.publish(2, 12);
  EXPECT_EQ(log.wait_for(0), 10);
  EXPECT_EQ(log.wait_for(2), 12);
  log.advance_ltail(0, 3);
  log.advance_ltail(1, 3);
  EXPECT_EQ(log.min_ltail(), 3u);
}

TEST(NrLogTest, ReserveBlocksUntilConsumed) {
  NrLog<int> log(4, 1);
  (void)log.reserve(4, [] {});
  for (u64 i = 0; i < 4; ++i) {
    log.publish(i, static_cast<int>(i));
  }
  // The log is full; reserve must call help until the consumer advances.
  std::atomic<int> helps{0};
  u64 idx = log.reserve(1, [&] {
    if (++helps == 3) {
      log.advance_ltail(0, 4);  // consumer catches up on the 3rd help
    }
  });
  EXPECT_EQ(idx, 4u);
  EXPECT_GE(helps.load(), 3);
}

// --- NodeReplicated ---------------------------------------------------------------------

TEST(NodeReplicatedTest, SequentialSemantics) {
  Topology topo(4, 2);
  NodeReplicated<CounterDs> nr(topo, CounterDs{});
  auto t = nr.register_thread(0);
  EXPECT_EQ(nr.execute(t, CounterDs::ReadOp{}), 0u);
  EXPECT_EQ(nr.execute_mut(t, CounterDs::WriteOp{5}), 5u);
  EXPECT_EQ(nr.execute_mut(t, CounterDs::WriteOp{7}), 12u);
  EXPECT_EQ(nr.execute(t, CounterDs::ReadOp{}), 12u);
}

TEST(NodeReplicatedTest, TokensRouteToNodeReplicas) {
  Topology topo(4, 2);
  NodeReplicated<CounterDs> nr(topo, CounterDs{});
  EXPECT_EQ(nr.num_replicas(), 2u);
  auto t0 = nr.register_thread(1);  // node 0
  auto t1 = nr.register_thread(3);  // node 1
  EXPECT_EQ(t0.replica, 0u);
  EXPECT_EQ(t1.replica, 1u);
}

TEST(NodeReplicatedTest, CrossReplicaVisibility) {
  Topology topo(4, 2);
  NodeReplicated<CounterDs> nr(topo, CounterDs{});
  auto writer = nr.register_thread(0);
  auto reader = nr.register_thread(2);
  (void)nr.execute_mut(writer, CounterDs::WriteOp{9});
  EXPECT_EQ(nr.execute(reader, CounterDs::ReadOp{}), 9u);
}

TEST(NodeReplicatedTest, ParallelMixedWorkload) {
  Topology topo(4, 2);
  NodeReplicated<CounterDs> nr(topo, CounterDs{});
  constexpr u32 kThreads = 4;
  constexpr u32 kWrites = 5000;
  std::vector<std::thread> threads;
  std::atomic<bool> monotonic{true};
  for (u32 t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto token = nr.register_thread(t);
      u64 last_seen = 0;
      for (u32 i = 0; i < kWrites; ++i) {
        nr.execute_mut(token, CounterDs::WriteOp{1});
        u64 seen = nr.execute(token, CounterDs::ReadOp{});
        if (seen < last_seen) {
          monotonic.store(false);  // a counter that only grows must not shrink
        }
        last_seen = seen;
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_TRUE(monotonic.load());
  auto t = nr.register_thread(0);
  EXPECT_EQ(nr.execute(t, CounterDs::ReadOp{}), u64{kThreads} * kWrites);
}

TEST(NodeReplicatedTest, BatchLimitRespected) {
  Topology topo(2, 2);
  NrConfig config;
  config.max_combiner_batch = 1;
  NodeReplicated<CounterDs> nr(topo, CounterDs{}, config);
  auto t = nr.register_thread(0);
  for (int i = 0; i < 100; ++i) {
    nr.execute_mut(t, CounterDs::WriteOp{1});
  }
  auto s = nr.stats_snapshot();
  EXPECT_EQ(s.combined_ops, 100u);
  EXPECT_GE(s.combines, 100u);  // batch cap 1 => one session per op
}

// The wait window plus announce patience must produce multi-op combining
// sessions under genuine write contention — this is the distribution check
// (a broken window degenerates to size-1 sessions and every functional test
// still passes). 16 threads on one replica, each patient announcer yielding
// for a combiner before self-combining, is enough contention that p99 of
// the batch-size histogram must exceed 1 on any host.
TEST(NodeReplicatedTest, WaitWindowBatchesUnderContention) {
  constexpr u32 kThreads = 16;
  constexpr u64 kOps = 500;
  Topology topo(kThreads, kThreads);  // one replica: maximal combining pressure
  NrConfig config;
  config.announce_patience = 2;
  NodeReplicated<CounterDs> nr(topo, CounterDs{}, config);
  std::vector<std::thread> threads;
  for (u32 t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto token = nr.register_thread(t);
      for (u64 i = 0; i < kOps; ++i) {
        nr.execute_mut(token, CounterDs::WriteOp{1});
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  auto token = nr.register_thread(0);
  EXPECT_EQ(nr.execute(token, CounterDs::ReadOp{}), u64{kThreads} * kOps);
  auto s = nr.stats_snapshot();
  EXPECT_EQ(s.combined_ops, u64{kThreads} * kOps);
  EXPECT_LT(s.combines, s.combined_ops) << "no session ever batched more than one op";
  EXPECT_GT(s.batch_p99, 1u) << "wait window never formed a multi-op batch";
  EXPECT_GT(s.handoff_ops, 0u) << "no parked announcer was ever drained by a combiner";
}

// Deterministic handoff: a parked announcer's op completes without that
// thread ever winning the combiner lock. Thread A combines first and blocks
// inside its own apply (gated dispatch); thread B announces while A holds
// the combiner lock, so B can only complete via A's wait window or exit
// re-scan. B's op counting as a handoff (applied from a slot that is not
// the session owner's) is exactly the "completed without the lock" claim.
TEST(NodeReplicatedTest, HandoffCompletesParkedOpWithoutLock) {
  struct GateDs {
    struct WriteOp {
      u64 delta = 0;
      bool block = false;
    };
    struct ReadOp {};
    using Response = u64;
    std::atomic<bool>* gate = nullptr;
    std::atomic<bool>* entered = nullptr;
    u64 value = 0;
    Response dispatch(ReadOp) const { return value; }
    Response dispatch_mut(const WriteOp& op) {
      if (op.block) {
        entered->store(true, std::memory_order_release);
        while (!gate->load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
      }
      return value += op.delta;
    }
  };

  std::atomic<bool> gate{false};
  std::atomic<bool> entered{false};
  Topology topo(2, 2);  // one replica
  GateDs initial;
  initial.gate = &gate;
  initial.entered = &entered;
  NodeReplicated<GateDs> nr(topo, initial);
  auto tok_a = nr.register_thread(0);
  auto tok_b = nr.register_thread(1);

  std::thread a([&] { nr.execute_mut(tok_a, GateDs::WriteOp{1, true}); });
  // Spawn B only once A is provably inside its gated apply (combiner lock
  // held): B then cannot win the lock, so its op can only complete by A's
  // wait window or exit re-scan draining it.
  while (!entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  std::thread b([&] { nr.execute_mut(tok_b, GateDs::WriteOp{2, false}); });
  // B announces within microseconds; the sleep is pure margin — it only
  // needs B's announcement to precede the gate, not any tight timing.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.store(true, std::memory_order_release);
  a.join();
  b.join();

  EXPECT_EQ(nr.execute(tok_a, GateDs::ReadOp{}), 3u);
  auto s = nr.stats_snapshot();
  EXPECT_EQ(s.combined_ops, 2u);
  // Exactly one op (B's) was applied by a session it did not own. A's op
  // cannot be a handoff: A held the combiner lock for its own session.
  EXPECT_EQ(s.handoff_ops, 1u);
}

// --- Baselines ---------------------------------------------------------------------------

template <typename Repl>
class ReplicationWrapperTest : public ::testing::Test {};

using WrapperTypes = ::testing::Types<NodeReplicated<CounterDs>, MutexReplicated<CounterDs>,
                                      RwLockReplicated<CounterDs>>;
TYPED_TEST_SUITE(ReplicationWrapperTest, WrapperTypes);

// Every concurrency wrapper provides the same sequential semantics; this is
// the interface contract the kernel relies on when swapping them (ablations).
TYPED_TEST(ReplicationWrapperTest, UniformInterfaceSemantics) {
  Topology topo(4, 2);
  TypeParam repl(topo, CounterDs{});
  auto t = repl.register_thread(0);
  EXPECT_EQ(repl.execute(t, typename CounterDs::ReadOp{}), 0u);
  EXPECT_EQ(repl.execute_mut(t, typename CounterDs::WriteOp{3}), 3u);
  EXPECT_EQ(repl.execute_mut(t, typename CounterDs::WriteOp{4}), 7u);
  repl.sync(t);
  EXPECT_EQ(repl.peek(0).value, 7u);
}

TYPED_TEST(ReplicationWrapperTest, ConcurrentTotalExact) {
  Topology topo(4, 2);
  TypeParam repl(topo, CounterDs{});
  constexpr u32 kThreads = 4;
  constexpr u32 kOps = 3000;
  std::vector<std::thread> threads;
  for (u32 t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto token = repl.register_thread(t);
      for (u32 i = 0; i < kOps; ++i) {
        repl.execute_mut(token, typename CounterDs::WriteOp{1});
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  auto token = repl.register_thread(0);
  EXPECT_EQ(repl.execute(token, typename CounterDs::ReadOp{}), u64{kThreads} * kOps);
}

// The nr VC suite must pass as part of the unit run too.
TEST(NrVcsTest, AllPass) {
  VcRegistry reg;
  register_nr_vcs(reg);
  auto s = reg.run_all();
  for (const auto& r : s.results) {
    EXPECT_TRUE(r.passed) << r.name << ": " << r.message;
  }
}

}  // namespace
}  // namespace vnros
