// Cross-module integration tests: whole-stack scenarios a real application
// would exercise — several processes sharing a kernel, files + memory +
// network together, the NR address space under the hardware models, and a
// mini "distributed system" of three kernels on one fabric.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>

#include "src/app/blockstore.h"
#include "src/app/sim_cluster.h"
#include "src/base/rng.h"
#include "src/kernel/kernel.h"
#include "src/kernel/machine.h"
#include "src/kernel/syscall.h"
#include "src/pt/address_space.h"
#include "src/pt/interp.h"

namespace vnros {
namespace {

std::vector<u8> bytes(std::string_view s) { return std::vector<u8>(s.begin(), s.end()); }

TEST(IntegrationTest, ProducerConsumerThroughTheFilesystem) {
  Kernel kernel;
  SyscallDispatcher disp(kernel);
  Sys boot(disp, kInvalidPid, 0);
  auto p1 = boot.spawn();
  auto p2 = boot.spawn();
  Sys producer(disp, p1.value(), 0);
  Sys consumer(disp, p2.value(), 1);

  ASSERT_TRUE(producer.mkdir("/queue").ok());
  for (int i = 0; i < 10; ++i) {
    std::string path = "/queue/item" + std::to_string(i);
    auto fd = producer.open(path, kOpenCreate);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(producer.write(fd.value(), bytes("payload-" + std::to_string(i))).ok());
    ASSERT_TRUE(producer.close(fd.value()).ok());
  }
  ASSERT_TRUE(producer.fsync().ok());

  auto names = consumer.readdir("/queue");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value().size(), 10u);
  for (const auto& name : names.value()) {
    auto fd = consumer.open("/queue/" + name, 0);
    ASSERT_TRUE(fd.ok());
    auto data = consumer.read(fd.value(), 64);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(std::string(data.value().begin(), data.value().end()).substr(0, 8), "payload-");
    ASSERT_TRUE(consumer.close(fd.value()).ok());
    ASSERT_TRUE(consumer.unlink("/queue/" + name).ok());
  }
  EXPECT_TRUE(consumer.readdir("/queue").value().empty());
}

TEST(IntegrationTest, FileToUserMemoryToSocket) {
  // One process reads a file into its mapped memory, then ships those bytes
  // to another process over UDP — files, VM and network in one flow.
  Kernel kernel;
  SyscallDispatcher disp(kernel);
  Sys boot(disp, kInvalidPid, 0);
  auto p1 = boot.spawn();
  auto p2 = boot.spawn();
  Sys sender(disp, p1.value(), 0);
  Sys receiver(disp, p2.value(), 1);

  auto fd = sender.open("/blob", kOpenCreate);
  ASSERT_TRUE(sender.write(fd.value(), bytes("file->memory->wire")).ok());
  (void)sender.lseek(fd.value(), 0, SeekWhence::kSet);
  auto buf = sender.mmap(kPageSize, true);
  ASSERT_TRUE(buf.ok());
  ASSERT_EQ(sender.read_user(fd.value(), buf.value(), 18).value(), 18u);

  auto rsock = receiver.udp_socket();
  ASSERT_TRUE(receiver.udp_bind(rsock.value(), 4000).ok());
  // Pull the bytes back out of user memory and send them.
  Process* proc = kernel.procs().get(p1.value());
  std::vector<u8> wire(18);
  ASSERT_TRUE(proc->vm().copy_in(buf.value(), wire).ok());
  auto ssock = sender.udp_socket();
  ASSERT_TRUE(sender.udp_sendto(ssock.value(), kernel.net_addr(), 4000, wire).ok());

  auto dgram = receiver.udp_recvfrom(rsock.value());
  ASSERT_TRUE(dgram.ok());
  EXPECT_EQ(dgram.value().payload, bytes("file->memory->wire"));
}

TEST(IntegrationTest, NrAddressSpaceAgainstHardwareModels) {
  // Concurrent mappers on an NR address space; afterwards every replica's
  // tree must translate identically through the MMU model.
  PhysMem mem(16384);
  SimpleFrameSource frames(mem, 8192);
  Topology topo(4, 2);
  TlbSystem tlbs(topo);
  AddressSpace<PageTable> as(mem, frames, topo, &tlbs);

  constexpr u32 kThreads = 4;
  std::vector<std::thread> threads;
  for (u32 t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto token = as.register_thread(t);
      Rng rng(t + 1);
      for (int i = 0; i < 200; ++i) {
        // Thread-private VA slice avoids benign map collisions.
        VAddr va{(u64{t} << 32) | (rng.next_below(64) * kPageSize)};
        if (rng.chance(2, 3)) {
          (void)as.map(token, va, PAddr::from_frame(rng.next_below(8192)), kPageSize,
                       Perms::rw());
        } else {
          (void)as.unmap(token, va);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  auto t0 = as.register_thread(0);
  auto t1 = as.register_thread(2);
  as.sync(t0);
  as.sync(t1);
  auto r0 = as.peek(0).root();
  auto r1 = as.peek(1).root();
  ASSERT_TRUE(r0 && r1);
  EXPECT_EQ(interpret_page_table(mem, *r0), interpret_page_table(mem, *r1));

  Mmu mmu(mem);
  AbsMap m = interpret_page_table(mem, *r0);
  for (const auto& [vbase, pte] : m) {
    auto a = mmu.translate(*r0, VAddr{vbase}, Access::kRead, Ring::kUser);
    auto b = mmu.translate(*r1, VAddr{vbase}, Access::kRead, Ring::kUser);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().paddr, b.value().paddr);
  }
}

TEST(IntegrationTest, ThreeNodeBlockStoreCluster) {
  // A three-member ring that places every key on every member; the client
  // talks to the primary, which acks each put only after both replicas
  // acked their pushes, so every replica can serve the reads.
  SimCluster c(3, 3);
  Machine client_host({.network = &c.net()});
  BlockStoreClient client(client_host.sys, ClusterView::of({c.peer(0)}, 1),
                          [&] { c.pump(client_host); });

  for (int i = 0; i < 5; ++i) {
    std::string key = "obj" + std::to_string(i);
    ASSERT_TRUE(client.put(key, bytes("data-" + std::to_string(i))).ok());
  }
  EXPECT_EQ(c.node(0).stats().hints_written, 0u);
  for (int i = 0; i < 5; ++i) {
    std::string key = "obj" + std::to_string(i);
    std::vector<u8> expect = bytes("data-" + std::to_string(i));
    for (usize m = 0; m < c.size(); ++m) {
      EXPECT_EQ(c.node(m).get(key).value(), expect) << "member " << m;
    }
  }
}

TEST(IntegrationTest, SchedulerDrivesSimulatedWorkers) {
  // Simulated threads round through the scheduler while futexes gate a
  // simulated critical section — the process-model concurrency story.
  Machine m;
  Kernel& kernel = m.kernel;
  Sys& sys = m.sys;

  auto region = sys.mmap(kPageSize, true);
  ASSERT_TRUE(region.ok());
  VAddr lock_word = region.value();
  Process* proc = kernel.procs().get(m.pid);
  ASSERT_TRUE(proc->vm().write_u32(lock_word, 1).ok());  // "locked"

  auto tok = kernel.sched().register_core(0);
  for (Tid t = 1; t <= 3; ++t) {
    ASSERT_EQ(kernel.sched().add_thread(tok, t, m.pid, 1, 0), ErrorCode::kOk);
  }
  // All three block on the locked word.
  for (Tid t = 1; t <= 3; ++t) {
    ASSERT_TRUE(sys.futex_wait(lock_word, 1, t).ok());
  }
  EXPECT_EQ(kernel.sched().pick(tok, 0), 0u);  // everyone blocked -> idle
  // Unlock and wake all.
  ASSERT_TRUE(proc->vm().write_u32(lock_word, 0).ok());
  EXPECT_EQ(sys.futex_wake(lock_word, 99).value(), 3u);
  std::set<Tid> ran;
  for (int i = 0; i < 3; ++i) {
    ran.insert(kernel.sched().pick(tok, 0));
  }
  EXPECT_EQ(ran, (std::set<Tid>{1, 2, 3}));
}

}  // namespace
}  // namespace vnros
