// Block-store application tests: node semantics, wire protocol, client
// retries, the client's non-blocking core, crash recovery and replication.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/app/anti_entropy.h"
#include "src/app/blockstore.h"
#include "src/base/fault.h"
#include "src/base/rng.h"
#include "src/base/serde.h"
#include "src/kernel/kernel.h"
#include "src/kernel/syscall.h"

namespace vnros {
namespace {

std::vector<u8> bytes(std::string_view s) { return std::vector<u8>(s.begin(), s.end()); }

struct Host {
  Kernel kernel;
  SyscallDispatcher disp;
  Pid pid;
  Sys sys;

  explicit Host(Network* net, BlockDevice* disk = nullptr, bool recover = false)
      : kernel(config_of(net, disk, recover)), disp(kernel), pid(spawn(disp)),
        sys(disp, pid, 0) {}

  static KernelConfig config_of(Network* net, BlockDevice* disk, bool recover) {
    KernelConfig c;
    c.network = net;
    c.disk = disk;
    c.recover_fs = recover;
    return c;
  }

  static Pid spawn(SyscallDispatcher& disp) {
    Sys boot(disp, kInvalidPid, 0);
    auto p = boot.spawn();
    EXPECT_TRUE(p.ok());
    return p.value();
  }
};

// Advances each host's VTP stack one tick: the stream plane's retransmit,
// probe and reap timers run here, in every client pump.
template <typename... Hosts>
void tick(Hosts&... hosts) {
  (hosts.kernel.vtp().tick(), ...);
}

TEST(BlockStoreNodeTest, KeyPathIsHexEncoded) {
  EXPECT_EQ(BlockStoreNode::key_path("ab"), "/blocks/6162");
  EXPECT_EQ(BlockStoreNode::key_path(std::string("\x00\xff", 2)), "/blocks/00ff");
}

TEST(BlockStoreNodeTest, LocalPutGetDel) {
  Network net;
  Host host(&net);
  BlockStoreNode node(host.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  ASSERT_TRUE(node.put("k", bytes("value")).ok());
  EXPECT_EQ(node.get("k").value(), bytes("value"));
  ASSERT_TRUE(node.del("k").ok());
  EXPECT_EQ(node.get("k").error(), ErrorCode::kNotFound);
}

TEST(BlockStoreNodeTest, EmptyValueAllowed) {
  Network net;
  Host host(&net);
  BlockStoreNode node(host.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  ASSERT_TRUE(node.put("empty", {}).ok());
  auto got = node.get("empty");
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().empty());
  auto view = node.view();
  EXPECT_EQ(view.count("empty"), 1u);
}

TEST(BlockStoreNodeTest, InitIsIdempotent) {
  Network net;
  Host host(&net);
  BlockStoreNode node(host.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  // A second node process re-initializing over the same fs: mkdir tolerated,
  // port conflict is surfaced.
  BlockStoreNode node2(host.sys, 7001);
  EXPECT_TRUE(node2.init().ok());
}

TEST(BlockStoreNodeTest, ViewSkipsCorruptBlocks) {
  Network net;
  Host host(&net);
  BlockStoreNode node(host.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  ASSERT_TRUE(node.put("good", bytes("fine")).ok());
  ASSERT_TRUE(node.put("bad", bytes("doomed")).ok());
  // Corrupt "bad"'s backing file.
  auto fd = host.sys.open(BlockStoreNode::key_path("bad"), 0);
  (void)host.sys.lseek(fd.value(), 9, SeekWhence::kSet);
  std::vector<u8> flip{0xFF};
  (void)host.sys.write(fd.value(), flip);
  (void)host.sys.close(fd.value());

  auto view = node.view();
  EXPECT_EQ(view.count("good"), 1u);
  EXPECT_EQ(view.count("bad"), 0u);
  EXPECT_GE(node.stats().corrupt_reads, 1u);
}

// A device-write fault injected at every successive stage of the put
// pipeline (tmp-file create, tmp data write, publish rename — each a
// journaled device write) must never destroy the previously acked value.
// put_local's write-temp-then-rename plus MemFs's journal rollback are
// exactly what this sweeps: whichever write dies, get() must return the
// last value a put acked, byte-identical, never a torn mixture.
TEST(BlockStoreNodeTest, FaultMidPutPreservesAckedValue) {
  auto& faults = FaultRegistry::global();
  faults.disarm_all();
  Network net;
  BlockDevice disk(16384, 0x9A7Full, "apptest_midput");
  Host host(&net, &disk);
  BlockStoreNode node(host.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  std::vector<u8> acked = bytes("acked-original-value");
  ASSERT_TRUE(node.put("k", acked).ok());

  u64 failures = 0;
  for (u64 nth = 1; nth <= 8; ++nth) {
    SCOPED_TRACE("nth_device_write=" + std::to_string(nth));
    std::vector<u8> next = bytes("overwrite-attempt-#" + std::to_string(nth));
    FaultSpec spec;
    spec.nth_call = nth;  // fire on exactly the nth device write after arming
    spec.one_shot = true;
    faults.arm("apptest_midput/write_error", spec);
    auto r = node.put("k", next);
    faults.disarm_all();

    auto got = node.get("k");
    ASSERT_TRUE(got.ok());
    if (r.ok()) {
      acked = next;  // the fault landed past the put's last device write
    } else {
      ++failures;
    }
    EXPECT_EQ(got.value(), acked);
  }
  // The sweep must actually have hit the pipeline, not fired into the void.
  EXPECT_GT(failures, 0u);
  faults.disarm_all();
}

TEST(BlockStoreWireTest, EndToEndOverFabric) {
  Network net;
  Host server(&net);
  Host client_host(&net);
  BlockStoreNode node(server.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  BlockStoreClient client(client_host.sys, server.kernel.net_addr(), 7000, [&] {
    node.serve_once();
    tick(server, client_host);
  });

  ASSERT_TRUE(client.ping().ok());
  ASSERT_TRUE(client.put("wire-key", bytes("wire-value")).ok());
  EXPECT_EQ(client.get("wire-key").value(), bytes("wire-value"));
  EXPECT_EQ(client.get("missing").error(), ErrorCode::kNotFound);
  ASSERT_TRUE(client.del("wire-key").ok());
  EXPECT_EQ(client.get("wire-key").error(), ErrorCode::kNotFound);
  EXPECT_EQ(client.retries(), 0u);  // clean fabric: no retries needed
}

// A value far bigger than a typical MTU crosses both wires: the client's
// stream (segmented at the MSS) to the primary, then the primary's
// replication push to its peer — one node-to-node datagram, whose framing
// must be just as exact (the fabric has no MTU).
TEST(BlockStoreWireTest, LargeValueCrossesDatagrams) {
  Network net;
  Host primary_host(&net);
  Host replica_host(&net);
  Host client_host(&net);
  BlockStoreNode replica(replica_host.sys, 7001);
  ASSERT_TRUE(replica.init().ok());
  BlockStoreNode primary(primary_host.sys, 7000,
                         {BsPeer{replica_host.kernel.net_addr(), 7001}});
  ASSERT_TRUE(primary.init().ok());
  BlockStoreClient client(client_host.sys, primary_host.kernel.net_addr(), 7000, [&] {
    primary.serve_once();
    replica.serve_once();
    tick(primary_host, replica_host, client_host);
  });
  std::vector<u8> big(100'000);
  Rng rng(5);
  for (auto& b : big) {
    b = static_cast<u8>(rng.next_u64());
  }
  ASSERT_TRUE(client.put("big", big).ok());
  EXPECT_EQ(client.get("big").value(), big);
  EXPECT_EQ(replica.get("big").value(), big);
}

// An attempt window shorter than the stream's RTO hands loss recovery back
// to the rpc layer: under 30% loss attempts time out and re-send their
// request on the same stream, and the duplicate frames stay idempotent.
TEST(BlockStoreWireTest, RetriesSurviveLoss) {
  FabricConfig fabric;
  fabric.loss_ppm = 300'000;  // 30% loss
  Network net(fabric, 77);
  Host server(&net);
  Host client_host(&net);
  BlockStoreNode node(server.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  RetryPolicy policy;
  policy.max_attempts = 64;
  policy.polls_per_attempt = VtpStack::kRtoTicks / 2;
  BlockStoreClient client(
      client_host.sys, server.kernel.net_addr(), 7000,
      [&] {
        node.serve_once();
        tick(server, client_host);
      },
      policy);
  for (int i = 0; i < 10; ++i) {
    std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(client.put(key, bytes(key + "-value")).ok()) << key;
    EXPECT_EQ(client.get(key).value(), bytes(key + "-value"));
  }
  EXPECT_GT(client.retries(), 0u);  // loss must have forced retries
}

// Every rpc rides one VTP stream: after a full op mix the client process
// holds exactly one descriptor — that stream — and no datagram socket.
TEST(BlockStoreWireTest, StreamTransportEndToEnd) {
  Network net;
  Host server(&net);
  Host client_host(&net);
  BlockStoreNode node(server.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  BlockStoreClient client(client_host.sys, server.kernel.net_addr(), 7000, [&] {
    node.serve_once();
    tick(server, client_host);
  });

  ASSERT_TRUE(client.ping().ok());
  ASSERT_TRUE(client.put("wire-key", bytes("wire-value")).ok());
  EXPECT_EQ(client.get("wire-key").value(), bytes("wire-value"));
  ASSERT_TRUE(client.del("wire-key").ok());
  auto fds = client_host.disp.view(client_host.pid).fds;
  ASSERT_EQ(fds.size(), 1u);
  EXPECT_EQ(fds.begin()->second.kind, OpenFile::Kind::kVtp);
  EXPECT_FALSE(fds.begin()->second.listener);
  EXPECT_EQ(client.retry_stats().reconnects, 0u);
}

TEST(BlockStoreWireTest, StreamTransportLargeValue) {
  // A value far bigger than the stream's MSS and receive window: the
  // transport segments it, the node reassembles the [len][body] frame
  // across many parked recv completions.
  Network net;
  Host server(&net);
  Host client_host(&net);
  BlockStoreNode node(server.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  BlockStoreClient client(client_host.sys, server.kernel.net_addr(), 7000, [&] {
    node.serve_once();
    tick(server, client_host);
  });
  std::vector<u8> big(100'000);
  Rng rng(6);
  for (auto& b : big) {
    b = static_cast<u8>(rng.next_u64());
  }
  ASSERT_TRUE(client.put("big", big).ok());
  EXPECT_EQ(client.get("big").value(), big);
}

TEST(BlockStoreWireTest, StreamTransportSurvivesLoss) {
  // Under loss the stream retransmits below the rpc layer: ops succeed and
  // most of the recovery is paid at the transport's RTO, not the client's
  // full attempt timeout.
  FabricConfig fabric;
  fabric.loss_ppm = 100'000;  // 10% loss
  Network net(fabric, 78);
  Host server(&net);
  Host client_host(&net);
  BlockStoreNode node(server.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  BlockStoreClient client(client_host.sys, server.kernel.net_addr(), 7000, [&] {
    node.serve_once();
    tick(server, client_host);
  });
  for (int i = 0; i < 25; ++i) {
    std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(client.put(key, bytes(key + "-value")).ok()) << key;
    EXPECT_EQ(client.get(key).value(), bytes(key + "-value")) << key;
  }
  EXPECT_GT(server.kernel.vtp().stats().retransmits +
                client_host.kernel.vtp().stats().retransmits,
            0u);  // the transport, not the rpc loop, absorbed the loss
}

TEST(BlockStoreCrashTest, AckedPutsSurviveReboot) {
  Network net;
  BlockDevice disk(16384, 99);
  {
    Host host(&net, &disk);
    BlockStoreNode node(host.sys, 7000);
    ASSERT_TRUE(node.init().ok());
    ASSERT_TRUE(node.put("persist-me", bytes("durable")).ok());
    disk.crash(0);  // worst case: all unflushed state gone
  }
  Network net2;
  Host rebooted(&net2, &disk, /*recover=*/true);
  BlockStoreNode node(rebooted.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  EXPECT_EQ(node.get("persist-me").value(), bytes("durable"));
}

// Crash during the replication push: the primary acks a put whose push to
// the replica is lost (partitioned fabric), then the primary's disk crashes.
// Whatever fraction of un-flushed sectors survives the crash, the acked put
// must still be readable after recovery — put() fsyncs before acking — and
// anti-entropy (sync_into) must bring the replica back in sync. Swept over
// the crash persistence spectrum with fixed seeds so failures replay.
TEST(BlockStoreCrashTest, AckedPutSurvivesCrashDuringReplicationPush) {
  struct Case {
    u64 persist_ppm;
    u64 disk_seed;
  };
  const Case kMatrix[] = {
      {0, 0x0AC3ull},          // nothing un-flushed survives
      {250'000, 0x1AC3ull},    // a quarter of cached sectors survive
      {500'000, 0x2AC3ull},    // half survive
      {1'000'000, 0x3AC3ull},  // crash behaves like flush
  };
  for (const auto& c : kMatrix) {
    SCOPED_TRACE("persist_ppm=" + std::to_string(c.persist_ppm));
    Network net;
    BlockDevice disk(16384, c.disk_seed);
    Host replica_host(&net);
    BlockStoreNode replica(replica_host.sys, 7001);
    ASSERT_TRUE(replica.init().ok());

    {
      Host primary_host(&net, &disk);
      BlockStoreNode primary(primary_host.sys, 7000,
                             {BsPeer{replica_host.kernel.net_addr(), 7001}});
      ASSERT_TRUE(primary.init().ok());
      // Cut the primary<->replica link so the replication push is lost in
      // flight, then crash the primary after it acks.
      net.partition(primary_host.kernel.net_addr(), replica_host.kernel.net_addr());
      ASSERT_TRUE(primary.put("acked", bytes("must-survive")).ok());
      replica.serve_once();
      EXPECT_EQ(replica.get("acked").error(), ErrorCode::kNotFound);
      disk.crash(c.persist_ppm);
    }
    net.heal_all();

    Host rebooted(&net, &disk, /*recover=*/true);
    BlockStoreNode primary(rebooted.sys, 7000,
                           {BsPeer{replica_host.kernel.net_addr(), 7001}});
    ASSERT_TRUE(primary.init().ok());
    EXPECT_EQ(primary.get("acked").value(), bytes("must-survive"));

    Host client_host(&net);
    BlockStoreClient client(client_host.sys, rebooted.kernel.net_addr(), 7000, [&] {
      primary.serve_once();
      tick(rebooted, client_host);
    });
    auto repaired = client.sync_into(replica);
    ASSERT_TRUE(repaired.ok());
    EXPECT_GE(repaired.value(), 1u);
    EXPECT_EQ(replica.get("acked").value(), bytes("must-survive"));
  }
}

// --- RetryPolicy edge cases --------------------------------------------------

// With jitter off, the backoff ladder is exact: base, then doubling, capped.
// A dead server forces every attempt to back off, so the client's
// backoff_polls counter must equal the closed-form sum.
TEST(RetryPolicyTest, BackoffRespectsCap) {
  Network net;
  Host server(&net);  // bound to the fabric but nothing serves
  Host client_host(&net);
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.polls_per_attempt = 4;
  policy.backoff_base_polls = 4;
  policy.backoff_max_polls = 8;
  policy.jitter_ppm = 0;
  BlockStoreClient client(client_host.sys, server.kernel.net_addr(), 7000, {}, policy);
  EXPECT_EQ(client.get("k").error(), ErrorCode::kTimedOut);
  // Four retries backed off 4, 8, 8, 8 polls (doubling clamps at the cap).
  EXPECT_EQ(client.retry_stats().retries, 4u);
  EXPECT_EQ(client.retry_stats().backoff_polls, 4u + 8u + 8u + 8u);
}

// With jitter on, every wait lands in [w, w * (1 + jitter_ppm/1e6)].
TEST(RetryPolicyTest, JitterBounded) {
  Network net;
  Host server(&net);
  Host client_host(&net);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.polls_per_attempt = 4;
  policy.backoff_base_polls = 8;
  policy.backoff_max_polls = 0;  // uncapped
  policy.jitter_ppm = 500'000;   // up to +50%
  BlockStoreClient client(client_host.sys, server.kernel.net_addr(), 7000, {}, policy);
  EXPECT_FALSE(client.get("k").ok());
  // Two retries: waits drawn from [8, 12] and [16, 24].
  EXPECT_GE(client.retry_stats().backoff_polls, 8u + 16u);
  EXPECT_LE(client.retry_stats().backoff_polls, 12u + 24u);
}

// A backoff that would outlive the deadline is clamped to the remaining
// budget minus one attempt window: the rpc spends its final polls PROBING
// the server, never asleep. Here the first attempt leaves exactly one
// window of budget, so the clamp zeroes the backoff entirely and the
// second (final) probe runs right up to the deadline.
TEST(RetryPolicyTest, DeadlineExpiresMidRetry) {
  Network net;
  Host server(&net);
  Host client_host(&net);
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.polls_per_attempt = 20;
  policy.backoff_base_polls = 64;  // longer than the whole deadline
  policy.jitter_ppm = 0;
  policy.deadline_polls = 30;      // one window (20) + a partial window (10)
  BlockStoreClient client(client_host.sys, server.kernel.net_addr(), 7000, {}, policy);
  EXPECT_EQ(client.get("k").error(), ErrorCode::kTimedOut);
  EXPECT_EQ(client.retry_stats().attempts, 2u);   // the clamp bought a final probe
  EXPECT_EQ(client.retry_stats().backoff_polls, 0u);  // and zero polls were slept
}

// Partial clamp: the backoff shrinks to exactly (remaining - one attempt
// window), so the ladder never sleeps the rpc past its deadline but still
// leaves a full probe window. deadline 100 = 20 (attempt 1) + 60 (clamped
// from 64) + 20 (attempt 2).
TEST(RetryPolicyTest, DeadlineClampsFinalBackoff) {
  Network net;
  Host server(&net);
  Host client_host(&net);
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.polls_per_attempt = 20;
  policy.backoff_base_polls = 64;  // would overshoot: 20 + 64 + 20 > 100
  policy.jitter_ppm = 0;
  policy.deadline_polls = 100;
  BlockStoreClient client(client_host.sys, server.kernel.net_addr(), 7000, {}, policy);
  EXPECT_EQ(client.get("k").error(), ErrorCode::kTimedOut);
  EXPECT_EQ(client.retry_stats().attempts, 2u);
  EXPECT_EQ(client.retry_stats().backoff_polls, 60u);  // 64 clamped to 60
}

// A request frame bigger than the stream's send buffer is only partly
// accepted while nothing drains it. Retrying on that stream would splice a
// fresh frame after the torn one and desync the server's framing, so the
// client drops the stream and the next attempt opens a new one.
TEST(RetryPolicyTest, TornFrameDropsTheStream) {
  Network net;
  Host server(&net);  // nothing serves or ticks: the send buffer only fills
  Host client_host(&net);
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.polls_per_attempt = 4;
  BlockStoreClient client(client_host.sys, server.kernel.net_addr(), 7000, {}, policy);
  std::vector<u8> huge(VtpStack::kSndBufMax + 1024, 0x5A);
  EXPECT_EQ(client.put("huge", huge).error(), ErrorCode::kWouldBlock);
  EXPECT_EQ(client.retry_stats().send_errors, 2u);
  EXPECT_EQ(client.retry_stats().reconnects, 1u);
}

// kOverloaded is backpressure, not failure: the client must wait out the
// shed on the SAME target — zero failovers even with a healthy standby
// configured — and succeed once the bucket refills.
TEST(RetryPolicyTest, OverloadedBacksOffWithoutFailover) {
  Network net;
  Host server(&net);
  Host standby_host(&net);
  Host client_host(&net);
  BlockStoreNode node(server.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  BlockStoreNode standby(standby_host.sys, 7001);
  ASSERT_TRUE(standby.init().ok());
  AdmissionConfig admission;
  admission.enabled = true;
  admission.burst_ops = 1;
  node.set_admission(admission);
  node.grant_tokens(1'000'000);  // exactly one op in the bucket

  usize polls = 0;
  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.polls_per_attempt = 16;
  policy.overload_base_polls = 8;
  policy.overload_max_polls = 64;
  BlockStoreClient client(
      client_host.sys, server.kernel.net_addr(), 7000,
      [&] {
        node.serve_once();
        standby.serve_once();
        tick(server, standby_host, client_host);
        if (++polls == 60) {
          node.grant_tokens(1'000'000);  // the bucket refills mid-backoff
        }
      },
      policy);
  client.add_failover(standby_host.kernel.net_addr(), 7001);

  ASSERT_TRUE(client.put("a", bytes("first")).ok());   // consumes the token
  ASSERT_TRUE(client.put("b", bytes("second")).ok());  // shed, then admitted
  EXPECT_GT(client.retry_stats().overloads, 0u);
  EXPECT_EQ(client.retry_stats().failovers, 0u);
  EXPECT_GT(node.stats().sheds, 0u);
  EXPECT_EQ(standby.get("b").error(), ErrorCode::kNotFound);  // never stampeded
}

// Failover stickiness: an rpc resumes on the last target that actually
// answered, not on whatever a failed rpc's rotation residue points at.
TEST(RetryPolicyTest, FailoverStickinessResumesOnLastGoodTarget) {
  Network net;
  Host h0(&net);
  Host h1(&net);
  Host h2(&net);
  Host client_host(&net);
  BlockStoreNode n0(h0.sys, 7000);
  BlockStoreNode n1(h1.sys, 7001);
  BlockStoreNode n2(h2.sys, 7002);
  ASSERT_TRUE(n0.init().ok());
  ASSERT_TRUE(n1.init().ok());
  ASSERT_TRUE(n2.init().ok());

  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.polls_per_attempt = 12;
  BlockStoreClient client(
      client_host.sys, h0.kernel.net_addr(), 7000,
      [&] {
        n0.serve_once();
        n1.serve_once();
        n2.serve_once();
        tick(h0, h1, h2, client_host);
      },
      policy);
  client.add_failover(h1.kernel.net_addr(), 7001);
  client.add_failover(h2.kernel.net_addr(), 7002);
  LinkAddr cl = client_host.kernel.net_addr();

  // Only target 1 is reachable: the first op fails over 0 -> 1 and records
  // 1 as last-good.
  net.partition(cl, h0.kernel.net_addr());
  net.partition(cl, h2.kernel.net_addr());
  ASSERT_TRUE(client.put("k", bytes("v1")).ok());
  EXPECT_EQ(client.current_target(), 1u);

  // Everything dark: the op fails and its rotation parks elsewhere.
  net.partition(cl, h1.kernel.net_addr());
  EXPECT_FALSE(client.put("k", bytes("v2")).ok());
  EXPECT_NE(client.current_target(), 1u);

  // Target 1 comes back: the next op must resume there directly.
  net.heal(cl, h1.kernel.net_addr());
  u64 attempts_before = client.retry_stats().attempts;
  ASSERT_TRUE(client.put("k", bytes("v3")).ok());
  EXPECT_EQ(client.retry_stats().attempts - attempts_before, 1u);  // first try hit
  EXPECT_GT(client.retry_stats().sticky_resumes, 0u);
  EXPECT_EQ(n1.get("k").value(), bytes("v3"));
}

// --- The non-blocking client core --------------------------------------------

// Three library clients interleaved through start()/poll() on one thread,
// over one 3-node cluster, each on keys of its own. Mid-run the client host
// loses its link to one node: ops whose primary it is time out inside
// poll() and fail over to the key's other owner, and the link heals later.
// Every reply is checked against a model of the acked writes.
TEST(BlockStoreClientCoreTest, InterleavedClientsFailOverInsidePoll) {
  Network net;
  std::vector<std::unique_ptr<Host>> hosts;
  std::vector<std::unique_ptr<BlockStoreNode>> nodes;
  ClusterView view;
  view.ring = PlacementRing(16);
  view.replication = 2;
  for (usize i = 0; i < 3; ++i) {
    hosts.push_back(std::make_unique<Host>(&net));
  }
  for (usize i = 0; i < 3; ++i) {
    nodes.push_back(std::make_unique<BlockStoreNode>(
        hosts[i]->sys, 7000, std::vector<BsPeer>{}, [&nodes, i] {
          for (usize j = 0; j < nodes.size(); ++j) {
            if (j != i) {
              nodes[j]->serve_once();
            }
          }
        }));
    ASSERT_TRUE(nodes[i]->init().ok());
    view.ring.add_node(static_cast<BsNodeId>(i));
    view.directory[static_cast<BsNodeId>(i)] = BsPeer{hosts[i]->kernel.net_addr(), 7000};
  }
  for (usize i = 0; i < 3; ++i) {
    ClusterConfig cc;
    cc.self = static_cast<BsNodeId>(i);
    nodes[i]->configure_cluster(cc, view);
  }

  Host client_host(&net);
  RetryPolicy policy;
  policy.max_attempts = 64;
  policy.polls_per_attempt = 24;
  constexpr usize kClients = 3;
  constexpr usize kKeysPerClient = 4;
  constexpr usize kOpsPerClient = 60;
  struct Script {
    Rng rng{0};
    usize done = 0;
    bool in_op = false;
    BsOp op = BsOp::kGet;
    std::string key;
    std::vector<u8> value;
  };
  std::vector<std::unique_ptr<BlockStoreClient>> clients;
  std::vector<Script> scripts(kClients);
  for (usize c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<BlockStoreClient>(
        client_host.sys, view.directory.at(0).addr, 7000, std::function<void()>{}, policy));
    clients.back()->set_cluster(view);
    scripts[c].rng = Rng(0xC0DE + c);
  }
  std::map<std::string, std::vector<u8>> model;
  // The cut node is the primary of client 0's first key, so that key's ops
  // must fail over while the link is down.
  BsNodeId cut = view.owners("c0-k0").front();
  LinkAddr client_addr = client_host.kernel.net_addr();
  LinkAddr cut_addr = hosts[cut]->kernel.net_addr();

  usize finished = 0;
  usize cut_step = 0;  // when the link went down
  usize step = 1;
  for (; step < 20'000 && finished < kClients * kOpsPerClient; ++step) {
    if (cut_step == 0 && finished >= 40) {
      net.partition(client_addr, cut_addr);
      cut_step = step;
    }
    if (cut_step != 0 && step == cut_step + 400) {
      net.heal(client_addr, cut_addr);
    }
    for (auto& node : nodes) {
      node->serve_once();
    }
    for (auto& h : hosts) {
      h->kernel.vtp().tick();
    }
    client_host.kernel.vtp().tick();
    for (usize c = 0; c < kClients; ++c) {
      Script& s = scripts[c];
      BlockStoreClient& client = *clients[c];
      if (!s.in_op) {
        if (s.done == kOpsPerClient) {
          continue;
        }
        u64 roll = s.rng.next_below(10);
        s.op = roll < 5 ? BsOp::kPut : roll < 8 ? BsOp::kGet : BsOp::kDel;
        s.key = "c" + std::to_string(c) + "-k" + std::to_string(s.rng.next_below(kKeysPerClient));
        s.value.assign(1 + s.rng.next_below(64), static_cast<u8>(s.rng.next_u64()));
        ASSERT_TRUE(client.start(s.op, s.key, s.value).ok());
        s.in_op = true;
        continue;
      }
      std::optional<Result<BsReply>> reply = client.poll();
      if (!reply) {
        continue;
      }
      s.in_op = false;
      ++s.done;
      ++finished;
      SCOPED_TRACE("client " + std::to_string(c) + " op " + std::to_string(s.done) + " on " +
                   s.key + " at step " + std::to_string(step));
      auto it = model.find(s.key);
      switch (s.op) {
        case BsOp::kPut:
          ASSERT_TRUE(reply->ok()) << error_name(reply->error());
          model[s.key] = s.value;
          break;
        case BsOp::kDel:
          ASSERT_TRUE(reply->ok()) << error_name(reply->error());
          model.erase(s.key);
          break;
        default:
          if (it == model.end()) {
            ASSERT_FALSE(reply->ok());
            EXPECT_EQ(reply->error(), ErrorCode::kNotFound);
          } else {
            ASSERT_TRUE(reply->ok()) << error_name(reply->error());
            EXPECT_EQ(reply->value().value, it->second);
          }
          break;
      }
      EXPECT_FALSE(client.waiting());
      EXPECT_EQ(client.poll(), std::nullopt);  // nothing in flight any more
    }
  }
  ASSERT_EQ(finished, kClients * kOpsPerClient);
  EXPECT_GT(step, cut_step + 400);  // the link healed mid-run
  u64 failovers = 0;
  for (const auto& client : clients) {
    failovers += client->retry_stats().failovers;
  }
  EXPECT_GT(failovers, 0u);  // the cut forced ops onto their other owner
}

// One op in flight per client object: a second start() is refused with
// kBusy before it builds, stamps or sends anything.
TEST(BlockStoreClientCoreTest, StartWhileInFlightIsBusyAndSendsNothing) {
  Network net;
  Host server(&net);
  Host client_host(&net);
  BlockStoreNode node(server.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  BlockStoreClient client(client_host.sys, server.kernel.net_addr(), 7000, {});
  auto run = [&]() -> Result<BsReply> {
    for (;;) {
      node.serve_once();
      tick(server, client_host);
      if (auto reply = client.poll()) {
        return std::move(*reply);
      }
    }
  };

  EXPECT_EQ(client.poll(), std::nullopt);  // idle: nothing to advance
  ASSERT_TRUE(client.start(BsOp::kPut, "k", bytes("v")).ok());
  u64 stamp = client.last_write_seq();
  EXPECT_EQ(client.start(BsOp::kDel, "k").error(), ErrorCode::kBusy);
  EXPECT_EQ(client.start(BsOp::kGet, "k").error(), ErrorCode::kBusy);
  EXPECT_EQ(client.last_write_seq(), stamp);  // the refused del took no stamp
  EXPECT_EQ(client.retry_stats().attempts, 1u);
  EXPECT_TRUE(client.waiting());
  ASSERT_TRUE(run().ok());
  for (int i = 0; i < 8; ++i) {  // anything still in the stream gets served
    node.serve_once();
    tick(server, client_host);
  }
  EXPECT_EQ(node.stats().puts, 1u);
  EXPECT_EQ(node.stats().dels, 0u);
  EXPECT_EQ(node.stats().gets, 0u);

  // Once poll() has returned the reply, the client takes the next op.
  ASSERT_TRUE(client.start(BsOp::kGet, "k").ok());
  auto got = run();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().value, bytes("v"));
  EXPECT_EQ(client.retry_stats().attempts, 2u);
}

// Every blocking op is start() plus a pump-and-poll loop inside one bs/rpc
// span, however many attempts it takes: the put here first times out on a
// target that never answers, then fails over.
TEST(BlockStoreClientCoreTest, EachBlockingOpRecordsOneRpcSpan) {
  Network net;
  Host dead(&net);  // on the fabric, nothing serves
  Host server(&net);
  Host client_host(&net);
  BlockStoreNode node(server.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  RetryPolicy policy;
  policy.polls_per_attempt = 8;
  BlockStoreClient client(
      client_host.sys, dead.kernel.net_addr(), 7000,
      [&] {
        node.serve_once();
        tick(dead, server, client_host);
      },
      policy);
  client.add_failover(server.kernel.net_addr(), 7000);

  SpanTracer& tracer = ObsRegistry::global().tracer();
  const u32 rpc_site = tracer.intern_site("bs/rpc");
  tracer.clear();
  tracer.set_enabled(true);
  ASSERT_TRUE(client.put("k", bytes("v")).ok());
  ASSERT_TRUE(client.get("k").ok());
  ASSERT_TRUE(client.get_with_seq("k").ok());
  EXPECT_EQ(client.get("missing").error(), ErrorCode::kNotFound);
  ASSERT_TRUE(client.del("k").ok());
  ASSERT_TRUE(client.ping().ok());
  ASSERT_TRUE(client.list().ok());
  tracer.set_enabled(false);
  EXPECT_GT(client.retry_stats().failovers, 0u);

  usize rpc_spans = 0;
  for (const SpanEvent& ev : tracer.spans()) {
    rpc_spans += ev.site == rpc_site ? 1 : 0;
  }
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(rpc_spans, kMetricsEnabled ? 7u : 0u);
  tracer.clear();
}

// A kList reply whose count claims more entries than its bytes can hold is
// kCorrupted: the count is checked against the payload before it sizes any
// allocation (0xFFFFFFFF entries would ask for about 240 GB).
TEST(BlockStoreClientCoreTest, ListRefusesACountThePayloadCannotHold) {
  Network net;
  Host server(&net);  // a hand-written server that answers every request
  Host client_host(&net);
  auto listener = server.sys.vtp_listen(7000, 4);
  ASSERT_TRUE(listener.ok());
  Fd conn = kInvalidFd;
  std::vector<u8> inbuf;
  std::vector<u8> inventory;  // the crafted kList payload
  auto pump = [&] {
    tick(server, client_host);
    if (conn == kInvalidFd) {
      auto accepted = server.sys.vtp_accept(listener.value());
      conn = accepted.ok() ? accepted.value() : kInvalidFd;
      return;
    }
    auto got = server.sys.vtp_recv(conn, 4096);
    if (got.ok()) {
      inbuf.insert(inbuf.end(), got.value().begin(), got.value().end());
    }
    Reader r(inbuf);
    auto len = r.get_u32();
    auto op = r.get_u8();
    auto req_id = r.get_u64();
    if (!len || !op || !req_id || inbuf.size() < 4 + *len) {
      return;
    }
    inbuf.erase(inbuf.begin(), inbuf.begin() + 4 + *len);
    Writer body;
    body.put_u64(*req_id);
    body.put_u32(static_cast<u32>(ErrorCode::kOk));
    body.put_bytes(inventory);
    Writer framed;
    framed.put_u32(static_cast<u32>(body.bytes().size()));
    framed.put_raw(body.bytes());
    ASSERT_TRUE(server.sys.vtp_send(conn, framed.bytes()).ok());
  };
  RetryPolicy policy;
  policy.max_attempts = 1;
  BlockStoreClient client(client_host.sys, server.kernel.net_addr(), 7000, pump, policy);

  Writer huge;
  huge.put_u32(0xFFFF'FFFFu);
  inventory = huge.take();
  EXPECT_EQ(client.list().error(), ErrorCode::kCorrupted);

  Writer one_short;  // one entry claimed, one byte short of the smallest
  one_short.put_u32(1);
  one_short.put_raw(std::vector<u8>(16, 0));
  inventory = one_short.take();
  EXPECT_EQ(client.list().error(), ErrorCode::kCorrupted);

  Writer two;
  two.put_u32(2);
  for (const BlockKeyInfo& e : {BlockKeyInfo{"a", 7, 3, false}, BlockKeyInfo{"b", 0, 9, true}}) {
    two.put_string(e.key);
    two.put_u32(e.crc);
    two.put_u64(e.seq);
    two.put_u8(e.tombstone ? 1 : 0);
  }
  inventory = two.take();
  auto listed = client.list();
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed.value(), (std::vector<BlockKeyInfo>{{"a", 7, 3, false}, {"b", 0, 9, true}}));
}

// A serve_delay latency fault stalls the node (the request stays queued in
// its stream — nothing is lost) and the client's retry budget rides it out.
TEST(BlockStoreFaultTest, LatencyFaultStallsServeWithoutLoss) {
  auto& reg = FaultRegistry::global();
  reg.disarm_all();
  Network net;
  Host server(&net);
  Host client_host(&net);
  BlockStoreNode node(server.sys, 7000, {}, {}, "slownode");
  ASSERT_TRUE(node.init().ok());
  BlockStoreClient client(client_host.sys, server.kernel.net_addr(), 7000, [&] {
    node.serve_once();
    tick(server, client_host);
  });
  ASSERT_TRUE(client.put("warm", bytes("up")).ok());

  FaultSpec stall;
  stall.probability_ppm = 1'000'000;
  stall.one_shot = true;
  stall.delay = 12;
  reg.arm("slownode/serve_delay", stall);
  ASSERT_TRUE(client.put("slow", bytes("but-served")).ok());
  EXPECT_EQ(node.get("slow").value(), bytes("but-served"));
  EXPECT_EQ(reg.site("slownode/serve_delay").stats().fires, 1u);
  reg.disarm_all();
}

TEST(BlockStoreReplicationTest, PutPropagatesToPeer) {
  Network net;
  Host primary_host(&net);
  Host replica_host(&net);
  BlockStoreNode replica(replica_host.sys, 7001);
  ASSERT_TRUE(replica.init().ok());
  BlockStoreNode primary(primary_host.sys, 7000,
                         {BsPeer{replica_host.kernel.net_addr(), 7001}});
  ASSERT_TRUE(primary.init().ok());

  ASSERT_TRUE(primary.put("r", bytes("replicated")).ok());
  for (int i = 0; i < 16; ++i) {
    replica.serve_once();
  }
  EXPECT_EQ(replica.get("r").value(), bytes("replicated"));
}

// Ack waits nest: the pump a replica-ack wait runs can serve a request that
// pushes from the same node. Here A's first pump runs a second put on A,
// whose wait reaps the outer push's ack before its own. The outer ack must
// reach the outer wait instead of being dropped, which would cost it the
// whole first send window (half the ack deadline) and a re-send.
TEST(BlockStoreReplicationTest, NestedAckWaitKeepsTheOuterAck) {
  Network net;
  Host a_host(&net);
  Host b_host(&net);
  BlockStoreNode b(b_host.sys, 7001);
  ASSERT_TRUE(b.init().ok());
  BlockStoreNode* a_ptr = nullptr;
  usize pumps = 0;
  BlockStoreNode a(a_host.sys, 7000, {}, [&] {
    if (++pumps == 1) {
      ASSERT_TRUE(a_ptr->put("inner", bytes("nested")).ok());
    }
    b.serve_once();
  });
  a_ptr = &a;
  ASSERT_TRUE(a.init().ok());
  ClusterView view;
  view.replication = 2;
  view.ring = PlacementRing(16);
  view.ring.add_node(0);
  view.ring.add_node(1);
  view.directory[0] = BsPeer{a_host.kernel.net_addr(), 7000};
  view.directory[1] = BsPeer{b_host.kernel.net_addr(), 7001};
  ClusterConfig ca;
  ca.self = 0;
  a.configure_cluster(ca, view);
  ClusterConfig cb;
  cb.self = 1;
  b.configure_cluster(cb, view);

  ASSERT_TRUE(a.put("outer", bytes("first")).ok());
  EXPECT_EQ(a.stats().replicas_pushed, 2u) << "the outer push was re-sent";
  EXPECT_LE(pumps, 4u);
  EXPECT_EQ(b.get("outer").value(), bytes("first"));
  EXPECT_EQ(b.get("inner").value(), bytes("nested"));
  EXPECT_EQ(a.stats().hints_written, 0u);
}

// --- Sequenced delete tombstones -------------------------------------------

TEST(TombstoneTest, DeleteIsSequencedTombstone) {
  Network net;
  Host host(&net);
  BlockStoreNode node(host.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  ASSERT_TRUE(node.put("k", bytes("v")).ok());
  ASSERT_TRUE(node.del("k").ok());
  EXPECT_EQ(node.get("k").error(), ErrorCode::kNotFound);
  // The delete is a first-class versioned write: it stays in the inventory
  // as a tombstone stamped AFTER the put, and leaves the readable view.
  auto inv = node.list();
  ASSERT_EQ(inv.size(), 1u);
  EXPECT_EQ(inv[0].key, "k");
  EXPECT_TRUE(inv[0].tombstone);
  EXPECT_GT(inv[0].seq, 0u);
  EXPECT_EQ(node.view().count("k"), 0u);
  EXPECT_EQ(node.stats().tombstones_written, 1u);
}

TEST(TombstoneTest, SurvivingTombstoneRefusesStaleWrite) {
  Network net;
  Host host(&net);
  BlockStoreNode node(host.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  ASSERT_TRUE(node.apply_remote("k", bytes("old"), 5, /*tombstone=*/false).ok());
  ASSERT_TRUE(node.apply_remote("k", {}, 7, /*tombstone=*/true).ok());
  // A lagging replica replaying the old put must NOT resurrect the key: the
  // tombstone's higher stamp wins, apply-if-newer refuses the stale write.
  ASSERT_TRUE(node.apply_remote("k", bytes("stale"), 6, /*tombstone=*/false).ok());
  EXPECT_EQ(node.get("k").error(), ErrorCode::kNotFound);
  EXPECT_GE(node.stats().stale_ignored, 1u);
  // A genuinely newer write supersedes the tombstone.
  ASSERT_TRUE(node.apply_remote("k", bytes("newer"), 8, /*tombstone=*/false).ok());
  EXPECT_EQ(node.get("k").value(), bytes("newer"));
}

TEST(TombstoneTest, GcReclaimsAcknowledgedTombstones) {
  Network net;
  Host host(&net);
  BlockStoreNode node(host.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  ASSERT_TRUE(node.put("gone", bytes("v")).ok());
  ASSERT_TRUE(node.del("gone").ok());
  ASSERT_TRUE(node.put("kept", bytes("w")).ok());
  // Unclustered: no peers to certify, reclamation is purely local.
  EXPECT_EQ(node.gc_tombstones(), 1u);
  EXPECT_EQ(node.stats().tombstones_gced, 1u);
  auto inv = node.list();
  ASSERT_EQ(inv.size(), 1u);
  EXPECT_EQ(inv[0].key, "kept");
  EXPECT_EQ(node.gc_tombstones(), 0u);  // idempotent: nothing left to reclaim
}

// --- Merkle tree -----------------------------------------------------------

TEST(MerkleTreeTest, EqualInventoriesEqualRoots) {
  std::vector<BlockKeyInfo> inv;
  for (int i = 0; i < 20; ++i) {
    inv.push_back(BlockKeyInfo{"key" + std::to_string(i), 0,
                               static_cast<u64>(i + 1), (i % 5) == 0});
  }
  EXPECT_EQ(MerkleTree::build(inv).root(), MerkleTree::build(inv).root());
  EXPECT_NE(MerkleTree::build(inv).root(), MerkleTree::build({}).root());
}

TEST(MerkleTreeTest, DivergenceIsLocalizedToOneBucket) {
  std::vector<BlockKeyInfo> inv;
  for (int i = 0; i < 40; ++i) {
    inv.push_back(BlockKeyInfo{"key" + std::to_string(i), 0, static_cast<u64>(i + 1), false});
  }
  MerkleTree a = MerkleTree::build(inv);
  inv[7].seq = 999;  // one key advances
  MerkleTree b = MerkleTree::build(inv);
  EXPECT_NE(a.root(), b.root());
  // Only the divergent key's bucket (and its ancestors) changed — this is
  // what makes repair bandwidth scale with divergence, not keyspace.
  usize differing_leaves = 0;
  for (usize leaf = 0; leaf < MerkleTree::kLeaves; ++leaf) {
    if (a.hash[MerkleTree::kFirstLeaf + leaf] != b.hash[MerkleTree::kFirstLeaf + leaf]) {
      ++differing_leaves;
    }
  }
  EXPECT_EQ(differing_leaves, 1u);
  EXPECT_NE(a.hash[MerkleTree::kFirstLeaf + MerkleTree::bucket_of("key7")],
            b.hash[MerkleTree::kFirstLeaf + MerkleTree::bucket_of("key7")]);
}

TEST(MerkleTreeTest, TombstoneStateIsPartOfTheHash) {
  std::vector<BlockKeyInfo> live{BlockKeyInfo{"k", 0, 3, false}};
  std::vector<BlockKeyInfo> dead{BlockKeyInfo{"k", 0, 3, true}};
  // Same key, same seq, different deletion state: the trees MUST differ, or
  // anti-entropy would declare a deleted and a live replica converged.
  EXPECT_NE(MerkleTree::build(live).root(), MerkleTree::build(dead).root());
}

// --- Anti-entropy scheduler over the fabric --------------------------------

TEST(AntiEntropyTest, SyncConvergesDivergentReplicas) {
  Network net;
  Host a_host(&net);
  Host b_host(&net);
  BlockStoreNode a(a_host.sys, 7000);
  BlockStoreNode b(b_host.sys, 7001);
  ASSERT_TRUE(a.init().ok());
  ASSERT_TRUE(b.init().ok());
  // Diverge in both directions plus one key where B is strictly newer.
  ASSERT_TRUE(a.apply_remote("only-a1", bytes("a1"), 11, false).ok());
  ASSERT_TRUE(a.apply_remote("only-a2", bytes("a2"), 12, false).ok());
  ASSERT_TRUE(a.apply_remote("shared", bytes("old"), 1, false).ok());
  ASSERT_TRUE(b.apply_remote("only-b", bytes("b"), 21, false).ok());
  ASSERT_TRUE(b.apply_remote("shared", bytes("new"), 9, false).ok());
  ASSERT_TRUE(b.apply_remote("deleted-on-b", {}, 30, true).ok());

  AntiEntropyScheduler sched(a_host.sys, a, [&] { b.serve_once(); });
  BsPeer peer{b_host.kernel.net_addr(), 7001};
  ASSERT_TRUE(sched.sync_with(peer).ok());
  // A pulled B's copies (incl. the tombstone), pushed its own, and both
  // inventories now hash identically.
  EXPECT_EQ(a.get("only-b").value(), bytes("b"));
  EXPECT_EQ(a.get("shared").value(), bytes("new"));
  EXPECT_EQ(a.get("deleted-on-b").error(), ErrorCode::kNotFound);
  EXPECT_EQ(b.get("only-a1").value(), bytes("a1"));
  EXPECT_EQ(b.get("only-a2").value(), bytes("a2"));
  EXPECT_EQ(MerkleTree::build(a.list()).root(), MerkleTree::build(b.list()).root());
  EXPECT_EQ(sched.stats().pulled, 3u);
  EXPECT_EQ(sched.stats().pushed, 2u);
  EXPECT_GT(sched.stats().bytes_sent, 0u);
  EXPECT_GT(sched.stats().bytes_received, 0u);
  // Converged pair: the next pass is one root exchange, nothing shipped.
  ASSERT_TRUE(sched.sync_with(peer).ok());
  EXPECT_EQ(sched.stats().clean_passes, 1u);
  EXPECT_EQ(sched.stats().pulled, 3u);
  EXPECT_EQ(sched.stats().pushed, 2u);
}

TEST(AntiEntropyTest, TokenBudgetParksPassAndResumes) {
  Network net;
  Host a_host(&net);
  Host b_host(&net);
  BlockStoreNode a(a_host.sys, 7000);
  BlockStoreNode b(b_host.sys, 7001);
  ASSERT_TRUE(a.init().ok());
  ASSERT_TRUE(b.init().ok());
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(b.apply_remote("k" + std::to_string(i), bytes("v"), static_cast<u64>(i + 1),
                               false).ok());
  }
  AntiEntropyConfig cfg;
  // Enough for the full tree descent (at most 21 interior fetches + root)
  // but far short of 32 leaf-fetch + pull pairs: the pass must park with
  // partial progress, not livelock re-walking the tree.
  cfg.tokens_per_pass = 24;
  AntiEntropyScheduler sched(a_host.sys, a, [&] { b.serve_once(); }, cfg);
  BsPeer peer{b_host.kernel.net_addr(), 7001};
  auto first = sched.sync_with(peer);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.error(), ErrorCode::kBusy);
  EXPECT_EQ(sched.stats().budget_exhausted, 1u);
  EXPECT_GT(sched.stats().pulled, 0u);  // parked, but not before repairing something
  // Budget refills per pass; repeated passes make monotone progress until
  // the replicas converge and a pass comes back clean.
  for (int pass = 0; pass < 64 && sched.stats().clean_passes == 0; ++pass) {
    (void)sched.sync_with(peer);
  }
  EXPECT_EQ(sched.stats().clean_passes, 1u);
  EXPECT_EQ(MerkleTree::build(a.list()).root(), MerkleTree::build(b.list()).root());
}

TEST(AntiEntropyTest, FullInventoryBaselineConvergesThroughSameAccounting) {
  Network net;
  Host a_host(&net);
  Host b_host(&net);
  BlockStoreNode a(a_host.sys, 7000);
  BlockStoreNode b(b_host.sys, 7001);
  ASSERT_TRUE(a.init().ok());
  ASSERT_TRUE(b.init().ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(a.apply_remote("k" + std::to_string(i), bytes("v"), static_cast<u64>(i + 1),
                               false).ok());
  }
  AntiEntropyScheduler sched(a_host.sys, a, [&] { b.serve_once(); });
  BsPeer peer{b_host.kernel.net_addr(), 7001};
  ASSERT_TRUE(sched.sync_full(peer).ok());
  EXPECT_EQ(MerkleTree::build(a.list()).root(), MerkleTree::build(b.list()).root());
  EXPECT_EQ(sched.stats().pushed, 6u);
  EXPECT_GT(sched.stats().bytes_received, 0u);
}

// --- Hinted-handoff bound --------------------------------------------------

// A peer whose Merkle leaf or full-inventory reply claims 0xFFFFFFFF
// entries gets kCorrupted from both repair paths: the count is checked
// against the payload before it sizes any allocation. The fake peer's
// Merkle nodes differ from the local (empty) tree only along the path to
// leaf 0, so the descent asks for exactly that leaf.
TEST(AntiEntropyTest, RepairRefusesACountThePayloadCannotHold) {
  Network net;
  Host node_host(&net);
  Host peer_host(&net);  // a hand-written peer: one datagram socket
  BlockStoreNode node(node_host.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  auto sock = peer_host.sys.udp_socket();
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(peer_host.sys.udp_bind(sock.value(), 7001).ok());

  const MerkleTree local = MerkleTree::build(node.list());
  const usize leaf0 = MerkleTree::kFirstLeaf;
  auto on_path = [&](usize idx) {
    for (usize n = leaf0;; n = (n - 1) / MerkleTree::kFanout) {
      if (n == idx) {
        return true;
      }
      if (n == 0) {
        return false;
      }
    }
  };
  Writer huge;
  huge.put_u32(0xFFFF'FFFFu);
  const std::vector<u8> huge_count = huge.take();
  auto pump = [&] {
    auto d = peer_host.sys.udp_recvfrom(sock.value());
    if (!d.ok()) {
      return;
    }
    Reader r(d.value().payload);
    auto op = r.get_u8();
    auto req_id = r.get_u64();
    auto key = r.get_string();
    ASSERT_TRUE(op && req_id && key);
    std::vector<u8> payload = huge_count;  // kList and kMerkleLeaf
    if (static_cast<BsOp>(*op) == BsOp::kMerkleNode) {
      usize idx = r.get_u32().value_or(0);
      Writer w;
      w.put_u32(local.hash[idx] ^ (on_path(idx) ? 1u : 0u));
      w.put_u32(static_cast<u32>(MerkleTree::kFanout));
      for (usize c = 0; c < MerkleTree::kFanout; ++c) {
        usize child = idx * MerkleTree::kFanout + 1 + c;
        w.put_u32(local.hash[child] ^ (on_path(child) ? 1u : 0u));
      }
      payload = w.take();
    }
    Writer reply;
    reply.put_u64(*req_id);
    reply.put_u32(static_cast<u32>(ErrorCode::kOk));
    reply.put_bytes(payload);
    ASSERT_TRUE(peer_host.sys
                    .udp_sendto(sock.value(), d.value().src_addr, d.value().src_port,
                                reply.bytes())
                    .ok());
  };
  AntiEntropyScheduler sched(node_host.sys, node, pump);
  BsPeer peer{peer_host.kernel.net_addr(), 7001};
  EXPECT_EQ(sched.sync_with(peer).error(), ErrorCode::kCorrupted);
  EXPECT_EQ(sched.sync_full(peer).error(), ErrorCode::kCorrupted);
}

TEST(HintCapTest, PerPeerCapDropsOldestHint) {
  Network net;
  Host host(&net);
  BlockStoreNode node(host.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  // Two-member view whose other member does not exist on the fabric: every
  // replicated put times out and parks a hint for the phantom owner.
  ClusterView view;
  view.replication = 2;
  view.ring = PlacementRing(16);
  view.ring.add_node(0);
  view.ring.add_node(1);
  view.directory[0] = BsPeer{host.kernel.net_addr(), 7000};
  view.directory[1] = BsPeer{0xDEAD, 7001};  // unreachable phantom
  ClusterConfig cc;
  cc.self = 0;
  cc.ack_deadline_polls = 8;  // fail fast: the phantom never answers
  cc.max_hints_per_peer = 4;
  node.configure_cluster(cc, view);

  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(node.put("key" + std::to_string(i), bytes("v")).ok());
  }
  // The queue is bounded at 4 parked hints; the 3 overflow parks each
  // evicted the then-oldest hint (drop-oldest, newest data survives).
  EXPECT_EQ(node.stats().hints_written, 7u);
  EXPECT_EQ(node.stats().hints_dropped, 3u);
  auto names = host.sys.readdir("/hints");
  ASSERT_TRUE(names.ok());
  usize parked = 0;
  for (const auto& name : names.value()) {
    if (name.rfind("1_", 0) == 0) {
      ++parked;
    }
  }
  EXPECT_EQ(parked, 4u);
}

}  // namespace
}  // namespace vnros
