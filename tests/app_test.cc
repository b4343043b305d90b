// Block-store application tests: node semantics, wire protocol, client
// retries, the client's non-blocking core, crash recovery and replication.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/app/anti_entropy.h"
#include "src/app/blockstore.h"
#include "src/base/crc.h"
#include "src/base/fault.h"
#include "src/base/rng.h"
#include "src/base/serde.h"
#include "src/app/sim_cluster.h"
#include "src/kernel/machine.h"

namespace vnros {
namespace {

std::vector<u8> bytes(std::string_view s) { return std::vector<u8>(s.begin(), s.end()); }

// Advances each host's VTP stack one tick: the stream plane's retransmit,
// probe and reap timers run here, in every client pump.
template <typename... Hosts>
void tick(Hosts&... hosts) {
  (hosts.kernel.vtp().tick(), ...);
}

// The `n`th of "k0", "k1", ... whose primary in `view` is member `id`.
std::string key_with_primary(const ClusterView& view, BsNodeId id, usize n = 0) {
  for (usize i = 0;; ++i) {
    std::string key = "k" + std::to_string(i);
    if (view.owners(key).front() == id && n-- == 0) {
      return key;
    }
  }
}

TEST(BlockStoreNodeTest, KeyPathIsHexEncoded) {
  EXPECT_EQ(BlockStoreNode::key_path("ab"), "/blocks/6162");
  EXPECT_EQ(BlockStoreNode::key_path(std::string("\x00\xff", 2)), "/blocks/00ff");
}

TEST(BlockStoreNodeTest, LocalPutGetDel) {
  Network net;
  Machine host({.network = &net});
  BlockStoreNode node(host.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  ASSERT_TRUE(node.put("k", bytes("value")).ok());
  EXPECT_EQ(node.get("k").value(), bytes("value"));
  ASSERT_TRUE(node.del("k").ok());
  EXPECT_EQ(node.get("k").error(), ErrorCode::kNotFound);
}

TEST(BlockStoreNodeTest, EmptyValueAllowed) {
  Network net;
  Machine host({.network = &net});
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
  Machine host({.network = &net});
  BlockStoreNode node(host.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  // A second node process re-initializing over the same fs: mkdir tolerated,
  // port conflict is surfaced.
  BlockStoreNode node2(host.sys, 7001);
  EXPECT_TRUE(node2.init().ok());
}

TEST(BlockStoreNodeTest, ViewSkipsCorruptBlocks) {
  Network net;
  Machine host({.network = &net});
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
  Machine host({.network = &net, .disk = &disk});
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

// A block file as its layout is written out by hand:
// [u32 crc32c(len'||seq||payload)][u32 len'][u64 seq][payload], where len'
// is the payload length, or bit 31 alone for a tombstone.
std::vector<u8> pin_block_file(u64 seq, bool tombstone, std::string_view payload) {
  Writer covered;
  covered.put_u32(tombstone ? 0x8000'0000u : static_cast<u32>(payload.size()));
  covered.put_u64(seq);
  covered.put_raw(bytes(payload));
  Writer file;
  file.put_u32(crc32c(covered.bytes()));
  file.put_raw(covered.bytes());
  return file.take();
}

// The whole file at `path`, read back through the syscall facade.
std::vector<u8> read_raw_file(Sys& sys, const std::string& path) {
  auto fd = sys.open(path, 0);
  if (!fd.ok()) {
    return {};
  }
  auto st = sys.fstat(fd.value());
  auto raw = sys.read(fd.value(), st.ok() ? st.value().size : 0);
  (void)sys.close(fd.value());
  return raw.ok() ? raw.value() : std::vector<u8>{};
}

// The bytes a node leaves on disk: a put, an overwrite and a sequenced
// delete in /blocks, and the value and tombstone hints parked beside them in
// /hints. The node has a two-member view and no pump, so every push to the
// other member fails at once (kUnsupported) and is hinted.
TEST(BlockStoreNodeTest, BlockAndHintFilesKeepTheirBytes) {
  Network net;
  Machine host({.network = &net});
  BlockStoreNode node(host.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  node.configure_cluster({.self = 0},
                         ClusterView::of({{host.kernel.net_addr(), 7000}, {0xDEAD, 7001}}, 2));

  ASSERT_TRUE(node.put("a", bytes("first")).ok());       // /blocks/61 at seq 1
  ASSERT_TRUE(node.put("a", bytes("second!")).ok());     // overwritten at seq 2
  ASSERT_TRUE(node.put("t", bytes("doomed")).ok());      // /blocks/74 at seq 1
  ASSERT_TRUE(node.del("t").ok());                       // a tombstone at seq 2
  ASSERT_TRUE(node.put("e", {}).ok());                   // an empty value at seq 1
  EXPECT_EQ(node.stats().hints_written, 5u);

  EXPECT_EQ(host.sys.readdir("/blocks").value(), (std::vector<std::string>{"61", "65", "74"}));
  EXPECT_EQ(read_raw_file(host.sys, "/blocks/61"), pin_block_file(2, false, "second!"));
  EXPECT_EQ(read_raw_file(host.sys, "/blocks/74"), pin_block_file(2, true, ""));
  EXPECT_EQ(read_raw_file(host.sys, "/blocks/65"), pin_block_file(1, false, ""));
  EXPECT_EQ(host.sys.readdir("/hints").value(),
            (std::vector<std::string>{"1_61", "1_65", "1_74"}));
  EXPECT_EQ(read_raw_file(host.sys, "/hints/1_61"), pin_block_file(2, false, "second!"));
  EXPECT_EQ(read_raw_file(host.sys, "/hints/1_74"), pin_block_file(2, true, ""));
  EXPECT_EQ(read_raw_file(host.sys, "/hints/1_65"), pin_block_file(1, false, ""));
}

TEST(BlockStoreWireTest, EndToEndOverFabric) {
  Network net;
  Machine server({.network = &net});
  Machine client_host({.network = &net});
  BlockStoreNode node(server.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  BlockStoreClient client(
      client_host.sys, ClusterView::of({{server.kernel.net_addr(), 7000}}, 1), [&] {
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
// stream (segmented at the MSS) to the primary, then the primary's acked
// replication push to the other owner — one node-to-node datagram, whose
// framing must be just as exact (the fabric has no MTU).
TEST(BlockStoreWireTest, LargeValueCrossesDatagrams) {
  Network net;
  Machine primary_host({.network = &net});
  Machine replica_host({.network = &net});
  Machine client_host({.network = &net});
  BlockStoreNode replica(replica_host.sys, 7001);
  ASSERT_TRUE(replica.init().ok());
  BlockStoreNode primary(primary_host.sys, 7000, {}, [&] { replica.serve_once(); });
  ASSERT_TRUE(primary.init().ok());
  ClusterView view = ClusterView::of(
      {BsPeer{primary_host.kernel.net_addr(), 7000}, BsPeer{replica_host.kernel.net_addr(), 7001}},
      2);
  primary.configure_cluster({.self = 0}, view);
  replica.configure_cluster({.self = 1}, view);
  BlockStoreClient client(
      client_host.sys, ClusterView::of({{primary_host.kernel.net_addr(), 7000}}, 1), [&] {
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
  EXPECT_EQ(primary.stats().hints_written, 0u);  // the push was acked, not parked
}

// A frame header whose length no request needs (here 2^32 - 1 bytes) closes
// the connection: the node would otherwise buffer everything the client
// streams after it, without limit, waiting for a body that never ends.
TEST(BlockStoreWireTest, OversizedFrameHeaderClosesTheStream) {
  Network net;
  Machine server({.network = &net});
  Machine client_host({.network = &net});
  BlockStoreNode node(server.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  auto fd = client_host.sys.vtp_connect(server.kernel.net_addr(), 7000, /*src_port=*/0);
  ASSERT_TRUE(fd.ok());
  Writer header;
  header.put_u32(0xFFFF'FFFFu);
  std::vector<u8> stream = header.take();
  const std::vector<u8> chunk(4096, 0xAB);
  for (int i = 0; i < 4; ++i) {
    stream.insert(stream.end(), chunk.begin(), chunk.end());
  }
  usize sent = 0;
  ErrorCode end = ErrorCode::kOk;
  for (int poll = 0; poll < 256 && end == ErrorCode::kOk; ++poll) {
    if (sent < stream.size()) {
      auto n = client_host.sys.vtp_send(fd.value(), std::span<const u8>(stream).subspan(sent));
      if (n.ok()) {
        sent += n.value();
      }
    }
    node.serve_once();
    tick(server, client_host);
    auto got = client_host.sys.vtp_recv(fd.value(), 4096);
    if (!got.ok() && got.error() != ErrorCode::kWouldBlock) {
      end = got.error();
    }
  }
  EXPECT_TRUE(end == ErrorCode::kPipeClosed || end == ErrorCode::kConnReset)
      << "the node kept the stream open: " << error_name(end);
}

// Each plane serves only its own role's ops. A client stream that sends a
// well-formed peer op, and a datagram that carries a client op, both get
// kNotPermitted: nothing is stored or dropped, and the tombstone survives
// the kTombstoneGc. An unknown opcode is still kInvalidArgument. Neither
// refusal passes admission, so neither takes a token: with one token in the
// bucket, refused ops on both planes leave it for the client put sent last.
TEST(BlockStoreWireTest, EachPlaneRefusesTheOthersOps) {
  Network net;
  Machine server({.network = &net});
  Machine client_host({.network = &net});
  BlockStoreNode node(server.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  ASSERT_TRUE(node.put("live", bytes("original")).ok());
  ASSERT_TRUE(node.put("gone", bytes("doomed")).ok());
  ASSERT_TRUE(node.del("gone").ok());
  const std::vector<BlockKeyInfo> before = node.list();
  ASSERT_EQ(before.size(), 2u);

  // [op][req_id][key], then the op's fields: a write sequence, and the
  // value for a put.
  u64 next_req_id = 1;
  auto request = [&](BsOp op, std::string_view key, std::optional<u64> seq = std::nullopt,
                     std::optional<std::vector<u8>> value = std::nullopt) {
    Writer w;
    w.put_u8(static_cast<u8>(op));
    w.put_u64(next_req_id++);
    w.put_string(key);
    if (seq) {
      w.put_u64(*seq);
    }
    if (value) {
      w.put_bytes(*value);
    }
    return w.take();
  };
  // Every reply's error code, in arrival order.
  std::vector<ErrorCode> codes;
  auto record = [&](std::span<const u8> reply) {
    Reader r(reply);
    auto rid = r.get_u64();
    auto err = r.get_u32();
    ASSERT_TRUE(rid && err);
    codes.push_back(static_cast<ErrorCode>(*err));
  };

  // The stream plane: requests framed [u32 len][body] on one connection.
  auto fd = client_host.sys.vtp_connect(server.kernel.net_addr(), 7000, /*src_port=*/0);
  ASSERT_TRUE(fd.ok());
  std::vector<u8> inbuf;
  auto on_stream = [&](const std::vector<std::vector<u8>>& bodies) {
    Writer framed;
    for (const auto& body : bodies) {
      framed.put_u32(static_cast<u32>(body.size()));
      framed.put_raw(body);
    }
    EXPECT_TRUE(client_host.sys.vtp_send(fd.value(), framed.bytes()).ok());
    codes.clear();
    for (int poll = 0; poll < 256 && codes.size() < bodies.size(); ++poll) {
      node.serve_once();
      tick(server, client_host);
      auto got = client_host.sys.vtp_recv(fd.value(), 4096);
      if (got.ok()) {
        inbuf.insert(inbuf.end(), got.value().begin(), got.value().end());
      }
      for (;;) {
        Reader fr(inbuf);
        auto len = fr.get_u32();
        auto body = len ? fr.get_raw(*len) : std::nullopt;
        if (!body) {
          break;
        }
        record(*body);
        inbuf.erase(inbuf.begin(), inbuf.begin() + 4 + *len);
      }
    }
    return codes;
  };
  // The peer plane: one datagram per request, to the node's peer socket.
  auto sock = client_host.sys.udp_socket();
  ASSERT_TRUE(sock.ok());
  auto on_peer_socket = [&](const std::vector<std::vector<u8>>& bodies) {
    for (const auto& body : bodies) {
      EXPECT_TRUE(
          client_host.sys.udp_sendto(sock.value(), server.kernel.net_addr(), 7000, body).ok());
    }
    codes.clear();
    for (int poll = 0; poll < 64 && codes.size() < bodies.size(); ++poll) {
      node.serve_once();
      if (auto d = client_host.sys.udp_recvfrom(sock.value()); d.ok()) {
        record(d.value().payload);
      }
    }
    return codes;
  };
  using Codes = std::vector<ErrorCode>;

  EXPECT_EQ(on_stream({request(BsOp::kPutReplica, "live", 100, bytes("forged")),
                       request(BsOp::kDelReplica, "live", 100),
                       request(BsOp::kTombstoneGc, "gone", 100), request(BsOp::kGetBlock, "live"),
                       request(BsOp::kList, "")}),
            Codes(5, ErrorCode::kNotPermitted));
  EXPECT_EQ(on_peer_socket({request(BsOp::kPut, "planted", 100, bytes("forged")),
                            request(BsOp::kGet, "live"), request(BsOp::kDel, "live", 100),
                            request(BsOp::kPing, "")}),
            Codes(4, ErrorCode::kNotPermitted));
  EXPECT_EQ(node.list(), before);  // nothing stored, and the tombstone survived
  EXPECT_EQ(node.get("live").value_or(std::vector<u8>{}), bytes("original"));

  AdmissionConfig admission;
  admission.enabled = true;
  admission.burst_ops = 1;
  node.set_admission(admission);
  node.grant_tokens(1'000'000);  // exactly one op in the bucket
  EXPECT_EQ(on_stream({request(BsOp::kGetBlock, "live"), request(static_cast<BsOp>(99), "live")}),
            (Codes{ErrorCode::kNotPermitted, ErrorCode::kInvalidArgument}));
  EXPECT_EQ(on_peer_socket({request(BsOp::kGet, "live")}), Codes{ErrorCode::kNotPermitted});
  EXPECT_EQ(on_stream({request(BsOp::kPut, "admitted", 200, bytes("value"))}),
            Codes{ErrorCode::kOk});
  EXPECT_EQ(node.stats().sheds, 0u);
  EXPECT_EQ(node.get("admitted").value_or(std::vector<u8>{}), bytes("value"));
}

// The client shares the node's bound: a put whose request body would pass
// kVtpConnBufMax is refused with a typed error before anything is sent,
// and the largest put that fits still lands.
TEST(BlockStoreWireTest, ClientRefusesAPutPastTheFrameBound) {
  Network net;
  Machine server({.network = &net});
  Machine client_host({.network = &net});
  BlockStoreNode node(server.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  RetryPolicy policy;
  policy.polls_per_attempt = 2048;  // a 1 MiB frame crosses 16 KiB windows
  BlockStoreClient client(
      client_host.sys, ClusterView::of({{server.kernel.net_addr(), 7000}}, 1),
      [&] {
        node.serve_once();
        tick(server, client_host);
      },
      policy);
  // A put's body is 25 header bytes, the key ("big") and the value.
  const usize fits = kVtpConnBufMax - 25 - 3;
  EXPECT_EQ(client.put("big", std::vector<u8>(fits + 1, 1)).error(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(client.retry_stats().attempts, 0u);
  ASSERT_TRUE(client.put("big", std::vector<u8>(fits, 1)).ok());
  EXPECT_EQ(client.get("big").value().size(), fits);
}

// An attempt window shorter than the stream's RTO hands loss recovery back
// to the rpc layer: under 30% loss attempts time out and re-send their
// request on the same stream, and the duplicate frames stay idempotent.
TEST(BlockStoreWireTest, RetriesSurviveLoss) {
  FabricConfig fabric;
  fabric.loss_ppm = 300'000;  // 30% loss
  Network net(fabric, 77);
  Machine server({.network = &net});
  Machine client_host({.network = &net});
  BlockStoreNode node(server.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  RetryPolicy policy;
  policy.max_attempts = 64;
  policy.polls_per_attempt = VtpStack::kRtoTicks / 2;
  BlockStoreClient client(
      client_host.sys, ClusterView::of({{server.kernel.net_addr(), 7000}}, 1),
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
  Machine server({.network = &net});
  Machine client_host({.network = &net});
  BlockStoreNode node(server.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  BlockStoreClient client(
      client_host.sys, ClusterView::of({{server.kernel.net_addr(), 7000}}, 1), [&] {
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
  Machine server({.network = &net});
  Machine client_host({.network = &net});
  BlockStoreNode node(server.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  BlockStoreClient client(
      client_host.sys, ClusterView::of({{server.kernel.net_addr(), 7000}}, 1), [&] {
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
  Machine server({.network = &net});
  Machine client_host({.network = &net});
  BlockStoreNode node(server.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  BlockStoreClient client(
      client_host.sys, ClusterView::of({{server.kernel.net_addr(), 7000}}, 1), [&] {
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
    Machine host({.network = &net, .disk = &disk});
    BlockStoreNode node(host.sys, 7000);
    ASSERT_TRUE(node.init().ok());
    ASSERT_TRUE(node.put("persist-me", bytes("durable")).ok());
    disk.crash(0);  // worst case: all unflushed state gone
  }
  Network net2;
  Machine rebooted({.network = &net2, .disk = &disk, .recover_fs = true});
  BlockStoreNode node(rebooted.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  EXPECT_EQ(node.get("persist-me").value(), bytes("durable"));
}

// Crash during the replication push: the primary acks a put whose push to
// the replica is never acked (partitioned fabric), so it parks a hint; then
// the primary's disk crashes. Whatever fraction of un-flushed sectors
// survives the crash, the acked put must still be readable after recovery —
// put() fsyncs before acking — and a full-inventory anti-entropy pass
// (sync_full) run by the replica's scheduler must pull it back. Swept over
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
    Machine replica_host({.network = &net});
    BlockStoreNode* rebooted_primary = nullptr;  // served by the replica's pump once up
    BlockStoreNode replica(replica_host.sys, 7001, {}, [&] {
      if (rebooted_primary != nullptr) {
        rebooted_primary->serve_once();
      }
    });
    ASSERT_TRUE(replica.init().ok());

    {
      Machine primary_host({.network = &net, .disk = &disk});
      BlockStoreNode primary(primary_host.sys, 7000, {}, [&] { replica.serve_once(); });
      ASSERT_TRUE(primary.init().ok());
      ClusterView view = ClusterView::of({BsPeer{primary_host.kernel.net_addr(), 7000},
                                          BsPeer{replica_host.kernel.net_addr(), 7001}},
                                         2);
      primary.configure_cluster({.self = 0}, view);
      replica.configure_cluster({.self = 1}, view);
      // Cut the primary<->replica link so the replication push is never
      // acked, then crash the primary after it acks the client.
      net.partition(primary_host.kernel.net_addr(), replica_host.kernel.net_addr());
      ASSERT_TRUE(primary.put("acked", bytes("must-survive")).ok());
      EXPECT_EQ(primary.stats().hints_written, 1u);
      replica.serve_once();
      EXPECT_EQ(replica.get("acked").error(), ErrorCode::kNotFound);
      disk.crash(c.persist_ppm);
    }
    net.heal_all();

    Machine rebooted({.network = &net, .disk = &disk, .recover_fs = true});
    BlockStoreNode primary(rebooted.sys, 7000);
    ASSERT_TRUE(primary.init().ok());
    EXPECT_EQ(primary.get("acked").value(), bytes("must-survive"));

    rebooted_primary = &primary;
    AntiEntropyScheduler ae(replica);
    ASSERT_TRUE(ae.sync_full(BsPeer{rebooted.kernel.net_addr(), 7000}).ok());
    EXPECT_EQ(ae.stats().pulled, 1u);
    EXPECT_EQ(replica.get("acked").value(), bytes("must-survive"));
  }
}

// --- RetryPolicy edge cases --------------------------------------------------

// With jitter off, the backoff ladder is exact: base, then doubling, capped.
// A dead server forces every attempt to back off, so the client's
// backoff_polls counter must equal the closed-form sum.
TEST(RetryPolicyTest, BackoffRespectsCap) {
  Network net;
  Machine server({.network = &net});  // bound to the fabric but nothing serves
  Machine client_host({.network = &net});
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.polls_per_attempt = 4;
  policy.backoff_base_polls = 4;
  policy.backoff_max_polls = 8;
  policy.jitter_ppm = 0;
  BlockStoreClient client(client_host.sys, ClusterView::of({{server.kernel.net_addr(), 7000}}, 1),
                          {}, policy);
  EXPECT_EQ(client.get("k").error(), ErrorCode::kTimedOut);
  // Four retries backed off 4, 8, 8, 8 polls (doubling clamps at the cap).
  EXPECT_EQ(client.retry_stats().retries, 4u);
  EXPECT_EQ(client.retry_stats().backoff_polls, 4u + 8u + 8u + 8u);
}

// With jitter on, every wait lands in [w, w * (1 + jitter_ppm/1e6)].
TEST(RetryPolicyTest, JitterBounded) {
  Network net;
  Machine server({.network = &net});
  Machine client_host({.network = &net});
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.polls_per_attempt = 4;
  policy.backoff_base_polls = 8;
  policy.backoff_max_polls = 0;  // uncapped
  policy.jitter_ppm = 500'000;   // up to +50%
  BlockStoreClient client(client_host.sys, ClusterView::of({{server.kernel.net_addr(), 7000}}, 1),
                          {}, policy);
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
  Machine server({.network = &net});
  Machine client_host({.network = &net});
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.polls_per_attempt = 20;
  policy.backoff_base_polls = 64;  // longer than the whole deadline
  policy.jitter_ppm = 0;
  policy.deadline_polls = 30;      // one window (20) + a partial window (10)
  BlockStoreClient client(client_host.sys, ClusterView::of({{server.kernel.net_addr(), 7000}}, 1),
                          {}, policy);
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
  Machine server({.network = &net});
  Machine client_host({.network = &net});
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.polls_per_attempt = 20;
  policy.backoff_base_polls = 64;  // would overshoot: 20 + 64 + 20 > 100
  policy.jitter_ppm = 0;
  policy.deadline_polls = 100;
  BlockStoreClient client(client_host.sys, ClusterView::of({{server.kernel.net_addr(), 7000}}, 1),
                          {}, policy);
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
  Machine server({.network = &net});  // nothing serves or ticks: the send buffer only fills
  Machine client_host({.network = &net});
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.polls_per_attempt = 4;
  BlockStoreClient client(client_host.sys, ClusterView::of({{server.kernel.net_addr(), 7000}}, 1),
                          {}, policy);
  std::vector<u8> huge(VtpStack::kSndBufMax + 1024, 0x5A);
  EXPECT_EQ(client.put("huge", huge).error(), ErrorCode::kWouldBlock);
  EXPECT_EQ(client.retry_stats().send_errors, 2u);
  EXPECT_EQ(client.retry_stats().reconnects, 1u);
}

// kOverloaded is backpressure, not failure: the client must wait out the
// shed on the key's primary — zero failovers even with a healthy standby in
// the view — and succeed once the bucket refills.
TEST(RetryPolicyTest, OverloadedBacksOffWithoutFailover) {
  Network net;
  Machine server({.network = &net});
  Machine standby_host({.network = &net});
  Machine client_host({.network = &net});
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
  const ClusterView view = ClusterView::of(
      {BsPeer{server.kernel.net_addr(), 7000}, BsPeer{standby_host.kernel.net_addr(), 7001}}, 2);
  BlockStoreClient client(
      client_host.sys, view,
      [&] {
        node.serve_once();
        standby.serve_once();
        tick(server, standby_host, client_host);
        if (++polls == 60) {
          node.grant_tokens(1'000'000);  // the bucket refills mid-backoff
        }
      },
      policy);
  // Both keys have the overloaded node as their primary.
  const std::string a = key_with_primary(view, 0);
  const std::string b = key_with_primary(view, 0, 1);

  ASSERT_TRUE(client.put(a, bytes("first")).ok());   // consumes the token
  ASSERT_TRUE(client.put(b, bytes("second")).ok());  // shed, then admitted
  EXPECT_GT(client.retry_stats().overloads, 0u);
  EXPECT_EQ(client.retry_stats().failovers, 0u);
  EXPECT_GT(node.stats().sheds, 0u);
  EXPECT_EQ(node.get(b).value(), bytes("second"));
  EXPECT_EQ(standby.get(b).error(), ErrorCode::kNotFound);  // never stampeded
}

// --- The non-blocking client core --------------------------------------------

// Three library clients interleaved through start()/poll() on one thread,
// over one 3-node cluster, each on keys of its own. Mid-run the client host
// loses its link to one node: ops whose primary it is time out inside
// poll() and fail over to the key's other owner, and the link heals later.
// Every reply is checked against a model of the acked writes.
TEST(BlockStoreClientCoreTest, InterleavedClientsFailOverInsidePoll) {
  SimCluster cluster(3, 2);
  const ClusterView& view = cluster.view();
  Machine client_host({.network = &cluster.net()});
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
    clients.push_back(std::make_unique<BlockStoreClient>(client_host.sys, view,
                                                         std::function<void()>{}, policy));
    scripts[c].rng = Rng(0xC0DE + c);
  }
  std::map<std::string, std::vector<u8>> model;
  // The cut node is the primary of client 0's first key, so that key's ops
  // must fail over while the link is down.
  BsNodeId cut = view.owners("c0-k0").front();
  LinkAddr client_addr = client_host.kernel.net_addr();
  LinkAddr cut_addr = cluster.addr(cut);

  usize finished = 0;
  usize cut_step = 0;  // when the link went down
  usize step = 1;
  for (; step < 20'000 && finished < kClients * kOpsPerClient; ++step) {
    if (cut_step == 0 && finished >= 40) {
      cluster.net().partition(client_addr, cut_addr);
      cut_step = step;
    }
    if (cut_step != 0 && step == cut_step + 400) {
      cluster.net().heal(client_addr, cut_addr);
    }
    cluster.pump(client_host);
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
  Machine server({.network = &net});
  Machine client_host({.network = &net});
  BlockStoreNode node(server.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  BlockStoreClient client(client_host.sys, ClusterView::of({{server.kernel.net_addr(), 7000}}, 1),
                          {});
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

// An op the view cannot route is refused inside start(), with nothing sent
// and no write stamp taken: every op on an empty view, and a peer op, which
// no client sends, on any view.
TEST(BlockStoreClientCoreTest, StartRefusesAnOpTheViewCannotRoute) {
  Network net;
  Machine server({.network = &net});
  Machine client_host({.network = &net});
  BlockStoreNode node(server.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  const ClusterView no_members;
  BlockStoreClient empty(client_host.sys, no_members, {});
  EXPECT_EQ(empty.start(BsOp::kPut, "k", bytes("v")).error(), ErrorCode::kNotFound);
  EXPECT_EQ(empty.start(BsOp::kDel, "k").error(), ErrorCode::kNotFound);
  EXPECT_EQ(empty.start(BsOp::kGet, "k").error(), ErrorCode::kNotFound);
  EXPECT_EQ(empty.start(BsOp::kPing, "").error(), ErrorCode::kNotFound);
  EXPECT_EQ(empty.put("k", bytes("v")).error(), ErrorCode::kNotFound);
  EXPECT_FALSE(empty.waiting());
  EXPECT_EQ(empty.poll(), std::nullopt);
  EXPECT_EQ(empty.retry_stats().attempts, 0u);
  EXPECT_EQ(empty.last_write_seq(), 0u);

  BlockStoreClient client(client_host.sys, ClusterView::of({{server.kernel.net_addr(), 7000}}, 1),
                          [&] {
                            node.serve_once();
                            tick(server, client_host);
                          });
  EXPECT_EQ(client.start(BsOp::kPutReplica, "k", bytes("v")).error(), ErrorCode::kNotFound);
  EXPECT_EQ(client.start(BsOp::kList, "").error(), ErrorCode::kNotFound);
  EXPECT_EQ(client.retry_stats().attempts, 0u);
  ASSERT_TRUE(client.put("k", bytes("v")).ok());
  EXPECT_EQ(client.last_write_seq(), 1u);  // the first stamp the client used
  EXPECT_EQ(client.retry_stats().attempts, 1u);
}

// Every blocking op is start() plus a pump-and-poll loop inside one bs/rpc
// span, however many attempts it takes: each op on the key here, and the
// ping, first times out on a member that never answers (the key's primary,
// and the lowest id), then fails over.
TEST(BlockStoreClientCoreTest, EachBlockingOpRecordsOneRpcSpan) {
  Network net;
  Machine dead({.network = &net});  // on the fabric, nothing serves
  Machine server({.network = &net});
  Machine client_host({.network = &net});
  BlockStoreNode node(server.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  RetryPolicy policy;
  policy.polls_per_attempt = 8;
  const ClusterView view = ClusterView::of(
      {BsPeer{dead.kernel.net_addr(), 7000}, BsPeer{server.kernel.net_addr(), 7000}}, 2);
  BlockStoreClient client(
      client_host.sys, view,
      [&] {
        node.serve_once();
        tick(dead, server, client_host);
      },
      policy);
  const std::string key = key_with_primary(view, 0);

  SpanTracer& tracer = ObsRegistry::global().tracer();
  const u32 rpc_site = tracer.intern_site("bs/rpc");
  tracer.clear();
  tracer.set_enabled(true);
  ASSERT_TRUE(client.put(key, bytes("v")).ok());
  ASSERT_TRUE(client.get(key).ok());
  ASSERT_TRUE(client.get_with_seq(key).ok());
  EXPECT_EQ(client.get("missing").error(), ErrorCode::kNotFound);
  ASSERT_TRUE(client.del(key).ok());
  ASSERT_TRUE(client.ping().ok());
  tracer.set_enabled(false);
  EXPECT_GT(client.retry_stats().failovers, 0u);

  usize rpc_spans = 0;
  for (const SpanEvent& ev : tracer.spans()) {
    rpc_spans += ev.site == rpc_site ? 1 : 0;
  }
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(rpc_spans, kMetricsEnabled ? 6u : 0u);
  tracer.clear();
}

// A kList reply whose count claims more entries than its bytes can hold is
// kCorrupted: the count is checked against the payload before it sizes any
// allocation (0xFFFFFFFF entries would ask for about 240 GB). So is an
// entry whose tombstone flag is neither 0 nor 1.
TEST(BlockStoreWireTest, DecodeInventoryRefusesACountThePayloadCannotHold) {
  Writer huge;
  huge.put_u32(0xFFFF'FFFFu);
  EXPECT_EQ(bs_payload<BsOp::kList>(huge.bytes()).error(), ErrorCode::kCorrupted);

  Writer one_short;  // one entry claimed, one byte short of the smallest
  one_short.put_u32(1);
  one_short.put_raw(std::vector<u8>(16, 0));
  EXPECT_EQ(bs_payload<BsOp::kList>(one_short.bytes()).error(), ErrorCode::kCorrupted);

  Writer two;
  two.put_u32(2);
  for (const BlockKeyInfo& e : {BlockKeyInfo{"a", 7, 3, false}, BlockKeyInfo{"b", 0, 9, true}}) {
    two.put_string(e.key);
    two.put_u32(e.crc);
    two.put_u64(e.seq);
    two.put_u8(e.tombstone ? 1 : 0);
  }
  auto listed = bs_payload<BsOp::kList>(two.bytes());
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed.value(), (std::vector<BlockKeyInfo>{{"a", 7, 3, false}, {"b", 0, 9, true}}));

  std::vector<u8> odd_flag = two.take();
  odd_flag.back() = 2;
  EXPECT_EQ(bs_payload<BsOp::kList>(odd_flag).error(), ErrorCode::kCorrupted);
}

// --- Byte pins -----------------------------------------------------------------
//
// The blockstore wire, written out field by field with Writer's primitives
// as perfbench/kv.cc writes its kPing, kGet and kPut frames. A request body
// is [u8 op][u64 req_id][u32-length key][op fields]; a reply is [u64 req_id]
// [u32 ErrorCode][u32-length value][u64 seq], except that a plane or
// admission refusal ends after the value. Stream frames add a u32 length
// prefix; datagrams carry the body alone.

std::vector<u8> pin_request(BsOp op, u64 req_id, std::string_view key,
                            std::optional<u64> seq = std::nullopt,
                            std::optional<std::vector<u8>> value = std::nullopt) {
  Writer w;
  w.put_u8(static_cast<u8>(op));
  w.put_u64(req_id);
  w.put_string(key);
  if (seq) {
    w.put_u64(*seq);
  }
  if (value) {
    w.put_bytes(*value);
  }
  return w.take();
}

// A kMerkleNode or kMerkleLeaf request: no key, one u32 index.
std::vector<u8> pin_index_request(BsOp op, u64 req_id, u32 index) {
  Writer w;
  w.put_u8(static_cast<u8>(op));
  w.put_u64(req_id);
  w.put_string("");
  w.put_u32(index);
  return w.take();
}

std::vector<u8> pin_reply(u64 req_id, ErrorCode err, std::span<const u8> value = {},
                          std::optional<u64> seq = u64{0}) {
  Writer w;
  w.put_u64(req_id);
  w.put_u32(static_cast<u32>(err));
  w.put_bytes(value);
  if (seq) {
    w.put_u64(*seq);
  }
  return w.take();
}

std::vector<u8> pin_refusal(u64 req_id, ErrorCode err) {
  return pin_reply(req_id, err, {}, std::nullopt);
}

std::vector<u8> pin_framed(std::span<const u8> body) {
  Writer w;
  w.put_u32(static_cast<u32>(body.size()));
  w.put_raw(body);
  return w.take();
}

// kList: [u32 count][(key, u32 crc, u64 seq, u8 tombstone)...].
std::vector<u8> pin_inventory(const std::vector<BlockKeyInfo>& entries) {
  Writer w;
  w.put_u32(static_cast<u32>(entries.size()));
  for (const BlockKeyInfo& e : entries) {
    w.put_string(e.key);
    w.put_u32(e.crc);
    w.put_u64(e.seq);
    w.put_u8(e.tombstone ? 1 : 0);
  }
  return w.take();
}

// One Merkle leaf entry, as kMerkleLeaf ships it and the leaf hash covers it.
void pin_leaf_entry(Writer& w, const BlockKeyInfo& e) {
  w.put_string(e.key);
  w.put_u64(e.seq);
  w.put_u8(e.tombstone ? 1 : 0);
}

// kMerkleLeaf: [u32 count][(key, u64 seq, u8 tombstone)...].
std::vector<u8> pin_leaf(const std::vector<BlockKeyInfo>& entries) {
  Writer w;
  w.put_u32(static_cast<u32>(entries.size()));
  for (const BlockKeyInfo& e : entries) {
    pin_leaf_entry(w, e);
  }
  return w.take();
}

// kMerkleNode: [u32 hash][u32 child count][u32 child hash...], no children
// for a leaf.
std::vector<u8> pin_merkle_node(const MerkleTree& t, usize idx) {
  Writer w;
  w.put_u32(t.hash[idx]);
  if (MerkleTree::is_leaf(idx)) {
    w.put_u32(0);
  } else {
    w.put_u32(static_cast<u32>(MerkleTree::kFanout));
    for (usize c = 0; c < MerkleTree::kFanout; ++c) {
      w.put_u32(t.hash[idx * MerkleTree::kFanout + 1 + c]);
    }
  }
  return w.take();
}

// kGetBlock's value: [u8 tombstone][raw bytes], no length prefix.
std::vector<u8> pin_block(bool tombstone, std::string_view bytes_in) {
  std::vector<u8> out{static_cast<u8>(tombstone ? 1 : 0)};
  out.insert(out.end(), bytes_in.begin(), bytes_in.end());
  return out;
}

using Frames = std::vector<std::vector<u8>>;

// A hand-driven peer of one node: a raw VTP stream and a raw datagram
// socket. Each exchange returns the reply bytes exactly as they arrived:
// whole frames off the stream, length prefix included, and datagram
// payloads off the socket.
struct RawPeer {
  Machine& server;
  Machine& host;
  BlockStoreNode& node;
  Fd stream = kInvalidFd;
  Fd sock = kInvalidFd;
  std::vector<u8> inbuf;

  RawPeer(Machine& s, Machine& h, BlockStoreNode& n) : server(s), host(h), node(n) {
    stream = host.sys.vtp_connect(server.kernel.net_addr(), n.port(), 0).value();
    sock = host.sys.udp_socket().value();
  }

  Frames on_stream(const Frames& bodies, usize replies) {
    std::vector<u8> out;
    for (const auto& body : bodies) {
      auto f = pin_framed(body);
      out.insert(out.end(), f.begin(), f.end());
    }
    EXPECT_TRUE(host.sys.vtp_send(stream, out).ok());
    Frames got;
    for (int poll = 0; poll < 256 && got.size() < replies; ++poll) {
      node.serve_once();
      tick(server, host);
      if (auto r = host.sys.vtp_recv(stream, 1 << 16); r.ok()) {
        inbuf.insert(inbuf.end(), r.value().begin(), r.value().end());
      }
      for (;;) {
        Reader fr(inbuf);
        auto len = fr.get_u32();
        if (!len || !fr.get_raw(*len)) {
          break;
        }
        got.emplace_back(inbuf.begin(), inbuf.begin() + 4 + *len);
        inbuf.erase(inbuf.begin(), inbuf.begin() + 4 + *len);
      }
    }
    return got;
  }

  Frames on_socket(const Frames& bodies) {
    for (const auto& body : bodies) {
      EXPECT_TRUE(host.sys.udp_sendto(sock, server.kernel.net_addr(), node.port(), body).ok());
    }
    Frames got;
    for (int poll = 0; poll < 64 && got.size() < bodies.size(); ++poll) {
      node.serve_once();
      while (auto d = host.sys.udp_recvfrom(sock)) {
        got.push_back(d.value().payload);
      }
    }
    return got;
  }
};

// Every reply the node writes, byte for byte, on both planes.
TEST(BlockStoreWirePinTest, NodeRepliesKeepTheirBytes) {
  Network net;
  Machine server({.network = &net});
  Machine host({.network = &net});
  BlockStoreNode node(server.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  RawPeer raw(server, host, node);
  auto one = [](std::vector<u8> body) { return Frames{pin_framed(body)}; };

  // The client plane.
  EXPECT_EQ(raw.on_stream({pin_request(BsOp::kPing, 1, "")}, 1),
            one(pin_reply(1, ErrorCode::kOk)));
  EXPECT_EQ(raw.on_stream({pin_request(BsOp::kPut, 2, "k", 5, bytes("val"))}, 1),
            one(pin_reply(2, ErrorCode::kOk)));
  EXPECT_EQ(raw.on_stream({pin_request(BsOp::kGet, 3, "k")}, 1),
            one(pin_reply(3, ErrorCode::kOk, bytes("val"), 5)));
  EXPECT_EQ(raw.on_stream({pin_request(BsOp::kDel, 4, "k", 6)}, 1),
            one(pin_reply(4, ErrorCode::kOk)));
  EXPECT_EQ(raw.on_stream({pin_request(BsOp::kGet, 5, "k")}, 1),
            one(pin_reply(5, ErrorCode::kNotFound)));
  EXPECT_EQ(raw.on_stream({pin_request(BsOp::kList, 6, "")}, 1),
            one(pin_refusal(6, ErrorCode::kNotPermitted)));
  EXPECT_EQ(raw.on_stream({pin_request(static_cast<BsOp>(99), 7, "k")}, 1),
            one(pin_reply(7, ErrorCode::kInvalidArgument)));
  EXPECT_EQ(raw.on_stream({pin_request(BsOp::kPut, 8, "k", 7)}, 1),  // no value
            one(pin_reply(8, ErrorCode::kInvalidArgument)));
  EXPECT_EQ(raw.on_stream({pin_request(BsOp::kPing, 9, "", 1)}, 1),  // a trailing word
            one(pin_reply(9, ErrorCode::kInvalidArgument)));

  // The peer plane.
  EXPECT_EQ(raw.on_socket({pin_request(BsOp::kPutReplica, 11, "r", 3, bytes("rv")),
                           pin_request(BsOp::kDelReplica, 12, "t", 4)}),
            (Frames{pin_reply(11, ErrorCode::kOk), pin_reply(12, ErrorCode::kOk)}));
  EXPECT_EQ(raw.on_socket({pin_request(BsOp::kGetBlock, 13, "r"),
                           pin_request(BsOp::kGetBlock, 14, "t"),
                           pin_request(BsOp::kGetBlock, 15, "none")}),
            (Frames{pin_reply(13, ErrorCode::kOk, pin_block(false, "rv"), 3),
                    pin_reply(14, ErrorCode::kOk, pin_block(true, ""), 4),
                    pin_reply(15, ErrorCode::kNotFound)}));
  const std::vector<BlockKeyInfo> inventory = {{"k", crc32c({}), 6, true},
                                               {"r", crc32c(bytes("rv")), 3, false},
                                               {"t", crc32c({}), 4, true}};
  ASSERT_EQ(node.list(), inventory);
  EXPECT_EQ(raw.on_socket({pin_request(BsOp::kList, 16, "")}),
            Frames{pin_reply(16, ErrorCode::kOk, pin_inventory(inventory))});
  const MerkleTree tree = MerkleTree::build(inventory);
  const u32 bucket = static_cast<u32>(MerkleTree::bucket_of("r"));
  std::vector<BlockKeyInfo> leaf;
  for (const BlockKeyInfo& e : inventory) {
    if (MerkleTree::bucket_of(e.key) == bucket) {
      leaf.push_back(e);
    }
  }
  EXPECT_EQ(
      raw.on_socket({pin_index_request(BsOp::kMerkleNode, 17, 0),
                     pin_index_request(BsOp::kMerkleNode, 18, MerkleTree::kFirstLeaf + bucket),
                     pin_index_request(BsOp::kMerkleNode, 19, MerkleTree::kNodes),
                     pin_index_request(BsOp::kMerkleLeaf, 20, bucket),
                     pin_index_request(BsOp::kMerkleLeaf, 21, MerkleTree::kLeaves)}),
      (Frames{pin_reply(17, ErrorCode::kOk, pin_merkle_node(tree, 0)),
              pin_reply(18, ErrorCode::kOk,
                        pin_merkle_node(tree, MerkleTree::kFirstLeaf + bucket)),
              pin_reply(19, ErrorCode::kInvalidArgument),
              pin_reply(20, ErrorCode::kOk, pin_leaf(leaf)),
              pin_reply(21, ErrorCode::kInvalidArgument)}));
  EXPECT_EQ(raw.on_socket({pin_request(BsOp::kTombstoneGc, 22, "t", 4),
                           pin_request(BsOp::kPing, 23, "")}),
            (Frames{pin_reply(22, ErrorCode::kOk), pin_refusal(23, ErrorCode::kNotPermitted)}));
  EXPECT_EQ(node.list().size(), 2u);  // "t" was reclaimed

  AdmissionConfig admission;
  admission.enabled = true;
  node.set_admission(admission);  // an empty bucket
  EXPECT_EQ(raw.on_socket({pin_request(BsOp::kPutReplica, 24, "r", 9, bytes("x"))}),
            Frames{pin_refusal(24, ErrorCode::kOverloaded)});
  EXPECT_EQ(raw.on_stream({pin_request(BsOp::kGet, 25, "r")}, 1),
            one(pin_refusal(25, ErrorCode::kOverloaded)));
}

// A hand-written server on a raw VTP listener: it reassembles request
// frames on every accepted stream, records each frame (length prefix
// included) and writes back whatever `answer` returns for it.
struct FakeStreamServer {
  Machine& host;
  Fd listener = kInvalidFd;
  std::vector<std::pair<Fd, std::vector<u8>>> conns;
  Frames requests;
  std::function<std::vector<u8>(std::span<const u8> body)> answer;

  FakeStreamServer(Machine& h, Port port) : host(h) {
    listener = host.sys.vtp_listen(port).value();
  }

  void step() {
    if (auto fd = host.sys.vtp_accept(listener); fd.ok()) {
      conns.emplace_back(fd.value(), std::vector<u8>{});
    }
    for (auto& [fd, inbuf] : conns) {
      if (auto got = host.sys.vtp_recv(fd, 1 << 16); got.ok()) {
        inbuf.insert(inbuf.end(), got.value().begin(), got.value().end());
      }
      for (;;) {
        Reader fr(inbuf);
        auto len = fr.get_u32();
        auto body = len ? fr.get_raw(*len) : std::nullopt;
        if (!body) {
          break;
        }
        requests.emplace_back(inbuf.begin(), inbuf.begin() + 4 + *len);
        inbuf.erase(inbuf.begin(), inbuf.begin() + 4 + *len);
        std::vector<u8> out = answer(*body);
        if (!out.empty()) {
          EXPECT_TRUE(host.sys.vtp_send(fd, out).ok());
        }
      }
    }
  }
};

// The request id a request body carries (bytes 1..8).
u64 request_id(std::span<const u8> body) {
  Reader r(body.subspan(1));
  return r.get_u64().value_or(0);
}

// Every request the client writes, byte for byte, and the replies it reads:
// a full one, and a refusal that ends after its value.
TEST(BlockStoreWirePinTest, ClientRequestsKeepTheirBytes) {
  Network net;
  Machine server_host({.network = &net});
  Machine client_host({.network = &net});
  FakeStreamServer server(server_host, 7000);
  server.answer = [](std::span<const u8> body) {
    const u64 rid = request_id(body);
    switch (static_cast<BsOp>(body[0])) {
      case BsOp::kGet:
        return rid == 3 ? pin_framed(pin_reply(rid, ErrorCode::kOk, bytes("val"), 7))
                        : pin_framed(pin_refusal(rid, ErrorCode::kNotFound));
      default:
        return pin_framed(pin_reply(rid, ErrorCode::kOk));
    }
  };
  BlockStoreClient client(client_host.sys,
                          ClusterView::of({{server_host.kernel.net_addr(), 7000}}, 1), [&] {
                            server.step();
                            tick(server_host, client_host);
                          });
  ASSERT_TRUE(client.ping().ok());
  ASSERT_TRUE(client.put("k", bytes("val")).ok());
  auto got = client.get_with_seq("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), std::make_pair(bytes("val"), u64{7}));
  ASSERT_TRUE(client.del("k").ok());
  EXPECT_EQ(client.get("gone").error(), ErrorCode::kNotFound);
  EXPECT_EQ(server.requests,
            (Frames{pin_framed(pin_request(BsOp::kPing, 1, "")),
                    pin_framed(pin_request(BsOp::kPut, 2, "k", 1, bytes("val"))),
                    pin_framed(pin_request(BsOp::kGet, 3, "k")),
                    pin_framed(pin_request(BsOp::kDel, 4, "k", 2)),
                    pin_framed(pin_request(BsOp::kGet, 5, "gone"))}));
  EXPECT_EQ(client.retry_stats().attempts, 5u);
}

// Every request a node writes to a peer, byte for byte: replica pushes,
// sequenced deletes and tombstone GC, and the anti-entropy exchange
// (kList, kMerkleNode, kMerkleLeaf, kGetBlock), answered by a hand-written
// peer that holds one block more than the node.
TEST(BlockStoreWirePinTest, PeerRequestsKeepTheirBytes) {
  Network net;
  Machine node_host({.network = &net});
  Machine peer_host({.network = &net});
  std::function<void()> pump;
  BlockStoreNode node(node_host.sys, 7000, {}, [&] { pump(); });
  ASSERT_TRUE(node.init().ok());
  const BsPeer peer{peer_host.kernel.net_addr(), 7001};
  node.configure_cluster({.self = 0},
                         ClusterView::of({{node_host.kernel.net_addr(), 7000}, peer}, 2));
  Fd sock = peer_host.sys.udp_socket().value();
  ASSERT_TRUE(peer_host.sys.udp_bind(sock, 7001).ok());

  // The peer's inventory, and the blocks it serves.
  std::vector<BlockKeyInfo> inventory;
  std::map<std::string, std::pair<u64, std::string>> blocks;
  Frames requests;
  pump = [&] {
    auto d = peer_host.sys.udp_recvfrom(sock);
    if (!d.ok()) {
      return;
    }
    const std::vector<u8>& body = d.value().payload;
    requests.push_back(body);
    const u64 rid = request_id(body);
    Reader r(std::span<const u8>(body).subspan(9));
    auto key = r.get_string().value_or("");
    std::vector<u8> reply = pin_reply(rid, ErrorCode::kOk);
    const MerkleTree tree = MerkleTree::build(inventory);
    switch (static_cast<BsOp>(body[0])) {
      case BsOp::kList:
        reply = pin_reply(rid, ErrorCode::kOk, pin_inventory(inventory));
        break;
      case BsOp::kGetBlock:
        reply = pin_reply(rid, ErrorCode::kOk, pin_block(false, blocks[key].second),
                          blocks[key].first);
        break;
      case BsOp::kMerkleNode:
        reply = pin_reply(rid, ErrorCode::kOk, pin_merkle_node(tree, r.get_u32().value_or(0)));
        break;
      case BsOp::kMerkleLeaf:
        reply = pin_reply(rid, ErrorCode::kOk, pin_leaf(tree.buckets[r.get_u32().value_or(0)]));
        break;
      default:
        break;
    }
    ASSERT_TRUE(
        peer_host.sys.udp_sendto(sock, d.value().src_addr, d.value().src_port, reply).ok());
  };

  // Replication, a sequenced delete and its GC.
  ASSERT_TRUE(node.put("a", bytes("v1")).ok());
  ASSERT_TRUE(node.del("a").ok());
  EXPECT_EQ(node.gc_tombstones(), 1u);
  // A full-inventory pass pulls the peer's "p"; a Merkle pass then finds
  // and pulls "q" down one path of the tree.
  inventory = {{"p", crc32c(bytes("pv")), 9, false}};
  blocks["p"] = {9, "pv"};
  AntiEntropyScheduler sched(node);
  ASSERT_TRUE(sched.sync_full(peer).ok());
  EXPECT_EQ(node.get("p").value_or(std::vector<u8>{}), bytes("pv"));
  inventory.push_back({"q", crc32c(bytes("qv")), 4, false});
  blocks["q"] = {4, "qv"};
  ASSERT_TRUE(sched.sync_with(peer).ok());
  EXPECT_EQ(node.get("q").value_or(std::vector<u8>{}), bytes("qv"));

  const u32 bucket = static_cast<u32>(MerkleTree::bucket_of("q"));
  const u32 leaf = static_cast<u32>(MerkleTree::kFirstLeaf + bucket);
  const u32 level2 = (leaf - 1) / MerkleTree::kFanout;
  const u32 level1 = (level2 - 1) / MerkleTree::kFanout;
  EXPECT_EQ(requests, (Frames{pin_request(BsOp::kPutReplica, 1, "a", 1, bytes("v1")),
                              pin_request(BsOp::kDelReplica, 2, "a", 2),
                              pin_request(BsOp::kDelReplica, 3, "a", 2),
                              pin_request(BsOp::kTombstoneGc, 4, "a", 2),
                              pin_request(BsOp::kList, 5, ""),
                              pin_request(BsOp::kGetBlock, 6, "p"),
                              pin_index_request(BsOp::kMerkleNode, 7, 0),
                              pin_index_request(BsOp::kMerkleNode, 8, level1),
                              pin_index_request(BsOp::kMerkleNode, 9, level2),
                              pin_index_request(BsOp::kMerkleLeaf, 10, bucket),
                              pin_request(BsOp::kGetBlock, 11, "q")}));
}

// A Merkle leaf hashes its bucket's (key, u64 seq, u8 tombstone) entries in
// key order, the kMerkleLeaf entry without the count; an interior node
// hashes its four children's u32 hashes.
TEST(MerkleTreeTest, HashesKeepTheirPinnedBytes) {
  const std::vector<BlockKeyInfo> inventory = {
      {"a", 1, 3, false}, {"b", 2, 9, true}, {"c", 3, 5, false}, {"d", 4, 1, false}};
  const MerkleTree t = MerkleTree::build(inventory);
  for (usize b = 0; b < MerkleTree::kLeaves; ++b) {
    Writer w;
    for (const BlockKeyInfo& e : inventory) {
      if (MerkleTree::bucket_of(e.key) == b) {
        pin_leaf_entry(w, e);
      }
    }
    EXPECT_EQ(t.hash[MerkleTree::kFirstLeaf + b], crc32c(w.bytes())) << "bucket " << b;
  }
  Writer root;
  for (usize c = 1; c <= MerkleTree::kFanout; ++c) {
    root.put_u32(t.hash[c]);
  }
  EXPECT_EQ(t.root(), crc32c(root.bytes()));
}

// A reply header that claims more than any reply can hold (a get reply is
// at most kVtpConnBufMax bytes) means the stream is corrupt: the client
// drops it, as it drops a stream after a torn frame, and the next attempt
// reconnects. Here a hand-written server answers the first request with
// such a header and every later one correctly.
TEST(BlockStoreWireTest, OversizedReplyHeaderDropsTheStream) {
  Network net;
  Machine server_host({.network = &net});
  Machine client_host({.network = &net});
  FakeStreamServer server(server_host, 7000);
  usize answered = 0;
  server.answer = [&](std::span<const u8> body) {
    if (answered++ == 0) {
      Writer w;
      w.put_u32(static_cast<u32>(kVtpConnBufMax + 1));
      return w.take();
    }
    return pin_framed(pin_reply(request_id(body), ErrorCode::kOk));
  };
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.polls_per_attempt = 32;
  BlockStoreClient client(client_host.sys,
                          ClusterView::of({{server_host.kernel.net_addr(), 7000}}, 1),
                          [&] {
                            server.step();
                            tick(server_host, client_host);
                          },
                          policy);
  ASSERT_TRUE(client.ping().ok());
  EXPECT_EQ(client.retry_stats().attempts, 2u);
  EXPECT_EQ(client.retry_stats().reconnects, 1u);
  ASSERT_TRUE(client.ping().ok());
  EXPECT_EQ(client.retry_stats().attempts, 3u);
  EXPECT_EQ(server.requests.size(), 3u);
}

// A serve_delay latency fault stalls the node (the request stays queued in
// its stream — nothing is lost) and the client's retry budget rides it out.
TEST(BlockStoreFaultTest, LatencyFaultStallsServeWithoutLoss) {
  auto& reg = FaultRegistry::global();
  reg.disarm_all();
  Network net;
  Machine server({.network = &net});
  Machine client_host({.network = &net});
  BlockStoreNode node(server.sys, 7000, {}, {}, "slownode");
  ASSERT_TRUE(node.init().ok());
  BlockStoreClient client(
      client_host.sys, ClusterView::of({{server.kernel.net_addr(), 7000}}, 1), [&] {
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
  Machine primary_host({.network = &net});
  Machine replica_host({.network = &net});
  BlockStoreNode replica(replica_host.sys, 7001);
  ASSERT_TRUE(replica.init().ok());
  BlockStoreNode primary(primary_host.sys, 7000, {}, [&] { replica.serve_once(); });
  ASSERT_TRUE(primary.init().ok());
  ClusterView view = ClusterView::of(
      {BsPeer{primary_host.kernel.net_addr(), 7000}, BsPeer{replica_host.kernel.net_addr(), 7001}},
      2);
  primary.configure_cluster({.self = 0}, view);
  replica.configure_cluster({.self = 1}, view);

  // The put returns only after the replica acked its push.
  ASSERT_TRUE(primary.put("r", bytes("replicated")).ok());
  EXPECT_EQ(replica.get("r").value(), bytes("replicated"));
  EXPECT_EQ(primary.stats().hints_written, 0u);
}

// Ack waits nest: the pump a replica-ack wait runs can serve a request that
// pushes from the same node. Here A's first pump runs a second put on A,
// whose wait reaps the outer push's ack before its own. The outer ack must
// reach the outer wait instead of being dropped, which would cost it the
// whole first send window (half the ack deadline) and a re-send.
TEST(BlockStoreReplicationTest, NestedAckWaitKeepsTheOuterAck) {
  Network net;
  Machine a_host({.network = &net});
  Machine b_host({.network = &net});
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

// An owner that answers a push with an error has answered: the reply ends
// the peer call, so the push is hinted at once instead of re-sent, just as
// an owner that stays silent through both windows is.
TEST(BlockStoreReplicationTest, ErrorReplyEndsThePushWithoutAResend) {
  Network net;
  Machine primary_host({.network = &net});
  Machine peer_host({.network = &net});  // a hand-written owner that fails every push
  auto sock = peer_host.sys.udp_socket();
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(peer_host.sys.udp_bind(sock.value(), 7001).ok());
  usize requests = 0;
  BlockStoreNode primary(primary_host.sys, 7000, {}, [&] {
    auto d = peer_host.sys.udp_recvfrom(sock.value());
    if (!d.ok()) {
      return;
    }
    ++requests;
    Reader r(d.value().payload);
    (void)r.get_u8();  // op
    auto req_id = r.get_u64();
    Writer reply;
    reply.put_u64(req_id.value_or(0));
    reply.put_u32(static_cast<u32>(ErrorCode::kIoError));
    reply.put_bytes(std::span<const u8>());
    ASSERT_TRUE(peer_host.sys
                    .udp_sendto(sock.value(), d.value().src_addr, d.value().src_port,
                                reply.bytes())
                    .ok());
  });
  ASSERT_TRUE(primary.init().ok());
  ClusterView view = ClusterView::of(
      {BsPeer{primary_host.kernel.net_addr(), 7000}, BsPeer{peer_host.kernel.net_addr(), 7001}},
      2);
  primary.configure_cluster({.self = 0}, view);

  ASSERT_TRUE(primary.put("k", bytes("v")).ok());
  EXPECT_EQ(requests, 1u);
  EXPECT_EQ(primary.stats().replicas_pushed, 1u);
  EXPECT_EQ(primary.stats().hints_written, 1u);
}

// --- Sequenced delete tombstones -------------------------------------------

// A node re-entered through a peer's replica wait must still serve each
// stream frame once, in order. Two nodes own every key, and each node's
// pump serves the other and ticks all three VTP stacks (A9's pump shape), so
// a nested pass can reap more bytes of a stream whose frames the outer pass
// is still serving. One raw stream to A pipelines a small put and a 64 KiB
// put; a put waits at B on each of two other streams, so A's first push
// makes B serve them, and B's pushes run A's serve loop nested. Both of A's
// puts must land once with their bytes, each request id must get exactly
// one reply, and the stream must stay open.
TEST(BlockStoreWireTest, NestedServePassServesAPipelinedStreamOnce) {
  Network net;
  Machine a_host({.network = &net});
  Machine b_host({.network = &net});
  Machine client_host({.network = &net});
  auto tick_all = [&] { tick(a_host, b_host, client_host); };
  BlockStoreNode* a_ptr = nullptr;
  BlockStoreNode b(b_host.sys, 7000, {}, [&] {
    a_ptr->serve_once();
    tick_all();
  });
  BlockStoreNode a(a_host.sys, 7000, {}, [&] {
    b.serve_once();
    tick_all();
  });
  a_ptr = &a;
  ASSERT_TRUE(a.init().ok());
  ASSERT_TRUE(b.init().ok());
  const ClusterView view = ClusterView::of(
      {BsPeer{a_host.kernel.net_addr(), 7000}, BsPeer{b_host.kernel.net_addr(), 7000}}, 2);
  a.configure_cluster({.self = 0}, view);
  b.configure_cluster({.self = 1}, view);

  // [u32 len][op][req_id][key][seq][value]: one framed client put.
  auto framed_put = [](u64 req_id, std::string_view key, const std::vector<u8>& value) {
    Writer body;
    body.put_u8(static_cast<u8>(BsOp::kPut));
    body.put_u64(req_id);
    body.put_string(key);
    body.put_u64(req_id);  // the write stamp
    body.put_bytes(value);
    Writer frame;
    frame.put_u32(static_cast<u32>(body.size()));
    frame.put_raw(body.bytes());
    return frame.take();
  };
  struct Stream {
    Fd fd = kInvalidFd;
    std::vector<u8> out;   // request bytes not yet accepted by the transport
    std::vector<u8> in;    // reply bytes not yet parsed
    std::map<u64, std::vector<ErrorCode>> replies;  // req_id -> every reply's code
    ErrorCode end = ErrorCode::kOk;  // the stream's terminal error, if any
  };
  Stream to_a, to_b1, to_b2;
  const std::vector<u8> small(16, 0x01);
  const std::vector<u8> big(64 * 1024, 0x02);
  to_a.out = framed_put(1, "k1", small);
  const std::vector<u8> second = framed_put(2, "k2", big);
  to_a.out.insert(to_a.out.end(), second.begin(), second.end());
  to_b1.out = framed_put(3, "b1", bytes("via b"));
  to_b2.out = framed_put(4, "b2", bytes("via b too"));
  for (auto [st, addr] : {std::pair{&to_a, a_host.kernel.net_addr()},
                          std::pair{&to_b1, b_host.kernel.net_addr()},
                          std::pair{&to_b2, b_host.kernel.net_addr()}}) {
    auto fd = client_host.sys.vtp_connect(addr, 7000, /*src_port=*/0);
    ASSERT_TRUE(fd.ok());
    st->fd = fd.value();
  }
  auto step = [&](Stream& st) {
    if (!st.out.empty()) {
      auto n = client_host.sys.vtp_send(st.fd, st.out);
      if (n.ok()) {
        st.out.erase(st.out.begin(), st.out.begin() + static_cast<std::ptrdiff_t>(n.value()));
      }
    }
    auto got = client_host.sys.vtp_recv(st.fd, 4096);
    if (!got.ok()) {
      if (got.error() != ErrorCode::kWouldBlock) {
        st.end = got.error();
      }
      return;
    }
    st.in.insert(st.in.end(), got.value().begin(), got.value().end());
    for (;;) {
      Reader fr(st.in);
      auto len = fr.get_u32();
      auto body = len ? fr.get_raw(*len) : std::nullopt;
      if (!body) {
        break;
      }
      Reader r(*body);
      auto rid = r.get_u64();
      auto err = r.get_u32();
      ASSERT_TRUE(rid && err);
      st.replies[*rid].push_back(static_cast<ErrorCode>(*err));
      st.in.erase(st.in.begin(), st.in.begin() + 4 + *len);
    }
  };
  // The nodes accept the three streams (one accept per serve pass) and park
  // a recv on each. Then the requests reach the kernels while no node
  // serves, so B's two puts wait together while A serves its first frame.
  for (int poll = 0; poll < 8; ++poll) {
    a.serve_once();
    b.serve_once();
    tick_all();
  }
  for (int poll = 0; poll < 8; ++poll) {
    for (Stream* st : {&to_a, &to_b1, &to_b2}) {
      step(*st);
    }
    tick_all();
  }
  for (int poll = 0; poll < 256; ++poll) {
    a.serve_once();
    b.serve_once();
    tick_all();
    for (Stream* st : {&to_a, &to_b1, &to_b2}) {
      step(*st);
    }
  }

  using Codes = std::vector<ErrorCode>;
  EXPECT_EQ(to_a.end, ErrorCode::kOk) << "A closed the pipelined stream: " << error_name(to_a.end);
  EXPECT_EQ(to_a.replies, (std::map<u64, Codes>{{1, {ErrorCode::kOk}}, {2, {ErrorCode::kOk}}}));
  EXPECT_EQ(to_b1.replies, (std::map<u64, Codes>{{3, {ErrorCode::kOk}}}));
  EXPECT_EQ(to_b2.replies, (std::map<u64, Codes>{{4, {ErrorCode::kOk}}}));
  EXPECT_EQ(a.stats().puts, 2u) << "A served a put more than once";
  EXPECT_EQ(b.stats().puts, 2u);
  EXPECT_EQ(a.get("k1").value_or(std::vector<u8>{}), small);
  EXPECT_EQ(a.get("k2").value_or(std::vector<u8>{}), big);
  EXPECT_EQ(b.get("k2").value_or(std::vector<u8>{}), big);
}

TEST(TombstoneTest, DeleteIsSequencedTombstone) {
  Network net;
  Machine host({.network = &net});
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
  Machine host({.network = &net});
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
  Machine host({.network = &net});
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

// A rotted tombstone is cured like any other block: read-repair pulls the
// peer's raw block (kGetBlock), re-persists the tombstone at its sequence
// and answers kNotFound. Every other owner holds the delete, so neither
// kCorrupted nor a failed repair is the right answer.
TEST(TombstoneTest, ReadRepairCuresARottedTombstone) {
  Network net;
  Machine primary_host({.network = &net});
  Machine replica_host({.network = &net});
  BlockStoreNode replica(replica_host.sys, 7001);
  ASSERT_TRUE(replica.init().ok());
  BlockStoreNode primary(primary_host.sys, 7000, {}, [&] { replica.serve_once(); });
  ASSERT_TRUE(primary.init().ok());
  ClusterView view = ClusterView::of(
      {BsPeer{primary_host.kernel.net_addr(), 7000}, BsPeer{replica_host.kernel.net_addr(), 7001}},
      2);
  primary.configure_cluster({.self = 0}, view);
  replica.configure_cluster({.self = 1}, view);
  ASSERT_TRUE(primary.put("k", bytes("doomed")).ok());
  ASSERT_TRUE(primary.del("k").ok());
  ASSERT_EQ(replica.get("k").error(), ErrorCode::kNotFound);  // the delete replicated
  auto before = primary.list();
  ASSERT_EQ(before.size(), 1u);
  ASSERT_TRUE(before[0].tombstone);

  // Rot the tombstone's sequence word (bytes 8..15 of the block header).
  auto fd = primary_host.sys.open(BlockStoreNode::key_path("k"), 0);
  ASSERT_TRUE(fd.ok());
  (void)primary_host.sys.lseek(fd.value(), 8, SeekWhence::kSet);
  std::vector<u8> flip{0x5A};
  (void)primary_host.sys.write(fd.value(), flip);
  (void)primary_host.sys.close(fd.value());
  ASSERT_EQ(primary.get("k").error(), ErrorCode::kCorrupted);

  EXPECT_EQ(primary.get_or_repair("k").error(), ErrorCode::kNotFound);
  EXPECT_EQ(primary.stats().read_repairs, 1u);
  EXPECT_EQ(primary.stats().failed_repairs, 0u);
  EXPECT_EQ(primary.list(), before);  // the tombstone, back at the delete's sequence
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
  Machine a_host({.network = &net});
  Machine b_host({.network = &net});
  BlockStoreNode b(b_host.sys, 7001);
  BlockStoreNode a(a_host.sys, 7000, {}, [&] { b.serve_once(); });
  ASSERT_TRUE(a.init().ok());
  ASSERT_TRUE(b.init().ok());
  // Diverge in both directions plus one key where B is strictly newer.
  ASSERT_TRUE(a.apply_remote("only-a1", bytes("a1"), 11, false).ok());
  ASSERT_TRUE(a.apply_remote("only-a2", bytes("a2"), 12, false).ok());
  ASSERT_TRUE(a.apply_remote("shared", bytes("old"), 1, false).ok());
  ASSERT_TRUE(b.apply_remote("only-b", bytes("b"), 21, false).ok());
  ASSERT_TRUE(b.apply_remote("shared", bytes("new"), 9, false).ok());
  ASSERT_TRUE(b.apply_remote("deleted-on-b", {}, 30, true).ok());

  AntiEntropyScheduler sched(a);
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
  // The pushes left through the node's peer call, which counts them.
  EXPECT_EQ(a.stats().replicas_pushed, 2u);
  EXPECT_EQ(b.stats().replicas_applied, 2u);
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
  Machine a_host({.network = &net});
  Machine b_host({.network = &net});
  BlockStoreNode b(b_host.sys, 7001);
  BlockStoreNode a(a_host.sys, 7000, {}, [&] { b.serve_once(); });
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
  AntiEntropyScheduler sched(a, cfg);
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
  Machine a_host({.network = &net});
  Machine b_host({.network = &net});
  BlockStoreNode b(b_host.sys, 7001);
  BlockStoreNode a(a_host.sys, 7000, {}, [&] { b.serve_once(); });
  ASSERT_TRUE(a.init().ok());
  ASSERT_TRUE(b.init().ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(a.apply_remote("k" + std::to_string(i), bytes("v"), static_cast<u64>(i + 1),
                               false).ok());
  }
  AntiEntropyScheduler sched(a);
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
  Machine node_host({.network = &net});
  Machine peer_host({.network = &net});  // a hand-written peer: one datagram socket
  std::function<void()> pump;  // the peer's step, set below
  BlockStoreNode node(node_host.sys, 7000, {}, [&] { pump(); });
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
  pump = [&] {
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
  AntiEntropyScheduler sched(node);
  BsPeer peer{peer_host.kernel.net_addr(), 7001};
  EXPECT_EQ(sched.sync_with(peer).error(), ErrorCode::kCorrupted);
  EXPECT_EQ(sched.sync_full(peer).error(), ErrorCode::kCorrupted);
}

TEST(HintCapTest, PerPeerCapDropsOldestHint) {
  Network net;
  Machine host({.network = &net});
  BlockStoreNode node(host.sys, 7000);
  ASSERT_TRUE(node.init().ok());
  // Two-member view whose other member does not exist on the fabric. The
  // node has no pump, so every replica push fails at once and parks a hint
  // for the phantom owner.
  ClusterView view;
  view.replication = 2;
  view.ring = PlacementRing(16);
  view.ring.add_node(0);
  view.ring.add_node(1);
  view.directory[0] = BsPeer{host.kernel.net_addr(), 7000};
  view.directory[1] = BsPeer{0xDEAD, 7001};  // unreachable phantom
  node.configure_cluster({.self = 0}, view);

  constexpr usize kCap = BlockStoreNode::kMaxHintsPerPeer;
  for (usize i = 0; i < kCap + 3; ++i) {
    ASSERT_TRUE(node.put("key" + std::to_string(i), bytes("v")).ok());
  }
  // The queue is bounded at kCap parked hints; the 3 overflow parks each
  // evicted the then-oldest hint (drop-oldest, newest data survives).
  EXPECT_EQ(node.stats().hints_written, kCap + 3);
  EXPECT_EQ(node.stats().hints_dropped, 3u);
  auto names = host.sys.readdir("/hints");
  ASSERT_TRUE(names.ok());
  usize parked = 0;
  for (const auto& name : names.value()) {
    if (name.rfind("1_", 0) == 0) {
      ++parked;
    }
  }
  EXPECT_EQ(parked, kCap);
}

}  // namespace
}  // namespace vnros
