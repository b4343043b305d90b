// Ablation: synchronous per-call syscalls vs the SysRing submission/
// completion queues on a UDP request/reply server (DESIGN.md §12,
// EXPERIMENTS.md A10).
//
// Both arms run the SAME tiny put/get file server — the request handler
// executes identical Sys fs calls — and the same closed-loop clients. The
// only difference is the serve path:
//
//   sync: one udp_recvfrom poll per tick. One boundary crossing can yield at
//         most one request, so service capacity is pinned at 1 op/tick no
//         matter how deep the socket queue gets.
//   ring: a worker pool of parked recv SQEs drained once per tick. One
//         ring_wait reaps every completed receive, so a deep queue is served
//         as a batch — capacity scales to the pool width.
//
// Time is virtual (one tick = one serve pass + one step per client), so the
// sweep replays bit-identically. At 1-2 clients the arms tie (the queue
// never deepens); from 8 clients up the ring arm's goodput must be >= the
// sync arm's — that is the acceptance gate this JSON feeds.
// Emits BENCH_ablate_sync_vs_ring.json. Honors VNROS_BENCH_QUICK.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/base/contracts.h"
#include "src/base/rng.h"
#include "src/base/serde.h"
#include "src/hw/network.h"
#include "src/kernel/machine.h"
#include "src/kernel/ring.h"
#include "src/kernel/syscall.h"

namespace vnros {
namespace {

constexpr Port kPort = 9400;
constexpr usize kWorkers = 4;  // ring arm: parked recv SQEs (mirrors BlockStoreNode)

enum class MiniOp : u8 { kPut = 1, kGet = 2 };

// The shared request handler: identical Sys fs work in both arms.
std::vector<u8> handle_request(Sys& sys, std::span<const u8> request) {
  Reader r(request);
  auto op = r.get_u8();
  auto req_id = r.get_u64();
  auto key = r.get_string();
  Writer reply;
  reply.put_u64(req_id.value_or(0));
  if (!op || !req_id || !key) {
    reply.put_u32(static_cast<u32>(ErrorCode::kInvalidArgument));
    reply.put_bytes(std::span<const u8>());
    return reply.take();
  }
  std::string path = "/kv_" + *key;
  ErrorCode err = ErrorCode::kInvalidArgument;
  std::vector<u8> out;
  switch (static_cast<MiniOp>(*op)) {
    case MiniOp::kPut: {
      auto value = r.get_bytes();
      if (value) {
        auto fd = sys.open(path, kOpenCreate | kOpenTrunc);
        if (fd.ok()) {
          auto wr = sys.write(fd.value(), *value);
          err = wr.ok() ? ErrorCode::kOk : wr.error();
          (void)sys.close(fd.value());
        } else {
          err = fd.error();
        }
      }
      break;
    }
    case MiniOp::kGet: {
      auto fd = sys.open(path, 0);
      if (fd.ok()) {
        auto rd = sys.read(fd.value(), 4096);
        if (rd.ok()) {
          err = ErrorCode::kOk;
          out = std::move(rd.value());
        } else {
          err = rd.error();
        }
        (void)sys.close(fd.value());
      } else {
        err = fd.error();
      }
      break;
    }
  }
  reply.put_u32(static_cast<u32>(err));
  reply.put_bytes(out);
  return reply.take();
}

// The sync arm: the pre-ring serve shape — one recvfrom poll per tick.
class SyncServer {
 public:
  explicit SyncServer(Sys& sys) : sys_(sys) {
    auto sock = sys_.udp_socket();
    VNROS_CHECK(sock.ok());
    sock_ = sock.value();
    VNROS_CHECK(sys_.udp_bind(sock_, kPort).ok());
  }

  usize serve_tick() {
    auto dg = sys_.udp_recvfrom(sock_);
    if (!dg.ok()) {
      return 0;
    }
    auto reply = handle_request(sys_, dg.value().payload);
    (void)sys_.udp_sendto(sock_, dg.value().src_addr, dg.value().src_port, reply);
    return 1;
  }

 private:
  Sys& sys_;
  Fd sock_ = kInvalidFd;
};

// The ring arm: BlockStoreNode's serve shape — a parked worker pool drained
// as a batch, replies submitted back through the ring.
class RingServer {
 public:
  explicit RingServer(Sys& sys) : sys_(sys) {
    auto sock = sys_.udp_socket();
    VNROS_CHECK(sock.ok());
    sock_ = sock.value();
    VNROS_CHECK(sys_.udp_bind(sock_, kPort).ok());
    auto ring = sys_.ring_setup(16, 64);
    VNROS_CHECK(ring.ok());
    ring_ = ring.value();
    arm();
  }

  usize serve_tick() {
    auto cqes = sys_.ring_wait(ring_, 0, static_cast<u32>(2 * kWorkers + 8));
    if (!cqes.ok()) {
      return 0;
    }
    usize served = 0;
    for (const RingCqe& cqe : cqes.value()) {
      if ((cqe.user_data & kReplyTag) != 0) {
        continue;
      }
      if (recvs_ > 0) {
        --recvs_;
      }
      auto dg = sys_reply<SysNr::kUdpRecvFrom>(cqe);
      if (!dg.ok()) {
        continue;
      }
      const Datagram& req = dg.value();
      auto reply = handle_request(sys_, req.payload);
      RingSqe sqe = ring_sqe<SysNr::kUdpSendTo>(kReplyTag | next_ud_++, sock_, req.src_addr,
                                                req.src_port, reply);
      auto acc = sys_.ring_submit(ring_, std::span<const RingSqe>(&sqe, 1));
      if (!acc.ok() || acc.value() != 1) {
        (void)sys_.udp_sendto(sock_, req.src_addr, req.src_port, reply);
      }
      ++served;
    }
    arm();
    return served;
  }

 private:
  static constexpr u64 kReplyTag = 1ull << 63;

  void arm() {
    while (recvs_ < kWorkers) {
      RingSqe sqe = ring_sqe<SysNr::kUdpRecvFrom>(recvs_, sock_);
      auto acc = sys_.ring_submit(ring_, std::span<const RingSqe>(&sqe, 1));
      if (!acc.ok() || acc.value() != 1) {
        break;
      }
      ++recvs_;
    }
  }

  Sys& sys_;
  Fd sock_ = kInvalidFd;
  u32 ring_ = 0;
  usize recvs_ = 0;
  u64 next_ud_ = 0;
};

// One closed-loop client: send an op, await the reply (sync recvfrom on its
// own socket — the ablation isolates the SERVER's serve path), repeat.
class Client {
 public:
  Client(Sys& sys, NetAddr server, usize keys, usize value_bytes, u64 seed)
      : sys_(sys), server_(server), keys_(keys), rng_(seed) {
    auto sock = sys_.udp_socket();
    VNROS_CHECK(sock.ok());
    sock_ = sock.value();
    value_.resize(value_bytes);
    for (auto& b : value_) {
      b = static_cast<u8>(rng_.next_u64());
    }
  }

  void step() {
    if (!waiting_) {
      send();
      return;
    }
    auto reply = sys_.udp_recvfrom(sock_);
    if (!reply.ok()) {
      return;
    }
    Reader r(reply.value().payload);
    auto rid = r.get_u64();
    if (!rid || *rid != req_id_) {
      return;
    }
    ++completed;
    waiting_ = false;
  }

  u64 completed = 0;

 private:
  void send() {
    req_id_ = next_req_id_++;
    Writer w;
    bool put = rng_.chance(1, 2);
    w.put_u8(static_cast<u8>(put ? MiniOp::kPut : MiniOp::kGet));
    w.put_u64(req_id_);
    w.put_string("k" + std::to_string(rng_.next_below(keys_)));
    if (put) {
      w.put_bytes(value_);
    }
    (void)sys_.udp_sendto(sock_, server_, kPort, w.bytes());
    waiting_ = true;
  }

  Sys& sys_;
  NetAddr server_;
  usize keys_;
  Rng rng_;
  Fd sock_ = kInvalidFd;
  std::vector<u8> value_;
  u64 next_req_id_ = 1;
  u64 req_id_ = 0;
  bool waiting_ = false;
};

struct ArmResult {
  double ops_per_kilotick = 0;
};

template <typename Server>
ArmResult run_arm(usize num_clients, usize ticks, usize warmup) {
  Network net;
  Machine server_host({.network = &net});
  Server server(server_host.sys);
  Machine client_host({.network = &net});
  std::vector<std::unique_ptr<Client>> clients;
  for (usize c = 0; c < num_clients; ++c) {
    clients.push_back(std::make_unique<Client>(client_host.sys, server_host.kernel.net_addr(),
                                               /*keys=*/32, /*value_bytes=*/64,
                                               0xAB1E5EEDull * (c + 1) + 3));
  }
  auto tick = [&] {
    server.serve_tick();
    for (auto& c : clients) {
      c->step();
    }
  };
  for (usize t = 0; t < warmup; ++t) {
    tick();
  }
  for (auto& c : clients) {
    c->completed = 0;
  }
  for (usize t = 0; t < ticks; ++t) {
    tick();
  }
  u64 completed = 0;
  for (auto& c : clients) {
    completed += c->completed;
  }
  ArmResult res;
  res.ops_per_kilotick = static_cast<double>(completed) * 1000.0 / static_cast<double>(ticks);
  return res;
}

}  // namespace
}  // namespace vnros

int main() {
  using namespace vnros;
  const bool quick = std::getenv("VNROS_BENCH_QUICK") != nullptr;
  usize ticks = quick ? 4'000 : 20'000;
  usize warmup = quick ? 400 : 2'000;
  std::vector<usize> client_counts =
      quick ? std::vector<usize>{2, 8, 32} : std::vector<usize>{1, 2, 4, 8, 16, 32, 64};

  BenchJson json("ablate_sync_vs_ring");
  json.config("ticks", static_cast<unsigned long long>(ticks));
  json.config("warmup_ticks", static_cast<unsigned long long>(warmup));
  json.config("ring_workers", static_cast<unsigned long long>(kWorkers));
  json.config("quick", quick);

  std::printf("# ablate_sync_vs_ring: per-call syscalls vs SysRing worker pool\n");
  std::printf("# %8s %14s %14s %8s\n", "clients", "sync ops/kt", "ring ops/kt", "ratio");
  for (usize n : client_counts) {
    ArmResult sync_arm = run_arm<SyncServer>(n, ticks, warmup);
    ArmResult ring_arm = run_arm<RingServer>(n, ticks, warmup);
    double ratio = sync_arm.ops_per_kilotick > 0
                       ? ring_arm.ops_per_kilotick / sync_arm.ops_per_kilotick
                       : 0;
    std::printf("  %8zu %14.1f %14.1f %8.2f\n", n, sync_arm.ops_per_kilotick,
                ring_arm.ops_per_kilotick, ratio);
    double x = static_cast<double>(n);
    json.row("sync_ops_per_kilotick", x, sync_arm.ops_per_kilotick);
    json.row("ring_ops_per_kilotick", x, ring_arm.ops_per_kilotick);
    json.row("ring_over_sync", x, ratio);
  }
  json.write();
  return 0;
}
