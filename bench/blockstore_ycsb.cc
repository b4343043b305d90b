// Closed-loop YCSB-style load generator against the sharded blockstore
// cluster: N virtual clients (each its own streams + seeded op stream, 50/50
// read/update over a hot-spotted key universe, YCSB-A shape) drive a 3-node
// ring-placed cluster, swept over client counts with the admission gate OFF
// and ON.
//
// The point of the experiment (DESIGN.md §9, EXPERIMENTS.md A7): past the
// cluster's service capacity, the UNGATED cluster's tail latency collapses —
// queues grow without bound, timeouts dominate — while the GATED cluster
// sheds the excess with typed kOverloaded replies, holding goodput near
// capacity and the tail near its uncontended value. Shedding is visible,
// bounded degradation; queue collapse is not.
//
// Time is virtual: one tick = one serve_once() per node (the cluster's fixed
// service capacity) + one VTP clock tick per host + one start() or poll()
// per client. Latency is measured in ticks, so the whole sweep replays
// bit-identically — no wall clock anywhere.
//
// Each virtual client is one library BlockStoreClient — the client the
// chaos runner, the app VCs and the examples check — driven through its
// non-blocking start()/poll() core, one poll per tick. It keeps one VTP
// stream per owner node and frames requests/replies as [u32 len][body];
// nodes serve them from ring-parked stream recvs. The node-to-node plane
// (replication pushes) stays on datagrams. Goodput counts kOk and kNotFound
// replies only; every get's bytes are checked against what was written.
// Emits BENCH_blockstore_ycsb.json. Honors VNROS_BENCH_QUICK. Exits
// nonzero if a get returned bytes no client wrote to its key.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/app/blockstore.h"
#include "src/base/contracts.h"
#include "src/base/rng.h"
#include "src/hw/network.h"
#include "src/kernel/kernel.h"
#include "src/kernel/syscall.h"

namespace vnros {
namespace {

constexpr Port kPort = 9300;

struct Host {
  Kernel kernel;
  SyscallDispatcher disp;
  Pid pid;
  Sys sys;

  explicit Host(Network* net) : kernel(config_of(net)), disp(kernel), pid(spawn(disp)),
                                sys(disp, pid, 0) {}

  static KernelConfig config_of(Network* net) {
    KernelConfig c;
    c.network = net;
    return c;
  }

  static Pid spawn(SyscallDispatcher& disp) {
    Sys boot(disp, kInvalidPid, 0);
    auto p = boot.spawn();
    VNROS_CHECK(p.ok());
    return p.value();
  }
};

struct SweepConfig {
  usize nodes = 3;
  usize replication = 2;
  usize keys = 64;
  usize value_bytes = 128;
  usize ticks = 30'000;
  usize warmup_ticks = 2'000;
  bool del_heavy = false;  // 40/35/25 read/update/delete instead of 50/50
  u64 reply_timeout_ticks = 600;
  // Gated runs: tokens granted per node per tick, and bucket capacity.
  u64 admission_rate_ppm = 400'000;  // 0.4 ops/tick/node, below the 1/tick serve rate
  u64 admission_burst = 8;
};

// One virtual client's closed-loop op stream. The client itself is a
// library BlockStoreClient, polled once per tick.
struct OpStream {
  OpStream(u64 seed, usize value_bytes) : rng(seed), value(value_bytes) {
    for (auto& b : value) {
      b = static_cast<u8>(rng.next_u64());
    }
  }

  Rng rng;
  std::vector<u8> value;  // every put of this client writes these bytes
  bool in_op = false;
  BsOp op = BsOp::kGet;
  usize key = 0;
  u64 op_start = 0;
};

u64 percentile(std::vector<u64>& v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  usize idx = static_cast<usize>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

struct SweepPoint {
  double goodput_per_kilotick = 0;
  u64 p50 = 0;
  u64 p95 = 0;
  u64 p99 = 0;
  double shed_rate = 0;
  u64 timeouts = 0;
  u64 errors = 0;
  u64 bad_reads = 0;  // gets that returned bytes no one wrote to the key
};

SweepPoint run_sweep(const SweepConfig& cfg, usize num_clients, bool gated) {
  Network net;
  std::vector<std::unique_ptr<Host>> hosts;
  std::vector<std::unique_ptr<BlockStoreNode>> nodes;
  ClusterView view;
  view.ring = PlacementRing(32);
  view.replication = cfg.replication;
  for (usize i = 0; i < cfg.nodes; ++i) {
    hosts.push_back(std::make_unique<Host>(&net));
  }
  for (usize i = 0; i < cfg.nodes; ++i) {
    nodes.push_back(std::make_unique<BlockStoreNode>(
        hosts[i]->sys, kPort, std::vector<BsPeer>{},
        [&nodes, i] {
          for (usize j = 0; j < nodes.size(); ++j) {
            if (j != i) {
              nodes[j]->serve_once();
            }
          }
        },
        std::string{}, BsTransport::kVtp));
    VNROS_CHECK(nodes[i]->init().ok());
    view.ring.add_node(static_cast<BsNodeId>(i));
    view.directory[static_cast<BsNodeId>(i)] =
        BsPeer{hosts[i]->kernel.net_addr(), kPort};
  }
  for (usize i = 0; i < cfg.nodes; ++i) {
    ClusterConfig cc;
    cc.self = static_cast<BsNodeId>(i);
    nodes[i]->configure_cluster(cc, view);
  }

  // Preload the key universe (ungated, local API) so reads hit.
  std::vector<std::vector<u8>> preload;
  {
    Rng rng(0x9C5Bull);
    for (usize k = 0; k < cfg.keys; ++k) {
      std::vector<u8>& v = preload.emplace_back(cfg.value_bytes);
      for (auto& b : v) {
        b = static_cast<u8>(rng.next_u64());
      }
      std::string key = "ycsb" + std::to_string(k);
      BsNodeId owner = view.owners(key).front();
      VNROS_CHECK(nodes[owner]->put(key, v).ok());
    }
  }
  if (gated) {
    for (auto& node : nodes) {
      AdmissionConfig ac;
      ac.enabled = true;
      ac.burst_ops = cfg.admission_burst;
      node->set_admission(ac);
      node->grant_tokens(cfg.admission_burst * 1'000'000);
    }
  }

  // One shared client kernel; each virtual client is one library client
  // polled once per tick. kOverloaded replies back off multiplicatively on
  // the same owner, so a gated sweep models well-behaved tenants, not a
  // retry stampede; a silent reply window re-sends, and no op gives up.
  RetryPolicy policy;
  policy.max_attempts = std::numeric_limits<usize>::max();
  policy.polls_per_attempt = cfg.reply_timeout_ticks;
  policy.overload_base_polls = 16;
  policy.overload_max_polls = 256;
  policy.jitter_ppm = 0;
  Host client_host(&net);
  std::vector<std::unique_ptr<BlockStoreClient>> clients;
  std::vector<OpStream> streams;
  std::map<std::vector<u8>, usize> writer_of;  // a client's value -> the client
  for (usize c = 0; c < num_clients; ++c) {
    clients.push_back(std::make_unique<BlockStoreClient>(
        client_host.sys, view.directory.at(0).addr, kPort, std::function<void()>{}, policy));
    clients.back()->set_cluster(view);
    writer_of.emplace(streams.emplace_back(0x5EEDull * (c + 1) + 17, cfg.value_bytes).value, c);
  }
  // A get may return the key's preload or the value of a client that has
  // started a put on the key; anything else is a bad read.
  std::vector<std::set<usize>> writers(cfg.keys);
  SweepPoint pt;
  u64 completed = 0;
  std::vector<u64> latencies;  // ticks from start() to a goodput reply

  // A client with no op in flight starts its next one; the others poll.
  // An op that finishes on tick t is followed by the next op on tick t + 1.
  // Goodput is kOk and kNotFound; any other terminal reply is an error.
  auto step = [&](usize c, u64 tick, bool measured) {
    OpStream& s = streams[c];
    if (!s.in_op) {
      // YCSB-A: 50/50 read/update; the delete-heavy variant trades updates
      // and reads for 25% sequenced deletes (tombstone churn under load,
      // DESIGN §11). 80% of ops land on the hottest 20% of keys either way.
      u64 roll = s.rng.next_below(100);
      if (cfg.del_heavy) {
        s.op = roll < 40 ? BsOp::kGet : roll < 75 ? BsOp::kPut : BsOp::kDel;
      } else {
        s.op = roll < 50 ? BsOp::kGet : BsOp::kPut;
      }
      usize universe = s.rng.chance(8, 10) ? std::max<usize>(cfg.keys / 5, 1) : cfg.keys;
      s.key = s.rng.next_below(universe);
      if (s.op == BsOp::kPut) {
        writers[s.key].insert(c);
      }
      s.op_start = tick;
      s.in_op = true;
      VNROS_CHECK(clients[c]->start(s.op, "ycsb" + std::to_string(s.key), s.value).ok());
      return;
    }
    std::optional<Result<BsReply>> reply = clients[c]->poll();
    if (!reply) {
      return;
    }
    s.in_op = false;
    if (reply->ok() && s.op == BsOp::kGet && reply->value().value != preload[s.key]) {
      auto w = writer_of.find(reply->value().value);
      pt.bad_reads += w == writer_of.end() || writers[s.key].count(w->second) == 0 ? 1 : 0;
    }
    if (!measured) {
      return;
    }
    if (!reply->ok() && reply->error() != ErrorCode::kNotFound) {
      ++pt.errors;
      return;
    }
    ++completed;
    latencies.push_back(tick - s.op_start);
  };
  // The retries a shed, a transient reply or a send error does not explain
  // are reply windows that expired: a failed attempt of an op that has not
  // given up is retried at once.
  auto sheds_and_timeouts = [&] {
    std::pair<u64, u64> n;
    for (const auto& client : clients) {
      RetryStats r = client->retry_stats();
      n.first += r.overloads;
      n.second += r.retries - r.overloads - r.transient_errors - r.send_errors;
    }
    return n;
  };
  std::pair<u64, u64> warm;
  for (u64 t = 0; t < cfg.warmup_ticks + cfg.ticks; ++t) {
    if (t == cfg.warmup_ticks) {
      warm = sheds_and_timeouts();  // warmup accounting is dropped
    }
    for (auto& node : nodes) {
      if (gated) {
        node->grant_tokens(cfg.admission_rate_ppm);
      }
      node->serve_once();
    }
    for (auto& h : hosts) {
      h->kernel.vtp().tick();
    }
    client_host.kernel.vtp().tick();
    for (usize c = 0; c < clients.size(); ++c) {
      step(c, t, t >= cfg.warmup_ticks);
    }
  }
  auto [shed_total, timeout_total] = sheds_and_timeouts();
  u64 sheds = shed_total - warm.first;
  pt.timeouts = timeout_total - warm.second;
  pt.goodput_per_kilotick =
      static_cast<double>(completed) * 1000.0 / static_cast<double>(cfg.ticks);
  pt.p50 = percentile(latencies, 0.50);
  pt.p95 = percentile(latencies, 0.95);
  pt.p99 = percentile(latencies, 0.99);
  pt.shed_rate = completed + sheds == 0
                     ? 0
                     : static_cast<double>(sheds) / static_cast<double>(completed + sheds);
  return pt;
}

}  // namespace
}  // namespace vnros

int main() {
  using namespace vnros;
  const bool quick = std::getenv("VNROS_BENCH_QUICK") != nullptr;
  SweepConfig cfg;
  std::vector<usize> client_counts;
  if (quick) {
    cfg.ticks = 6'000;
    cfg.warmup_ticks = 500;
    client_counts = {4, 16, 64};
  } else {
    client_counts = {8, 32, 128, 256, 1024};
  }

  BenchJson json("blockstore_ycsb");
  json.config("nodes", static_cast<unsigned long long>(cfg.nodes));
  json.config("replication", static_cast<unsigned long long>(cfg.replication));
  json.config("keys", static_cast<unsigned long long>(cfg.keys));
  json.config("value_bytes", static_cast<unsigned long long>(cfg.value_bytes));
  json.config("ticks", static_cast<unsigned long long>(cfg.ticks));
  json.config("admission_rate_ppm", static_cast<unsigned long long>(cfg.admission_rate_ppm));
  json.config("admission_burst", static_cast<unsigned long long>(cfg.admission_burst));
  json.config("transport", "vtp");
  json.config("quick", quick);

  std::printf("# blockstore_ycsb: closed-loop YCSB over the sharded cluster\n");
  std::printf("# %8s %8s %7s %12s %8s %8s %8s %10s %9s %7s\n", "clients", "mix", "gate",
              "goodput/kt", "p50", "p95", "p99", "shed_rate", "timeouts", "errors");
  u64 bad_reads = 0;
  for (bool del_heavy : {false, true}) {
    cfg.del_heavy = del_heavy;
    for (bool gated : {false, true}) {
      for (usize n : client_counts) {
        SweepPoint pt = run_sweep(cfg, n, gated);
        const char* mix = del_heavy ? "del" : "a";
        const char* tag = gated ? "gated" : "open";
        std::printf("  %8zu %8s %7s %12.1f %8llu %8llu %8llu %10.3f %9llu %7llu\n", n, mix, tag,
                    pt.goodput_per_kilotick, static_cast<unsigned long long>(pt.p50),
                    static_cast<unsigned long long>(pt.p95),
                    static_cast<unsigned long long>(pt.p99), pt.shed_rate,
                    static_cast<unsigned long long>(pt.timeouts),
                    static_cast<unsigned long long>(pt.errors));
        if (pt.bad_reads != 0) {
          std::fprintf(stderr, "blockstore_ycsb: %zu clients, mix %s, %s: %llu gets returned "
                       "bytes that are neither the key's preload nor a value any client wrote\n",
                       n, mix, tag, static_cast<unsigned long long>(pt.bad_reads));
          bad_reads += pt.bad_reads;
        }
        std::string prefix =
            std::string(del_heavy ? "del_" : "") + (gated ? "gated_" : "open_");
        double x = static_cast<double>(n);
        json.row(prefix + "goodput_per_kilotick", x, pt.goodput_per_kilotick);
        json.row(prefix + "p50_ticks", x, static_cast<double>(pt.p50));
        json.row(prefix + "p95_ticks", x, static_cast<double>(pt.p95));
        json.row(prefix + "p99_ticks", x, static_cast<double>(pt.p99));
        json.row(prefix + "shed_rate", x, pt.shed_rate);
        json.row(prefix + "timeouts", x, static_cast<double>(pt.timeouts));
        json.row(prefix + "errors", x, static_cast<double>(pt.errors));
      }
    }
  }
  json.write();
  return bad_reads == 0 ? 0 : 1;
}
