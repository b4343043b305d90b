// Verification conditions for the block-store application — the paper's
// "verified storage node on a verified OS" end-to-end story. Every check
// goes through the full stack: client Sys -> VTP stream -> fabric -> server
// Sys -> filesystem -> journal -> block device.
#include "src/app/vcs.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "src/app/anti_entropy.h"
#include "src/app/blockstore.h"
#include "src/app/sim_cluster.h"
#include "src/base/fault.h"
#include "src/base/rng.h"
#include "src/kernel/machine.h"

namespace vnros {
namespace {

// Advances each host's VTP stack one tick: the stream plane's retransmit,
// probe and reap timers run here, in every client pump.
template <typename... Hosts>
void tick(Hosts&... hosts) {
  (hosts.kernel.vtp().tick(), ...);
}

std::vector<u8> random_value(Rng& rng, usize max_len = 2000) {
  std::vector<u8> v(rng.next_range(1, max_len));
  for (auto& b : v) {
    b = static_cast<u8>(rng.next_u64());
  }
  return v;
}

std::string random_key(Rng& rng) {
  static const char* keys[] = {"alpha", "beta", "gamma", "delta", "epsilon",
                               "zeta",  "eta",  "theta", "iota",  "kappa"};
  return keys[rng.next_below(10)];
}

// --- Local (single-host) behaviour ------------------------------------------------

VcOutcome vc_put_get_roundtrip() {
  Network net;
  Machine host({.network = &net});
  BlockStoreNode node(host.sys, 9000);
  if (!node.init().ok()) {
    return VcOutcome::fail("init failed");
  }
  std::vector<u8> v1{1, 2, 3, 4, 5};
  std::vector<u8> v2{9, 9};
  if (!node.put("key", v1).ok()) {
    return VcOutcome::fail("put failed");
  }
  auto got = node.get("key");
  if (!got.ok() || got.value() != v1) {
    return VcOutcome::fail("get returned wrong bytes");
  }
  // Overwrite.
  if (!node.put("key", v2).ok()) {
    return VcOutcome::fail("overwrite failed");
  }
  got = node.get("key");
  if (!got.ok() || got.value() != v2) {
    return VcOutcome::fail("overwrite not visible");
  }
  // Delete.
  if (!node.del("key").ok()) {
    return VcOutcome::fail("del failed");
  }
  auto missing = node.get("key");
  if (missing.ok() || missing.error() != ErrorCode::kNotFound) {
    return VcOutcome::fail("deleted key still readable");
  }
  // DEL is "ensure absent": deleting again is a success (idempotency).
  if (!node.del("key").ok()) {
    return VcOutcome::fail("idempotent delete failed");
  }
  // Empty-ish and binary keys work too (hex encoding).
  std::string weird_key("\x00\xFFpath/../:*", 10);
  if (!node.put(weird_key, v1).ok() || !node.get(weird_key).ok()) {
    return VcOutcome::fail("binary key mishandled");
  }
  return VcOutcome::pass();
}

// --- End-to-end refinement over the network ----------------------------------------

VcOutcome vc_refines_map(u64 seed, FabricConfig fabric, usize ops) {
  Network net(fabric, seed ^ 0xFAB);
  Machine server({.network = &net});
  Machine client_host({.network = &net});
  BlockStoreNode node(server.sys, 9000);
  if (!node.init().ok()) {
    return VcOutcome::fail("server init failed");
  }
  BlockStoreClient client(
      client_host.sys, ClusterView::of({{server.kernel.net_addr(), 9000}}, 1), [&] {
        node.serve_once();
        tick(server, client_host);
      });

  Rng rng(seed);
  std::map<std::string, std::vector<u8>> model;
  for (usize i = 0; i < ops; ++i) {
    std::string key = random_key(rng);
    switch (rng.next_below(3)) {
      case 0: {
        std::vector<u8> value = random_value(rng);
        auto r = client.put(key, value);
        if (!r.ok()) {
          return VcOutcome::fail("put failed: " + std::string(error_name(r.error())));
        }
        model[key] = value;
        break;
      }
      case 1: {
        auto r = client.get(key);
        auto it = model.find(key);
        if (it == model.end()) {
          if (r.ok() || r.error() != ErrorCode::kNotFound) {
            return VcOutcome::fail("get of absent key did not return NotFound");
          }
        } else if (!r.ok() || r.value() != it->second) {
          return VcOutcome::fail("get returned bytes differing from the last acked put");
        }
        break;
      }
      case 2: {
        // DEL is "ensure absent": succeeds whether or not the key existed.
        auto r = client.del(key);
        if (!r.ok()) {
          return VcOutcome::fail("del failed: " + std::string(error_name(r.error())));
        }
        model.erase(key);
        break;
      }
      default:
        break;
    }
  }
  if (node.view() != model) {
    return VcOutcome::fail("node abstract state diverged from the model");
  }
  return VcOutcome::pass();
}

// --- Crash recovery -------------------------------------------------------------------

VcOutcome vc_crash_recovery(u64 seed) {
  Network net;
  BlockDevice disk(16384, seed);
  std::map<std::string, std::vector<u8>> acked;
  {
    Machine host({.network = &net, .disk = &disk});
    BlockStoreNode node(host.sys, 9000);
    if (!node.init().ok()) {
      return VcOutcome::fail("init failed");
    }
    Rng rng(seed);
    for (int i = 0; i < 25; ++i) {
      std::string key = random_key(rng) + std::to_string(i);
      std::vector<u8> value = random_value(rng, 800);
      if (!node.put(key, value).ok()) {
        return VcOutcome::fail("put failed");
      }
      acked[key] = value;  // put acks only after fsync
    }
    // Power failure: everything unflushed is at the mercy of the cache.
    disk.crash(300'000);
  }
  // Reboot: a fresh kernel mounts the same disk with journal recovery.
  Network net2;
  Machine rebooted({.network = &net2, .disk = &disk, .recover_fs = true});
  BlockStoreNode node(rebooted.sys, 9000);
  if (!node.init().ok()) {
    return VcOutcome::fail("re-init after recovery failed");
  }
  auto recovered = node.view();
  for (const auto& [key, value] : acked) {
    auto it = recovered.find(key);
    if (it == recovered.end()) {
      return VcOutcome::fail("acknowledged block lost across crash: " + key);
    }
    if (it->second != value) {
      return VcOutcome::fail("block bytes corrupted across crash: " + key);
    }
  }
  return VcOutcome::pass();
}

// --- Corruption detection ----------------------------------------------------------------

VcOutcome vc_corruption_detected() {
  Network net;
  Machine host({.network = &net});
  BlockStoreNode node(host.sys, 9000);
  if (!node.init().ok()) {
    return VcOutcome::fail("init failed");
  }
  std::vector<u8> value(300, 0x42);
  if (!node.put("victim", value).ok()) {
    return VcOutcome::fail("put failed");
  }
  // Flip one payload byte behind the node's back (bit rot).
  std::string path = BlockStoreNode::key_path("victim");
  auto fd = host.sys.open(path, 0);
  if (!fd.ok()) {
    return VcOutcome::fail("tamper open failed");
  }
  (void)host.sys.lseek(fd.value(), 100, SeekWhence::kSet);
  std::vector<u8> flip{0x43};
  (void)host.sys.write(fd.value(), flip);
  (void)host.sys.close(fd.value());

  auto got = node.get("victim");
  if (got.ok()) {
    return VcOutcome::fail("corrupted block returned as data");
  }
  if (got.error() != ErrorCode::kCorrupted) {
    return VcOutcome::fail("corruption surfaced as wrong error");
  }
  // Truncation is also corruption, not a short read.
  if (!node.put("victim2", value).ok()) {
    return VcOutcome::fail("second put failed");
  }
  (void)host.sys.truncate(BlockStoreNode::key_path("victim2"), 50);
  auto trunc = node.get("victim2");
  if (trunc.ok() || trunc.error() != ErrorCode::kCorrupted) {
    return VcOutcome::fail("truncated block not detected");
  }
  return VcOutcome::pass();
}

// --- Replication -----------------------------------------------------------------------------

VcOutcome vc_replication_push() {
  SimCluster c(2, 2);
  BlockStoreNode& primary = c.node(0);
  BlockStoreNode& replica = c.node(1);
  Machine client_host({.network = &c.net()});
  BlockStoreClient client(client_host.sys, ClusterView::of({c.peer(0)}, 1),
                          [&] { c.pump(client_host); });

  // The primary acks the put only after the replica acked its push, so the
  // replica holds the block as soon as the client sees the ack.
  std::vector<u8> value{7, 7, 7, 7};
  if (!client.put("replicated", value).ok()) {
    return VcOutcome::fail("put failed");
  }
  auto got = replica.get("replicated");
  if (!got.ok() || got.value() != value) {
    return VcOutcome::fail("block not replicated to the peer");
  }
  if (primary.stats().replicas_pushed == 0 || replica.stats().replicas_applied == 0) {
    return VcOutcome::fail("replication counters not advanced");
  }
  if (primary.stats().hints_written != 0) {
    return VcOutcome::fail("the push was hinted instead of acked");
  }
  return VcOutcome::pass();
}


// Overwrite durability: an acked overwrite (not just the first put) survives
// a crash — the newest acknowledged value is the one recovered.
VcOutcome vc_overwrite_then_crash(u64 seed) {
  Network net;
  BlockDevice disk(16384, seed);
  std::vector<u8> v1(200, 0x01), v2(300, 0x02), v3(100, 0x03);
  {
    Machine host({.network = &net, .disk = &disk});
    BlockStoreNode node(host.sys, 9000);
    if (!node.init().ok()) {
      return VcOutcome::fail("init failed");
    }
    if (!node.put("k", v1).ok() || !node.put("k", v2).ok() || !node.put("k", v3).ok()) {
      return VcOutcome::fail("puts failed");
    }
    disk.crash(0);
  }
  Network net2;
  Machine rebooted({.network = &net2, .disk = &disk, .recover_fs = true});
  BlockStoreNode node(rebooted.sys, 9000);
  if (!node.init().ok()) {
    return VcOutcome::fail("re-init failed");
  }
  auto got = node.get("k");
  if (!got.ok() || got.value() != v3) {
    return VcOutcome::fail("recovered value is not the last acknowledged overwrite");
  }
  return VcOutcome::pass();
}

// The abstract view stays exact through heavy mixed churn (local API).
VcOutcome vc_view_matches_after_churn(u64 seed) {
  Network net;
  Machine host({.network = &net});
  BlockStoreNode node(host.sys, 9000);
  if (!node.init().ok()) {
    return VcOutcome::fail("init failed");
  }
  Rng rng(seed);
  std::map<std::string, std::vector<u8>> model;
  for (int i = 0; i < 200; ++i) {
    std::string key = random_key(rng);
    if (rng.chance(3, 5)) {
      auto value = random_value(rng, 300);
      if (!node.put(key, value).ok()) {
        return VcOutcome::fail("put failed");
      }
      model[key] = value;
    } else {
      if (!node.del(key).ok()) {
        return VcOutcome::fail("del failed");
      }
      model.erase(key);
    }
  }
  if (node.view() != model) {
    return VcOutcome::fail("abstract view diverged from the op-by-op model");
  }
  return VcOutcome::pass();
}


// Anti-entropy: a replica that missed writes (and holds an older copy of
// one block) converges to the primary after one full-inventory pass run by
// its own scheduler, and a second pass pulls nothing.
VcOutcome vc_anti_entropy_sync(u64 seed) {
  Network net;
  Machine primary_host({.network = &net});
  Machine replica_host({.network = &net});
  BlockStoreNode primary(primary_host.sys, 9000);  // unconfigured: replicates to no one
  BlockStoreNode replica(replica_host.sys, 9001, {}, [&] { primary.serve_once(); });
  if (!primary.init().ok() || !replica.init().ok()) {
    return VcOutcome::fail("init failed");
  }
  // Both start with blk3's first write; the replica misses the overwrite
  // below, so its copy is older by sequence.
  if (!primary.put("blk3", std::vector<u8>{0x0}).ok() ||
      !replica.put("blk3", std::vector<u8>{0x0}).ok()) {
    return VcOutcome::fail("stale put failed");
  }
  Rng rng(seed);
  for (int i = 0; i < 12; ++i) {
    std::string key = "blk" + std::to_string(i);
    if (!primary.put(key, random_value(rng, 400)).ok()) {
      return VcOutcome::fail("put failed");
    }
  }
  AntiEntropyScheduler ae(replica);
  const BsPeer peer{primary_host.kernel.net_addr(), 9000};
  auto synced = ae.sync_full(peer);
  if (!synced.ok()) {
    return VcOutcome::fail("sync failed: " + std::string(error_name(synced.error())));
  }
  if (ae.stats().pulled != 12 || ae.stats().pushed != 0) {
    return VcOutcome::fail("expected 12 pulls (11 missing + 1 older), got " +
                           std::to_string(ae.stats().pulled) + " pulls and " +
                           std::to_string(ae.stats().pushed) + " pushes");
  }
  if (replica.view() != primary.view()) {
    return VcOutcome::fail("replica did not converge to the primary");
  }
  if (!ae.sync_full(peer).ok() || ae.stats().pulled != 12) {
    return VcOutcome::fail("second sync pass was not a no-op");
  }
  return VcOutcome::pass();
}

// --- Read-repair ---------------------------------------------------------------------

// A locally-corrupted block is cured from a replica instead of surfacing
// kCorrupted to the client: fetch from the peer, verify, re-persist, serve.
VcOutcome vc_read_repair() {
  SimCluster c(2, 2);
  BlockStoreNode& primary = c.node(0);
  BlockStoreNode& replica = c.node(1);
  Sys& primary_sys = c.machine(0).sys;

  std::vector<u8> value(300, 0x42);
  if (!primary.put("blk", value).ok()) {
    return VcOutcome::fail("put failed");
  }
  if (replica.get("blk").error() != ErrorCode::kOk) {
    return VcOutcome::fail("replication push did not reach the replica");
  }

  // Rot a payload byte behind the primary's back.
  auto fd = primary_sys.open(BlockStoreNode::key_path("blk"), 0);
  if (!fd.ok()) {
    return VcOutcome::fail("tamper open failed");
  }
  (void)primary_sys.lseek(fd.value(), 100, SeekWhence::kSet);
  std::vector<u8> flip{0x43};
  (void)primary_sys.write(fd.value(), flip);
  (void)primary_sys.close(fd.value());

  if (primary.get("blk").error() != ErrorCode::kCorrupted) {
    return VcOutcome::fail("tampered block not detected as corrupt");
  }
  auto repaired = primary.get_or_repair("blk");
  if (!repaired.ok() || repaired.value() != value) {
    return VcOutcome::fail("read-repair did not return the replica's bytes");
  }
  if (primary.stats().read_repairs != 1) {
    return VcOutcome::fail("read-repair not counted");
  }
  // The cure was persisted: a plain local get succeeds now.
  auto after = primary.get("blk");
  if (!after.ok() || after.value() != value) {
    return VcOutcome::fail("repaired block not re-persisted locally");
  }
  return VcOutcome::pass();
}

// --- Retry policy / failover -----------------------------------------------------------

// With the key's primary cut off from the client, the client's failover
// rotation lands the operation on the key's other owner instead of timing
// out; that owner coordinates the put and replicates it to the primary over
// the node-to-node link, which the cut leaves up.
VcOutcome vc_retry_failover() {
  SimCluster c(2, 2);
  Machine client_host({.network = &c.net()});
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.polls_per_attempt = 16;
  policy.backoff_base_polls = 2;
  policy.backoff_max_polls = 16;
  policy.jitter_ppm = 250'000;
  BlockStoreClient client(client_host.sys, c.view(), [&] { c.pump(client_host); }, policy);
  // A key whose primary is member 0, the node the partition cuts off.
  std::string key = "k";
  for (usize i = 0; c.view().owners(key).front() != 0; ++i) {
    key = "k" + std::to_string(i);
  }

  c.net().partition(client_host.kernel.net_addr(), c.addr(0));
  std::vector<u8> value{9, 9, 9};
  if (!client.put(key, value).ok()) {
    return VcOutcome::fail("put did not fail over around the partition");
  }
  if (client.retry_stats().failovers == 0) {
    return VcOutcome::fail("failover not counted");
  }
  auto held = c.node(1).get(key);
  if (!held.ok() || held.value() != value) {
    return VcOutcome::fail("failover target does not hold the value");
  }
  c.net().heal_all();
  auto got = client.get(key);  // from the primary, which holds member 1's replica push
  if (!got.ok() || got.value() != value) {
    return VcOutcome::fail("get after heal failed");
  }
  return VcOutcome::pass();
}

// An injected transient server error (syscall kIoError) is absorbed by the
// retry policy: the op still succeeds and the absorption is visible in the
// retry stats.
VcOutcome vc_retry_transient(u64 seed) {
  auto& reg = FaultRegistry::global();
  reg.reseed(seed);
  Network net;
  Machine server_host({.network = &net});
  Machine client_host({.network = &net});
  BlockStoreNode node(server_host.sys, 9000);
  if (!node.init().ok()) {
    return VcOutcome::fail("node init failed");
  }
  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.polls_per_attempt = 16;
  policy.backoff_base_polls = 1;
  BlockStoreClient client(client_host.sys,
                          ClusterView::of({{server_host.kernel.net_addr(), 9000}}, 1),
                          [&] {
                            node.serve_once();
                            tick(server_host, client_host);
                          },
                          policy);

  FaultSpec one_shot;
  one_shot.probability_ppm = 1'000'000;
  one_shot.one_shot = true;
  reg.arm("syscall/io_error", one_shot);
  std::vector<u8> value(64, 0xAB);
  if (!client.put("k", value).ok()) {
    return VcOutcome::fail("put did not survive a transient server fault");
  }
  if (client.retry_stats().transient_errors == 0) {
    return VcOutcome::fail("transient error not absorbed via retry stats");
  }
  auto got = node.get("k");
  if (!got.ok() || got.value() != value) {
    return VcOutcome::fail("value not durable after retried put");
  }
  return VcOutcome::pass();
}

// --- Cluster placement / rebalancing ---------------------------------------------

// app/placement_refines: after a seeded op mix against a clean 4-node
// cluster, (a) every node's belief about the ring (version + fingerprint)
// matches the coordinator view, (b) every model key is byte-identical on
// every ring owner, (c) non-owners do not hold the key, and (d) nothing
// needed hinted handoff — on a clean fabric the owner function and the data
// placement agree exactly.
VcOutcome vc_placement_refines(u64 seed) {
  SimCluster c(4, 2);
  Machine client_host({.network = &c.net()});
  BlockStoreClient client(client_host.sys, c.view(), [&] { c.pump(client_host); });

  Rng rng(seed);
  std::map<std::string, std::vector<u8>> model;
  for (usize i = 0; i < 40; ++i) {
    std::string key = random_key(rng);
    if (rng.chance(7, 10)) {
      auto value = random_value(rng, 400);
      if (!client.put(key, value).ok()) {
        return VcOutcome::fail("clustered put failed");
      }
      model[key] = value;
    } else {
      if (!client.del(key).ok()) {
        return VcOutcome::fail("clustered del failed");
      }
      model.erase(key);
    }
  }
  c.drain();

  for (usize i = 0; i < c.size(); ++i) {
    if (c.node(i).ring_version() != c.view().ring.version() ||
        c.node(i).ring_fingerprint() != c.view().ring.fingerprint()) {
      return VcOutcome::fail("node " + std::to_string(i) + " belief diverged from the view");
    }
    if (c.node(i).stats().hints_written != 0) {
      return VcOutcome::fail("clean fabric should never need hinted handoff");
    }
  }
  for (const auto& [key, value] : model) {
    auto owners = c.view().owners(key);
    if (owners.size() != 2) {
      return VcOutcome::fail("owner set has wrong arity");
    }
    for (usize i = 0; i < c.size(); ++i) {
      auto got = c.node(i).get(key);
      if (c.is_owner(key, i)) {
        if (!got.ok() || got.value() != value) {
          return VcOutcome::fail("owner " + std::to_string(i) + " missing/divergent for " + key);
        }
      } else if (got.ok() || got.error() != ErrorCode::kNotFound) {
        return VcOutcome::fail("non-owner " + std::to_string(i) + " holds " + key);
      }
    }
  }
  // Deleted keys are gone everywhere (kDelReplica reached every owner).
  for (usize i = 0; i < c.size(); ++i) {
    for (const auto& [key, value] : c.node(i).view()) {
      if (model.count(key) == 0) {
        return VcOutcome::fail("deleted key survives on node " + std::to_string(i));
      }
    }
  }
  return VcOutcome::pass();
}

// app/rebalance_preserves_durability: every acked put stays readable (on
// its current owner set and through the client) across a node join, a
// graceful leave, and a hinted handoff through a partition.
VcOutcome vc_rebalance_preserves_durability(u64 seed) {
  SimCluster c(3, 2);
  Machine client_host({.network = &c.net()});
  BlockStoreClient client(client_host.sys, c.view(), [&] { c.pump(client_host); });

  Rng rng(seed);
  std::map<std::string, std::vector<u8>> model;
  for (usize i = 0; i < 12; ++i) {
    std::string key = "shard" + std::to_string(i);
    auto value = random_value(rng, 300);
    if (!client.put(key, value).ok()) {
      return VcOutcome::fail("seed put failed");
    }
    model[key] = value;
  }

  auto check_placement = [&](const char* phase) -> std::optional<std::string> {
    for (const auto& [key, value] : model) {
      for (usize i = 0; i < c.size(); ++i) {
        if (!c.active(i)) {
          continue;
        }
        if (c.is_owner(key, i)) {
          auto got = c.node(i).get(key);
          if (!got.ok() || got.value() != value) {
            return std::string(phase) + ": owner " + std::to_string(i) + " lost " + key;
          }
        }
      }
      auto via_client = client.get(key);
      if (!via_client.ok() || via_client.value() != value) {
        return std::string(phase) + ": client cannot read " + key;
      }
    }
    return std::nullopt;
  };

  // --- Join: a fourth node enters; everyone rebalances to the new view.
  const usize joined = c.join();
  for (usize i = 0; i < c.size(); ++i) {
    if (i == joined) {
      continue;
    }
    auto st = c.node(i).rebalance(c.view());
    if (!st.ok() || st.value().failed != 0) {
      return VcOutcome::fail("join rebalance failed on node " + std::to_string(i));
    }
  }
  client.set_cluster(c.view());
  c.drain();
  if (auto err = check_placement("after join")) {
    return VcOutcome::fail(*err);
  }
  // Shards actually moved onto the joiner (it owns ~replication/n of keys).
  if (c.node(joined).view().empty()) {
    return VcOutcome::fail("joiner received no shards");
  }
  // Non-owners released their copies after the acked handoff.
  for (const auto& [key, value] : model) {
    for (usize i = 0; i < c.size(); ++i) {
      if (c.active(i) && !c.is_owner(key, i) &&
          c.node(i).get(key).ok()) {
        return VcOutcome::fail("node " + std::to_string(i) + " kept a dropped shard: " + key);
      }
    }
  }

  // --- Graceful leave: node 0 hands everything off, aborting if any shard
  // could not be placed (failed > 0 would mean walking off with data).
  auto leave = c.node(0).rebalance(c.without(0));
  if (!leave.ok()) {
    return VcOutcome::fail("leave rebalance errored");
  }
  if (leave.value().failed != 0) {
    return VcOutcome::fail("graceful leave would strand shards; abort path taken");
  }
  c.leave(0);
  for (usize i = 1; i < c.size(); ++i) {
    auto st = c.node(i).rebalance(c.view());
    if (!st.ok() || st.value().failed != 0) {
      return VcOutcome::fail("post-leave rebalance failed on node " + std::to_string(i));
    }
  }
  client.set_cluster(c.view());
  c.drain();
  if (auto err = check_placement("after leave")) {
    return VcOutcome::fail(*err);
  }

  // --- Hinted handoff: cut the link between one key's two owners, write
  // through the primary (ack + parked hint), heal, deliver.
  std::string hkey = "hinted-key";
  auto owners = c.view().owners(hkey);
  if (owners.size() != 2) {
    return VcOutcome::fail("expected 2 owners for the hint scenario");
  }
  BsNodeId p = owners[0], q = owners[1];
  c.net().partition(c.addr(p), c.addr(q));
  std::vector<u8> hval = random_value(rng, 200);
  if (!client.put(hkey, hval).ok()) {
    return VcOutcome::fail("put through a partitioned owner pair failed");
  }
  model[hkey] = hval;
  if (c.node(p).stats().hints_written == 0) {
    return VcOutcome::fail("partitioned co-owner did not produce a hint");
  }
  if (c.node(q).get(hkey).ok()) {
    return VcOutcome::fail("partitioned co-owner mysteriously holds the value");
  }
  c.net().heal_all();
  if (c.node(p).deliver_hints() == 0) {
    return VcOutcome::fail("hint delivery after heal delivered nothing");
  }
  auto cured = c.node(q).get(hkey);
  if (!cured.ok() || cured.value() != hval) {
    return VcOutcome::fail("co-owner lacks the value after hint delivery");
  }
  if (c.node(p).stats().hints_delivered == 0) {
    return VcOutcome::fail("hint delivery not counted");
  }
  if (auto err = check_placement("after heal")) {
    return VcOutcome::fail(*err);
  }
  return VcOutcome::pass();
}

// --- Self-healing: tombstones + Merkle anti-entropy ------------------------------

// app/tombstone_no_resurrection: an acknowledged delete whose replica push
// was severed by a partition still wins. The tombstone reaches the lagging
// co-owner through Merkle anti-entropy (not hint delivery — the parked hint
// must be dropped as superseded, never replayed), acknowledgement-gated GC
// then reclaims the tombstone on every member, and the deleted bytes never
// reappear anywhere afterwards.
VcOutcome vc_tombstone_no_resurrection(u64 seed) {
  SimCluster c(2, 2);
  Machine client_host({.network = &c.net()});
  BlockStoreClient client(client_host.sys, c.view(), [&] { c.pump(client_host); });

  Rng rng(seed);
  std::vector<u8> value = random_value(rng, 300);
  if (!client.put("doomed", value).ok()) {
    return VcOutcome::fail("seed put failed");
  }
  c.drain();
  if (!c.node(0).get("doomed").ok() || !c.node(1).get("doomed").ok()) {
    return VcOutcome::fail("put did not replicate to both owners");
  }

  // Partition the owners: the delete acks on the reachable owner and parks
  // a tombstone hint for the unreachable one.
  c.net().partition(c.addr(0), c.addr(1));
  if (!client.del("doomed").ok()) {
    return VcOutcome::fail("del through the partition failed");
  }
  u64 tomb_seq = 0;
  for (const auto& e : c.node(0).list()) {
    if (e.key == "doomed" && e.tombstone) {
      tomb_seq = e.seq;
    }
  }
  if (tomb_seq == 0) {
    return VcOutcome::fail("delete did not leave a sequenced tombstone");
  }
  if (c.node(0).get("doomed").error() != ErrorCode::kNotFound) {
    return VcOutcome::fail("deleting owner still serves the key");
  }
  // The lagging co-owner still holds the doomed bytes — resurrection fuel.
  auto stale = c.node(1).get("doomed");
  if (!stale.ok() || stale.value() != value) {
    return VcOutcome::fail("co-owner unexpectedly lost the pre-delete value");
  }

  // Heal and repair through anti-entropy alone: the tombstone travels as a
  // first-class sequenced write and supersedes the stale copy.
  c.net().heal_all();
  AntiEntropyScheduler ae(c.node(0));
  if (!ae.sync_with(c.peer(1)).ok()) {
    return VcOutcome::fail("anti-entropy pass failed");
  }
  if (ae.stats().pushed == 0) {
    return VcOutcome::fail("anti-entropy did not push the tombstone");
  }
  if (c.node(1).get("doomed").error() != ErrorCode::kNotFound) {
    return VcOutcome::fail("tombstone did not supersede the stale copy");
  }

  // Acknowledgement-gated GC: the deleting owner certifies every member
  // applied the delete, drops its own superseded hint, reclaims its
  // tombstone, and tells the peer to reclaim too.
  if (c.node(0).gc_tombstones() == 0) {
    return VcOutcome::fail("gc reclaimed nothing despite full acknowledgement");
  }
  (void)c.node(1).gc_tombstones();
  if (c.node(0).stats().tombstones_gced == 0) {
    return VcOutcome::fail("gc not counted");
  }
  for (usize i = 0; i < 2; ++i) {
    (void)c.node(i).deliver_hints();  // any surviving hint would replay now
    if (c.node(i).get("doomed").error() != ErrorCode::kNotFound) {
      return VcOutcome::fail("key resurrected on node " + std::to_string(i));
    }
    for (const auto& e : c.node(i).list()) {
      if (e.key == "doomed") {
        return VcOutcome::fail("tombstone survives GC on node " + std::to_string(i));
      }
    }
  }
  return VcOutcome::pass();
}

// app/anti_entropy_converges: two replicas with seeded random divergence —
// keys missing on either side, stale versions, and tombstones — converge
// under bidirectional Merkle exchange to exactly the max-sequence union of
// their histories: equal roots, every key at its newest version, deletes
// deleted. A further pass in each direction is a clean root exchange.
VcOutcome vc_anti_entropy_converges(u64 seed) {
  Network net;
  Machine a_host({.network = &net});
  Machine b_host({.network = &net});
  // Each node's pump serves the other: a pass waits for the peer's replies.
  BlockStoreNode* b_ptr = nullptr;
  BlockStoreNode a(a_host.sys, 9000, {}, [&] { b_ptr->serve_once(); });
  BlockStoreNode b(b_host.sys, 9001, {}, [&] { a.serve_once(); });
  b_ptr = &b;
  if (!a.init().ok() || !b.init().ok()) {
    return VcOutcome::fail("init failed");
  }

  // Build a sequenced history; each version lands on a, on b, or on both,
  // so `truth` (the newest version per key) is the union both must reach.
  struct Truth {
    u64 seq = 0;
    bool tombstone = false;
    std::vector<u8> bytes;
  };
  Rng rng(seed);
  std::map<std::string, Truth> truth;
  u64 seq = 0;
  for (usize i = 0; i < 24; ++i) {
    std::string key = "blk" + std::to_string(i);
    usize versions = rng.chance(1, 3) ? 2 : 1;
    for (usize v = 0; v < versions; ++v) {
      ++seq;
      bool tomb = rng.chance(1, 5);
      std::vector<u8> bytes = tomb ? std::vector<u8>{} : random_value(rng, 200);
      u64 where = rng.next_range(0, 2);  // 0 = a only, 1 = b only, 2 = both
      if (where != 1 && !a.apply_remote(key, bytes, seq, tomb).ok()) {
        return VcOutcome::fail("apply to a failed");
      }
      if (where != 0 && !b.apply_remote(key, bytes, seq, tomb).ok()) {
        return VcOutcome::fail("apply to b failed");
      }
      truth[key] = Truth{seq, tomb, bytes};
    }
  }

  AntiEntropyConfig cfg;
  cfg.tokens_per_pass = 1'000'000;  // convergence VC: budget is not under test
  AntiEntropyScheduler ab(a, cfg);
  AntiEntropyScheduler ba(b, cfg);
  BsPeer peer_a{a_host.kernel.net_addr(), 9000};
  BsPeer peer_b{b_host.kernel.net_addr(), 9001};
  if (!ab.sync_with(peer_b).ok() || !ba.sync_with(peer_a).ok()) {
    return VcOutcome::fail("repair pass failed");
  }
  if (ab.stats().pulled + ab.stats().pushed + ba.stats().pulled + ba.stats().pushed == 0) {
    return VcOutcome::fail("seeded divergence repaired nothing");
  }

  // Converged: equal roots, and both inventories are exactly the truth map.
  if (MerkleTree::build(a.list()).root() != MerkleTree::build(b.list()).root()) {
    return VcOutcome::fail("roots differ after bidirectional repair");
  }
  for (BlockStoreNode* n : {&a, &b}) {
    auto inv = n->list();
    if (inv.size() != truth.size()) {
      return VcOutcome::fail("inventory size diverged from the union of histories");
    }
    for (const auto& e : inv) {
      auto it = truth.find(e.key);
      if (it == truth.end() || e.seq != it->second.seq || e.tombstone != it->second.tombstone) {
        return VcOutcome::fail("key " + e.key + " did not converge to its newest version");
      }
    }
    for (const auto& [key, t] : truth) {
      auto got = n->get(key);
      if (t.tombstone) {
        if (got.error() != ErrorCode::kNotFound) {
          return VcOutcome::fail("deleted key " + key + " still readable");
        }
      } else if (!got.ok() || got.value() != t.bytes) {
        return VcOutcome::fail("key " + key + " holds the wrong bytes");
      }
    }
  }

  // Already-converged pair: one root exchange each way, nothing shipped.
  u64 pulled = ab.stats().pulled + ba.stats().pulled;
  u64 pushed = ab.stats().pushed + ba.stats().pushed;
  if (!ab.sync_with(peer_b).ok() || !ba.sync_with(peer_a).ok()) {
    return VcOutcome::fail("clean pass failed");
  }
  if (ab.stats().clean_passes == 0 || ba.stats().clean_passes == 0 ||
      ab.stats().pulled + ba.stats().pulled != pulled ||
      ab.stats().pushed + ba.stats().pushed != pushed) {
    return VcOutcome::fail("pass over a converged pair was not a clean no-op");
  }
  return VcOutcome::pass();
}

// --- The stream plane under failure ------------------------------------------------

// One node whose machine can lose power and reboot at the same fabric
// address (journal recovery on the same disk), plus a client machine.
// pump() is the client's world step.
struct StreamRig {
  SimCluster cluster;
  Machine client_host;

  explicit StreamRig(u64 seed)
      : cluster(1, 1, {},
                [seed](usize) {
                  return SimCluster::MemberSpec{std::make_unique<BlockDevice>(16384, seed), {}};
                }),
        client_host({.network = &cluster.net()}) {}

  BlockStoreNode& node() { return cluster.node(0); }
  void pump() { cluster.pump(client_host); }

  // Power loss: the kernel, every stream it held and the serving process
  // die; each unflushed sector survives with probability persist_ppm. The
  // machine reboots at the same address and replays its journal.
  bool reboot(u64 persist_ppm) {
    cluster.disk(0).crash(persist_ppm);
    return cluster.reboot(0);
  }
};

// app/stream_reconnect_after_reboot: the node's machine loses power while a
// put is in flight on the client's stream — the request dies with the old
// kernel, and the node comes back at the same address from its journal. The
// client must meet the rebooted kernel's typed reset, drop the dead stream,
// reconnect and finish the put; every put acked before the crash must read
// back through the new stream.
VcOutcome vc_stream_reconnect_after_reboot(u64 seed) {
  StreamRig rig(seed);
  Rng rng(seed);
  bool crash_next_poll = false;
  bool rebooted = false;
  BlockStoreClient client(rig.client_host.sys, rig.cluster.view(), [&] {
    if (crash_next_poll) {
      crash_next_poll = false;
      rebooted = rig.reboot(rng.next_range(0, 1'000'000));
    }
    rig.pump();
  });
  std::map<std::string, std::vector<u8>> acked;
  const u64 before = rng.next_range(1, 8);
  for (u64 i = 0; i < before; ++i) {
    std::string key = random_key(rng) + std::to_string(i);
    std::vector<u8> value = random_value(rng, 800);
    if (!client.put(key, value).ok()) {
      return VcOutcome::fail("put before the crash failed");
    }
    acked[key] = value;
  }
  // The crash lands on the in-flight put's first poll: its request is on
  // the wire to a kernel that is about to die.
  crash_next_poll = true;
  std::vector<u8> racer = random_value(rng, 800);
  if (!client.put("racer", racer).ok()) {
    return VcOutcome::fail("put across the reboot failed");
  }
  if (!rebooted) {
    return VcOutcome::fail("the node did not reboot mid-put");
  }
  acked["racer"] = racer;
  if (client.retry_stats().reconnects == 0) {
    return VcOutcome::fail("the client never reconnected after the reset");
  }
  for (const auto& [key, value] : acked) {
    auto got = client.get(key);
    if (!got.ok() || got.value() != value) {
      return VcOutcome::fail("acked put of " + key + " unreadable through the new stream");
    }
  }
  return VcOutcome::pass();
}

// app/stream_unserved_request_lands_once: the node's kernel receives and
// acknowledges a put's request bytes, but the serving process dies before
// it reads them. A transport ack is not an rpc ack: the put may only return
// on a reply, and only the rebooted node can send one — so the client's
// retry, on a fresh stream, is what lands the put, and it lands once.
VcOutcome vc_stream_unserved_request_lands_once(u64 seed) {
  StreamRig rig(seed);
  Rng rng(seed);
  bool starved = false;        // the serving process is wedged: only kernels run
  u64 rx_before = 0;           // segments the client's kernel had received
  bool rebooted = false;
  bool stored_before_crash = false;
  const std::string key = "unserved";
  BlockStoreClient client(rig.client_host.sys, rig.cluster.view(), [&] {
    if (!starved) {
      rig.pump();
      return;
    }
    tick(rig.cluster.machine(0), rig.client_host);
    // On a clean fabric the only segment the node's kernel can send on the
    // idle stream is the ACK of the request bytes.
    if (rig.client_host.kernel.vtp().stats().segments_rx > rx_before) {
      starved = false;
      stored_before_crash = rig.node().get(key).ok();
      rebooted = rig.reboot(rng.next_range(0, 1'000'000));
    }
  });
  std::map<std::string, std::vector<u8>> acked;
  const u64 warm = rng.next_range(1, 4);  // also establishes the stream
  for (u64 i = 0; i < warm; ++i) {
    std::string k = random_key(rng) + std::to_string(i);
    std::vector<u8> v = random_value(rng, 600);
    if (!client.put(k, v).ok()) {
      return VcOutcome::fail("warm-up put failed");
    }
    acked[k] = v;
  }
  starved = true;
  rx_before = rig.client_host.kernel.vtp().stats().segments_rx;
  std::vector<u8> value = random_value(rng, 600);
  if (!client.put(key, value).ok()) {
    return VcOutcome::fail("put never landed after the reboot");
  }
  if (!rebooted) {
    return VcOutcome::fail("the old kernel never acked the request, or the reboot failed");
  }
  if (stored_before_crash) {
    return VcOutcome::fail("the request reached storage before the process died");
  }
  if (client.retry_stats().retries == 0) {
    return VcOutcome::fail("the put returned without a retry: a transport ack was taken as a reply");
  }
  if (client.retry_stats().reconnects == 0) {
    return VcOutcome::fail("the retry did not ride a fresh stream");
  }
  if (rig.node().stats().puts != 1) {
    return VcOutcome::fail("the retried put landed " + std::to_string(rig.node().stats().puts) +
                           " times on the rebooted node");
  }
  acked[key] = value;
  for (const auto& [k, v] : acked) {
    auto got = rig.node().get(k);
    if (!got.ok() || got.value() != v) {
      return VcOutcome::fail("acked put of " + k + " missing after the reboot");
    }
  }
  return VcOutcome::pass();
}

// app/stream_partition_heals_mid_stream: the client-node link is cut just
// after a request reached the node, so the reply dies on the wire, and heals
// some polls later. The established stream must carry the rpc across the
// cut — retransmission below the rpc layer, no reset, no reconnect — and the
// node must end up holding exactly the model's map.
VcOutcome vc_stream_partition_heals_mid_stream(u64 seed) {
  Network net;
  Machine server({.network = &net});
  Machine client_host({.network = &net});
  BlockStoreNode node(server.sys, 9000);
  if (!node.init().ok()) {
    return VcOutcome::fail("init failed");
  }
  Rng rng(seed);
  const u64 cut_op = rng.next_range(1, 8);      // the stream is established by then
  const u64 cut_polls = rng.next_range(16, 160);  // at least one RTO inside the cut
  const LinkAddr a = client_host.kernel.net_addr();
  const LinkAddr b = server.kernel.net_addr();
  u64 op = 0;
  u64 cut_left = 0;
  bool healed = false;
  BlockStoreClient client(client_host.sys, ClusterView::of({{b, 9000}}, 1), [&] {
    if (op == cut_op && !healed && cut_left == 0) {
      net.partition(a, b);
      cut_left = cut_polls;
    }
    node.serve_once();
    tick(server, client_host);
    if (cut_left > 0 && --cut_left == 0) {
      net.heal(a, b);
      healed = true;
    }
  });
  std::map<std::string, std::vector<u8>> model;
  for (op = 0; op < 12; ++op) {
    std::string key = random_key(rng);
    if (rng.chance(2, 3)) {
      std::vector<u8> value = random_value(rng, 600);
      if (!client.put(key, value).ok()) {
        return VcOutcome::fail("put failed across the cut");
      }
      model[key] = value;
    } else {
      auto r = client.get(key);
      auto it = model.find(key);
      bool match = it == model.end() ? r.error() == ErrorCode::kNotFound
                                     : r.ok() && r.value() == it->second;
      if (!match) {
        return VcOutcome::fail("get across the cut returned the wrong answer");
      }
    }
  }
  if (!healed) {
    return VcOutcome::fail("the link was never cut and healed");
  }
  if (client.retry_stats().reconnects != 0) {
    return VcOutcome::fail("the partition tore the stream down");
  }
  if (server.kernel.vtp().stats().retransmits + client_host.kernel.vtp().stats().retransmits ==
      0) {
    return VcOutcome::fail("nothing was retransmitted across the cut");
  }
  if (node.view() != model) {
    return VcOutcome::fail("node state diverged from the model");
  }
  return VcOutcome::pass();
}

// --- Wire marshalling -------------------------------------------------------------
//
// The marshalling obligation over the blockstore wire, row by row of
// VNROS_BS_OPS (src/app/wire.h), as kernel/sys_marshalling_* checks the
// syscall table.

// A seeded reply payload of op N (a Merkle leaf entry carries no crc).
template <BsOp N>
BsPayloadOf<N> arbitrary_payload(Rng& rng) {
  using P = BsPayloadOf<N>;
  if constexpr (std::is_same_v<P, TailBytes>) {
    return {random_value(rng, 64)};
  } else if constexpr (std::is_same_v<P, BlockPayload>) {
    return {rng.chance(1, 2), {random_value(rng, 64)}};
  } else if constexpr (std::is_same_v<P, MerkleNodePayload>) {
    return {rng.next_u32(), std::vector<u32>(rng.chance(1, 2) ? MerkleTree::kFanout : 0, 7)};
  } else if constexpr (std::is_same_v<P, std::vector<BlockKeyInfo>>) {
    std::vector<BlockKeyInfo> out(rng.next_below(4));
    for (auto& e : out) {
      e = {random_key(rng), N == BsOp::kList ? rng.next_u32() : 0, rng.next_u64(),
           rng.chance(1, 2)};
    }
    return out;
  } else {
    return P{};
  }
}

// One row of the op table:
//   - a seeded request round-trips through the head and the row's body;
//   - handled on the plane that serves the op, each strict prefix of the
//     request, and the request plus one byte, gets no reply or
//     kInvalidArgument, and the node's view() and list() stay as they were;
//   - a seeded reply payload round-trips through the row's payload codec,
//     and no strict prefix of the reply that carries it decodes; nor of the
//     payload itself, unless it ends in raw bytes (a kGet value, a
//     kGetBlock block), whose end only the reply's payload length marks.
template <BsOp N>
std::optional<std::string> check_bs_row(Rng& rng, BlockStoreNode& node) {
  const std::string row = "op " + std::to_string(static_cast<int>(N)) + ": ";
  const std::string key = random_key(rng);
  const std::vector<u8> value = random_value(rng, 32);
  const std::vector<u8> bytes = bs_request_bytes({.op = static_cast<u8>(N),
                                                  .req_id = rng.next_u64() >> 1,
                                                  .key = key,
                                                  .seq = rng.next_u64(),
                                                  .value = value,
                                                  .index = rng.next_u32()});
  Reader r(bytes);
  BsRequest back;
  if (!BsHead::get(r, back) || !bs_get_body(r, back) || bs_request_bytes(back) != bytes) {
    return row + "the request does not round-trip";
  }
  std::vector<u8> over = bytes;
  over.push_back(static_cast<u8>(rng.next_u64()));
  const auto view = node.view();
  const auto list = node.list();
  for (usize cut = 0; cut <= bytes.size(); ++cut) {
    auto probe = cut < bytes.size() ? std::span<const u8>(bytes).first(cut) : over;
    auto reply = node.handle_request(bs_op_info(N)->plane, probe);
    auto frame = reply ? bs_reply(*reply) : std::nullopt;
    if (reply && (!frame || frame->err != static_cast<u32>(ErrorCode::kInvalidArgument))) {
      return row + "a request of " + std::to_string(probe.size()) + " of " +
             std::to_string(bytes.size()) + " bytes was not refused";
    }
  }
  if (node.view() != view || node.list() != list) {
    return row + "a malformed request changed the node";
  }

  using P = BsPayloadOf<N>;
  const P payload = arbitrary_payload<N>(rng);
  const std::vector<u8> wire = bs_payload_bytes<N>(payload);
  auto decoded = bs_payload<N>(wire);
  constexpr bool kEndsRaw = std::is_same_v<P, TailBytes> || std::is_same_v<P, BlockPayload>;
  if (!decoded.ok() || !(decoded.value() == payload) ||
      !(kEndsRaw || round_trips<P, typename BsDesc<N>::Payload>(payload)) ||
      !round_trips<BsReplyFrame, BsRefusal>({.req_id = 1, .err = 0, .payload = wire})) {
    return row + "a reply payload does not round-trip, or a strict prefix is accepted";
  }
  return std::nullopt;
}

// The marshalling obligation over the whole op table, on a node holding a
// value and a tombstone that a wrongly accepted request could disturb.
VcOutcome vc_wire_rejects_garbage(u64 seed) {
  Machine host;
  BlockStoreNode node(host.sys, 9000);
  if (!node.init().ok() || !node.put("alpha", std::vector<u8>{1, 2, 3}).ok() ||
      !node.del("beta").ok()) {
    return VcOutcome::fail("setup failed");
  }
  Rng rng(seed);
  std::optional<std::string> bad;
#define VNROS_BS_CHECK(name, opcode, plane, body, payload, flags) \
  bad = bad ? bad : check_bs_row<BsOp::name>(rng, node);
  VNROS_BS_OPS(VNROS_BS_CHECK)
#undef VNROS_BS_CHECK
  return bad ? VcOutcome::fail(*bad) : VcOutcome::pass();
}

}  // namespace

void register_app_vcs(VcRegistry& reg) {
  reg.add("app/put_get_roundtrip", VcCategory::kApplication,
          [] { return vc_put_get_roundtrip(); });
  for (u64 seed = 1; seed <= 2; ++seed) {
    reg.add("app/refines_map_clean_seed" + std::to_string(seed), VcCategory::kApplication,
            [seed] { return vc_refines_map(seed, FabricConfig{}, 60); });
    reg.add("app/refines_map_lossy_seed" + std::to_string(seed), VcCategory::kApplication,
            [seed] {
              FabricConfig fabric;
              fabric.loss_ppm = 200'000;  // 20% loss: retries must cover it
              fabric.dup_ppm = 50'000;
              return vc_refines_map(seed ^ 0x10557, fabric, 40);
            });
  }
  for (u64 seed = 1; seed <= 3; ++seed) {
    reg.add("app/crash_recovery_seed" + std::to_string(seed), VcCategory::kApplication,
            [seed] { return vc_crash_recovery(seed); });
  }
  reg.add("app/corruption_detected", VcCategory::kApplication,
          [] { return vc_corruption_detected(); });
  reg.add("app/replication_push", VcCategory::kApplication,
          [] { return vc_replication_push(); });
  for (u64 seed = 1; seed <= 2; ++seed) {
    reg.add("app/overwrite_then_crash_seed" + std::to_string(seed), VcCategory::kApplication,
            [seed] { return vc_overwrite_then_crash(seed); });
    reg.add("app/view_matches_after_churn_seed" + std::to_string(seed),
            VcCategory::kApplication, [seed] { return vc_view_matches_after_churn(seed); });
  }
  for (u64 seed = 1; seed <= 2; ++seed) {
    reg.add("app/anti_entropy_sync_seed" + std::to_string(seed), VcCategory::kApplication,
            [seed] { return vc_anti_entropy_sync(seed); });
  }
  reg.add("app/read_repair", VcCategory::kApplication, [] { return vc_read_repair(); });
  reg.add("app/retry_failover", VcCategory::kApplication, [] { return vc_retry_failover(); });
  for (u64 seed = 1; seed <= 2; ++seed) {
    reg.add("app/retry_transient_seed" + std::to_string(seed), VcCategory::kApplication,
            [seed] { return vc_retry_transient(seed); });
  }
  for (u64 seed = 1; seed <= 2; ++seed) {
    reg.add("app/placement_refines_seed" + std::to_string(seed), VcCategory::kApplication,
            [seed] { return vc_placement_refines(seed); });
    reg.add("app/rebalance_preserves_durability_seed" + std::to_string(seed),
            VcCategory::kApplication, [seed] { return vc_rebalance_preserves_durability(seed); });
  }
  for (u64 seed = 1; seed <= 2; ++seed) {
    reg.add("app/tombstone_no_resurrection_seed" + std::to_string(seed),
            VcCategory::kApplication, [seed] { return vc_tombstone_no_resurrection(seed); });
    reg.add("app/anti_entropy_converges_seed" + std::to_string(seed),
            VcCategory::kApplication, [seed] { return vc_anti_entropy_converges(seed); });
  }
  for (u64 seed = 1; seed <= 3; ++seed) {
    reg.add("app/stream_reconnect_after_reboot_seed" + std::to_string(seed),
            VcCategory::kApplication, [seed] { return vc_stream_reconnect_after_reboot(seed); });
    reg.add("app/stream_unserved_request_lands_once_seed" + std::to_string(seed),
            VcCategory::kApplication,
            [seed] { return vc_stream_unserved_request_lands_once(seed); });
    reg.add("app/stream_partition_heals_mid_stream_seed" + std::to_string(seed),
            VcCategory::kApplication,
            [seed] { return vc_stream_partition_heals_mid_stream(seed); });
  }
  for (u64 seed = 1; seed <= 3; ++seed) {
    reg.add("app/wire_rejects_garbage_seed" + std::to_string(seed), VcCategory::kApplication,
            [seed] { return vc_wire_rejects_garbage(seed); });
  }
}

}  // namespace vnros
