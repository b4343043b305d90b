// Merkle-tree anti-entropy: background repair whose bandwidth scales with
// *divergence*, not keyspace.
//
// A full-inventory sync ships every (key, crc, seq) a replica holds on every
// pass — O(keyspace) wire bytes even when the replicas already agree. The
// Merkle exchange is the background repair path instead: each node
// summarizes its inventory as a fixed-shape hash tree over
// key -> (seq, tombstone); two replicas exchange the tree top-down and only
// descend into subtrees whose hashes differ, so an in-sync pair costs one
// root exchange and a 1%-divergent pair costs O(log + divergent keys).
// AntiEntropyScheduler::sync_full is the one full-inventory path: the
// Merkle ablation's baseline (bench/ablate_anti_entropy measures both
// through the same byte accounting), reconciling key by key exactly as the
// Merkle leaves do.
//
// Every repair RPC is one BlockStoreNode::call_peer, the call replica
// pushes and read-repair fetches make: it leaves from the node's repair
// socket and waits on its repair ring, so the scheduler owns no socket and
// no pump, and the node it repairs must have a pump. Its pushes count in
// the node's replicas_pushed like every other replica datagram.
//
// Repair is subordinate to foreground traffic by construction:
//   - every pass runs under a token budget (one token per RPC); an exhausted
//     budget parks the rest of the pass for the next deadline;
//   - repair RPCs are admission-gated server-side like any storage op, and a
//     kOverloaded reply aborts the whole pass (the peer is busy serving
//     clients; divergence can wait);
//   - pass deadlines are jittered per peer so repair load never synchronizes
//     across the cluster.
//
// Correctness leans entirely on the node's apply-if-newer ingress
// (BlockStoreNode::apply_remote): repair can reorder or replay arbitrarily
// and never regress a key, and tombstones travel as first-class sequenced
// writes so repair propagates deletions instead of resurrecting them
// (app/anti_entropy_converges + app/tombstone_no_resurrection VCs).
#ifndef VNROS_SRC_APP_ANTI_ENTROPY_H_
#define VNROS_SRC_APP_ANTI_ENTROPY_H_

#include <array>
#include <map>
#include <string>
#include <vector>

#include "src/app/blockstore.h"
#include "src/base/result.h"
#include "src/base/rng.h"
#include "src/base/types.h"

namespace vnros {

// Fixed-shape Merkle tree over a node's block inventory. Keys hash into 64
// leaf buckets; interior nodes have fanout 4 (85 nodes total, heap-indexed:
// children of i are 4i+1..4i+4, root is 0). A leaf hashes its bucket's
// entries in key order, each encoded as a MerkleLeafEntry (src/app/wire.h);
// an interior node hashes its four child hashes. Equal roots => equal
// (key -> seq, tombstone) maps (modulo crc32c collisions, which the chaos
// suite's value checks would surface as a divergence that "converged" to
// different bytes).
//
// The shape is fixed (not keyspace-dependent) so two nodes can compare trees
// index-by-index without negotiating structure.
struct MerkleTree {
  static constexpr usize kFanout = 4;
  static constexpr usize kLeaves = 64;
  static constexpr usize kNodes = 1 + 4 + 16 + 64;  // complete 4-ary, depth 3
  static constexpr usize kFirstLeaf = kNodes - kLeaves;

  std::array<u32, kNodes> hash{};
  std::array<std::vector<BlockKeyInfo>, kLeaves> buckets;

  static bool is_leaf(usize idx) { return idx >= kFirstLeaf; }
  static usize bucket_of(std::string_view key);
  u32 root() const { return hash[0]; }

  // Builds the tree from an inventory (BlockStoreNode::list(): key-sorted,
  // tombstones included — deletion state is part of what must converge).
  static MerkleTree build(const std::vector<BlockKeyInfo>& inventory);
};

// One repair pass driver's knobs. All waiting is in pump polls (the
// simulation's clock): each RPC makes up to 2 sends, each awaited for 64
// polls. All randomness comes from the scheduler's seeded Rng — repair
// schedules replay bit-identically.
struct AntiEntropyConfig {
  u64 interval_polls = 256;  // base ticks between passes against one peer
  u64 jitter_polls = 64;     // additive per-deadline jitter (de-synchronizes peers)
  u64 tokens_per_pass = 48;  // RPC budget per pass (1 token per request)
  u64 rng_seed = 0xA17E'0001ull;
};

// Wire/bandwidth accounting for one scheduler (the ablation's measurand).
struct RepairStats {
  u64 passes = 0;            // exchanges started (Merkle or full-inventory)
  u64 clean_passes = 0;      // root hashes matched: nothing shipped
  u64 rpcs = 0;              // repair requests put on the wire
  u64 bytes_sent = 0;        // request bytes (all attempts)
  u64 bytes_received = 0;    // reply bytes
  u64 pulled = 0;            // blocks pulled from a peer and applied locally
  u64 pushed = 0;            // blocks pushed to a peer (acked)
  u64 yields = 0;            // passes aborted on kOverloaded (foreground wins)
  u64 budget_exhausted = 0;  // passes parked by the token budget
};

// Periodic repair driver for one node. tick() is the external clock (call
// once per harness poll); when a peer's jittered deadline expires the
// scheduler runs one Merkle exchange against it. sync_with()/sync_full()
// are also callable directly (quiesce paths, benches).
class AntiEntropyScheduler {
 public:
  explicit AntiEntropyScheduler(BlockStoreNode& node, AntiEntropyConfig cfg = {});

  // Advances the repair clock one poll; runs at most the passes whose
  // deadlines expired. A peer first seen at tick T gets a deadline jittered
  // within one full interval so cluster members never phase-lock.
  void tick();

  // One Merkle exchange with `peer`: compare roots, descend into divergent
  // subtrees, pull peer-newer blocks (apply-if-newer), push local-newer
  // blocks (acked). kBusy = token budget exhausted mid-pass (progress was
  // made; the next pass continues), kOverloaded = peer is shedding (yield).
  Result<Unit> sync_with(const BsPeer& peer);

  // Full-inventory exchange through the same peer call, reconcile step and
  // byte accounting as sync_with: one kList, then every key whose sequence
  // differs is pulled (peer newer) or pushed (local newer). Equal sequences
  // count as converged, as they do in the Merkle leaves. The ablation
  // baseline differs only in what goes over the wire, never in how it is
  // measured or applied.
  Result<Unit> sync_full(const BsPeer& peer);

  const RepairStats& stats() const { return stats_; }

 private:
  // One repair RPC through the node's call_peer, charged one budget token
  // and counted in the stats' rpcs and wire bytes. The reply's error code is
  // surfaced as-is (kOk => payload valid); kBusy = budget exhausted before
  // sending.
  Result<BsReply> rpc(const BsPeer& peer, BsOp op, BsRequest req = {});
  // rpc() of op N with its reply payload decoded (kCorrupted when it does
  // not decode).
  template <BsOp N>
  Result<BsPayloadOf<N>> fetch(const BsPeer& peer, BsRequest req = {});

  // Merkle node `idx`: kCorrupted when it claims more than kFanout children.
  Result<MerkleNodePayload> fetch_node(const BsPeer& peer, u32 idx);
  // Reconciles one divergent (key, seq, tombstone) pair: pulls when the peer
  // is newer, pushes when we are. `peer_seq` 0 = peer lacks the key.
  Result<Unit> reconcile(const BsPeer& peer, const BlockKeyInfo* local,
                         const BlockKeyInfo* remote);
  Result<Unit> pull_block(const BsPeer& peer, std::string_view key);
  Result<Unit> push_block(const BsPeer& peer, const BlockKeyInfo& info);

  BlockStoreNode& node_;
  AntiEntropyConfig cfg_;
  Rng rng_;
  u64 now_ = 0;
  u64 budget_ = 0;  // tokens left in the current pass
  std::map<BsNodeId, u64> next_due_;
  RepairStats stats_;
};

}  // namespace vnros

#endif  // VNROS_SRC_APP_ANTI_ENTROPY_H_
