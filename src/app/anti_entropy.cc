#include "src/app/anti_entropy.h"

#include <algorithm>

#include "src/base/crc.h"
#include "src/base/log.h"
#include "src/base/serde.h"

namespace vnros {
namespace {

// Sends per repair RPC, and pump polls awaiting each reply.
constexpr PeerRetry kRepairRpcRetry{.attempts = 2, .window = 64};

}  // namespace

usize MerkleTree::bucket_of(std::string_view key) {
  std::span<const u8> bytes(reinterpret_cast<const u8*>(key.data()), key.size());
  return crc32c(bytes) % kLeaves;
}

MerkleTree MerkleTree::build(const std::vector<BlockKeyInfo>& inventory) {
  MerkleTree t;
  // inventory is key-sorted (list() sorts), so each bucket stays key-sorted
  // and leaf hashes are canonical for a given key -> (seq, tombstone) map.
  for (const auto& e : inventory) {
    t.buckets[bucket_of(e.key)].push_back(e);
  }
  for (usize b = 0; b < kLeaves; ++b) {
    Writer w;
    for (const auto& e : t.buckets[b]) {
      MerkleLeafEntry::put(w, e);
    }
    t.hash[kFirstLeaf + b] = crc32c(w.bytes());
  }
  for (usize idx = kFirstLeaf; idx-- > 0;) {
    Writer w;
    for (usize c = 0; c < kFanout; ++c) {
      Codec<u32>::put(w, t.hash[idx * kFanout + 1 + c]);
    }
    t.hash[idx] = crc32c(w.bytes());
  }
  return t;
}

AntiEntropyScheduler::AntiEntropyScheduler(BlockStoreNode& node, AntiEntropyConfig cfg)
    : node_(node), cfg_(cfg), rng_(cfg.rng_seed) {}

void AntiEntropyScheduler::tick() {
  ++now_;
  for (const auto& [id, peer] : node_.cluster_view().directory) {
    if (id == node_.self_id()) {
      continue;
    }
    auto [it, inserted] = next_due_.try_emplace(id, 0);
    if (inserted) {
      // First sighting: spread the initial deadline across one full interval
      // so members that boot together do not repair in lockstep.
      it->second = now_ + 1 + rng_.next_below(cfg_.interval_polls + 1);
      continue;
    }
    if (now_ < it->second) {
      continue;
    }
    (void)sync_with(peer);
    it->second = now_ + cfg_.interval_polls + rng_.next_below(cfg_.jitter_polls + 1);
  }
}

Result<BsReply> AntiEntropyScheduler::rpc(const BsPeer& peer, BsOp op, BsRequest req) {
  if (budget_ == 0) {
    return ErrorCode::kBusy;  // pass budget spent: park the rest
  }
  --budget_;
  ++stats_.rpcs;
  PeerTraffic traffic;
  auto reply = node_.call_peer(peer, op, req, kRepairRpcRetry, &traffic);
  stats_.bytes_sent += traffic.sent;
  stats_.bytes_received += traffic.received;
  return reply;
}

template <BsOp N>
Result<BsPayloadOf<N>> AntiEntropyScheduler::fetch(const BsPeer& peer, BsRequest req) {
  auto reply = rpc(peer, N, req);
  if (!reply.ok()) {
    return reply.error();
  }
  return bs_payload<N>(reply.value().value);
}

Result<MerkleNodePayload> AntiEntropyScheduler::fetch_node(const BsPeer& peer, u32 idx) {
  auto node = fetch<BsOp::kMerkleNode>(peer, {.index = idx});
  if (node.ok() && node.value().children.size() > MerkleTree::kFanout) {
    return ErrorCode::kCorrupted;
  }
  return node;
}

Result<Unit> AntiEntropyScheduler::pull_block(const BsPeer& peer, std::string_view key) {
  auto reply = rpc(peer, BsOp::kGetBlock, {.key = key});
  if (!reply.ok()) {
    return reply.error();
  }
  auto block = decode_block_reply(std::move(reply.value()));
  if (!block.ok()) {
    return block.error();
  }
  bool applied = false;
  auto stored = node_.apply_remote(key, block.value().ref(), &applied);
  if (!stored.ok()) {
    return stored;
  }
  if (applied) {
    ++stats_.pulled;
  }
  return Unit{};
}

Result<Unit> AntiEntropyScheduler::push_block(const BsPeer& peer, const BlockKeyInfo& info) {
  std::vector<u8> value;
  if (!info.tombstone) {
    auto got = node_.get(info.key);
    if (!got.ok()) {
      // The block changed (deleted/corrupted) since list(): let the next
      // pass ship whatever it settled into.
      return Unit{};
    }
    value = std::move(got.value());
  }
  auto reply =
      rpc(peer, replica_op(info.tombstone), {.key = info.key, .seq = info.seq, .value = value});
  if (!reply.ok()) {
    return reply.error();
  }
  ++stats_.pushed;
  return Unit{};
}

Result<Unit> AntiEntropyScheduler::reconcile(const BsPeer& peer, const BlockKeyInfo* local,
                                             const BlockKeyInfo* remote) {
  const u64 lseq = local != nullptr ? local->seq : 0;
  const u64 rseq = remote != nullptr ? remote->seq : 0;
  if (remote != nullptr && (local == nullptr || rseq > lseq)) {
    return pull_block(peer, remote->key);
  }
  if (local != nullptr && (remote == nullptr || lseq > rseq)) {
    return push_block(peer, *local);
  }
  // Equal sequences: apply-if-newer made the copies identical when they were
  // written; nothing to ship.
  return Unit{};
}

namespace {

// Key-ordered diff of two sorted entry lists, invoking `fn(local, remote)`
// (either side nullptr when absent) for every key present in either.
template <typename Fn>
Result<Unit> diff_entries(const std::vector<BlockKeyInfo>& local,
                          const std::vector<BlockKeyInfo>& remote, Fn&& fn) {
  usize li = 0;
  usize ri = 0;
  while (li < local.size() || ri < remote.size()) {
    const BlockKeyInfo* l = li < local.size() ? &local[li] : nullptr;
    const BlockKeyInfo* r = ri < remote.size() ? &remote[ri] : nullptr;
    if (l != nullptr && r != nullptr && l->key == r->key) {
      if (l->seq != r->seq) {
        auto res = fn(l, r);
        if (!res.ok()) {
          return res;
        }
      }
      ++li;
      ++ri;
    } else if (r == nullptr || (l != nullptr && l->key < r->key)) {
      auto res = fn(l, nullptr);
      if (!res.ok()) {
        return res;
      }
      ++li;
    } else {
      auto res = fn(nullptr, r);
      if (!res.ok()) {
        return res;
      }
      ++ri;
    }
  }
  return Unit{};
}

}  // namespace

Result<Unit> AntiEntropyScheduler::sync_with(const BsPeer& peer) {
  ++stats_.passes;
  budget_ = cfg_.tokens_per_pass;
  MerkleTree local = MerkleTree::build(node_.list());
  auto classify = [this](ErrorCode err) {
    if (err == ErrorCode::kOverloaded) {
      ++stats_.yields;  // the peer is shedding: foreground traffic wins
    } else if (err == ErrorCode::kBusy) {
      ++stats_.budget_exhausted;
    }
    return err;
  };
  auto root = fetch_node(peer, 0);
  if (!root.ok()) {
    return classify(root.error());
  }
  if (root.value().hash == local.root()) {
    ++stats_.clean_passes;
    return Unit{};
  }
  // Top-down descent: only subtrees whose hashes differ are expanded, so
  // wire cost tracks divergence. The node reply carries child hashes, so
  // each interior fetch prunes four subtrees at once.
  std::vector<std::pair<usize, MerkleNodePayload>> frontier;
  frontier.emplace_back(0, root.value());
  std::vector<u32> divergent_leaves;
  while (!frontier.empty()) {
    auto [idx, nr] = frontier.back();
    frontier.pop_back();
    for (usize c = 0; c < nr.children.size(); ++c) {
      usize child = idx * MerkleTree::kFanout + 1 + c;
      if (nr.children[c] == local.hash[child]) {
        continue;
      }
      if (MerkleTree::is_leaf(child)) {
        divergent_leaves.push_back(static_cast<u32>(child - MerkleTree::kFirstLeaf));
      } else {
        auto fetched = fetch_node(peer, static_cast<u32>(child));
        if (!fetched.ok()) {
          return classify(fetched.error());
        }
        frontier.emplace_back(child, fetched.value());
      }
    }
  }
  for (u32 bucket : divergent_leaves) {
    auto remote = fetch<BsOp::kMerkleLeaf>(peer, {.index = bucket});
    if (!remote.ok()) {
      return classify(remote.error());
    }
    auto reconciled =
        diff_entries(local.buckets[bucket], remote.value(),
                     [&](const BlockKeyInfo* l, const BlockKeyInfo* r) {
                       return reconcile(peer, l, r);
                     });
    if (!reconciled.ok()) {
      return classify(reconciled.error());
    }
  }
  return Unit{};
}

Result<Unit> AntiEntropyScheduler::sync_full(const BsPeer& peer) {
  ++stats_.passes;
  budget_ = ~u64{0};  // baseline is unmetered: it measures full-inventory cost
  auto remote = fetch<BsOp::kList>(peer);
  if (!remote.ok()) {
    if (remote.error() == ErrorCode::kOverloaded) {
      ++stats_.yields;
    }
    return remote.error();
  }
  std::vector<BlockKeyInfo> local = node_.list();
  return diff_entries(local, remote.value(), [&](const BlockKeyInfo* l, const BlockKeyInfo* rr) {
    return reconcile(peer, l, rr);
  });
}

}  // namespace vnros
