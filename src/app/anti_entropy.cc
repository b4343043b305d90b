#include "src/app/anti_entropy.h"

#include <algorithm>

#include "src/base/crc.h"
#include "src/base/log.h"
#include "src/base/serde.h"

namespace vnros {

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
      w.put_string(e.key);
      w.put_u64(e.seq);
      w.put_u8(e.tombstone ? 1 : 0);
    }
    t.hash[kFirstLeaf + b] = crc32c(w.bytes());
  }
  for (usize idx = kFirstLeaf; idx-- > 0;) {
    Writer w;
    for (usize c = 0; c < kFanout; ++c) {
      w.put_u32(t.hash[idx * kFanout + 1 + c]);
    }
    t.hash[idx] = crc32c(w.bytes());
  }
  return t;
}

AntiEntropyScheduler::AntiEntropyScheduler(Sys& sys, BlockStoreNode& node,
                                           std::function<void()> pump, AntiEntropyConfig cfg)
    : sys_(sys), node_(node), pump_(std::move(pump)), cfg_(cfg), rng_(cfg.rng_seed) {}

void AntiEntropyScheduler::tick() {
  ++now_;
  if (!node_.clustered()) {
    return;
  }
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

std::vector<u8> AntiEntropyScheduler::make_request(BsOp op, std::string_view key,
                                                   u64 req_id) const {
  Writer w;
  w.put_u8(static_cast<u8>(op));
  w.put_u64(req_id);
  w.put_string(key);
  return w.take();
}

Result<AntiEntropyScheduler::RpcReply> AntiEntropyScheduler::do_rpc(
    const BsPeer& peer, const std::vector<u8>& request) {
  if (budget_ == 0) {
    return ErrorCode::kBusy;  // pass budget spent: park the rest
  }
  --budget_;
  if (sock_ == kInvalidFd) {
    auto sock = sys_.udp_socket();
    if (!sock.ok()) {
      return sock.error();
    }
    sock_ = sock.value();
  }
  // The req_id is embedded at offset 1 by the caller; recover it for reply
  // matching (stale replies from earlier RPCs share this socket).
  Reader req(request);
  (void)req.get_u8();
  u64 req_id = req.get_u64().value_or(0);
  ++stats_.rpcs;
  ErrorCode last = ErrorCode::kTimedOut;
  for (usize attempt = 0; attempt < cfg_.rpc_attempts; ++attempt) {
    auto sent = sys_.udp_sendto(sock_, peer.addr, peer.port, request);
    if (!sent.ok()) {
      last = sent.error();
      continue;
    }
    stats_.bytes_sent += request.size();
    for (usize poll = 0; poll < cfg_.rpc_polls; ++poll) {
      if (pump_) {
        pump_();
      }
      auto reply = sys_.udp_recvfrom(sock_);
      if (!reply.ok()) {
        continue;
      }
      Reader r(reply.value().payload);
      auto rid = r.get_u64();
      auto err = r.get_u32();
      auto payload = r.get_bytes();
      if (!rid || !err || !payload || *rid != req_id) {
        continue;
      }
      stats_.bytes_received += reply.value().payload.size();
      ErrorCode code = static_cast<ErrorCode>(*err);
      if (code != ErrorCode::kOk) {
        return code;
      }
      return RpcReply{std::move(*payload), r.get_u64().value_or(0)};
    }
  }
  return last;
}

Result<AntiEntropyScheduler::NodeReply> AntiEntropyScheduler::fetch_node(const BsPeer& peer,
                                                                         u32 idx) {
  std::vector<u8> req = make_request(BsOp::kMerkleNode, "", next_req_id_++);
  Writer extra;
  extra.put_u32(idx);
  req.insert(req.end(), extra.bytes().begin(), extra.bytes().end());
  auto reply = do_rpc(peer, req);
  if (!reply.ok()) {
    return reply.error();
  }
  Reader r(reply.value().payload);
  NodeReply out;
  auto hash = r.get_u32();
  auto count = r.get_u32();
  if (!hash || !count || *count > MerkleTree::kFanout) {
    return ErrorCode::kCorrupted;
  }
  out.hash = *hash;
  out.child_count = *count;
  for (u32 c = 0; c < *count; ++c) {
    auto child = r.get_u32();
    if (!child) {
      return ErrorCode::kCorrupted;
    }
    out.children[c] = *child;
  }
  return out;
}

Result<std::vector<BlockKeyInfo>> AntiEntropyScheduler::fetch_leaf(const BsPeer& peer,
                                                                   u32 bucket) {
  std::vector<u8> req = make_request(BsOp::kMerkleLeaf, "", next_req_id_++);
  Writer extra;
  extra.put_u32(bucket);
  req.insert(req.end(), extra.bytes().begin(), extra.bytes().end());
  auto reply = do_rpc(peer, req);
  if (!reply.ok()) {
    return reply.error();
  }
  // The smallest entry: an empty key's u32 length, seq and flags. A count
  // the payload cannot hold is malformed, so it never sizes the reservation.
  constexpr usize kMinEntryBytes = 4 + 8 + 1;
  Reader r(reply.value().payload);
  auto count = r.get_u32();
  if (!count || *count > r.remaining() / kMinEntryBytes) {
    return ErrorCode::kCorrupted;
  }
  std::vector<BlockKeyInfo> out;
  out.reserve(*count);
  for (u32 i = 0; i < *count; ++i) {
    auto key = r.get_string();
    auto seq = r.get_u64();
    auto flags = r.get_u8();
    if (!key || !seq || !flags) {
      return ErrorCode::kCorrupted;
    }
    out.push_back(BlockKeyInfo{std::move(*key), 0, *seq, (*flags & 1) != 0});
  }
  return out;
}

Result<Unit> AntiEntropyScheduler::pull_block(const BsPeer& peer, std::string_view key) {
  auto reply = do_rpc(peer, make_request(BsOp::kGetBlock, key, next_req_id_++));
  if (!reply.ok()) {
    return reply.error();
  }
  Reader r(reply.value().payload);
  auto tomb = r.get_u8();
  if (!tomb) {
    return ErrorCode::kCorrupted;
  }
  std::vector<u8> bytes(reply.value().payload.begin() + 1, reply.value().payload.end());
  bool applied = false;
  auto stored =
      node_.apply_remote(key, bytes, reply.value().seq, (*tomb & 1) != 0, &applied);
  if (!stored.ok()) {
    return stored;
  }
  if (applied) {
    ++stats_.pulled;
  }
  return Unit{};
}

Result<Unit> AntiEntropyScheduler::push_block(const BsPeer& peer, const BlockKeyInfo& info) {
  std::vector<u8> req;
  if (info.tombstone) {
    req = make_request(BsOp::kDelReplica, info.key, next_req_id_++);
    Writer extra;
    extra.put_u64(info.seq);
    req.insert(req.end(), extra.bytes().begin(), extra.bytes().end());
  } else {
    auto value = node_.get(info.key);
    if (!value.ok()) {
      // The block changed (deleted/corrupted) since list(): let the next
      // pass ship whatever it settled into.
      return Unit{};
    }
    req = make_request(BsOp::kPutReplica, info.key, next_req_id_++);
    Writer extra;
    extra.put_u64(info.seq);
    extra.put_bytes(value.value());
    req.insert(req.end(), extra.bytes().begin(), extra.bytes().end());
  }
  auto reply = do_rpc(peer, req);
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
  std::vector<std::pair<usize, NodeReply>> frontier;
  frontier.emplace_back(0, root.value());
  std::vector<u32> divergent_leaves;
  while (!frontier.empty()) {
    auto [idx, nr] = frontier.back();
    frontier.pop_back();
    for (usize c = 0; c < MerkleTree::kFanout && c < nr.child_count; ++c) {
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
    auto remote = fetch_leaf(peer, bucket);
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
  auto reply = do_rpc(peer, make_request(BsOp::kList, "", next_req_id_++));
  if (!reply.ok()) {
    if (reply.error() == ErrorCode::kOverloaded) {
      ++stats_.yields;
    }
    return reply.error();
  }
  auto remote = decode_inventory(reply.value().payload);
  if (!remote.ok()) {
    return remote.error();
  }
  std::vector<BlockKeyInfo> local = node_.list();
  return diff_entries(local, remote.value(), [&](const BlockKeyInfo* l, const BlockKeyInfo* rr) {
    return reconcile(peer, l, rr);
  });
}

}  // namespace vnros
