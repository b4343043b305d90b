#include "src/app/blockstore.h"

#include <algorithm>
#include <charconv>

#include "src/app/anti_entropy.h"
#include "src/base/contracts.h"
#include "src/base/crc.h"
#include "src/base/log.h"
#include "src/base/serde.h"

namespace vnros {
namespace {

// Block file layout: [u32 crc32c(len'||seq||payload)][u32 len'][u64 seq]
// [payload], where len' is the payload length with bit 31 doubling as the
// tombstone flag (payloads are far below 2 GiB). The length is stored (not
// derived from file size) so truncation is detected as corruption, not
// silently returned short. `seq` is the write sequence stamped when the
// bytes were written (client stamp on coordinated puts, local_seq + 1 on
// direct ones); every replica-apply path refuses bytes older than its local
// copy, so a handoff, hint, or replication push can never regress a key to
// a stale value. A tombstone is a first-class sequenced write with an empty
// payload and the flag set — deletes ride the exact same apply-if-newer
// machinery as puts. The crc covers the flagged length AND the sequence, so
// neither ordering decisions nor live-vs-deleted decisions are ever made on
// torn or rotted metadata (a flipped tombstone bit is corruption, not a
// silent resurrection).
constexpr usize kBlockHeader = 16;
constexpr u32 kTombstoneFlag = 0x8000'0000u;

// One admitted op, in admission-bucket units (millionths of an op).
constexpr u64 kOpCostPpm = 1'000'000;

// Appends `key` to `out` in lowercase hex, the encoding of block and hint
// file names: any key bytes make a valid name ("ab" -> "6162").
void append_hex_key(std::string& out, std::string_view key) {
  constexpr char kHexDigits[] = "0123456789abcdef";
  for (char c : key) {
    out.push_back(kHexDigits[(static_cast<u8>(c) >> 4) & 0xF]);
    out.push_back(kHexDigits[static_cast<u8>(c) & 0xF]);
  }
}

// Decodes a pure-hex name back into the key it encodes; nullopt for names
// that are not hex (".tmp" sidecars, foreign files).
std::optional<std::string> decode_hex_key(std::string_view name) {
  if (name.size() % 2 != 0) {
    return std::nullopt;
  }
  auto nib = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  std::string key;
  for (usize i = 0; i < name.size(); i += 2) {
    int hi = nib(name[i]);
    int lo = nib(name[i + 1]);
    if (hi < 0 || lo < 0) {
      return std::nullopt;
    }
    key.push_back(static_cast<char>((hi << 4) | lo));
  }
  return key;
}

// A parked hint's name in /hints: "<owner>_<hexkey>", the owner in decimal.
std::string hint_name(BsNodeId owner, std::string_view key) {
  std::string name = std::to_string(owner) + "_";
  append_hex_key(name, key);
  return name;
}

// The (owner, key) a hint's name encodes.
struct HintName {
  BsNodeId owner = 0;
  std::string key;
};

// hint_name's inverse: nullopt for every name hint_name does not write
// (foreign files, a non-decimal owner, a key that is not hex).
std::optional<HintName> parse_hint_name(std::string_view name) {
  const usize us = name.find('_');
  if (us == std::string_view::npos) {
    return std::nullopt;
  }
  // The round trip through hint_name refuses what from_chars lets by: a
  // leading zero, junk after the digits, an owner that does not fit.
  BsNodeId owner = 0;
  (void)std::from_chars(name.data(), name.data() + us, owner);
  auto key = decode_hex_key(name.substr(us + 1));
  if (!key || hint_name(owner, *key) != name) {
    return std::nullopt;
  }
  return HintName{owner, std::move(*key)};
}

// Calls fn(key) for every block in /blocks, in name order, skipping the
// names that are not pure hex (".tmp" sidecars, foreign files). Each caller
// decides what to read. Fails with the readdir's error when /blocks cannot
// be listed.
template <typename Fn>
Result<Unit> for_each_block_key(Sys& sys, Fn&& fn) {
  auto names = sys.readdir("/blocks");
  if (!names.ok()) {
    return names.error();
  }
  for (const auto& name : names.value()) {
    if (auto key = decode_hex_key(name)) {
      fn(*key);
    }
  }
  return Unit{};
}

// Sends per read-repair fetch, and pump polls awaiting each reply.
constexpr PeerRetry kRepairRetry{.attempts = 4, .window = 64};

// Reads and checksum-verifies one block-format file
// ([crc][len'][seq][payload]); kCorrupted on any framing or checksum
// mismatch. The one reader of block files and hints (hints use the same
// layout).
Result<DecodedBlock> read_block_file(Sys& sys, const std::string& path) {
  auto fd = sys.open(path, 0);
  if (!fd.ok()) {
    return fd.error();
  }
  auto st = sys.fstat(fd.value());
  if (!st.ok()) {
    (void)sys.close(fd.value());
    return st.error();
  }
  auto raw = sys.read(fd.value(), st.value().size);
  (void)sys.close(fd.value());
  if (!raw.ok()) {
    return raw.error();
  }
  Reader r(raw.value());
  auto crc = r.get_u32();
  auto flagged = r.get_u32();
  auto seq = r.get_u64();
  if (!crc || !flagged || !seq) {
    return ErrorCode::kCorrupted;
  }
  const u32 len = *flagged & ~kTombstoneFlag;
  const bool tombstone = (*flagged & kTombstoneFlag) != 0;
  if (raw.value().size() != kBlockHeader + len || (tombstone && len != 0)) {
    return ErrorCode::kCorrupted;
  }
  // The crc covers [len'][seq][payload]: a torn sequence OR a flipped
  // tombstone bit is corruption — deletion state is never read off
  // unverified metadata.
  std::span<const u8> covered(raw.value().data() + 4, 12 + len);
  if (crc32c(covered) != *crc) {
    return ErrorCode::kCorrupted;  // never return bytes that fail the checksum
  }
  std::span<const u8> payload(raw.value().data() + kBlockHeader, len);
  return DecodedBlock{*seq, tombstone, std::vector<u8>(payload.begin(), payload.end())};
}

// Writes `block` as one block-format file at `path`, the one writer of
// block files and hints: opened with create and trunc, written whole, closed.
// A failed or short write unlinks the file (best effort: a stale file is
// inert). No fsync: put_local syncs after its rename, and hints stay
// unsynced. A tombstone is written with no payload.
Result<Unit> write_block_file(Sys& sys, const std::string& path, BlockRef block) {
  auto fd = sys.open(path, kOpenCreate | kOpenTrunc);
  if (!fd.ok()) {
    return fd.error();
  }
  const std::span<const u8> payload = block.tombstone ? std::span<const u8>{} : block.bytes;
  Writer head;
  head.put_u32(block.tombstone ? kTombstoneFlag : static_cast<u32>(payload.size()));
  head.put_u64(block.seq);
  Writer w;
  w.put_u32(crc32c(payload, crc32c(head.bytes())));  // covers [len'][seq][payload]
  w.put_raw(head.bytes());
  w.put_raw(payload);
  auto written = sys.write(fd.value(), w.bytes());
  (void)sys.close(fd.value());
  if (!written.ok() || written.value() != w.size()) {
    (void)sys.unlink(path);
    return written.ok() ? ErrorCode::kNoSpace : written.error();
  }
  return Unit{};
}

// The sequenced block a write request carries: kDel and kDelReplica write
// a tombstone, kPut and kPutReplica the request's value.
BlockRef request_block(const BsRequest& req) {
  const auto op = static_cast<BsOp>(req.op);
  return BlockRef{req.seq, op == BsOp::kDel || op == BsOp::kDelReplica, req.value};
}

}  // namespace

std::string BlockStoreNode::key_path(std::string_view key) {
  std::string path = "/blocks/";
  append_hex_key(path, key);
  return path;
}

BlockStoreNode::BlockStoreNode(Sys& sys, Port port, std::vector<BsPeer> peers,
                               std::function<void()> pump, std::string fault_prefix,
                               BsTransport)
    : sys_(sys),
      port_(port),
      pump_(std::move(pump)),
      obs_prefix_(ObsRegistry::global().instance_prefix("bs")),
      c_puts_(ObsRegistry::global().counter(obs_prefix_ + "puts")),
      c_gets_(ObsRegistry::global().counter(obs_prefix_ + "gets")),
      c_dels_(ObsRegistry::global().counter(obs_prefix_ + "dels")),
      c_corrupt_reads_(ObsRegistry::global().counter(obs_prefix_ + "corrupt_reads")),
      c_replicas_pushed_(ObsRegistry::global().counter(obs_prefix_ + "replicas_pushed")),
      c_replicas_applied_(ObsRegistry::global().counter(obs_prefix_ + "replicas_applied")),
      c_read_repairs_(ObsRegistry::global().counter(obs_prefix_ + "read_repairs")),
      c_failed_repairs_(ObsRegistry::global().counter(obs_prefix_ + "failed_repairs")),
      c_sheds_(ObsRegistry::global().counter(obs_prefix_ + "sheds")),
      c_hints_written_(ObsRegistry::global().counter(obs_prefix_ + "hints_written")),
      c_hints_delivered_(ObsRegistry::global().counter(obs_prefix_ + "hints_delivered")),
      c_hints_dropped_(ObsRegistry::global().counter(obs_prefix_ + "hints_dropped")),
      c_handoffs_(ObsRegistry::global().counter(obs_prefix_ + "handoffs")),
      c_stale_ignored_(ObsRegistry::global().counter(obs_prefix_ + "stale_ignored")),
      c_tombstones_written_(ObsRegistry::global().counter(obs_prefix_ + "tombstones_written")),
      c_tombstones_gced_(ObsRegistry::global().counter(obs_prefix_ + "tombstones_gced")),
      h_serve_busy_(ObsRegistry::global().histogram(obs_prefix_ + "serve_busy")),
      span_serve_(ObsRegistry::global().tracer().intern_site("bs/serve")) {
  // Replication follows the configured view only, so a node handed peers
  // here would silently replicate to no one.
  VNROS_CHECK(peers.empty());
  if (!fault_prefix.empty()) {
    delay_site_ = &FaultRegistry::global().site(fault_prefix + "/serve_delay");
  }
}

Result<Unit> BlockStoreNode::init() {
  auto md = sys_.mkdir("/blocks");
  if (!md.ok() && md.error() != ErrorCode::kAlreadyExists) {
    return md.error();
  }
  auto hints = sys_.mkdir("/hints");
  if (!hints.ok() && hints.error() != ErrorCode::kAlreadyExists) {
    return hints.error();
  }
  auto sock = sys_.udp_socket();
  if (!sock.ok()) {
    return sock.error();
  }
  sock_ = sock.value();
  auto bound = sys_.udp_bind(sock_, port_);
  if (!bound.ok()) {
    return bound.error();
  }
  if (vtp_listener_ == kInvalidFd) {
    // Clients connect over VTP on the same port number as the peer datagram
    // socket (different protocol, no clash). Eager, so clients can connect
    // before the first serve_once arms the accept SQE.
    auto l = sys_.vtp_listen(port_, kVtpBacklog);
    if (!l.ok()) {
      return l.error();
    }
    vtp_listener_ = l.value();
  }
  return Unit{};
}

Result<Unit> BlockStoreNode::put_local(std::string_view key, BlockRef block) {
  // Write-temp-then-rename: the new bytes go to a sidecar file and replace
  // the block in one atomic (journaled) rename, so a fault anywhere mid-put
  // leaves the previously acknowledged value intact. The ".tmp" suffix can
  // never collide with a block: keys encode to pure hex and the block walk
  // skips non-hex names.
  const std::string path = key_path(key);
  const std::string tmp = path + ".tmp";
  if (auto written = write_block_file(sys_, tmp, block); !written.ok()) {
    return written;
  }
  auto renamed = sys_.rename(tmp, path);
  if (!renamed.ok()) {
    (void)sys_.unlink(tmp);
    return renamed.error();
  }
  // Durability before acknowledgement: the put (or sequenced delete) is only
  // acked after fsync, so an acked op survives any later crash
  // (app/crash_recovery + app/tombstone_no_resurrection VCs).
  auto synced = sys_.fsync();
  if (synced.ok() && block.tombstone) {
    c_tombstones_written_.inc();
  }
  return synced;
}

Result<Unit> BlockStoreNode::put(std::string_view key, std::span<const u8> value) {
  // Direct (unstamped) puts order after whatever this node already holds.
  return coordinate(key, BlockRef{local_seq(key) + 1, false, value});
}

Result<Unit> BlockStoreNode::del(std::string_view key) {
  // Direct (unstamped) deletes order after whatever this node already holds.
  return coordinate(key, BlockRef{local_seq(key) + 1, true, {}});
}

Result<Unit> BlockStoreNode::coordinate(std::string_view key, BlockRef block) {
  // A delete is a first-class sequenced write of a tombstone: apply-if-newer
  // like a put, fsynced before the ack, replicated with acked pushes and
  // hints. "Ensure absent" semantics (like S3 DELETE) are preserved —
  // deleting a missing key persists a tombstone and succeeds — and the
  // client's at-least-once retries stay idempotent (same stamp, same
  // outcome). A lagging replica pushing the old value later is refused as
  // stale by the tombstone's sequence: no resurrection.
  bool applied = false;
  auto r = apply_remote(key, block, &applied);
  if (!r.ok()) {
    return r;
  }
  (block.tombstone ? c_dels_ : c_puts_).inc();
  if (applied) {
    replicate(key, block);  // a superseded write has nothing to replicate
  }
  return Unit{};
}

Result<Unit> BlockStoreNode::apply_remote(std::string_view key, BlockRef block, bool* applied) {
  auto local = read_block_file(sys_, key_path(key));
  if (!local.ok() && local.error() != ErrorCode::kNotFound &&
      local.error() != ErrorCode::kCorrupted) {
    // Ordering needs the local copy's sequence; a faulting read (as opposed
    // to clean absence or detected corruption) must surface, not guess.
    return local.error();
  }
  if (local.ok() && local.value().seq > block.seq) {
    // The local intact copy is strictly newer: refusing the write is the
    // success path (the caller's bytes are durably superseded here).
    c_stale_ignored_.inc();
    if (applied != nullptr) {
      *applied = false;
    }
    return Unit{};
  }
  auto r = put_local(key, block);
  if (applied != nullptr) {
    *applied = r.ok();
  }
  return r;
}

u64 BlockStoreNode::local_seq(std::string_view key) const {
  auto r = read_block_file(sys_, key_path(key));
  return r.ok() ? r.value().seq : 0;
}

Result<std::vector<u8>> BlockStoreNode::get(std::string_view key) const {
  auto r = read_block_file(sys_, key_path(key));
  if (!r.ok() && r.error() != ErrorCode::kCorrupted) {
    return r.error();  // missing / io error: nothing was decoded
  }
  c_gets_.inc();
  if (!r.ok()) {
    c_corrupt_reads_.inc();
    return ErrorCode::kCorrupted;
  }
  if (r.value().tombstone) {
    return ErrorCode::kNotFound;  // a sequenced delete reads as clean absence
  }
  return std::move(r.value().bytes);
}

Result<DecodedBlock> decode_block_reply(BsReply reply) {
  auto block = bs_payload<BsOp::kGetBlock>(reply.value);
  if (!block.ok()) {
    return block.error();
  }
  BlockPayload& b = block.value();
  if (b.tombstone && !b.bytes.bytes.empty()) {
    return ErrorCode::kCorrupted;
  }
  return DecodedBlock{reply.seq, b.tombstone, std::move(b.bytes.bytes)};
}

Result<BsReply> BlockStoreNode::call_peer(const BsPeer& peer, BsOp op, BsRequest req,
                                          PeerRetry retry, PeerTraffic* traffic) {
  if (pump_ == nullptr) {
    return ErrorCode::kUnsupported;  // cannot await a reply without a world pump
  }
  if (repair_sock_ == kInvalidFd) {
    auto sock = sys_.udp_socket();
    if (!sock.ok()) {
      return sock.error();
    }
    repair_sock_ = sock.value();
  }
  req.op = static_cast<u8>(op);
  req.req_id = next_repair_req_id_++;
  const std::vector<u8> request = bs_request_bytes(req);
  const bool push = (bs_op_info(op)->flags & kBsPush) != 0;
  ErrorCode last = ErrorCode::kTimedOut;
  for (usize attempt = 0; attempt < retry.attempts; ++attempt) {
    auto sent = sys_.udp_sendto(repair_sock_, peer.addr, peer.port, request);
    if (!sent.ok()) {
      last = sent.error();
      continue;
    }
    if (traffic != nullptr) {
      traffic->sent += request.size();
    }
    // Every push datagram put on the wire counts as pushed; the receiver
    // counts at most one apply per datagram, so applied <= pushed (the chaos
    // obs-coherence check) holds by construction.
    if (push) {
      c_replicas_pushed_.inc();
    }
    auto reply = await_repair_reply(req.req_id, retry.window);
    if (!reply.ok()) {
      continue;  // silence inside the window (or the repair ring is gone): re-send
    }
    if (traffic != nullptr) {
      traffic->received += reply.value().size();
    }
    auto frame = bs_reply(reply.value());
    if (!frame) {
      return ErrorCode::kCorrupted;
    }
    if (static_cast<ErrorCode>(frame->err) != ErrorCode::kOk) {
      return static_cast<ErrorCode>(frame->err);
    }
    // The write sequence (kGet and kGetBlock) lets a fetched block be
    // re-persisted at its true place in the write order.
    return BsReply{std::move(frame->payload), frame->seq};
  }
  return last;
}

Result<std::vector<u8>> BlockStoreNode::await_repair_reply(u64 req_id, usize polls) {
  awaiting_.push_back(req_id);
  auto reply = poll_repair_reply(req_id, polls);
  awaiting_.pop_back();
  stashed_replies_.erase(req_id);  // only an error return can leave it there
  return reply;
}

Result<std::vector<u8>> BlockStoreNode::poll_repair_reply(u64 req_id, usize polls) {
  VNROS_CHECK(repair_sock_ != kInvalidFd);
  for (usize poll = 0; poll < polls; ++poll) {
    if (repair_ring_ == 0) {
      auto r = sys_.ring_setup(4, 8);
      if (!r.ok()) {
        return r.error();
      }
      repair_ring_ = r.value();
      repair_recv_armed_ = false;
    }
    if (!repair_recv_armed_) {
      // One parked recv at a time: the kernel holds the SQE until a
      // datagram lands, so waiting costs no syscalls beyond the reap below.
      RingSqe sqe = ring_sqe<SysNr::kUdpRecvFrom>(req_id, repair_sock_);
      auto acc = sys_.ring_submit(repair_ring_, std::span<const RingSqe>(&sqe, 1));
      if (!acc.ok()) {
        if (acc.error() == ErrorCode::kNotFound) {
          repair_ring_ = 0;  // ring torn down (process state rebuilt): retry
          continue;
        }
        return acc.error();
      }
      if (acc.value() != 1) {
        return ErrorCode::kWouldBlock;
      }
      repair_recv_armed_ = true;
    }
    if (pump_) {
      pump_();
    }
    auto cqes = sys_.ring_wait(repair_ring_, 0, 4);
    if (!cqes.ok()) {
      return cqes.error();
    }
    for (const RingCqe& cqe : cqes.value()) {
      repair_recv_armed_ = false;  // every CQE consumes the parked recv
      auto dg = sys_reply<SysNr::kUdpRecvFrom>(cqe);
      if (!dg.ok()) {
        continue;
      }
      std::vector<u8>& payload = dg.value().payload;
      Reader r(payload);
      auto rid = wire_get<u64>(r);  // every reply leads with its req_id
      if (rid && *rid == req_id) {
        return std::move(payload);
      }
      if (rid && std::find(awaiting_.begin(), awaiting_.end(), *rid) != awaiting_.end()) {
        // An outer wait's reply, reaped by this nested one: keep it for its
        // owner, which would otherwise time out and re-send.
        stashed_replies_[*rid] = std::move(payload);
      }
      // Anything else is a stale reply from an earlier timed-out RPC.
    }
    // A wait nested in the pump may have reaped this wait's reply.
    if (auto it = stashed_replies_.find(req_id); it != stashed_replies_.end()) {
      return std::move(it->second);
    }
  }
  return ErrorCode::kTimedOut;
}

Result<std::vector<u8>> BlockStoreNode::get_or_repair(std::string_view key) {
  auto r = get_or_repair_block(key);
  if (!r.ok()) {
    return r.error();
  }
  return std::move(r.value().bytes);
}

Result<DecodedBlock> BlockStoreNode::get_or_repair_block(std::string_view key) {
  auto local = read_block_file(sys_, key_path(key));
  if (local.ok()) {
    c_gets_.inc();
    if (local.value().tombstone) {
      return ErrorCode::kNotFound;  // deleted: absence is the correct answer
    }
    return local;
  }
  if (local.error() != ErrorCode::kCorrupted) {
    return local.error();
  }
  c_gets_.inc();
  c_corrupt_reads_.inc();
  // Local copy failed its checksum. Without other owners (or while already
  // inside a repair — pump() can recurse into serve_once) the error stands;
  // otherwise pull the raw block from a replica, re-persist it, and serve
  // the cure: the bytes, or kNotFound for a tombstone.
  std::vector<BsPeer> repair_from = repair_peers(key);
  if (in_repair_ || repair_from.empty()) {
    return ErrorCode::kCorrupted;
  }
  in_repair_ = true;
  Result<DecodedBlock> repaired = ErrorCode::kCorrupted;
  for (const auto& peer : repair_from) {
    auto reply = call_peer(peer, BsOp::kGetBlock, {.key = key}, kRepairRetry);
    if (reply.ok()) {
      repaired = decode_block_reply(std::move(reply.value()));
      if (repaired.ok()) {
        break;
      }
    }
  }
  in_repair_ = false;
  if (!repaired.ok()) {
    c_failed_repairs_.inc();
    return ErrorCode::kCorrupted;  // every peer failed: the honest answer stands
  }
  // Re-persist at the peer's sequence: the cure restores the block's true
  // place in the write order instead of minting a new one.
  const DecodedBlock& block = repaired.value();
  if (put_local(key, block.ref()).ok()) {
    c_read_repairs_.inc();
    VNROS_LOG_DEBUG("blockstore", "read-repaired %zu-byte block from peer",
                    block.bytes.size());
  }
  // Even if re-persisting failed (e.g. injected disk fault) the fetched
  // block passed the peer's checksum; serve it.
  if (block.tombstone) {
    return ErrorCode::kNotFound;
  }
  return repaired;
}

std::vector<BlockKeyInfo> BlockStoreNode::list() const {
  std::vector<BlockKeyInfo> out;
  (void)for_each_block_key(sys_, [&](const std::string& key) {
    auto block = read_block_file(sys_, key_path(key));
    if (block.ok()) {  // a corrupt one is invisible to sync, so a peer's copy wins
      out.push_back(BlockKeyInfo{key, crc32c(block.value().bytes), block.value().seq,
                                 block.value().tombstone});
    }
  });
  std::sort(out.begin(), out.end(),
            [](const BlockKeyInfo& a, const BlockKeyInfo& b) { return a.key < b.key; });
  return out;
}

std::map<std::string, std::vector<u8>> BlockStoreNode::view() const {
  std::map<std::string, std::vector<u8>> out;
  // get() maps tombstones to kNotFound, so deleted keys are naturally absent
  // from the view.
  (void)for_each_block_key(sys_, [&](const std::string& key) {
    if (auto value = get(key); value.ok()) {
      out[key] = std::move(value.value());
    }
  });
  return out;
}

void BlockStoreNode::configure_cluster(const ClusterConfig& cfg, const ClusterView& view) {
  cluster_ = cfg;
  view_ = view;
}

void BlockStoreNode::set_cluster_view(const ClusterView& view) { view_ = view; }

void BlockStoreNode::grant_tokens(u64 ops_ppm) {
  tokens_ppm_ = std::min(tokens_ppm_ + ops_ppm, admission_.burst_ops * kOpCostPpm);
}

bool BlockStoreNode::admit_op() {
  if (!admission_.enabled) {
    return true;
  }
  if (tokens_ppm_ < kOpCostPpm) {
    c_sheds_.inc();
    return false;
  }
  tokens_ppm_ -= kOpCostPpm;
  return true;
}

std::vector<BsPeer> BlockStoreNode::repair_peers(std::string_view key) const {
  std::vector<BsPeer> out;
  for (BsNodeId id : view_.owners(key)) {
    if (id == cluster_.self) {
      continue;
    }
    auto it = view_.directory.find(id);
    if (it != view_.directory.end()) {
      out.push_back(it->second);
    }
  }
  return out;
}

Result<Unit> BlockStoreNode::push_acked(const BsPeer& peer, BsOp op, const BsRequest& req) {
  // The ack deadline splits into two send windows: one re-send at the half
  // mark cures a dropped datagram (either direction) without a spin knob.
  const PeerRetry retry{.attempts = 2,
                        .window = kAckDeadlinePolls / 2};
  auto reply = call_peer(peer, op, req, retry);
  if (!reply.ok()) {
    return reply.error();
  }
  return Unit{};
}

void BlockStoreNode::drop_stale_hints(std::string_view key, u64 seq) {
  // The tombstone-GC barrier: once this node acks a tombstone at `seq`, no
  // parked hint at or below `seq` for the key may survive here — otherwise
  // GC could reclaim the tombstone everywhere and a later hint delivery
  // would resurrect the deleted value.
  auto names = sys_.readdir("/hints");
  if (!names.ok()) {
    return;
  }
  for (const auto& name : names.value()) {
    auto hint = parse_hint_name(name);
    if (!hint || hint->key != key) {
      continue;
    }
    std::string path = "/hints/" + name;
    auto block = read_block_file(sys_, path);
    if (!block.ok() || block.value().seq <= seq) {
      (void)sys_.unlink(path);
    }
  }
}

bool BlockStoreNode::reserve_hint_slot(BsNodeId owner, std::string_view key, u64 seq) {
  // Bound the parked-hint queue per unreachable peer: past the cap, evict
  // the lowest-sequence (oldest) hint — or refuse the incoming one when IT
  // is the oldest. Either way the drop is counted; anti-entropy is the
  // backstop that eventually carries what the dropped hint would have.
  auto names = sys_.readdir("/hints");
  if (!names.ok()) {
    return true;  // can't enumerate: fail open, the write may still succeed
  }
  usize count = 0;
  u64 min_seq = ~u64{0};
  std::string min_path;
  for (const auto& name : names.value()) {
    auto hint = parse_hint_name(name);
    if (!hint || hint->owner != owner) {
      continue;
    }
    if (hint->key == key) {
      return true;  // overwriting this (owner, key)'s own slot: no growth
    }
    std::string path = "/hints/" + name;
    auto block = read_block_file(sys_, path);
    if (!block.ok()) {
      (void)sys_.unlink(path);  // corrupt hint: free the slot
      continue;
    }
    ++count;
    if (block.value().seq < min_seq) {
      min_seq = block.value().seq;
      min_path = path;
    }
  }
  if (count < kMaxHintsPerPeer) {
    return true;
  }
  c_hints_dropped_.inc();
  if (min_seq <= seq && !min_path.empty()) {
    (void)sys_.unlink(min_path);  // evict the oldest parked hint
    return true;
  }
  return false;  // the incoming hint is the oldest: drop it instead
}

Result<Unit> BlockStoreNode::write_hint(BsNodeId owner, std::string_view key, BlockRef block) {
  // Hints live beside blocks in block format (the write sequence — and the
  // tombstone flag for sequenced deletes — rides along so delivery keeps its
  // ordering). No fsync: a hint is an availability optimization, not the
  // durability story — the coordinator keeps its own fsynced copy, and
  // anti-entropy remains the backstop if a crash eats parked hints.
  if (!reserve_hint_slot(owner, key, block.seq)) {
    return Unit{};  // per-peer cap: this hint was dropped (counted)
  }
  auto written = write_block_file(sys_, "/hints/" + hint_name(owner, key), block);
  if (written.ok()) {
    c_hints_written_.inc();
  }
  return written;
}

BlockStoreNode::Handoff BlockStoreNode::hand_off(BsNodeId owner, std::string_view key,
                                                 BlockRef block, bool park) {
  auto it = view_.directory.find(owner);
  if (it == view_.directory.end()) {
    return Handoff::kFailed;
  }
  // The push carries the block's sequence, so the owner applies it
  // if-newer: a value, a tombstone or a hint that is already stale there
  // is refused but still acked.
  if (push_acked(it->second, replica_op(block.tombstone),
                 {.key = key, .seq = block.seq, .value = block.bytes})
          .ok()) {
    return Handoff::kAcked;
  }
  // Owner unreachable (partition/crash/overload): park the handoff.
  if (park && write_hint(owner, key, block).ok()) {
    return Handoff::kHinted;
  }
  return Handoff::kFailed;
}

void BlockStoreNode::replicate(std::string_view key, BlockRef block) {
  // Values and tombstones replicate alike: an acked push to every other
  // owner, a parked hint for whoever is unreachable. Stale parked hints for
  // the key need no special handling — delivery is apply-if-newer, and a
  // newer write's sequence outranks them.
  for (BsNodeId owner : view_.owners(key)) {
    if (owner != cluster_.self) {
      (void)hand_off(owner, key, block, /*park=*/true);
    }
  }
}

Result<RebalanceStats> BlockStoreNode::rebalance(const ClusterView& next) {
  ClusterView old = view_;
  view_ = next;
  auto had = [](const std::vector<BsNodeId>& owners, BsNodeId id) {
    return std::find(owners.begin(), owners.end(), id) != owners.end();
  };
  RebalanceStats st;
  auto walked = for_each_block_key(sys_, [&](const std::string& key) {
    auto block = read_block_file(sys_, key_path(key));
    if (!block.ok()) {
      return;  // corrupt local copy: read-repair's problem, not rebalance's
    }
    ++st.scanned;
    std::vector<BsNodeId> new_owners = view_.owners(key);
    std::vector<BsNodeId> old_owners = old.owners(key);
    bool self_owner = had(new_owners, cluster_.self);
    // Owners gained by the view change lack the shard; everyone else already
    // got it on the write path (or will via hints/anti-entropy).
    std::vector<BsNodeId> targets;
    for (BsNodeId id : new_owners) {
      if (id != cluster_.self && !had(old_owners, id)) {
        targets.push_back(id);
      }
    }
    // Losing ownership with no newly-joined owner still requires proof of
    // placement before dropping: confirm with the primary. The push carries
    // our copy's sequence, so a primary holding something newer refuses the
    // bytes but still acks — either way its ack certifies "I durably hold
    // this key at a sequence >= yours", which is what makes dropping safe.
    if (!self_owner && targets.empty() && !new_owners.empty()) {
      targets.push_back(new_owners[0]);
    }
    // Tombstones migrate too: a new owner that never learns of the delete
    // would serve kNotFound now but could resurrect the key from a stale
    // peer later. The sequenced kDelReplica carries the delete's position
    // in the write order, exactly like a value push carries its own.
    usize acks = 0;
    for (BsNodeId id : targets) {
      const Handoff handoff = hand_off(id, key, block.value().ref(), /*park=*/true);
      if (handoff == Handoff::kAcked) {
        ++acks;
        ++st.moved;
        c_handoffs_.inc();
      } else if (handoff == Handoff::kHinted) {
        ++st.hinted;
      }
    }
    if (!self_owner) {
      if (acks > 0) {
        // The shard provably lives on a current owner; release our copy.
        (void)sys_.unlink(key_path(key));
        ++st.dropped;
      } else {
        // No owner acked: keep the bytes and flag it — a graceful leave
        // must abort rather than walk away with the only copy.
        ++st.failed;
      }
    }
  });
  if (!walked.ok()) {
    return walked.error();
  }
  auto synced = sys_.fsync();
  if (!synced.ok()) {
    return synced.error();
  }
  return st;
}

u64 BlockStoreNode::gc_tombstones(usize max_batch) {
  // Bounded, acknowledgement-gated tombstone reclamation. A tombstone may
  // only be unlinked once EVERY directory member has (a) durably applied a
  // write at or above its sequence and (b) discarded any parked hint that
  // could re-introduce an older value — both certified by the kDelReplica
  // ack (see serve_once). Members then drop their own copy on the explicit
  // kTombstoneGc; one that misses it just keeps an inert tombstone until a
  // later pass. In-flight writes older than the tombstone are excluded by
  // the caller running GC at quiesce (the deployment analog of a gc_grace
  // period); DESIGN §11 spells out the argument.
  u64 gced = 0;
  for (const auto& e : list()) {
    if (!e.tombstone) {
      continue;
    }
    if (gced >= max_batch) {
      break;
    }
    // Our own parked hints at or below the tombstone are superseded; drop
    // them first so self-delivery can never race the reclamation.
    drop_stale_hints(e.key, e.seq);
    bool all_acked = true;
    for (const auto& [id, peer] : view_.directory) {
      if (id == cluster_.self) {
        continue;
      }
      if (!push_acked(peer, BsOp::kDelReplica, {.key = e.key, .seq = e.seq}).ok()) {
        all_acked = false;
        break;
      }
    }
    if (!all_acked) {
      continue;  // someone unreachable: the tombstone must outlive them
    }
    for (const auto& [id, peer] : view_.directory) {
      if (id == cluster_.self) {
        continue;
      }
      // Best effort: a lost GC message leaves a harmless tombstone that a
      // later pass (or Merkle repair + next GC) reclaims.
      (void)push_acked(peer, BsOp::kTombstoneGc, {.key = e.key, .seq = e.seq});
    }
    if (sys_.unlink(key_path(e.key)).ok()) {
      c_tombstones_gced_.inc();
      ++gced;
    }
  }
  if (gced > 0) {
    (void)sys_.fsync();
  }
  return gced;
}

u64 BlockStoreNode::deliver_hints() {
  auto names = sys_.readdir("/hints");
  if (!names.ok()) {
    return 0;
  }
  u64 delivered = 0;
  for (const auto& name : names.value()) {
    auto hint = parse_hint_name(name);
    if (!hint) {
      continue;
    }
    std::string path = "/hints/" + name;
    if (!view_.ring.contains(hint->owner) || !view_.directory.contains(hint->owner)) {
      (void)sys_.unlink(path);  // owner left the cluster: the hint is stale
      continue;
    }
    auto block = read_block_file(sys_, path);
    if (!block.ok()) {
      (void)sys_.unlink(path);  // torn/corrupt hint (no fsync): drop it
      continue;
    }
    bool applied = false;
    if (hint->owner == cluster_.self) {
      // A view change made us the owner: apply locally (if-newer — our own
      // copy may already have overtaken the parked bytes).
      if (!apply_remote(hint->key, block.value().ref(), &applied).ok()) {
        continue;  // disk fault: retry on a later pass
      }
    } else {
      // The hint rides with its original write sequence, so delivery cannot
      // regress a newer value: the owner applies if-newer and acks either
      // way (a stale refusal still certifies the owner durably holds the
      // key). No ack (unreachable, shedding, no pump) keeps the hint parked
      // for a later pass.
      applied = hand_off(hint->owner, hint->key, block.value().ref(), /*park=*/false) ==
                Handoff::kAcked;
      if (!applied) {
        continue;
      }
    }
    (void)sys_.unlink(path);
    if (applied) {
      c_hints_delivered_.inc();
      ++delivered;
    }
  }
  return delivered;
}

bool BlockStoreNode::ensure_serve_ring() {
  if (serve_ring_ == 0) {
    // Parked SQEs hold their submission slot until they complete, and the
    // stream plane parks one recv per live connection — so the SQ must be
    // sized for the connection fan-in, not the datagram worker complement.
    auto r = sys_.ring_setup(/*sq_slots=*/4096, /*cq_slots=*/256);
    if (!r.ok()) {
      return false;
    }
    serve_ring_ = r.value();
    serve_recvs_ = 0;
  }
  // Keep the worker complement parked: each recv SQE is one serve worker
  // waiting in the kernel for a request datagram. One batched submit — every
  // ring_submit runs a reactor pass over all parked SQEs, which the stream
  // plane can grow to thousands.
  if (serve_recvs_ < kServeWorkers) {
    std::vector<RingSqe> batch;
    for (usize w = serve_recvs_; w < kServeWorkers; ++w) {
      batch.push_back(ring_sqe<SysNr::kUdpRecvFrom>(w, sock_));
    }
    auto acc = sys_.ring_submit(serve_ring_, batch);
    if (acc.ok()) {
      serve_recvs_ += acc.value();
    }
  }
  return serve_recvs_ > 0;
}

bool BlockStoreNode::serve_once() {
  VNROS_CHECK(sock_ != kInvalidFd);
  // Latency injection: a fired "<prefix>/serve_delay" fault stalls this node
  // for `delay` serve calls. Datagrams stay queued (or parked as completed
  // CQEs) — a slow peer, not a dead one.
  if (stall_polls_ > 0) {
    --stall_polls_;
    return false;
  }
  if (delay_site_ != nullptr) {
    if (auto d = delay_site_->fire_delay()) {
      stall_polls_ = *d - 1;
      return false;
    }
  }
  if (!ensure_serve_ring()) {
    return false;
  }
  auto cqes = sys_.ring_wait(serve_ring_, 0, static_cast<u32>(2 * kServeWorkers + 8));
  if (!cqes.ok()) {
    if (cqes.error() == ErrorCode::kNotFound) {
      serve_ring_ = 0;  // ring torn down (process state rebuilt): recreate
      serve_recvs_ = 0;
      // Parked VTP SQEs died with the ring; stream fds did too, so drop the
      // connection table and let clients reconnect against a fresh listener.
      accept_armed_ = false;
      vtp_listener_ = kInvalidFd;
      vtp_conns_.clear();
    }
    return false;
  }
  usize served = 0;
  for (RingCqe& cqe : cqes.value()) {
    if ((cqe.user_data & kAcceptTag) != 0) {
      // The parked VTP accept resolved: adopt the connection and let the
      // re-arm pass below park a recv SQE on it (plus a fresh accept).
      accept_armed_ = false;
      if (auto fd = sys_reply<SysNr::kVtpAccept>(cqe); fd.ok()) {
        vtp_conns_[next_vtp_slot_++].fd = fd.value();
      }
      continue;
    }
    if ((cqe.user_data & kVtpConnTag) != 0) {
      u64 slot = cqe.user_data & ~kVtpConnTag;
      auto it = vtp_conns_.find(slot);
      if (it == vtp_conns_.end()) {
        continue;  // connection already torn down; drop the stale CQE
      }
      it->second.recv_armed = false;
      auto bytes = sys_reply<SysNr::kVtpRecv>(cqe);
      if (!bytes.ok()) {
        // kPipeClosed (client FIN drained) or a typed terminal error: the
        // stream is done — release our end.
        close_vtp_conn(slot);
        continue;
      }
      served += on_vtp_bytes(slot, bytes.value());
      continue;
    }
    if (serve_recvs_ > 0) {
      --serve_recvs_;  // this worker's recv completed; re-armed below
    }
    auto dg = sys_reply<SysNr::kUdpRecvFrom>(cqe);
    if (!dg.ok()) {
      continue;  // e.g. socket rebound mid-flight; the pool re-arms below
    }
    process_request(dg.value().src_addr, dg.value().src_port, dg.value().payload);
    ++served;
  }
  if (served > 0) {
    h_serve_busy_.record(served);  // worker-pool occupancy for this drain
  }
  // Retry reply bytes the stream transport refused earlier (window opened?),
  // then re-arm consumed workers, the accept SQE, and per-conn recvs.
  for (auto it = vtp_conns_.begin(); it != vtp_conns_.end();) {
    if (!it->second.outbuf.empty() && it->second.fd != kInvalidFd) {
      vtp_flush(it->second);
    }
    it = it->second.fd == kInvalidFd ? vtp_conns_.erase(it) : ++it;
  }
  ensure_serve_ring();
  ensure_vtp_serve();
  return served > 0;
}

void BlockStoreNode::process_request(NetAddr src, Port src_port,
                                     std::span<const u8> payload) {
  auto reply = handle_request(BsPlane::kPeer, payload);
  if (!reply) {
    return;
  }
  // Only node-to-node datagrams reach this path, and the serve ring carries a
  // parked recv per client stream — a per-reply ring_submit would pay a
  // reactor pass over all of them. Send directly.
  (void)sys_.udp_sendto(sock_, src, src_port, *reply);
}

void BlockStoreNode::ensure_vtp_serve() {
  if (serve_ring_ == 0) {
    return;
  }
  if (vtp_listener_ == kInvalidFd) {
    auto l = sys_.vtp_listen(port_, kVtpBacklog);
    if (!l.ok()) {
      return;
    }
    vtp_listener_ = l.value();
  }
  // One batched submit for everything that needs (re-)arming. Per-SQE
  // submits would run a reactor pass — O(parked SQEs) — per call, turning a
  // busy serve pass into O(completions × connections); a single batch pays
  // one pass total. Acceptance is a strict prefix, so the armed flags are
  // settled in submission order.
  std::vector<RingSqe> batch;
  if (!accept_armed_) {
    batch.push_back(ring_sqe<SysNr::kVtpAccept>(kAcceptTag, vtp_listener_));
  }
  std::vector<VtpServeConn*> armed_order;
  for (auto& [slot, conn] : vtp_conns_) {
    if (conn.recv_armed || conn.fd == kInvalidFd) {
      continue;
    }
    batch.push_back(ring_sqe<SysNr::kVtpRecv>(kVtpConnTag | slot, conn.fd, kVtpRecvChunk));
    armed_order.push_back(&conn);
  }
  if (batch.empty()) {
    return;
  }
  auto acc = sys_.ring_submit(serve_ring_, batch);
  usize accepted = acc.ok() ? acc.value() : 0;
  usize idx = 0;
  if (!accept_armed_) {
    accept_armed_ = accepted > idx;
    ++idx;
  }
  for (VtpServeConn* conn : armed_order) {
    conn->recv_armed = accepted > idx;
    ++idx;
  }
}

usize BlockStoreNode::on_vtp_bytes(u64 slot, std::span<const u8> bytes) {
  auto it = vtp_conns_.find(slot);
  if (it == vtp_conns_.end()) {
    return 0;
  }
  it->second.in.push(bytes);
  // A request can wait on a peer, and the peer's pump can run this node's
  // serve loop nested: a nested pass that reaps more of this stream only
  // appends, and the outermost pass serves every frame once, in order.
  if (it->second.serving) {
    return 0;
  }
  it->second.serving = true;
  // Each complete frame off the stream is one request, its reply framed
  // back onto the same stream.
  usize served = 0;
  for (;;) {
    // The frame leaves the buffer before it is served, so a nested pass
    // never sees it again.
    StreamFramer& in = it->second.in;
    const std::optional<std::vector<u8>> frame = in.pop();
    if (in.corrupt()) {
      // No client sends a frame this large (start() refuses one); buffering
      // it would let a single stream grow the node's memory without limit.
      close_vtp_conn(slot);
      return served;
    }
    if (!frame) {
      break;  // incomplete frame: wait for more stream bytes
    }
    auto reply = handle_request(BsPlane::kClient, *frame);
    ++served;
    it = vtp_conns_.find(slot);  // a nested pass may have closed the stream
    if (it == vtp_conns_.end()) {
      return served;
    }
    if (reply) {
      StreamFramer::put(it->second.outbuf, *reply);
    }
  }
  VtpServeConn& conn = it->second;
  conn.serving = false;
  vtp_flush(conn);
  if (conn.fd != kInvalidFd && conn.outbuf.size() > kVtpConnBufMax) {
    close_vtp_conn(slot);  // slow consumer: bounded memory beats unbounded queue
  }
  return served;
}

void BlockStoreNode::vtp_flush(VtpServeConn& conn) {
  while (!conn.outbuf.empty() && conn.fd != kInvalidFd) {
    auto n = sys_.vtp_send(conn.fd, conn.outbuf);
    if (!n.ok()) {
      if (n.error() != ErrorCode::kWouldBlock) {
        // Terminal connection error: release the fd; the serve loop reaps
        // the slot on its next pass.
        (void)sys_.vtp_close(conn.fd);
        conn.fd = kInvalidFd;
      }
      return;  // kWouldBlock: send buffer full, retried next drain
    }
    conn.outbuf.erase(conn.outbuf.begin(),
                      conn.outbuf.begin() + static_cast<std::ptrdiff_t>(n.value()));
  }
}

void BlockStoreNode::close_vtp_conn(u64 slot) {
  auto it = vtp_conns_.find(slot);
  if (it == vtp_conns_.end()) {
    return;
  }
  if (it->second.fd != kInvalidFd) {
    (void)sys_.vtp_close(it->second.fd);
  }
  vtp_conns_.erase(it);
}

std::optional<std::vector<u8>> BlockStoreNode::handle_request(BsPlane plane,
                                                              std::span<const u8> payload) {
  SpanScope span(ObsRegistry::global().tracer(), span_serve_);
  Reader r(payload);
  BsRequest req;
  if (!BsHead::get(r, req)) {
    return std::nullopt;  // malformed request: drop (no reply semantics)
  }
  auto refuse = [&](ErrorCode code) {
    return to_wire<BsReplyFrame, BsRefusal>({.req_id = req.req_id, .err = static_cast<u32>(code)});
  };
  // The plane check comes first: a known op on the other plane is refused
  // before admission, so it takes no token and changes nothing. An opcode
  // no row declares gets kInvalidArgument below.
  const std::optional<BsOpInfo> op = bs_op_info(static_cast<BsOp>(req.op));
  if (op && op->plane != plane) {
    return refuse(ErrorCode::kNotPermitted);
  }
  // Admission control: storage ops (not ping/list — the control plane stays
  // responsive) cost one token. An empty bucket sheds the request with a
  // typed kOverloaded so clients back off instead of failing over.
  if (op && (op->flags & kBsAdmit) != 0 && !admit_op()) {
    return refuse(ErrorCode::kOverloaded);
  }
  BsReplyFrame reply{.req_id = req.req_id, .err = static_cast<u32>(ErrorCode::kInvalidArgument)};
  if (op && bs_get_body(r, req)) {
    serve_request(req, reply);
  }
  return to_wire(reply);
}

void BlockStoreNode::serve_request(const BsRequest& req, BsReplyFrame& reply) {
  ErrorCode err = ErrorCode::kInvalidArgument;
  switch (static_cast<BsOp>(req.op)) {
    case BsOp::kPut:
    case BsOp::kDel:
      // Coordinated writes arrive pre-stamped by the client, values and
      // tombstones alike: retries replay the same stamp, so at-least-once
      // delivery stays idempotent.
      err = coordinate(req.key, request_block(req)).error();
      break;
    case BsOp::kPutReplica:
    case BsOp::kDelReplica: {
      const BlockRef block = request_block(req);
      if (block.tombstone) {
        // The GC barrier: before acking a tombstone we discard every parked
        // hint for the key at or below its sequence. The ack therefore
        // certifies BOTH "I durably hold >= seq" and "no stale hint of mine
        // can resurrect this key" — which is what lets the coordinator
        // reclaim the tombstone once every member has acked.
        drop_stale_hints(req.key, req.seq);
      }
      bool applied = false;
      err = apply_remote(req.key, block, &applied).error();
      if (applied) {
        c_replicas_applied_.inc();
      }
      break;
    }
    case BsOp::kGet: {
      auto v = get_or_repair_block(req.key);
      err = v.error();
      if (v.ok()) {
        reply.payload = bs_payload_bytes<BsOp::kGet>(TailBytes{std::move(v.value().bytes)});
        reply.seq = v.value().seq;
      }
      break;
    }
    case BsOp::kGetBlock: {
      // Repair fetch (read-repair and anti-entropy): unlike kGet,
      // tombstones are first-class here — the payload leads with a
      // tombstone byte (BlockPayload) so repair pulls deletes as faithfully
      // as values — and a local copy is never repaired in turn: a corrupt
      // one surfaces as kCorrupted (the puller tries another peer).
      auto block = read_block_file(sys_, key_path(req.key));
      err = block.error();
      if (block.ok()) {
        reply.payload = bs_payload_bytes<BsOp::kGetBlock>(
            {block.value().tombstone, TailBytes{std::move(block.value().bytes)}});
        reply.seq = block.value().seq;
      }
      break;
    }
    case BsOp::kMerkleNode:
      if (req.index < MerkleTree::kNodes) {
        MerkleTree t = MerkleTree::build(list());
        MerkleNodePayload node{.hash = t.hash[req.index]};
        if (!MerkleTree::is_leaf(req.index)) {
          const auto first = t.hash.begin() + req.index * MerkleTree::kFanout + 1;
          node.children.assign(first, first + MerkleTree::kFanout);
        }
        reply.payload = bs_payload_bytes<BsOp::kMerkleNode>(node);
        err = ErrorCode::kOk;
      }
      break;
    case BsOp::kMerkleLeaf:
      if (req.index < MerkleTree::kLeaves) {
        MerkleTree t = MerkleTree::build(list());
        reply.payload = bs_payload_bytes<BsOp::kMerkleLeaf>(t.buckets[req.index]);
        err = ErrorCode::kOk;
      }
      break;
    case BsOp::kTombstoneGc: {
      // "Drop your tombstone for this key if it is no newer than S." Only
      // ever sent after every member acked the tombstone at S, so removal
      // cannot re-open a resurrection window. Idempotent: a missing or
      // newer block is already the desired end state.
      auto block = read_block_file(sys_, key_path(req.key));
      if (block.ok() && block.value().tombstone && block.value().seq <= req.seq) {
        if (sys_.unlink(key_path(req.key)).ok()) {
          c_tombstones_gced_.inc();
        }
      }
      err = ErrorCode::kOk;
      break;
    }
    case BsOp::kPing:
      err = ErrorCode::kOk;
      break;
    case BsOp::kList:
      reply.payload = bs_payload_bytes<BsOp::kList>(list());
      err = ErrorCode::kOk;
      break;
  }
  reply.err = static_cast<u32>(err);
}

}  // namespace vnros
