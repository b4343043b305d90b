#include "src/app/blockstore.h"

#include <algorithm>
#include <map>

#include "src/base/log.h"
#include "src/base/serde.h"

namespace vnros {

namespace {

// One stream read pulls up to this much per poll.
constexpr usize kChanRecvChunk = 32 * 1024;

// Pops one whole [u32 len][body] frame off a stream's reassembly buffer;
// nullopt until the header and the whole body have arrived.
std::optional<std::vector<u8>> pop_frame(std::vector<u8>& inbuf) {
  if (inbuf.size() < 4) {
    return std::nullopt;
  }
  Reader fr(std::span<const u8>(inbuf.data(), 4));
  u32 len = fr.get_u32().value_or(0);
  if (inbuf.size() - 4 < len) {
    return std::nullopt;  // header seen, body still in flight
  }
  std::vector<u8> body(inbuf.begin() + 4, inbuf.begin() + 4 + static_cast<std::ptrdiff_t>(len));
  inbuf.erase(inbuf.begin(), inbuf.begin() + 4 + static_cast<std::ptrdiff_t>(len));
  return body;
}

}  // namespace

BlockStoreClient::BlockStoreClient(Sys& sys, NetAddr server, Port server_port,
                                   std::function<void()> pump, RetryPolicy policy)
    : sys_(sys),
      pump_(std::move(pump)),
      policy_(policy),
      obs_prefix_(ObsRegistry::global().instance_prefix("bsc")),
      c_attempts_(ObsRegistry::global().counter(obs_prefix_ + "attempts")),
      c_retries_(ObsRegistry::global().counter(obs_prefix_ + "retries")),
      c_backoff_polls_(ObsRegistry::global().counter(obs_prefix_ + "backoff_polls")),
      c_failovers_(ObsRegistry::global().counter(obs_prefix_ + "failovers")),
      c_transient_errors_(ObsRegistry::global().counter(obs_prefix_ + "transient_errors")),
      c_send_errors_(ObsRegistry::global().counter(obs_prefix_ + "send_errors")),
      c_overloads_(ObsRegistry::global().counter(obs_prefix_ + "overloads")),
      c_sticky_resumes_(ObsRegistry::global().counter(obs_prefix_ + "sticky_resumes")),
      c_reconnects_(ObsRegistry::global().counter(obs_prefix_ + "reconnects")),
      h_rpc_polls_(ObsRegistry::global().histogram(obs_prefix_ + "rpc_polls")),
      span_rpc_(ObsRegistry::global().tracer().intern_site("bs/rpc")) {
  targets_.push_back(BsPeer{server, server_port});
}

BlockStoreClient::VtpChan* BlockStoreClient::vtp_chan(const BsPeer& peer) {
  const ChanKey key{peer.addr, peer.port};
  auto it = chans_.find(key);
  if (it != chans_.end()) {
    return &it->second;
  }
  // Lazy connect from a kernel-assigned source port: the SYN goes out
  // asynchronously and send() buffers during the handshake, so the first
  // request rides out as soon as the stream establishes — no blocking wait.
  auto fd = sys_.vtp_connect(peer.addr, peer.port, /*src_port=*/0);
  if (!fd.ok()) {
    return nullptr;
  }
  if (dropped_.erase(key) != 0) {
    c_reconnects_.inc();
  }
  VtpChan& ch = chans_[key];
  ch.fd = fd.value();
  return &ch;
}

void BlockStoreClient::drop_vtp_chan(ChanKey key) {
  auto it = chans_.find(key);
  if (it == chans_.end()) {
    return;
  }
  (void)sys_.vtp_close(it->second.fd);
  chans_.erase(it);
  dropped_.insert(key);
}

void BlockStoreClient::add_failover(NetAddr addr, Port port) {
  targets_.push_back(BsPeer{addr, port});
}

bool BlockStoreClient::transient(ErrorCode err) {
  // Errors a later attempt (possibly against another replica) can cure:
  // injected device/memory faults and momentary contention. Semantic
  // outcomes (kNotFound, kCorrupted, kInvalidArgument, ...) pass through.
  return err == ErrorCode::kIoError || err == ErrorCode::kNoMemory ||
         err == ErrorCode::kBusy || err == ErrorCode::kWouldBlock;
}

Result<Unit> BlockStoreClient::start(BsOp op, std::string_view key,
                                     std::span<const u8> value) {
  if (op_.has_value()) {
    return ErrorCode::kBusy;
  }
  Op& o = op_.emplace();
  o.req_id = next_req_id_++;
  Writer w;
  w.put_u8(static_cast<u8>(op));
  w.put_u64(o.req_id);
  w.put_string(key);
  if (op == BsOp::kPut || op == BsOp::kPutReplica) {
    // Write-sequence stamp: servers order replica applies by it (retries of
    // this rpc reuse the same stamp, so at-least-once delivery stays
    // idempotent; a newer put always carries a higher stamp).
    w.put_u64(++put_seq_);
    w.put_bytes(value);
  } else if (op == BsOp::kDel) {
    // Deletes are sequenced writes (tombstones) and share the same stamp
    // counter as puts: a put-then-del (or del-then-put) from this client is
    // totally ordered on every replica it ever reaches.
    w.put_u64(++put_seq_);
  }
  Writer framed;
  framed.put_u32(static_cast<u32>(w.bytes().size()));
  framed.put_raw(w.bytes());
  o.frame = framed.take();

  // Routing. Ring mode (set_cluster + a keyed op): the route is the key's
  // owner list, primary first — placement is the same pure function the
  // servers use, so a fresh view sends every op straight to its owner.
  // Static mode: the constructor/add_failover targets, resuming on the last
  // target that actually answered (stickiness) rather than wherever a failed
  // rpc's rotation happened to stop — re-probing a known-dead primary every
  // call would pay the full timeout on every op.
  bool keyed = op == BsOp::kPut || op == BsOp::kGet || op == BsOp::kDel;
  if (view_.has_value() && keyed) {
    for (BsNodeId id : view_->owners(key)) {
      auto it = view_->directory.find(id);
      if (it != view_->directory.end()) {
        o.route.push_back(it->second);
      }
    }
  }
  o.ring_mode = !o.route.empty();
  if (!o.ring_mode) {
    o.route = targets_;
    if (have_last_good_ && last_good_target_ < targets_.size() &&
        current_target_ != last_good_target_) {
      current_target_ = last_good_target_;
      c_sticky_resumes_.inc();
    }
    o.idx = current_target_;
  }
  o.backoff = policy_.backoff_base_polls;
  o.overload_backoff = policy_.overload_base_polls;
  run_attempts();
  return Unit{};
}

std::optional<Result<BsReply>> BlockStoreClient::poll() {
  if (!op_.has_value()) {
    return std::nullopt;
  }
  if (!op_->reply.has_value()) {
    ++op_->polls_used;
    switch (op_->phase) {
      case Phase::kBackoff:
        c_backoff_polls_.inc();
        --op_->left;
        backoff_or_send();
        break;
      case Phase::kSending:
        push_frame();
        break;
      case Phase::kAwaiting:
        read_reply();
        break;
      case Phase::kNextAttempt:
        break;
    }
    run_attempts();
    if (!op_->reply.has_value()) {
      return std::nullopt;
    }
  }
  Result<BsReply> reply = std::move(*op_->reply);
  op_.reset();
  return reply;
}

void BlockStoreClient::run_attempts() {
  while (!op_->reply.has_value() && op_->phase == Phase::kNextAttempt) {
    next_attempt();
  }
}

void BlockStoreClient::next_attempt() {
  Op& o = *op_;
  if (o.attempt >= policy_.max_attempts) {
    return give_up();
  }
  o.left = 0;
  if (o.attempt > 0) {
    c_retries_.inc();
    // Exponential backoff with additive jitter, in polls. Jitter
    // decorrelates retries from concurrent clients without breaking
    // determinism (the jitter Rng is seeded). kOverloaded replies use their
    // own (multiplicative) ladder: the server is alive and asking for
    // space, which is different from a timeout probing for liveness.
    u64& next = o.overload_wait ? o.overload_backoff : o.backoff;
    u64 cap = o.overload_wait ? policy_.overload_max_polls : policy_.backoff_max_polls;
    o.left = next;
    next = cap != 0 ? std::min(next * 2, cap) : next * 2;
    if (o.left > 0 && policy_.jitter_ppm > 0) {
      u64 jspan = o.left * policy_.jitter_ppm / 1'000'000;
      if (jspan > 0) {
        o.left += rng_.next_range(0, jspan);
      }
    }
    if (policy_.deadline_polls != 0 && o.left > 0) {
      // Clamp the backoff to the deadline budget, reserving one attempt's
      // polling window: an rpc never sleeps its whole remaining budget
      // away and then fails without having probed the server one last
      // time. (After the jitter draw, so the rng stream is
      // schedule-independent.)
      u64 remaining =
          policy_.deadline_polls > o.polls_used ? policy_.deadline_polls - o.polls_used : 0;
      u64 window = std::min<u64>(policy_.polls_per_attempt, remaining);
      o.left = std::min(o.left, remaining - window);
    }
  }
  backoff_or_send();
}

void BlockStoreClient::backoff_or_send() {
  // The deadline is checked before every backoff poll and before the send:
  // an rpc whose budget expires mid-backoff gives up unsent.
  Op& o = *op_;
  if (deadline_hit()) {
    return give_up();
  }
  if (o.left > 0) {
    o.phase = Phase::kBackoff;
    return;
  }
  c_attempts_.inc();
  o.overload_wait = false;
  o.sent = 0;
  o.left = policy_.polls_per_attempt;  // sends the frame may take
  if (vtp_chan(o.route[o.idx]) == nullptr) {
    // Connect refused locally (fd/port pressure): a send error.
    c_send_errors_.inc();
    return end_attempt(ErrorCode::kBusy);
  }
  push_frame();
}

void BlockStoreClient::push_frame() {
  // send() buffers even mid-handshake, so a frame normally goes out in one
  // call; kWouldBlock only means the send buffer is momentarily full, and
  // the next poll tries again. A send error (a dead stream, a frame that
  // never fit) ends the attempt: the request never entered the stream.
  Op& o = *op_;
  const ChanKey key{o.route[o.idx].addr, o.route[o.idx].port};
  auto it = chans_.find(key);
  while (it != chans_.end() && o.sent < o.frame.size() && o.left > 0) {
    --o.left;
    auto n = sys_.vtp_send(it->second.fd, std::span<const u8>(o.frame).subspan(o.sent));
    if (!n.ok()) {
      if (n.error() == ErrorCode::kWouldBlock) {
        o.phase = Phase::kSending;
        return;
      }
      drop_vtp_chan(key);  // terminal: reconnect on the next attempt
      c_send_errors_.inc();
      return end_attempt(n.error());
    }
    o.sent += static_cast<usize>(n.value());
  }
  if (o.sent == o.frame.size()) {
    o.left = policy_.polls_per_attempt;
    return await_reply();
  }
  if (o.sent != 0) {
    drop_vtp_chan(key);  // a torn frame would desync the stream
  }
  c_send_errors_.inc();
  end_attempt(ErrorCode::kWouldBlock);
}

void BlockStoreClient::await_reply() {
  if (op_->left == 0) {
    return end_attempt(ErrorCode::kTimedOut);
  }
  op_->phase = Phase::kAwaiting;
}

void BlockStoreClient::read_reply() {
  // The wire: one VTP stream per target, [u32 len][body] frames both ways,
  // read with one direct vtp_recv per poll. The transport retransmits lost
  // segments itself, so loss is paid at the stream's RTO instead of the
  // attempt timeout.
  Op& o = *op_;
  --o.left;
  const ChanKey key{o.route[o.idx].addr, o.route[o.idx].port};
  std::optional<std::vector<u8>> frame;
  if (auto it = chans_.find(key); it != chans_.end()) {
    auto got = sys_.vtp_recv(it->second.fd, kChanRecvChunk);
    if (got.ok() || got.error() == ErrorCode::kWouldBlock) {
      if (got.ok()) {
        it->second.inbuf.insert(it->second.inbuf.end(), got.value().begin(), got.value().end());
      }
      frame = pop_frame(it->second.inbuf);
    } else {
      drop_vtp_chan(key);
    }
  }
  if (!frame) {
    return deadline_hit() ? end_attempt(ErrorCode::kTimedOut) : await_reply();
  }
  Reader r(*frame);
  auto rid = r.get_u64();
  auto err = r.get_u32();
  auto payload = r.get_bytes();
  if (!rid || !err || !payload || *rid != o.req_id) {
    return await_reply();  // malformed, or a stale reply to an earlier rpc
  }
  ErrorCode code = static_cast<ErrorCode>(*err);
  if (!o.ring_mode) {
    // Any reply with our req_id proves this target is up and reachable.
    have_last_good_ = true;
    last_good_target_ = o.idx;
  }
  if (code == ErrorCode::kOverloaded) {
    // Backpressure, not failure: the target is alive and shedding. Stay on
    // it and yield (multiplicative backoff) instead of stampeding a
    // healthy-but-busy replica's peers.
    c_overloads_.inc();
    o.overload_wait = true;
    return end_attempt(code);
  }
  if (transient(code)) {
    c_transient_errors_.inc();
    VNROS_LOG_DEBUG("blockstore", "transient %s from target %zu (attempt %zu), retrying",
                    error_name(code), o.idx, o.attempt);
    return end_attempt(code);  // next attempt, possibly after failover
  }
  h_rpc_polls_.record(o.polls_used);
  if (code == ErrorCode::kOk) {
    o.reply = BsReply{std::move(*payload), r.get_u64().value_or(0)};
  } else {
    o.reply = code;
  }
}

void BlockStoreClient::end_attempt(ErrorCode err) {
  // Timed out or bounced with an error: rotate targets so a
  // crashed/partitioned/faulting replica does not absorb every attempt.
  // kOverloaded stays put — that target will have tokens again soon.
  Op& o = *op_;
  o.last_err = err;
  if (!o.overload_wait && o.route.size() >= 2) {
    o.idx = (o.idx + 1) % o.route.size();
    if (!o.ring_mode) {
      current_target_ = o.idx;
    }
    c_failovers_.inc();
  }
  ++o.attempt;
  o.phase = Phase::kNextAttempt;
}

void BlockStoreClient::give_up() {
  Op& o = *op_;
  h_rpc_polls_.record(o.polls_used);
  VNROS_LOG_DEBUG("blockstore",
                  "rpc gave up: %s (attempts=%llu retries=%llu backoff=%llu failovers=%llu)",
                  error_name(o.last_err), static_cast<unsigned long long>(c_attempts_.value()),
                  static_cast<unsigned long long>(c_retries_.value()),
                  static_cast<unsigned long long>(c_backoff_polls_.value()),
                  static_cast<unsigned long long>(c_failovers_.value()));
  o.reply = o.last_err;
}

Result<BsReply> BlockStoreClient::call(BsOp op, std::string_view key,
                                       std::span<const u8> value) {
  SpanScope span(ObsRegistry::global().tracer(), span_rpc_);
  if (auto started = start(op, key, value); !started.ok()) {
    return started.error();
  }
  for (;;) {
    if (waiting() && pump_) {
      pump_();
    }
    if (auto reply = poll()) {
      return std::move(*reply);
    }
  }
}

Result<Unit> BlockStoreClient::put(std::string_view key, std::span<const u8> value) {
  auto r = call(BsOp::kPut, key, value);
  if (!r.ok()) {
    return r.error();
  }
  return Unit{};
}

Result<std::vector<u8>> BlockStoreClient::get(std::string_view key) {
  auto r = call(BsOp::kGet, key);
  if (!r.ok()) {
    return r.error();
  }
  return std::move(r.value().value);
}

Result<std::pair<std::vector<u8>, u64>> BlockStoreClient::get_with_seq(std::string_view key) {
  auto r = call(BsOp::kGet, key);
  if (!r.ok()) {
    return r.error();
  }
  return std::make_pair(std::move(r.value().value), r.value().seq);
}

Result<Unit> BlockStoreClient::del(std::string_view key) {
  auto r = call(BsOp::kDel, key);
  if (!r.ok()) {
    return r.error();
  }
  return Unit{};
}

Result<std::vector<BlockKeyInfo>> decode_inventory(std::span<const u8> payload) {
  // The smallest entry: an empty key's u32 length, crc, seq and flags.
  constexpr usize kMinEntryBytes = 4 + 4 + 8 + 1;
  Reader r(payload);
  auto count = r.get_u32();
  if (!count || *count > r.remaining() / kMinEntryBytes) {
    return ErrorCode::kCorrupted;
  }
  std::vector<BlockKeyInfo> out;
  out.reserve(*count);
  for (u32 i = 0; i < *count; ++i) {
    auto key = r.get_string();
    auto crc = r.get_u32();
    auto seq = r.get_u64();
    auto flags = r.get_u8();
    if (!key || !crc || !seq || !flags) {
      return ErrorCode::kCorrupted;
    }
    out.push_back(BlockKeyInfo{std::move(*key), *crc, *seq, (*flags & 1) != 0});
  }
  return out;
}

Result<std::vector<BlockKeyInfo>> BlockStoreClient::list() {
  auto r = call(BsOp::kList, "");
  if (!r.ok()) {
    return r.error();
  }
  return decode_inventory(r.value().value);
}

Result<u64> BlockStoreClient::sync_into(BlockStoreNode& target) {
  auto remote = list();
  if (!remote.ok()) {
    return remote.error();
  }
  // What the target already holds, by write sequence (tombstones included —
  // a deletion the target missed must land as a deletion, not linger as the
  // old value). The crc breaks same-sequence ties: two copies at the same
  // sequence with different bytes (independently stamped direct writes) are
  // divergence the full sweep repairs in the source's favor.
  std::map<std::string, std::pair<u64, u32>> local;
  for (const auto& e : target.list()) {
    local[e.key] = {e.seq, e.crc};
  }
  u64 repaired = 0;
  for (const auto& e : remote.value()) {
    auto it = local.find(e.key);
    if (it != local.end() && (it->second.first > e.seq ||
                              (it->second.first == e.seq && it->second.second == e.crc))) {
      continue;  // the target's copy is newer, or identical at the same seq
    }
    bool applied = false;
    if (e.tombstone) {
      auto r = target.apply_remote(e.key, {}, e.seq, /*tombstone=*/true, &applied);
      if (!r.ok()) {
        return r.error();
      }
    } else {
      auto value = call(BsOp::kGet, e.key);
      if (!value.ok()) {
        if (value.error() == ErrorCode::kNotFound) {
          continue;  // deleted between the listing and the fetch
        }
        return value.error();
      }
      // Write at the source's sequence, not a fresh local stamp: repair must
      // restore the block's true position in the write order, never reorder
      // a stale copy above a newer one.
      u64 seq = value.value().seq;
      auto r = target.apply_remote(e.key, value.value().value, seq != 0 ? seq : e.seq,
                                   /*tombstone=*/false, &applied);
      if (!r.ok()) {
        return r.error();
      }
    }
    if (applied) {
      ++repaired;
    }
  }
  return repaired;
}

Result<Unit> BlockStoreClient::ping() {
  auto r = call(BsOp::kPing, "");
  if (!r.ok()) {
    return r.error();
  }
  return Unit{};
}

}  // namespace vnros
