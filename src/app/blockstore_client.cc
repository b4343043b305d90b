#include "src/app/blockstore.h"

#include <algorithm>
#include <map>

#include "src/base/log.h"
#include "src/base/serde.h"

namespace vnros {

namespace {

// One parked stream recv pulls up to this much per completion.
constexpr usize kChanRecvChunk = 32 * 1024;

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
  // Closing the fd completes a recv parked on it with kBadFd; forget which
  // stream it read, so that completion cannot touch a stream reusing the fd.
  if (armed_fd_ == it->second.fd) {
    armed_fd_ = kInvalidFd;
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

Result<std::vector<u8>> BlockStoreClient::rpc(BsOp op, std::string_view key,
                                              std::span<const u8> value, u64* seq_out) {
  SpanScope span(ObsRegistry::global().tracer(), span_rpc_);
  u64 req_id = next_req_id_++;
  Writer w;
  w.put_u8(static_cast<u8>(op));
  w.put_u64(req_id);
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

  // Routing. Ring mode (set_cluster + a keyed op): the route is the key's
  // owner list, primary first — placement is the same pure function the
  // servers use, so a fresh view sends every op straight to its owner.
  // Static mode: the constructor/add_failover targets, resuming on the last
  // target that actually answered (stickiness) rather than wherever a failed
  // rpc's rotation happened to stop — re-probing a known-dead primary every
  // call would pay the full timeout on every op.
  std::vector<BsPeer> ring_route;
  bool keyed = op == BsOp::kPut || op == BsOp::kGet || op == BsOp::kDel;
  if (view_.has_value() && keyed) {
    for (BsNodeId id : view_->owners(key)) {
      auto it = view_->directory.find(id);
      if (it != view_->directory.end()) {
        ring_route.push_back(it->second);
      }
    }
  }
  const bool ring_mode = !ring_route.empty();
  const std::vector<BsPeer>& route = ring_mode ? ring_route : targets_;
  usize idx = 0;
  if (!ring_mode) {
    if (have_last_good_ && last_good_target_ < targets_.size() &&
        current_target_ != last_good_target_) {
      current_target_ = last_good_target_;
      c_sticky_resumes_.inc();
    }
    idx = current_target_;
  }
  auto rotate = [&] {
    if (route.size() < 2) {
      return;
    }
    idx = (idx + 1) % route.size();
    if (!ring_mode) {
      current_target_ = idx;
    }
    c_failovers_.inc();
  };
  auto mark_live = [&] {
    // Any reply with our req_id proves this target is up and reachable.
    if (!ring_mode) {
      have_last_good_ = true;
      last_good_target_ = idx;
    }
  };

  u64 polls_used = 0;
  u64 backoff = policy_.backoff_base_polls;
  u64 overload_backoff = policy_.overload_base_polls;
  auto pump_once = [&] {
    if (pump_) {
      pump_();
    }
    ++polls_used;
  };
  // The wire: one VTP stream per target, [u32 len][body] frames both ways.
  // The reply await rides the client's ring — one vtp_recv SQE parked on the
  // active target's stream — and the transport retransmits lost segments
  // itself, so loss is paid at the stream's RTO instead of this loop's
  // attempt timeout.
  auto chan_key = [](const BsPeer& p) { return ChanKey{p.addr, p.port}; };
  auto pop_frame = [](VtpChan& ch) -> std::optional<std::vector<u8>> {
    if (ch.inbuf.size() < 4) {
      return std::nullopt;
    }
    Reader fr(std::span<const u8>(ch.inbuf.data(), 4));
    u32 len = fr.get_u32().value_or(0);
    if (ch.inbuf.size() - 4 < len) {
      return std::nullopt;  // header seen, body still in flight
    }
    std::vector<u8> body(ch.inbuf.begin() + 4,
                         ch.inbuf.begin() + 4 + static_cast<std::ptrdiff_t>(len));
    ch.inbuf.erase(ch.inbuf.begin(),
                   ch.inbuf.begin() + 4 + static_cast<std::ptrdiff_t>(len));
    return body;
  };
  auto vtp_send_request = [&](const BsPeer& target) -> ErrorCode {
    VtpChan* ch = vtp_chan(target);
    if (ch == nullptr) {
      return ErrorCode::kBusy;  // connect refused locally (fd/port pressure)
    }
    Writer framed;
    framed.put_u32(static_cast<u32>(w.bytes().size()));
    framed.put_raw(w.bytes());
    std::span<const u8> rest = framed.bytes();
    // send() buffers even mid-handshake, so this normally accepts in one
    // call; kWouldBlock only means the send buffer is momentarily full.
    for (usize spin = 0; !rest.empty() && spin < policy_.polls_per_attempt; ++spin) {
      auto n = sys_.vtp_send(ch->fd, rest);
      if (!n.ok()) {
        if (n.error() == ErrorCode::kWouldBlock) {
          pump_once();
          continue;
        }
        drop_vtp_chan(chan_key(target));  // terminal: reconnect on the next attempt
        return n.error();
      }
      rest = rest.subspan(static_cast<usize>(n.value()));
    }
    if (rest.empty()) {
      return ErrorCode::kOk;
    }
    if (rest.size() != framed.bytes().size()) {
      drop_vtp_chan(chan_key(target));  // a torn frame would desync the stream
    }
    return ErrorCode::kWouldBlock;
  };
  auto vtp_poll_reply = [&](const BsPeer& target) -> std::optional<std::vector<u8>> {
    // Reap into the stream the recv was parked on. A dropped stream's recv
    // completes with kBadFd when its fd closes, and matches no stream.
    if (ring_ != 0) {
      auto cqes = sys_.ring_wait(ring_, 0, 4);
      if (cqes.ok()) {
        for (const RingCqe& cqe : cqes.value()) {
          recv_armed_ = false;
          auto armed = std::find_if(chans_.begin(), chans_.end(), [&](const auto& kv) {
            return kv.second.fd == armed_fd_;
          });
          if (armed == chans_.end()) {
            continue;  // its stream was dropped
          }
          auto bytes = sys_reply<SysNr::kVtpRecv>(cqe);
          if (!bytes.ok()) {
            // A terminal error killed the stream; a transient one (an
            // injected ring fault) only consumed the parked recv, which the
            // next poll re-arms.
            if (!transient(bytes.error())) {
              drop_vtp_chan(armed->first);
            }
            continue;
          }
          armed->second.inbuf.insert(armed->second.inbuf.end(), bytes.value().begin(),
                                     bytes.value().end());
        }
      } else if (cqes.error() == ErrorCode::kNotFound) {
        ring_ = 0;  // ring torn down (process state rebuilt): recreate
        recv_armed_ = false;
      }
    }
    auto it = chans_.find(chan_key(target));
    if (it == chans_.end()) {
      return std::nullopt;
    }
    // Park a recv on the active stream. If the single ring slot is still
    // occupied by another open stream's recv (failover mid-park — only a
    // close cancels), read this one directly until that completion drains.
    bool parked_here = recv_armed_ && armed_fd_ == it->second.fd;
    if (!recv_armed_) {
      if (ring_ == 0) {
        auto r = sys_.ring_setup(/*sq_slots=*/4, /*cq_slots=*/8);
        if (r.ok()) {
          ring_ = r.value();
        }
      }
      if (ring_ != 0) {
        RingSqe sqe = ring_sqe<SysNr::kVtpRecv>(req_id, it->second.fd, kChanRecvChunk);
        auto acc = sys_.ring_submit(ring_, std::span<const RingSqe>(&sqe, 1));
        if (acc.ok() && acc.value() == 1) {
          recv_armed_ = true;
          armed_fd_ = it->second.fd;
          parked_here = true;
        }
      }
    }
    if (!parked_here) {
      auto got = sys_.vtp_recv(it->second.fd, kChanRecvChunk);
      if (got.ok()) {
        it->second.inbuf.insert(it->second.inbuf.end(), got.value().begin(),
                                got.value().end());
      } else if (got.error() != ErrorCode::kWouldBlock) {
        drop_vtp_chan(it->first);
        return std::nullopt;
      }
    }
    return pop_frame(it->second);
  };
  auto deadline_hit = [&] {
    return policy_.deadline_polls != 0 && polls_used >= policy_.deadline_polls;
  };
  // Idles `wait` jittered polls; false if the rpc deadline expired mid-wait.
  auto idle = [&](u64 wait) {
    if (wait > 0 && policy_.jitter_ppm > 0) {
      u64 jspan = wait * policy_.jitter_ppm / 1'000'000;
      if (jspan > 0) {
        wait += rng_.next_range(0, jspan);
      }
    }
    if (policy_.deadline_polls != 0 && wait > 0) {
      // Clamp the backoff to the deadline budget, reserving one attempt's
      // polling window: an rpc never sleeps its whole remaining budget away
      // and then fails without having probed the server one last time.
      // (After the jitter draw, so the rng stream is schedule-independent.)
      u64 remaining =
          policy_.deadline_polls > polls_used ? policy_.deadline_polls - polls_used : 0;
      u64 window = std::min<u64>(policy_.polls_per_attempt, remaining);
      wait = std::min(wait, remaining - window);
    }
    for (u64 i = 0; i < wait; ++i) {
      if (deadline_hit()) {
        return false;
      }
      pump_once();
      c_backoff_polls_.inc();
    }
    return !deadline_hit();
  };
  ErrorCode last_err = ErrorCode::kTimedOut;
  bool overload_wait = false;  // next attempt is backpressure, not a retry probe
  for (usize attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    if (attempt > 0) {
      c_retries_.inc();
      // Exponential backoff with additive jitter, in pump polls. Jitter
      // decorrelates retries from concurrent clients without breaking
      // determinism (the jitter Rng is seeded). kOverloaded replies use
      // their own (multiplicative) ladder: the server is alive and asking
      // for space, which is different from a timeout probing for liveness.
      u64 wait = overload_wait ? overload_backoff : backoff;
      if (overload_wait) {
        overload_backoff *= 2;
        if (policy_.overload_max_polls != 0) {
          overload_backoff = std::min(overload_backoff, policy_.overload_max_polls);
        }
      } else {
        backoff *= 2;
        if (policy_.backoff_max_polls != 0) {
          backoff = std::min(backoff, policy_.backoff_max_polls);
        }
      }
      if (!idle(wait)) {
        break;  // deadline expired mid-backoff
      }
    }
    if (deadline_hit()) {
      break;
    }
    c_attempts_.inc();
    overload_wait = false;
    const BsPeer& target = route[idx];
    ErrorCode send_err = vtp_send_request(target);
    if (send_err != ErrorCode::kOk) {
      // Local send failure (a dead stream, a full send buffer): count it,
      // back off, and retry — the request never entered the stream.
      c_send_errors_.inc();
      last_err = send_err;
      rotate();
      continue;
    }
    bool transient_reply = false;
    for (usize poll = 0; poll < policy_.polls_per_attempt; ++poll) {
      pump_once();
      std::optional<std::vector<u8>> reply = vtp_poll_reply(target);
      if (!reply) {
        if (deadline_hit()) {
          break;
        }
        continue;
      }
      Reader r(*reply);
      auto rid = r.get_u64();
      auto err = r.get_u32();
      auto payload = r.get_bytes();
      if (!rid || !err || !payload) {
        continue;  // malformed reply: ignore, retry
      }
      if (*rid != req_id) {
        continue;  // stale reply from an earlier (retried) request
      }
      ErrorCode code = static_cast<ErrorCode>(*err);
      mark_live();
      if (code == ErrorCode::kOk) {
        h_rpc_polls_.record(polls_used);
        if (seq_out != nullptr) {
          *seq_out = r.get_u64().value_or(0);
        }
        return std::move(*payload);
      }
      if (code == ErrorCode::kOverloaded) {
        // Backpressure, not failure: the target is alive and shedding.
        // Stay on it and yield (multiplicative backoff) instead of
        // stampeding a healthy-but-busy replica's peers.
        c_overloads_.inc();
        last_err = code;
        transient_reply = true;
        overload_wait = true;
        break;
      }
      if (transient(code)) {
        c_transient_errors_.inc();
        last_err = code;
        transient_reply = true;
        VNROS_LOG_DEBUG("blockstore", "transient %s from target %zu (attempt %zu), retrying",
                        error_name(code), idx, attempt);
        break;  // next attempt, possibly after failover
      }
      h_rpc_polls_.record(polls_used);
      return code;
    }
    // Timed out or bounced with a transient error: rotate targets so a
    // crashed/partitioned/faulting replica does not absorb every attempt.
    // kOverloaded stays put — that target will have tokens again soon.
    if (!overload_wait) {
      rotate();
    }
    if (!transient_reply) {
      last_err = ErrorCode::kTimedOut;
    }
  }
  h_rpc_polls_.record(polls_used);
  VNROS_LOG_DEBUG("blockstore",
                  "rpc gave up: %s (attempts=%llu retries=%llu backoff=%llu failovers=%llu)",
                  error_name(last_err), static_cast<unsigned long long>(c_attempts_.value()),
                  static_cast<unsigned long long>(c_retries_.value()),
                  static_cast<unsigned long long>(c_backoff_polls_.value()),
                  static_cast<unsigned long long>(c_failovers_.value()));
  return last_err == ErrorCode::kOk ? ErrorCode::kTimedOut : last_err;
}

Result<Unit> BlockStoreClient::put(std::string_view key, std::span<const u8> value) {
  auto r = rpc(BsOp::kPut, key, value);
  if (!r.ok()) {
    return r.error();
  }
  return Unit{};
}

Result<std::vector<u8>> BlockStoreClient::get(std::string_view key) {
  return rpc(BsOp::kGet, key, {});
}

Result<std::pair<std::vector<u8>, u64>> BlockStoreClient::get_with_seq(std::string_view key) {
  u64 seq = 0;
  auto r = rpc(BsOp::kGet, key, {}, &seq);
  if (!r.ok()) {
    return r.error();
  }
  return std::make_pair(std::move(r.value()), seq);
}

Result<Unit> BlockStoreClient::del(std::string_view key) {
  auto r = rpc(BsOp::kDel, key, {});
  if (!r.ok()) {
    return r.error();
  }
  return Unit{};
}

Result<std::vector<BlockKeyInfo>> BlockStoreClient::list() {
  auto raw = rpc(BsOp::kList, "", {});
  if (!raw.ok()) {
    return raw.error();
  }
  Reader r(raw.value());
  auto count = r.get_u32();
  if (!count) {
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
      u64 seq = 0;
      auto value = rpc(BsOp::kGet, e.key, {}, &seq);
      if (!value.ok()) {
        if (value.error() == ErrorCode::kNotFound) {
          continue;  // deleted between the listing and the fetch
        }
        return value.error();
      }
      // Write at the source's sequence, not a fresh local stamp: repair must
      // restore the block's true position in the write order, never reorder
      // a stale copy above a newer one.
      auto r = target.apply_remote(e.key, value.value(), seq != 0 ? seq : e.seq,
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
  auto r = rpc(BsOp::kPing, "", {});
  if (!r.ok()) {
    return r.error();
  }
  return Unit{};
}

}  // namespace vnros
