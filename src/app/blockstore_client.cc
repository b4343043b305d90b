#include "src/app/blockstore.h"

#include <algorithm>

#include "src/base/log.h"

namespace vnros {

namespace {

// One stream read pulls up to this much per poll.
constexpr usize kChanRecvChunk = 32 * 1024;

}  // namespace

BlockStoreClient::BlockStoreClient(Sys& sys, ClusterView view, std::function<void()> pump,
                                   RetryPolicy policy)
    : sys_(sys),
      view_(std::move(view)),
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
      c_reconnects_(ObsRegistry::global().counter(obs_prefix_ + "reconnects")),
      h_rpc_polls_(ObsRegistry::global().histogram(obs_prefix_ + "rpc_polls")),
      span_rpc_(ObsRegistry::global().tracer().intern_site("bs/rpc")) {}

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

bool BlockStoreClient::transient(ErrorCode err) {
  // Errors a later attempt (possibly against another member) can cure:
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
  // Routing, by the view only: a keyed op goes to the key's owners, primary
  // first (placement is the same pure function the nodes use, so a fresh
  // view sends every op straight to its owner), and a ping to the members
  // in id order. Later attempts rotate along the route.
  const std::optional<BsOpInfo> info = bs_op_info(op);
  if (!info || info->plane != BsPlane::kClient) {
    return ErrorCode::kNotFound;  // a peer op has no client route
  }
  std::vector<BsPeer> route;
  if ((info->flags & kBsKeyed) != 0) {
    for (BsNodeId id : view_.owners(key)) {
      if (auto it = view_.directory.find(id); it != view_.directory.end()) {
        route.push_back(it->second);
      }
    }
  } else {
    for (const auto& [id, member] : view_.directory) {
      route.push_back(member);
    }
  }
  if (route.empty()) {
    return ErrorCode::kNotFound;
  }
  // The request id and the write stamp are taken only once the op is known
  // to be routable and its body to fit, so a refused op leaves no trace.
  // Writes (puts and sequenced deletes) share one stamp counter: servers
  // order replica applies by it, retries of this rpc reuse it (at-least-once
  // delivery stays idempotent), and a put-then-del (or del-then-put) from
  // this client is totally ordered on every replica it ever reaches.
  const bool stamped = (info->flags & kBsStamped) != 0;
  const std::vector<u8> body = bs_request_bytes({.op = static_cast<u8>(op),
                                                 .req_id = next_req_id_,
                                                 .key = key,
                                                 .seq = stamped ? put_seq_ + 1 : 0,
                                                 .value = value});
  if (body.size() > kVtpConnBufMax) {
    return ErrorCode::kInvalidArgument;  // every node would close the stream
  }
  Op& o = op_.emplace();
  o.req_id = next_req_id_++;
  if (stamped) {
    ++put_seq_;
  }
  StreamFramer::put(o.frame, body);
  o.route = std::move(route);
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
  // The wire: one VTP stream per member, [u32 len][body] frames both ways,
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
        it->second.in.push(got.value());
      }
      frame = it->second.in.pop();
      if (it->second.in.corrupt()) {
        // No reply is that long: the stream is corrupt. Drop it, as a torn
        // frame does, and let the next attempt reconnect.
        drop_vtp_chan(key);
        return end_attempt(ErrorCode::kCorrupted);
      }
    } else {
      drop_vtp_chan(key);
    }
  }
  if (!frame) {
    return deadline_hit() ? end_attempt(ErrorCode::kTimedOut) : await_reply();
  }
  auto reply = bs_reply(*frame);
  if (!reply || reply->req_id != o.req_id) {
    return await_reply();  // malformed, or a stale reply to an earlier rpc
  }
  ErrorCode code = static_cast<ErrorCode>(reply->err);
  if (code == ErrorCode::kOverloaded) {
    // Backpressure, not failure: the member is alive and shedding. Stay on
    // it and yield (multiplicative backoff) instead of stampeding a
    // healthy-but-busy replica's peers.
    c_overloads_.inc();
    o.overload_wait = true;
    return end_attempt(code);
  }
  if (transient(code)) {
    c_transient_errors_.inc();
    VNROS_LOG_DEBUG("blockstore", "transient %s from route member %zu (attempt %zu), retrying",
                    error_name(code), o.idx, o.attempt);
    return end_attempt(code);  // next attempt, possibly after failover
  }
  h_rpc_polls_.record(o.polls_used);
  if (code == ErrorCode::kOk) {
    o.reply = BsReply{std::move(reply->payload), reply->seq};
  } else {
    o.reply = code;
  }
}

void BlockStoreClient::end_attempt(ErrorCode err) {
  // Timed out or bounced with an error: rotate along the route so a
  // crashed/partitioned/faulting replica does not absorb every attempt.
  // kOverloaded stays put — that member will have tokens again soon.
  Op& o = *op_;
  o.last_err = err;
  if (!o.overload_wait && o.route.size() >= 2) {
    o.idx = (o.idx + 1) % o.route.size();
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

Result<Unit> BlockStoreClient::ping() {
  auto r = call(BsOp::kPing, "");
  if (!r.ok()) {
    return r.error();
  }
  return Unit{};
}

}  // namespace vnros
