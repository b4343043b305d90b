#include "src/net/vtp.h"

#include <algorithm>

#include "src/base/contracts.h"
#include "src/base/crc.h"

namespace vnros {
namespace {

// RST reject reasons a peer may legitimately carry in the seq field; anything
// else decodes to the generic kConnReset so a corrupted-but-checksummed RST
// cannot smuggle an arbitrary error code into the application.
ErrorCode rst_reason(u64 raw) {
  switch (static_cast<ErrorCode>(raw)) {
    case ErrorCode::kConnRefused:
    case ErrorCode::kOverloaded:
    case ErrorCode::kConnReset:
      return static_cast<ErrorCode>(raw);
    default:
      return ErrorCode::kConnReset;
  }
}

// A connection's tuple as one index key: the peer address in the high 32
// bits, then the local port, then the peer port.
u64 tuple_key(NetAddr peer, Port local, Port remote) {
  return static_cast<u64>(peer) << 32 | static_cast<u64>(local) << 16 | remote;
}

}  // namespace

VtpStack::VtpStack(IpStack& ip, VirtualClock& clock)
    : ip_(ip),
      clock_(clock),
      obs_prefix_(ObsRegistry::global().instance_prefix("vtp")),
      c_segments_tx_(ObsRegistry::global().counter(obs_prefix_ + "segments_tx")),
      c_segments_rx_(ObsRegistry::global().counter(obs_prefix_ + "segments_rx")),
      c_rx_bad_checksum_(ObsRegistry::global().counter(obs_prefix_ + "rx_bad_checksum")),
      c_retransmits_(ObsRegistry::global().counter(obs_prefix_ + "retransmits")),
      c_cwnd_halvings_(ObsRegistry::global().counter(obs_prefix_ + "cwnd_halvings")),
      c_accept_shed_(ObsRegistry::global().counter(obs_prefix_ + "accept_shed")),
      c_ooo_buffered_(ObsRegistry::global().counter(obs_prefix_ + "ooo_buffered")),
      c_duplicate_data_(ObsRegistry::global().counter(obs_prefix_ + "duplicate_data")),
      c_window_probes_(ObsRegistry::global().counter(obs_prefix_ + "window_probes")),
      c_window_updates_(ObsRegistry::global().counter(obs_prefix_ + "window_updates")),
      c_window_violations_(ObsRegistry::global().counter(obs_prefix_ + "window_violations")),
      c_resets_tx_(ObsRegistry::global().counter(obs_prefix_ + "resets_tx")),
      c_conns_opened_(ObsRegistry::global().counter(obs_prefix_ + "conns_opened")),
      c_conns_closed_(ObsRegistry::global().counter(obs_prefix_ + "conns_closed")),
      h_accept_queue_(&ObsRegistry::global().histogram(obs_prefix_ + "accept_queue")),
      span_handshake_(ObsRegistry::global().tracer().intern_site("vtp/handshake")),
      span_retransmit_(ObsRegistry::global().tracer().intern_site("vtp/retransmit")),
      fault_handshake_(&FaultRegistry::global().site("net/vtp_handshake")),
      fault_segment_(&FaultRegistry::global().site("net/vtp_segment")) {
  ip_.register_proto(IpProto::kVtp, [this](const IpHeader& hdr, std::span<const u8> payload) {
    on_segment(hdr, payload);
  });
  Readiness& rd = ip_.readiness();
  rd.set_probe(WaitKey::Kind::kVtpRecv, [this](u64 id) { return readable(id); });
  rd.set_probe(WaitKey::Kind::kVtpSend, [this](u64 id) { return writable(id); });
  rd.set_probe(WaitKey::Kind::kVtpAccept,
               [this](u64 port) { return acceptable(static_cast<Port>(port)); });
}

Result<Unit> VtpStack::listen(Port port, usize backlog) {
  if (backlog == 0) {
    return ErrorCode::kInvalidArgument;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (listeners_.count(port) != 0) {
    return ErrorCode::kAlreadyExists;
  }
  listeners_[port].backlog = backlog;
  return Unit{};
}

Result<Unit> VtpStack::unlisten(Port port) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = listeners_.find(port);
  if (it == listeners_.end()) {
    return ErrorCode::kNotFound;
  }
  // Queued-but-unaccepted connections and handshakes still in progress will
  // never reach an application: abort them so the peer sees a typed reset
  // instead of a silent black hole.
  std::vector<ConnId> doomed(it->second.queue.begin(), it->second.queue.end());
  for (const auto& [id, conn] : conns_) {
    if (conn.local_port == port && conn.state == VtpState::kSynRcvd) {
      doomed.push_back(id);
    }
  }
  for (ConnId id : doomed) {
    Conn* conn = find_locked(id);
    if (conn != nullptr) {
      transmit_rst(conn->peer, conn->local_port, conn->peer_port, ErrorCode::kConnReset);
      drop_conn_locked(id);
    }
  }
  listeners_.erase(it);
  ip_.readiness().mark({WaitKey::Kind::kVtpAccept, port});
  return Unit{};
}

Result<ConnId> VtpStack::connect(NetAddr dst, Port dst_port, Port src_port) {
  std::lock_guard<std::mutex> lock(mu_);
  if (src_port == 0) {
    src_port = ephemeral_port_locked();
    if (src_port == 0) {
      return ErrorCode::kBusy;
    }
  } else if (match_locked(dst, src_port, dst_port) != conns_.end()) {
    return ErrorCode::kAlreadyExists;
  }
  Conn conn;
  conn.state = VtpState::kSynSent;
  conn.peer = dst;
  conn.local_port = src_port;
  conn.peer_port = dst_port;
  conn.last_progress_tick = clock_.now();
  auto it = add_conn_locked(std::move(conn));
  if (!fault_handshake_->fire()) {
    transmit(it->second, VtpType::kSyn, 0, 0, {});
  }
  return it->first;
}

Result<ConnId> VtpStack::accept(Port port) {
  poll();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = listeners_.find(port);
  if (it == listeners_.end()) {
    return ErrorCode::kNotFound;
  }
  if (it->second.queue.empty()) {
    return ErrorCode::kWouldBlock;
  }
  ConnId id = it->second.queue.front();
  it->second.queue.pop_front();
  return id;
}

Result<Unit> VtpStack::close(ConnId id) {
  std::lock_guard<std::mutex> lock(mu_);
  Conn* conn = find_locked(id);
  if (conn == nullptr) {
    return ErrorCode::kNotFound;
  }
  if (conn->state == VtpState::kEstablished || conn->state == VtpState::kPeerClosed ||
      conn->state == VtpState::kFinWait) {
    if (!conn->fin_queued) {
      conn->fin_queued = true;
      conn->state = VtpState::kFinWait;
      wake_locked(id, /*recv=*/false, /*send=*/true);  // send now fails kNotConnected
      pump_send_locked(*conn);
    }
    return Unit{};
  }
  // Handshake-stage or already-failed connection: nothing to drain.
  drop_conn_locked(id);
  return Unit{};
}

Result<usize> VtpStack::send(ConnId id, std::span<const u8> data) {
  poll();
  std::lock_guard<std::mutex> lock(mu_);
  Conn* conn = find_locked(id);
  if (conn == nullptr) {
    return ErrorCode::kNotFound;
  }
  if (conn->state == VtpState::kError) {
    return conn->error;
  }
  if (conn->state != VtpState::kEstablished && conn->state != VtpState::kSynSent &&
      conn->state != VtpState::kSynRcvd && conn->state != VtpState::kPeerClosed) {
    return ErrorCode::kNotConnected;
  }
  if (conn->snd_buf.size() >= kSndBufMax) {
    return ErrorCode::kWouldBlock;  // transient: ring-parkable backpressure
  }
  usize n = std::min(data.size(), kSndBufMax - conn->snd_buf.size());
  conn->snd_buf.insert(conn->snd_buf.end(), data.begin(), data.begin() + n);
  pump_send_locked(*conn);
  return n;
}

Result<std::vector<u8>> VtpStack::recv(ConnId id, usize max_len) {
  poll();
  std::lock_guard<std::mutex> lock(mu_);
  Conn* conn = find_locked(id);
  if (conn == nullptr) {
    return ErrorCode::kNotFound;
  }
  if (conn->rcv_ready.empty()) {
    if (conn->state == VtpState::kError) {
      return conn->error;
    }
    if (conn->peer_fin) {
      return ErrorCode::kPipeClosed;
    }
    return ErrorCode::kWouldBlock;
  }
  const bool was_closed = conn->advertised_wnd() == 0;
  usize n = std::min(max_len, conn->rcv_ready.size());
  std::vector<u8> out(conn->rcv_ready.begin(),
                      conn->rcv_ready.begin() + static_cast<std::ptrdiff_t>(n));
  conn->rcv_ready.erase(conn->rcv_ready.begin(),
                        conn->rcv_ready.begin() + static_cast<std::ptrdiff_t>(n));
  // The read reopened a closed (or shrunken-to-zero) window: tell the peer
  // proactively, or its only recovery is the slow zero-window probe.
  if (was_closed && conn->advertised_wnd() > 0 && conn->state != VtpState::kError) {
    c_window_updates_.inc();
    ack_locked(*conn);
  }
  return out;
}

void VtpStack::poll() {
  ip_.poll();
}

void VtpStack::transmit(Conn& conn, VtpType type, u64 seq, u64 ack,
                        std::span<const u8> payload) {
  if (fault_segment_->fire()) {
    return;  // injected loss at the stack boundary (retransmit must recover)
  }
  Writer w;
  Codec<VtpHeader>::put(w, VtpHeader{conn.local_port, conn.peer_port, type, seq, ack,
                                     static_cast<u32>(conn.advertised_wnd()), crc32c(payload)});
  w.put_raw(payload);
  c_segments_tx_.inc();
  (void)ip_.send(conn.peer, IpProto::kVtp, w.bytes());
}

void VtpStack::transmit_rst(NetAddr dst, Port src_port, Port dst_port, ErrorCode reason) {
  const VtpHeader hdr{src_port, dst_port, VtpType::kRst, static_cast<u64>(reason), 0, 0,
                      crc32c(std::span<const u8>{})};
  c_resets_tx_.inc();
  c_segments_tx_.inc();
  (void)ip_.send(dst, IpProto::kVtp, to_wire(hdr));
}

void VtpStack::ack_locked(Conn& conn) {
  transmit(conn, VtpType::kAck, 0, conn.rcv_nxt, {});
}

void VtpStack::fail_locked(ConnId id, Conn& conn, ErrorCode reason) {
  conn.state = VtpState::kError;
  conn.error = reason;
  conn.snd_buf.clear();
  conn.ooo.clear();
  conn.ooo_bytes = 0;
  wake_locked(id, /*recv=*/true, /*send=*/true);
}

VtpStack::ConnMap::iterator VtpStack::add_conn_locked(Conn conn) {
  auto it = conns_.emplace(next_id_++, std::move(conn)).first;
  by_tuple_.emplace(tuple_key(it->second.peer, it->second.local_port, it->second.peer_port), it);
  VNROS_INVARIANT(by_tuple_.size() == conns_.size());
  c_conns_opened_.inc();
  return it;
}

void VtpStack::drop_conn_locked(ConnId id) {
  if (auto it = conns_.find(id); it != conns_.end()) {
    by_tuple_.erase(tuple_key(it->second.peer, it->second.local_port, it->second.peer_port));
    conns_.erase(it);
    VNROS_INVARIANT(by_tuple_.size() == conns_.size());
  }
  c_conns_closed_.inc();
  wake_locked(id, /*recv=*/true, /*send=*/true);
}

void VtpStack::wake_locked(ConnId id, bool recv, bool send) {
  if (recv) {
    ip_.readiness().mark({WaitKey::Kind::kVtpRecv, id});
  }
  if (send) {
    ip_.readiness().mark({WaitKey::Kind::kVtpSend, id});
  }
}

void VtpStack::pump_send_locked(Conn& conn) {
  if (conn.state != VtpState::kEstablished && conn.state != VtpState::kFinWait &&
      conn.state != VtpState::kPeerClosed) {
    return;
  }
  const u64 buffered_end = conn.buffered_end();
  const u64 wnd = std::min<u64>(conn.cwnd, conn.peer_wnd);
  while (conn.snd_nxt < buffered_end && conn.bytes_in_flight() < wnd) {
    usize len = static_cast<usize>(std::min<u64>(
        {kMss, buffered_end - conn.snd_nxt, wnd - conn.bytes_in_flight()}));
    // Window safety tripwire: this transmission must sit inside the peer's
    // advertisement. The arithmetic above guarantees it; the counter makes
    // the guarantee observable to the window-safety VC.
    if (conn.snd_nxt + len > conn.snd_una + conn.peer_wnd) {
      c_window_violations_.inc();
      return;
    }
    u64 off = conn.snd_nxt - conn.snd_base_seq;
    std::vector<u8> chunk(conn.snd_buf.begin() + static_cast<std::ptrdiff_t>(off),
                          conn.snd_buf.begin() + static_cast<std::ptrdiff_t>(off + len));
    if (conn.bytes_in_flight() == 0) {
      conn.last_progress_tick = clock_.now();  // (re)arm the RTO at head send
    }
    transmit(conn, VtpType::kData, conn.snd_nxt, conn.rcv_nxt, chunk);
    conn.snd_nxt += len;
  }
  // FIN goes after all data has been transmitted (it consumes one seq).
  if (conn.fin_queued && !conn.fin_acked && conn.snd_nxt >= buffered_end &&
      conn.fin_seq == 0) {
    conn.fin_seq = buffered_end;
    conn.last_progress_tick = clock_.now();
    transmit(conn, VtpType::kFin, conn.fin_seq, conn.rcv_nxt, {});
  }
}

void VtpStack::retransmit_head_locked(Conn& conn) {
  c_retransmits_.inc();
  ObsRegistry::global().tracer().point(span_retransmit_);
  // Multiplicative decrease + fresh slow-start threshold, then resend only
  // the segment at snd_una (selective: the reassembly buffer at the receiver
  // keeps everything after the gap, unlike Go-Back-N).
  conn.ssthresh = std::max<u64>(conn.cwnd / 2, kMss);
  conn.cwnd = std::max<u64>(conn.cwnd / 2, kMss);
  c_cwnd_halvings_.inc();
  const u64 buffered_end = conn.buffered_end();
  if (conn.snd_una < buffered_end && conn.snd_una < conn.snd_nxt) {
    usize len = static_cast<usize>(
        std::min<u64>({kMss, buffered_end - conn.snd_una, conn.snd_nxt - conn.snd_una}));
    u64 off = conn.snd_una - conn.snd_base_seq;
    std::vector<u8> chunk(conn.snd_buf.begin() + static_cast<std::ptrdiff_t>(off),
                          conn.snd_buf.begin() + static_cast<std::ptrdiff_t>(off + len));
    transmit(conn, VtpType::kData, conn.snd_una, conn.rcv_nxt, chunk);
  } else if (conn.fin_queued && !conn.fin_acked && conn.fin_seq != 0) {
    transmit(conn, VtpType::kFin, conn.fin_seq, conn.rcv_nxt, {});
  }
  conn.last_progress_tick = clock_.now();
}

void VtpStack::tick() {
  ip_.poll();
  std::lock_guard<std::mutex> lock(mu_);
  const u64 now = clock_.now();
  std::vector<ConnId> reap;
  for (auto& [id, conn] : conns_) {
    switch (conn.state) {
      case VtpState::kSynSent:
        if (now - conn.last_progress_tick >= kRtoTicks) {
          if (conn.syn_retries >= kMaxSynRetries) {
            fail_locked(id, conn, ErrorCode::kTimedOut);
            break;
          }
          ++conn.syn_retries;
          c_retransmits_.inc();
          ObsRegistry::global().tracer().point(span_retransmit_);
          if (!fault_handshake_->fire()) {
            transmit(conn, VtpType::kSyn, 0, 0, {});
          }
          conn.last_progress_tick = now;
        }
        break;
      case VtpState::kSynRcvd:
        if (now - conn.last_progress_tick >= kRtoTicks) {
          if (conn.syn_retries >= kMaxSynRetries) {
            // Give up on a half-open handshake quietly: the connecting end
            // times itself out; nothing was ever surfaced to accept().
            reap.push_back(id);
            break;
          }
          ++conn.syn_retries;
          c_retransmits_.inc();
          if (!fault_handshake_->fire()) {
            transmit(conn, VtpType::kSynAck, 0, 1, {});
          }
          conn.last_progress_tick = now;
        }
        break;
      case VtpState::kEstablished:
      case VtpState::kFinWait:
      case VtpState::kPeerClosed: {
        const bool fin_outstanding =
            conn.fin_queued && !conn.fin_acked && conn.fin_seq != 0;
        const bool has_unacked = conn.snd_una < conn.snd_nxt || fin_outstanding;
        if (has_unacked && now - conn.last_progress_tick >= kRtoTicks) {
          retransmit_head_locked(conn);
        } else if (conn.peer_wnd == 0 && conn.snd_nxt < conn.buffered_end() &&
                   now - conn.last_progress_tick >= kRtoTicks) {
          // Zero-window probe: an empty kData at snd_nxt elicits an ACK
          // carrying the current advertisement without breaking window
          // safety (it occupies no sequence space).
          c_window_probes_.inc();
          transmit(conn, VtpType::kData, conn.snd_nxt, conn.rcv_nxt, {});
          conn.last_progress_tick = now;
        } else {
          pump_send_locked(conn);
        }
        if (conn.state == VtpState::kFinWait && conn.fin_acked && conn.peer_fin &&
            conn.rcv_ready.empty()) {
          reap.push_back(id);  // both directions shut and drained
        }
        break;
      }
      default:
        break;
    }
  }
  for (ConnId id : reap) {
    drop_conn_locked(id);
  }
  clock_.advance(1);
}

void VtpStack::on_segment(const IpHeader& ip, std::span<const u8> payload) {
  Reader r(payload);
  auto hdr = wire_get<VtpHeader>(r);
  std::lock_guard<std::mutex> lock(mu_);
  c_segments_rx_.inc();
  if (!hdr) {
    c_rx_bad_checksum_.inc();
    return;
  }
  std::span<const u8> data(payload.data() + r.position(), payload.size() - r.position());
  if (crc32c(data) != hdr->checksum) {
    c_rx_bad_checksum_.inc();  // integrity: corrupted segments are dropped, not delivered
    return;
  }

  switch (hdr->type) {
    case VtpType::kSyn: {
      auto lq = listeners_.find(hdr->dst_port);
      if (lq == listeners_.end()) {
        transmit_rst(ip.src, hdr->dst_port, hdr->src_port, ErrorCode::kConnRefused);
        return;
      }
      if (auto entry = match_locked(ip.src, hdr->dst_port, hdr->src_port); entry != conns_.end()) {
        Conn& conn = entry->second;
        if (conn.state == VtpState::kSynRcvd || conn.state == VtpState::kEstablished) {
          transmit(conn, VtpType::kSynAck, 0, 1, {});  // duplicate SYN
        }
        return;
      }
      if (fault_handshake_->fire()) {
        return;  // injected handshake drop: the peer's SYN retransmit retries
      }
      // Backlog covers both the accept queue and in-progress handshakes:
      // beyond it the listener sheds with a typed kOverloaded reset instead
      // of queueing without bound.
      if (lq->second.queue.size() + synrcvd_count_locked(hdr->dst_port) >=
          lq->second.backlog) {
        c_accept_shed_.inc();
        transmit_rst(ip.src, hdr->dst_port, hdr->src_port, ErrorCode::kOverloaded);
        return;
      }
      Conn conn;
      conn.state = VtpState::kSynRcvd;
      conn.peer = ip.src;
      conn.local_port = hdr->dst_port;
      conn.peer_port = hdr->src_port;
      conn.peer_wnd = hdr->wnd;
      conn.last_progress_tick = clock_.now();
      transmit(add_conn_locked(std::move(conn))->second, VtpType::kSynAck, 0, 1, {});
      return;
    }
    case VtpType::kSynAck: {
      auto entry = match_locked(ip.src, hdr->dst_port, hdr->src_port);
      if (entry == conns_.end()) {
        transmit_rst(ip.src, hdr->dst_port, hdr->src_port, ErrorCode::kConnReset);
        return;
      }
      Conn& conn = entry->second;
      conn.peer_wnd = hdr->wnd;
      if (conn.state == VtpState::kSynSent) {
        if (fault_handshake_->fire()) {
          return;
        }
        conn.state = VtpState::kEstablished;
        conn.last_progress_tick = clock_.now();
        ObsRegistry::global().tracer().point(span_handshake_);
      }
      // Complete the handshake (also answers duplicate SYN-ACKs).
      ack_locked(conn);
      pump_send_locked(conn);
      return;
    }
    case VtpType::kAck: {
      auto entry = match_locked(ip.src, hdr->dst_port, hdr->src_port);
      if (entry == conns_.end()) {
        transmit_rst(ip.src, hdr->dst_port, hdr->src_port, ErrorCode::kConnReset);
        return;
      }
      auto& [id, conn] = *entry;
      conn.peer_wnd = hdr->wnd;
      if (conn.state == VtpState::kSynRcvd) {
        conn.state = VtpState::kEstablished;
        ObsRegistry::global().tracer().point(span_handshake_);
        auto lq = listeners_.find(conn.local_port);
        if (lq != listeners_.end()) {
          lq->second.queue.push_back(id);
          h_accept_queue_->record(lq->second.queue.size());
          ip_.readiness().mark({WaitKey::Kind::kVtpAccept, conn.local_port});
        }
      }
      if (hdr->ack > conn.snd_una) {
        // Cumulative ACK: discard acked bytes, grow the congestion window
        // (slow start below ssthresh, additive increase above it).
        u64 acked = hdr->ack - conn.snd_una;
        u64 advance = std::min<u64>(hdr->ack, conn.buffered_end()) - conn.snd_base_seq;
        if (advance > 0 && conn.snd_buf.size() >= kSndBufMax) {
          wake_locked(id, /*recv=*/false, /*send=*/true);  // a full buffer gains space
        }
        conn.snd_buf.erase(conn.snd_buf.begin(),
                           conn.snd_buf.begin() + static_cast<std::ptrdiff_t>(advance));
        conn.snd_base_seq += advance;
        conn.snd_una = hdr->ack;
        conn.snd_nxt = std::max(conn.snd_nxt, conn.snd_una);
        if (conn.cwnd < conn.ssthresh) {
          conn.cwnd += std::min<u64>(acked, kMss);
        } else {
          conn.cwnd += std::max<u64>(kMss * kMss / conn.cwnd, 1);
        }
        conn.last_progress_tick = clock_.now();
      }
      if (conn.fin_queued && conn.fin_seq != 0 && hdr->ack > conn.fin_seq) {
        conn.fin_acked = true;
      }
      pump_send_locked(conn);  // ACK clocking: freed window sends new data
      return;
    }
    case VtpType::kData: {
      auto entry = match_locked(ip.src, hdr->dst_port, hdr->src_port);
      if (entry == conns_.end()) {
        transmit_rst(ip.src, hdr->dst_port, hdr->src_port, ErrorCode::kConnReset);
        return;
      }
      auto& [id, conn] = *entry;
      conn.peer_wnd = hdr->wnd;
      if (conn.state == VtpState::kSynRcvd) {
        // Data implies our SYN-ACK arrived: promote (the ACK was lost).
        conn.state = VtpState::kEstablished;
        ObsRegistry::global().tracer().point(span_handshake_);
        auto lq = listeners_.find(conn.local_port);
        if (lq != listeners_.end()) {
          lq->second.queue.push_back(id);
          h_accept_queue_->record(lq->second.queue.size());
          ip_.readiness().mark({WaitKey::Kind::kVtpAccept, conn.local_port});
        }
      }
      const u64 seq = hdr->seq;
      const u64 end = seq + data.size();
      if (data.empty()) {
        // Zero-window probe: answer with the current advertisement.
      } else if (end <= conn.rcv_nxt) {
        c_duplicate_data_.inc();  // retransmission we fully have
      } else if (seq <= conn.rcv_nxt) {
        // In-order (possibly with an already-received prefix): deliver the
        // new suffix, then drain any reassembled continuation.
        usize skip = static_cast<usize>(conn.rcv_nxt - seq);
        conn.rcv_ready.insert(conn.rcv_ready.end(), data.begin() + skip, data.end());
        conn.rcv_nxt = end;
        auto it = conn.ooo.begin();
        while (it != conn.ooo.end() && it->first <= conn.rcv_nxt) {
          const u64 seg_end = it->first + it->second.size();
          if (seg_end > conn.rcv_nxt) {
            usize s = static_cast<usize>(conn.rcv_nxt - it->first);
            conn.rcv_ready.insert(conn.rcv_ready.end(), it->second.begin() + s,
                                  it->second.end());
            conn.rcv_nxt = seg_end;
          }
          conn.ooo_bytes -= it->second.size();
          it = conn.ooo.erase(it);
        }
        if (conn.peer_fin_seq != 0 && conn.rcv_nxt == conn.peer_fin_seq) {
          conn.rcv_nxt += 1;
          conn.peer_fin = true;
          if (conn.state == VtpState::kEstablished) {
            conn.state = VtpState::kPeerClosed;
          }
        }
        wake_locked(id, /*recv=*/true, /*send=*/false);
      } else if (end <= conn.rcv_nxt + kRcvWindow &&
                 conn.ooo.count(seq) == 0) {
        // Out-of-order but inside the window: keep it for reassembly (this
        // is the "selective" in selective retransmit — only the gap segment
        // needs resending).
        c_ooo_buffered_.inc();
        conn.ooo[seq] = std::vector<u8>(data.begin(), data.end());
        conn.ooo_bytes += data.size();
      } else {
        c_duplicate_data_.inc();  // outside the window or exact re-buffer
      }
      ack_locked(conn);
      return;
    }
    case VtpType::kFin: {
      auto entry = match_locked(ip.src, hdr->dst_port, hdr->src_port);
      if (entry == conns_.end()) {
        transmit_rst(ip.src, hdr->dst_port, hdr->src_port, ErrorCode::kConnReset);
        return;
      }
      auto& [id, conn] = *entry;
      conn.peer_wnd = hdr->wnd;
      if (hdr->seq == conn.rcv_nxt) {
        conn.rcv_nxt += 1;  // FIN consumes a sequence number
        conn.peer_fin = true;
        if (conn.state == VtpState::kEstablished) {
          conn.state = VtpState::kPeerClosed;
        }
        wake_locked(id, /*recv=*/true, /*send=*/false);
      } else if (hdr->seq > conn.rcv_nxt) {
        conn.peer_fin_seq = hdr->seq;  // FIN ahead of a data gap: remember it
      }
      ack_locked(conn);
      return;
    }
    case VtpType::kRst: {
      auto entry = match_locked(ip.src, hdr->dst_port, hdr->src_port);
      if (entry == conns_.end()) {
        return;  // never answer a RST (no reset storms)
      }
      auto& [id, conn] = *entry;
      if (conn.state == VtpState::kSynRcvd) {
        // Nothing accepted this half-open connection: drop it quietly, as
        // tick() reaps an expired one. Left in kError it would hold its tuple
        // forever, and a reconnect on that tuple would get no SYN-ACK.
        drop_conn_locked(id);
        return;
      }
      if (conn.state == VtpState::kFinWait && conn.peer_fin) {
        // Both sides were closing and the peer already reaped: treat the
        // reset as the close completing, not as a failure.
        drop_conn_locked(id);
        return;
      }
      fail_locked(id, conn, rst_reason(hdr->seq));
      return;
    }
  }
}

usize VtpStack::synrcvd_count_locked(Port port) const {
  usize n = 0;
  for (const auto& [id, conn] : conns_) {
    if (conn.local_port == port && conn.state == VtpState::kSynRcvd) {
      ++n;
    }
  }
  return n;
}

VtpStack::Conn* VtpStack::find_locked(ConnId id) {
  auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : &it->second;
}

const VtpStack::Conn* VtpStack::find_locked(ConnId id) const {
  auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : &it->second;
}

VtpStack::ConnMap::iterator VtpStack::match_locked(NetAddr peer, Port local, Port remote) {
  auto it = by_tuple_.find(tuple_key(peer, local, remote));
  return it == by_tuple_.end() ? conns_.end() : it->second;
}

bool VtpStack::port_in_use_locked(Port port) const {
  if (listeners_.count(port) != 0) {
    return true;
  }
  for (const auto& [id, conn] : conns_) {
    if (conn.local_port == port) {
      return true;
    }
  }
  return false;
}

Port VtpStack::ephemeral_port_locked() {
  for (usize tries = 0; tries < kEphemeralPorts; ++tries) {
    Port port = static_cast<Port>(kEphemeralBase + next_ephemeral_++ % kEphemeralPorts);
    if (!port_in_use_locked(port)) {
      return port;
    }
  }
  return 0;
}

bool VtpStack::readable(ConnId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Conn* conn = find_locked(id);
  return conn == nullptr || !conn->rcv_ready.empty() || conn->peer_fin ||
         conn->state == VtpState::kError;
}

bool VtpStack::writable(ConnId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Conn* conn = find_locked(id);
  if (conn == nullptr) {
    return true;
  }
  const bool sendable = conn->state == VtpState::kEstablished ||
                        conn->state == VtpState::kSynSent || conn->state == VtpState::kSynRcvd ||
                        conn->state == VtpState::kPeerClosed;
  return !sendable || conn->snd_buf.size() < kSndBufMax;
}

bool VtpStack::acceptable(Port port) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = listeners_.find(port);
  return it == listeners_.end() || !it->second.queue.empty();
}

bool VtpStack::is_established(ConnId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Conn* conn = find_locked(id);
  return conn != nullptr &&
         (conn->state == VtpState::kEstablished || conn->state == VtpState::kPeerClosed ||
          conn->state == VtpState::kFinWait);
}

VtpState VtpStack::state(ConnId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Conn* conn = find_locked(id);
  return conn == nullptr ? VtpState::kClosed : conn->state;
}

ErrorCode VtpStack::conn_error(ConnId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Conn* conn = find_locked(id);
  return conn == nullptr ? ErrorCode::kOk : conn->error;
}

u64 VtpStack::unacked_bytes(ConnId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Conn* conn = find_locked(id);
  if (conn == nullptr) {
    return 0;
  }
  return conn->buffered_end() - conn->snd_una;
}

Port VtpStack::local_port(ConnId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Conn* conn = find_locked(id);
  return conn == nullptr ? 0 : conn->local_port;
}

usize VtpStack::active_conns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return conns_.size();
}

}  // namespace vnros
