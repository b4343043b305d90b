#include "src/net/udp.h"

#include "src/base/crc.h"

namespace vnros {

UdpStack::UdpStack(IpStack& ip) : ip_(ip) {
  ip_.register_proto(IpProto::kUdp, [this](const IpHeader& hdr, std::span<const u8> payload) {
    on_datagram(hdr, payload);
  });
  ip_.readiness().set_probe(WaitKey::Kind::kUdpRecv, [this](u64 port) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = bound_.find(static_cast<Port>(port));
    return it == bound_.end() || !it->second.empty();
  });
}

Result<Unit> UdpStack::bind(Port port) {
  std::lock_guard<std::mutex> lock(mu_);
  if (bound_.count(port) != 0) {
    return ErrorCode::kAlreadyExists;
  }
  bound_[port];
  return Unit{};
}

Result<Unit> UdpStack::unbind(Port port) {
  std::lock_guard<std::mutex> lock(mu_);
  if (bound_.erase(port) == 0) {
    return ErrorCode::kNotFound;
  }
  ip_.readiness().mark({WaitKey::Kind::kUdpRecv, port});
  return Unit{};
}

Result<Unit> UdpStack::send(NetAddr dst, Port dst_port, Port src_port,
                            std::span<const u8> payload) {
  Writer w;
  Codec<UdpHeader>::put(w, UdpHeader{src_port, dst_port, crc32c(payload)});
  w.put_raw(payload);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.tx;
  }
  return ip_.send(dst, IpProto::kUdp, w.bytes());
}

Result<Datagram> UdpStack::recv(Port port) {
  ip_.poll();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = bound_.find(port);
  if (it == bound_.end()) {
    return ErrorCode::kNotFound;
  }
  if (it->second.empty()) {
    return ErrorCode::kWouldBlock;
  }
  Datagram d = std::move(it->second.front());
  it->second.pop_front();
  return d;
}

usize UdpStack::pending(Port port) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = bound_.find(port);
  return it == bound_.end() ? 0 : it->second.size();
}

void UdpStack::on_datagram(const IpHeader& ip, std::span<const u8> payload) {
  Reader r(payload);
  auto hdr = wire_get<UdpHeader>(r);
  std::lock_guard<std::mutex> lock(mu_);
  if (!hdr) {
    ++stats_.rx_bad_checksum;
    return;
  }
  std::span<const u8> data(payload.data() + r.position(), payload.size() - r.position());
  if (crc32c(data) != hdr->checksum) {
    ++stats_.rx_bad_checksum;  // corrupted payloads are dropped, not delivered
    return;
  }
  auto it = bound_.find(hdr->dst_port);
  if (it == bound_.end()) {
    ++stats_.rx_unbound;
    return;
  }
  ++stats_.rx_delivered;
  it->second.push_back(Datagram{ip.src, hdr->src_port, std::vector<u8>(data.begin(), data.end())});
  ip_.readiness().mark({WaitKey::Kind::kUdpRecv, hdr->dst_port});
}

}  // namespace vnros
