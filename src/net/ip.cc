#include "src/net/ip.h"

namespace vnros {

void IpHeader::encode(Writer& w) const {
  w.put_u32(src);
  w.put_u32(dst);
  w.put_u8(static_cast<u8>(proto));
  w.put_u8(ttl);
}

std::optional<IpHeader> IpHeader::decode(Reader& r) {
  auto src = r.get_u32();
  auto dst = r.get_u32();
  auto proto = r.get_u8();
  auto ttl = r.get_u8();
  if (!src || !dst || !proto || !ttl) {
    return std::nullopt;
  }
  if (*proto != static_cast<u8>(IpProto::kUdp) && *proto != static_cast<u8>(IpProto::kVtp)) {
    return std::nullopt;
  }
  return IpHeader{*src, *dst, static_cast<IpProto>(*proto), *ttl};
}

Result<Unit> IpStack::send(NetAddr dst, IpProto proto, std::span<const u8> payload) {
  Writer w;
  IpHeader hdr{addr(), dst, proto, 16};
  hdr.encode(w);
  w.put_raw(payload);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.tx;
  }
  return dev_.send(dst, w.take());
}

void IpStack::register_proto(IpProto proto,
                             std::function<void(const IpHeader&, std::span<const u8>)> handler) {
  std::lock_guard<std::mutex> lock(mu_);
  handlers_[static_cast<u8>(proto)] = std::move(handler);
}

usize IpStack::poll() {
  usize processed = 0;
  while (auto frame = dev_.poll_rx()) {
    ++processed;
    Reader r(frame->payload);
    auto hdr = IpHeader::decode(r);
    std::function<void(const IpHeader&, std::span<const u8>)> handler;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.rx;
      if (!hdr) {
        ++stats_.rx_bad_header;
        continue;
      }
      if (hdr->ttl == 0) {
        ++stats_.rx_ttl_expired;
        continue;
      }
      auto it = handlers_.find(static_cast<u8>(hdr->proto));
      if (it == handlers_.end()) {
        ++stats_.rx_no_handler;
        continue;
      }
      handler = it->second;
    }
    std::span<const u8> payload(frame->payload.data() + r.position(),
                                frame->payload.size() - r.position());
    handler(*hdr, payload);
  }
  return processed;
}

}  // namespace vnros
