#include "src/net/ip.h"

namespace vnros {

Result<Unit> IpStack::send(NetAddr dst, IpProto proto, std::span<const u8> payload) {
  Writer w;
  Codec<IpHeader>::put(w, IpHeader{addr(), dst, proto, 16});
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
    auto hdr = wire_get<IpHeader>(r);
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
