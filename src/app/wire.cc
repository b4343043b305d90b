#include "src/app/wire.h"

#include "src/base/contracts.h"

namespace vnros {

std::vector<u8> bs_request_bytes(const BsRequest& req) {
  Writer w;
  BsHead::put(w, req);
  bool declared = false;
  switch (static_cast<BsOp>(req.op)) {
#define VNROS_BS_PUT(name, opcode, plane, body, payload, flags) \
  case BsOp::name:                                              \
    body::put(w, req);                                          \
    declared = true;                                            \
    break;
    VNROS_BS_OPS(VNROS_BS_PUT)
#undef VNROS_BS_PUT
  }
  VNROS_CHECK(declared);
  return w.take();
}

bool bs_get_body(Reader& r, BsRequest& req) {
  switch (static_cast<BsOp>(req.op)) {
#define VNROS_BS_GET(name, opcode, plane, body, payload, flags) \
  case BsOp::name:                                              \
    return body::get(r, req) && r.exhausted();
    VNROS_BS_OPS(VNROS_BS_GET)
#undef VNROS_BS_GET
  }
  return false;
}

std::optional<BsReplyFrame> bs_reply(std::span<const u8> bytes) {
  Reader r(bytes);
  auto reply = wire_get<BsReplyFrame, BsRefusal>(r);
  if (reply) {
    (void)Codec<u64>::get(r, reply->seq);  // a refusal carries none: 0
  }
  return reply;
}

void StreamFramer::put(std::vector<u8>& out, std::span<const u8> body) {
  Writer len;
  len.put_u32(static_cast<u32>(body.size()));
  out.insert(out.end(), len.bytes().begin(), len.bytes().end());
  out.insert(out.end(), body.begin(), body.end());
}

std::optional<std::vector<u8>> StreamFramer::pop() {
  if (corrupt_ || buf_.size() < 4) {
    return std::nullopt;
  }
  Reader r(buf_);
  const u32 len = r.get_u32().value_or(0);
  if (len > kVtpConnBufMax) {
    corrupt_ = true;
    return std::nullopt;
  }
  if (r.remaining() < len) {
    return std::nullopt;  // header seen, body still in flight
  }
  std::vector<u8> body(buf_.begin() + 4, buf_.begin() + 4 + len);
  buf_.erase(buf_.begin(), buf_.begin() + 4 + len);
  return body;
}

}  // namespace vnros
