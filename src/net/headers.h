// Wire formats for the vnros network stack.
//
// A deliberately small stack (§6 names a verified network stack as an open
// research artifact): link frames carry IPv4-lite datagrams, which carry
// either UDP segments or VTP (verified transport protocol, a TCP-lite)
// segments. All headers serialize through src/base/serde so the round-trip
// verification conditions (net/header_roundtrip_*) cover every field, and a
// truncated or corrupted header decodes to nullopt rather than garbage.
#ifndef VNROS_SRC_NET_HEADERS_H_
#define VNROS_SRC_NET_HEADERS_H_

#include <optional>
#include <span>
#include <vector>

#include "src/base/serde.h"
#include "src/base/types.h"

namespace vnros {

// Host address: the fabric link address doubles as the IP-lite address.
using NetAddr = u32;
using Port = u16;

enum class IpProto : u8 {
  kUdp = 17,
  kVtp = 143,  // verified transport protocol: stream sockets, windowed + AIMD
};

struct IpHeader {
  NetAddr src = 0;
  NetAddr dst = 0;
  IpProto proto = IpProto::kUdp;
  u8 ttl = 16;

  void encode(Writer& w) const;
  static std::optional<IpHeader> decode(Reader& r);

  bool operator==(const IpHeader&) const = default;
};

struct UdpHeader {
  Port src_port = 0;
  Port dst_port = 0;
  u32 checksum = 0;  // crc32c of the payload

  void encode(Writer& w) const;
  static std::optional<UdpHeader> decode(Reader& r);

  bool operator==(const UdpHeader&) const = default;
};

// VTP segment types. kRst doubles as a typed connection abort (the reject
// reason rides in `seq`).
enum class VtpType : u8 {
  kSyn = 1,
  kSynAck = 2,
  kData = 3,
  kAck = 4,
  kFin = 5,
  kRst = 6,
};

struct VtpHeader {
  Port src_port = 0;
  Port dst_port = 0;
  VtpType type = VtpType::kData;
  u64 seq = 0;   // first payload byte's sequence number (kData), or the
                 // ErrorCode reject reason (kRst)
  u64 ack = 0;   // cumulative: next byte expected from the peer
  u32 wnd = 0;   // receiver-advertised window, in bytes past `ack`
  u32 checksum = 0;

  void encode(Writer& w) const;
  static std::optional<VtpHeader> decode(Reader& r);

  bool operator==(const VtpHeader&) const = default;
};

}  // namespace vnros

#endif  // VNROS_SRC_NET_HEADERS_H_
