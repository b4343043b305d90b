// Wire formats for the vnros network stack.
//
// A deliberately small stack (§6 names a verified network stack as an open
// research artifact): link frames carry IPv4-lite datagrams, which carry
// either UDP segments or VTP (verified transport protocol, a TCP-lite)
// segments. Each header lists its fields once, as a Codec (src/base/serde.h),
// so the round-trip verification conditions (net/*header_roundtrip*) cover
// every field, and a truncated or corrupted header, or one whose protocol or
// segment type is unknown, decodes to nullopt rather than garbage.
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

  bool operator==(const IpHeader&) const = default;
};

struct UdpHeader {
  Port src_port = 0;
  Port dst_port = 0;
  u32 checksum = 0;  // crc32c of the payload

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

  bool operator==(const VtpHeader&) const = default;
};

template <>
struct WireEnum<IpProto> {
  static constexpr IpProto kValues[] = {IpProto::kUdp, IpProto::kVtp};
};
template <>
struct WireEnum<VtpType> {
  static constexpr VtpType kValues[] = {VtpType::kSyn,  VtpType::kSynAck, VtpType::kData,
                                        VtpType::kAck,  VtpType::kFin,    VtpType::kRst};
};

template <>
struct Codec<IpHeader>
    : FieldsCodec<IpHeader, &IpHeader::src, &IpHeader::dst, &IpHeader::proto, &IpHeader::ttl> {};
template <>
struct Codec<UdpHeader> : FieldsCodec<UdpHeader, &UdpHeader::src_port, &UdpHeader::dst_port,
                                      &UdpHeader::checksum> {};
template <>
struct Codec<VtpHeader>
    : FieldsCodec<VtpHeader, &VtpHeader::src_port, &VtpHeader::dst_port, &VtpHeader::type,
                  &VtpHeader::seq, &VtpHeader::ack, &VtpHeader::wnd, &VtpHeader::checksum> {};

}  // namespace vnros

#endif  // VNROS_SRC_NET_HEADERS_H_
