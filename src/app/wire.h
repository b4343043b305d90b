// The blockstore wire, declared once for the node, the client, call_peer
// and the anti-entropy scheduler. A request is [u8 op][u64 req_id][key]
// [body]; a reply is [u64 req_id][u32 ErrorCode][payload][u64 seq], where
// seq is the write sequence stamped on a kGet or kGetBlock value (0
// otherwise) and a plane or admission refusal ends before it. A client
// stream carries each as one [u32 len][body] frame (StreamFramer), the peer
// socket as one datagram. Every field goes through src/base/serde.h.
#ifndef VNROS_SRC_APP_WIRE_H_
#define VNROS_SRC_APP_WIRE_H_

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/result.h"
#include "src/base/serde.h"

namespace vnros {

// The two planes a node serves on.
enum class BsPlane : u8 {
  kClient,  // VTP streams: kPut, kGet, kDel, kPing
  kPeer,    // the peer datagram socket: every other op
};

// A request. The key and value view the bytes it was decoded from (or the
// caller's). The body fields follow the head; each op's row names its own.
struct BsRequest {
  u8 op = 0;  // raw: an opcode no row declares still gets a reply
  u64 req_id = 0;
  std::string_view key{};       // "" for the ops that name no block
  u64 seq = 0;                  // a write stamp, a tombstone's sequence or a GC horizon
  std::span<const u8> value{};  // a put's bytes
  u32 index = 0;                // a Merkle node index or leaf bucket
};

using BsHead = FieldsCodec<BsRequest, &BsRequest::op, &BsRequest::req_id, &BsRequest::key>;
using BsNoBody = FieldsCodec<BsRequest>;
using BsSeqBody = FieldsCodec<BsRequest, &BsRequest::seq>;
using BsWriteBody = FieldsCodec<BsRequest, &BsRequest::seq, &BsRequest::value>;
using BsIndexBody = FieldsCodec<BsRequest, &BsRequest::index>;

// One entry of a kList reply / local inventory: enough to detect a missing
// or divergent block without shipping its bytes. Tombstones (sequenced
// deletes) are first-class entries so divergence over deletion is visible.
struct BlockKeyInfo {
  std::string key;
  u32 crc = 0;  // crc32c of the payload bytes (crc of "" for tombstones)
  u64 seq = 0;  // write sequence of the local copy
  bool tombstone = false;

  bool operator==(const BlockKeyInfo&) const = default;
};

template <>
struct Codec<BlockKeyInfo> : FieldsCodec<BlockKeyInfo, &BlockKeyInfo::key, &BlockKeyInfo::crc,
                                         &BlockKeyInfo::seq, &BlockKeyInfo::tombstone> {};

// A Merkle leaf entry: an inventory entry without its crc. A kMerkleLeaf
// payload lists them, and a leaf's hash covers them (MerkleTree::build).
using MerkleLeafEntry =
    FieldsCodec<BlockKeyInfo, &BlockKeyInfo::key, &BlockKeyInfo::seq, &BlockKeyInfo::tombstone>;

// A kGetBlock payload: the raw block, tombstones included.
struct BlockPayload {
  bool tombstone = false;
  TailBytes bytes;  // no length prefix: the reply's payload length bounds it

  bool operator==(const BlockPayload&) const = default;
};

template <>
struct Codec<BlockPayload>
    : FieldsCodec<BlockPayload, &BlockPayload::tombstone, &BlockPayload::bytes> {};

// A kMerkleNode payload: the node's hash, then its four children's hashes
// (none for a leaf).
struct MerkleNodePayload {
  u32 hash = 0;
  std::vector<u32> children{};

  bool operator==(const MerkleNodePayload&) const = default;
};

template <>
struct Codec<MerkleNodePayload>
    : FieldsCodec<MerkleNodePayload, &MerkleNodePayload::hash, &MerkleNodePayload::children> {};

using MerkleLeafPayload = ListCodec<BlockKeyInfo, MerkleLeafEntry>;

// --- The op table --------------------------------------------------------------
//
// One row per op: X(name, opcode, plane, body, payload, flags), the only
// place each is written. BsOp, the node's plane and admission checks, the
// client's routing and stamping, call_peer's push count and every body and
// payload codec derive from it. kPutReplica is a replication push (applied,
// never re-forwarded), kDelReplica a replicated tombstone, kGetBlock a
// repair fetch, kTombstoneGc "drop your tombstone for the key if seq <= S".
//
// Flags:
inline constexpr u32 kBsKeyed = 1u << 0;    // the key names a block; a client routes it by key
inline constexpr u32 kBsStamped = 1u << 1;  // the body leads with the client's write stamp
inline constexpr u32 kBsAdmit = 1u << 2;    // a storage op: costs one admission token
inline constexpr u32 kBsPush = 1u << 3;     // a replica push: counts in replicas_pushed

// clang-format off
#define VNROS_BS_OPS(X)                                                                      \
  /* Client ops: served on VTP streams only. kGet's payload is the value's bytes. */         \
  X(kPut, 1, kClient, BsWriteBody, Codec<Unit>, kBsKeyed | kBsStamped | kBsAdmit)            \
  X(kGet, 2, kClient, BsNoBody, Codec<TailBytes>, kBsKeyed | kBsAdmit)                       \
  X(kDel, 3, kClient, BsSeqBody, Codec<Unit>, kBsKeyed | kBsStamped | kBsAdmit)              \
  X(kPing, 4, kClient, BsNoBody, Codec<Unit>, 0)                                             \
  /* Peer ops: served on the peer datagram socket only. */                                   \
  X(kPutReplica, 5, kPeer, BsWriteBody, Codec<Unit>, kBsKeyed | kBsAdmit | kBsPush)          \
  X(kList, 6, kPeer, BsNoBody, Codec<std::vector<BlockKeyInfo>>, 0)                          \
  X(kDelReplica, 7, kPeer, BsSeqBody, Codec<Unit>, kBsKeyed | kBsAdmit | kBsPush)            \
  X(kGetBlock, 8, kPeer, BsNoBody, Codec<BlockPayload>, kBsKeyed | kBsAdmit)                 \
  X(kMerkleNode, 9, kPeer, BsIndexBody, Codec<MerkleNodePayload>, kBsAdmit)                  \
  X(kMerkleLeaf, 10, kPeer, BsIndexBody, MerkleLeafPayload, kBsAdmit)                        \
  X(kTombstoneGc, 11, kPeer, BsSeqBody, Codec<Unit>, kBsKeyed | kBsAdmit | kBsPush)
// clang-format on

// Wire protocol opcodes (stable ABI).
enum class BsOp : u8 {
#define VNROS_BS_ENUM(name, opcode, plane, body, payload, flags) name = opcode,
  VNROS_BS_OPS(VNROS_BS_ENUM)
#undef VNROS_BS_ENUM
};

// Op N's reply payload codec (Payload), and the value it carries.
template <BsOp N>
struct BsDesc;
#define VNROS_BS_DESC(name, opcode, plane, body, payload, flags) \
  template <>                                                    \
  struct BsDesc<BsOp::name> {                                    \
    using Payload = payload;                                     \
  };
VNROS_BS_OPS(VNROS_BS_DESC)
#undef VNROS_BS_DESC
template <BsOp N>
using BsPayloadOf = CodecValue<typename BsDesc<N>::Payload>;

// An op's plane and flags, as its row declares them.
struct BsOpInfo {
  BsPlane plane = BsPlane::kClient;
  u32 flags = 0;
};

// The row of an opcode; nullopt for an opcode no row declares.
constexpr std::optional<BsOpInfo> bs_op_info(BsOp op) {
  switch (op) {
#define VNROS_BS_INFO(name, opcode, plane, body, payload, flags) \
  case BsOp::name:                                               \
    return BsOpInfo{BsPlane::plane, flags};
    VNROS_BS_OPS(VNROS_BS_INFO)
#undef VNROS_BS_INFO
  }
  return std::nullopt;
}

// `req` as bytes: the head, then the body req.op's row declares (checked:
// the op is one the table declares).
std::vector<u8> bs_request_bytes(const BsRequest& req);

// Decodes the rest of `r` as the body req.op's row declares. False for an
// undeclared op, or a body that is short, malformed or followed by more
// bytes.
bool bs_get_body(Reader& r, BsRequest& req);

// A reply as the wire carries it.
struct BsReplyFrame {
  u64 req_id = 0;
  u32 err = 0;  // an ErrorCode
  std::vector<u8> payload{};
  u64 seq = 0;

  bool operator==(const BsReplyFrame&) const = default;
};

// A refusal: the reply without its seq.
using BsRefusal =
    FieldsCodec<BsReplyFrame, &BsReplyFrame::req_id, &BsReplyFrame::err, &BsReplyFrame::payload>;

template <>
struct Codec<BsReplyFrame>
    : FieldsCodec<BsReplyFrame, &BsReplyFrame::req_id, &BsReplyFrame::err,
                  &BsReplyFrame::payload, &BsReplyFrame::seq> {};

// A reply off the wire, read as a refusal (seq 0) when it ends before its
// seq. nullopt when the part before the seq is short or malformed.
std::optional<BsReplyFrame> bs_reply(std::span<const u8> bytes);

// Op N's reply payload as bytes.
template <BsOp N>
std::vector<u8> bs_payload_bytes(const BsPayloadOf<N>& v) {
  return to_wire<BsPayloadOf<N>, typename BsDesc<N>::Payload>(v);
}

// Op N's reply payload off `bytes`: kCorrupted unless they hold exactly
// one. A count that claims more entries than the bytes can hold, or a
// tombstone flag other than 0 or 1, is malformed.
template <BsOp N>
Result<BsPayloadOf<N>> bs_payload(std::span<const u8> bytes) {
  auto v = from_wire<BsPayloadOf<N>, typename BsDesc<N>::Payload>(bytes);
  if (!v) {
    return ErrorCode::kCorrupted;
  }
  return std::move(*v);
}

// Per-connection buffer bound on the client stream plane. A request body
// may not exceed it: the client refuses to send one (kInvalidArgument) and
// a node closes any stream whose frame header claims more. No reply is
// longer either — the largest is a get reply, 24 bytes around a value of at
// most kVtpConnBufMax - 25 bytes — so a client drops a stream whose reply
// header claims more. A node also closes a stream whose unsent reply bytes
// pass it (a slow consumer).
inline constexpr usize kVtpConnBufMax = 1 << 20;

// Both ends of a client stream: [u32 len][body] frames, len at most
// kVtpConnBufMax.
class StreamFramer {
 public:
  // Appends [u32 len][body] to `out`.
  static void put(std::vector<u8>& out, std::span<const u8> body);

  // Buffers stream bytes as they arrive.
  void push(std::span<const u8> bytes) { buf_.insert(buf_.end(), bytes.begin(), bytes.end()); }
  // The next whole frame's body; nullopt while its header or body is still
  // in flight, and from the first header that claims more than
  // kVtpConnBufMax on (corrupt()).
  std::optional<std::vector<u8>> pop();
  bool corrupt() const { return corrupt_; }

 private:
  std::vector<u8> buf_;
  bool corrupt_ = false;
};

}  // namespace vnros

#endif  // VNROS_SRC_APP_WIRE_H_
