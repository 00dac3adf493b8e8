// The hemnet wire format — length-prefixed, versioned frames for the segment-
// coherence protocol (docs/DISTRIBUTED.md).
//
// A frame is a U32 payload length followed by the payload; the payload is a U8
// opcode followed by op-specific fields. Like the five other external formats
// (HOF/HXE/HML/SFS image/posix index) the decoder is *validating*: every count
// runs through ByteReader::Count, every semantic field (inode numbers, page
// indexes, node types) is range-checked at parse time, and trailing garbage is
// rejected with ExpectEnd — a hostile peer gets kCorruptData, never a crash or
// an allocation bomb. The version lives in the HELLO handshake; a mismatch is
// kUnsupportedVersion (well-formed, but a protocol we don't speak).
//
// Encoding is canonical: EncodePayload(DecodePayload(x)) == x for every payload
// the decoder accepts, which is the property the fuzz_roundtrip target checks.
//
// Every server reply carries the session's pending invalidation records ahead
// of the reply body; the client applies them before it looks at the body, so
// the replica observes the server's mutations in the server's serialization
// order (the property that keeps inode allocation in lockstep).
#ifndef SRC_NET_WIRE_H_
#define SRC_NET_WIRE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/layout.h"
#include "src/base/status.h"

namespace hemlock {

inline constexpr uint32_t kWireMagic = 0x48454D4Eu;  // "HEMN"
// v2 (fault tolerance): per-session request sequence numbers on every
// non-hello request, a resume token + session epoch in the HELLO handshake,
// page versions on every page record, and the RESYNC op. v1 frames still
// *decode* (the hello payload is a strict prefix of v2's), so a v1 peer is
// refused at dispatch with kUnsupportedVersion instead of a parse error.
inline constexpr uint16_t kWireVersion = 2;
// A whole 1 MB file (256 pages) plus framing fits comfortably; anything larger
// in a length prefix is hostile.
inline constexpr uint32_t kMaxWirePayload = 4u << 20;
inline constexpr uint32_t kWirePagesPerFile = kSfsMaxFileBytes / kPageSize;
inline constexpr uint32_t kMaxWirePath = 4096;

enum class WireOp : uint8_t {
  // Requests (client -> server).
  kHello = 1,         // magic + version gate; answered with kReply{session}
  kMount = 2,         // metadata snapshot of the whole partition (no page data)
  kFetch = 3,         // demand-fetch a set of pages of one inode
  kFlush = 4,         // write back dirty pages + the logical size (ownership upgrade)
  kCreate = 5,
  kMkdir = 6,
  kSymlink = 7,
  kUnlink = 8,
  kTruncate = 9,
  kWrite = 10,        // kernel-side write-through (ldl/compiler file writes)
  kLock = 11,         // wire lease: the server-side creation lock
  kUnlock = 12,
  kReleaseLocks = 13, // process exit: release every lease held for this pid
  kPending = 14,      // creation-pending marker
  kCheck = 15,        // run SfsCheck on the authoritative partition (tests/admin)
  kStats = 16,        // server-side net.* counters
  kBye = 17,          // clean disconnect (after a final flush)
  kResync = 18,       // after a resume: revalidate cached pages by version
  // Replies (server -> client).
  kReply = 64,
  kError = 65,
};

enum class WireInvalKind : uint8_t {
  kPage = 1,     // |ino|, |value| = page index: another node wrote this page
  kSize = 2,     // |ino|, |value| = new logical size
  kPending = 3,  // |ino|, |value| = 0/1 creation-pending marker
  kCreated = 4,  // |ino|, |node_type|, |path|, |target|: new node on the partition
  kUnlinked = 5, // |ino|, |path|: node destroyed
};

struct WireInval {
  WireInvalKind kind = WireInvalKind::kPage;
  uint32_t ino = 0;
  uint32_t value = 0;
  uint8_t node_type = 0;
  std::string path;
  std::string target;

  bool operator==(const WireInval&) const = default;
};

// One page of segment data. Empty |bytes| means "entirely zero" — the common
// case for freshly created segments, so a cold mount of an empty region costs
// a few bytes per page instead of 4 KB. |version| is the CoherenceDirectory's
// monotonic write version: the client remembers it per cached page and replays
// it in a RESYNC claim after a reconnect, so revalidation costs a u64 compare
// instead of a page transfer. Flush/write acks carry version-only records
// (empty bytes) telling the writer the new version of the pages it just owned.
//
// |bytes| is a view, never a copy: a sender points it at the page where it
// lives (the server at its SFS extent, which must not mutate before the frame
// is encoded) and the encoder copies it once into the frame; a decoded page
// points into the received payload (see WireMsg::frame).
struct WirePage {
  uint32_t index = 0;
  uint64_t version = 0;
  std::span<const uint8_t> bytes;

  bool operator==(const WirePage& other) const {
    return index == other.index && version == other.version &&
           std::ranges::equal(bytes, other.bytes);
  }
};

// Keeps a decoded payload alive for the page views into it. Ownership only:
// two messages with equal fields are equal wherever their bytes live.
struct WireBacking {
  std::shared_ptr<const std::vector<uint8_t>> bytes;

  bool operator==(const WireBacking&) const { return true; }
};

// One RESYNC claim: "my replica holds |ino| page |page| at |version|". The
// sentinel page kWireSizeClaim claims the inode itself (|version| = the
// believed logical size); the server answers every stale or unknown claim
// with the matching invalidation record, and reports inodes the client never
// claimed as kCreated — reconvergence without refetching the world.
inline constexpr uint32_t kWireSizeClaim = 0xFFFFFFFFu;

struct WireClaim {
  uint32_t ino = 0;
  uint32_t page = 0;
  uint64_t version = 0;

  bool operator==(const WireClaim&) const = default;
};

// One node of the metadata snapshot (kMount reply).
struct WireNode {
  uint32_t ino = 0;
  uint8_t type = 0;  // SfsNodeType
  std::string path;
  uint32_t parent = 0;
  uint32_t size = 0;
  uint8_t pending = 0;
  std::string target;  // symlink target

  bool operator==(const WireNode&) const = default;
};

// A decoded payload. One struct covers every opcode; unused fields stay at
// their defaults and are neither encoded nor decoded for ops that do not carry
// them (the encoder and decoder agree field by field, which is what keeps the
// encoding canonical).
struct WireMsg {
  WireOp op = WireOp::kHello;

  // kReply/kError: the request opcode this answers. Replies are self-describing
  // so the decoder needs no out-of-band context (and the fuzzer can hit every
  // reply shape from raw bytes).
  uint8_t reply_to = 0;

  uint16_t version = kWireVersion;  // kHello
  uint32_t session = 0;             // kHello reply
  // Per-session request sequence number (every request except kHello) echoed
  // by the matching reply. Effectful ops are applied at most once per seq by
  // the server; a stale echo tells the client to drop a duplicated frame.
  uint32_t seq = 0;
  uint32_t resume_session = 0;      // kHello: session id to resume (0 = fresh)
  uint64_t resume_token = 0;        // kHello: proof of ownership of that session
  uint64_t token = 0;               // kHello reply: resume token for this session
  uint32_t epoch = 0;               // kHello reply: session epoch (bumps per resume)
  uint8_t resumed = 0;              // kHello reply: 1 = the old session survived
  uint8_t replayed = 0;             // any reply: 1 = served from the at-most-once cache
  uint32_t ino = 0;
  int32_t pid = 0;                  // kLock/kUnlock/kReleaseLocks
  uint32_t offset = 0;              // kWrite
  uint32_t size = 0;                // kTruncate/kFlush/kFetch reply
  uint8_t flag = 0;                 // kPending marker / kCheck reply "clean"
  std::string path;                 // kCreate/kMkdir/kSymlink/kUnlink
  std::string target;               // kSymlink
  std::string text;                 // kCheck reply: fsck report
  std::vector<uint8_t> bytes;       // kWrite payload
  std::vector<uint32_t> page_list;  // kFetch request: wanted page indexes
  std::vector<WirePage> pages;      // kFetch reply / kFlush request / flush-write acks
  std::vector<WireClaim> claims;    // kResync request
  std::vector<WireNode> nodes;      // kMount reply
  std::vector<WireInval> invals;    // every reply
  uint8_t err_code = 0;             // kError: ErrorCode as on-the-wire byte
  std::string err_msg;              // kError
  std::vector<std::pair<std::string, uint64_t>> stats;  // kStats reply
  // The payload |pages| view, when the message was decoded from an owned
  // buffer (DecodePayload of an rvalue, Conn::Recv). Copies share it.
  WireBacking frame;

  bool operator==(const WireMsg&) const = default;
};

// Single invalidation record <-> bytes: the hemserve checkpoint persists each
// session's pending queue through the same validated encoding replies use.
void EncodeInvalRecord(ByteWriter* w, const WireInval& inv);
Status DecodeInvalRecord(ByteReader* r, WireInval* inv);

// Payload <-> bytes (no frame length prefix). A decoded message's page bytes
// are views into the decoded buffer: into the caller's bytes for the pointer
// and lvalue forms (keep them alive while the message is used), into the
// message's own WireBacking for the rvalue form.
std::vector<uint8_t> EncodePayload(const WireMsg& msg);
Result<WireMsg> DecodePayload(const uint8_t* data, size_t size);
inline Result<WireMsg> DecodePayload(const std::vector<uint8_t>& b) {
  return DecodePayload(b.data(), b.size());
}
Result<WireMsg> DecodePayload(std::vector<uint8_t>&& b);

// Whole frame (U32 length + payload), built once into a buffer reserved for
// the message's page bytes up front: each page is copied once, from wherever
// its view points, straight into the frame the transport sends.
std::vector<uint8_t> EncodeFrame(const WireMsg& msg);

// ErrorCode <-> wire byte. Unknown bytes decode to kInternal rather than
// rejecting the frame: a future peer may speak codes we do not know.
uint8_t WireErrorCode(ErrorCode code);
ErrorCode ErrorCodeFromWire(uint8_t byte);

// Builds a kError reply from a Status (never from OkStatus).
WireMsg WireErrorFrom(const Status& st);
// Reconstructs the Status carried by a kError reply.
Status StatusFromWire(const WireMsg& err);

}  // namespace hemlock

#endif  // SRC_NET_WIRE_H_
