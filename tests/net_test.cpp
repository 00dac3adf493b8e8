// Distributed shared segments: the hemnet wire format (canonical encoding +
// hostile-input rejection), the coherence directory, and in-process two-node
// integration — a SegmentServer on a loopback socket with NetClient replicas.
// The headline property is the differential one from ISSUE 8: a two-node run
// of the shared-counter scenario is byte-identical to the single-node run, and
// a client killed mid-lease leaves the authoritative partition SfsCheck-clean
// with the lease reclaimed.
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include <cstdio>

#include "src/base/bytes.h"
#include "src/base/faults.h"
#include "src/base/strings.h"
#include "src/net/chaos.h"
#include "src/net/client.h"
#include "src/net/coherence.h"
#include "src/net/journal.h"
#include "src/net/server.h"
#include "src/net/transport.h"
#include "src/net/wire.h"
#include "src/runtime/world.h"
#include "src/sfs/sfs_check.h"

namespace hemlock {
namespace {

constexpr char kCounterSrc[] = R"(
  int counter = 0;
  int bump(void) { counter = counter + 1; return counter; }
)";
constexpr char kProgSrc[] = R"(
  extern int bump(void);
  int main(void) { putint(bump()); puts("\n"); return 0; }
)";

void EnsureTemplate(HemlockWorld* world) {
  (void)world->vfs().MkdirAll("/shm/lib");
  if (!world->vfs().Exists("/shm/lib/counter.o")) {
    CompileOptions opts;
    opts.include_prelude = false;
    ASSERT_TRUE(world->CompileTo(kCounterSrc, "/shm/lib/counter.o", opts).ok());
  }
}

Result<RunOutcome> RunCounter(HemlockWorld* world) {
  return world->RunProgram(kProgSrc, {{"counter.o", ShareClass::kDynamicPublic}},
                           ExecOptions{});
}

uint64_t MetricValue(const MetricsSnapshot& m, const std::string& name) {
  auto it = m.find(name);
  return it == m.end() ? 0 : it->second;
}

// Spins until the server has dropped every session (the poll loop notices a
// dead socket on its next round).
void WaitForSessions(SegmentServer* server, size_t want) {
  for (int i = 0; i < 500 && server->SessionCount() != want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server->SessionCount(), want);
}

// --- Wire format: canonical encoding ---

// Page bytes for the sample messages. A WirePage views its bytes, so they live
// here, for the whole test binary.
const std::vector<uint8_t> kFullPageAb(kPageSize, 0xab);
const std::vector<uint8_t> kShortPage5a(16, 0x5a);

// Every payload the decoder accepts must re-encode to the exact same bytes
// (EncodePayload(DecodePayload(x)) == x) — the property fuzz_roundtrip checks
// from random bytes; here it is checked from every message shape we can build.
void ExpectCanonical(const WireMsg& msg) {
  std::vector<uint8_t> enc = EncodePayload(msg);
  Result<WireMsg> dec = DecodePayload(enc);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  EXPECT_TRUE(*dec == msg);
  EXPECT_EQ(EncodePayload(*dec), enc);
}

std::vector<WireInval> SampleInvals() {
  WireInval page;
  page.kind = WireInvalKind::kPage;
  page.ino = 7;
  page.value = 3;
  WireInval size;
  size.kind = WireInvalKind::kSize;
  size.ino = 7;
  size.value = 12345;
  WireInval pending;
  pending.kind = WireInvalKind::kPending;
  pending.ino = 9;
  pending.value = 1;
  WireInval created;
  created.kind = WireInvalKind::kCreated;
  created.ino = 12;
  created.node_type = 1;
  created.path = "/shm/lib/counter.o";
  WireInval linked;
  linked.kind = WireInvalKind::kCreated;
  linked.ino = 13;
  linked.node_type = 3;
  linked.path = "/shm/alias";
  linked.target = "/shm/lib";
  WireInval unlinked;
  unlinked.kind = WireInvalKind::kUnlinked;
  unlinked.ino = 5;
  unlinked.path = "/shm/tmp";
  return {page, size, pending, created, linked, unlinked};
}

TEST(WireTest, EveryRequestRoundTripsCanonically) {
  std::vector<WireMsg> msgs;

  WireMsg hello;
  hello.op = WireOp::kHello;
  hello.version = kWireVersion;
  msgs.push_back(hello);

  WireMsg resume;
  resume.op = WireOp::kHello;
  resume.version = kWireVersion;
  resume.resume_session = 7;
  resume.resume_token = 0x123456789abcdef1ull;
  msgs.push_back(resume);

  WireMsg resync;
  resync.op = WireOp::kResync;
  resync.seq = 11;
  resync.claims.push_back(WireClaim{3, kWireSizeClaim, 4097});
  resync.claims.push_back(WireClaim{3, 0, 9});
  resync.claims.push_back(WireClaim{3, 1, 0});
  msgs.push_back(resync);

  for (WireOp op : {WireOp::kMount, WireOp::kCheck, WireOp::kStats, WireOp::kBye}) {
    WireMsg m;
    m.op = op;
    msgs.push_back(m);
  }

  WireMsg fetch;
  fetch.op = WireOp::kFetch;
  fetch.ino = 5;
  fetch.page_list = {0, 3, kWirePagesPerFile - 1};
  msgs.push_back(fetch);

  WireMsg flush;
  flush.op = WireOp::kFlush;
  flush.ino = 2;
  flush.size = 8192;
  flush.pages.push_back(WirePage{0, 0, kFullPageAb});
  flush.pages.push_back(WirePage{1, 0, {}});  // all-zero page travels empty
  msgs.push_back(flush);

  WireMsg create;
  create.op = WireOp::kCreate;
  create.path = "/shm/a.bin";
  msgs.push_back(create);

  WireMsg mkdir;
  mkdir.op = WireOp::kMkdir;
  mkdir.path = "/shm/dir";
  msgs.push_back(mkdir);

  WireMsg symlink;
  symlink.op = WireOp::kSymlink;
  symlink.path = "/shm/link";
  symlink.target = "/shm/a.bin";
  msgs.push_back(symlink);

  WireMsg unlink;
  unlink.op = WireOp::kUnlink;
  unlink.path = "/shm/a.bin";
  unlink.flag = 1;
  msgs.push_back(unlink);

  WireMsg trunc;
  trunc.op = WireOp::kTruncate;
  trunc.ino = 3;
  trunc.size = 100;
  msgs.push_back(trunc);

  WireMsg write;
  write.op = WireOp::kWrite;
  write.ino = 4;
  write.offset = 4096;
  write.bytes = {1, 2, 3, 4};
  msgs.push_back(write);

  for (WireOp op : {WireOp::kLock, WireOp::kUnlock}) {
    WireMsg m;
    m.op = op;
    m.ino = 6;
    m.pid = 42;
    msgs.push_back(m);
  }

  WireMsg release;
  release.op = WireOp::kReleaseLocks;
  release.pid = 42;
  msgs.push_back(release);

  WireMsg pending;
  pending.op = WireOp::kPending;
  pending.ino = 7;
  pending.flag = 1;
  msgs.push_back(pending);

  for (const WireMsg& m : msgs) {
    ExpectCanonical(m);
  }
}

TEST(WireTest, EveryReplyRoundTripsCanonically) {
  std::vector<WireMsg> msgs;

  WireMsg hello;
  hello.op = WireOp::kReply;
  hello.reply_to = static_cast<uint8_t>(WireOp::kHello);
  hello.session = 9;
  hello.version = kWireVersion;
  hello.token = 0x9E3779B97F4A7C15ull;
  hello.epoch = 2;
  hello.resumed = 1;
  msgs.push_back(hello);

  WireMsg replayed;
  replayed.op = WireOp::kReply;
  replayed.reply_to = static_cast<uint8_t>(WireOp::kCreate);
  replayed.seq = 6;
  replayed.replayed = 1;
  replayed.ino = 17;
  msgs.push_back(replayed);

  WireMsg mount;
  mount.op = WireOp::kReply;
  mount.reply_to = static_cast<uint8_t>(WireOp::kMount);
  mount.invals = SampleInvals();
  WireNode dir;
  dir.ino = 2;
  dir.type = 2;
  dir.path = "/shm";
  dir.parent = 1;
  WireNode file;
  file.ino = 3;
  file.type = 1;
  file.path = "/shm/a.bin";
  file.parent = 2;
  file.size = 4097;
  file.pending = 1;
  WireNode link;
  link.ino = 4;
  link.type = 3;
  link.path = "/shm/link";
  link.parent = 2;
  link.target = "/shm/a.bin";
  mount.nodes = {dir, file, link};
  msgs.push_back(mount);

  WireMsg fetch;
  fetch.op = WireOp::kReply;
  fetch.reply_to = static_cast<uint8_t>(WireOp::kFetch);
  fetch.ino = 3;
  fetch.size = 4097;
  fetch.pages.push_back(WirePage{0, 7, kShortPage5a});
  fetch.pages.push_back(WirePage{1, 0, {}});
  msgs.push_back(fetch);

  for (WireOp to : {WireOp::kCreate, WireOp::kMkdir, WireOp::kSymlink}) {
    WireMsg m;
    m.op = WireOp::kReply;
    m.reply_to = static_cast<uint8_t>(to);
    m.ino = 17;
    msgs.push_back(m);
  }

  for (WireOp to : {WireOp::kFlush, WireOp::kUnlink, WireOp::kTruncate, WireOp::kWrite,
                    WireOp::kLock, WireOp::kUnlock, WireOp::kReleaseLocks,
                    WireOp::kPending, WireOp::kBye}) {
    WireMsg m;
    m.op = WireOp::kReply;
    m.reply_to = static_cast<uint8_t>(to);
    msgs.push_back(m);
  }

  WireMsg check;
  check.op = WireOp::kReply;
  check.reply_to = static_cast<uint8_t>(WireOp::kCheck);
  check.flag = 1;
  check.text = "clean";
  msgs.push_back(check);

  WireMsg stats;
  stats.op = WireOp::kReply;
  stats.reply_to = static_cast<uint8_t>(WireOp::kStats);
  stats.stats = {{"net.server.rpcs", 12}, {"net.server.sessions", 2}};
  msgs.push_back(stats);

  WireMsg err;
  err.op = WireOp::kError;
  err.reply_to = static_cast<uint8_t>(WireOp::kLock);
  err.invals = SampleInvals();
  err.err_code = WireErrorCode(ErrorCode::kWouldBlock);
  err.err_msg = "inode 6 is locked by pid 1048576";
  msgs.push_back(err);

  for (const WireMsg& m : msgs) {
    ExpectCanonical(m);
  }
}

TEST(WireTest, ErrorCodesSurviveTheWire) {
  for (ErrorCode code : {ErrorCode::kNotFound, ErrorCode::kWouldBlock,
                         ErrorCode::kCorruptData, ErrorCode::kUnsupportedVersion,
                         ErrorCode::kIoError, ErrorCode::kResourceExhausted,
                         ErrorCode::kInvalidArgument, ErrorCode::kInternal}) {
    EXPECT_EQ(ErrorCodeFromWire(WireErrorCode(code)), code);
    Status st(code, "reason travels too");
    WireMsg err = WireErrorFrom(st);
    EXPECT_EQ(err.op, WireOp::kError);
    Status back = StatusFromWire(err);
    EXPECT_EQ(back.code(), code);
    EXPECT_NE(back.message().find("reason travels too"), std::string::npos);
  }
  // A code byte from a future peer degrades to kInternal, not a decode error.
  EXPECT_EQ(ErrorCodeFromWire(0xfe), ErrorCode::kInternal);
}

// --- Wire format: hostile input ---

TEST(WireTest, TruncatedPayloadsAreRejected) {
  WireMsg mount;
  mount.op = WireOp::kReply;
  mount.reply_to = static_cast<uint8_t>(WireOp::kMount);
  mount.invals = SampleInvals();
  WireNode node;
  node.ino = 2;
  node.type = 1;
  node.path = "/shm/a";
  node.parent = 1;
  node.size = 10;
  mount.nodes = {node};
  std::vector<uint8_t> enc = EncodePayload(mount);
  for (size_t n = 0; n < enc.size(); ++n) {
    Result<WireMsg> dec = DecodePayload(enc.data(), n);
    EXPECT_FALSE(dec.ok()) << "prefix of " << n << " bytes decoded";
    EXPECT_TRUE(IsHostileInput(dec.status())) << dec.status().ToString();
  }
}

TEST(WireTest, TrailingGarbageIsRejected) {
  WireMsg m;
  m.op = WireOp::kBye;
  std::vector<uint8_t> enc = EncodePayload(m);
  enc.push_back(0);
  Result<WireMsg> dec = DecodePayload(enc);
  ASSERT_FALSE(dec.ok());
  EXPECT_TRUE(IsHostileInput(dec.status()));
}

TEST(WireTest, HostileFieldsAreRejected) {
  {  // Unknown opcode.
    for (uint8_t op : {0, 19, 63, 66, 200}) {
      std::vector<uint8_t> raw = {op};
      Result<WireMsg> dec = DecodePayload(raw);
      EXPECT_FALSE(dec.ok());
      EXPECT_TRUE(IsHostileInput(dec.status()));
    }
  }
  {  // Allocation-bomb page count in a fetch: rejected by Count, not malloc'd.
    ByteWriter w;
    w.U8(static_cast<uint8_t>(WireOp::kFetch));
    w.U32(5);
    w.U32(0xffffffffu);
    Result<WireMsg> dec = DecodePayload(w.buffer());
    ASSERT_FALSE(dec.ok());
    EXPECT_TRUE(IsHostileInput(dec.status()));
  }
  {  // Page index beyond the 1 MB file.
    WireMsg m;
    m.op = WireOp::kFetch;
    m.ino = 5;
    m.page_list = {kWirePagesPerFile};
    Result<WireMsg> dec = DecodePayload(EncodePayload(m));
    EXPECT_FALSE(dec.ok());
  }
  {  // Inode 0 and inode past the table.
    for (uint32_t ino : {0u, kSfsMaxInodes + 1}) {
      WireMsg m;
      m.op = WireOp::kTruncate;
      m.ino = ino;
      m.size = 0;
      Result<WireMsg> dec = DecodePayload(EncodePayload(m));
      EXPECT_FALSE(dec.ok());
      EXPECT_TRUE(IsHostileInput(dec.status()));
    }
  }
  {  // Relative path.
    WireMsg m;
    m.op = WireOp::kCreate;
    m.path = "shm/evil";
    Result<WireMsg> dec = DecodePayload(EncodePayload(m));
    EXPECT_FALSE(dec.ok());
  }
  {  // Write crossing the file limit.
    WireMsg m;
    m.op = WireOp::kWrite;
    m.ino = 4;
    m.offset = kSfsMaxFileBytes - 2;
    m.bytes = {1, 2, 3, 4};
    Result<WireMsg> dec = DecodePayload(EncodePayload(m));
    EXPECT_FALSE(dec.ok());
  }
  {  // Invalidation kind outside the enum.
    ByteWriter w;
    w.U8(static_cast<uint8_t>(WireOp::kReply));
    w.U8(static_cast<uint8_t>(WireOp::kBye));
    w.U32(1);
    w.U8(99);  // kind
    w.U32(5);
    Result<WireMsg> dec = DecodePayload(w.buffer());
    ASSERT_FALSE(dec.ok());
    EXPECT_TRUE(IsHostileInput(dec.status()));
  }
}

TEST(WireTest, ByteFlipsNeverBreakCanonicality) {
  // A mini-fuzz: flip every byte of a rich payload through a few values. Every
  // mutation must either be rejected as hostile or decode to a message whose
  // re-encoding is exactly the mutated input (the canonical-form property).
  WireMsg fetch;
  fetch.op = WireOp::kReply;
  fetch.reply_to = static_cast<uint8_t>(WireOp::kFetch);
  fetch.ino = 3;
  fetch.size = 4097;
  fetch.invals = SampleInvals();
  fetch.pages.push_back(WirePage{0, 3, kShortPage5a});
  std::vector<uint8_t> enc = EncodePayload(fetch);
  for (size_t pos = 0; pos < enc.size(); ++pos) {
    for (uint8_t delta : {1, 0x80, 0xff}) {
      std::vector<uint8_t> mutated = enc;
      mutated[pos] = static_cast<uint8_t>(mutated[pos] ^ delta);
      Result<WireMsg> dec = DecodePayload(mutated);
      if (dec.ok()) {
        EXPECT_EQ(EncodePayload(*dec), mutated)
            << "non-canonical accept at byte " << pos;
      } else {
        EXPECT_TRUE(IsHostileInput(dec.status())) << dec.status().ToString();
      }
    }
  }
}

// --- Coherence directory ---

TEST(CoherenceTest, SingleWriterInvalidatesOtherReaders) {
  CoherenceDirectory dir;
  dir.NoteFetch(5, 0, /*s=*/1);
  dir.NoteFetch(5, 0, /*s=*/2);
  dir.NoteFetch(5, 1, /*s=*/2);
  EXPECT_EQ(dir.OwnerOf(5, 0), 0u);
  EXPECT_EQ(dir.ReadersOf(5, 0), (std::vector<uint32_t>{1, 2}));

  std::vector<uint32_t> invalidated;
  dir.NoteWrite(5, 0, /*s=*/1, [&](uint32_t s) { invalidated.push_back(s); });
  EXPECT_EQ(invalidated, (std::vector<uint32_t>{2}));
  EXPECT_EQ(dir.OwnerOf(5, 0), 1u);
  // Session 2 left the set: it must re-fetch before it counts as a reader.
  EXPECT_EQ(dir.ReadersOf(5, 0), (std::vector<uint32_t>{1}));
  // Page 1 is untouched.
  EXPECT_EQ(dir.ReadersOf(5, 1), (std::vector<uint32_t>{2}));
  EXPECT_EQ(dir.invalidations(), 1u);

  // The owner re-writing its own page invalidates nobody.
  invalidated.clear();
  dir.NoteWrite(5, 0, /*s=*/1, [&](uint32_t s) { invalidated.push_back(s); });
  EXPECT_TRUE(invalidated.empty());
}

TEST(CoherenceTest, ForeignFetchDowngradesTheOwner) {
  CoherenceDirectory dir;
  dir.NoteWrite(9, 4, /*s=*/1, [](uint32_t) {});
  EXPECT_EQ(dir.OwnerOf(9, 4), 1u);
  dir.NoteFetch(9, 4, /*s=*/2);
  EXPECT_EQ(dir.OwnerOf(9, 4), 0u);
  EXPECT_EQ(dir.ReadersOf(9, 4), (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(dir.downgrades(), 1u);
}

TEST(CoherenceTest, DropsForgetSessionsAndInodes) {
  CoherenceDirectory dir;
  dir.NoteFetch(5, 0, 1);
  dir.NoteFetch(5, 0, 2);
  dir.NoteWrite(6, 0, 2, [](uint32_t) {});
  dir.DropSession(2);
  EXPECT_EQ(dir.ReadersOf(5, 0), (std::vector<uint32_t>{1}));
  EXPECT_EQ(dir.OwnerOf(6, 0), 0u);
  // A dropped session's writes never invalidate it again.
  std::vector<uint32_t> invalidated;
  dir.NoteWrite(5, 0, 1, [&](uint32_t s) { invalidated.push_back(s); });
  EXPECT_TRUE(invalidated.empty());
  dir.DropInode(5);
  EXPECT_EQ(dir.ReadersOf(5, 0), std::vector<uint32_t>{});
}

// --- Server + client integration over a loopback socket ---

TEST(NetIntegrationTest, MetadataAndPagesFlowBetweenClients) {
  SegmentServer server;
  ASSERT_TRUE(server.Listen("127.0.0.1", 0).ok());
  ASSERT_TRUE(server.Start().ok());

  HemlockWorld a;
  NetClient ca;
  ASSERT_TRUE(ca.Connect("127.0.0.1", server.port(), &a.machine()).ok());

  // A creates and writes through its replica; the RPCs run forward-first.
  Result<uint32_t> ino_a = a.sfs().Create("/data.bin");
  ASSERT_TRUE(ino_a.ok()) << ino_a.status().ToString();
  const char kHello[] = "hello over the wire";
  ASSERT_TRUE(a.sfs()
                  .WriteAt(*ino_a, 0, reinterpret_cast<const uint8_t*>(kHello),
                           sizeof(kHello))
                  .ok());

  // B mounts after the fact: the snapshot carries the node, pages come on
  // demand through EnsureResident.
  HemlockWorld b;
  NetClient cb;
  ASSERT_TRUE(cb.Connect("127.0.0.1", server.port(), &b.machine()).ok());
  Result<uint32_t> ino_b = b.sfs().Lookup("/data.bin");
  ASSERT_TRUE(ino_b.ok());
  EXPECT_EQ(*ino_b, *ino_a);  // replicas agree on inode numbers
  char buf[sizeof(kHello)] = {};
  Result<uint32_t> n = b.sfs().ReadAt(*ino_b, 0, reinterpret_cast<uint8_t*>(buf),
                                      sizeof(kHello));
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, sizeof(kHello));
  EXPECT_STREQ(buf, kHello);

  // A overwrites the page; B observes the new bytes at its next sync point
  // (any RPC applies the queued page invalidation and re-fetches eagerly).
  const char kBye[] = "goodbye over wire !";
  static_assert(sizeof(kBye) == sizeof(kHello));
  ASSERT_TRUE(a.sfs()
                  .WriteAt(*ino_a, 0, reinterpret_cast<const uint8_t*>(kBye),
                           sizeof(kBye))
                  .ok());
  ASSERT_TRUE(cb.FetchServerStats().ok());
  ASSERT_TRUE(b.sfs().ReadAt(*ino_b, 0, reinterpret_cast<uint8_t*>(buf),
                             sizeof(kBye)).ok());
  EXPECT_STREQ(buf, kBye);

  // Creations propagate the other way too, keeping inode allocation in
  // lockstep: B creates, A syncs, both replicas and the server agree.
  Result<uint32_t> ino_b2 = b.sfs().Mkdir("/from-b");
  ASSERT_TRUE(ino_b2.ok());
  ASSERT_TRUE(ca.FetchServerStats().ok());
  Result<uint32_t> ino_a2 = a.sfs().Lookup("/from-b");
  ASSERT_TRUE(ino_a2.ok());
  EXPECT_EQ(*ino_a2, *ino_b2);

  // Wire leases: A holds the creation lock, B's attempt would block, and the
  // unlock releases it for B.
  ASSERT_TRUE(a.sfs().LockInode(*ino_a, /*pid=*/5).ok());
  Status blocked = b.sfs().LockInode(*ino_b, /*pid=*/6);
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.code(), ErrorCode::kWouldBlock) << blocked.ToString();
  ASSERT_TRUE(a.sfs().UnlockInode(*ino_a, /*pid=*/5).ok());
  EXPECT_TRUE(b.sfs().LockInode(*ino_b, /*pid=*/6).ok());
  EXPECT_TRUE(b.sfs().UnlockInode(*ino_b, /*pid=*/6).ok());

  // The authoritative partition answers a remote fsck cleanly.
  Result<std::pair<bool, std::string>> check = ca.RemoteCheck();
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_TRUE(check->first) << check->second;

  // Client-side counters observed traffic.
  MetricsSnapshot ma = a.machine().metrics().Snapshot();
  EXPECT_GT(MetricValue(ma, "net.client.rpcs"), 0u);
  MetricsSnapshot mb = b.machine().metrics().Snapshot();
  EXPECT_GT(MetricValue(mb, "net.client.pages_fetched"), 0u);
  EXPECT_GT(MetricValue(mb, "net.client.invals_applied"), 0u);

  ca.Disconnect();
  cb.Disconnect();
  WaitForSessions(&server, 0);
  server.Stop();

  // Server counters and the authoritative bytes.
  MetricsSnapshot ms = server.metrics().Snapshot();
  EXPECT_GE(MetricValue(ms, "net.server.sessions"), 2u);
  EXPECT_GT(MetricValue(ms, "net.server.rpcs"), 0u);
  EXPECT_GT(MetricValue(ms, "net.server.pages_fetched"), 0u);
  char server_buf[sizeof(kBye)] = {};
  ASSERT_TRUE(server.sfs()
                  .ReadAt(*ino_a, 0, reinterpret_cast<uint8_t*>(server_buf),
                          sizeof(kBye))
                  .ok());
  EXPECT_STREQ(server_buf, kBye);
}

// Reads one frame off |fd| as raw bytes, length prefix included.
std::vector<uint8_t> RecvRawFrame(int fd) {
  auto recv_all = [fd](uint8_t* out, size_t len) {
    size_t got = 0;
    while (got < len) {
      ssize_t n = ::recv(fd, out + got, len - got, 0);
      if (n <= 0) {
        return false;
      }
      got += static_cast<size_t>(n);
    }
    return true;
  };
  std::vector<uint8_t> frame(4);
  if (!recv_all(frame.data(), 4)) {
    return {};
  }
  uint32_t len = 0;
  std::memcpy(&len, frame.data(), 4);
  frame.resize(4 + len);
  if (!recv_all(frame.data() + 4, len)) {
    return {};
  }
  return frame;
}

// The server builds a FETCH reply frame straight from its extent, copying each
// page once. That frame must be byte-identical to EncodeFrame of the equivalent
// message whose pages own copies of the same bytes, for each page shape: the
// all-zero page (sent as the empty marker), a short last page, a page past the
// extent, and a 37-page batch. The client decodes pages as views into the
// received frame and installs from them; afterwards its replica holds the
// server's bytes and its twins match (a flush finds nothing dirty).
TEST(NetIntegrationTest, FetchReplyFromTheExtentMatchesTheOwningEncoding) {
  auto fs = std::make_unique<SharedFs>();
  Result<uint32_t> mixed = fs->Create("/mixed.bin");
  Result<uint32_t> table = fs->Create("/table.bin");
  ASSERT_TRUE(mixed.ok() && table.ok());
  std::vector<uint8_t> mixed_bytes(2 * kPageSize + 100, 0);  // page 0 all zero
  for (size_t i = kPageSize; i < mixed_bytes.size(); ++i) {
    mixed_bytes[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  std::vector<uint8_t> table_bytes(37 * kPageSize);
  for (size_t i = 0; i < table_bytes.size(); ++i) {
    table_bytes[i] = static_cast<uint8_t>((i >> 12) + i * 13 + 1);
  }
  ASSERT_TRUE(fs->WriteAt(*mixed, 0, mixed_bytes.data(),
                          static_cast<uint32_t>(mixed_bytes.size())).ok());
  ASSERT_TRUE(fs->WriteAt(*table, 0, table_bytes.data(),
                          static_cast<uint32_t>(table_bytes.size())).ok());
  // What a reply must carry for page |idx| of |file|, as an owning copy.
  auto expected_page = [](const std::vector<uint8_t>& file, uint32_t idx) {
    size_t off = size_t{idx} * kPageSize;
    if (off >= file.size()) {
      return std::vector<uint8_t>();  // past the extent: the empty marker
    }
    std::vector<uint8_t> page(file.begin() + off,
                              file.begin() + std::min(file.size(), off + kPageSize));
    bool zero = std::all_of(page.begin(), page.end(), [](uint8_t b) { return b == 0; });
    return zero ? std::vector<uint8_t>() : page;
  };

  SegmentServer server(std::move(fs));
  ASSERT_TRUE(server.Listen("127.0.0.1", 0).ok());
  ASSERT_TRUE(server.Start().ok());
  Result<Conn> conn = DialTcp("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  WireMsg hello;
  hello.op = WireOp::kHello;
  ASSERT_TRUE(conn->Send(hello).ok());
  Result<WireMsg> welcome = conn->Recv();
  ASSERT_TRUE(welcome.ok() && welcome->op == WireOp::kReply) << welcome.status().ToString();

  struct Case {
    const char* what;
    uint32_t ino;
    const std::vector<uint8_t>* file;
    std::vector<uint32_t> pages;
  };
  std::vector<uint32_t> batch(37);
  for (uint32_t i = 0; i < 37; ++i) {
    batch[i] = i;
  }
  const std::vector<Case> cases = {
      {"all-zero page", *mixed, &mixed_bytes, {0}},
      {"short last page", *mixed, &mixed_bytes, {2}},
      {"pages past the extent", *mixed, &mixed_bytes, {3, kWirePagesPerFile - 1}},
      {"37-page batch", *table, &table_bytes, batch},
  };
  uint32_t seq = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    WireMsg fetch;
    fetch.op = WireOp::kFetch;
    fetch.seq = ++seq;
    fetch.ino = c.ino;
    fetch.page_list = c.pages;
    ASSERT_TRUE(conn->Send(fetch).ok());
    std::vector<uint8_t> frame = RecvRawFrame(conn->fd());
    ASSERT_GT(frame.size(), 4u);
    Result<WireMsg> reply = DecodePayload(frame.data() + 4, frame.size() - 4);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->pages.size(), c.pages.size());
    WireMsg owning = *reply;
    std::vector<std::vector<uint8_t>> copies;
    copies.reserve(c.pages.size());
    for (size_t i = 0; i < c.pages.size(); ++i) {
      const WirePage& got = reply->pages[i];
      EXPECT_EQ(got.index, c.pages[i]);
      // The decoded page is a view into the received frame, not a copy of it.
      if (!got.bytes.empty()) {
        EXPECT_GE(got.bytes.data(), frame.data() + 4);
        EXPECT_LE(got.bytes.data() + got.bytes.size(), frame.data() + frame.size());
      }
      copies.push_back(expected_page(*c.file, c.pages[i]));
      owning.pages[i].bytes = copies.back();
    }
    EXPECT_EQ(EncodeFrame(owning), frame);
  }
  conn->Close();

  HemlockWorld b;
  NetClient cb;
  ASSERT_TRUE(cb.Connect("127.0.0.1", server.port(), &b.machine()).ok());
  for (const auto& [ino, bytes] : {std::pair{*mixed, &mixed_bytes}, {*table, &table_bytes}}) {
    Result<std::span<const uint8_t>> view = b.sfs().View(ino);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_TRUE(std::ranges::equal(*view, *bytes)) << "inode " << ino;
  }
  MetricsSnapshot fetched = b.machine().metrics().Snapshot();
  EXPECT_EQ(MetricValue(fetched, "net.client.pages_fetched"), 3u + 37u);
  ASSERT_TRUE(cb.FlushAll().ok());
  EXPECT_EQ(MetricValue(b.machine().metrics().Snapshot(), "net.client.pages_flushed"), 0u)
      << "a twin differs from the extent it was installed into";
  cb.Disconnect();
  WaitForSessions(&server, 0);
  server.Stop();
}

TEST(NetIntegrationTest, TwoNodeCounterRunMatchesSingleNodeByteForByte) {
  // Single-node baseline: one world runs the shared-counter program twice.
  std::string baseline;
  {
    HemlockWorld world;
    EnsureTemplate(&world);
    for (int i = 0; i < 2; ++i) {
      Result<RunOutcome> out = RunCounter(&world);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      EXPECT_EQ(out->exit_code, 0);
      baseline += out->stdout_text;
    }
  }
  ASSERT_EQ(baseline, "1\n2\n");

  // Two-node: two simulator instances attach the same served partition in
  // sequence. The counter lives in the shared module's data segment, so run
  // two must observe run one's store through the wire.
  SegmentServer server;
  ASSERT_TRUE(server.Listen("127.0.0.1", 0).ok());
  ASSERT_TRUE(server.Start().ok());
  std::string distributed;
  for (int node = 0; node < 2; ++node) {
    HemlockWorld world;
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &world.machine()).ok());
    EnsureTemplate(&world);
    Result<RunOutcome> out = RunCounter(&world);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->exit_code, 0);
    distributed += out->stdout_text;
    Result<std::pair<bool, std::string>> check = client.RemoteCheck();
    ASSERT_TRUE(check.ok()) << check.status().ToString();
    EXPECT_TRUE(check->first) << check->second;
    client.Disconnect();
  }
  WaitForSessions(&server, 0);
  server.Stop();

  EXPECT_EQ(distributed, baseline);

  // The authoritative partition survives its clients structurally clean.
  SfsCheckReport report;
  SfsCheck(&server.sfs()).Run(/*at_boot=*/false, &report);
  EXPECT_TRUE(report.structurally_clean()) << report.ToString();
}

TEST(NetIntegrationTest, KilledClientMidLeaseIsReclaimed) {
  // Zero grace: an abruptly dead socket is reaped on the next poll round, so
  // the test observes the reclaim without waiting out a resume window.
  SegmentServerOptions opts;
  opts.resume_grace_ms = 0;
  SegmentServer server(nullptr, opts);
  ASSERT_TRUE(server.Listen("127.0.0.1", 0).ok());
  ASSERT_TRUE(server.Start().ok());

  // A raw protocol speaker, so the socket can die without any goodbye.
  Result<Conn> conn = DialTcp("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  WireMsg hello;
  hello.op = WireOp::kHello;
  hello.version = kWireVersion;
  ASSERT_TRUE(conn->Send(hello).ok());
  Result<WireMsg> hi = conn->Recv();
  ASSERT_TRUE(hi.ok());
  ASSERT_EQ(hi->op, WireOp::kReply);

  WireMsg create;
  create.op = WireOp::kCreate;
  create.path = "/half-made.bin";
  ASSERT_TRUE(conn->Send(create).ok());
  Result<WireMsg> made = conn->Recv();
  ASSERT_TRUE(made.ok());
  ASSERT_EQ(made->op, WireOp::kReply);
  uint32_t ino = made->ino;

  WireMsg lock;
  lock.op = WireOp::kLock;
  lock.ino = ino;
  lock.pid = 7;
  ASSERT_TRUE(conn->Send(lock).ok());
  Result<WireMsg> locked = conn->Recv();
  ASSERT_TRUE(locked.ok());
  ASSERT_EQ(locked->op, WireOp::kReply);

  // Die mid-lease: no unlock, no flush, no Bye.
  conn->Close();
  WaitForSessions(&server, 0);
  server.Stop();

  // The lease was reclaimed and the partition is fsck-clean.
  EXPECT_EQ(server.sfs().LockOwner(ino), -1);
  MetricsSnapshot ms = server.metrics().Snapshot();
  EXPECT_GE(MetricValue(ms, "net.server.leases_reclaimed"), 1u);
  EXPECT_GE(MetricValue(ms, "net.server.disconnects"), 1u);
  SfsCheckReport report;
  SfsCheck(&server.sfs()).Run(/*at_boot=*/false, &report);
  EXPECT_TRUE(report.structurally_clean()) << report.ToString();
}

TEST(NetIntegrationTest, VersionMismatchIsRefusedAsUnsupported) {
  SegmentServer server;
  ASSERT_TRUE(server.Listen("127.0.0.1", 0).ok());
  ASSERT_TRUE(server.Start().ok());

  Result<Conn> conn = DialTcp("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());
  WireMsg hello;
  hello.op = WireOp::kHello;
  hello.version = 99;
  ASSERT_TRUE(conn->Send(hello).ok());
  Result<WireMsg> reply = conn->Recv();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->op, WireOp::kError);
  Status st = StatusFromWire(*reply);
  EXPECT_EQ(st.code(), ErrorCode::kUnsupportedVersion) << st.ToString();

  conn->Close();
  server.Stop();
}

TEST(NetIntegrationTest, TransportFailureDegradesLoudlyButKeepsCachedPages) {
  FaultRegistry& faults = FaultRegistry::Global();
  faults.Reset();

  SegmentServer server;
  ASSERT_TRUE(server.Listen("127.0.0.1", 0).ok());
  ASSERT_TRUE(server.Start().ok());

  HemlockWorld world;
  NetClient client;
  // Zero retry budget restores degrade-on-first-failure, which is what this
  // test is about; the retry path has its own tests below.
  NetClientOptions no_retries;
  no_retries.retries = 0;
  client.set_options(no_retries);
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &world.machine()).ok());
  Result<uint32_t> ino = world.sfs().Create("/cached.bin");
  ASSERT_TRUE(ino.ok());
  const uint8_t kByte = 0x77;
  ASSERT_TRUE(world.sfs().WriteAt(*ino, 0, &kByte, 1).ok());
  uint8_t got = 0;
  ASSERT_TRUE(world.sfs().ReadAt(*ino, 0, &got, 1).ok());
  ASSERT_EQ(got, kByte);

  // Sever the link: the next RPC fails with the injected fault's own status
  // and the client degrades.
  faults.Arm("net.send", FaultMode::kError, 1);
  Status st = world.sfs().Create("/never.bin").status();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(client.degraded());

  // A partitioned node fails loudly on new work...
  Status more = world.sfs().Create("/still-never.bin").status();
  ASSERT_FALSE(more.ok());
  EXPECT_EQ(more.code(), ErrorCode::kIoError) << more.ToString();
  // ...but already-resident pages stay readable (no silent fork, no data loss
  // for what was already synced).
  got = 0;
  ASSERT_TRUE(world.sfs().ReadAt(*ino, 0, &got, 1).ok());
  EXPECT_EQ(got, kByte);
  MetricsSnapshot m = world.machine().metrics().Snapshot();
  EXPECT_GE(MetricValue(m, "net.client.degraded"), 1u);

  faults.Reset();
  client.Disconnect();
  server.Stop();
}

TEST(NetIntegrationTest, ConnectFaultPointSeversTheDial) {
  FaultRegistry& faults = FaultRegistry::Global();
  faults.Reset();
  faults.Arm("net.connect", FaultMode::kError, 1);
  HemlockWorld world;
  NetClient client;
  Status st = client.Connect("127.0.0.1", 1, &world.machine());
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(client.connected());
  EXPECT_EQ(faults.TriggerCount("net.connect"), 1u);
  faults.Reset();
}

// --- Journal ---

TEST(JournalTest, TornTailIsTolerated) {
  std::string path = std::string(::testing::TempDir()) + "torn-tail.hemj";
  std::remove(path.c_str());

  Journal j;
  ASSERT_TRUE(j.Open(path, {0xCA, 0xFE}).ok());
  for (uint32_t i = 1; i <= 3; ++i) {
    JournalRecord rec;
    rec.type = JournalRecordType::kRequest;
    rec.session = i;
    rec.token = 100 + i;
    rec.payload = {static_cast<uint8_t>(i), 0x55};
    ASSERT_TRUE(j.Append(rec).ok());
  }
  j.Close();

  // A crashed primary leaves half a record behind; the tail must truncate,
  // not poison the history.
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const uint8_t torn[] = {0x10, 0x00, 0x00, 0x00, 0xAA, 0xBB, 0xCC, 0xDD, 0x01};
    std::fwrite(torn, 1, sizeof(torn), f);
    std::fclose(f);
  }

  Result<JournalContents> loaded = Journal::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->checkpoint, (std::vector<uint8_t>{0xCA, 0xFE}));
  ASSERT_EQ(loaded->records.size(), 3u);
  EXPECT_EQ(loaded->records[2].session, 3u);
  EXPECT_EQ(loaded->records[2].token, 103u);

  // Re-opening rewrites the file minus the torn tail, so appends land after
  // the last valid record.
  Journal again;
  ASSERT_TRUE(again.Open(path, {}).ok());
  JournalRecord rec;
  rec.type = JournalRecordType::kRequest;
  rec.session = 4;
  rec.token = 104;
  ASSERT_TRUE(again.Append(rec).ok());
  again.Close();
  Result<JournalContents> healed = Journal::Load(path);
  ASSERT_TRUE(healed.ok());
  ASSERT_EQ(healed->records.size(), 4u);
  EXPECT_EQ(healed->records[3].session, 4u);
  std::remove(path.c_str());
}

// --- Retry, reconnect, resume ---

TEST(NetIntegrationTest, RetryWithinBudgetReconnectsAndResumesWithoutDegrading) {
  FaultRegistry& faults = FaultRegistry::Global();
  faults.Reset();

  SegmentServer server;
  ASSERT_TRUE(server.Listen("127.0.0.1", 0).ok());
  ASSERT_TRUE(server.Start().ok());

  HemlockWorld world;
  NetClient client;
  NetClientOptions opts;
  opts.retries = 1;  // the boundary: exactly one failure fits the budget
  opts.backoff_ms = 1;
  client.set_options(opts);
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &world.machine()).ok());

  Result<uint32_t> ino = world.sfs().Create("/before.bin");
  ASSERT_TRUE(ino.ok());
  const uint8_t kByte = 0x42;
  ASSERT_TRUE(world.sfs().WriteAt(*ino, 0, &kByte, 1).ok());

  // One transport failure: the retry budget absorbs it — reconnect, resume the
  // same session, re-send, succeed.
  faults.Arm("net.send", FaultMode::kError, 1);
  uint32_t session_before = client.session();
  Result<uint32_t> after = world.sfs().Create("/after.bin");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(client.degraded());
  EXPECT_EQ(client.session(), session_before);  // resumed, not re-bootstrapped
  EXPECT_GE(client.epoch(), 2u);

  MetricsSnapshot m = world.machine().metrics().Snapshot();
  EXPECT_EQ(MetricValue(m, "net.client.retries"), 1u);
  EXPECT_EQ(MetricValue(m, "net.client.reconnects"), 1u);
  EXPECT_EQ(MetricValue(m, "net.client.resumes"), 1u);
  EXPECT_EQ(MetricValue(m, "net.client.degraded"), 0u);

  faults.Reset();
  client.Disconnect();
  WaitForSessions(&server, 0);
  server.Stop();
  MetricsSnapshot ms = server.metrics().Snapshot();
  EXPECT_GE(MetricValue(ms, "net.server.resumes"), 1u);
}

TEST(NetIntegrationTest, ExhaustedRetryBudgetDegradesAtTheBoundary) {
  SegmentServer server;
  ASSERT_TRUE(server.Listen("127.0.0.1", 0).ok());
  ASSERT_TRUE(server.Start().ok());

  HemlockWorld world;
  NetClient client;
  NetClientOptions opts;
  opts.retries = 1;
  opts.timeout_ms = 100;  // dropped frames must time out fast
  opts.backoff_ms = 1;
  client.set_options(opts);
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &world.machine()).ok());

  // Every frame dropped: N+1 consecutive failures against a budget of N.
  ASSERT_TRUE(ChaosEngine::Global().Configure("drop=1:7").ok());
  Status st = world.sfs().Create("/never.bin").status();
  ChaosEngine::Global().Disable();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(client.degraded());

  MetricsSnapshot m = world.machine().metrics().Snapshot();
  EXPECT_EQ(MetricValue(m, "net.client.retries"), 1u);
  EXPECT_EQ(MetricValue(m, "net.client.degraded"), 1u);

  client.Disconnect();
  server.Stop();
}

TEST(NetIntegrationTest, SeveredLinkResumesWithLeasesAndReplicaIntact) {
  SegmentServer server;
  ASSERT_TRUE(server.Listen("127.0.0.1", 0).ok());
  ASSERT_TRUE(server.Start().ok());

  HemlockWorld a;
  NetClient ca;
  NetClientOptions opts;
  opts.backoff_ms = 1;
  ca.set_options(opts);
  ASSERT_TRUE(ca.Connect("127.0.0.1", server.port(), &a.machine()).ok());
  Result<uint32_t> ino = a.sfs().Create("/leased.bin");
  ASSERT_TRUE(ino.ok());
  const char kData[] = "survives the cut";
  ASSERT_TRUE(a.sfs()
                  .WriteAt(*ino, 0, reinterpret_cast<const uint8_t*>(kData), sizeof(kData))
                  .ok());
  ASSERT_TRUE(a.sfs().LockInode(*ino, /*pid=*/5).ok());

  // Cut the socket with no goodbye. The next RPC notices, reconnects, and
  // resumes the same session — the lease never lapses.
  ca.SeverForTest();
  Result<uint32_t> other = a.sfs().Create("/post-sever.bin");
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_FALSE(ca.degraded());

  MetricsSnapshot m = a.machine().metrics().Snapshot();
  EXPECT_GE(MetricValue(m, "net.client.reconnects"), 1u);
  EXPECT_GE(MetricValue(m, "net.client.resumes"), 1u);
  EXPECT_EQ(MetricValue(m, "net.client.degraded"), 0u);

  // A second client still sees the lease held.
  HemlockWorld b;
  NetClient cb;
  ASSERT_TRUE(cb.Connect("127.0.0.1", server.port(), &b.machine()).ok());
  Status blocked = b.sfs().LockInode(*ino, /*pid=*/6);
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.code(), ErrorCode::kWouldBlock) << blocked.ToString();

  // And the replica's cached bytes survived the resume (resync validated the
  // page by version instead of refetching).
  char buf[sizeof(kData)] = {};
  ASSERT_TRUE(a.sfs().ReadAt(*ino, 0, reinterpret_cast<uint8_t*>(buf), sizeof(kData)).ok());
  EXPECT_STREQ(buf, kData);

  ASSERT_TRUE(a.sfs().UnlockInode(*ino, /*pid=*/5).ok());
  ca.Disconnect();
  cb.Disconnect();
  WaitForSessions(&server, 0);
  server.Stop();
}

TEST(NetIntegrationTest, SeededChaosDupIsAbsorbedByAtMostOnce) {
  SegmentServer server;
  ASSERT_TRUE(server.Listen("127.0.0.1", 0).ok());
  ASSERT_TRUE(server.Start().ok());

  HemlockWorld world;
  NetClient client;
  NetClientOptions opts;
  opts.backoff_ms = 1;
  client.set_options(opts);
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &world.machine()).ok());

  // Every frame duplicated: the server answers twice, the at-most-once cache
  // makes the second answer a replay, and the client drops the stale echo.
  ASSERT_TRUE(ChaosEngine::Global().Configure("dup=1:3").ok());
  Result<uint32_t> ino = world.sfs().Create("/dup.bin");
  const uint8_t kByte = 0x5A;
  Status wrote = ino.ok() ? world.sfs().WriteAt(*ino, 0, &kByte, 1) : ino.status();
  Result<uint32_t> again = world.sfs().Mkdir("/dup-dir");
  ChaosEngine::Global().Disable();
  ASSERT_TRUE(ino.ok()) << ino.status().ToString();
  ASSERT_TRUE(wrote.ok()) << wrote.ToString();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_FALSE(client.degraded());

  MetricsSnapshot m = world.machine().metrics().Snapshot();
  EXPECT_GE(MetricValue(m, "net.client.replays_dropped"), 1u);
  EXPECT_EQ(MetricValue(m, "net.client.degraded"), 0u);

  client.Disconnect();
  WaitForSessions(&server, 0);
  server.Stop();
  MetricsSnapshot ms = server.metrics().Snapshot();
  EXPECT_GE(MetricValue(ms, "net.server.replays"), 1u);

  // No double-apply anywhere: the partition is structurally clean and holds
  // exactly the nodes created once each.
  SfsCheckReport report;
  SfsCheck(&server.sfs()).Run(/*at_boot=*/false, &report);
  EXPECT_TRUE(report.structurally_clean()) << report.ToString();
  EXPECT_TRUE(server.sfs().Lookup("/dup.bin").ok());
  EXPECT_TRUE(server.sfs().Lookup("/dup-dir").ok());
}

// --- At-most-once semantics on the raw wire ---

TEST(NetIntegrationTest, RetransmittedEffectfulRequestIsReplayedNotReapplied) {
  SegmentServer server;
  ASSERT_TRUE(server.Listen("127.0.0.1", 0).ok());
  ASSERT_TRUE(server.Start().ok());

  Result<Conn> conn = DialTcp("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());
  WireMsg hello;
  hello.op = WireOp::kHello;
  hello.version = kWireVersion;
  ASSERT_TRUE(conn->Send(hello).ok());
  Result<WireMsg> hi = conn->Recv();
  ASSERT_TRUE(hi.ok());
  ASSERT_EQ(hi->op, WireOp::kReply);
  EXPECT_NE(hi->token, 0u);

  WireMsg create;
  create.op = WireOp::kCreate;
  create.seq = 1;
  create.path = "/once.bin";
  ASSERT_TRUE(conn->Send(create).ok());
  Result<WireMsg> first = conn->Recv();
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->op, WireOp::kReply);
  EXPECT_EQ(first->replayed, 0u);
  uint32_t ino = first->ino;

  // The identical frame again: were it re-executed, the create would fail
  // with "already exists". The cached reply comes back instead.
  ASSERT_TRUE(conn->Send(create).ok());
  Result<WireMsg> second = conn->Recv();
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->op, WireOp::kReply) << StatusFromWire(*second).ToString();
  EXPECT_EQ(second->replayed, 1u);
  EXPECT_EQ(second->ino, ino);

  // A later request moves the window; the old seq is now a stale retransmit.
  WireMsg next;
  next.op = WireOp::kMkdir;
  next.seq = 2;
  next.path = "/once-dir";
  ASSERT_TRUE(conn->Send(next).ok());
  Result<WireMsg> moved = conn->Recv();
  ASSERT_TRUE(moved.ok());
  ASSERT_EQ(moved->op, WireOp::kReply);
  ASSERT_TRUE(conn->Send(create).ok());
  Result<WireMsg> stale = conn->Recv();
  ASSERT_TRUE(stale.ok());
  ASSERT_EQ(stale->op, WireOp::kError);
  EXPECT_EQ(StatusFromWire(*stale).code(), ErrorCode::kFailedPrecondition);

  conn->Close();
  WaitForSessions(&server, 0);
  server.Stop();
  MetricsSnapshot ms = server.metrics().Snapshot();
  EXPECT_EQ(MetricValue(ms, "net.server.replays"), 1u);
}

// MOUNT skips free inodes without probing them through StatInode; the reply
// must list exactly what a probe of every inode lists, holes included.
TEST(NetIntegrationTest, MountReplyListsEveryLiveInodeAroundFreedOnes) {
  auto fs = std::make_unique<SharedFs>();
  ASSERT_TRUE(fs->Mkdir("/dir").ok());
  for (const char* name : {"/dir/a.bin", "/dir/b.bin", "/c.bin", "/d.bin", "/e.bin"}) {
    ASSERT_TRUE(fs->Create(name).ok()) << name;
  }
  ASSERT_TRUE(fs->Symlink("/link", "/dir/a.bin").ok());
  Result<uint32_t> e = fs->Lookup("/e.bin");
  ASSERT_TRUE(e.ok());
  const uint8_t bytes[5] = {1, 2, 3, 4, 5};
  ASSERT_TRUE(fs->WriteAt(*e, 0, bytes, sizeof(bytes)).ok());
  // Free two inodes in the middle of the table.
  ASSERT_TRUE(fs->Unlink("/dir/b.bin").ok());
  ASSERT_TRUE(fs->Unlink("/c.bin").ok());
  SegmentServer server(std::move(fs));

  // The node list as a probe of every inode builds it.
  std::vector<WireNode> want;
  SharedFs& sfs = server.sfs();
  for (uint32_t ino = 2; ino <= kSfsMaxInodes; ++ino) {
    Result<SfsStat> st = sfs.StatInode(ino);
    if (!st.ok()) continue;
    WireNode node;
    node.ino = ino;
    node.type = static_cast<uint8_t>(st->type);
    node.size = st->size;
    node.pending = sfs.CreationPending(ino) ? 1 : 0;
    node.path = *sfs.InodeToPath(ino);
    Result<uint32_t> parent = sfs.Lookup(PathDirname(node.path));
    node.parent = parent.ok() ? *parent : 1;
    if (st->type == SfsNodeType::kSymlink) node.target = *sfs.ReadLink(node.path);
    want.push_back(node);
  }
  ASSERT_EQ(want.size(), 5u);  // /dir, a.bin, d.bin, e.bin and /link

  ASSERT_TRUE(server.Listen("127.0.0.1", 0).ok());
  ASSERT_TRUE(server.Start().ok());
  Result<Conn> conn = DialTcp("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());
  WireMsg hello;
  hello.op = WireOp::kHello;
  hello.version = kWireVersion;
  ASSERT_TRUE(conn->Send(hello).ok());
  ASSERT_TRUE(conn->Recv().ok());
  WireMsg mount;
  mount.op = WireOp::kMount;
  mount.seq = 1;
  ASSERT_TRUE(conn->Send(mount).ok());
  Result<WireMsg> reply = conn->Recv();
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->op, WireOp::kReply) << StatusFromWire(*reply).ToString();
  EXPECT_EQ(reply->nodes, want);
  conn->Close();
  WaitForSessions(&server, 0);
  server.Stop();
}

TEST(NetIntegrationTest, HelloV1IsRefusedCleanly) {
  SegmentServer server;
  ASSERT_TRUE(server.Listen("127.0.0.1", 0).ok());
  ASSERT_TRUE(server.Start().ok());

  Result<Conn> conn = DialTcp("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());
  // A genuine v1 frame: magic + version, no resume fields. It must decode
  // (old peers speak it) and be refused at dispatch with a clean error, not a
  // cut socket or a decode crash.
  ByteWriter w;
  w.U8(static_cast<uint8_t>(WireOp::kHello));
  w.U32(kWireMagic);
  w.U16(1);
  ASSERT_TRUE(conn->SendRaw(w.buffer()).ok());
  Result<WireMsg> reply = conn->Recv();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->op, WireOp::kError);
  EXPECT_EQ(StatusFromWire(*reply).code(), ErrorCode::kUnsupportedVersion);

  conn->Close();
  server.Stop();
}

// --- Abrupt death, grace, and lease reclaim ---

TEST(NetIntegrationTest, WriteLockHolderKilledMidWriteIsReclaimedOnceAfterGrace) {
  SegmentServerOptions opts;
  // Wide enough that the in-grace lease check below cannot lose a scheduling
  // race against the reaper on a loaded machine.
  opts.resume_grace_ms = 300;
  SegmentServer server(nullptr, opts);
  ASSERT_TRUE(server.Listen("127.0.0.1", 0).ok());
  ASSERT_TRUE(server.Start().ok());

  Result<Conn> conn = DialTcp("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());
  WireMsg hello;
  hello.op = WireOp::kHello;
  hello.version = kWireVersion;
  ASSERT_TRUE(conn->Send(hello).ok());
  ASSERT_TRUE(conn->Recv().ok());

  WireMsg create;
  create.op = WireOp::kCreate;
  create.seq = 1;
  create.path = "/mid-write.bin";
  ASSERT_TRUE(conn->Send(create).ok());
  Result<WireMsg> made = conn->Recv();
  ASSERT_TRUE(made.ok());
  uint32_t ino = made->ino;

  WireMsg lock;
  lock.op = WireOp::kLock;
  lock.seq = 2;
  lock.ino = ino;
  lock.pid = 9;
  ASSERT_TRUE(conn->Send(lock).ok());
  ASSERT_TRUE(conn->Recv().ok());

  // Die mid-WRITE: the request goes out, the client is gone before the reply.
  WireMsg write;
  write.op = WireOp::kWrite;
  write.seq = 3;
  write.ino = ino;
  write.offset = 0;
  write.bytes = {1, 2, 3, 4};
  ASSERT_TRUE(conn->Send(write).ok());
  conn->Close();

  // Inside the grace window the lease must still be held (a resume could
  // legitimately come back for it).
  WaitForSessions(&server, 0);  // detached, not yet reaped
  EXPECT_NE(server.sfs().LockOwner(ino), -1);

  // After the grace expires the session is reaped and the lease reclaimed —
  // exactly once, however many poll rounds follow.
  for (int i = 0; i < 200 && server.TotalSessionCount() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.TotalSessionCount(), 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // extra rounds
  server.Stop();

  EXPECT_EQ(server.sfs().LockOwner(ino), -1);
  MetricsSnapshot ms = server.metrics().Snapshot();
  EXPECT_EQ(MetricValue(ms, "net.server.leases_reclaimed"), 1u);
  SfsCheckReport report;
  SfsCheck(&server.sfs()).Run(/*at_boot=*/false, &report);
  EXPECT_TRUE(report.structurally_clean()) << report.ToString();
}

// --- Server restart and warm standby ---

TEST(NetIntegrationTest, ServerRestartFromJournalResumesClientsAndData) {
  std::string dir = ::testing::TempDir();
  std::string state = dir + "restart-state.img";
  std::string journal = dir + "restart-journal.hemj";
  std::remove(state.c_str());
  std::remove(journal.c_str());

  SegmentServerOptions opts;
  opts.state_path = state;
  opts.journal_path = journal;
  auto s1 = std::make_unique<SegmentServer>(nullptr, opts);
  ASSERT_TRUE(s1->AttachJournal().ok());
  ASSERT_TRUE(s1->Listen("127.0.0.1", 0).ok());
  int port = s1->port();
  ASSERT_TRUE(s1->Start().ok());

  HemlockWorld world;
  NetClient client;
  NetClientOptions copts;
  copts.retries = 8;  // the restart gap may straddle a few dials
  copts.backoff_ms = 5;
  client.set_options(copts);
  ASSERT_TRUE(client.Connect("127.0.0.1", port, &world.machine()).ok());
  Result<uint32_t> ino = world.sfs().Create("/durable.bin");
  ASSERT_TRUE(ino.ok());
  const char kData[] = "outlives the server";
  ASSERT_TRUE(world.sfs()
                  .WriteAt(*ino, 0, reinterpret_cast<const uint8_t*>(kData), sizeof(kData))
                  .ok());
  ASSERT_TRUE(world.sfs().LockInode(*ino, /*pid=*/4).ok());

  // Kill the server with no checkpoint: everything must come back from the
  // journal alone — data, sessions, resume tokens, and the held lease.
  s1->Stop();
  s1.reset();

  auto s2 = std::make_unique<SegmentServer>(nullptr, opts);
  ASSERT_TRUE(s2->AttachJournal().ok());
  ASSERT_TRUE(s2->Listen("127.0.0.1", port).ok());
  ASSERT_TRUE(s2->Start().ok());
  EXPECT_EQ(s2->TotalSessionCount(), 1u);  // restored detached, awaiting resume

  // The next RPC reconnects and resumes against the restarted server.
  Result<uint32_t> after = world.sfs().Create("/after-restart.bin");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(client.degraded());
  MetricsSnapshot m = world.machine().metrics().Snapshot();
  EXPECT_GE(MetricValue(m, "net.client.reconnects"), 1u);
  EXPECT_GE(MetricValue(m, "net.client.resumes"), 1u);
  EXPECT_EQ(MetricValue(m, "net.client.degraded"), 0u);

  // The replica reconverged: a remote fsck of the replayed partition is clean.
  Result<std::pair<bool, std::string>> check = client.RemoteCheck();
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_TRUE(check->first) << check->second;

  ASSERT_TRUE(world.sfs().UnlockInode(*ino, /*pid=*/4).ok());
  client.Disconnect();
  WaitForSessions(s2.get(), 0);
  s2->Stop();

  char buf[sizeof(kData)] = {};
  ASSERT_TRUE(s2->sfs().ReadAt(*ino, 0, reinterpret_cast<uint8_t*>(buf), sizeof(kData)).ok());
  EXPECT_STREQ(buf, kData);
  SfsCheckReport report;
  SfsCheck(&s2->sfs()).Run(/*at_boot=*/false, &report);
  EXPECT_TRUE(report.structurally_clean()) << report.ToString();

  std::remove(state.c_str());
  std::remove(journal.c_str());
}

TEST(NetIntegrationTest, StandbyPromotesWhenClientsWalkTheAddressList) {
  std::string dir = ::testing::TempDir();
  std::string state = dir + "standby-state.img";
  std::string journal = dir + "standby-journal.hemj";
  std::remove(state.c_str());
  std::remove(journal.c_str());

  SegmentServerOptions primary_opts;
  primary_opts.state_path = state;
  primary_opts.journal_path = journal;
  auto primary = std::make_unique<SegmentServer>(nullptr, primary_opts);
  ASSERT_TRUE(primary->AttachJournal().ok());
  ASSERT_TRUE(primary->Listen("127.0.0.1", 0).ok());
  ASSERT_TRUE(primary->Start().ok());

  SegmentServerOptions standby_opts = primary_opts;
  standby_opts.standby = true;
  SegmentServer standby(nullptr, standby_opts);
  ASSERT_TRUE(standby.AttachJournal().ok());
  ASSERT_TRUE(standby.Listen("127.0.0.1", 0).ok());
  ASSERT_TRUE(standby.Start().ok());
  EXPECT_TRUE(standby.standby());

  HemlockWorld world;
  NetClient client;
  NetClientOptions copts;
  copts.retries = 8;
  copts.backoff_ms = 5;
  client.set_options(copts);
  std::vector<std::pair<std::string, int>> addrs = {
      {"127.0.0.1", primary->port()}, {"127.0.0.1", standby.port()}};
  ASSERT_TRUE(client.Connect(addrs, &world.machine()).ok());

  Result<uint32_t> ino = world.sfs().Create("/replicated.bin");
  ASSERT_TRUE(ino.ok());
  const char kData[] = "tailed into the standby";
  ASSERT_TRUE(world.sfs()
                  .WriteAt(*ino, 0, reinterpret_cast<const uint8_t*>(kData), sizeof(kData))
                  .ok());

  // The primary dies; the client's next RPC walks the address list, lands on
  // the standby, and the standby promotes itself on that first connection.
  primary->Stop();
  primary.reset();
  Result<uint32_t> after = world.sfs().Create("/after-failover.bin");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(client.degraded());
  EXPECT_FALSE(standby.standby());

  MetricsSnapshot m = world.machine().metrics().Snapshot();
  EXPECT_GE(MetricValue(m, "net.client.reconnects"), 1u);
  EXPECT_GE(MetricValue(m, "net.client.resumes"), 1u);
  EXPECT_EQ(MetricValue(m, "net.client.degraded"), 0u);

  Result<std::pair<bool, std::string>> check = client.RemoteCheck();
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_TRUE(check->first) << check->second;

  client.Disconnect();
  WaitForSessions(&standby, 0);
  standby.Stop();

  char buf[sizeof(kData)] = {};
  ASSERT_TRUE(
      standby.sfs().ReadAt(*ino, 0, reinterpret_cast<uint8_t*>(buf), sizeof(kData)).ok());
  EXPECT_STREQ(buf, kData);

  std::remove(state.c_str());
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace hemlock
