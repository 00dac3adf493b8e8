// Regenerates the checked-in fuzz corpus (tests/corpus/). Run from the repo root:
//
//   ./build/fuzz/hem_make_corpus tests/corpus
//
// Seeds come in two flavours per format: *valid* serializations produced by the
// real encoders (so the fuzzers start from deep in the accept-space), and
// *hostile* variants — truncations, bit flips, patched headers, count bombs —
// that pin the decoders' reject paths. Every seed is replayed as a tier-1 test
// (tests/corpus_test.cpp), so the corpus doubles as a malformed-input
// regression suite: when a fuzzer finds a crash, its reproducer gets a name and
// a home here.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/base/layout.h"
#include "src/base/strings.h"
#include "src/lang/compiler.h"
#include "src/link/image.h"
#include "src/net/wire.h"
#include "src/obj/object_file.h"
#include "src/sfs/shared_fs.h"

using namespace hemlock;

namespace {

int g_written = 0;

void Put(const std::filesystem::path& dir, const std::string& name,
         const std::vector<uint8_t>& bytes) {
  std::filesystem::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", (dir / name).c_str());
    std::exit(1);
  }
  ++g_written;
}

void PutText(const std::filesystem::path& dir, const std::string& name, const std::string& text) {
  Put(dir, name, std::vector<uint8_t>(text.begin(), text.end()));
}

std::vector<uint8_t> Truncate(std::vector<uint8_t> bytes, size_t keep) {
  bytes.resize(keep < bytes.size() ? keep : bytes.size());
  return bytes;
}

std::vector<uint8_t> FlipByte(std::vector<uint8_t> bytes, size_t at) {
  if (at < bytes.size()) {
    bytes[at] ^= 0xFF;
  }
  return bytes;
}

// Overwrites a little-endian u32 field in place (for header surgery).
std::vector<uint8_t> PatchU32(std::vector<uint8_t> bytes, size_t at, uint32_t value) {
  if (at + 4 <= bytes.size()) {
    std::memcpy(bytes.data() + at, &value, 4);
  }
  return bytes;
}

ObjectFile CompiledObject() {
  const char* src =
      "int counter;\n"
      "int bump(int n) { counter = counter + n; return counter; }\n"
      "int main() { return bump(41) + 1; }\n";
  Result<ObjectFile> obj = CompileHemC(src, "corpus_mod");
  if (!obj.ok()) {
    std::fprintf(stderr, "compile failed: %s\n", obj.status().ToString().c_str());
    std::exit(1);
  }
  obj->module_list().push_back("helper");
  obj->search_path().push_back("/lib/shared");
  return *obj;
}

void ObjectSeeds(const std::filesystem::path& dir) {
  std::vector<uint8_t> hof = CompiledObject().Serialize();
  Put(dir, "hof-valid.bin", hof);
  Put(dir, "hof-truncated-half.bin", Truncate(hof, hof.size() / 2));
  Put(dir, "hof-truncated-header.bin", Truncate(hof, 10));
  Put(dir, "hof-bitflip-body.bin", FlipByte(hof, hof.size() / 2));
  Put(dir, "hof-bad-magic.bin", PatchU32(hof, 0, 0x44414544));
  Put(dir, "hof-bad-version.bin", PatchU32(hof, 4, 99));
  // Count bomb: symbol count claims 2^31 entries the stream cannot hold.
  Put(dir, "hof-count-bomb.bin", PatchU32(hof, 8, 0x80000000u));
  Put(dir, "hof-trailing-garbage.bin", [&] {
    std::vector<uint8_t> b = hof;
    b.insert(b.end(), {0xDE, 0xAD, 0xBE, 0xEF});
    return b;
  }());
  PutText(dir, "magic-only.bin", "HOF!");
  Put(dir, "empty.bin", {});

  LoadImage image;
  image.entry = kTextBase;
  ImageSegment text;
  text.vaddr = kTextBase;
  text.mem_size = kPageSize;
  text.executable = true;
  text.bytes = {0x13, 0x00, 0x00, 0x00};  // one encoded word; rest zero-fill
  ImageSegment data;
  data.vaddr = kDataBase;
  data.mem_size = 2 * kPageSize;
  data.executable = false;
  data.bytes = {1, 2, 3, 4};
  image.segments = {text, data};
  image.symbols.push_back({"main", kTextBase, true});
  image.pending.push_back({RelocType::kWord32, kDataBase + 8, "counter", 0});
  image.dynamic_modules.push_back({"mathlib", ShareClass::kDynamicPublic});
  image.search_path.push_back("/lib/shared");
  std::vector<uint8_t> hxe = image.Serialize();
  Put(dir, "hxe-valid.bin", hxe);
  Put(dir, "hxe-truncated.bin", Truncate(hxe, hxe.size() * 2 / 3));
  Put(dir, "hxe-bitflip.bin", FlipByte(hxe, hxe.size() / 3));

  LoadImage overlap = image;
  overlap.segments[1].vaddr = kTextBase;  // collides with the text segment
  Put(dir, "hxe-overlapping-segments.bin", overlap.Serialize());
  LoadImage stray_entry = image;
  stray_entry.entry = kDataBase;  // entry in a non-executable segment
  Put(dir, "hxe-entry-not-executable.bin", stray_entry.Serialize());
  LoadImage unaligned = image;
  unaligned.segments[0].vaddr = kTextBase + 12;  // not page-aligned
  Put(dir, "hxe-unaligned-segment.bin", unaligned.Serialize());

  LinkedModule mod;
  mod.name = "corpus_pub";
  mod.base = kSfsBase;
  mod.text_size = 8;
  mod.data_size = 4;
  mod.bss_size = 16;
  mod.payload = {0x13, 0, 0, 0, 0x13, 0, 0, 0, 7, 0, 0, 0};
  mod.exports.push_back({"entry", kSfsBase, true});
  mod.pending.push_back({RelocType::kWord32, kSfsBase + 8, "extern_cell", 0});
  mod.module_list.push_back("helper");
  std::vector<uint8_t> hml = mod.SerializeFile();
  Put(dir, "hml-valid.bin", hml);
  Put(dir, "hml-truncated.bin", Truncate(hml, hml.size() - 6));
  Put(dir, "hml-bad-footer.bin", FlipByte(hml, hml.size() - 8));
  Put(dir, "hml-trailing-garbage.bin", [&] {
    std::vector<uint8_t> b = hml;
    b.insert(b.end(), 32, 0xAA);
    return b;
  }());
}

void SfsSeeds(const std::filesystem::path& dir) {
  auto serialize = [](const SharedFs& fs) {
    ByteWriter w;
    Status st = fs.Serialize(&w);
    if (!st.ok()) {
      std::fprintf(stderr, "sfs serialize failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    return w.buffer();
  };

  SharedFs empty;
  Put(dir, "sfs-empty.bin", serialize(empty));

  SharedFs fs;
  (void)fs.Mkdir("/lib");
  (void)fs.Create("/lib/mathlib");
  (void)fs.Create("/scratch");
  (void)fs.Symlink("/mathlib", "/lib/mathlib");
  uint32_t ino = *fs.Lookup("/lib/mathlib");
  std::vector<uint8_t> payload(512, 0x5A);
  (void)fs.WriteAt(ino, 0, payload.data(), static_cast<uint32_t>(payload.size()));
  std::vector<uint8_t> img = serialize(fs);
  Put(dir, "sfs-populated.bin", img);
  Put(dir, "sfs-truncated-half.bin", Truncate(img, img.size() / 2));
  Put(dir, "sfs-truncated-header.bin", Truncate(img, 6));
  Put(dir, "sfs-bitflip.bin", FlipByte(img, img.size() / 3));
  Put(dir, "sfs-bad-magic.bin", PatchU32(img, 0, 0x00505845));
  Put(dir, "sfs-bad-version.bin", PatchU32(img, 4, 7));
  // Claims the v1 positional layout over a v2 body.
  Put(dir, "sfs-v1-claim.bin", PatchU32(img, 4, 1024));
  Put(dir, "sfs-count-bomb.bin", PatchU32(img, 8, 0xFFFFFFFFu));

  // PosixStore index files (text). Legacy headerless form is accepted; the
  // checksummed form must match; everything else pins a reject path.
  PutText(dir, "index-legacy-valid.txt", "mathlib 0\nscratch 1\n");
  std::string body = "alpha 0\nbeta 5\n";
  PutText(dir, "index-checksummed-valid.txt",
          StrFormat("#hemidx %08x 2\n", Crc32(body.data(), body.size())) + body);
  PutText(dir, "index-bad-crc.txt", "#hemidx deadbeef 2\n" + body);
  PutText(dir, "index-count-mismatch.txt",
          StrFormat("#hemidx %08x 9\n", Crc32(body.data(), body.size())) + body);
  PutText(dir, "index-duplicate-slot.txt", "alpha 3\nbeta 3\n");
  PutText(dir, "index-slot-out-of-range.txt", "alpha 4096\n");
  PutText(dir, "index-name-traversal.txt", "../escape 0\n");
  PutText(dir, "index-overlong-name.txt", std::string(300, 'n') + " 0\n");
  Put(dir, "index-binary-noise.bin", {0x00, 0xFF, 0x20, 0x0A, 0x80, 0x7F, 0x0A});
}

void WireSeeds(const std::filesystem::path& dir) {
  // Valid payloads, one per interesting shape. The roundtrip fuzzer starts
  // from deep in the accept-space; the hostile variants pin the reject paths.
  WireMsg hello;
  hello.op = WireOp::kHello;
  std::vector<uint8_t> hello_enc = EncodePayload(hello);
  Put(dir, "wire-hello-valid.bin", hello_enc);

  WireMsg fetch;
  fetch.op = WireOp::kFetch;
  fetch.ino = 3;
  fetch.page_list = {0, 1, 255};
  Put(dir, "wire-fetch-valid.bin", EncodePayload(fetch));

  WireMsg flush;
  flush.op = WireOp::kFlush;
  flush.ino = 2;
  flush.size = 5000;
  const std::vector<uint8_t> flush_page(64, 0x5A);  // outlives the page view
  flush.pages.push_back({0, 0, flush_page});
  flush.pages.push_back({1, 0, {}});  // all-zero page travels empty
  std::vector<uint8_t> flush_enc = EncodePayload(flush);
  Put(dir, "wire-flush-valid.bin", flush_enc);

  WireMsg lock;
  lock.op = WireOp::kLock;
  lock.ino = 7;
  lock.pid = 42;
  Put(dir, "wire-lock-valid.bin", EncodePayload(lock));

  WireMsg mount;
  mount.op = WireOp::kReply;
  mount.reply_to = static_cast<uint8_t>(WireOp::kMount);
  WireInval created;
  created.kind = WireInvalKind::kCreated;
  created.ino = 4;
  created.node_type = 1;
  created.path = "/shm/new.bin";
  mount.invals = {created};
  WireNode dir_node;
  dir_node.ino = 2;
  dir_node.type = 2;
  dir_node.path = "/shm";
  dir_node.parent = 1;
  WireNode file_node;
  file_node.ino = 3;
  file_node.type = 1;
  file_node.path = "/shm/a.bin";
  file_node.parent = 2;
  file_node.size = 512;
  mount.nodes = {dir_node, file_node};
  std::vector<uint8_t> mount_enc = EncodePayload(mount);
  Put(dir, "wire-mount-reply-valid.bin", mount_enc);

  WireMsg err;
  err.op = WireOp::kError;
  err.reply_to = static_cast<uint8_t>(WireOp::kLock);
  err.err_code = WireErrorCode(ErrorCode::kWouldBlock);
  err.err_msg = "inode 7 is locked";
  Put(dir, "wire-error-reply-valid.bin", EncodePayload(err));

  WireMsg stats;
  stats.op = WireOp::kReply;
  stats.reply_to = static_cast<uint8_t>(WireOp::kStats);
  stats.stats = {{"net.server.rpcs", 12}};
  Put(dir, "wire-stats-reply-valid.bin", EncodePayload(stats));

  // Hostile variants.
  Put(dir, "wire-truncated-mount.bin", Truncate(mount_enc, mount_enc.size() / 2));
  Put(dir, "wire-truncated-flush.bin", Truncate(flush_enc, flush_enc.size() - 3));
  Put(dir, "wire-bitflip-mount.bin", FlipByte(mount_enc, mount_enc.size() / 3));
  Put(dir, "wire-bad-opcode.bin", {0x00});
  Put(dir, "wire-unknown-opcode.bin", {0x3F, 0x01, 0x02});
  Put(dir, "wire-trailing-garbage.bin", [&] {
    std::vector<uint8_t> b = hello_enc;
    b.insert(b.end(), {0xDE, 0xAD});
    return b;
  }());
  {  // Count bomb: a fetch claiming 2^32-1 page indexes.
    ByteWriter w;
    w.U8(static_cast<uint8_t>(WireOp::kFetch));
    w.U32(3);
    w.U32(0xFFFFFFFFu);
    Put(dir, "wire-count-bomb.bin", w.buffer());
  }
  {  // Bad hello magic.
    ByteWriter w;
    w.U8(static_cast<uint8_t>(WireOp::kHello));
    w.U32(0x44414544);
    w.U16(kWireVersion);
    Put(dir, "wire-bad-magic.bin", w.buffer());
  }
  {  // Invalidation kind outside the enum.
    ByteWriter w;
    w.U8(static_cast<uint8_t>(WireOp::kReply));
    w.U8(static_cast<uint8_t>(WireOp::kBye));
    w.U32(1);
    w.U8(99);
    w.U32(5);
    Put(dir, "wire-bad-inval-kind.bin", w.buffer());
  }
  {  // Relative path in a create.
    WireMsg evil;
    evil.op = WireOp::kCreate;
    evil.path = "shm/../../escape";
    // EncodePayload writes the path verbatim; the decoder must refuse it.
    Put(dir, "wire-relative-path.bin", EncodePayload(evil));
  }
  {  // Page index beyond the 1 MB file.
    WireMsg bad;
    bad.op = WireOp::kFetch;
    bad.ino = 3;
    bad.page_list = {kWirePagesPerFile};
    Put(dir, "wire-page-out-of-range.bin", EncodePayload(bad));
  }

  // v2 fault-tolerance shapes: the resume handshake, version claims, and the
  // weather the chaos transport manufactures (duplication, mid-frame cuts).
  {  // HELLO with a resume token.
    WireMsg resume;
    resume.op = WireOp::kHello;
    resume.resume_session = 3;
    resume.resume_token = 0x9E3779B97F4A7C15ull;
    Put(dir, "wire-hello-v2-resume.bin", EncodePayload(resume));
  }
  {  // A v1 hello (magic + version only): decodes, refused at dispatch.
    ByteWriter w;
    w.U8(static_cast<uint8_t>(WireOp::kHello));
    w.U32(kWireMagic);
    w.U16(1);
    Put(dir, "wire-hello-v1.bin", w.buffer());
  }
  {  // RESYNC with a size claim and page claims.
    WireMsg resync;
    resync.op = WireOp::kResync;
    resync.seq = 9;
    resync.claims.push_back({3, kWireSizeClaim, 512});
    resync.claims.push_back({3, 0, 7});
    resync.claims.push_back({3, 1, 0});
    Put(dir, "wire-resync-valid.bin", EncodePayload(resync));
  }
  {  // A replayed reply served from the at-most-once cache.
    WireMsg replayed;
    replayed.op = WireOp::kReply;
    replayed.reply_to = static_cast<uint8_t>(WireOp::kCreate);
    replayed.seq = 4;
    replayed.replayed = 1;
    replayed.ino = 5;
    Put(dir, "wire-replayed-reply.bin", EncodePayload(replayed));
  }
  {  // A fetch reply whose page records carry write versions.
    WireMsg versioned;
    versioned.op = WireOp::kReply;
    versioned.reply_to = static_cast<uint8_t>(WireOp::kFetch);
    versioned.seq = 2;
    versioned.ino = 3;
    versioned.size = 200;
    const std::vector<uint8_t> page(32, 0x11);  // outlives the page view
    versioned.pages.push_back({0, 41, page});
    versioned.pages.push_back({1, 42, {}});
    Put(dir, "wire-versioned-fetch-reply.bin", EncodePayload(versioned));
  }
  // A duplicated frame, back to back — what chaos `dup` puts on the wire.
  Put(dir, "wire-dup-concat.bin", [&] {
    std::vector<uint8_t> b = flush_enc;
    b.insert(b.end(), flush_enc.begin(), flush_enc.end());
    return b;
  }());
  // Truncated mid-frame — what chaos `trunc` leaves behind.
  Put(dir, "wire-truncated-mid-frame.bin", Truncate(flush_enc, flush_enc.size() / 3));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: hem_make_corpus <corpus-dir>\n");
    return 2;
  }
  std::filesystem::path root = argv[1];
  ObjectSeeds(root / "object");
  SfsSeeds(root / "sfs");
  WireSeeds(root / "wire");
  std::printf("wrote %d seeds under %s\n", g_written, root.c_str());
  return 0;
}
