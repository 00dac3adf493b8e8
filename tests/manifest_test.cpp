// Stable-linking tests: the resolution-manifest codec, and the full warm-start
// lifecycle over the lazy-link module chain — warm hit with zero scope walks,
// single-module invalidation falling back to cold scoped resolution with
// byte-identical output, torn/pending manifests rejected and rebuilt, and a
// crash sweep over the manifest write window.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/bytes.h"
#include "src/base/faults.h"
#include "src/base/strings.h"
#include "src/link/lds.h"
#include "src/link/manifest.h"
#include "src/runtime/world.h"
#include "src/sfs/sfs_check.h"

namespace hemlock {
namespace {

// --- codec ---

ManifestModule MakeModule(const std::string& key, uint64_t src_hash) {
  ManifestModule m;
  m.key = key;
  m.name = key.substr(key.rfind('/') + 1);
  m.cls = ShareClass::kDynamicPublic;
  m.base = 0x40100000;
  m.ino = 7;
  m.src_hash = src_hash;
  m.resolved = {{"c_fn", 0x40100040}, {"c_value", 0x40100010}};
  return m;
}

ResolutionManifest MakeManifest() {
  ManifestImage img;
  img.image_hash = 0xDEADBEEFCAFEF00Dull;
  img.modules.push_back(MakeModule("/shm/lib/modc", 0x1111));
  img.modules.push_back(MakeModule("/shm/lib/modb", 0x2222));
  ManifestImage other;
  other.image_hash = 42;
  other.modules.push_back(MakeModule("/shm/lib/modc", 0x1111));
  ResolutionManifest manifest;
  manifest.Upsert(std::move(img));
  manifest.Upsert(std::move(other));
  return manifest;
}

TEST(ManifestCodec, RoundTripPreservesEverything) {
  ResolutionManifest manifest = MakeManifest();
  Result<ResolutionManifest> back = ResolutionManifest::Deserialize(manifest.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->images.size(), 2u);
  EXPECT_EQ(back->images[0].image_hash, 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(back->images[1].image_hash, 42u);
  ASSERT_EQ(back->images[0].modules.size(), 2u);
  const ManifestModule& m = back->images[0].modules[1];
  EXPECT_EQ(m.key, "/shm/lib/modb");
  EXPECT_EQ(m.name, "modb");
  EXPECT_EQ(m.cls, ShareClass::kDynamicPublic);
  EXPECT_EQ(m.base, 0x40100000u);
  EXPECT_EQ(m.ino, 7u);
  EXPECT_EQ(m.src_hash, 0x2222u);
  ASSERT_EQ(m.resolved.size(), 2u);
  EXPECT_EQ(m.resolved[0], (std::pair<std::string, uint32_t>{"c_fn", 0x40100040u}));
  // The structural digest survives the trip too.
  EXPECT_EQ(back->images[0].ModuleSetHash(), manifest.images[0].ModuleSetHash());
}

TEST(ManifestCodec, FindImageAndLruEviction) {
  ResolutionManifest manifest;
  for (uint64_t i = 1; i <= kManifestMaxImages + 1; ++i) {
    ManifestImage img;
    img.image_hash = i;
    manifest.Upsert(std::move(img));
  }
  EXPECT_EQ(manifest.images.size(), kManifestMaxImages);
  EXPECT_EQ(manifest.FindImage(1), nullptr) << "least-recently-used image must fall off";
  ASSERT_NE(manifest.FindImage(2), nullptr);
  ASSERT_NE(manifest.FindImage(kManifestMaxImages + 1), nullptr);
  // Re-upserting an existing image refreshes it instead of duplicating it.
  ManifestImage again;
  again.image_hash = 2;
  manifest.Upsert(std::move(again));
  EXPECT_EQ(manifest.images.size(), kManifestMaxImages);
  EXPECT_EQ(manifest.images.back().image_hash, 2u);
}

TEST(ManifestCodec, BadMagicIsCorruptData) {
  std::vector<uint8_t> bytes = MakeManifest().Serialize();
  bytes[0] ^= 0xFF;
  Result<ResolutionManifest> r = ResolutionManifest::Deserialize(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kCorruptData);
}

TEST(ManifestCodec, FutureVersionIsUnsupportedNotCorrupt) {
  std::vector<uint8_t> bytes = MakeManifest().Serialize();
  bytes[4] = 99;  // little-endian version word follows the magic
  Result<ResolutionManifest> r = ResolutionManifest::Deserialize(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kUnsupportedVersion)
      << "version skew must be distinguishable from a torn file";
}

TEST(ManifestCodec, FlippedBodyByteFailsTheChecksum) {
  std::vector<uint8_t> bytes = MakeManifest().Serialize();
  bytes[bytes.size() - 1] ^= 0x01;
  Result<ResolutionManifest> r = ResolutionManifest::Deserialize(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kCorruptData);
}

TEST(ManifestCodec, TruncationAndTrailingGarbageRejected) {
  std::vector<uint8_t> bytes = MakeManifest().Serialize();
  std::vector<uint8_t> torn(bytes.begin(), bytes.end() - 9);
  EXPECT_EQ(ResolutionManifest::Deserialize(torn).status().code(), ErrorCode::kCorruptData);
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_EQ(ResolutionManifest::Deserialize(padded).status().code(), ErrorCode::kCorruptData);
}

TEST(ManifestCodec, HostileImageCountIsCappedNotAllocated) {
  // A crafted header promising 4 billion images, with a *valid* checksum over the
  // lying body — the count cap must reject it before any allocation happens.
  ByteWriter body;
  body.U32(0xFFFFFFFF);
  ByteWriter w;
  w.U32(0x21464D48);  // "HMF!"
  w.U32(2);           // current manifest version
  w.U32(Crc32(body.buffer().data(), body.size()));
  w.Raw(body.buffer().data(), body.size());
  Result<ResolutionManifest> r = ResolutionManifest::Deserialize(w.Take());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kCorruptData);
}

TEST(ManifestCodec, ZeroSrcHashRejected) {
  // src_hash 0 means "unverifiable"; the writer never records it, so the reader
  // treats it as corruption rather than trusting an uncheckable record.
  ResolutionManifest manifest = MakeManifest();
  manifest.images[0].modules[0].src_hash = 0;
  Result<ResolutionManifest> r = ResolutionManifest::Deserialize(manifest.Serialize());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kCorruptData);
}

// --- warm-start lifecycle over the lazy-link chain ---

constexpr char kModC[] = R"(
  int c_value = 7;
  int c_fn(int x) { return x + c_value; }
)";
constexpr char kModBTimes2[] = R"(
  extern int c_fn(int x);
  int b_fn(int x) { return c_fn(x) * 2; }
)";
constexpr char kModBTimes3[] = R"(
  extern int c_fn(int x);
  int b_fn(int x) { return c_fn(x) * 3; }
)";
constexpr char kModA[] = R"(
  extern int b_fn(int x);
  int a_used(int x) { return b_fn(x) + 1; }
)";
constexpr char kProgram[] = R"(
  extern int a_used(int x);
  int main(void) {
    putint(a_used(10));
    puts("\n");
    return 0;
  }
)";

Status CompileModB(HemlockWorld& world, const char* source) {
  CompileOptions opts;
  opts.include_prelude = false;
  opts.module_list = {"modc.o"};
  opts.search_path = {"/shm/lib"};
  return world.CompileTo(source, "/shm/lib/modb.o", opts);
}

Status BuildChain(HemlockWorld& world) {
  RETURN_IF_ERROR(world.vfs().MkdirAll("/shm/lib"));
  CompileOptions leaf;
  leaf.include_prelude = false;
  RETURN_IF_ERROR(world.CompileTo(kModC, "/shm/lib/modc.o", leaf));
  RETURN_IF_ERROR(CompileModB(world, kModBTimes2));
  CompileOptions a_opts;
  a_opts.include_prelude = false;
  a_opts.module_list = {"modb.o"};
  a_opts.search_path = {"/shm/lib"};
  return world.CompileTo(kModA, "/shm/lib/moda.o", a_opts);
}

struct ChainRun {
  int exit_code = 0;
  std::string stdout_text;
  std::shared_ptr<Ldl> ldl;

  uint64_t Metric(const std::string& name) const { return ldl->metrics().Get(name); }
};

// Compile-link-exec-run the chain program. The program source, module set, and
// link order are fixed, so every world that runs this produces the same load
// image — which is exactly what keys the manifest.
Result<ChainRun> RunChain(HemlockWorld& world, bool use_manifest) {
  RETURN_IF_ERROR(world.CompileTo(kProgram, "/home/user/prog.o"));
  ASSIGN_OR_RETURN(LoadImage image,
                   world.Link({.inputs = {{"prog.o", ShareClass::kStaticPrivate},
                                          {"moda.o", ShareClass::kDynamicPublic}},
                               .lib_dirs = {"/shm/lib"}}));
  ExecOptions exec;
  exec.ldl.use_manifest = use_manifest;
  ASSIGN_OR_RETURN(ExecResult run, world.Exec(image, exec));
  ASSIGN_OR_RETURN(int status, world.RunToExit(run.pid));
  ChainRun out;
  out.exit_code = status;
  out.stdout_text = world.machine().FindProcess(run.pid)->stdout_text();
  out.ldl = run.ldl;
  return out;
}

Result<std::vector<uint8_t>> SaveDisk(HemlockWorld& world) {
  ByteWriter w;
  RETURN_IF_ERROR(world.sfs().Serialize(&w));
  return w.Take();
}

// Boot a world from a serialized partition (the reboot-with-salvage idiom).
Status RestoreDisk(HemlockWorld& world, const std::vector<uint8_t>& disk) {
  ByteReader r(disk);
  SfsCheckReport report;
  ASSIGN_OR_RETURN(std::unique_ptr<SharedFs> fs, SharedFs::Deserialize(&r, &report));
  world.machine().ReplaceSfs(std::move(fs));
  return OkStatus();
}

class ManifestLifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().Reset(); }
  void TearDown() override { FaultRegistry::Global().Reset(); }

  // Cold run with the manifest on; returns the partition image it left behind.
  std::vector<uint8_t> ColdRunDisk(std::string* stdout_text = nullptr) {
    HemlockWorld world;
    EXPECT_TRUE(BuildChain(world).ok());
    Result<ChainRun> cold = RunChain(world, /*use_manifest=*/true);
    EXPECT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_EQ(cold->exit_code, 0);
    EXPECT_EQ(cold->stdout_text, "35\n");
    EXPECT_EQ(cold->Metric("ldl.manifest.hits"), 0u);
    EXPECT_GE(cold->Metric("ldl.manifest.rebuilds"), 1u);
    if (stdout_text != nullptr) {
      *stdout_text = cold->stdout_text;
    }
    Result<std::vector<uint8_t>> disk = SaveDisk(world);
    EXPECT_TRUE(disk.ok());
    return disk.ok() ? *disk : std::vector<uint8_t>{};
  }
};

TEST_F(ManifestLifecycleTest, WarmStartSkipsScopeWalksEntirely) {
  std::string cold_stdout;
  std::vector<uint8_t> disk = ColdRunDisk(&cold_stdout);
  ASSERT_FALSE(disk.empty());

  HemlockWorld warm_world;
  ASSERT_TRUE(RestoreDisk(warm_world, disk).ok());
  Result<ChainRun> warm = RunChain(warm_world, /*use_manifest=*/true);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->exit_code, 0);
  // The acceptance bar: byte-identical output, recorded resolutions installed,
  // and not a single scoped lookup left to do.
  EXPECT_EQ(warm->stdout_text, cold_stdout);
  EXPECT_GE(warm->Metric("ldl.manifest.hits"), 2u) << "chain modules must warm-hit";
  EXPECT_EQ(warm->Metric("ldl.manifest.misses"), 0u);
  EXPECT_EQ(warm->Metric("ldl.manifest.rejected"), 0u);
  EXPECT_EQ(warm->Metric("ldl.cache_misses"), 0u)
      << "a verified warm start must never fall through to a scope walk";
  EXPECT_EQ(warm->Metric("ldl.scope_walks"), 0u);
  // Nothing new was resolved, so the manifest file was left alone.
  EXPECT_EQ(warm->Metric("ldl.manifest.rebuilds"), 0u);
}

TEST_F(ManifestLifecycleTest, SingleChangedModuleHashMismatchFallsBackCold) {
  std::vector<uint8_t> disk = ColdRunDisk();
  ASSERT_FALSE(disk.empty());

  // Relink the world with a changed modb. Public segments embed their patched
  // call sites, so changing one module means relinking its dependents too —
  // drop every linked public and let the next run rebuild them from templates.
  // The rebuild runs with the manifest *off*, so the manifest on disk still
  // records the old hashes when the rebuilt modules take their places.
  HemlockWorld rebuild_world;
  ASSERT_TRUE(RestoreDisk(rebuild_world, disk).ok());
  for (const char* pub : {"/shm/lib/moda", "/shm/lib/modb", "/shm/lib/modc"}) {
    ASSERT_TRUE(rebuild_world.vfs().Unlink(pub).ok()) << pub;
  }
  ASSERT_TRUE(CompileModB(rebuild_world, kModBTimes3).ok());
  Result<ChainRun> rebuilt = RunChain(rebuild_world, /*use_manifest=*/false);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  ASSERT_EQ(rebuilt->stdout_text, "52\n");  // (10 + 7) * 3 + 1
  Result<std::vector<uint8_t>> changed_disk = SaveDisk(rebuild_world);
  ASSERT_TRUE(changed_disk.ok());

  // Warm attempt against the stale manifest: modb's recorded hash no longer
  // matches the module on disk. All-or-nothing — one stale module disqualifies
  // the whole image record, and verification stops at the first mismatch.
  HemlockWorld warm_world;
  ASSERT_TRUE(RestoreDisk(warm_world, *changed_disk).ok());
  Result<ChainRun> warm = RunChain(warm_world, /*use_manifest=*/true);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->exit_code, 0);
  EXPECT_EQ(warm->stdout_text, "52\n");
  EXPECT_EQ(warm->Metric("ldl.manifest.hits"), 0u);
  EXPECT_EQ(warm->Metric("ldl.manifest.misses"), 1u);
  EXPECT_EQ(warm->Metric("ldl.manifest.rejected"), 0u)
      << "a hash mismatch is a miss, not a corrupt file";
  EXPECT_GE(warm->Metric("ldl.manifest.rebuilds"), 1u) << "fresh truth must be re-recorded";

  // Differential: the same world with the manifest off produces byte-identical
  // output — the fallback is ordinary scoped resolution, nothing else.
  HemlockWorld plain_world;
  ASSERT_TRUE(RestoreDisk(plain_world, *changed_disk).ok());
  Result<ChainRun> plain = RunChain(plain_world, /*use_manifest=*/false);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->exit_code, warm->exit_code);
  EXPECT_EQ(plain->stdout_text, warm->stdout_text);

  // And now that the manifest records the new chain, the next start is warm again.
  Result<std::vector<uint8_t>> disk2 = SaveDisk(warm_world);
  ASSERT_TRUE(disk2.ok());
  HemlockWorld rewarmed;
  ASSERT_TRUE(RestoreDisk(rewarmed, *disk2).ok());
  Result<ChainRun> again = RunChain(rewarmed, /*use_manifest=*/true);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->stdout_text, "52\n");
  EXPECT_GE(again->Metric("ldl.manifest.hits"), 2u);
  EXPECT_EQ(again->Metric("ldl.cache_misses"), 0u);
}

TEST_F(ManifestLifecycleTest, TornManifestRejectedThenRebuilt) {
  std::vector<uint8_t> disk = ColdRunDisk();
  ASSERT_FALSE(disk.empty());

  HemlockWorld world;
  ASSERT_TRUE(RestoreDisk(world, disk).ok());
  // Flip one byte inside the manifest body, the way a torn write would.
  Result<SfsStat> st = world.sfs().Stat(Vfs::SfsRelative(kLdlManifestPath));
  ASSERT_TRUE(st.ok()) << "cold run must have left a manifest behind";
  uint8_t byte = 0;
  ASSERT_TRUE(world.sfs().ReadAt(st->ino, 16, &byte, 1).ok());
  byte ^= 0xFF;
  ASSERT_TRUE(world.sfs().WriteAt(st->ino, 16, &byte, 1).ok());

  Result<ChainRun> run = RunChain(world, /*use_manifest=*/true);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->exit_code, 0);
  EXPECT_EQ(run->stdout_text, "35\n");
  EXPECT_GE(run->Metric("ldl.manifest.rejected"), 1u);
  EXPECT_EQ(run->Metric("ldl.manifest.hits"), 0u);
  EXPECT_GE(run->Metric("ldl.manifest.rebuilds"), 1u) << "a rejected manifest must be replaced";

  // The replacement is intact: the next boot warm-starts off it.
  Result<std::vector<uint8_t>> disk2 = SaveDisk(world);
  ASSERT_TRUE(disk2.ok());
  HemlockWorld next;
  ASSERT_TRUE(RestoreDisk(next, *disk2).ok());
  Result<ChainRun> warm = RunChain(next, /*use_manifest=*/true);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_GE(warm->Metric("ldl.manifest.hits"), 2u);
}

TEST_F(ManifestLifecycleTest, PendingCreationMarkerRejectsTheManifest) {
  std::vector<uint8_t> disk = ColdRunDisk();
  ASSERT_FALSE(disk.empty());

  HemlockWorld world;
  ASSERT_TRUE(RestoreDisk(world, disk).ok());
  // A writer that died mid-write leaves the marker up; the bytes underneath may
  // even parse, but they cannot be trusted.
  Result<SfsStat> st = world.sfs().Stat(Vfs::SfsRelative(kLdlManifestPath));
  ASSERT_TRUE(st.ok());
  ASSERT_TRUE(world.sfs().SetCreationPending(st->ino, true).ok());

  Result<ChainRun> run = RunChain(world, /*use_manifest=*/true);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->exit_code, 0);
  EXPECT_EQ(run->stdout_text, "35\n");
  EXPECT_GE(run->Metric("ldl.manifest.rejected"), 1u);
  EXPECT_EQ(run->Metric("ldl.manifest.hits"), 0u);
}

TEST_F(ManifestLifecycleTest, ManifestOffNeverTouchesTheFile) {
  std::vector<uint8_t> disk = ColdRunDisk();
  ASSERT_FALSE(disk.empty());

  HemlockWorld world;
  ASSERT_TRUE(RestoreDisk(world, disk).ok());
  Result<SfsStat> before = world.sfs().Stat(Vfs::SfsRelative(kLdlManifestPath));
  ASSERT_TRUE(before.ok());
  Result<ChainRun> run = RunChain(world, /*use_manifest=*/false);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->stdout_text, "35\n");
  EXPECT_EQ(run->Metric("ldl.manifest.hits"), 0u);
  EXPECT_EQ(run->Metric("ldl.manifest.rebuilds"), 0u);
  Result<SfsStat> after = world.sfs().Stat(Vfs::SfsRelative(kLdlManifestPath));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size, before->size);
}

// --- crashes inside the manifest write window ---

constexpr const char* kManifestWritePoints[] = {"ldl.manifest.write", "ldl.manifest.written"};

TEST_F(ManifestLifecycleTest, CrashDuringStartupWriteSalvagesOnReboot) {
  FaultRegistry& faults = FaultRegistry::Global();
  for (const char* point : kManifestWritePoints) {
    faults.Reset();
    std::vector<uint8_t> disk;
    {
      // Cold run: the first manifest write happens at startup, with the
      // pending marker already raised — crash inside the window.
      HemlockWorld world;
      ASSERT_TRUE(BuildChain(world).ok());
      faults.Arm(point, FaultMode::kCrash);
      Result<ChainRun> run = RunChain(world, /*use_manifest=*/true);
      EXPECT_FALSE(run.ok()) << point << ": the armed crash never surfaced";
      EXPECT_EQ(faults.TriggerCount(point), 1u);
      ByteWriter w;
      (void)world.sfs().Serialize(&w);
      disk = w.Take();
    }
    faults.Reset();

    // Reboot with salvage: the torn manifest must not be trusted, the scenario
    // must work again, and the partition must check out clean afterwards.
    HemlockWorld world;
    ASSERT_TRUE(RestoreDisk(world, disk).ok());
    Result<ChainRun> rerun = RunChain(world, /*use_manifest=*/true);
    ASSERT_TRUE(rerun.ok()) << point << ": " << rerun.status().ToString();
    EXPECT_EQ(rerun->exit_code, 0) << point;
    EXPECT_EQ(rerun->stdout_text, "35\n") << point;
    EXPECT_EQ(rerun->Metric("ldl.manifest.hits"), 0u)
        << point << ": a torn manifest must never warm-start";
    SfsCheckReport report;
    SfsCheck(&world.sfs()).Run(/*at_boot=*/false, &report);
    EXPECT_TRUE(report.clean()) << point << ": " << report.ToString();
  }
}

TEST_F(ManifestLifecycleTest, CrashDuringFaultTimeFlushSalvagesOnReboot) {
  FaultRegistry& faults = FaultRegistry::Global();
  for (const char* point : kManifestWritePoints) {
    faults.Reset();
    std::vector<uint8_t> disk;
    {
      // A cold run writes the manifest once at startup and again after each
      // link fault adds resolutions. Arm the *second* write: that one runs
      // inside the fault handler. A crash there is a fatal fault — the process
      // dies, the machine survives, the marker stays up.
      HemlockWorld world;
      ASSERT_TRUE(BuildChain(world).ok());
      faults.Arm(point, FaultMode::kCrash, /*nth=*/2);
      Result<ChainRun> run = RunChain(world, /*use_manifest=*/true);
      ASSERT_TRUE(run.ok()) << point << ": " << run.status().ToString();
      EXPECT_NE(run->exit_code, 0) << point;
      EXPECT_EQ(faults.TriggerCount(point), 1u) << point << ": the armed crash never fired";
      ByteWriter w;
      (void)world.sfs().Serialize(&w);
      disk = w.Take();
    }
    faults.Reset();

    HemlockWorld world;
    ASSERT_TRUE(RestoreDisk(world, disk).ok());
    Result<ChainRun> rerun = RunChain(world, /*use_manifest=*/true);
    ASSERT_TRUE(rerun.ok()) << point << ": " << rerun.status().ToString();
    EXPECT_EQ(rerun->exit_code, 0) << point;
    EXPECT_EQ(rerun->stdout_text, "35\n") << point;
    SfsCheckReport report;
    SfsCheck(&world.sfs()).Run(/*at_boot=*/false, &report);
    EXPECT_TRUE(report.clean()) << point << ": " << report.ToString();
  }
}

// --- one template hash for lds, ldl create and manifest verification ---

constexpr char kStaticPublicSrc[] = "int s_fn(int x) { return x + 100; }";
constexpr char kPrivateSrc[] = "int p_fn(int x) { return x + 1000; }";
constexpr char kAllClassesProgram[] = R"(
  extern int a_used(int x);
  extern int s_fn(int x);
  extern int p_fn(int x);
  int main(void) {
    putint(a_used(10) + s_fn(1) + p_fn(2));
    puts("\n");
    return 0;
  }
)";

// The chain (dynamic public, created by ldl), a static public module (created by
// lds) and a dynamic private instance, with the manifest on.
Result<ChainRun> RunAllClasses(HemlockWorld& world) {
  CompileOptions leaf;
  leaf.include_prelude = false;
  if (!world.vfs().Exists("/shm/lib/stat.o")) {
    RETURN_IF_ERROR(world.CompileTo(kStaticPublicSrc, "/shm/lib/stat.o", leaf));
  }
  // Private templates live off the partition, so every boot compiles its own copy.
  RETURN_IF_ERROR(world.CompileTo(kPrivateSrc, "/usr/lib/priv.o", leaf));
  RETURN_IF_ERROR(world.CompileTo(kAllClassesProgram, "/home/user/prog.o"));
  ASSIGN_OR_RETURN(LoadImage image,
                   world.Link({.inputs = {{"prog.o", ShareClass::kStaticPrivate},
                                          {"stat.o", ShareClass::kStaticPublic},
                                          {"moda.o", ShareClass::kDynamicPublic},
                                          {"priv.o", ShareClass::kDynamicPrivate}},
                               .lib_dirs = {"/shm/lib"}}));
  ExecOptions exec;
  exec.ldl.use_manifest = true;
  ASSIGN_OR_RETURN(ExecResult run, world.Exec(image, exec));
  ASSIGN_OR_RETURN(int status, world.RunToExit(run.pid));
  ChainRun out;
  out.exit_code = status;
  out.stdout_text = world.machine().FindProcess(run.pid)->stdout_text();
  out.ldl = run.ldl;
  return out;
}

uint64_t TemplateHashOf(HemlockWorld& world, const std::string& tpl_path, uint32_t base) {
  Result<std::vector<uint8_t>> bytes = world.vfs().ReadFile(tpl_path);
  EXPECT_TRUE(bytes.ok()) << tpl_path;
  return bytes.ok() ? LinkedTemplateHash(*bytes, base) : 0;
}

TEST_F(ManifestLifecycleTest, EveryStampIsTheTemplateFileHash) {
  HemlockWorld world;
  ASSERT_TRUE(BuildChain(world).ok());
  Result<ChainRun> cold = RunAllClasses(world);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_EQ(cold->stdout_text, "1138\n");

  // lds stamped stat; ldl's create path stamped the chain.
  for (const char* module : {"/shm/lib/stat", "/shm/lib/moda", "/shm/lib/modb", "/shm/lib/modc"}) {
    SCOPED_TRACE(module);
    Result<std::vector<uint8_t>> bytes = world.vfs().ReadFile(module);
    ASSERT_TRUE(bytes.ok());
    Result<LinkedModule> mod = LinkedModule::DeserializeFile(*bytes);
    ASSERT_TRUE(mod.ok()) << mod.status().ToString();
    EXPECT_EQ(mod->template_hash, TemplateHashOf(world, std::string(module) + ".o", mod->base));
  }

  // The manifest's records — the private one is what a warm start re-verifies.
  Result<std::vector<uint8_t>> bytes = world.vfs().ReadFile(kLdlManifestPath);
  ASSERT_TRUE(bytes.ok());
  Result<ResolutionManifest> manifest = ResolutionManifest::Deserialize(*bytes);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(manifest->images.size(), 1u);
  const std::vector<ManifestModule>& records = manifest->images[0].modules;
  ASSERT_EQ(records.size(), 5u);  // stat, moda, modb, modc, priv
  bool saw_private = false;
  for (const ManifestModule& rec : records) {
    SCOPED_TRACE(rec.key);
    std::string tpl = IsPublic(rec.cls) ? rec.key + ".o" : rec.key;
    EXPECT_EQ(rec.src_hash, TemplateHashOf(world, tpl, rec.base));
    saw_private = saw_private || rec.cls == ShareClass::kDynamicPrivate;
  }
  EXPECT_TRUE(saw_private);

  // A warm start after the cold one verifies and installs every record.
  Result<std::vector<uint8_t>> disk = SaveDisk(world);
  ASSERT_TRUE(disk.ok());
  HemlockWorld warm_world;
  ASSERT_TRUE(RestoreDisk(warm_world, *disk).ok());
  Result<ChainRun> warm = RunAllClasses(warm_world);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->stdout_text, cold->stdout_text);
  EXPECT_EQ(warm->Metric("ldl.manifest.hits"), records.size());
  EXPECT_EQ(warm->Metric("ldl.manifest.misses"), 0u);
  EXPECT_EQ(warm->Metric("ldl.manifest.rejected"), 0u);
}

}  // namespace
}  // namespace hemlock
