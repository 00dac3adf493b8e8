// Crash-recovery tests for the shared partition: fault injection at every
// registered point, lock-lease cleanup after a dead or wedged creator, and the
// SfsCheck fsck pass over hand-corrupted images.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "src/base/faults.h"
#include "src/obj/object_file.h"
#include "src/posix/posix_heap.h"
#include "src/posix/posix_store.h"
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

uint64_t MetricValue(const MetricsSnapshot& m, const std::string& name) {
  auto it = m.find(name);
  return it == m.end() ? 0 : it->second;
}

// Compiles the shared counter template unless a parseable one already exists —
// the same recompile-if-torn policy hemrun applies to persisted templates. May
// return a crash status when a fault point on the create/write path is armed.
Status CompileTemplateIfNeeded(HemlockWorld* world) {
  (void)world->vfs().MkdirAll("/shm/lib");
  bool reusable = false;
  if (world->vfs().Exists("/shm/lib/counter.o")) {
    Result<std::vector<uint8_t>> bytes = world->vfs().ReadFile("/shm/lib/counter.o");
    reusable = bytes.ok() && ObjectFile::Deserialize(*bytes).ok();
  }
  if (!reusable) {
    CompileOptions opts;
    opts.include_prelude = false;
    return world->CompileTo(kCounterSrc, "/shm/lib/counter.o", opts);
  }
  return OkStatus();
}

void EnsureTemplate(HemlockWorld* world) {
  ASSERT_TRUE(CompileTemplateIfNeeded(world).ok());
}

Result<RunOutcome> RunCounter(HemlockWorld* world) {
  // The resolution manifest rides along so the crash sweep also covers the
  // stable-linking write window (ldl.manifest.write / ldl.manifest.written).
  ExecOptions exec;
  exec.ldl.use_manifest = true;
  return world->RunProgram(kProgSrc, {{"counter.o", ShareClass::kDynamicPublic}}, exec);
}

// On test failure, persist the torn image and fsck report for the CI artifact
// upload (HEMLOCK_RECOVERY_ARTIFACTS names the directory).
void SaveArtifacts(const std::string& tag, const std::vector<uint8_t>& image,
                   const SfsCheckReport& report) {
  const char* dir = std::getenv("HEMLOCK_RECOVERY_ARTIFACTS");
  if (dir == nullptr) {
    return;
  }
  std::ofstream img(std::string(dir) + "/" + tag + ".img", std::ios::binary);
  img.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
  std::ofstream rep(std::string(dir) + "/" + tag + ".fsck.txt");
  rep << report.ToString();
}

// The tentpole acceptance test: discover every fault point the shared-counter
// scenario can hit (a dry run self-registers them), then for each one inject a
// crash at that point, persist whatever torn state resulted, reboot through the
// salvage loader, and require the rerun to succeed and the partition to fsck clean.
TEST(RecoveryTest, CrashAtEveryRegisteredFaultPointRecovers) {
  FaultRegistry& faults = FaultRegistry::Global();
  faults.Reset();

  // Dry run: catalogue the points this scenario exercises (including serialize).
  {
    HemlockWorld world;
    EnsureTemplate(&world);
    Result<RunOutcome> run = RunCounter(&world);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ByteWriter w;
    ASSERT_TRUE(world.sfs().Serialize(&w).ok());
  }
  std::vector<std::string> points = faults.KnownPoints();
  ASSERT_GE(points.size(), 8u) << "fault points lost from the creation/persist paths";
  for (const char* required : {"ldl.manifest.write", "ldl.manifest.written"}) {
    EXPECT_NE(std::find(points.begin(), points.end(), required), points.end())
        << required << " missing: the manifest write window left the sweep";
  }

  for (const std::string& point : points) {
    SCOPED_TRACE("fault point: " + point);
    faults.Reset();
    faults.Arm(point, FaultMode::kCrash);

    std::vector<uint8_t> disk;
    {
      HemlockWorld world;
      // The crash may fire anywhere — even while compiling the template to the
      // shared partition. Any failure before the run counts as the process dying.
      Status setup = CompileTemplateIfNeeded(&world);
      if (setup.ok()) {
        Result<RunOutcome> run = RunCounter(&world);
        if (!run.ok()) {
          EXPECT_TRUE(IsCrash(run.status())) << run.status().ToString();
        }
      } else {
        EXPECT_TRUE(IsCrash(setup)) << setup.ToString();
      }
      // The partition outlives the dead process; persist it exactly as torn as it
      // is. If serialization itself is the armed point, the truncated prefix is
      // the image.
      ByteWriter w;
      (void)world.sfs().Serialize(&w);
      disk = w.Take();
    }
    EXPECT_EQ(faults.TriggerCount(point), 1u) << "the armed crash never fired";
    faults.Reset();

    // Reboot: salvage whatever landed on disk, then the scenario must work again.
    HemlockWorld world;
    ByteReader r(disk);
    SfsCheckReport report;
    Result<std::unique_ptr<SharedFs>> fs = SharedFs::Deserialize(&r, &report);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    world.machine().ReplaceSfs(std::move(*fs));
    EnsureTemplate(&world);
    Result<RunOutcome> rerun = RunCounter(&world);
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    EXPECT_EQ(rerun->exit_code, 0);

    // After the recovery run the partition must be fully consistent.
    SfsCheckReport final_report;
    SfsCheck(&world.sfs()).Run(/*at_boot=*/false, &final_report);
    EXPECT_TRUE(final_report.clean()) << final_report.ToString();
    if (::testing::Test::HasNonfatalFailure()) {
      SaveArtifacts("crash_" + point, disk, report);
    }
  }
  faults.Reset();
}

// The POSIX-embodiment fault points (heap init/attach and the SIGSEGV
// auto-attach path) live outside the simulated-world scenario above, so they
// get their own crash-and-recover sweep against a real PosixStore.
TEST(RecoveryTest, PosixHeapAndAutoAttachFaultPointsRecover) {
  FaultRegistry& faults = FaultRegistry::Global();
  faults.Reset();
  std::string dir = std::string("/tmp/hemlock_recovery_") + std::to_string(::getpid());
  ASSERT_EQ(::system(("rm -rf " + dir).c_str()), 0);
  Result<std::unique_ptr<PosixStore>> opened = PosixStore::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  PosixStore* store = opened->get();

  // Crash between segment creation and header construction: the orphaned
  // segment must read as hostile input (no magic), never as a walkable heap,
  // and a remove + re-create must fully recover.
  faults.Arm("posix.io.heap.init", FaultMode::kCrash);
  Result<PosixHeap> torn = PosixHeap::Create(store, "heap", 1 << 16);
  ASSERT_FALSE(torn.ok());
  EXPECT_TRUE(IsCrash(torn.status())) << torn.status().ToString();
  EXPECT_EQ(faults.TriggerCount("posix.io.heap.init"), 1u);
  faults.Reset();
  Result<PosixHeap> reject = PosixHeap::Attach(store, "heap");
  ASSERT_FALSE(reject.ok());
  EXPECT_TRUE(IsHostileInput(reject.status())) << reject.status().ToString();
  ASSERT_TRUE(store->Remove("heap").ok());
  Result<PosixHeap> heap = PosixHeap::Create(store, "heap", 1 << 16);
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  Result<void*> block = heap->Alloc(64);
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  std::memset(*block, 0x5a, 64);

  // A faulted attach fails cleanly and leaves the heap intact for the retry.
  faults.Arm("posix.io.heap.attach", FaultMode::kError);
  EXPECT_FALSE(PosixHeap::Attach(store, "heap").ok());
  faults.Reset();
  Result<PosixHeap> again = PosixHeap::Attach(store, "heap");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(static_cast<uint8_t*>(*block)[0], 0x5a);

  // The SIGSEGV auto-attach path: an injected failure makes AttachCovering
  // decline (an unreachable segment home), and the retry succeeds.
  Result<PosixSegment> seg = store->Create("lazy", 4096);
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  uint8_t* addr = seg->base;
  ASSERT_TRUE(store->Detach("lazy").ok());
  faults.Arm("posix.io.attach.cover", FaultMode::kError);
  EXPECT_FALSE(store->AttachCovering(addr).ok());
  faults.Reset();
  Result<PosixSegment> covered = store->AttachCovering(addr);
  ASSERT_TRUE(covered.ok()) << covered.status().ToString();
  EXPECT_EQ(covered->base, addr);

  // All three points are now registered and visible to any future sweep.
  std::vector<std::string> points = faults.KnownPoints();
  for (const char* required :
       {"posix.io.heap.init", "posix.io.heap.attach", "posix.io.attach.cover"}) {
    EXPECT_NE(std::find(points.begin(), points.end(), required), points.end()) << required;
  }
  opened->reset();
  (void)::system(("rm -rf " + dir).c_str());
}

// A public module that links lazily into another: its first call faults, and ldl
// rewrites the module file's trailer (truncate to the mapped pages, then write the
// new trailer) after creating both segments.
constexpr char kCallerSrc[] = R"(
  extern int callee(int x);
  int caller(int x) { return callee(x) + 1; }
)";
constexpr char kCalleeSrc[] = "int callee(int x) { return x * 2; }";
constexpr char kCallerProgSrc[] = R"(
  extern int caller(int x);
  int main(void) { putint(caller(20)); puts("\n"); return 0; }
)";

void CompileCallerTemplates(HemlockWorld* world) {
  ASSERT_TRUE(world->vfs().MkdirAll("/shm/lib").ok());
  CompileOptions opts;
  opts.include_prelude = false;
  ASSERT_TRUE(world->CompileTo(kCalleeSrc, "/shm/lib/callee.o", opts).ok());
  opts.module_list = {"callee.o"};
  opts.search_path = {"/shm/lib"};
  ASSERT_TRUE(world->CompileTo(kCallerSrc, "/shm/lib/caller.o", opts).ok());
}

Result<RunOutcome> RunCaller(HemlockWorld* world) {
  return world->RunProgram(kCallerProgSrc, {{"caller.o", ShareClass::kDynamicPublic}});
}

// Crashes at every file truncate and write of a lazily linked run in turn — the
// segment creations and the trailer rewrite at the link fault — and requires the
// rebooted partition to run the program again and fsck clean.
TEST(RecoveryTest, CrashAtEveryTruncateAndWriteOfALazyLinkRecovers) {
  FaultRegistry& faults = FaultRegistry::Global();
  for (const char* point : {"sfs.truncate", "sfs.write"}) {
    uint64_t hits = 0;
    {
      HemlockWorld world;
      CompileCallerTemplates(&world);
      faults.Reset();
      Result<RunOutcome> run = RunCaller(&world);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      ASSERT_EQ(run->stdout_text, "41\n");
      ASSERT_EQ(MetricValue(run->metrics, "ldl.link_faults"), 1u);
      hits = faults.HitCount(point);
    }
    // Two segment creations plus the trailer rewrite.
    ASSERT_GE(hits, 3u) << point;
    for (uint64_t nth = 1; nth <= hits; ++nth) {
      SCOPED_TRACE(std::string(point) + " crash at hit " + std::to_string(nth));
      std::vector<uint8_t> disk;
      {
        HemlockWorld world;
        CompileCallerTemplates(&world);
        faults.Reset();
        faults.Arm(point, FaultMode::kCrash, nth);
        Result<RunOutcome> run = RunCaller(&world);
        if (!run.ok()) {
          EXPECT_TRUE(IsCrash(run.status())) << run.status().ToString();
        }
        EXPECT_EQ(faults.TriggerCount(point), 1u) << "the armed crash never fired";
        faults.Reset();
        ByteWriter w;
        ASSERT_TRUE(world.sfs().Serialize(&w).ok());
        disk = w.Take();
      }
      HemlockWorld world;
      ByteReader r(disk);
      SfsCheckReport report;
      Result<std::unique_ptr<SharedFs>> fs = SharedFs::Deserialize(&r, &report);
      ASSERT_TRUE(fs.ok()) << fs.status().ToString();
      world.machine().ReplaceSfs(std::move(*fs));
      Result<RunOutcome> rerun = RunCaller(&world);
      ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
      EXPECT_EQ(rerun->exit_code, 0);
      EXPECT_EQ(rerun->stdout_text, "41\n");
      SfsCheckReport final_report;
      SfsCheck(&world.sfs()).Run(/*at_boot=*/false, &final_report);
      EXPECT_TRUE(final_report.clean()) << final_report.ToString();
    }
  }
  faults.Reset();
}

// A creator that looks alive but never finishes (wedged): attachers spin on the
// creation lock until the lease expires on the operation clock, then break it.
TEST(RecoveryTest, WedgedCreatorLockBreaksWhenLeaseExpires) {
  FaultRegistry::Global().Reset();
  HemlockWorld world;
  EnsureTemplate(&world);
  Result<RunOutcome> first = RunCounter(&world);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->stdout_text, "1\n");

  Result<SfsStat> st = world.sfs().Stat("/lib/counter");
  ASSERT_TRUE(st.ok());
  // Simulate a wedged-but-alive creator: every pid probes as alive, the module is
  // marked mid-creation, and a foreign pid holds the lock.
  world.sfs().SetPidProber([](int) { return true; });
  world.sfs().set_lock_lease_ops(64);
  ASSERT_TRUE(world.sfs().SetCreationPending(st->ino, true).ok());
  ASSERT_TRUE(world.sfs().LockInode(st->ino, 9999).ok());

  Result<RunOutcome> second = RunCounter(&world);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->exit_code, 0);
  EXPECT_GE(MetricValue(second->metrics, "ldl.lock_retries"), 1u);
  EXPECT_GE(MetricValue(second->metrics, "ldl.publics_rebuilt"), 1u);
  EXPECT_GE(MetricValue(second->metrics, "sfs.locks_broken"), 1u);
  EXPECT_EQ(world.sfs().LockOwner(st->ino), -1);
  EXPECT_FALSE(world.sfs().CreationPending(st->ino));
}

// A provably dead holder loses the lock on the first contended attempt — no
// lease wait needed (the machine's pid prober knows pid 9999 never existed).
TEST(RecoveryTest, DeadHolderLockBrokenImmediately) {
  FaultRegistry::Global().Reset();
  HemlockWorld world;
  EnsureTemplate(&world);
  Result<RunOutcome> first = RunCounter(&world);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  Result<SfsStat> st = world.sfs().Stat("/lib/counter");
  ASSERT_TRUE(st.ok());
  ASSERT_TRUE(world.sfs().SetCreationPending(st->ino, true).ok());
  ASSERT_TRUE(world.sfs().LockInode(st->ino, 9999).ok());

  Result<RunOutcome> second = RunCounter(&world);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->exit_code, 0);
  EXPECT_GE(MetricValue(second->metrics, "sfs.locks_broken"), 1u);
  EXPECT_EQ(MetricValue(second->metrics, "ldl.lock_retries"), 0u);
}

// ---- Hand-corrupted v2 images through the fsck pass ----

void WriteHeader(ByteWriter* w, uint32_t used) {
  w->U32(0x53465348);  // "HSFS"
  w->U32(2);
  w->U32(used);
}

void WriteDirRecord(ByteWriter* w, uint32_t ino, const std::string& path, uint32_t parent,
                    const std::vector<uint32_t>& children, int lock_owner = -1,
                    uint8_t flags = 0) {
  w->U32(ino);
  w->U8(2);  // kDirectory
  w->Str(path);
  w->U32(parent);
  w->I32(lock_owner);
  w->U8(flags);
  w->U32(static_cast<uint32_t>(children.size()));
  for (uint32_t child : children) {
    w->U32(child);
  }
}

void WriteFileRecord(ByteWriter* w, uint32_t ino, const std::string& path, uint32_t parent,
                     uint32_t size, uint32_t extent, int lock_owner = -1, uint8_t flags = 0) {
  w->U32(ino);
  w->U8(1);  // kRegular
  w->Str(path);
  w->U32(parent);
  w->I32(lock_owner);
  w->U8(flags);
  w->U32(size);
  w->U32(extent);
  std::vector<uint8_t> payload(extent, 0xab);
  w->Raw(payload.data(), payload.size());
}

void WriteSymlinkRecord(ByteWriter* w, uint32_t ino, const std::string& path, uint32_t parent,
                        const std::string& target) {
  w->U32(ino);
  w->U8(3);  // kSymlink
  w->Str(path);
  w->U32(parent);
  w->I32(-1);
  w->U8(0);
  w->Str(target);
}

TEST(RecoveryTest, TruncatedImageStrictFailsSalvageKeepsPrefix) {
  ByteWriter w;
  WriteHeader(&w, 2);
  WriteDirRecord(&w, 1, "/", 1, {2});
  WriteFileRecord(&w, 2, "/f", 1, 16, 16);
  std::vector<uint8_t> image = w.Take();
  image.resize(image.size() - 10);  // tear the file record mid-payload

  ByteReader strict(image);
  EXPECT_FALSE(SharedFs::Deserialize(&strict).ok());

  ByteReader salvage(image);
  SfsCheckReport report;
  Result<std::unique_ptr<SharedFs>> fs = SharedFs::Deserialize(&salvage, &report);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  EXPECT_EQ(report.CountOf(SfsIssueKind::kTruncatedImage), 1u);
  EXPECT_TRUE((*fs)->Exists("/"));
  EXPECT_FALSE((*fs)->Exists("/f"));  // the torn record was dropped, not half-kept
}

TEST(RecoveryTest, DuplicateInodeClaimFirstWins) {
  ByteWriter w;
  WriteHeader(&w, 3);
  WriteDirRecord(&w, 1, "/", 1, {2});
  WriteFileRecord(&w, 2, "/f", 1, 4, 4);
  WriteFileRecord(&w, 2, "/imposter", 1, 4, 4);  // same inode = same address
  std::vector<uint8_t> image = w.Take();

  ByteReader strict(image);
  EXPECT_FALSE(SharedFs::Deserialize(&strict).ok());

  ByteReader salvage(image);
  SfsCheckReport report;
  Result<std::unique_ptr<SharedFs>> fs = SharedFs::Deserialize(&salvage, &report);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  EXPECT_EQ(report.CountOf(SfsIssueKind::kDuplicateInode), 1u);
  EXPECT_TRUE((*fs)->Exists("/f"));
  EXPECT_FALSE((*fs)->Exists("/imposter"));
}

TEST(RecoveryTest, LogicalSizeBeyondExtentClamped) {
  ByteWriter w;
  WriteHeader(&w, 2);
  WriteDirRecord(&w, 1, "/", 1, {2});
  WriteFileRecord(&w, 2, "/f", 1, /*size=*/100, /*extent=*/8);
  std::vector<uint8_t> image = w.Take();

  ByteReader r(image);
  SfsCheckReport report;
  Result<std::unique_ptr<SharedFs>> fs = SharedFs::Deserialize(&r, &report);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  EXPECT_GE(report.CountOf(SfsIssueKind::kBadExtent), 1u);
  Result<SfsStat> st = (*fs)->Stat("/f");
  ASSERT_TRUE(st.ok());
  EXPECT_LE(st->size, 8u);
}

TEST(RecoveryTest, DirectoryCycleQuarantined) {
  ByteWriter w;
  WriteHeader(&w, 3);
  WriteDirRecord(&w, 1, "/", 1, {});
  WriteDirRecord(&w, 5, "/a", 6, {6});  // 5 and 6 parent each other: a cycle
  WriteDirRecord(&w, 6, "/a/b", 5, {5});
  std::vector<uint8_t> image = w.Take();

  ByteReader r(image);
  SfsCheckReport report;
  Result<std::unique_ptr<SharedFs>> fs = SharedFs::Deserialize(&r, &report);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  EXPECT_GE(report.CountOf(SfsIssueKind::kOrphan), 2u);
  EXPECT_TRUE((*fs)->Exists("/lost+found"));
  // Quarantined, not destroyed — and the rescued tree is consistent.
  SfsCheckReport again;
  SfsCheck(fs->get()).Run(/*at_boot=*/false, &again);
  EXPECT_TRUE(again.clean()) << again.ToString();
}

TEST(RecoveryTest, OrphanMovedToLostAndFound) {
  ByteWriter w;
  WriteHeader(&w, 2);
  WriteDirRecord(&w, 1, "/", 1, {});
  WriteFileRecord(&w, 3, "/stray", 500, 4, 4);  // parent 500 does not exist
  std::vector<uint8_t> image = w.Take();

  ByteReader r(image);
  SfsCheckReport report;
  Result<std::unique_ptr<SharedFs>> fs = SharedFs::Deserialize(&r, &report);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  EXPECT_GE(report.CountOf(SfsIssueKind::kOrphan), 1u);
  EXPECT_TRUE((*fs)->Exists("/lost+found/ino3"));
  // The file's bytes survived the quarantine.
  Result<SfsStat> st = (*fs)->Stat("/lost+found/ino3");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 4u);
}

TEST(RecoveryTest, StaleLockReleasedAtBoot) {
  ByteWriter w;
  WriteHeader(&w, 2);
  WriteDirRecord(&w, 1, "/", 1, {2});
  WriteFileRecord(&w, 2, "/f", 1, 4, 4, /*lock_owner=*/77);
  std::vector<uint8_t> image = w.Take();

  ByteReader r(image);
  SfsCheckReport report;
  Result<std::unique_ptr<SharedFs>> fs = SharedFs::Deserialize(&r, &report);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  EXPECT_EQ(report.CountOf(SfsIssueKind::kStaleLock), 1u);
  EXPECT_EQ((*fs)->LockOwner(2), -1);
}

TEST(RecoveryTest, IncompleteCreationSurvivesStrictLoadForLdl) {
  ByteWriter w;
  WriteHeader(&w, 2);
  WriteDirRecord(&w, 1, "/", 1, {2});
  WriteFileRecord(&w, 2, "/f", 1, 4, 4, /*lock_owner=*/-1, /*flags=*/1);
  std::vector<uint8_t> image = w.Take();

  // A pending creation is normal reboot debris, not structural damage: the strict
  // loader accepts it and the marker survives for ldl to act on.
  ByteReader r(image);
  Result<std::unique_ptr<SharedFs>> fs = SharedFs::Deserialize(&r);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  EXPECT_TRUE((*fs)->CreationPending(2));
}

TEST(RecoveryTest, SymlinkCycleFlaggedButKept) {
  ByteWriter w;
  WriteHeader(&w, 3);
  WriteDirRecord(&w, 1, "/", 1, {2, 3});
  WriteSymlinkRecord(&w, 2, "/s1", 1, "/shm/s2");
  WriteSymlinkRecord(&w, 3, "/s2", 1, "/shm/s1");
  std::vector<uint8_t> image = w.Take();

  ByteReader r(image);
  SfsCheckReport report;
  Result<std::unique_ptr<SharedFs>> fs = SharedFs::Deserialize(&r, &report);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  EXPECT_GE(report.CountOf(SfsIssueKind::kSymlinkCycle), 1u);
  // Cycles are legal on-disk state; both links survive.
  EXPECT_TRUE((*fs)->Exists("/s1"));
  EXPECT_TRUE((*fs)->Exists("/s2"));
}

}  // namespace
}  // namespace hemlock
