// Unit tests for the file systems: SharedFs (the special partition), MemFs (the
// ordinary disk), and the Vfs router.
#include <gtest/gtest.h>

#include "src/base/layout.h"
#include "src/base/strings.h"
#include "src/sfs/vfs.h"

namespace hemlock {
namespace {

// --- SharedFs ---

TEST(SharedFsTest, CreateAssignsFixedAddress) {
  SharedFs fs;
  Result<uint32_t> a = fs.Create("/a");
  Result<uint32_t> b = fs.Create("/b");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*fs.AddressOf(*a), SfsAddressForInode(*a));
  EXPECT_NE(*fs.AddressOf(*a), *fs.AddressOf(*b));
  // Addresses are slot-aligned within the region.
  EXPECT_GE(*fs.AddressOf(*a), kSfsBase);
  EXPECT_LT(*fs.AddressOf(*b), kSfsLimit);
  EXPECT_EQ((*fs.AddressOf(*a) - kSfsBase) % kSfsMaxFileBytes, 0u);
}

TEST(SharedFsTest, LargeDirectoryLookupAndRecreate) {
  SharedFs fs;
  ASSERT_TRUE(fs.Mkdir("/big").ok());
  std::vector<uint32_t> inos;
  for (int i = 0; i < 150; ++i) {
    Result<uint32_t> ino = fs.Create(StrFormat("/big/f%03d", i));
    ASSERT_TRUE(ino.ok()) << ino.status().ToString();
    inos.push_back(*ino);
  }
  EXPECT_EQ(*fs.Lookup("/big/f000"), inos.front());
  EXPECT_EQ(*fs.Lookup("/big/f149"), inos.back());
  EXPECT_EQ(fs.Lookup("/big/f150").status().code(), ErrorCode::kNotFound);
  // A leaf must match whole: neither a suffix nor a prefix of another entry's name.
  EXPECT_EQ(fs.Lookup("/big/149").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(fs.Lookup("/big/f14").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(fs.Create("/big/f149").status().code(), ErrorCode::kAlreadyExists);

  ASSERT_TRUE(fs.Unlink("/big/f075").ok());
  EXPECT_EQ(fs.Lookup("/big/f075").status().code(), ErrorCode::kNotFound);
  Result<uint32_t> again = fs.Create("/big/f075");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*fs.Lookup("/big/f075"), *again);
  EXPECT_EQ(*fs.Lookup("/big//./f075"), *again);  // non-canonical spellings still walk
}

TEST(SharedFsTest, ReadWriteAndTruncate) {
  SharedFs fs;
  uint32_t ino = *fs.Create("/data");
  uint8_t payload[5] = {1, 2, 3, 4, 5};
  ASSERT_TRUE(fs.WriteAt(ino, 10, payload, 5).ok());
  EXPECT_EQ(fs.StatInode(ino)->size, 15u);
  uint8_t out[5] = {0};
  EXPECT_EQ(*fs.ReadAt(ino, 10, out, 5), 5u);
  EXPECT_EQ(out[4], 5);
  // Reads past EOF return 0.
  EXPECT_EQ(*fs.ReadAt(ino, 100, out, 5), 0u);
  // Holes read as zero.
  EXPECT_EQ(*fs.ReadAt(ino, 0, out, 5), 5u);
  EXPECT_EQ(out[0], 0);
  ASSERT_TRUE(fs.Truncate(ino, 3).ok());
  EXPECT_EQ(fs.StatInode(ino)->size, 3u);
}

TEST(SharedFsTest, OneMegabyteLimitEnforced) {
  SharedFs fs;
  uint32_t ino = *fs.Create("/big");
  uint8_t byte = 1;
  EXPECT_TRUE(fs.WriteAt(ino, kSfsMaxFileBytes - 1, &byte, 1).ok());
  Status st = fs.WriteAt(ino, kSfsMaxFileBytes, &byte, 1);
  EXPECT_EQ(st.code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(fs.Truncate(ino, kSfsMaxFileBytes + 1).code(), ErrorCode::kOutOfRange);
}

TEST(SharedFsTest, InodeExhaustion) {
  SharedFs fs;
  // Root consumes inode 1; 1023 files fit.
  for (uint32_t i = 0; i < kSfsMaxInodes - 1; ++i) {
    ASSERT_TRUE(fs.Create("/f" + std::to_string(i)).ok()) << i;
  }
  Result<uint32_t> extra = fs.Create("/one-too-many");
  ASSERT_FALSE(extra.ok());
  EXPECT_EQ(extra.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(fs.FreeInodes(), 0u);
  // Unlinking frees the inode (and its address slot) for reuse.
  ASSERT_TRUE(fs.Unlink("/f0").ok());
  EXPECT_TRUE(fs.Create("/reused").ok());
}

TEST(SharedFsTest, HardLinksProhibited) {
  SharedFs fs;
  ASSERT_TRUE(fs.Create("/orig").ok());
  EXPECT_EQ(fs.Link("/orig", "/alias").code(), ErrorCode::kPermissionDenied);
}

TEST(SharedFsTest, SymlinksAllowedAndResolvable) {
  SharedFs fs;
  ASSERT_TRUE(fs.Create("/target").ok());
  ASSERT_TRUE(fs.Symlink("/link", "/shm/target").ok());
  EXPECT_EQ(*fs.ReadLink("/link"), "/shm/target");
  Result<SfsStat> st = fs.Stat("/link");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->type, SfsNodeType::kSymlink);
}

TEST(SharedFsTest, DirectoriesAndListing) {
  SharedFs fs;
  ASSERT_TRUE(fs.Mkdir("/lib").ok());
  ASSERT_TRUE(fs.Create("/lib/b").ok());
  ASSERT_TRUE(fs.Create("/lib/a").ok());
  Result<std::vector<std::string>> names = fs.List("/lib");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"a", "b"}));  // sorted
  // Non-empty directory cannot be unlinked.
  EXPECT_EQ(fs.Unlink("/lib").code(), ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(fs.Unlink("/lib/a").ok());
  ASSERT_TRUE(fs.Unlink("/lib/b").ok());
  EXPECT_TRUE(fs.Unlink("/lib").ok());
}

TEST(SharedFsTest, AddrLookupBothModes) {
  SharedFs fs;
  uint32_t ino = *fs.Create("/seg");
  uint32_t addr = *fs.AddressOf(ino);
  for (AddrLookupMode mode : {AddrLookupMode::kLinear, AddrLookupMode::kIndexed}) {
    fs.set_lookup_mode(mode);
    EXPECT_EQ(*fs.AddrToInode(addr), ino);
    EXPECT_EQ(*fs.AddrToInode(addr + kSfsMaxFileBytes - 1), ino);
    EXPECT_FALSE(fs.AddrToInode(addr + kSfsMaxFileBytes).ok());
    EXPECT_EQ(fs.AddrToInode(kTextBase).status().code(), ErrorCode::kOutOfRange);
    EXPECT_EQ(*fs.AddrToPath(addr), "/seg");
  }
}

TEST(SharedFsTest, AddrTableTracksUnlink) {
  SharedFs fs;
  uint32_t ino = *fs.Create("/gone");
  uint32_t addr = *fs.AddressOf(ino);
  ASSERT_TRUE(fs.Unlink("/gone").ok());
  EXPECT_FALSE(fs.AddrToInode(addr).ok());
  // RebuildAddrTable (boot scan) is consistent with incremental updates.
  fs.RebuildAddrTable();
  EXPECT_FALSE(fs.AddrToInode(addr).ok());
}

TEST(SharedFsTest, LockingProtocol) {
  SharedFs fs;
  uint32_t ino = *fs.Create("/locked");
  ASSERT_TRUE(fs.LockInode(ino, 1).ok());
  ASSERT_TRUE(fs.LockInode(ino, 1).ok());  // re-entrant for the owner
  EXPECT_EQ(fs.LockInode(ino, 2).code(), ErrorCode::kWouldBlock);
  EXPECT_EQ(fs.UnlockInode(ino, 2).code(), ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(fs.UnlockInode(ino, 1).ok());
  ASSERT_TRUE(fs.LockInode(ino, 2).ok());
  // Exit cleanup releases everything a pid held.
  fs.ReleaseLocksOf(2);
  EXPECT_TRUE(fs.LockInode(ino, 3).ok());
}

TEST(SharedFsTest, SerializeDeserializeRoundTrip) {
  SharedFs fs;
  ASSERT_TRUE(fs.Mkdir("/lib").ok());
  uint32_t ino = *fs.Create("/lib/data");
  uint8_t payload[3] = {7, 8, 9};
  ASSERT_TRUE(fs.WriteAt(ino, 0, payload, 3).ok());
  ASSERT_TRUE(fs.Symlink("/lib/link", "/shm/lib/data").ok());
  ByteWriter w;
  fs.Serialize(&w);
  std::vector<uint8_t> disk = w.Take();
  ByteReader r(disk);
  Result<std::unique_ptr<SharedFs>> again = SharedFs::Deserialize(&r);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->InodesInUse(), fs.InodesInUse());
  uint8_t out[3] = {0};
  EXPECT_EQ(*(*again)->ReadAt(*(*again)->Lookup("/lib/data"), 0, out, 3), 3u);
  EXPECT_EQ(out[2], 9);
  EXPECT_EQ(*(*again)->ReadLink("/lib/link"), "/shm/lib/data");
  // The boot scan ran: the address table answers.
  EXPECT_EQ(*(*again)->AddrToPath(SfsAddressForInode(ino)), "/lib/data");
}

TEST(SharedFsTest, TruncateShrinkZeroesDroppedTail) {
  SharedFs fs;
  uint32_t ino = *fs.Create("/secret");
  uint8_t payload[8] = {9, 9, 9, 9, 9, 9, 9, 9};
  ASSERT_TRUE(fs.WriteAt(ino, 0, payload, 8).ok());
  ASSERT_TRUE(fs.Truncate(ino, 2).ok());
  // Regrow past the old size: the reclaimed range must read as zeros (POSIX
  // truncate), not the previous contents leaking back.
  ASSERT_TRUE(fs.Truncate(ino, 8).ok());
  uint8_t out[8] = {1, 1, 1, 1, 1, 1, 1, 1};
  ASSERT_EQ(*fs.ReadAt(ino, 0, out, 8), 8u);
  EXPECT_EQ(out[0], 9);
  EXPECT_EQ(out[1], 9);
  for (int i = 2; i < 8; ++i) {
    EXPECT_EQ(out[i], 0) << "stale byte leaked at offset " << i;
  }
}

TEST(SharedFsTest, UnlinkRefusesLockedInode) {
  SharedFs fs;
  uint32_t ino = *fs.Create("/mid-creation");
  ASSERT_TRUE(fs.LockInode(ino, 42).ok());
  // Destroying a segment out from under its creator would orphan the lock.
  EXPECT_EQ(fs.Unlink("/mid-creation").code(), ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(fs.Exists("/mid-creation"));
  // Administrative override still works, and a normal unlink works once unlocked.
  ASSERT_TRUE(fs.Unlink("/mid-creation", /*force=*/true).ok());
  uint32_t again = *fs.Create("/mid-creation");
  ASSERT_TRUE(fs.LockInode(again, 42).ok());
  ASSERT_TRUE(fs.UnlockInode(again, 42).ok());
  EXPECT_TRUE(fs.Unlink("/mid-creation").ok());
}

TEST(SharedFsTest, LockLeaseExpiresOnOperationClock) {
  SharedFs fs;
  fs.set_lock_lease_ops(16);
  uint32_t ino = *fs.Create("/leased");
  ASSERT_TRUE(fs.LockInode(ino, 1).ok());
  // Pid 1 probes as alive, so only the lease can break the lock.
  fs.SetPidProber([](int) { return true; });
  EXPECT_EQ(fs.LockInode(ino, 2).code(), ErrorCode::kWouldBlock);
  fs.AdvanceClock(100);
  EXPECT_TRUE(fs.LockInode(ino, 2).ok());
  EXPECT_EQ(fs.LockOwner(ino), 2);
}

TEST(SharedFsTest, DeadHolderLockBroken) {
  SharedFs fs;
  uint32_t ino = *fs.Create("/abandoned");
  ASSERT_TRUE(fs.LockInode(ino, 7).ok());
  fs.SetPidProber([](int pid) { return pid != 7; });  // 7 is dead
  // No clock advance needed: death is detected on the first contended attempt.
  EXPECT_TRUE(fs.LockInode(ino, 8).ok());
  EXPECT_EQ(fs.LockOwner(ino), 8);
}

// --- MemFs ---

TEST(MemFsTest, BasicFiles) {
  MemFs fs;
  ASSERT_TRUE(fs.MkdirAll("/home/user").ok());
  ASSERT_TRUE(fs.WriteFile("/home/user/x", std::string("content")).ok());
  Result<std::vector<uint8_t>> data = fs.ReadFile("/home/user/x");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(std::string(data->begin(), data->end()), "content");
  EXPECT_EQ(*fs.FileSize("/home/user/x"), 7u);
  EXPECT_FALSE(fs.ReadFile("/home/user/missing").ok());
  // Writing into a missing directory fails (no implicit parents).
  EXPECT_FALSE(fs.WriteFile("/no/such/dir/x", std::string("y")).ok());
}

TEST(MemFsTest, SymlinkChains) {
  MemFs fs;
  ASSERT_TRUE(fs.MkdirAll("/a/b").ok());
  ASSERT_TRUE(fs.WriteFile("/a/b/real", std::string("data")).ok());
  ASSERT_TRUE(fs.Symlink("/a/link1", "b/real").ok());      // relative target
  ASSERT_TRUE(fs.Symlink("/a/link2", "/a/link1").ok());    // absolute, chained
  EXPECT_EQ(*fs.ResolveSymlinks("/a/link2"), "/a/b/real");
  Result<std::vector<uint8_t>> data = fs.ReadFile("/a/link2");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(std::string(data->begin(), data->end()), "data");
  EXPECT_TRUE(fs.IsSymlink("/a/link1"));
  EXPECT_FALSE(fs.IsSymlink("/a/b/real"));
}

TEST(MemFsTest, SymlinkLoopDetected) {
  MemFs fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Symlink("/d/x", "/d/y").ok());
  ASSERT_TRUE(fs.Symlink("/d/y", "/d/x").ok());
  EXPECT_FALSE(fs.ResolveSymlinks("/d/x").ok());
  EXPECT_FALSE(fs.ReadFile("/d/x").ok());
}

TEST(MemFsTest, SymlinkThroughDirectory) {
  MemFs fs;
  ASSERT_TRUE(fs.MkdirAll("/real/dir").ok());
  ASSERT_TRUE(fs.WriteFile("/real/dir/f", std::string("v")).ok());
  ASSERT_TRUE(fs.Symlink("/alias", "/real").ok());
  EXPECT_TRUE(fs.Exists("/alias/dir/f"));
}

TEST(MemFsTest, UnlinkRules) {
  MemFs fs;
  ASSERT_TRUE(fs.MkdirAll("/d/sub").ok());
  EXPECT_EQ(fs.Unlink("/d").code(), ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(fs.Unlink("/d/sub").ok());
  EXPECT_TRUE(fs.Unlink("/d").ok());
  EXPECT_FALSE(fs.Unlink("/d").ok());
}

// --- Vfs ---

TEST(VfsTest, RoutesByPrefix) {
  Vfs vfs;
  ASSERT_TRUE(vfs.WriteFile("/tmp/plain", std::string("mem")).ok());
  ASSERT_TRUE(vfs.WriteFile("/shm/shared", std::string("sfs")).ok());
  EXPECT_TRUE(vfs.memfs().Exists("/tmp/plain"));
  EXPECT_TRUE(vfs.sfs().Exists("/shared"));
  Result<std::vector<uint8_t>> a = vfs.ReadFile("/tmp/plain");
  Result<std::vector<uint8_t>> b = vfs.ReadFile("/shm/shared");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(std::string(b->begin(), b->end()), "sfs");
}

TEST(VfsTest, CrossFsSymlinks) {
  Vfs vfs;
  ASSERT_TRUE(vfs.WriteFile("/shm/target", std::string("shared-bytes")).ok());
  // MemFs symlink pointing into the shared partition.
  ASSERT_TRUE(vfs.Symlink("/tmp/into_shm", "/shm/target").ok());
  Result<std::vector<uint8_t>> via = vfs.ReadFile("/tmp/into_shm");
  ASSERT_TRUE(via.ok());
  EXPECT_EQ(std::string(via->begin(), via->end()), "shared-bytes");
  // SFS symlink pointing out to the ordinary disk.
  ASSERT_TRUE(vfs.WriteFile("/tmp/plain", std::string("plain-bytes")).ok());
  ASSERT_TRUE(vfs.Symlink("/shm/out", "/tmp/plain").ok());
  Result<std::vector<uint8_t>> out = vfs.ReadFile("/shm/out");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(std::string(out->begin(), out->end()), "plain-bytes");
}

TEST(VfsTest, SfsRelativeMapping) {
  EXPECT_TRUE(Vfs::OnSharedPartition("/shm"));
  EXPECT_TRUE(Vfs::OnSharedPartition("/shm/a/b"));
  EXPECT_FALSE(Vfs::OnSharedPartition("/shmother"));
  EXPECT_FALSE(Vfs::OnSharedPartition("/tmp"));
  EXPECT_EQ(Vfs::SfsRelative("/shm"), "/");
  EXPECT_EQ(Vfs::SfsRelative("/shm/a/b"), "/a/b");
}

TEST(VfsTest, MkdirAllOnBothSides) {
  Vfs vfs;
  ASSERT_TRUE(vfs.MkdirAll("/shm/a/b/c").ok());
  EXPECT_TRUE(vfs.IsDirectory("/shm/a/b/c"));
  ASSERT_TRUE(vfs.MkdirAll("/var/x/y").ok());
  EXPECT_TRUE(vfs.IsDirectory("/var/x/y"));
  // Idempotent.
  EXPECT_TRUE(vfs.MkdirAll("/shm/a/b/c").ok());
}

TEST(VfsTest, ListBothSides) {
  Vfs vfs;
  ASSERT_TRUE(vfs.WriteFile("/shm/s1", std::string("x")).ok());
  ASSERT_TRUE(vfs.WriteFile("/shm/s2", std::string("y")).ok());
  Result<std::vector<std::string>> names = vfs.List("/shm");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"s1", "s2"}));
}

}  // namespace
}  // namespace hemlock
