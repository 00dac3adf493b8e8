// One namespace over the simulated machine's two file systems: the ordinary in-memory
// disk (MemFs) and the dedicated shared partition (SharedFs), mounted at /shm.
//
// The linkers see only this facade: template .o files and load images may live anywhere;
// public modules and the templates they are created from must reside on the shared
// partition (paper §2: "insist that public modules ... reside on this partition").
// Symlinks (MemFs-only) are followed across the mount point, which is exactly the
// paper's Presto trick: a symlink in a temp directory pointing at a template in /shm.
#ifndef SRC_SFS_VFS_H_
#define SRC_SFS_VFS_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/sfs/memfs.h"
#include "src/sfs/shared_fs.h"

namespace hemlock {

inline constexpr const char kSfsMount[] = "/shm";

class Vfs {
 public:
  Vfs();

  Vfs(const Vfs&) = delete;
  Vfs& operator=(const Vfs&) = delete;

  // True when |path| (after normalization) lies on the shared partition.
  static bool OnSharedPartition(const std::string& path);
  // "/shm/a/b" -> "/a/b" (path inside the partition).
  static std::string SfsRelative(const std::string& path);

  // Follows MemFs symlinks; the result may land on either file system.
  Result<std::string> Resolve(const std::string& path) const;

  Result<std::vector<uint8_t>> ReadFile(const std::string& path) const;
  // ReadFile without the copy, for files on the shared partition only: a
  // SharedFs::View of the resolved file, valid until the partition next mutates.
  Result<std::span<const uint8_t>> ViewSharedFile(const std::string& path) const;
  Status WriteFile(const std::string& path, const std::vector<uint8_t>& data);
  Status WriteFile(const std::string& path, const std::string& text);
  bool Exists(const std::string& path) const;
  bool IsDirectory(const std::string& path) const;
  Status Mkdir(const std::string& path);
  Status MkdirAll(const std::string& path);
  Status Unlink(const std::string& path);
  Result<std::vector<std::string>> List(const std::string& path) const;
  // MemFs only; creating links on the shared partition is prohibited.
  Status Symlink(const std::string& path, const std::string& target);

  MemFs& memfs() { return *memfs_; }
  SharedFs& sfs() { return *sfs_; }
  const SharedFs& sfs() const { return *sfs_; }

  // Replaces the shared partition (simulated reboot from "disk").
  void ReplaceSfs(std::unique_ptr<SharedFs> sfs) { sfs_ = std::move(sfs); }

 private:
  std::unique_ptr<MemFs> memfs_;
  std::unique_ptr<SharedFs> sfs_;
};

}  // namespace hemlock

#endif  // SRC_SFS_VFS_H_
