#include "src/sfs/vfs.h"

#include "src/base/strings.h"

namespace hemlock {

Vfs::Vfs() : memfs_(std::make_unique<MemFs>()), sfs_(std::make_unique<SharedFs>()) {
  // Standard directories of the simulated world.
  (void)memfs_->MkdirAll("/tmp");
  (void)memfs_->MkdirAll("/usr/lib");
  (void)memfs_->MkdirAll("/home/user");
}

bool Vfs::OnSharedPartition(const std::string& path) {
  std::string norm = NormalizePath(path);
  return norm == kSfsMount || StartsWith(norm, std::string(kSfsMount) + "/");
}

std::string Vfs::SfsRelative(const std::string& path) {
  std::string norm = NormalizePath(path);
  if (norm == kSfsMount) {
    return "/";
  }
  return norm.substr(std::string(kSfsMount).size());
}

Result<std::string> Vfs::Resolve(const std::string& path) const {
  std::string cur = NormalizePath(path);
  // A resolution may bounce between the two file systems (a MemFs symlink pointing
  // into /shm, or an SFS symlink pointing anywhere); bound the hops.
  for (int hop = 0; hop < 8; ++hop) {
    if (OnSharedPartition(cur)) {
      Result<SfsStat> st = sfs_->Stat(SfsRelative(cur));
      if (!st.ok() || st->type != SfsNodeType::kSymlink) {
        return cur;
      }
      ASSIGN_OR_RETURN(std::string target, sfs_->ReadLink(SfsRelative(cur)));
      cur = NormalizePath(JoinPath(PathDirname(cur), target));
      continue;
    }
    ASSIGN_OR_RETURN(std::string resolved, memfs_->ResolveSymlinks(cur));
    if (resolved == cur) {
      return cur;
    }
    cur = resolved;
  }
  return InvalidArgument("vfs: too many symlink hops: " + path);
}

Result<std::vector<uint8_t>> Vfs::ReadFile(const std::string& path) const {
  ASSIGN_OR_RETURN(std::string resolved, Resolve(path));
  if (OnSharedPartition(resolved)) {
    ASSIGN_OR_RETURN(SfsStat st, sfs_->Stat(SfsRelative(resolved)));
    std::vector<uint8_t> out(st.size);
    ASSIGN_OR_RETURN(uint32_t n, sfs_->ReadAt(st.ino, 0, out.data(), st.size));
    out.resize(n);
    return out;
  }
  return memfs_->ReadFile(resolved);
}

Result<std::span<const uint8_t>> Vfs::ViewSharedFile(const std::string& path) const {
  ASSIGN_OR_RETURN(std::string resolved, Resolve(path));
  if (!OnSharedPartition(resolved)) {
    return InvalidArgument("vfs: not on the shared partition: " + path);
  }
  ASSIGN_OR_RETURN(SfsStat st, sfs_->Stat(SfsRelative(resolved)));
  return sfs_->View(st.ino);
}

Status Vfs::WriteFile(const std::string& path, const std::vector<uint8_t>& data) {
  ASSIGN_OR_RETURN(std::string resolved, Resolve(path));
  if (OnSharedPartition(resolved)) {
    std::string rel = SfsRelative(resolved);
    uint32_t ino = 0;
    Result<uint32_t> existing = sfs_->Lookup(rel);
    if (existing.ok()) {
      ino = *existing;
      RETURN_IF_ERROR(sfs_->Truncate(ino, 0));
    } else {
      ASSIGN_OR_RETURN(ino, sfs_->Create(rel));
    }
    return sfs_->WriteAt(ino, 0, data.data(), static_cast<uint32_t>(data.size()));
  }
  return memfs_->WriteFile(resolved, data);
}

Status Vfs::WriteFile(const std::string& path, const std::string& text) {
  return WriteFile(path, std::vector<uint8_t>(text.begin(), text.end()));
}

bool Vfs::Exists(const std::string& path) const {
  Result<std::string> resolved = Resolve(path);
  if (!resolved.ok()) {
    return false;
  }
  if (OnSharedPartition(*resolved)) {
    return sfs_->Exists(SfsRelative(*resolved));
  }
  return memfs_->Exists(*resolved);
}

bool Vfs::IsDirectory(const std::string& path) const {
  Result<std::string> resolved = Resolve(path);
  if (!resolved.ok()) {
    return false;
  }
  if (OnSharedPartition(*resolved)) {
    if (*resolved == kSfsMount) {
      return true;
    }
    Result<SfsStat> st = sfs_->Stat(SfsRelative(*resolved));
    return st.ok() && st->type == SfsNodeType::kDirectory;
  }
  return memfs_->IsDirectory(*resolved);
}

Status Vfs::Mkdir(const std::string& path) {
  ASSIGN_OR_RETURN(std::string resolved, Resolve(path));
  if (OnSharedPartition(resolved)) {
    return sfs_->Mkdir(SfsRelative(resolved)).status();
  }
  return memfs_->Mkdir(resolved);
}

Status Vfs::MkdirAll(const std::string& path) {
  ASSIGN_OR_RETURN(std::string resolved, Resolve(path));
  if (OnSharedPartition(resolved)) {
    std::string rel = SfsRelative(resolved);
    std::string cur;
    for (const std::string& part : SplitString(rel, '/')) {
      cur += "/" + part;
      if (!sfs_->Exists(cur)) {
        RETURN_IF_ERROR(sfs_->Mkdir(cur).status());
      }
    }
    return OkStatus();
  }
  return memfs_->MkdirAll(resolved);
}

Status Vfs::Unlink(const std::string& path) {
  // Unlink removes the symlink itself, not its target.
  std::string norm = NormalizePath(path);
  if (OnSharedPartition(norm)) {
    return sfs_->Unlink(SfsRelative(norm));
  }
  return memfs_->Unlink(norm);
}

Result<std::vector<std::string>> Vfs::List(const std::string& path) const {
  ASSIGN_OR_RETURN(std::string resolved, Resolve(path));
  if (OnSharedPartition(resolved)) {
    return sfs_->List(SfsRelative(resolved));
  }
  return memfs_->List(resolved);
}

Status Vfs::Symlink(const std::string& path, const std::string& target) {
  std::string norm = NormalizePath(path);
  if (OnSharedPartition(norm)) {
    // Hard links are prohibited on the shared partition; symbolic links are fine
    // (they are separate inodes, so the 1:1 inode <-> path property holds).
    return sfs_->Symlink(SfsRelative(norm), target).status();
  }
  return memfs_->Symlink(norm, target);
}

}  // namespace hemlock
