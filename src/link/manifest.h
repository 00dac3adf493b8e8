// Resolution manifests — stable linking's persistence format (ROADMAP: "persist
// symbol resolution across runs"; PAPERS.md "Symbol Resolution MatRs / Stable
// Linking").
//
// A manifest records, per load image, every resolution decision ldl made for the
// modules of that image's reachability graph: module identity (path key + the
// content hash LinkModuleAtBase stamped into the HML trailer, or the template
// digest for private instances) and the symbol -> absolute-address table. A warm
// start verifies each recorded module against the bytes on disk and, when
// everything still matches, installs the recorded resolutions directly — no scope
// walks, no root lookups, no trailer rewrites. Any mismatch (relinked module,
// changed template, different image) falls back to ordinary scoped resolution and
// the manifest is rebuilt from the fresh decisions.
//
// The manifest lives in a hidden file on the shared partition
// (kLdlManifestPath), so it persists through every channel the partition itself
// does: `hemrun --state` images, SharedFs::Serialize in tests, and the posix
// embodiment's segment files. It is an *external* format in the PR 5 sense: a
// validating decoder with allocation-bomb caps, a version gate
// (kUnsupportedVersion vs kCorruptData), a body checksum, and trailing-garbage
// rejection. A corrupt or torn manifest is never an error for the program — the
// reader rejects it, ldl counts ldl.manifest.rejected, and resolution proceeds
// cold.
#ifndef SRC_LINK_MANIFEST_H_
#define SRC_LINK_MANIFEST_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/link/image.h"

namespace hemlock {

// Where the manifest lives on the shared partition (a dotfile so directory scans
// of /shm keep showing only real segments).
inline constexpr char kLdlManifestPath[] = "/shm/.ldl.manifest";

// Decoder caps. Generous against real workloads (the partition holds at most
// 1024 modules), hostile against a crafted count header.
inline constexpr uint32_t kManifestMaxImages = 16;
inline constexpr uint32_t kManifestMaxModules = 4096;
inline constexpr uint32_t kManifestMaxResolutions = 1u << 16;

// One module's recorded identity + resolution table.
struct ManifestModule {
  std::string key;    // ldl identity: module-file path (public) / template path (private)
  std::string name;   // diagnostic name
  ShareClass cls = ShareClass::kDynamicPublic;
  uint32_t base = 0;
  uint32_t ino = 0;   // public modules: backing inode; 0 for private instances
  // Public modules: the template_hash stamped in the HML trailer. Private
  // instances: LinkedTemplateHash(template file bytes, base) — what
  // LinkModuleAtBase would assign. Never 0 (unverifiable modules are not recorded).
  uint64_t src_hash = 0;
  std::vector<std::pair<std::string, uint32_t>> resolved;  // symbol -> absolute addr
  // Symbols this module still could not resolve when the recording run tore
  // down — known-absent for the whole verified module set. A warm start seeds
  // its negative knowledge from these (counted ldl.manifest.negative_hits)
  // instead of re-walking scopes on every retry-on-later-fault.
  std::vector<std::string> negatives;
};

// Every resolution decision recorded for one load image.
struct ManifestImage {
  uint64_t image_hash = 0;  // Fnv1a64 over LoadImage::Serialize()
  std::vector<ManifestModule> modules;

  // Digest of the (key, src_hash) sequence — the "module-set hash" a warm start
  // is keyed by; hemdump prints it so two states can be compared at a glance.
  uint64_t ModuleSetHash() const;
};

// The on-disk manifest: a small LRU of per-image records (several programs share
// one partition; each upsert moves its image to the back and the front falls off
// past kManifestMaxImages).
struct ResolutionManifest {
  std::vector<ManifestImage> images;

  const ManifestImage* FindImage(uint64_t image_hash) const;
  // Replaces (or inserts) the record for |record.image_hash|, most-recently-used
  // last, evicting the least-recently-used record past the cap.
  void Upsert(ManifestImage record);

  // magic, version, body crc32, body; validating decoder on the way back in.
  std::vector<uint8_t> Serialize() const;
  static Result<ResolutionManifest> Deserialize(const std::vector<uint8_t>& bytes);
};

}  // namespace hemlock

#endif  // SRC_LINK_MANIFEST_H_
