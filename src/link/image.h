// Link-time artefact formats.
//
// HXE — the executable load image produced by lds. Because the IRIX ld "refuses to
// retain relocation information for an executable program", the paper's lds saves it
// "in an explicit data structure"; HXE makes that data structure the on-disk format:
// pending relocations, the dynamic-module records, the saved search-path description,
// and the absolute symbol table all travel with the image for ldl to use.
//
// HML — a *linked module*: the form in which a public module lives in a shared-file-
// system file. The memory image (text+data+bss, internally relocated to the module's
// globally agreed base address) occupies the file from offset 0, so mapping the file at
// its address is exactly mapping the module; linker metadata (exports, still-pending
// relocations, scoped-linking search information) sits in a trailer past the mapped
// pages, found via a fixed-size footer at the end of the file.
#ifndef SRC_LINK_IMAGE_H_
#define SRC_LINK_IMAGE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/status.h"
#include "src/obj/object_file.h"

namespace hemlock {

// The four sharing classes of paper Table 1.
enum class ShareClass : uint8_t {
  kStaticPrivate = 0,
  kDynamicPrivate = 1,
  kStaticPublic = 2,
  kDynamicPublic = 3,
};

const char* ShareClassName(ShareClass cls);
inline bool IsPublic(ShareClass cls) {
  return cls == ShareClass::kStaticPublic || cls == ShareClass::kDynamicPublic;
}
inline bool IsDynamic(ShareClass cls) {
  return cls == ShareClass::kDynamicPrivate || cls == ShareClass::kDynamicPublic;
}

// A relocation whose site is an absolute virtual address (post-layout form of
// obj::Relocation). |addend| keeps the original semantics: target = S + A.
struct PendingReloc {
  RelocType type = RelocType::kWord32;
  uint32_t site = 0;  // absolute address of the relocated cell
  std::string symbol;
  int32_t addend = 0;

  bool operator==(const PendingReloc&) const = default;
};

// A symbol at an absolute address.
struct AbsSymbol {
  std::string name;
  uint32_t addr = 0;
  bool is_function = false;

  bool operator==(const AbsSymbol&) const = default;
};

// One loadable region of an executable image.
struct ImageSegment {
  uint32_t vaddr = 0;
  uint32_t mem_size = 0;            // full size including zero-fill (bss)
  bool executable = false;          // R-X vs RW-
  std::vector<uint8_t> bytes;       // initialized prefix (<= mem_size)
};

// A dynamic module requested on the lds command line: resolved by ldl at run time.
struct DynModuleRecord {
  std::string name;        // as given to lds (path or bare name)
  ShareClass cls = ShareClass::kDynamicPublic;
};

// A static public module the image references: ldl maps it at startup.
struct StaticPublicRef {
  std::string module_path;  // the HML file (on the shared partition)
  uint32_t addr = 0;
};

struct LoadImage {
  uint32_t entry = 0;
  std::vector<ImageSegment> segments;
  std::vector<AbsSymbol> symbols;            // exports of the statically linked portion
  std::vector<PendingReloc> pending;         // references left for ldl
  std::vector<DynModuleRecord> dynamic_modules;
  std::vector<StaticPublicRef> static_publics;
  // The search strategy lds used for static modules, passed on to ldl (paper §3):
  // link-time cwd, command-line dirs, link-time LD_LIBRARY_PATH dirs, defaults.
  std::vector<std::string> search_path;

  std::vector<uint8_t> Serialize() const;
  static Result<LoadImage> Deserialize(const std::vector<uint8_t>& bytes);
};

// A linked module (public-module file contents / in-memory form for private
// instances). Layout in memory: text at |base|, data at text end (word aligned),
// bss after data; total mem_size page-rounds for mapping.
struct LinkedModule {
  std::string name;
  uint32_t base = 0;
  uint32_t text_size = 0;
  uint32_t data_size = 0;
  uint32_t bss_size = 0;
  std::vector<uint8_t> payload;  // text+data initialized bytes (bss implied zero)
  std::vector<AbsSymbol> exports;
  std::vector<PendingReloc> pending;
  std::vector<std::string> module_list;   // scoped linking: this module's own list
  std::vector<std::string> search_path;   // ... and its own search path
  // Content identity assigned by LinkModuleAtBase (a digest of the template and the
  // base address). Stable across trailer rewrites — ldl's resolution-manifest entries
  // are keyed by it, so a relinked-from-changed-content module invalidates them.
  // 0 = pre-hash file (never matches a manifest entry).
  uint64_t template_hash = 0;

  uint32_t MemSize() const { return text_size + data_size + bss_size; }
  bool FullyLinked() const { return pending.empty(); }

  // Serializes to the HML file layout described above (image @0, trailer, footer).
  std::vector<uint8_t> SerializeFile() const;
  // Just the trailer and footer, which belong at offset PageCeil(MemSize()) of the
  // file. |payload| is not read: ldl rewrites a live module's metadata with this
  // without touching its mapped pages.
  std::vector<uint8_t> SerializeTrailer() const;
  // Parses an HML file's footer and trailer and checks them against the file's
  // bounds, without copying the memory image: |payload| comes back empty. |file|
  // may be a view of a live SFS extent (SharedFs::View): the footer is read with
  // relaxed loads, because a plain data file's tail is guest-mapped, and the
  // trailer is read plainly, because a module's trailer sits past the pages any
  // guest maps (docs/FORMATS.md "Reading a module in place").
  static Result<LinkedModule> ParseTrailer(std::span<const uint8_t> file);
  // ParseTrailer plus a copy of the initialized image into |payload|: what lds and
  // the tools need to lay the module out again.
  static Result<LinkedModule> DeserializeFile(std::span<const uint8_t> file);
  // True if |file| carries the HML footer (distinguishes module files from plain
  // data segments when the fault handler maps by address).
  static bool LooksLikeModuleFile(std::span<const uint8_t> file);
};

// Structural validation of a parsed load image: page-aligned non-overlapping
// segments confined to the private region, entry inside an executable segment,
// pending relocation sites inside the image. Deserialize runs this automatically;
// the loader runs it again on any image it is about to map (images can also be
// built in memory by lds).
Status ValidateLoadImage(const LoadImage& img);

// Applies one relocation to the |size| bytes at |buf|, which will live at |buf_base|.
// |target| is the resolved S + A value. The site must lie inside the buffer.
Status ApplyReloc(uint8_t* buf, size_t size, uint32_t buf_base, RelocType type, uint32_t site,
                  uint32_t target);

}  // namespace hemlock

#endif  // SRC_LINK_IMAGE_H_
