#include "src/link/image.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/base/atomic_mem.h"
#include "src/base/layout.h"
#include "src/base/strings.h"
#include "src/isa/isa.h"

namespace hemlock {

namespace {
constexpr uint32_t kHxeMagic = 0x21455848;  // "HXE!"
constexpr uint32_t kHmlMagic = 0x214C4D48;  // "HML!"
constexpr uint32_t kFooterBytes = 12;       // magic, trailer offset, trailer size

// Caps on table sizes in external images: far above anything lds emits, low
// enough that a hostile count can never become a giant allocation.
constexpr uint32_t kMaxImageSegments = 64;
constexpr uint32_t kMaxImageSymbols = 1u << 20;
constexpr uint32_t kMaxImagePending = 1u << 20;
constexpr uint32_t kMaxImageNames = 1u << 12;

// Minimum serialized size of each record kind (empty strings).
constexpr size_t kAbsSymbolMinBytes = 4 + 4 + 1;
constexpr size_t kPendingMinBytes = 1 + 4 + 4 + 4;
constexpr size_t kSegmentMinBytes = 4 + 4 + 1 + 4;

void WriteAbsSymbols(ByteWriter* w, const std::vector<AbsSymbol>& syms) {
  w->U32(static_cast<uint32_t>(syms.size()));
  for (const AbsSymbol& s : syms) {
    w->Str(s.name);
    w->U32(s.addr);
    w->U8(s.is_function ? 1 : 0);
  }
}

Status ReadAbsSymbols(ByteReader* r, std::vector<AbsSymbol>* out) {
  ASSIGN_OR_RETURN(uint32_t n, r->Count(kAbsSymbolMinBytes, kMaxImageSymbols));
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    AbsSymbol s;
    ASSIGN_OR_RETURN(s.name, r->Str());
    ASSIGN_OR_RETURN(s.addr, r->U32());
    ASSIGN_OR_RETURN(uint8_t is_fn, r->U8());
    s.is_function = is_fn != 0;
    out->push_back(std::move(s));
  }
  return OkStatus();
}

void WritePending(ByteWriter* w, const std::vector<PendingReloc>& pending) {
  w->U32(static_cast<uint32_t>(pending.size()));
  for (const PendingReloc& p : pending) {
    w->U8(static_cast<uint8_t>(p.type));
    w->U32(p.site);
    w->Str(p.symbol);
    w->I32(p.addend);
  }
}

Status ReadPending(ByteReader* r, std::vector<PendingReloc>* out) {
  ASSIGN_OR_RETURN(uint32_t n, r->Count(kPendingMinBytes, kMaxImagePending));
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    PendingReloc p;
    ASSIGN_OR_RETURN(uint8_t type, r->U8());
    if (type > 4) {
      return CorruptData("bad pending relocation type");
    }
    p.type = static_cast<RelocType>(type);
    ASSIGN_OR_RETURN(p.site, r->U32());
    ASSIGN_OR_RETURN(p.symbol, r->Str());
    ASSIGN_OR_RETURN(p.addend, r->I32());
    out->push_back(std::move(p));
  }
  return OkStatus();
}

void WriteStringList(ByteWriter* w, const std::vector<std::string>& list) {
  w->U32(static_cast<uint32_t>(list.size()));
  for (const std::string& s : list) {
    w->Str(s);
  }
}

Status ReadStringList(ByteReader* r, std::vector<std::string>* out) {
  ASSIGN_OR_RETURN(uint32_t n, r->Count(4, kMaxImageNames));
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(std::string s, r->Str());
    out->push_back(std::move(s));
  }
  return OkStatus();
}

}  // namespace

const char* ShareClassName(ShareClass cls) {
  switch (cls) {
    case ShareClass::kStaticPrivate:
      return "static private";
    case ShareClass::kDynamicPrivate:
      return "dynamic private";
    case ShareClass::kStaticPublic:
      return "static public";
    case ShareClass::kDynamicPublic:
      return "dynamic public";
  }
  return "?";
}

std::vector<uint8_t> LoadImage::Serialize() const {
  ByteWriter w;
  w.U32(kHxeMagic);
  w.U32(entry);
  w.U32(static_cast<uint32_t>(segments.size()));
  for (const ImageSegment& seg : segments) {
    w.U32(seg.vaddr);
    w.U32(seg.mem_size);
    w.U8(seg.executable ? 1 : 0);
    w.Bytes(seg.bytes);
  }
  WriteAbsSymbols(&w, symbols);
  WritePending(&w, pending);
  w.U32(static_cast<uint32_t>(dynamic_modules.size()));
  for (const DynModuleRecord& rec : dynamic_modules) {
    w.Str(rec.name);
    w.U8(static_cast<uint8_t>(rec.cls));
  }
  w.U32(static_cast<uint32_t>(static_publics.size()));
  for (const StaticPublicRef& ref : static_publics) {
    w.Str(ref.module_path);
    w.U32(ref.addr);
  }
  WriteStringList(&w, search_path);
  return w.Take();
}

Result<LoadImage> LoadImage::Deserialize(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic != kHxeMagic) {
    return CorruptData("not an HXE load image");
  }
  LoadImage img;
  ASSIGN_OR_RETURN(img.entry, r.U32());
  ASSIGN_OR_RETURN(uint32_t nsegs, r.Count(kSegmentMinBytes, kMaxImageSegments));
  img.segments.reserve(nsegs);
  for (uint32_t i = 0; i < nsegs; ++i) {
    ImageSegment seg;
    ASSIGN_OR_RETURN(seg.vaddr, r.U32());
    ASSIGN_OR_RETURN(seg.mem_size, r.U32());
    ASSIGN_OR_RETURN(uint8_t ex, r.U8());
    seg.executable = ex != 0;
    ASSIGN_OR_RETURN(seg.bytes, r.Bytes());
    if (seg.bytes.size() > seg.mem_size) {
      return CorruptData("segment bytes exceed mem_size");
    }
    img.segments.push_back(std::move(seg));
  }
  RETURN_IF_ERROR(ReadAbsSymbols(&r, &img.symbols));
  RETURN_IF_ERROR(ReadPending(&r, &img.pending));
  ASSIGN_OR_RETURN(uint32_t nmods, r.Count(5, kMaxImageNames));
  img.dynamic_modules.reserve(nmods);
  for (uint32_t i = 0; i < nmods; ++i) {
    DynModuleRecord rec;
    ASSIGN_OR_RETURN(rec.name, r.Str());
    ASSIGN_OR_RETURN(uint8_t cls, r.U8());
    if (cls > 3) {
      return CorruptData("bad sharing class");
    }
    rec.cls = static_cast<ShareClass>(cls);
    img.dynamic_modules.push_back(std::move(rec));
  }
  ASSIGN_OR_RETURN(uint32_t nrefs, r.Count(8, kMaxImageNames));
  img.static_publics.reserve(nrefs);
  for (uint32_t i = 0; i < nrefs; ++i) {
    StaticPublicRef ref;
    ASSIGN_OR_RETURN(ref.module_path, r.Str());
    ASSIGN_OR_RETURN(ref.addr, r.U32());
    img.static_publics.push_back(std::move(ref));
  }
  RETURN_IF_ERROR(ReadStringList(&r, &img.search_path));
  RETURN_IF_ERROR(r.ExpectEnd("HXE image"));
  RETURN_IF_ERROR(ValidateLoadImage(img));
  return img;
}

Status ValidateLoadImage(const LoadImage& img) {
  // Segment geometry: page-aligned, confined to the private text/data area below
  // the shared region, and mutually non-overlapping. Everything ldl later maps
  // (public modules, stacks) assumes the static image cannot reach those ranges.
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  ranges.reserve(img.segments.size());
  for (const ImageSegment& seg : img.segments) {
    if (seg.vaddr % kPageSize != 0) {
      return CorruptData(StrFormat("segment at 0x%08x not page aligned", seg.vaddr));
    }
    uint64_t end = static_cast<uint64_t>(seg.vaddr) + PageCeil64(seg.mem_size);
    if (end > kDataLimit) {
      return CorruptData(StrFormat("segment [0x%08x,+0x%x) escapes the private region",
                                   seg.vaddr, seg.mem_size));
    }
    ranges.emplace_back(seg.vaddr, end);
  }
  std::sort(ranges.begin(), ranges.end());
  for (size_t i = 1; i < ranges.size(); ++i) {
    if (ranges[i].first < ranges[i - 1].second) {
      return CorruptData(StrFormat("segments overlap at 0x%08x",
                                   static_cast<uint32_t>(ranges[i].first)));
    }
  }
  // The entry point must land on an instruction inside an executable segment.
  if (img.entry % 4 != 0) {
    return CorruptData(StrFormat("entry point 0x%08x not word aligned", img.entry));
  }
  bool entry_ok = false;
  for (const ImageSegment& seg : img.segments) {
    if (seg.executable && img.entry >= seg.vaddr &&
        static_cast<uint64_t>(img.entry) + 4 <= static_cast<uint64_t>(seg.vaddr) + seg.mem_size) {
      entry_ok = true;
      break;
    }
  }
  if (!entry_ok) {
    return CorruptData(StrFormat("entry point 0x%08x outside every executable segment",
                                 img.entry));
  }
  // Pending relocation sites are cells ldl will patch after mapping; each must be
  // a word inside the image, never an arbitrary address in the victim process.
  for (const PendingReloc& p : img.pending) {
    bool site_ok = false;
    for (const ImageSegment& seg : img.segments) {
      if (p.site >= seg.vaddr &&
          static_cast<uint64_t>(p.site) + 4 <= static_cast<uint64_t>(seg.vaddr) + seg.mem_size) {
        site_ok = true;
        break;
      }
    }
    if (!site_ok) {
      return CorruptData(StrFormat("pending relocation site 0x%08x outside the image", p.site));
    }
  }
  return OkStatus();
}

std::vector<uint8_t> LinkedModule::SerializeFile() const {
  // Memory image first: payload then implicit bss zeros, padded to a page, then the
  // trailer. The buffer is sized once.
  std::vector<uint8_t> tail = SerializeTrailer();
  std::vector<uint8_t> file;
  file.reserve(PageCeil(MemSize()) + tail.size());
  file.assign(payload.begin(), payload.end());
  file.resize(PageCeil(MemSize()), 0);
  file.insert(file.end(), tail.begin(), tail.end());
  return file;
}

std::vector<uint8_t> LinkedModule::SerializeTrailer() const {
  ByteWriter w;
  w.Str(name);
  w.U32(base);
  w.U32(text_size);
  w.U32(data_size);
  w.U32(bss_size);
  WriteAbsSymbols(&w, exports);
  WritePending(&w, pending);
  WriteStringList(&w, module_list);
  WriteStringList(&w, search_path);
  w.U64(template_hash);
  uint32_t trailer_size = static_cast<uint32_t>(w.buffer().size());
  // Footer.
  w.U32(kHmlMagic);
  w.U32(PageCeil(MemSize()));  // the trailer starts right past the mapped pages
  w.U32(trailer_size);
  return w.Take();
}

namespace {

// The 12-byte footer (magic, trailer offset, trailer size), loaded with relaxed
// atomics: the tail of a plain data segment is guest-mapped memory that another
// core may be storing to while the fault handler asks whether it is a module.
struct HmlFooter {
  uint32_t magic = 0;
  uint32_t trailer_off = 0;
  uint32_t trailer_size = 0;
};
static_assert(sizeof(HmlFooter) == kFooterBytes);

bool ReadFooter(std::span<const uint8_t> file, HmlFooter* footer) {
  if (file.size() < kFooterBytes) {
    return false;
  }
  RelaxedCopyFrom(reinterpret_cast<uint8_t*>(footer), file.data() + file.size() - kFooterBytes,
                  kFooterBytes);
  return footer->magic == kHmlMagic;
}

}  // namespace

bool LinkedModule::LooksLikeModuleFile(std::span<const uint8_t> file) {
  HmlFooter footer;
  return ReadFooter(file, &footer);
}

Result<LinkedModule> LinkedModule::ParseTrailer(std::span<const uint8_t> file) {
  HmlFooter footer;
  if (!ReadFooter(file, &footer)) {
    return CorruptData("not an HML module file");
  }
  const uint32_t trailer_off = footer.trailer_off;
  const uint32_t trailer_size = footer.trailer_size;
  // 64-bit math: a footer with trailer_off ~ 0xFFFFFFFF must not wrap back into
  // range and hand ByteReader an out-of-bounds window.
  if (static_cast<uint64_t>(trailer_off) + trailer_size + kFooterBytes != file.size()) {
    return CorruptData("HML trailer bounds corrupt");
  }
  if (trailer_off % kPageSize != 0) {
    return CorruptData("HML trailer not page aligned (mapped image must be whole pages)");
  }
  LinkedModule mod;
  ByteReader r(file.data() + trailer_off, trailer_size);
  ASSIGN_OR_RETURN(mod.name, r.Str());
  ASSIGN_OR_RETURN(mod.base, r.U32());
  ASSIGN_OR_RETURN(mod.text_size, r.U32());
  ASSIGN_OR_RETURN(mod.data_size, r.U32());
  ASSIGN_OR_RETURN(mod.bss_size, r.U32());
  RETURN_IF_ERROR(ReadAbsSymbols(&r, &mod.exports));
  RETURN_IF_ERROR(ReadPending(&r, &mod.pending));
  RETURN_IF_ERROR(ReadStringList(&r, &mod.module_list));
  RETURN_IF_ERROR(ReadStringList(&r, &mod.search_path));
  // The content-hash field postdates the format. Exactly one u64 may follow the
  // search path (files from before the field carry none and hash to 0, which never
  // matches a manifest entry); any other remainder is still trailing garbage.
  if (!r.AtEnd()) {
    if (r.remaining() != 8) {
      return r.ExpectEnd("HML trailer");
    }
    ASSIGN_OR_RETURN(mod.template_hash, r.U64());
  }
  RETURN_IF_ERROR(r.ExpectEnd("HML trailer"));
  if (mod.text_size > kSfsMaxFileBytes || mod.data_size > kSfsMaxFileBytes ||
      mod.bss_size > kSfsMaxFileBytes) {
    return CorruptData("HML section larger than the 1 MB file cap");
  }
  uint64_t mem_size = static_cast<uint64_t>(mod.text_size) + mod.data_size + mod.bss_size;
  uint64_t init_size = static_cast<uint64_t>(mod.text_size) + mod.data_size;
  if (init_size > trailer_off) {
    return CorruptData("HML payload larger than mapped image");
  }
  if (mod.base % kPageSize != 0) {
    return CorruptData(StrFormat("HML base 0x%08x not page aligned", mod.base));
  }
  uint64_t end = mod.base + PageCeil64(mem_size);
  if (end > kSfsLimit) {
    return CorruptData(StrFormat("HML module [0x%08x,+0x%llx) escapes the mappable regions",
                                 mod.base, static_cast<unsigned long long>(mem_size)));
  }
  // Exports and pending relocation sites must name cells of this module; anything
  // else would let a hostile module file redirect or patch a neighbour.
  for (const AbsSymbol& s : mod.exports) {
    if (s.addr < mod.base || s.addr > mod.base + mem_size) {
      return CorruptData(StrFormat("export '%s' at 0x%08x outside the module",
                                   s.name.c_str(), s.addr));
    }
  }
  for (const PendingReloc& p : mod.pending) {
    if (p.site < mod.base || static_cast<uint64_t>(p.site) + 4 > mod.base + mem_size) {
      return CorruptData(StrFormat("pending relocation site 0x%08x outside the module", p.site));
    }
  }
  return mod;
}

Result<LinkedModule> LinkedModule::DeserializeFile(std::span<const uint8_t> file) {
  ASSIGN_OR_RETURN(LinkedModule mod, ParseTrailer(file));
  // ParseTrailer checked that the initialized image ends before the trailer.
  mod.payload.assign(file.begin(), file.begin() + mod.text_size + mod.data_size);
  return mod;
}

Status ApplyReloc(uint8_t* buf, size_t size, uint32_t buf_base, RelocType type, uint32_t site,
                  uint32_t target) {
  if (site < buf_base || static_cast<uint64_t>(site) + 4 > static_cast<uint64_t>(buf_base) + size) {
    return OutOfRange(StrFormat("relocation site 0x%08x outside buffer [0x%08x,+0x%zx)", site,
                                buf_base, size));
  }
  uint32_t off = site - buf_base;
  uint32_t word = 0;
  std::memcpy(&word, buf + off, 4);
  switch (type) {
    case RelocType::kWord32:
      word = target;
      break;
    case RelocType::kHi16:
      word = (word & 0xFFFF0000u) | (target >> 16);
      break;
    case RelocType::kLo16:
      word = (word & 0xFFFF0000u) | (target & 0xFFFF);
      break;
    case RelocType::kPcRel16: {
      int32_t delta = static_cast<int32_t>(target) - static_cast<int32_t>(site) - 4;
      if (delta % 4 != 0 || delta / 4 < -32768 || delta / 4 > 32767) {
        return OutOfRange(StrFormat("PCREL16 displacement out of range at 0x%08x", site));
      }
      word = (word & 0xFFFF0000u) | (static_cast<uint32_t>(delta / 4) & 0xFFFF);
      break;
    }
    case RelocType::kJump26: {
      if (!JumpInRange(site, target)) {
        return OutOfRange(StrFormat(
            "JUMP26 target 0x%08x unreachable from 0x%08x (28-bit limit; needs trampoline)",
            target, site));
      }
      if ((target & 3) != 0) {
        return InvalidArgument("jump target not word aligned");
      }
      word = (word & 0xFC000000u) | ((target >> 2) & 0x03FFFFFFu);
      break;
    }
  }
  std::memcpy(buf + off, &word, 4);
  return OkStatus();
}

}  // namespace hemlock
