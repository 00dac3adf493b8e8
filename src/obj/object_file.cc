#include "src/obj/object_file.h"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "src/base/layout.h"

namespace hemlock {

namespace {
constexpr uint32_t kHofMagic = 0x21464F48;  // "HOF!"
constexpr uint32_t kHofVersion = 2;

// Hard caps on what a single object may carry. Text/data are length-prefixed and
// bounds-checked against the stream itself; .bss is only a declared size, so cap
// it at the private data region it would have to fit in. The table caps are far
// above anything the compiler emits but small enough that a hostile header can
// never turn into a multi-gigabyte allocation.
constexpr uint32_t kHofMaxBssBytes = kDataLimit - kDataBase;
constexpr uint32_t kHofMaxSymbols = 1u << 20;
constexpr uint32_t kHofMaxRelocs = 1u << 20;
constexpr uint32_t kHofMaxNames = 1u << 12;

// Serialized sizes of the fixed parts of each record (used to validate counts
// against the bytes actually present before reserving anything).
constexpr size_t kHofSymbolMinBytes = 4 + 1 + 1 + 4 + 1 + 1;   // empty name
constexpr size_t kHofRelocMinBytes = 1 + 1 + 4 + 4 + 4;        // empty symbol
}  // namespace

const char* SectionName(SectionKind kind) {
  switch (kind) {
    case SectionKind::kText:
      return ".text";
    case SectionKind::kData:
      return ".data";
    case SectionKind::kBss:
      return ".bss";
  }
  return "?";
}

const char* RelocTypeName(RelocType type) {
  switch (type) {
    case RelocType::kWord32:
      return "WORD32";
    case RelocType::kHi16:
      return "HI16";
    case RelocType::kLo16:
      return "LO16";
    case RelocType::kPcRel16:
      return "PCREL16";
    case RelocType::kJump26:
      return "JUMP26";
  }
  return "?";
}

Status ObjectFile::AddSymbol(const Symbol& sym) {
  Symbol* existing = FindSymbol(sym.name);
  if (existing == nullptr) {
    symbols_.push_back(sym);
    return OkStatus();
  }
  if (!sym.defined) {
    return OkStatus();  // reference to an already-known symbol
  }
  if (existing->defined) {
    return AlreadyExists("duplicate definition of symbol '" + sym.name + "' in module " + name_);
  }
  *existing = sym;
  return OkStatus();
}

void ObjectFile::ReferenceSymbol(const std::string& name) {
  if (FindSymbol(name) == nullptr) {
    Symbol sym;
    sym.name = name;
    sym.defined = false;
    sym.binding = SymBinding::kGlobal;
    symbols_.push_back(sym);
  }
}

const Symbol* ObjectFile::FindSymbol(const std::string& name) const {
  for (const Symbol& sym : symbols_) {
    if (sym.name == name) {
      return &sym;
    }
  }
  return nullptr;
}

Symbol* ObjectFile::FindSymbol(const std::string& name) {
  return const_cast<Symbol*>(static_cast<const ObjectFile*>(this)->FindSymbol(name));
}

std::vector<std::string> ObjectFile::UndefinedSymbols() const {
  std::vector<std::string> out;
  for (const Symbol& sym : symbols_) {
    if (!sym.defined && sym.binding == SymBinding::kGlobal) {
      out.push_back(sym.name);
    }
  }
  return out;
}

std::vector<std::string> ObjectFile::ExportedSymbols() const {
  std::vector<std::string> out;
  for (const Symbol& sym : symbols_) {
    if (sym.defined && sym.binding == SymBinding::kGlobal) {
      out.push_back(sym.name);
    }
  }
  return out;
}

uint32_t ObjectFile::SectionSize(SectionKind kind) const {
  switch (kind) {
    case SectionKind::kText:
      return static_cast<uint32_t>(text_.size());
    case SectionKind::kData:
      return static_cast<uint32_t>(data_.size());
    case SectionKind::kBss:
      return bss_size_;
  }
  return 0;
}

std::vector<uint8_t> ObjectFile::Serialize() const {
  ByteWriter w;
  w.U32(kHofMagic);
  w.U32(kHofVersion);
  w.Str(name_);
  w.Bytes(text_);
  w.Bytes(data_);
  w.U32(bss_size_);
  w.U32(static_cast<uint32_t>(symbols_.size()));
  for (const Symbol& sym : symbols_) {
    w.Str(sym.name);
    w.U8(sym.defined ? 1 : 0);
    w.U8(static_cast<uint8_t>(sym.section));
    w.U32(sym.value);
    w.U8(static_cast<uint8_t>(sym.binding));
    w.U8(sym.is_function ? 1 : 0);
  }
  w.U32(static_cast<uint32_t>(relocations_.size()));
  for (const Relocation& rel : relocations_) {
    w.U8(static_cast<uint8_t>(rel.type));
    w.U8(static_cast<uint8_t>(rel.section));
    w.U32(rel.offset);
    w.Str(rel.symbol);
    w.I32(rel.addend);
  }
  w.U32(static_cast<uint32_t>(module_list_.size()));
  for (const std::string& mod : module_list_) {
    w.Str(mod);
  }
  w.U32(static_cast<uint32_t>(search_path_.size()));
  for (const std::string& dir : search_path_) {
    w.Str(dir);
  }
  return w.Take();
}

Result<ObjectFile> ObjectFile::Deserialize(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic != kHofMagic) {
    return CorruptData("not a HOF object file (bad magic)");
  }
  ASSIGN_OR_RETURN(uint32_t version, r.U32());
  if (version != kHofVersion) {
    return UnsupportedVersion("HOF version " + std::to_string(version) + " (this build speaks " +
                              std::to_string(kHofVersion) + ")");
  }
  ObjectFile obj;
  ASSIGN_OR_RETURN(obj.name_, r.Str());
  ASSIGN_OR_RETURN(obj.text_, r.Bytes());
  ASSIGN_OR_RETURN(obj.data_, r.Bytes());
  ASSIGN_OR_RETURN(obj.bss_size_, r.U32());
  if (obj.text_.size() % 4 != 0) {
    return CorruptData("HOF .text not instruction-aligned");
  }
  if (obj.bss_size_ > kHofMaxBssBytes) {
    return CorruptData("HOF .bss larger than the private data region");
  }
  // Names are read as views into |bytes| and copied once, into the element
  // already in place; the duplicate check sorts the views.
  ASSIGN_OR_RETURN(uint32_t nsyms, r.Count(kHofSymbolMinBytes, kHofMaxSymbols));
  obj.symbols_.reserve(nsyms);
  std::vector<std::string_view> names;
  names.reserve(nsyms);
  for (uint32_t i = 0; i < nsyms; ++i) {
    Symbol& sym = obj.symbols_.emplace_back();
    ASSIGN_OR_RETURN(std::string_view name, r.StrView());
    sym.name.assign(name);
    ASSIGN_OR_RETURN(uint8_t defined, r.U8());
    sym.defined = defined != 0;
    ASSIGN_OR_RETURN(uint8_t section, r.U8());
    if (section > 2) {
      return CorruptData("bad symbol section");
    }
    sym.section = static_cast<SectionKind>(section);
    ASSIGN_OR_RETURN(sym.value, r.U32());
    ASSIGN_OR_RETURN(uint8_t binding, r.U8());
    if (binding > 1) {
      return CorruptData("bad symbol binding");
    }
    sym.binding = static_cast<SymBinding>(binding);
    ASSIGN_OR_RETURN(uint8_t is_function, r.U8());
    sym.is_function = is_function != 0;
    if (name.empty()) {
      return CorruptData("symbol with empty name");
    }
    if (sym.defined && sym.value > obj.SectionSize(sym.section)) {
      return CorruptData("symbol '" + sym.name + "' points past the end of " +
                         SectionName(sym.section));
    }
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  if (auto dup = std::adjacent_find(names.begin(), names.end()); dup != names.end()) {
    return CorruptData("duplicate symbol table entry '" + std::string(*dup) + "'");
  }
  ASSIGN_OR_RETURN(uint32_t nrels, r.Count(kHofRelocMinBytes, kHofMaxRelocs));
  obj.relocations_.reserve(nrels);
  for (uint32_t i = 0; i < nrels; ++i) {
    Relocation& rel = obj.relocations_.emplace_back();
    ASSIGN_OR_RETURN(uint8_t type, r.U8());
    if (type > 4) {
      return CorruptData("bad relocation type");
    }
    rel.type = static_cast<RelocType>(type);
    ASSIGN_OR_RETURN(uint8_t section, r.U8());
    if (section > 2) {
      return CorruptData("bad relocation section");
    }
    rel.section = static_cast<SectionKind>(section);
    ASSIGN_OR_RETURN(rel.offset, r.U32());
    ASSIGN_OR_RETURN(std::string_view symbol, r.StrView());
    rel.symbol.assign(symbol);
    ASSIGN_OR_RETURN(rel.addend, r.I32());
    if (rel.section == SectionKind::kBss) {
      return CorruptData("relocation site in .bss (no bytes to patch)");
    }
    if (static_cast<uint64_t>(rel.offset) + 4 > obj.SectionSize(rel.section)) {
      return CorruptData("relocation site outside its section");
    }
  }
  ASSIGN_OR_RETURN(uint32_t nmods, r.Count(4, kHofMaxNames));
  obj.module_list_.reserve(nmods);
  for (uint32_t i = 0; i < nmods; ++i) {
    ASSIGN_OR_RETURN(std::string_view mod, r.StrView());
    obj.module_list_.emplace_back(mod);
  }
  ASSIGN_OR_RETURN(uint32_t ndirs, r.Count(4, kHofMaxNames));
  obj.search_path_.reserve(ndirs);
  for (uint32_t i = 0; i < ndirs; ++i) {
    ASSIGN_OR_RETURN(std::string_view dir, r.StrView());
    obj.search_path_.emplace_back(dir);
  }
  RETURN_IF_ERROR(r.ExpectEnd("HOF object"));
  return obj;
}

uint32_t ObjectBuilder::EmitText(uint32_t word) {
  uint32_t offset = static_cast<uint32_t>(obj_.text().size());
  obj_.text().push_back(static_cast<uint8_t>(word));
  obj_.text().push_back(static_cast<uint8_t>(word >> 8));
  obj_.text().push_back(static_cast<uint8_t>(word >> 16));
  obj_.text().push_back(static_cast<uint8_t>(word >> 24));
  return offset;
}

void ObjectBuilder::PatchText(uint32_t offset, uint32_t word) {
  obj_.text()[offset] = static_cast<uint8_t>(word);
  obj_.text()[offset + 1] = static_cast<uint8_t>(word >> 8);
  obj_.text()[offset + 2] = static_cast<uint8_t>(word >> 16);
  obj_.text()[offset + 3] = static_cast<uint8_t>(word >> 24);
}

uint32_t ObjectBuilder::EmitData(const void* bytes, uint32_t len) {
  uint32_t offset = static_cast<uint32_t>(obj_.data().size());
  const auto* p = static_cast<const uint8_t*>(bytes);
  obj_.data().insert(obj_.data().end(), p, p + len);
  return offset;
}

uint32_t ObjectBuilder::EmitDataWord(uint32_t word) {
  uint8_t bytes[4] = {static_cast<uint8_t>(word), static_cast<uint8_t>(word >> 8),
                      static_cast<uint8_t>(word >> 16), static_cast<uint8_t>(word >> 24)};
  return EmitData(bytes, 4);
}

void ObjectBuilder::AlignData(uint32_t alignment) {
  while (obj_.data().size() % alignment != 0) {
    obj_.data().push_back(0);
  }
}

uint32_t ObjectBuilder::ReserveBss(uint32_t len, uint32_t alignment) {
  uint32_t offset = obj_.bss_size();
  offset = (offset + alignment - 1) & ~(alignment - 1);
  obj_.set_bss_size(offset + len);
  return offset;
}

Status ObjectBuilder::DefineSymbol(const std::string& name, SectionKind section, uint32_t value,
                                   bool is_function, SymBinding binding) {
  Symbol sym;
  sym.name = name;
  sym.defined = true;
  sym.section = section;
  sym.value = value;
  sym.binding = binding;
  sym.is_function = is_function;
  return obj_.AddSymbol(sym);
}

void ObjectBuilder::AddReloc(RelocType type, SectionKind section, uint32_t offset,
                             const std::string& symbol, int32_t addend) {
  Relocation rel;
  rel.type = type;
  rel.section = section;
  rel.offset = offset;
  rel.symbol = symbol;
  rel.addend = addend;
  obj_.relocations().push_back(std::move(rel));
  obj_.ReferenceSymbol(symbol);
}

}  // namespace hemlock
