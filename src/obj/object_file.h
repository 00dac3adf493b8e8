// HOF — the Hemlock Object Format.
//
// The paper's linkers capitalize on "the lowest common denominator for language
// implementations: the object file" (§3). A HOF template (.o) carries text/data/bss
// sections, a symbol table, relocations, and — at the user's discretion — an embedded
// search strategy (lds "can be asked to include search strategy information in the new
// .o file"), which is what scoped linking consults when the module is created at run
// time.
//
// Relocation types mirror what an R3000 tool chain needs:
//   kWord32   32-bit absolute cell in data (or a jump table) = S + A
//   kHi16     LUI immediate: high half of S + A (paired with a following kLo16)
//   kLo16     ORI immediate: low half of S + A
//   kPcRel16  branch displacement in words, relative to site + 4
//   kJump26   J/JAL word target; only encodable when the target shares the site's
//             256 MB region — otherwise the static linker inserts a trampoline.
#ifndef SRC_OBJ_OBJECT_FILE_H_
#define SRC_OBJ_OBJECT_FILE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/status.h"

namespace hemlock {

enum class SectionKind : uint8_t { kText = 0, kData = 1, kBss = 2 };

const char* SectionName(SectionKind kind);

enum class RelocType : uint8_t {
  kWord32 = 0,
  kHi16 = 1,
  kLo16 = 2,
  kPcRel16 = 3,
  kJump26 = 4,
};

const char* RelocTypeName(RelocType type);

struct Relocation {
  RelocType type = RelocType::kWord32;
  SectionKind section = SectionKind::kText;  // section containing the relocated site
  uint32_t offset = 0;                       // byte offset of the site in that section
  std::string symbol;                        // name of the referenced symbol
  int32_t addend = 0;

  bool operator==(const Relocation&) const = default;
};

enum class SymBinding : uint8_t { kLocal = 0, kGlobal = 1 };

struct Symbol {
  std::string name;
  bool defined = false;
  SectionKind section = SectionKind::kText;  // meaningful when defined
  uint32_t value = 0;                        // offset within section (template form)
  SymBinding binding = SymBinding::kGlobal;
  bool is_function = false;

  bool operator==(const Symbol&) const = default;
};

// A relocatable object module (a template, in the paper's vocabulary).
class ObjectFile {
 public:
  ObjectFile() = default;
  explicit ObjectFile(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  std::vector<uint8_t>& text() { return text_; }
  const std::vector<uint8_t>& text() const { return text_; }
  std::vector<uint8_t>& data() { return data_; }
  const std::vector<uint8_t>& data() const { return data_; }
  uint32_t bss_size() const { return bss_size_; }
  void set_bss_size(uint32_t size) { bss_size_ = size; }

  std::vector<Symbol>& symbols() { return symbols_; }
  const std::vector<Symbol>& symbols() const { return symbols_; }
  std::vector<Relocation>& relocations() { return relocations_; }
  const std::vector<Relocation>& relocations() const { return relocations_; }

  // Embedded search strategy (paper §2): module names this template wants linked in,
  // and directories to search for them. Consulted by scoped linking when this module
  // is instantiated at run time.
  std::vector<std::string>& module_list() { return module_list_; }
  const std::vector<std::string>& module_list() const { return module_list_; }
  std::vector<std::string>& search_path() { return search_path_; }
  const std::vector<std::string>& search_path() const { return search_path_; }

  // Adds a symbol, merging with an existing entry of the same name: a definition
  // overrides an undefined reference; two definitions are an error.
  Status AddSymbol(const Symbol& sym);
  // Records an undefined global reference if the name is not yet known.
  void ReferenceSymbol(const std::string& name);

  const Symbol* FindSymbol(const std::string& name) const;
  Symbol* FindSymbol(const std::string& name);

  // Names of global symbols that are referenced but not defined here.
  std::vector<std::string> UndefinedSymbols() const;
  // Names of global symbols defined here (the module's exports).
  std::vector<std::string> ExportedSymbols() const;

  uint32_t SectionSize(SectionKind kind) const;

  // --- Serialization (the on-disk .o form) ---
  std::vector<uint8_t> Serialize() const;
  static Result<ObjectFile> Deserialize(const std::vector<uint8_t>& bytes);

 private:
  std::string name_;
  std::vector<uint8_t> text_;
  std::vector<uint8_t> data_;
  uint32_t bss_size_ = 0;
  std::vector<Symbol> symbols_;
  std::vector<Relocation> relocations_;
  std::vector<std::string> module_list_;
  std::vector<std::string> search_path_;
};

// Incremental builder used by the code generator (and by tests constructing
// synthetic modules).
class ObjectBuilder {
 public:
  explicit ObjectBuilder(std::string name) : obj_(std::move(name)) {}

  // Appends one instruction word to .text; returns its byte offset.
  uint32_t EmitText(uint32_t word);
  // Overwrites a previously emitted instruction (branch back-patching).
  void PatchText(uint32_t offset, uint32_t word);
  uint32_t TextSize() const { return static_cast<uint32_t>(obj_.text().size()); }

  // Appends raw bytes to .data; returns the starting offset.
  uint32_t EmitData(const void* bytes, uint32_t len);
  uint32_t EmitDataWord(uint32_t word);
  // Pads .data to |alignment| bytes.
  void AlignData(uint32_t alignment);
  // Reserves |len| zero bytes in .bss; returns the starting offset.
  uint32_t ReserveBss(uint32_t len, uint32_t alignment = 4);

  Status DefineSymbol(const std::string& name, SectionKind section, uint32_t value,
                      bool is_function, SymBinding binding = SymBinding::kGlobal);
  void Reference(const std::string& name) { obj_.ReferenceSymbol(name); }
  void AddReloc(RelocType type, SectionKind section, uint32_t offset, const std::string& symbol,
                int32_t addend = 0);

  ObjectFile Take() { return std::move(obj_); }
  const ObjectFile& object() const { return obj_; }

 private:
  ObjectFile obj_;
};

}  // namespace hemlock

#endif  // SRC_OBJ_OBJECT_FILE_H_
