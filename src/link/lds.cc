#include "src/link/lds.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "src/base/layout.h"
#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/isa/isa.h"
#include "src/link/search.h"

namespace hemlock {

namespace {

// Private text starts one page in, so null-pointer calls fault.
constexpr uint32_t kImageTextBase = kTextBase + kPageSize;
constexpr uint32_t kTrampolineBytes = 12;  // lui $at; ori $at; jr $at

// Emits the three-instruction far-jump fragment at |offset| in |text| targeting
// |target| (0 when the target is patched later through pending HI16/LO16 relocs).
void WriteTrampoline(std::vector<uint8_t>* text, uint32_t offset, uint32_t target) {
  auto put = [&](uint32_t off, uint32_t word) {
    (*text)[off] = static_cast<uint8_t>(word);
    (*text)[off + 1] = static_cast<uint8_t>(word >> 8);
    (*text)[off + 2] = static_cast<uint8_t>(word >> 16);
    (*text)[off + 3] = static_cast<uint8_t>(word >> 24);
  };
  put(offset, EncodeLui(kRegAt, static_cast<uint16_t>(target >> 16)));
  put(offset + 4, EncodeOri(kRegAt, kRegAt, static_cast<uint16_t>(target)));
  put(offset + 8, EncodeJr(kRegAt));
}

uint32_t AlignUp(uint32_t value, uint32_t alignment) {
  return (value + alignment - 1) & ~(alignment - 1);
}

}  // namespace

ObjectFile SynthesizeCrt0() {
  ObjectBuilder b("crt0.o");
  uint32_t start = b.EmitText(0);  // placeholder; rewritten below
  b.PatchText(start, EncodeJ(Op::kJal, 0));
  b.AddReloc(RelocType::kJump26, SectionKind::kText, start, "main", 0);
  b.EmitText(EncodeR(Funct::kAdd, kRegA0, kRegV0, kRegZero));
  b.EmitText(EncodeOri(kRegV0, kRegZero, static_cast<uint16_t>(Sys::kExit)));
  b.EmitText(EncodeSyscall());
  b.EmitText(EncodeBreak());  // not reached
  Status st = b.DefineSymbol("_start", SectionKind::kText, 0, /*is_function=*/true);
  (void)st;
  return b.Take();
}

uint64_t LinkedTemplateHash(const std::vector<uint8_t>& tpl_bytes, uint32_t base) {
  uint64_t h = HashWords64(tpl_bytes.data(), tpl_bytes.size(), kFnv1a64Seed ^ base);
  return h != 0 ? h : 1;  // 0 means "pre-hash file": never collide with it
}

Result<LinkedModule> LinkModuleAtBase(const ObjectFile& tpl,
                                      const std::vector<uint8_t>& tpl_bytes, uint32_t base,
                                      const std::string& name, uint32_t* trampolines_out) {
  LinkedModule mod;
  mod.name = name;
  mod.base = base;
  mod.module_list = tpl.module_list();
  mod.search_path = tpl.search_path();
  mod.template_hash = LinkedTemplateHash(tpl_bytes, base);

  const std::vector<Symbol>& syms = tpl.symbols();
  const std::vector<Relocation>& rels = tpl.relocations();
  // Map each name to its symbol-table index once: the indices sorted by name
  // (stable, so the first entry of a name wins, as FindSymbol's scan).
  std::vector<uint32_t> by_sym_name(syms.size());
  std::iota(by_sym_name.begin(), by_sym_name.end(), 0u);
  std::stable_sort(by_sym_name.begin(), by_sym_name.end(),
                   [&](uint32_t a, uint32_t b) { return syms[a].name < syms[b].name; });
  auto find_symbol = [&](const std::string& name) -> std::optional<uint32_t> {
    auto it = std::lower_bound(by_sym_name.begin(), by_sym_name.end(), name,
                               [&](uint32_t i, const std::string& n) { return syms[i].name < n; });
    if (it == by_sym_name.end() || syms[*it].name != name) {
      return std::nullopt;
    }
    return *it;
  };

  // Pass 1: look each relocation's symbol up once. A defined symbol is a local
  // target; each distinct external JUMP26 target gets one trampoline slot, numbered
  // in first-reference order. A name the symbol table does not list (only a
  // hand-made HOF has one) keeps a slot keyed by name.
  constexpr uint32_t kNoSlot = UINT32_MAX;
  struct Target {
    const Symbol* local = nullptr;  // null: external
    uint32_t slot = kNoSlot;        // external JUMP26: its trampoline slot
  };
  std::vector<Target> targets;
  targets.reserve(rels.size());
  std::vector<uint32_t> sym_slot(syms.size(), kNoSlot);
  std::unordered_map<std::string_view, uint32_t> unlisted_slot;
  std::vector<std::string_view> slot_names;  // slot -> symbol
  size_t external_data = 0;                  // external references left pending as is
  for (const Relocation& rel : rels) {
    std::optional<uint32_t> index = find_symbol(rel.symbol);
    const Symbol* sym = index.has_value() ? &syms[*index] : nullptr;
    Target& target = targets.emplace_back();
    if (sym != nullptr && sym->defined) {
      target.local = sym;
    } else if (rel.type == RelocType::kJump26) {
      uint32_t& slot = sym != nullptr
                           ? sym_slot[*index]
                           : unlisted_slot.try_emplace(rel.symbol, kNoSlot).first->second;
      if (slot == kNoSlot) {
        slot = static_cast<uint32_t>(slot_names.size());
        slot_names.push_back(rel.symbol);
      }
      target.slot = slot;
    } else {
      ++external_data;
    }
  }
  const uint32_t num_slots = static_cast<uint32_t>(slot_names.size());
  if (trampolines_out != nullptr) {
    *trampolines_out += num_slots;
  }

  const uint32_t text_size = static_cast<uint32_t>(tpl.text().size());
  uint32_t text_total = text_size + num_slots * kTrampolineBytes;
  uint32_t data_off = AlignUp(text_total, 16);
  uint32_t raw_data = static_cast<uint32_t>(tpl.data().size());
  uint32_t bss_off = AlignUp(data_off + raw_data, 16);
  // Recorded sizes absorb alignment padding so text_size + data_size == bss_off.
  mod.text_size = data_off;
  mod.data_size = bss_off - data_off;
  mod.bss_size = tpl.bss_size();
  // The paper caps a shared file (and hence a module) at 1 MB.
  if (bss_off + mod.bss_size > kSfsMaxFileBytes) {
    return ResourceExhausted("module '" + name + "' exceeds the 1 MB segment limit");
  }

  // Initialized payload: [text | trampolines | pad | data].
  mod.payload.assign(data_off + raw_data, 0);
  std::copy(tpl.text().begin(), tpl.text().end(), mod.payload.begin());
  std::copy(tpl.data().begin(), tpl.data().end(), mod.payload.begin() + data_off);

  // Absolute symbol addresses.
  auto addr_of = [&](const Symbol& sym) -> uint32_t {
    switch (sym.section) {
      case SectionKind::kText:
        return base + sym.value;
      case SectionKind::kData:
        return base + data_off + sym.value;
      case SectionKind::kBss:
        return base + bss_off + sym.value;
    }
    return 0;
  };

  mod.exports.reserve(std::count_if(syms.begin(), syms.end(), [](const Symbol& sym) {
    return sym.defined && sym.binding == SymBinding::kGlobal;
  }));
  for (const Symbol& sym : syms) {
    if (sym.defined && sym.binding == SymBinding::kGlobal) {
      mod.exports.push_back(AbsSymbol{sym.name, addr_of(sym), sym.is_function});
    }
  }

  // Write trampoline slots (unresolved form) and their pending relocations, in
  // symbol order so the pending list does not depend on first-reference order.
  mod.pending.reserve(2 * num_slots + external_data);
  std::vector<uint32_t> slots_by_name(num_slots);
  std::iota(slots_by_name.begin(), slots_by_name.end(), 0u);
  std::sort(slots_by_name.begin(), slots_by_name.end(),
            [&](uint32_t a, uint32_t b) { return slot_names[a] < slot_names[b]; });
  for (uint32_t slot : slots_by_name) {
    uint32_t offset = text_size + slot * kTrampolineBytes;
    WriteTrampoline(&mod.payload, offset, 0);
    std::string symbol(slot_names[slot]);
    mod.pending.push_back(PendingReloc{RelocType::kHi16, base + offset, symbol, 0});
    mod.pending.push_back(PendingReloc{RelocType::kLo16, base + offset + 4, std::move(symbol), 0});
  }

  // Pass 2: apply relocations.
  for (size_t i = 0; i < rels.size(); ++i) {
    const Relocation& rel = rels[i];
    uint32_t site = 0;
    switch (rel.section) {
      case SectionKind::kText:
        site = base + rel.offset;
        break;
      case SectionKind::kData:
        site = base + data_off + rel.offset;
        break;
      case SectionKind::kBss:
        return CorruptData("relocation against .bss in module " + name);
    }
    const Target& target = targets[i];
    if (target.local != nullptr) {
      uint32_t addr = addr_of(*target.local) + static_cast<uint32_t>(rel.addend);
      RETURN_IF_ERROR(
          ApplyReloc(mod.payload.data(), mod.payload.size(), base, rel.type, site, addr));
    } else if (target.slot != kNoSlot) {
      // External call: redirect through the module-local trampoline (always in range).
      uint32_t slot_addr = base + text_size + target.slot * kTrampolineBytes;
      RETURN_IF_ERROR(
          ApplyReloc(mod.payload.data(), mod.payload.size(), base, rel.type, site, slot_addr));
    } else {
      mod.pending.push_back(PendingReloc{rel.type, site, rel.symbol, rel.addend});
    }
  }
  return mod;
}

namespace {

// A static private module placed into the image.
struct PlacedModule {
  ObjectFile tpl;
  std::string found_path;
  uint32_t text_off = 0;  // within the image text buffer
  uint32_t data_off = 0;  // within the image data buffer
  uint32_t bss_off = 0;   // within the image data buffer (after all data)
};

}  // namespace

Result<LoadImage> StaticLinker::Link(const LdsOptions& options, LdsReport* report) {
  LdsReport local_report;
  if (report == nullptr) {
    report = &local_report;
  }
  std::vector<std::string> search_dirs =
      StaticSearchDirs(options.cwd, options.lib_dirs, options.env_ld_library_path);

  LoadImage image;
  image.search_path = search_dirs;

  // --- Gather inputs by class ---
  std::vector<PlacedModule> privates;
  {
    PlacedModule crt0;
    crt0.tpl = SynthesizeCrt0();
    crt0.found_path = "<crt0>";
    privates.push_back(std::move(crt0));
  }
  struct StaticPublic {
    std::string found_path;
    std::vector<uint8_t> bytes;  // the template file, hashed into the module's trailer
    ObjectFile tpl;
  };
  std::vector<StaticPublic> static_publics;

  for (const LdsInput& input : options.inputs) {
    if (IsDynamic(input.cls)) {
      // lds does not resolve dynamic modules — it only warns when they are absent
      // (they may be created later) and records them for ldl.
      Result<std::string> found = FindModuleFile(*vfs_, input.name, search_dirs);
      if (!found.ok()) {
        std::string warning =
            "lds: dynamic module '" + input.name + "' does not exist yet (continuing)";
        report->warnings.push_back(warning);
        HLOG(Warning) << warning;
      }
      image.dynamic_modules.push_back(DynModuleRecord{input.name, input.cls});
      continue;
    }
    // Static classes: the module must exist now; missing aborts the link.
    Result<std::string> found = FindModuleFile(*vfs_, input.name, search_dirs);
    if (!found.ok()) {
      return NotFound("lds: cannot find static module '" + input.name + "'");
    }
    ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, vfs_->ReadFile(*found));
    ASSIGN_OR_RETURN(ObjectFile tpl, ObjectFile::Deserialize(bytes));
    if (input.cls == ShareClass::kStaticPrivate) {
      PlacedModule placed;
      placed.tpl = std::move(tpl);
      placed.found_path = *found;
      privates.push_back(std::move(placed));
    } else {
      static_publics.push_back(StaticPublic{*found, std::move(bytes), std::move(tpl)});
    }
  }

  // --- Create or load static public modules ---
  std::vector<LinkedModule> publics;
  for (const auto& [found_path, tpl_bytes, tpl] : static_publics) {
    if (!Vfs::OnSharedPartition(found_path)) {
      return InvalidArgument("lds: public module template '" + found_path +
                             "' must reside on the shared partition");
    }
    std::string module_path = StripExtension(found_path);
    if (vfs_->Exists(module_path)) {
      ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, vfs_->ReadFile(module_path));
      ASSIGN_OR_RETURN(LinkedModule mod, LinkedModule::DeserializeFile(bytes));
      publics.push_back(std::move(mod));
      ++report->publics_reused;
    } else {
      // Creating the file assigns the inode and hence the unique global address.
      std::string rel = Vfs::SfsRelative(module_path);
      ASSIGN_OR_RETURN(uint32_t ino, vfs_->sfs().Create(rel));
      uint32_t base = SfsAddressForInode(ino);
      Result<LinkedModule> mod =
          LinkModuleAtBase(tpl, tpl_bytes, base, PathBasename(module_path), &report->trampolines);
      if (!mod.ok()) {
        (void)vfs_->sfs().Unlink(rel);
        return mod.status();
      }
      std::vector<uint8_t> file = mod->SerializeFile();
      RETURN_IF_ERROR(vfs_->sfs().WriteAt(ino, 0, file.data(), static_cast<uint32_t>(file.size())));
      publics.push_back(std::move(*mod));
      ++report->publics_created;
    }
    image.static_publics.push_back(StaticPublicRef{module_path, publics.back().base});
  }

  // Resolve pendings among the public modules themselves (public-to-public
  // references become permanent, shared resolutions).
  {
    std::map<std::string, AbsSymbol> public_syms;
    for (const LinkedModule& mod : publics) {
      for (const AbsSymbol& sym : mod.exports) {
        public_syms.emplace(sym.name, sym);  // first wins
      }
    }
    for (size_t i = 0; i < publics.size(); ++i) {
      LinkedModule& mod = publics[i];
      std::vector<PendingReloc> still;
      bool changed = false;
      for (const PendingReloc& p : mod.pending) {
        auto it = public_syms.find(p.symbol);
        if (it == public_syms.end()) {
          still.push_back(p);
          continue;
        }
        RETURN_IF_ERROR(ApplyReloc(mod.payload.data(), mod.payload.size(), mod.base, p.type,
                                   p.site, it->second.addr + static_cast<uint32_t>(p.addend)));
        changed = true;
      }
      if (changed) {
        mod.pending = std::move(still);
        std::vector<uint8_t> file = mod.SerializeFile();
        std::string rel = Vfs::SfsRelative(image.static_publics[i].module_path);
        ASSIGN_OR_RETURN(uint32_t ino, vfs_->sfs().Lookup(rel));
        RETURN_IF_ERROR(vfs_->sfs().Truncate(ino, 0));
        RETURN_IF_ERROR(
            vfs_->sfs().WriteAt(ino, 0, file.data(), static_cast<uint32_t>(file.size())));
      }
    }
  }

  // --- Lay out the static private portion ---
  // Pass 1: text offsets and the trampoline pool (shared across modules; all private
  // text lives in one 256 MB region so one pool at the end of text is always in range).
  uint32_t text_cursor = 0;
  for (PlacedModule& placed : privates) {
    placed.text_off = text_cursor;
    text_cursor += AlignUp(static_cast<uint32_t>(placed.tpl.text().size()), 4);
  }

  // Global symbol table: private definitions + public exports.
  std::map<std::string, AbsSymbol> symtab;
  auto add_symbol = [&](const AbsSymbol& sym) -> Status {
    auto [it, inserted] = symtab.emplace(sym.name, sym);
    if (!inserted) {
      if (options.duplicate_policy == DuplicatePolicy::kError) {
        return AlreadyExists("lds: multiple definitions of '" + sym.name + "'");
      }
      // kFirstWins / kScoped: keep the existing entry (paper: "picks one (e.g., the
      // first)"); scoped resolution below lets same-named exports coexist anyway.
    }
    return OkStatus();
  };

  // Data/bss layout.
  uint32_t data_cursor = 0;
  for (PlacedModule& placed : privates) {
    data_cursor = AlignUp(data_cursor, 16);
    placed.data_off = data_cursor;
    data_cursor += static_cast<uint32_t>(placed.tpl.data().size());
  }
  for (PlacedModule& placed : privates) {
    data_cursor = AlignUp(data_cursor, 16);
    placed.bss_off = data_cursor;
    data_cursor += placed.tpl.bss_size();
  }

  auto private_addr = [&](const PlacedModule& placed, const Symbol& sym) -> uint32_t {
    switch (sym.section) {
      case SectionKind::kText:
        return kImageTextBase + placed.text_off + sym.value;
      case SectionKind::kData:
        return kDataBase + placed.data_off + sym.value;
      case SectionKind::kBss:
        return kDataBase + placed.bss_off + sym.value;
    }
    return 0;
  };

  for (const PlacedModule& placed : privates) {
    for (const Symbol& sym : placed.tpl.symbols()) {
      if (sym.defined && sym.binding == SymBinding::kGlobal) {
        RETURN_IF_ERROR(add_symbol(AbsSymbol{sym.name, private_addr(placed, sym),
                                             sym.is_function}));
      }
    }
  }
  for (const LinkedModule& mod : publics) {
    for (const AbsSymbol& sym : mod.exports) {
      RETURN_IF_ERROR(add_symbol(sym));
    }
  }

  // Per-module export maps for scoped static resolution (DuplicatePolicy::kScoped):
  // module name (template basename, ".o" stripped) -> its exported symbols.
  std::map<std::string, std::map<std::string, AbsSymbol>> module_exports;
  for (const PlacedModule& placed : privates) {
    std::string mod_name = StripExtension(PathBasename(placed.found_path));
    auto& exports = module_exports[mod_name];
    for (const Symbol& sym : placed.tpl.symbols()) {
      if (sym.defined && sym.binding == SymBinding::kGlobal) {
        exports.emplace(sym.name, AbsSymbol{sym.name, private_addr(placed, sym),
                                            sym.is_function});
      }
    }
  }
  for (const LinkedModule& mod : publics) {
    auto& exports = module_exports[mod.name];
    for (const AbsSymbol& sym : mod.exports) {
      exports.emplace(sym.name, sym);
    }
  }

  // Resolves a reference out of |placed|: module-local definitions first (statics),
  // then — under kScoped — the exports of the modules on its own embedded list,
  // finally the flat table.
  auto resolve_for = [&](const PlacedModule& placed,
                         const std::string& symbol) -> std::optional<AbsSymbol> {
    const Symbol* local = placed.tpl.FindSymbol(symbol);
    if (local != nullptr && local->defined) {
      return AbsSymbol{symbol, private_addr(placed, *local), local->is_function};
    }
    if (options.duplicate_policy == DuplicatePolicy::kScoped) {
      for (const std::string& dep : placed.tpl.module_list()) {
        auto mod_it = module_exports.find(StripExtension(PathBasename(dep)));
        if (mod_it == module_exports.end()) {
          continue;
        }
        auto sym_it = mod_it->second.find(symbol);
        if (sym_it != mod_it->second.end()) {
          return sym_it->second;
        }
      }
    }
    auto it = symtab.find(symbol);
    if (it != symtab.end()) {
      return it->second;
    }
    return std::nullopt;
  };

  // Trampoline pool: one slot per distinct far-jump *target* (scoped linking can
  // resolve one symbol name to different targets in different modules), plus one per
  // unresolved symbol (filled by ldl through pending HI16/LO16).
  struct TrampSlot {
    uint32_t offset = 0;
    uint32_t target = 0;      // 0 when unresolved
    std::string symbol;       // set when unresolved
  };
  std::map<std::string, TrampSlot> tramp_slots;  // key -> slot
  auto tramp_key = [](const std::optional<AbsSymbol>& resolved, const std::string& symbol) {
    return resolved.has_value() ? StrFormat("addr:%08x", resolved->addr) : "sym:" + symbol;
  };
  for (const PlacedModule& placed : privates) {
    for (const Relocation& rel : placed.tpl.relocations()) {
      if (rel.type != RelocType::kJump26) {
        continue;
      }
      std::optional<AbsSymbol> resolved = resolve_for(placed, rel.symbol);
      if (resolved.has_value()) {
        uint32_t site = kImageTextBase + placed.text_off + rel.offset;
        if (JumpInRange(site, resolved->addr)) {
          continue;  // direct jump fits
        }
      }
      std::string key = tramp_key(resolved, rel.symbol);
      if (tramp_slots.count(key) == 0) {
        TrampSlot slot;
        slot.offset = text_cursor + static_cast<uint32_t>(tramp_slots.size()) * kTrampolineBytes;
        slot.target = resolved.has_value() ? resolved->addr : 0;
        slot.symbol = resolved.has_value() ? "" : rel.symbol;
        tramp_slots[key] = slot;
      }
    }
  }
  report->trampolines += static_cast<uint32_t>(tramp_slots.size());
  uint32_t text_total = text_cursor + static_cast<uint32_t>(tramp_slots.size()) * kTrampolineBytes;

  // Build text and data buffers.
  std::vector<uint8_t> text(text_total, 0);
  std::vector<uint8_t> data(data_cursor, 0);
  for (const PlacedModule& placed : privates) {
    std::copy(placed.tpl.text().begin(), placed.tpl.text().end(), text.begin() + placed.text_off);
    std::copy(placed.tpl.data().begin(), placed.tpl.data().end(), data.begin() + placed.data_off);
  }

  // Fill trampolines: resolved targets directly; unknown ones get pending HI16/LO16.
  for (const auto& [key, slot] : tramp_slots) {
    if (slot.symbol.empty()) {
      WriteTrampoline(&text, slot.offset, slot.target);
    } else {
      WriteTrampoline(&text, slot.offset, 0);
      image.pending.push_back(
          PendingReloc{RelocType::kHi16, kImageTextBase + slot.offset, slot.symbol, 0});
      image.pending.push_back(
          PendingReloc{RelocType::kLo16, kImageTextBase + slot.offset + 4, slot.symbol, 0});
    }
  }

  // Apply relocations module by module.
  for (const PlacedModule& placed : privates) {
    for (const Relocation& rel : placed.tpl.relocations()) {
      uint32_t site = 0;
      std::vector<uint8_t>* buf = nullptr;
      uint32_t buf_base = 0;
      switch (rel.section) {
        case SectionKind::kText:
          site = kImageTextBase + placed.text_off + rel.offset;
          buf = &text;
          buf_base = kImageTextBase;
          break;
        case SectionKind::kData:
          site = kDataBase + placed.data_off + rel.offset;
          buf = &data;
          buf_base = kDataBase;
          break;
        case SectionKind::kBss:
          return CorruptData("relocation against .bss in " + placed.found_path);
      }
      // Resolution order: module-local symbol (covers statics), then — scoped — the
      // module's own list, then the global table.
      std::optional<AbsSymbol> found = resolve_for(placed, rel.symbol);
      if (found.has_value()) {
        uint32_t target = found->addr + static_cast<uint32_t>(rel.addend);
        if (rel.type == RelocType::kJump26 && !JumpInRange(site, target)) {
          // Far jump to a known target: go through the trampoline.
          target = kImageTextBase + tramp_slots.at(tramp_key(found, rel.symbol)).offset;
        }
        RETURN_IF_ERROR(ApplyReloc(buf->data(), buf->size(), buf_base, rel.type, site, target));
        continue;
      }
      // Unresolved: presumed to live in a dynamic module.
      if (rel.type == RelocType::kJump26) {
        uint32_t slot_addr =
            kImageTextBase + tramp_slots.at(tramp_key(std::nullopt, rel.symbol)).offset;
        RETURN_IF_ERROR(
            ApplyReloc(buf->data(), buf->size(), buf_base, rel.type, site, slot_addr));
      } else {
        image.pending.push_back(PendingReloc{rel.type, site, rel.symbol, rel.addend});
      }
    }
  }

  report->modules_linked = static_cast<uint32_t>(privates.size());
  report->pending_relocs = static_cast<uint32_t>(image.pending.size());

  // Assemble the image.
  ImageSegment text_seg;
  text_seg.vaddr = kImageTextBase;
  text_seg.mem_size = AlignUp(text_total, kPageSize);
  text_seg.executable = true;
  text_seg.bytes = std::move(text);
  image.segments.push_back(std::move(text_seg));

  if (data_cursor > 0) {
    ImageSegment data_seg;
    data_seg.vaddr = kDataBase;
    data_seg.mem_size = AlignUp(data_cursor, kPageSize);
    data_seg.executable = false;
    data_seg.bytes = std::move(data);
    image.segments.push_back(std::move(data_seg));
  }

  image.entry = kImageTextBase;  // crt0 _start is the first text byte
  for (const auto& [name, sym] : symtab) {
    image.symbols.push_back(sym);
  }

  if (!options.output_path.empty()) {
    RETURN_IF_ERROR(vfs_->WriteFile(options.output_path, image.Serialize()));
  }
  return image;
}

}  // namespace hemlock
