#include "src/lang/codegen.h"

#include <cassert>
#include <map>
#include <vector>

#include "src/base/strings.h"
#include "src/isa/isa.h"

namespace hemlock {

namespace {

// Syscall intrinsics (the table in src/isa/isa.h). A call to one of these names
// (when no user function shadows it) compiles to an inline syscall sequence rather
// than a JAL.
const SyscallInfo* FindIntrinsic(const std::string& name) {
  for (const SyscallInfo& sys : kSyscalls) {
    if (name == sys.intrinsic) {
      return &sys;
    }
  }
  return nullptr;
}

class CodeGen {
 public:
  CodeGen(const Program& program, const std::string& module_name)
      : program_(program), b_(module_name) {}

  Result<ObjectFile> Run() {
    RETURN_IF_ERROR(CollectGlobals());
    RETURN_IF_ERROR(EmitGlobals());
    for (const FuncDecl& fn : program_.functions) {
      if (!fn.is_extern) {
        RETURN_IF_ERROR(EmitFunction(fn));
      }
    }
    return b_.Take();
  }

 private:
  struct GlobalInfo {
    TypeRef type;
    bool is_function = false;
    bool defined_here = false;  // has a definition in this module
    std::vector<TypeRef> param_types;
  };

  struct LocalVar {
    TypeRef type;
    int32_t fp_offset = 0;  // negative: locals; positive: incoming args
  };

  Status Error(int line, const std::string& msg) const {
    return InvalidArgument(
        StrFormat("codegen error (%s:%d): %s", b_.object().name().c_str(), line, msg.c_str()));
  }

  // ===== Symbol collection =====

  Status CollectGlobals() {
    for (const GlobalVar& var : program_.globals) {
      auto it = globals_.find(var.name);
      bool defines = !var.is_extern;
      if (it != globals_.end()) {
        if (defines && it->second.defined_here) {
          return Error(var.line, "duplicate global '" + var.name + "'");
        }
        it->second.defined_here = it->second.defined_here || defines;
        continue;
      }
      GlobalInfo info;
      info.type = var.type;
      info.defined_here = defines;
      globals_[var.name] = std::move(info);
    }
    for (const FuncDecl& fn : program_.functions) {
      auto it = globals_.find(fn.name);
      bool defines = !fn.is_extern;
      if (it != globals_.end()) {
        if (!it->second.is_function) {
          return Error(fn.line, "'" + fn.name + "' is both a variable and a function");
        }
        if (defines && it->second.defined_here) {
          return Error(fn.line, "duplicate function '" + fn.name + "'");
        }
        it->second.defined_here = it->second.defined_here || defines;
        continue;
      }
      GlobalInfo info;
      info.type = fn.ret;
      info.is_function = true;
      info.defined_here = defines;
      for (const Param& p : fn.params) {
        info.param_types.push_back(p.type);
      }
      globals_[fn.name] = std::move(info);
    }
    return OkStatus();
  }

  // ===== Global data emission =====

  // A const-folded initializer item: either a plain value or symbol+addend.
  struct ConstValue {
    int32_t value = 0;
    std::string symbol;  // empty: pure constant
  };

  Result<ConstValue> ConstEval(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kNumber:
        return ConstValue{e.number, ""};
      case ExprKind::kString: {
        std::string label = InternString(e.text);
        return ConstValue{0, label};
      }
      case ExprKind::kSizeofType:
        return ConstValue{static_cast<int32_t>(TypeSize(*e.sizeof_type)), ""};
      case ExprKind::kIdent: {
        // A bare identifier in a constant initializer: a function or array name
        // decaying to its address.
        auto it = globals_.find(e.text);
        if (it == globals_.end()) {
          return Error(e.line, "unknown symbol in initializer: '" + e.text + "'");
        }
        if (!it->second.is_function && !it->second.type->IsArray()) {
          return Error(e.line, "initializer symbol '" + e.text + "' is not a constant address");
        }
        return ConstValue{0, e.text};
      }
      case ExprKind::kAddrOf: {
        const Expr& target = *e.lhs;
        if (target.kind == ExprKind::kIdent) {
          if (globals_.count(target.text) == 0) {
            return Error(e.line, "unknown symbol in initializer: '" + target.text + "'");
          }
          return ConstValue{0, target.text};
        }
        if (target.kind == ExprKind::kIndex && target.lhs->kind == ExprKind::kIdent) {
          ASSIGN_OR_RETURN(ConstValue idx, ConstEval(*target.rhs));
          if (!idx.symbol.empty()) {
            return Error(e.line, "non-constant array index in initializer");
          }
          auto it = globals_.find(target.lhs->text);
          if (it == globals_.end() || !it->second.type->IsArray()) {
            return Error(e.line, "initializer '&x[i]' requires a global array");
          }
          int32_t scale = static_cast<int32_t>(TypeSize(*it->second.type->elem));
          return ConstValue{idx.value * scale, target.lhs->text};
        }
        return Error(e.line, "unsupported address-of in initializer");
      }
      case ExprKind::kUnary: {
        ASSIGN_OR_RETURN(ConstValue v, ConstEval(*e.lhs));
        if (!v.symbol.empty()) {
          return Error(e.line, "arithmetic on symbol address in initializer");
        }
        switch (e.op) {
          case Tok::kMinus:
            return ConstValue{-v.value, ""};
          case Tok::kTilde:
            return ConstValue{~v.value, ""};
          case Tok::kBang:
            return ConstValue{v.value == 0 ? 1 : 0, ""};
          default:
            return Error(e.line, "unsupported unary operator in initializer");
        }
      }
      case ExprKind::kBinary: {
        ASSIGN_OR_RETURN(ConstValue a, ConstEval(*e.lhs));
        ASSIGN_OR_RETURN(ConstValue b, ConstEval(*e.rhs));
        // symbol +- const is allowed (address arithmetic).
        if (!a.symbol.empty() || !b.symbol.empty()) {
          if (e.op == Tok::kPlus && b.symbol.empty()) {
            return ConstValue{a.value + b.value, a.symbol};
          }
          if (e.op == Tok::kPlus && a.symbol.empty()) {
            return ConstValue{a.value + b.value, b.symbol};
          }
          if (e.op == Tok::kMinus && b.symbol.empty()) {
            return ConstValue{a.value - b.value, a.symbol};
          }
          return Error(e.line, "unsupported symbol arithmetic in initializer");
        }
        switch (e.op) {
          case Tok::kPlus:
            return ConstValue{a.value + b.value, ""};
          case Tok::kMinus:
            return ConstValue{a.value - b.value, ""};
          case Tok::kStar:
            return ConstValue{a.value * b.value, ""};
          case Tok::kSlash:
            if (b.value == 0) {
              return Error(e.line, "division by zero in initializer");
            }
            return ConstValue{a.value / b.value, ""};
          case Tok::kPercent:
            if (b.value == 0) {
              return Error(e.line, "division by zero in initializer");
            }
            return ConstValue{a.value % b.value, ""};
          case Tok::kShl:
            return ConstValue{a.value << (b.value & 31), ""};
          case Tok::kShr:
            return ConstValue{a.value >> (b.value & 31), ""};
          case Tok::kAmp:
            return ConstValue{a.value & b.value, ""};
          case Tok::kPipe:
            return ConstValue{a.value | b.value, ""};
          case Tok::kCaret:
            return ConstValue{a.value ^ b.value, ""};
          default:
            return Error(e.line, "unsupported binary operator in initializer");
        }
      }
      default:
        return Error(e.line, "initializer is not a constant expression");
    }
  }

  // Writes one scalar of |type| at the current end of .data from |cv|.
  Status EmitScalarInit(const Type& type, const ConstValue& cv, int line) {
    uint32_t size = TypeSize(type);
    if (!cv.symbol.empty()) {
      if (size != 4) {
        return Error(line, "address initializer requires a pointer-sized field");
      }
      uint32_t offset = b_.EmitDataWord(static_cast<uint32_t>(cv.value));
      b_.AddReloc(RelocType::kWord32, SectionKind::kData, offset, cv.symbol, cv.value);
      return OkStatus();
    }
    if (size == 1) {
      uint8_t byte = static_cast<uint8_t>(cv.value);
      b_.EmitData(&byte, 1);
    } else {
      b_.EmitDataWord(static_cast<uint32_t>(cv.value));
    }
    return OkStatus();
  }

  Status EmitInitializedVar(const GlobalVar& var) {
    const Type& type = *var.type;
    // Phase 1: const-fold every expression item *before* emitting anything —
    // ConstEval can intern string literals, which itself appends to .data, and
    // that must not land inside this variable's cells. Only the folded items are
    // held; a plain literal is read from its GlobalInit while emitting, so a
    // large table costs no ConstValue per element.
    bool char_array_from_string = type.IsArray() && type.elem->kind == Type::K::kChar &&
                                  var.inits.size() == 1 && var.inits[0].expr != nullptr &&
                                  var.inits[0].expr->kind == ExprKind::kString;
    std::vector<ConstValue> folded;
    if (!char_array_from_string) {
      for (const GlobalInit& init : var.inits) {
        if (init.expr != nullptr) {
          ASSIGN_OR_RETURN(ConstValue cv, ConstEval(*init.expr));
          folded.push_back(std::move(cv));
        }
      }
    }
    size_t next_folded = 0;
    auto emit_item = [&](const Type& t, const GlobalInit& init) {
      if (init.expr == nullptr) {
        return EmitScalarInit(t, ConstValue{init.value, ""}, var.line);
      }
      return EmitScalarInit(t, folded[next_folded++], var.line);
    };
    const size_t items = char_array_from_string ? 0 : var.inits.size();

    // Phase 2: lay the variable down.
    b_.AlignData(std::max<uint32_t>(TypeAlign(type), 1));
    uint32_t start = static_cast<uint32_t>(b_.object().data().size());
    auto emit_zeros = [&](uint32_t n) {
      for (uint32_t i = 0; i < n; ++i) {
        uint8_t zero = 0;
        b_.EmitData(&zero, 1);
      }
    };
    if (type.IsArray()) {
      const Type& elem = *type.elem;
      uint32_t elem_size = TypeSize(elem);
      if (char_array_from_string) {
        const std::string& s = var.inits[0].expr->text;
        if (s.size() + 1 > type.array_len) {
          return Error(var.line, "string initializer too long for '" + var.name + "'");
        }
        b_.EmitData(s.data(), static_cast<uint32_t>(s.size()));
        emit_zeros(type.array_len - static_cast<uint32_t>(s.size()));
      } else {
        if (items > type.array_len) {
          return Error(var.line, "too many initializers for '" + var.name + "'");
        }
        for (const GlobalInit& init : var.inits) {
          RETURN_IF_ERROR(emit_item(elem, init));
        }
        emit_zeros((type.array_len - static_cast<uint32_t>(items)) * elem_size);
      }
    } else if (type.IsStruct()) {
      if (items > type.sdef->fields.size()) {
        return Error(var.line, "too many initializers for '" + var.name + "'");
      }
      uint32_t written = 0;
      for (size_t i = 0; i < type.sdef->fields.size(); ++i) {
        const StructField& field = type.sdef->fields[i];
        emit_zeros(field.offset - written);  // padding up to the field offset
        written = field.offset;
        if (i < items) {
          RETURN_IF_ERROR(emit_item(*field.type, var.inits[i]));
        } else {
          emit_zeros(TypeSize(*field.type));
        }
        written += TypeSize(*field.type);
      }
      emit_zeros(type.sdef->size - written);
    } else {
      if (items != 1) {
        return Error(var.line, "scalar '" + var.name + "' needs exactly one initializer");
      }
      RETURN_IF_ERROR(emit_item(type, var.inits[0]));
    }
    return b_.DefineSymbol(var.name, SectionKind::kData, start, /*is_function=*/false,
                           var.is_static ? SymBinding::kLocal : SymBinding::kGlobal);
  }

  Status EmitGlobals() {
    for (const GlobalVar& var : program_.globals) {
      if (var.is_extern) {
        b_.Reference(var.name);
        continue;
      }
      if (var.has_init) {
        RETURN_IF_ERROR(EmitInitializedVar(var));
      } else {
        uint32_t offset = b_.ReserveBss(TypeSize(*var.type), TypeAlign(*var.type));
        RETURN_IF_ERROR(b_.DefineSymbol(var.name, SectionKind::kBss, offset,
                                        /*is_function=*/false,
                                        var.is_static ? SymBinding::kLocal : SymBinding::kGlobal));
      }
    }
    return OkStatus();
  }

  std::string InternString(const std::string& value) {
    auto it = string_labels_.find(value);
    if (it != string_labels_.end()) {
      return it->second;
    }
    std::string label = StrFormat(".Lstr%u", static_cast<unsigned>(string_labels_.size()));
    b_.AlignData(4);
    uint32_t offset = b_.EmitData(value.data(), static_cast<uint32_t>(value.size()));
    uint8_t zero = 0;
    b_.EmitData(&zero, 1);
    Status st = b_.DefineSymbol(label, SectionKind::kData, offset, /*is_function=*/false,
                                SymBinding::kLocal);
    assert(st.ok());
    (void)st;
    string_labels_[value] = label;
    return label;
  }

  // ===== Instruction helpers =====

  void Emit(uint32_t word) { b_.EmitText(word); }

  // Loads a 32-bit constant into |reg|.
  void EmitLoadImm(uint8_t reg, uint32_t value) {
    if (value <= 0xFFFF) {
      Emit(EncodeOri(reg, kRegZero, static_cast<uint16_t>(value)));
    } else if ((value & 0xFFFF) == 0) {
      Emit(EncodeLui(reg, static_cast<uint16_t>(value >> 16)));
    } else {
      Emit(EncodeLui(reg, static_cast<uint16_t>(value >> 16)));
      Emit(EncodeOri(reg, reg, static_cast<uint16_t>(value)));
    }
  }

  // Materializes the address of |symbol|+|addend| into |reg| via relocated LUI/ORI.
  void EmitLoadSymbolAddr(uint8_t reg, const std::string& symbol, int32_t addend = 0) {
    uint32_t lui_off = b_.TextSize();
    Emit(EncodeLui(reg, 0));
    b_.AddReloc(RelocType::kHi16, SectionKind::kText, lui_off, symbol, addend);
    uint32_t ori_off = b_.TextSize();
    Emit(EncodeOri(reg, reg, 0));
    b_.AddReloc(RelocType::kLo16, SectionKind::kText, ori_off, symbol, addend);
  }

  void EmitPush(uint8_t reg) {
    Emit(EncodeI(Op::kAddi, kRegSp, kRegSp, static_cast<uint16_t>(-4)));
    Emit(EncodeI(Op::kSw, reg, kRegSp, 0));
  }

  void EmitPop(uint8_t reg) {
    Emit(EncodeI(Op::kLw, reg, kRegSp, 0));
    Emit(EncodeI(Op::kAddi, kRegSp, kRegSp, 4));
  }

  void EmitMove(uint8_t dst, uint8_t src) { Emit(EncodeR(Funct::kAdd, dst, src, kRegZero)); }

  // Emits a branch with a to-be-patched displacement; returns the site offset.
  uint32_t EmitBranchPlaceholder(Op op, uint8_t rs, uint8_t rt) {
    uint32_t off = b_.TextSize();
    Emit(EncodeI(op, rt, rs, 0));
    return off;
  }

  // Patches the branch at |site| to jump to |target| (both byte offsets in .text).
  Status PatchBranch(uint32_t site, uint32_t target, int line) {
    int32_t delta_words = (static_cast<int32_t>(target) - static_cast<int32_t>(site) - 4) / 4;
    if (delta_words < -32768 || delta_words > 32767) {
      return Error(line, "branch displacement out of range (function too large)");
    }
    uint32_t word = 0;
    std::memcpy(&word, b_.object().text().data() + site, 4);
    word = (word & 0xFFFF0000u) | (static_cast<uint32_t>(delta_words) & 0xFFFF);
    b_.PatchText(site, word);
    return OkStatus();
  }

  // Unconditional branch (beq $zero,$zero).
  uint32_t EmitJumpPlaceholder() { return EmitBranchPlaceholder(Op::kBeq, kRegZero, kRegZero); }

  // ===== Scopes =====

  void PushScope() { scopes_.emplace_back(); }
  void PopScope() { scopes_.pop_back(); }

  const LocalVar* FindLocal(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto found = it->find(name);
      if (found != it->end()) {
        return &found->second;
      }
    }
    return nullptr;
  }

  Status DeclareLocal(const std::string& name, TypeRef type, int line) {
    if (!scopes_.empty() && scopes_.back().count(name) != 0) {
      return Error(line, "duplicate local '" + name + "'");
    }
    uint32_t size = TypeSize(*type);
    if (size == 0) {
      return Error(line, "local '" + name + "' has incomplete type");
    }
    uint32_t align = std::max<uint32_t>(TypeAlign(*type), 4);
    frame_size_ = (frame_size_ + size + align - 1) & ~(align - 1);
    LocalVar var;
    var.type = std::move(type);
    var.fp_offset = -static_cast<int32_t>(frame_size_);
    max_frame_size_ = std::max(max_frame_size_, frame_size_);
    scopes_.back()[name] = var;
    return OkStatus();
  }

  // ===== Expressions =====

  static bool IsScalar(const Type& type) {
    return type.IsInteger() || type.IsPointer();
  }

  // Loads the value at the address in $v0, with type |type|, back into $v0.
  // Arrays and structs "load" as their address (decay).
  void EmitLoadFromAddr(const Type& type) {
    if (type.kind == Type::K::kChar) {
      Emit(EncodeI(Op::kLb, kRegV0, kRegV0, 0));
    } else if (IsScalar(type)) {
      Emit(EncodeI(Op::kLw, kRegV0, kRegV0, 0));
    }
    // kArray / kStruct: the address is the value.
  }

  // Stores $t1 (value) through the address in $t0 with type |type|.
  void EmitStoreToAddr(const Type& type) {
    if (type.kind == Type::K::kChar) {
      Emit(EncodeI(Op::kSb, kRegT1, kRegT0, 0));
    } else {
      Emit(EncodeI(Op::kSw, kRegT1, kRegT0, 0));
    }
  }

  // Generates |e| as an lvalue: leaves the object's address in $v0, returns its type.
  Result<TypeRef> GenAddr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIdent: {
        const LocalVar* local = FindLocal(e.text);
        if (local != nullptr) {
          Emit(EncodeI(Op::kAddi, kRegV0, kRegFp, static_cast<uint16_t>(local->fp_offset)));
          return local->type;
        }
        auto it = globals_.find(e.text);
        if (it != globals_.end()) {
          if (it->second.is_function) {
            return Error(e.line, "function '" + e.text + "' is not an lvalue");
          }
          EmitLoadSymbolAddr(kRegV0, e.text);
          return it->second.type;
        }
        return Error(e.line, "unknown identifier '" + e.text + "'");
      }
      case ExprKind::kDeref: {
        ASSIGN_OR_RETURN(TypeRef ptr, GenExpr(*e.lhs));
        if (!ptr->IsPointer() && !ptr->IsArray()) {
          return Error(e.line, "cannot dereference non-pointer (" + TypeToString(*ptr) + ")");
        }
        return ptr->elem;
      }
      case ExprKind::kIndex: {
        ASSIGN_OR_RETURN(TypeRef base, GenExpr(*e.lhs));  // array decays to address
        if (!base->IsPointer() && !base->IsArray()) {
          return Error(e.line, "cannot index non-pointer (" + TypeToString(*base) + ")");
        }
        TypeRef elem = base->elem;
        EmitPush(kRegV0);
        ASSIGN_OR_RETURN(TypeRef idx, GenExpr(*e.rhs));
        if (!idx->IsInteger()) {
          return Error(e.line, "array index must be an integer");
        }
        uint32_t scale = TypeSize(*elem);
        EmitScaleV0(scale);
        EmitPop(kRegT0);
        Emit(EncodeR(Funct::kAdd, kRegV0, kRegT0, kRegV0));
        return elem;
      }
      case ExprKind::kMember: {
        TypeRef base;
        if (e.arrow) {
          ASSIGN_OR_RETURN(base, GenExpr(*e.lhs));
          if (!base->IsPointer() || !base->elem->IsStruct()) {
            return Error(e.line, "'->' requires a pointer to struct");
          }
          base = base->elem;
        } else {
          ASSIGN_OR_RETURN(base, GenAddr(*e.lhs));
          if (!base->IsStruct()) {
            return Error(e.line, "'.' requires a struct");
          }
        }
        const StructField* field = base->sdef->FindField(e.text);
        if (field == nullptr) {
          return Error(e.line,
                       "no field '" + e.text + "' in struct " + base->sdef->name);
        }
        if (field->offset != 0) {
          Emit(EncodeI(Op::kAddi, kRegV0, kRegV0, static_cast<uint16_t>(field->offset)));
        }
        return field->type;
      }
      default:
        return Error(e.line, "expression is not an lvalue");
    }
  }

  // Multiplies $v0 by |scale| (pointer arithmetic).
  void EmitScaleV0(uint32_t scale) {
    if (scale == 1) {
      return;
    }
    if ((scale & (scale - 1)) == 0) {
      uint8_t shift = 0;
      while ((1u << shift) != scale) {
        ++shift;
      }
      Emit(EncodeR(Funct::kSll, kRegV0, 0, kRegV0, shift));
      return;
    }
    EmitLoadImm(kRegT2, scale);
    Emit(EncodeR(Funct::kMul, kRegV0, kRegV0, kRegT2));
  }

  // Generates |e| as an rvalue in $v0; returns the value's type (arrays decay to
  // pointers; struct values are represented by their address).
  Result<TypeRef> GenExpr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kNumber:
        EmitLoadImm(kRegV0, static_cast<uint32_t>(e.number));
        return MakeInt();
      case ExprKind::kString: {
        std::string label = InternString(e.text);
        EmitLoadSymbolAddr(kRegV0, label);
        return MakePtr(MakeChar());
      }
      case ExprKind::kIdent: {
        const LocalVar* local = FindLocal(e.text);
        if (local != nullptr) {
          if (local->type->IsArray()) {
            Emit(EncodeI(Op::kAddi, kRegV0, kRegFp, static_cast<uint16_t>(local->fp_offset)));
            return MakePtr(local->type->elem);
          }
          Emit(local->type->kind == Type::K::kChar
                   ? EncodeI(Op::kLb, kRegV0, kRegFp, static_cast<uint16_t>(local->fp_offset))
                   : EncodeI(Op::kLw, kRegV0, kRegFp, static_cast<uint16_t>(local->fp_offset)));
          return local->type;
        }
        auto it = globals_.find(e.text);
        if (it != globals_.end()) {
          EmitLoadSymbolAddr(kRegV0, e.text);
          if (it->second.is_function) {
            return MakePtr(MakeVoid());  // function designator as a value: its address
          }
          if (it->second.type->IsArray()) {
            return MakePtr(it->second.type->elem);
          }
          EmitLoadFromAddr(*it->second.type);
          return it->second.type;
        }
        if (FindIntrinsic(e.text) != nullptr) {
          return Error(e.line, "syscall intrinsic '" + e.text + "' can only be called");
        }
        return Error(e.line, "unknown identifier '" + e.text + "'");
      }
      case ExprKind::kDeref:
      case ExprKind::kIndex:
      case ExprKind::kMember: {
        ASSIGN_OR_RETURN(TypeRef type, GenAddr(e));
        if (type->IsArray()) {
          return MakePtr(type->elem);
        }
        EmitLoadFromAddr(*type);
        return type;
      }
      case ExprKind::kAddrOf: {
        ASSIGN_OR_RETURN(TypeRef type, GenAddrOfTarget(*e.lhs));
        return MakePtr(type);
      }
      case ExprKind::kSizeofType:
        EmitLoadImm(kRegV0, TypeSize(*e.sizeof_type));
        return MakeInt();
      case ExprKind::kSizeofExpr: {
        ASSIGN_OR_RETURN(uint32_t size, StaticSizeOf(*e.lhs));
        EmitLoadImm(kRegV0, size);
        return MakeInt();
      }
      case ExprKind::kUnary:
        return GenUnary(e);
      case ExprKind::kBinary:
        return GenBinary(e);
      case ExprKind::kAssign:
        return GenAssign(e);
      case ExprKind::kCall:
        return GenCall(e);
      case ExprKind::kPreIncDec:
      case ExprKind::kPostIncDec:
        return GenIncDec(e);
      case ExprKind::kCond: {
        ASSIGN_OR_RETURN(TypeRef ct, GenExpr(*e.lhs));
        (void)ct;
        uint32_t to_else = EmitBranchPlaceholder(Op::kBeq, kRegV0, kRegZero);
        ASSIGN_OR_RETURN(TypeRef then_type, GenExpr(*e.rhs));
        uint32_t to_end = EmitJumpPlaceholder();
        RETURN_IF_ERROR(PatchBranch(to_else, b_.TextSize(), e.line));
        ASSIGN_OR_RETURN(TypeRef else_type, GenExpr(*e.third));
        (void)else_type;
        RETURN_IF_ERROR(PatchBranch(to_end, b_.TextSize(), e.line));
        return then_type;  // C picks the common type; we take the then-branch's
      }
    }
    return Error(e.line, "unsupported expression");
  }

  // &f where f is a function needs special handling (functions aren't lvalues).
  Result<TypeRef> GenAddrOfTarget(const Expr& target) {
    if (target.kind == ExprKind::kIdent) {
      auto it = globals_.find(target.text);
      if (it != globals_.end() && it->second.is_function) {
        EmitLoadSymbolAddr(kRegV0, target.text);
        return MakeVoid();  // &func: pointer to void stands in for a function pointer
      }
    }
    return GenAddr(target);
  }

  // Computes sizeof(expr) without generating code, from static types.
  Result<uint32_t> StaticSizeOf(const Expr& e) {
    ASSIGN_OR_RETURN(TypeRef type, TypeOf(e));
    return TypeSize(*type);
  }

  // Static type of an expression (no code emitted); conservative subset used by sizeof.
  Result<TypeRef> TypeOf(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kNumber:
        return MakeInt();
      case ExprKind::kString:
        return MakeArray(MakeChar(), static_cast<uint32_t>(e.text.size() + 1));
      case ExprKind::kIdent: {
        const LocalVar* local = FindLocal(e.text);
        if (local != nullptr) {
          return local->type;
        }
        auto it = globals_.find(e.text);
        if (it != globals_.end()) {
          return it->second.type;
        }
        return Error(e.line, "unknown identifier '" + e.text + "'");
      }
      case ExprKind::kDeref: {
        ASSIGN_OR_RETURN(TypeRef t, TypeOf(*e.lhs));
        if (!t->IsPointer() && !t->IsArray()) {
          return Error(e.line, "cannot dereference non-pointer");
        }
        return t->elem;
      }
      case ExprKind::kIndex: {
        ASSIGN_OR_RETURN(TypeRef t, TypeOf(*e.lhs));
        if (!t->IsPointer() && !t->IsArray()) {
          return Error(e.line, "cannot index non-pointer");
        }
        return t->elem;
      }
      case ExprKind::kMember: {
        ASSIGN_OR_RETURN(TypeRef t, TypeOf(*e.lhs));
        if (e.arrow) {
          if (!t->IsPointer() || !t->elem->IsStruct()) {
            return Error(e.line, "'->' requires pointer to struct");
          }
          t = t->elem;
        }
        if (!t->IsStruct()) {
          return Error(e.line, "'.' requires a struct");
        }
        const StructField* field = t->sdef->FindField(e.text);
        if (field == nullptr) {
          return Error(e.line, "no such field '" + e.text + "'");
        }
        return field->type;
      }
      case ExprKind::kAddrOf: {
        ASSIGN_OR_RETURN(TypeRef t, TypeOf(*e.lhs));
        return MakePtr(t);
      }
      default:
        return MakeInt();
    }
  }

  Result<TypeRef> GenUnary(const Expr& e) {
    ASSIGN_OR_RETURN(TypeRef type, GenExpr(*e.lhs));
    switch (e.op) {
      case Tok::kMinus:
        Emit(EncodeR(Funct::kSub, kRegV0, kRegZero, kRegV0));
        return MakeInt();
      case Tok::kBang:
        Emit(EncodeI(Op::kSltiu, kRegV0, kRegV0, 1));
        return MakeInt();
      case Tok::kTilde:
        Emit(EncodeR(Funct::kNor, kRegV0, kRegV0, kRegZero));
        return MakeInt();
      default:
        return Error(e.line, "unsupported unary operator");
    }
  }

  Result<TypeRef> GenBinary(const Expr& e) {
    // Short-circuit logicals first.
    if (e.op == Tok::kAmpAmp || e.op == Tok::kPipePipe) {
      ASSIGN_OR_RETURN(TypeRef lt, GenExpr(*e.lhs));
      (void)lt;
      // Normalize to 0/1.
      Emit(EncodeR(Funct::kSltu, kRegV0, kRegZero, kRegV0));
      uint32_t skip = e.op == Tok::kAmpAmp
                          ? EmitBranchPlaceholder(Op::kBeq, kRegV0, kRegZero)
                          : EmitBranchPlaceholder(Op::kBne, kRegV0, kRegZero);
      ASSIGN_OR_RETURN(TypeRef rt, GenExpr(*e.rhs));
      (void)rt;
      Emit(EncodeR(Funct::kSltu, kRegV0, kRegZero, kRegV0));
      RETURN_IF_ERROR(PatchBranch(skip, b_.TextSize(), e.line));
      return MakeInt();
    }

    ASSIGN_OR_RETURN(TypeRef lt, GenExpr(*e.lhs));
    EmitPush(kRegV0);
    ASSIGN_OR_RETURN(TypeRef rt, GenExpr(*e.rhs));
    EmitMove(kRegT1, kRegV0);
    EmitPop(kRegT0);
    // t0 = lhs, t1 = rhs.

    bool l_ptr = lt->IsPointer();
    bool r_ptr = rt->IsPointer();

    switch (e.op) {
      case Tok::kPlus: {
        if (l_ptr && rt->IsInteger()) {
          EmitMove(kRegV0, kRegT1);
          EmitScaleV0(TypeSize(*lt->elem));
          Emit(EncodeR(Funct::kAdd, kRegV0, kRegT0, kRegV0));
          return lt;
        }
        if (r_ptr && lt->IsInteger()) {
          EmitMove(kRegV0, kRegT0);
          EmitScaleV0(TypeSize(*rt->elem));
          Emit(EncodeR(Funct::kAdd, kRegV0, kRegV0, kRegT1));
          return rt;
        }
        Emit(EncodeR(Funct::kAdd, kRegV0, kRegT0, kRegT1));
        return MakeInt();
      }
      case Tok::kMinus: {
        if (l_ptr && rt->IsInteger()) {
          EmitMove(kRegV0, kRegT1);
          EmitScaleV0(TypeSize(*lt->elem));
          Emit(EncodeR(Funct::kSub, kRegV0, kRegT0, kRegV0));
          return lt;
        }
        if (l_ptr && r_ptr) {
          Emit(EncodeR(Funct::kSub, kRegV0, kRegT0, kRegT1));
          uint32_t scale = TypeSize(*lt->elem);
          if (scale > 1) {
            EmitLoadImm(kRegT2, scale);
            Emit(EncodeR(Funct::kDiv, kRegV0, kRegV0, kRegT2));
          }
          return MakeInt();
        }
        Emit(EncodeR(Funct::kSub, kRegV0, kRegT0, kRegT1));
        return MakeInt();
      }
      case Tok::kStar:
        Emit(EncodeR(Funct::kMul, kRegV0, kRegT0, kRegT1));
        return MakeInt();
      case Tok::kSlash:
        Emit(EncodeR(Funct::kDiv, kRegV0, kRegT0, kRegT1));
        return MakeInt();
      case Tok::kPercent:
        Emit(EncodeR(Funct::kMod, kRegV0, kRegT0, kRegT1));
        return MakeInt();
      case Tok::kAmp:
        Emit(EncodeR(Funct::kAnd, kRegV0, kRegT0, kRegT1));
        return MakeInt();
      case Tok::kPipe:
        Emit(EncodeR(Funct::kOr, kRegV0, kRegT0, kRegT1));
        return MakeInt();
      case Tok::kCaret:
        Emit(EncodeR(Funct::kXor, kRegV0, kRegT0, kRegT1));
        return MakeInt();
      case Tok::kShl:
        Emit(EncodeR(Funct::kSllv, kRegV0, kRegT1, kRegT0));
        return MakeInt();
      case Tok::kShr:
        Emit(EncodeR(Funct::kSrav, kRegV0, kRegT1, kRegT0));
        return MakeInt();
      case Tok::kEqEq:
        Emit(EncodeR(Funct::kXor, kRegV0, kRegT0, kRegT1));
        Emit(EncodeI(Op::kSltiu, kRegV0, kRegV0, 1));
        return MakeInt();
      case Tok::kNotEq:
        Emit(EncodeR(Funct::kXor, kRegV0, kRegT0, kRegT1));
        Emit(EncodeR(Funct::kSltu, kRegV0, kRegZero, kRegV0));
        return MakeInt();
      case Tok::kLt:
        Emit(l_ptr || r_ptr ? EncodeR(Funct::kSltu, kRegV0, kRegT0, kRegT1)
                            : EncodeR(Funct::kSlt, kRegV0, kRegT0, kRegT1));
        return MakeInt();
      case Tok::kGt:
        Emit(l_ptr || r_ptr ? EncodeR(Funct::kSltu, kRegV0, kRegT1, kRegT0)
                            : EncodeR(Funct::kSlt, kRegV0, kRegT1, kRegT0));
        return MakeInt();
      case Tok::kLe:
        Emit(l_ptr || r_ptr ? EncodeR(Funct::kSltu, kRegV0, kRegT1, kRegT0)
                            : EncodeR(Funct::kSlt, kRegV0, kRegT1, kRegT0));
        Emit(EncodeI(Op::kXori, kRegV0, kRegV0, 1));
        return MakeInt();
      case Tok::kGe:
        Emit(l_ptr || r_ptr ? EncodeR(Funct::kSltu, kRegV0, kRegT0, kRegT1)
                            : EncodeR(Funct::kSlt, kRegV0, kRegT0, kRegT1));
        Emit(EncodeI(Op::kXori, kRegV0, kRegV0, 1));
        return MakeInt();
      default:
        return Error(e.line, "unsupported binary operator");
    }
  }

  Result<TypeRef> GenAssign(const Expr& e) {
    ASSIGN_OR_RETURN(TypeRef ltype, GenAddr(*e.lhs));
    if (!IsScalar(*ltype)) {
      return Error(e.line, "assignment requires a scalar lvalue (no struct assignment)");
    }
    EmitPush(kRegV0);  // address
    ASSIGN_OR_RETURN(TypeRef rtype, GenExpr(*e.rhs));
    EmitMove(kRegT1, kRegV0);
    EmitPop(kRegT0);
    if (e.op == Tok::kPlusAssign || e.op == Tok::kMinusAssign) {
      // t2 = *addr; t1 = t2 op t1 (with pointer scaling).
      Emit(ltype->kind == Type::K::kChar ? EncodeI(Op::kLb, kRegT2, kRegT0, 0)
                                         : EncodeI(Op::kLw, kRegT2, kRegT0, 0));
      if (ltype->IsPointer() && rtype->IsInteger()) {
        EmitMove(kRegV0, kRegT1);
        EmitScaleV0(TypeSize(*ltype->elem));
        EmitMove(kRegT1, kRegV0);
      }
      Emit(e.op == Tok::kPlusAssign ? EncodeR(Funct::kAdd, kRegT1, kRegT2, kRegT1)
                                    : EncodeR(Funct::kSub, kRegT1, kRegT2, kRegT1));
    }
    EmitStoreToAddr(*ltype);
    EmitMove(kRegV0, kRegT1);  // assignment yields the stored value
    return ltype;
  }

  Result<TypeRef> GenIncDec(const Expr& e) {
    ASSIGN_OR_RETURN(TypeRef type, GenAddr(*e.lhs));
    if (!IsScalar(*type)) {
      return Error(e.line, "++/-- requires a scalar lvalue");
    }
    EmitMove(kRegT0, kRegV0);
    Emit(type->kind == Type::K::kChar ? EncodeI(Op::kLb, kRegT2, kRegT0, 0)
                                      : EncodeI(Op::kLw, kRegT2, kRegT0, 0));
    uint32_t delta = type->IsPointer() ? TypeSize(*type->elem) : 1;
    Emit(EncodeI(Op::kAddi, kRegT1, kRegT2,
                 static_cast<uint16_t>(e.op == Tok::kPlusPlus ? static_cast<int16_t>(delta)
                                                              : -static_cast<int16_t>(delta))));
    EmitStoreToAddr(*type);
    EmitMove(kRegV0, e.kind == ExprKind::kPreIncDec ? kRegT1 : kRegT2);
    return type;
  }

  Result<TypeRef> GenCall(const Expr& e) {
    // Direct-call cases: named user function or syscall intrinsic.
    if (e.lhs->kind == ExprKind::kIdent) {
      const std::string& name = e.lhs->text;
      auto it = globals_.find(name);
      bool is_user_func = it != globals_.end() && it->second.is_function;
      if (!is_user_func && FindLocal(name) == nullptr) {
        const SyscallInfo* intr = FindIntrinsic(name);
        if (intr != nullptr) {
          return GenIntrinsicCall(e, *intr);
        }
      }
      if (is_user_func) {
        // Push arguments right-to-left.
        for (size_t i = e.args.size(); i > 0; --i) {
          ASSIGN_OR_RETURN(TypeRef at, GenExpr(*e.args[i - 1]));
          (void)at;
          EmitPush(kRegV0);
        }
        uint32_t site = b_.TextSize();
        Emit(EncodeJ(Op::kJal, 0));
        b_.AddReloc(RelocType::kJump26, SectionKind::kText, site, name, 0);
        if (!e.args.empty()) {
          Emit(EncodeI(Op::kAddi, kRegSp, kRegSp, static_cast<uint16_t>(4 * e.args.size())));
        }
        return it->second.type;  // return type
      }
    }
    // Indirect call through a pointer value.
    for (size_t i = e.args.size(); i > 0; --i) {
      ASSIGN_OR_RETURN(TypeRef at, GenExpr(*e.args[i - 1]));
      (void)at;
      EmitPush(kRegV0);
    }
    ASSIGN_OR_RETURN(TypeRef callee, GenExpr(*e.lhs));
    if (!callee->IsPointer() && !callee->IsInteger()) {
      return Error(e.line, "called object is not a function or function pointer");
    }
    Emit(EncodeJalr(kRegRa, kRegV0));
    if (!e.args.empty()) {
      Emit(EncodeI(Op::kAddi, kRegSp, kRegSp, static_cast<uint16_t>(4 * e.args.size())));
    }
    return MakeInt();
  }

  Result<TypeRef> GenIntrinsicCall(const Expr& e, const SyscallInfo& intr) {
    if (static_cast<int>(e.args.size()) != intr.nargs) {
      return Error(e.line, StrFormat("%s expects %d arguments", intr.intrinsic, intr.nargs));
    }
    for (size_t i = e.args.size(); i > 0; --i) {
      ASSIGN_OR_RETURN(TypeRef at, GenExpr(*e.args[i - 1]));
      (void)at;
      EmitPush(kRegV0);
    }
    static constexpr uint8_t kArgRegs[] = {kRegA0, kRegA1, kRegA2, kRegA3};
    for (int i = 0; i < intr.nargs; ++i) {
      EmitPop(kArgRegs[i]);
    }
    EmitLoadImm(kRegV0, static_cast<uint32_t>(intr.number));
    Emit(EncodeSyscall());
    return MakeInt();
  }

  // ===== Statements =====

  Status GenStmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kEmpty:
        return OkStatus();
      case StmtKind::kExpr: {
        ASSIGN_OR_RETURN(TypeRef t, GenExpr(*s.expr));
        (void)t;
        return OkStatus();
      }
      case StmtKind::kVarDecl: {
        RETURN_IF_ERROR(DeclareLocal(s.decl_name, s.decl_type, s.line));
        if (s.expr != nullptr) {
          const LocalVar* local = FindLocal(s.decl_name);
          ASSIGN_OR_RETURN(TypeRef rt, GenExpr(*s.expr));
          (void)rt;
          Emit(s.decl_type->kind == Type::K::kChar
                   ? EncodeI(Op::kSb, kRegV0, kRegFp, static_cast<uint16_t>(local->fp_offset))
                   : EncodeI(Op::kSw, kRegV0, kRegFp, static_cast<uint16_t>(local->fp_offset)));
        }
        return OkStatus();
      }
      case StmtKind::kBlock: {
        PushScope();
        uint32_t saved = frame_size_;
        for (const auto& sub : s.block) {
          RETURN_IF_ERROR(GenStmt(*sub));
        }
        frame_size_ = saved;  // block-local slots recycle
        PopScope();
        return OkStatus();
      }
      case StmtKind::kIf: {
        ASSIGN_OR_RETURN(TypeRef ct, GenExpr(*s.cond));
        (void)ct;
        uint32_t skip_then = EmitBranchPlaceholder(Op::kBeq, kRegV0, kRegZero);
        RETURN_IF_ERROR(GenStmt(*s.then_branch));
        if (s.else_branch != nullptr) {
          uint32_t skip_else = EmitJumpPlaceholder();
          RETURN_IF_ERROR(PatchBranch(skip_then, b_.TextSize(), s.line));
          RETURN_IF_ERROR(GenStmt(*s.else_branch));
          RETURN_IF_ERROR(PatchBranch(skip_else, b_.TextSize(), s.line));
        } else {
          RETURN_IF_ERROR(PatchBranch(skip_then, b_.TextSize(), s.line));
        }
        return OkStatus();
      }
      case StmtKind::kWhile: {
        uint32_t top = b_.TextSize();
        ASSIGN_OR_RETURN(TypeRef ct, GenExpr(*s.cond));
        (void)ct;
        uint32_t exit_branch = EmitBranchPlaceholder(Op::kBeq, kRegV0, kRegZero);
        loop_stack_.push_back(LoopContext{top, {}});
        RETURN_IF_ERROR(GenStmt(*s.body));
        uint32_t back = EmitJumpPlaceholder();
        RETURN_IF_ERROR(PatchBranch(back, top, s.line));
        RETURN_IF_ERROR(PatchBranch(exit_branch, b_.TextSize(), s.line));
        RETURN_IF_ERROR(PatchLoopBreaks(s.line));
        return OkStatus();
      }
      case StmtKind::kDoWhile: {
        uint32_t top = b_.TextSize();
        loop_stack_.push_back(LoopContext{0, {}, {}});  // continue -> the condition
        size_t loop_index = loop_stack_.size() - 1;
        RETURN_IF_ERROR(GenStmt(*s.body));
        loop_stack_[loop_index].continue_target = b_.TextSize();
        ASSIGN_OR_RETURN(TypeRef ct, GenExpr(*s.cond));
        (void)ct;
        uint32_t back = EmitBranchPlaceholder(Op::kBne, kRegV0, kRegZero);
        RETURN_IF_ERROR(PatchBranch(back, top, s.line));
        RETURN_IF_ERROR(PatchLoopBreaks(s.line));
        return OkStatus();
      }
      case StmtKind::kFor: {
        if (s.init != nullptr) {
          RETURN_IF_ERROR(GenStmt(*s.init));
        }
        uint32_t top = b_.TextSize();
        uint32_t exit_branch = 0;
        bool has_cond = s.cond != nullptr;
        if (has_cond) {
          ASSIGN_OR_RETURN(TypeRef ct, GenExpr(*s.cond));
          (void)ct;
          exit_branch = EmitBranchPlaceholder(Op::kBeq, kRegV0, kRegZero);
        }
        loop_stack_.push_back(LoopContext{0, {}});  // continue target patched below
        size_t loop_index = loop_stack_.size() - 1;
        RETURN_IF_ERROR(GenStmt(*s.body));
        uint32_t continue_target = b_.TextSize();
        loop_stack_[loop_index].continue_target = continue_target;
        if (s.inc != nullptr) {
          ASSIGN_OR_RETURN(TypeRef it, GenExpr(*s.inc));
          (void)it;
        }
        uint32_t back = EmitJumpPlaceholder();
        RETURN_IF_ERROR(PatchBranch(back, top, s.line));
        if (has_cond) {
          RETURN_IF_ERROR(PatchBranch(exit_branch, b_.TextSize(), s.line));
        }
        RETURN_IF_ERROR(PatchLoopBreaks(s.line));
        return OkStatus();
      }
      case StmtKind::kReturn: {
        if (s.expr != nullptr) {
          ASSIGN_OR_RETURN(TypeRef rt, GenExpr(*s.expr));
          (void)rt;
        }
        return_sites_.push_back(EmitJumpPlaceholder());
        return OkStatus();
      }
      case StmtKind::kBreak: {
        if (loop_stack_.empty()) {
          return Error(s.line, "break outside a loop");
        }
        loop_stack_.back().break_sites.push_back(EmitJumpPlaceholder());
        return OkStatus();
      }
      case StmtKind::kContinue: {
        if (loop_stack_.empty()) {
          return Error(s.line, "continue outside a loop");
        }
        // While loops know their target now; for loops patch via pending list.
        LoopContext& loop = loop_stack_.back();
        if (loop.continue_target != 0) {
          uint32_t site = EmitJumpPlaceholder();
          RETURN_IF_ERROR(PatchBranch(site, loop.continue_target, s.line));
        } else {
          loop.continue_sites.push_back(EmitJumpPlaceholder());
        }
        return OkStatus();
      }
    }
    return Error(s.line, "unsupported statement");
  }

  Status PatchLoopBreaks(int line) {
    LoopContext loop = std::move(loop_stack_.back());
    loop_stack_.pop_back();
    for (uint32_t site : loop.break_sites) {
      RETURN_IF_ERROR(PatchBranch(site, b_.TextSize(), line));
    }
    for (uint32_t site : loop.continue_sites) {
      RETURN_IF_ERROR(PatchBranch(site, loop.continue_target, line));
    }
    return OkStatus();
  }

  // ===== Functions =====

  Status EmitFunction(const FuncDecl& fn) {
    uint32_t entry = b_.TextSize();
    RETURN_IF_ERROR(b_.DefineSymbol(fn.name, SectionKind::kText, entry, /*is_function=*/true,
                                    fn.is_static ? SymBinding::kLocal : SymBinding::kGlobal));
    frame_size_ = 0;
    max_frame_size_ = 0;
    return_sites_.clear();
    loop_stack_.clear();
    scopes_.clear();
    PushScope();
    for (size_t i = 0; i < fn.params.size(); ++i) {
      LocalVar var;
      var.type = fn.params[i].type;
      if (var.type->IsArray()) {
        var.type = MakePtr(var.type->elem);  // arrays decay in parameters
      }
      var.fp_offset = 8 + static_cast<int32_t>(4 * i);
      scopes_.back()[fn.params[i].name] = var;
    }
    // Prologue.
    Emit(EncodeI(Op::kAddi, kRegSp, kRegSp, static_cast<uint16_t>(-8)));
    Emit(EncodeI(Op::kSw, kRegRa, kRegSp, 4));
    Emit(EncodeI(Op::kSw, kRegFp, kRegSp, 0));
    EmitMove(kRegFp, kRegSp);
    uint32_t frame_adjust_site = b_.TextSize();
    Emit(EncodeI(Op::kAddi, kRegSp, kRegSp, 0));  // patched with -frame below

    RETURN_IF_ERROR(GenStmt(*fn.body));

    // Fall off the end: return 0.
    EmitLoadImm(kRegV0, 0);
    uint32_t epilogue = b_.TextSize();
    for (uint32_t site : return_sites_) {
      RETURN_IF_ERROR(PatchBranch(site, epilogue, fn.line));
    }
    EmitMove(kRegSp, kRegFp);
    Emit(EncodeI(Op::kLw, kRegFp, kRegSp, 0));
    Emit(EncodeI(Op::kLw, kRegRa, kRegSp, 4));
    Emit(EncodeI(Op::kAddi, kRegSp, kRegSp, 8));
    Emit(EncodeJr(kRegRa));

    uint32_t frame = (max_frame_size_ + 7) & ~7u;
    if (frame > 32000) {
      return Error(fn.line, "stack frame too large");
    }
    b_.PatchText(frame_adjust_site,
                 EncodeI(Op::kAddi, kRegSp, kRegSp, static_cast<uint16_t>(-static_cast<int32_t>(frame))));
    PopScope();
    return OkStatus();
  }

  struct LoopContext {
    uint32_t continue_target = 0;  // 0 = not yet known (for loops)
    std::vector<uint32_t> break_sites;
    std::vector<uint32_t> continue_sites;
  };

  const Program& program_;
  ObjectBuilder b_;
  std::map<std::string, GlobalInfo> globals_;
  std::map<std::string, std::string> string_labels_;
  std::vector<std::map<std::string, LocalVar>> scopes_;
  uint32_t frame_size_ = 0;
  uint32_t max_frame_size_ = 0;
  std::vector<uint32_t> return_sites_;
  std::vector<LoopContext> loop_stack_;
};

}  // namespace

Result<ObjectFile> GenerateCode(const Program& program, const std::string& module_name) {
  return CodeGen(program, module_name).Run();
}

}  // namespace hemlock
