// HemC abstract syntax: types, expressions, statements, declarations.
//
// HemC is deliberately a C subset — the paper's point is that objects to be shared are
// "declared in a separate .h file and defined in a separate .c file" and look like
// ordinary external objects; the compiler needs no knowledge of sharing at all.
#ifndef SRC_LANG_AST_H_
#define SRC_LANG_AST_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/lang/token.h"

namespace hemlock {

struct StructDef;

struct Type {
  enum class K : uint8_t { kVoid, kInt, kChar, kPtr, kArray, kStruct };
  K kind = K::kInt;
  std::shared_ptr<Type> elem;  // kPtr / kArray element
  uint32_t array_len = 0;      // kArray
  std::shared_ptr<StructDef> sdef;  // kStruct

  bool IsInteger() const { return kind == K::kInt || kind == K::kChar; }
  bool IsPointer() const { return kind == K::kPtr; }
  bool IsArray() const { return kind == K::kArray; }
  bool IsStruct() const { return kind == K::kStruct; }
  bool IsVoid() const { return kind == K::kVoid; }
};

using TypeRef = std::shared_ptr<Type>;

struct StructField {
  std::string name;
  TypeRef type;
  uint32_t offset = 0;
};

struct StructDef {
  std::string name;
  std::vector<StructField> fields;
  uint32_t size = 0;
  uint32_t align = 1;

  const StructField* FindField(const std::string& field_name) const {
    for (const StructField& f : fields) {
      if (f.name == field_name) {
        return &f;
      }
    }
    return nullptr;
  }
};

TypeRef MakeInt();
TypeRef MakeChar();
TypeRef MakeVoid();
TypeRef MakePtr(TypeRef elem);
TypeRef MakeArray(TypeRef elem, uint32_t len);
TypeRef MakeStruct(std::shared_ptr<StructDef> sdef);

uint32_t TypeSize(const Type& type);
uint32_t TypeAlign(const Type& type);
std::string TypeToString(const Type& type);

enum class ExprKind : uint8_t {
  kNumber,
  kString,
  kIdent,
  kUnary,      // op in {-, !, ~}
  kBinary,     // arithmetic / comparison / logical (&& || short-circuit)
  kAssign,     // =, +=, -=
  kCall,       // lhs is the callee expression (ident or pointer-valued)
  kIndex,      // lhs[rhs]
  kMember,     // lhs.text or lhs->text (arrow flag)
  kDeref,      // *lhs
  kAddrOf,     // &lhs
  kSizeofType,
  kSizeofExpr,
  kPreIncDec,  // ++x / --x (op distinguishes)
  kPostIncDec,
  kCond,       // lhs ? rhs : third
};

struct Expr {
  ExprKind kind = ExprKind::kNumber;
  int line = 0;
  Tok op = Tok::kEof;
  int32_t number = 0;
  std::string text;  // identifier, string contents, or member name
  bool arrow = false;
  std::unique_ptr<Expr> lhs;
  std::unique_ptr<Expr> rhs;
  std::unique_ptr<Expr> third;  // kCond else-branch
  std::vector<std::unique_ptr<Expr>> args;
  TypeRef sizeof_type;
};

enum class StmtKind : uint8_t {
  kExpr,
  kVarDecl,
  kIf,
  kWhile,
  kDoWhile,
  kFor,
  kReturn,
  kBreak,
  kContinue,
  kBlock,
  kEmpty,
};

struct Stmt {
  StmtKind kind = StmtKind::kEmpty;
  int line = 0;
  std::unique_ptr<Expr> expr;  // kExpr payload / kReturn value / kVarDecl initializer
  std::unique_ptr<Expr> cond;
  std::unique_ptr<Expr> inc;            // for-increment
  std::unique_ptr<Stmt> init;           // for-init
  std::unique_ptr<Stmt> then_branch;
  std::unique_ptr<Stmt> else_branch;
  std::unique_ptr<Stmt> body;
  std::vector<std::unique_ptr<Stmt>> block;
  TypeRef decl_type;
  std::string decl_name;
};

// A global initializer item, const-folded by the code generator. Symbol items become
// WORD32 relocations — this is how pointer-rich tables (the paper's parser-table and
// xfig workloads) are built at compile time. A plain number literal in an
// initializer list is held as its value, with no expression node: a large table
// would otherwise cost a heap node per element.
struct GlobalInit {
  std::unique_ptr<Expr> expr;  // null: the item is |value|
  int32_t value = 0;
};

struct GlobalVar {
  std::string name;
  TypeRef type;
  bool is_static = false;  // local binding
  bool is_extern = false;  // declaration only
  bool has_init = false;
  std::vector<GlobalInit> inits;  // one item, or array/struct element list
  int line = 0;
};

struct Param {
  std::string name;
  TypeRef type;
};

struct FuncDecl {
  std::string name;
  TypeRef ret;
  std::vector<Param> params;
  bool is_static = false;
  bool is_extern = false;  // prototype only
  std::unique_ptr<Stmt> body;
  int line = 0;
};

struct Program {
  std::map<std::string, std::shared_ptr<StructDef>> structs;
  std::vector<GlobalVar> globals;
  std::vector<FuncDecl> functions;
};

}  // namespace hemlock

#endif  // SRC_LANG_AST_H_
