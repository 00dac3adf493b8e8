#include "src/lang/parser.h"

#include <cassert>

#include "src/base/strings.h"
#include "src/lang/lexer.h"

namespace hemlock {

namespace {

// Pulls tokens from the lexer through a window of the current token and two of
// lookahead, so the parser holds three tokens however long the source is.
class ParserImpl {
 public:
  explicit ParserImpl(const std::string& source) : lexer_(source) {
    for (size_t i = 0; i < kLookahead + 1; ++i) {
      Pull(&window_[i]);
    }
  }

  Result<std::unique_ptr<Program>> Run() {
    Result<std::unique_ptr<Program>> program = ParseProgram();
    // The error reported must not depend on how far the parser read: a lex error
    // anywhere in the source outranks a parse error, so drain the stream.
    Token rest;
    while (!program.ok() && lex_status_.ok() && !lexed_eof_) {
      Pull(&rest);
    }
    if (!lex_status_.ok()) {
      return lex_status_;
    }
    return program;
  }

 private:
  static constexpr size_t kLookahead = 2;
  // One slot more than the window, so the token Advance() hands out survives the
  // refill that Advance() itself does.
  static constexpr size_t kSlots = 4;

  Result<std::unique_ptr<Program>> ParseProgram() {
    auto program = std::make_unique<Program>();
    program_ = program.get();
    while (!Check(Tok::kEof)) {
      RETURN_IF_ERROR(ParseTopLevel());
    }
    return program;
  }

  // Lexes the next token into |slot|. After a lex error the stream reads as its
  // end; Run() reports the error.
  void Pull(Token* slot) {
    if (lex_status_.ok()) {
      lex_status_ = lexer_.Next(slot);
    }
    if (!lex_status_.ok()) {
      slot->kind = Tok::kEof;
    }
    lexed_eof_ = slot->kind == Tok::kEof;
  }

  const Token& Peek() const { return window_[head_]; }
  const Token& PeekAhead(size_t n) const {
    assert(n <= kLookahead);
    return window_[(head_ + n) % kSlots];
  }
  // Consumes the current token. The reference stays valid, and its text may be
  // moved from, until the next Advance(). At the end of the source the lexer
  // keeps yielding kEof, so advancing past it reads kEof again.
  Token& Advance() {
    Token& tok = window_[head_];
    head_ = (head_ + 1) % kSlots;
    Pull(&window_[(head_ + kLookahead) % kSlots]);
    return tok;
  }
  bool Check(Tok kind) const { return Peek().kind == kind; }
  bool Match(Tok kind) {
    if (Check(kind)) {
      Advance();
      return true;
    }
    return false;
  }

  Status Error(const std::string& msg) const {
    return InvalidArgument(
        StrFormat("parse error at %d:%d: %s (found '%s')", Peek().line, Peek().col, msg.c_str(),
                  Peek().kind == Tok::kIdent ? Peek().text.c_str() : TokName(Peek().kind)));
  }

  Status Expect(Tok kind, const std::string& what) {
    if (!Match(kind)) {
      return Error("expected " + what);
    }
    return OkStatus();
  }

  bool AtTypeStart() const {
    return Check(Tok::kKwInt) || Check(Tok::kKwChar) || Check(Tok::kKwVoid) ||
           (Check(Tok::kKwStruct) && PeekAhead(1).kind == Tok::kIdent &&
            PeekAhead(2).kind != Tok::kLBrace);
  }

  // --- Types ---

  Result<TypeRef> ParseBaseType() {
    if (Match(Tok::kKwInt)) {
      return MakeInt();
    }
    if (Match(Tok::kKwChar)) {
      return MakeChar();
    }
    if (Match(Tok::kKwVoid)) {
      return MakeVoid();
    }
    if (Match(Tok::kKwStruct)) {
      if (!Check(Tok::kIdent)) {
        return Error("expected struct name");
      }
      std::string name = std::move(Advance().text);
      auto it = program_->structs.find(name);
      if (it == program_->structs.end()) {
        return Error("unknown struct '" + name + "'");
      }
      return MakeStruct(it->second);
    }
    return Error("expected a type");
  }

  Result<TypeRef> ParseType() {
    ASSIGN_OR_RETURN(TypeRef type, ParseBaseType());
    while (Match(Tok::kStar)) {
      type = MakePtr(type);
    }
    return type;
  }

  // Wraps |base| in an array type if a '[N]' suffix follows the declarator name.
  Result<TypeRef> MaybeArraySuffix(TypeRef base) {
    if (Match(Tok::kLBracket)) {
      if (!Check(Tok::kNumber)) {
        return Error("expected array length");
      }
      int32_t len = Advance().number;
      if (len <= 0) {
        return Error("array length must be positive");
      }
      RETURN_IF_ERROR(Expect(Tok::kRBracket, "']'"));
      // Multidimensional arrays: inner dimensions nest.
      ASSIGN_OR_RETURN(TypeRef inner, MaybeArraySuffix(std::move(base)));
      return MakeArray(std::move(inner), static_cast<uint32_t>(len));
    }
    return base;
  }

  // --- Top level ---

  Status ParseTopLevel() {
    if (Check(Tok::kKwStruct) && PeekAhead(1).kind == Tok::kIdent &&
        PeekAhead(2).kind == Tok::kLBrace) {
      return ParseStructDef();
    }
    bool is_extern = Match(Tok::kKwExtern);
    bool is_static = !is_extern && Match(Tok::kKwStatic);
    ASSIGN_OR_RETURN(TypeRef type, ParseType());
    if (!Check(Tok::kIdent)) {
      return Error("expected declarator name");
    }
    int line = Peek().line;
    std::string name = std::move(Advance().text);
    if (Check(Tok::kLParen)) {
      return ParseFunction(std::move(type), std::move(name), is_static, is_extern, line);
    }
    return ParseGlobalVar(std::move(type), std::move(name), is_static, is_extern, line);
  }

  Status ParseStructDef() {
    Advance();  // struct
    std::string name = std::move(Advance().text);
    if (program_->structs.count(name) != 0) {
      return Error("duplicate struct '" + name + "'");
    }
    auto sdef = std::make_shared<StructDef>();
    sdef->name = name;
    // Register before parsing the body so self-referential pointers resolve
    // (struct node { struct node* next; }).
    program_->structs[name] = sdef;
    RETURN_IF_ERROR(Expect(Tok::kLBrace, "'{'"));
    uint32_t offset = 0;
    uint32_t max_align = 1;
    while (!Check(Tok::kRBrace)) {
      ASSIGN_OR_RETURN(TypeRef ftype, ParseType());
      if (!Check(Tok::kIdent)) {
        return Error("expected field name");
      }
      std::string fname = std::move(Advance().text);
      ASSIGN_OR_RETURN(ftype, MaybeArraySuffix(std::move(ftype)));
      if (ftype->IsStruct() && ftype->sdef.get() == sdef.get()) {
        return Error("struct '" + name + "' contains itself");
      }
      if (TypeSize(*ftype) == 0) {
        return Error("field '" + fname + "' has incomplete type");
      }
      if (sdef->FindField(fname) != nullptr) {
        return Error("duplicate field '" + fname + "'");
      }
      uint32_t align = TypeAlign(*ftype);
      offset = (offset + align - 1) & ~(align - 1);
      sdef->fields.push_back(StructField{fname, ftype, offset});
      offset += TypeSize(*ftype);
      max_align = std::max(max_align, align);
      RETURN_IF_ERROR(Expect(Tok::kSemi, "';'"));
    }
    Advance();  // }
    RETURN_IF_ERROR(Expect(Tok::kSemi, "';' after struct definition"));
    sdef->align = max_align;
    sdef->size = (offset + max_align - 1) & ~(max_align - 1);
    if (sdef->size == 0) {
      sdef->size = max_align;  // empty structs still occupy space
    }
    return OkStatus();
  }

  Status ParseFunction(TypeRef ret, std::string name, bool is_static, bool is_extern, int line) {
    FuncDecl fn;
    fn.name = std::move(name);
    fn.ret = std::move(ret);
    fn.is_static = is_static;
    fn.line = line;
    RETURN_IF_ERROR(Expect(Tok::kLParen, "'('"));
    if (Check(Tok::kKwVoid) && PeekAhead(1).kind == Tok::kRParen) {
      Advance();
    }
    while (!Check(Tok::kRParen)) {
      ASSIGN_OR_RETURN(TypeRef ptype, ParseType());
      if (!Check(Tok::kIdent)) {
        return Error("expected parameter name");
      }
      std::string pname = std::move(Advance().text);
      if (Match(Tok::kLBracket)) {
        // Array parameters decay to pointers.
        Match(Tok::kNumber);
        RETURN_IF_ERROR(Expect(Tok::kRBracket, "']'"));
        ptype = MakePtr(std::move(ptype));
      }
      fn.params.push_back(Param{std::move(pname), std::move(ptype)});
      if (!Check(Tok::kRParen)) {
        RETURN_IF_ERROR(Expect(Tok::kComma, "','"));
      }
    }
    Advance();  // )
    if (Match(Tok::kSemi)) {
      fn.is_extern = true;
      program_->functions.push_back(std::move(fn));
      return OkStatus();
    }
    fn.is_extern = is_extern;
    if (is_extern) {
      return Error("extern function cannot have a body");
    }
    ASSIGN_OR_RETURN(fn.body, ParseBlock());
    program_->functions.push_back(std::move(fn));
    return OkStatus();
  }

  Status ParseGlobalVar(TypeRef type, std::string first_name, bool is_static, bool is_extern,
                        int line) {
    std::string name = std::move(first_name);
    while (true) {
      GlobalVar var;
      var.name = name;
      var.is_static = is_static;
      var.is_extern = is_extern;
      var.line = line;
      ASSIGN_OR_RETURN(var.type, MaybeArraySuffix(type));
      if (Match(Tok::kAssign)) {
        if (is_extern) {
          return Error("extern variable cannot have an initializer");
        }
        var.has_init = true;
        if (Match(Tok::kLBrace)) {
          while (!Check(Tok::kRBrace)) {
            GlobalInit item;
            if ((Check(Tok::kNumber) || Check(Tok::kCharLit)) &&
                (PeekAhead(1).kind == Tok::kComma || PeekAhead(1).kind == Tok::kRBrace)) {
              item.value = Advance().number;  // a plain literal: no expression node
            } else {
              ASSIGN_OR_RETURN(item.expr, ParseAssignment());
            }
            var.inits.push_back(std::move(item));
            if (!Check(Tok::kRBrace)) {
              RETURN_IF_ERROR(Expect(Tok::kComma, "','"));
            }
          }
          Advance();  // }
        } else {
          GlobalInit item;
          ASSIGN_OR_RETURN(item.expr, ParseAssignment());
          var.inits.push_back(std::move(item));
        }
      }
      program_->globals.push_back(std::move(var));
      if (Match(Tok::kComma)) {
        if (!Check(Tok::kIdent)) {
          return Error("expected declarator name");
        }
        name = std::move(Advance().text);
        continue;
      }
      break;
    }
    return Expect(Tok::kSemi, "';'");
  }

  // --- Statements ---

  Result<std::unique_ptr<Stmt>> ParseBlock() {
    RETURN_IF_ERROR(Expect(Tok::kLBrace, "'{'"));
    auto block = std::make_unique<Stmt>();
    block->kind = StmtKind::kBlock;
    block->line = Peek().line;
    while (!Check(Tok::kRBrace)) {
      if (Check(Tok::kEof)) {
        return Error("unterminated block");
      }
      ASSIGN_OR_RETURN(std::unique_ptr<Stmt> stmt, ParseStmt());
      block->block.push_back(std::move(stmt));
    }
    Advance();  // }
    return block;
  }

  Result<std::unique_ptr<Stmt>> ParseStmt() {
    int line = Peek().line;
    if (Check(Tok::kLBrace)) {
      return ParseBlock();
    }
    if (Match(Tok::kSemi)) {
      auto s = std::make_unique<Stmt>();
      s->kind = StmtKind::kEmpty;
      s->line = line;
      return s;
    }
    if (AtTypeStart()) {
      ASSIGN_OR_RETURN(TypeRef type, ParseType());
      if (!Check(Tok::kIdent)) {
        return Error("expected variable name");
      }
      std::string name = std::move(Advance().text);
      ASSIGN_OR_RETURN(type, MaybeArraySuffix(std::move(type)));
      auto s = std::make_unique<Stmt>();
      s->kind = StmtKind::kVarDecl;
      s->line = line;
      s->decl_type = std::move(type);
      s->decl_name = std::move(name);
      if (Match(Tok::kAssign)) {
        ASSIGN_OR_RETURN(s->expr, ParseAssignment());
      }
      RETURN_IF_ERROR(Expect(Tok::kSemi, "';'"));
      return s;
    }
    if (Match(Tok::kKwIf)) {
      auto s = std::make_unique<Stmt>();
      s->kind = StmtKind::kIf;
      s->line = line;
      RETURN_IF_ERROR(Expect(Tok::kLParen, "'('"));
      ASSIGN_OR_RETURN(s->cond, ParseExpr());
      RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
      ASSIGN_OR_RETURN(s->then_branch, ParseStmt());
      if (Match(Tok::kKwElse)) {
        ASSIGN_OR_RETURN(s->else_branch, ParseStmt());
      }
      return s;
    }
    if (Match(Tok::kKwWhile)) {
      auto s = std::make_unique<Stmt>();
      s->kind = StmtKind::kWhile;
      s->line = line;
      RETURN_IF_ERROR(Expect(Tok::kLParen, "'('"));
      ASSIGN_OR_RETURN(s->cond, ParseExpr());
      RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
      ASSIGN_OR_RETURN(s->body, ParseStmt());
      return s;
    }
    if (Match(Tok::kKwDo)) {
      auto s = std::make_unique<Stmt>();
      s->kind = StmtKind::kDoWhile;
      s->line = line;
      ASSIGN_OR_RETURN(s->body, ParseStmt());
      RETURN_IF_ERROR(Expect(Tok::kKwWhile, "'while' after do-body"));
      RETURN_IF_ERROR(Expect(Tok::kLParen, "'('"));
      ASSIGN_OR_RETURN(s->cond, ParseExpr());
      RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
      RETURN_IF_ERROR(Expect(Tok::kSemi, "';'"));
      return s;
    }
    if (Match(Tok::kKwFor)) {
      auto s = std::make_unique<Stmt>();
      s->kind = StmtKind::kFor;
      s->line = line;
      RETURN_IF_ERROR(Expect(Tok::kLParen, "'('"));
      if (!Check(Tok::kSemi)) {
        if (AtTypeStart()) {
          return Error("declarations in for-init are not supported");
        }
        auto init = std::make_unique<Stmt>();
        init->kind = StmtKind::kExpr;
        init->line = Peek().line;
        ASSIGN_OR_RETURN(init->expr, ParseExpr());
        s->init = std::move(init);
      }
      RETURN_IF_ERROR(Expect(Tok::kSemi, "';'"));
      if (!Check(Tok::kSemi)) {
        ASSIGN_OR_RETURN(s->cond, ParseExpr());
      }
      RETURN_IF_ERROR(Expect(Tok::kSemi, "';'"));
      if (!Check(Tok::kRParen)) {
        ASSIGN_OR_RETURN(s->inc, ParseExpr());
      }
      RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
      ASSIGN_OR_RETURN(s->body, ParseStmt());
      return s;
    }
    if (Match(Tok::kKwReturn)) {
      auto s = std::make_unique<Stmt>();
      s->kind = StmtKind::kReturn;
      s->line = line;
      if (!Check(Tok::kSemi)) {
        ASSIGN_OR_RETURN(s->expr, ParseExpr());
      }
      RETURN_IF_ERROR(Expect(Tok::kSemi, "';'"));
      return s;
    }
    if (Match(Tok::kKwBreak)) {
      RETURN_IF_ERROR(Expect(Tok::kSemi, "';'"));
      auto s = std::make_unique<Stmt>();
      s->kind = StmtKind::kBreak;
      s->line = line;
      return s;
    }
    if (Match(Tok::kKwContinue)) {
      RETURN_IF_ERROR(Expect(Tok::kSemi, "';'"));
      auto s = std::make_unique<Stmt>();
      s->kind = StmtKind::kContinue;
      s->line = line;
      return s;
    }
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::kExpr;
    s->line = line;
    ASSIGN_OR_RETURN(s->expr, ParseExpr());
    RETURN_IF_ERROR(Expect(Tok::kSemi, "';'"));
    return s;
  }

  // --- Expressions (precedence climbing) ---

  Result<std::unique_ptr<Expr>> ParseExpr() { return ParseAssignment(); }

  Result<std::unique_ptr<Expr>> ParseAssignment() {
    ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseConditional());
    if (Check(Tok::kAssign) || Check(Tok::kPlusAssign) || Check(Tok::kMinusAssign)) {
      Tok op = Advance().kind;
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kAssign;
      e->line = lhs->line;
      e->op = op;
      e->lhs = std::move(lhs);
      ASSIGN_OR_RETURN(e->rhs, ParseAssignment());
      return e;
    }
    return lhs;
  }

  Result<std::unique_ptr<Expr>> ParseConditional() {
    ASSIGN_OR_RETURN(std::unique_ptr<Expr> cond, ParseBinary(0));
    if (!Match(Tok::kQuestion)) {
      return cond;
    }
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kCond;
    e->line = cond->line;
    e->lhs = std::move(cond);
    ASSIGN_OR_RETURN(e->rhs, ParseAssignment());
    RETURN_IF_ERROR(Expect(Tok::kColon, "':'"));
    ASSIGN_OR_RETURN(e->third, ParseConditional());
    return e;
  }

  static int BinaryPrec(Tok op) {
    switch (op) {
      case Tok::kPipePipe:
        return 1;
      case Tok::kAmpAmp:
        return 2;
      case Tok::kPipe:
        return 3;
      case Tok::kCaret:
        return 4;
      case Tok::kAmp:
        return 5;
      case Tok::kEqEq:
      case Tok::kNotEq:
        return 6;
      case Tok::kLt:
      case Tok::kGt:
      case Tok::kLe:
      case Tok::kGe:
        return 7;
      case Tok::kShl:
      case Tok::kShr:
        return 8;
      case Tok::kPlus:
      case Tok::kMinus:
        return 9;
      case Tok::kStar:
      case Tok::kSlash:
      case Tok::kPercent:
        return 10;
      default:
        return -1;
    }
  }

  Result<std::unique_ptr<Expr>> ParseBinary(int min_prec) {
    ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseUnary());
    while (true) {
      int prec = BinaryPrec(Peek().kind);
      if (prec < 0 || prec < min_prec) {
        return lhs;
      }
      Tok op = Advance().kind;
      ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseBinary(prec + 1));
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kBinary;
      e->line = lhs->line;
      e->op = op;
      e->lhs = std::move(lhs);
      e->rhs = std::move(rhs);
      lhs = std::move(e);
    }
  }

  Result<std::unique_ptr<Expr>> ParseUnary() {
    int line = Peek().line;
    if (Check(Tok::kMinus) || Check(Tok::kBang) || Check(Tok::kTilde)) {
      Tok op = Advance().kind;
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kUnary;
      e->line = line;
      e->op = op;
      ASSIGN_OR_RETURN(e->lhs, ParseUnary());
      return e;
    }
    if (Match(Tok::kStar)) {
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kDeref;
      e->line = line;
      ASSIGN_OR_RETURN(e->lhs, ParseUnary());
      return e;
    }
    if (Match(Tok::kAmp)) {
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kAddrOf;
      e->line = line;
      ASSIGN_OR_RETURN(e->lhs, ParseUnary());
      return e;
    }
    if (Check(Tok::kPlusPlus) || Check(Tok::kMinusMinus)) {
      Tok op = Advance().kind;
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kPreIncDec;
      e->line = line;
      e->op = op;
      ASSIGN_OR_RETURN(e->lhs, ParseUnary());
      return e;
    }
    if (Match(Tok::kKwSizeof)) {
      RETURN_IF_ERROR(Expect(Tok::kLParen, "'(' after sizeof"));
      auto e = std::make_unique<Expr>();
      e->line = line;
      if (AtTypeStart()) {
        e->kind = ExprKind::kSizeofType;
        ASSIGN_OR_RETURN(e->sizeof_type, ParseType());
      } else {
        e->kind = ExprKind::kSizeofExpr;
        ASSIGN_OR_RETURN(e->lhs, ParseExpr());
      }
      RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
      return e;
    }
    return ParsePostfix();
  }

  Result<std::unique_ptr<Expr>> ParsePostfix() {
    ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParsePrimary());
    while (true) {
      int line = Peek().line;
      if (Match(Tok::kLParen)) {
        auto call = std::make_unique<Expr>();
        call->kind = ExprKind::kCall;
        call->line = line;
        call->lhs = std::move(e);
        while (!Check(Tok::kRParen)) {
          ASSIGN_OR_RETURN(std::unique_ptr<Expr> arg, ParseAssignment());
          call->args.push_back(std::move(arg));
          if (!Check(Tok::kRParen)) {
            RETURN_IF_ERROR(Expect(Tok::kComma, "','"));
          }
        }
        Advance();  // )
        e = std::move(call);
      } else if (Match(Tok::kLBracket)) {
        auto idx = std::make_unique<Expr>();
        idx->kind = ExprKind::kIndex;
        idx->line = line;
        idx->lhs = std::move(e);
        ASSIGN_OR_RETURN(idx->rhs, ParseExpr());
        RETURN_IF_ERROR(Expect(Tok::kRBracket, "']'"));
        e = std::move(idx);
      } else if (Check(Tok::kDot) || Check(Tok::kArrow)) {
        bool arrow = Advance().kind == Tok::kArrow;
        if (!Check(Tok::kIdent)) {
          return Error("expected member name");
        }
        auto mem = std::make_unique<Expr>();
        mem->kind = ExprKind::kMember;
        mem->line = line;
        mem->arrow = arrow;
        mem->text = std::move(Advance().text);
        mem->lhs = std::move(e);
        e = std::move(mem);
      } else if (Check(Tok::kPlusPlus) || Check(Tok::kMinusMinus)) {
        Tok op = Advance().kind;
        auto inc = std::make_unique<Expr>();
        inc->kind = ExprKind::kPostIncDec;
        inc->line = line;
        inc->op = op;
        inc->lhs = std::move(e);
        e = std::move(inc);
      } else {
        return e;
      }
    }
  }

  Result<std::unique_ptr<Expr>> ParsePrimary() {
    int line = Peek().line;
    if (Check(Tok::kNumber) || Check(Tok::kCharLit)) {
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kNumber;
      e->line = line;
      e->number = Advance().number;
      return e;
    }
    if (Check(Tok::kString)) {
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kString;
      e->line = line;
      e->text = std::move(Advance().text);
      return e;
    }
    if (Check(Tok::kIdent)) {
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kIdent;
      e->line = line;
      e->text = std::move(Advance().text);
      return e;
    }
    if (Match(Tok::kLParen)) {
      ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseExpr());
      RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
      return e;
    }
    return Error("expected an expression");
  }

  Lexer lexer_;
  Status lex_status_;
  bool lexed_eof_ = false;
  Token window_[kSlots];
  size_t head_ = 0;
  Program* program_ = nullptr;
};

}  // namespace

Result<std::unique_ptr<Program>> ParseSource(const std::string& source) {
  return ParserImpl(source).Run();
}

}  // namespace hemlock
