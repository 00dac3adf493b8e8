#include "src/lang/lexer.h"

#include <cctype>
#include <map>

#include "src/base/strings.h"

namespace hemlock {

const char* TokName(Tok kind) {
  switch (kind) {
    case Tok::kEof:
      return "<eof>";
    case Tok::kIdent:
      return "identifier";
    case Tok::kNumber:
      return "number";
    case Tok::kString:
      return "string";
    case Tok::kCharLit:
      return "char literal";
    case Tok::kKwInt:
      return "int";
    case Tok::kKwChar:
      return "char";
    case Tok::kKwVoid:
      return "void";
    case Tok::kKwStruct:
      return "struct";
    case Tok::kKwIf:
      return "if";
    case Tok::kKwElse:
      return "else";
    case Tok::kKwWhile:
      return "while";
    case Tok::kKwFor:
      return "for";
    case Tok::kKwReturn:
      return "return";
    case Tok::kKwBreak:
      return "break";
    case Tok::kKwContinue:
      return "continue";
    case Tok::kKwExtern:
      return "extern";
    case Tok::kKwStatic:
      return "static";
    case Tok::kKwSizeof:
      return "sizeof";
    case Tok::kKwDo:
      return "do";
    case Tok::kLParen:
      return "(";
    case Tok::kRParen:
      return ")";
    case Tok::kLBrace:
      return "{";
    case Tok::kRBrace:
      return "}";
    case Tok::kLBracket:
      return "[";
    case Tok::kRBracket:
      return "]";
    case Tok::kSemi:
      return ";";
    case Tok::kComma:
      return ",";
    case Tok::kAssign:
      return "=";
    case Tok::kPlus:
      return "+";
    case Tok::kMinus:
      return "-";
    case Tok::kStar:
      return "*";
    case Tok::kSlash:
      return "/";
    case Tok::kPercent:
      return "%";
    case Tok::kAmp:
      return "&";
    case Tok::kPipe:
      return "|";
    case Tok::kCaret:
      return "^";
    case Tok::kTilde:
      return "~";
    case Tok::kBang:
      return "!";
    case Tok::kLt:
      return "<";
    case Tok::kGt:
      return ">";
    case Tok::kLe:
      return "<=";
    case Tok::kGe:
      return ">=";
    case Tok::kEqEq:
      return "==";
    case Tok::kNotEq:
      return "!=";
    case Tok::kAmpAmp:
      return "&&";
    case Tok::kPipePipe:
      return "||";
    case Tok::kShl:
      return "<<";
    case Tok::kShr:
      return ">>";
    case Tok::kDot:
      return ".";
    case Tok::kArrow:
      return "->";
    case Tok::kPlusAssign:
      return "+=";
    case Tok::kMinusAssign:
      return "-=";
    case Tok::kPlusPlus:
      return "++";
    case Tok::kMinusMinus:
      return "--";
    case Tok::kQuestion:
      return "?";
    case Tok::kColon:
      return ":";
  }
  return "?";
}

namespace {

const std::map<std::string, Tok>& Keywords() {
  static const std::map<std::string, Tok> kKeywords = {
      {"int", Tok::kKwInt},       {"char", Tok::kKwChar},         {"void", Tok::kKwVoid},
      {"struct", Tok::kKwStruct}, {"if", Tok::kKwIf},             {"else", Tok::kKwElse},
      {"while", Tok::kKwWhile},   {"for", Tok::kKwFor},           {"return", Tok::kKwReturn},
      {"break", Tok::kKwBreak},   {"continue", Tok::kKwContinue}, {"extern", Tok::kKwExtern},
      {"static", Tok::kKwStatic}, {"sizeof", Tok::kKwSizeof},
      {"do", Tok::kKwDo},
  };
  return kKeywords;
}

}  // namespace

Status Lexer::Next(Token* tok) {
  RETURN_IF_ERROR(SkipWhitespaceAndComments());
  tok->kind = Tok::kEof;
  tok->text.clear();
  tok->number = 0;
  tok->line = line_;
  tok->col = col_;
  if (AtEnd()) {
    return OkStatus();
  }
  char c = Peek();
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
    while (!AtEnd() && (std::isalnum(static_cast<unsigned char>(Peek())) || Peek() == '_')) {
      tok->text.push_back(Advance());
    }
    auto it = Keywords().find(tok->text);
    if (it != Keywords().end()) {
      tok->kind = it->second;
      tok->text.clear();
    } else {
      tok->kind = Tok::kIdent;
    }
    return OkStatus();
  }
  if (std::isdigit(static_cast<unsigned char>(c))) {
    return LexNumber(tok);
  }
  if (c == '"') {
    return LexString(tok);
  }
  if (c == '\'') {
    return LexCharLit(tok);
  }
  return LexPunct(tok);
}

char Lexer::Advance() {
  char c = src_[pos_++];
  if (c == '\n') {
    ++line_;
    col_ = 1;
  } else {
    ++col_;
  }
  return c;
}

bool Lexer::Match(char c) {
  if (!AtEnd() && Peek() == c) {
    Advance();
    return true;
  }
  return false;
}

Status Lexer::Error(const std::string& msg) const {
  return InvalidArgument(StrFormat("lex error at %d:%d: %s", line_, col_, msg.c_str()));
}

Status Lexer::SkipWhitespaceAndComments() {
  while (!AtEnd()) {
    char c = Peek();
    if (std::isspace(static_cast<unsigned char>(c))) {
      Advance();
    } else if (c == '/' && PeekNext() == '/') {
      while (!AtEnd() && Peek() != '\n') {
        Advance();
      }
    } else if (c == '/' && PeekNext() == '*') {
      Advance();
      Advance();
      while (!AtEnd() && !(Peek() == '*' && PeekNext() == '/')) {
        Advance();
      }
      if (AtEnd()) {
        return Error("unterminated block comment");
      }
      Advance();
      Advance();
    } else {
      break;
    }
  }
  return OkStatus();
}

Status Lexer::LexNumber(Token* tok) {
  tok->kind = Tok::kNumber;
  int64_t value = 0;
  if (Peek() == '0' && (PeekNext() == 'x' || PeekNext() == 'X')) {
    Advance();
    Advance();
    if (AtEnd() || !std::isxdigit(static_cast<unsigned char>(Peek()))) {
      return Error("malformed hex literal");
    }
    while (!AtEnd() && std::isxdigit(static_cast<unsigned char>(Peek()))) {
      char c = Advance();
      int digit = std::isdigit(static_cast<unsigned char>(c))
                      ? c - '0'
                      : std::tolower(static_cast<unsigned char>(c)) - 'a' + 10;
      value = value * 16 + digit;
      if (value > 0xFFFFFFFFLL) {
        return Error("hex literal too large");
      }
    }
  } else {
    while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
      value = value * 10 + (Advance() - '0');
      if (value > 0xFFFFFFFFLL) {
        return Error("decimal literal too large");
      }
    }
  }
  tok->number = static_cast<int32_t>(static_cast<uint32_t>(value));
  return OkStatus();
}

Result<char> Lexer::LexEscape() {
  char c = Advance();
  switch (c) {
    case 'n':
      return '\n';
    case 't':
      return '\t';
    case 'r':
      return '\r';
    case '0':
      return '\0';
    case '\\':
      return '\\';
    case '\'':
      return '\'';
    case '"':
      return '"';
    default:
      return Error(StrFormat("unknown escape '\\%c'", c));
  }
}

Status Lexer::LexString(Token* tok) {
  tok->kind = Tok::kString;
  Advance();  // opening quote
  while (!AtEnd() && Peek() != '"') {
    char c = Advance();
    if (c == '\\') {
      if (AtEnd()) {
        return Error("unterminated string");
      }
      ASSIGN_OR_RETURN(c, LexEscape());
    }
    tok->text.push_back(c);
  }
  if (AtEnd()) {
    return Error("unterminated string");
  }
  Advance();  // closing quote
  return OkStatus();
}

Status Lexer::LexCharLit(Token* tok) {
  tok->kind = Tok::kCharLit;
  Advance();  // opening quote
  if (AtEnd()) {
    return Error("unterminated char literal");
  }
  char c = Advance();
  if (c == '\\') {
    if (AtEnd()) {
      return Error("unterminated char literal");
    }
    ASSIGN_OR_RETURN(c, LexEscape());
  }
  tok->number = static_cast<int32_t>(c);
  if (AtEnd() || Advance() != '\'') {
    return Error("unterminated char literal");
  }
  return OkStatus();
}

Status Lexer::LexPunct(Token* tok) {
  char c = Advance();
  switch (c) {
    case '(':
      tok->kind = Tok::kLParen;
      return OkStatus();
    case ')':
      tok->kind = Tok::kRParen;
      return OkStatus();
    case '{':
      tok->kind = Tok::kLBrace;
      return OkStatus();
    case '}':
      tok->kind = Tok::kRBrace;
      return OkStatus();
    case '[':
      tok->kind = Tok::kLBracket;
      return OkStatus();
    case ']':
      tok->kind = Tok::kRBracket;
      return OkStatus();
    case ';':
      tok->kind = Tok::kSemi;
      return OkStatus();
    case ',':
      tok->kind = Tok::kComma;
      return OkStatus();
    case '~':
      tok->kind = Tok::kTilde;
      return OkStatus();
    case '^':
      tok->kind = Tok::kCaret;
      return OkStatus();
    case '.':
      tok->kind = Tok::kDot;
      return OkStatus();
    case '?':
      tok->kind = Tok::kQuestion;
      return OkStatus();
    case ':':
      tok->kind = Tok::kColon;
      return OkStatus();
    case '+':
      tok->kind = Match('=') ? Tok::kPlusAssign : (Match('+') ? Tok::kPlusPlus : Tok::kPlus);
      return OkStatus();
    case '-':
      tok->kind = Match('=')   ? Tok::kMinusAssign
                  : Match('-') ? Tok::kMinusMinus
                  : Match('>') ? Tok::kArrow
                               : Tok::kMinus;
      return OkStatus();
    case '*':
      tok->kind = Tok::kStar;
      return OkStatus();
    case '/':
      tok->kind = Tok::kSlash;
      return OkStatus();
    case '%':
      tok->kind = Tok::kPercent;
      return OkStatus();
    case '&':
      tok->kind = Match('&') ? Tok::kAmpAmp : Tok::kAmp;
      return OkStatus();
    case '|':
      tok->kind = Match('|') ? Tok::kPipePipe : Tok::kPipe;
      return OkStatus();
    case '!':
      tok->kind = Match('=') ? Tok::kNotEq : Tok::kBang;
      return OkStatus();
    case '=':
      tok->kind = Match('=') ? Tok::kEqEq : Tok::kAssign;
      return OkStatus();
    case '<':
      tok->kind = Match('=') ? Tok::kLe : (Match('<') ? Tok::kShl : Tok::kLt);
      return OkStatus();
    case '>':
      tok->kind = Match('=') ? Tok::kGe : (Match('>') ? Tok::kShr : Tok::kGt);
      return OkStatus();
    default:
      return Error(StrFormat("unexpected character '%c'", c));
  }
}

Result<std::vector<Token>> Lex(const std::string& source) {
  Lexer lexer(source);
  std::vector<Token> out;
  do {
    out.emplace_back();
    RETURN_IF_ERROR(lexer.Next(&out.back()));
  } while (out.back().kind != Tok::kEof);
  return out;
}

}  // namespace hemlock
