// The HemC lexer. Supports // and /* */ comments, decimal/hex numbers, character
// literals with the usual escapes, and string literals.
#ifndef SRC_LANG_LEXER_H_
#define SRC_LANG_LEXER_H_

#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/lang/token.h"

namespace hemlock {

// Tokenizes a source one token at a time, so a caller holds only the tokens it
// looks at. |source| must outlive the lexer.
class Lexer {
 public:
  explicit Lexer(const std::string& source) : src_(source) {}

  // Overwrites |tok| with the next token, reusing its text buffer. At the end of
  // the source it yields kEof, again on every later call. After an error the
  // lexer must not be called again.
  Status Next(Token* tok);

 private:
  bool AtEnd() const { return pos_ >= src_.size(); }
  char Peek() const { return src_[pos_]; }
  char PeekNext() const { return pos_ + 1 < src_.size() ? src_[pos_ + 1] : '\0'; }
  char Advance();
  bool Match(char c);
  Status Error(const std::string& msg) const;
  Status SkipWhitespaceAndComments();
  Status LexNumber(Token* tok);
  Result<char> LexEscape();
  Status LexString(Token* tok);
  Status LexCharLit(Token* tok);
  Status LexPunct(Token* tok);

  const std::string& src_;
  size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

// Tokenizes all of |source|. The result always ends with a kEof token.
Result<std::vector<Token>> Lex(const std::string& source);

}  // namespace hemlock

#endif  // SRC_LANG_LEXER_H_
