// The HemC recursive-descent parser.
#ifndef SRC_LANG_PARSER_H_
#define SRC_LANG_PARSER_H_

#include <memory>
#include <string>

#include "src/base/status.h"
#include "src/lang/ast.h"

namespace hemlock {

// Parses a full translation unit, pulling tokens from the lexer as it goes. A lex
// error anywhere in |source| is the error reported, even after a parse error.
Result<std::unique_ptr<Program>> ParseSource(const std::string& source);

}  // namespace hemlock

#endif  // SRC_LANG_PARSER_H_
