// Hand-written lexer for Mosaic SQL. ASCII, case-insensitive keywords,
// single-quoted string literals with '' escape, -- line comments.
#ifndef MOSAIC_SQL_LEXER_H_
#define MOSAIC_SQL_LEXER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "sql/token.h"

namespace mosaic {
namespace sql {

/// True if the upper-cased word is a reserved keyword of the dialect.
bool IsReservedKeyword(std::string_view upper_word);

/// Tokenize the whole input. The returned vector always ends with an
/// kEof token. Errors carry the byte offset of the offending char.
[[nodiscard]] Result<std::vector<Token>> Lex(const std::string& input);

}  // namespace sql
}  // namespace mosaic

#endif  // MOSAIC_SQL_LEXER_H_
