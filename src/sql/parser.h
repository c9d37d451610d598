// Recursive-descent parser for Mosaic SQL.
//
// Grammar (informal, keywords case-insensitive):
//
//   script     := statement (';' statement)* [';']
//   statement  := select | create_table | create_population
//               | create_sample | create_metadata | insert | copy
//               | drop | update
//
//   select     := SELECT [CLOSED | SEMI-OPEN | OPEN]
//                 ('*' | item (',' item)*)
//                 FROM name [WHERE expr]
//                 [GROUP BY name (',' name)*]
//                 [ORDER BY name [ASC|DESC] (',' ...)*]
//                 [LIMIT int]
//
//   create_population := CREATE [GLOBAL] POPULATION name
//                        ['(' coldefs ')'] [AS '(' select ')']
//   create_sample     := CREATE SAMPLE name ['(' coldefs ')']
//                        AS '(' select
//                             [USING MECHANISM mech PERCENT number] ')'
//   mech              := UNIFORM | STRATIFIED ON name
//   create_metadata   := CREATE METADATA name [FOR name] AS '(' select ')'
//
// The paper writes `SEMI-OPEN`; the lexer emits SEMI '-' OPEN and the
// parser also accepts SEMIOPEN / SEMI_OPEN spellings.
#ifndef MOSAIC_SQL_PARSER_H_
#define MOSAIC_SQL_PARSER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/token.h"

namespace mosaic {
namespace sql {

/// Parse one statement (trailing ';' allowed).
[[nodiscard]] Result<Statement> ParseStatement(const std::string& input);

/// The same, over tokens as sql::Lex returns them (ending in kEof), so
/// a caller that also needs the tokens lexes the text once.
[[nodiscard]] Result<Statement> ParseTokens(std::vector<Token> tokens);

/// Parse a ';'-separated script.
[[nodiscard]] Result<std::vector<Statement>> ParseScript(const std::string& input);

}  // namespace sql
}  // namespace mosaic

#endif  // MOSAIC_SQL_PARSER_H_
