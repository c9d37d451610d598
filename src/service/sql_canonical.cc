#include "service/sql_canonical.h"

#include <cctype>

#include "common/string_util.h"
#include "sql/ast.h"
#include "sql/lexer.h"
#include "storage/value.h"

namespace mosaic {
namespace service {

namespace {

const char* PunctText(sql::TokenType type) {
  switch (type) {
    case sql::TokenType::kLParen: return "(";
    case sql::TokenType::kRParen: return ")";
    case sql::TokenType::kComma: return ",";
    case sql::TokenType::kSemicolon: return ";";
    case sql::TokenType::kStar: return "*";
    case sql::TokenType::kPlus: return "+";
    case sql::TokenType::kMinus: return "-";
    case sql::TokenType::kSlash: return "/";
    case sql::TokenType::kEq: return "=";
    case sql::TokenType::kNe: return "<>";
    case sql::TokenType::kLt: return "<";
    case sql::TokenType::kLe: return "<=";
    case sql::TokenType::kGt: return ">";
    case sql::TokenType::kGe: return ">=";
    case sql::TokenType::kDot: return ".";
    default: return nullptr;
  }
}

}  // namespace

[[nodiscard]] Result<std::string> CanonicalizeSql(const std::string& sql) {
  MOSAIC_ASSIGN_OR_RETURN(auto tokens, sql::Lex(sql));
  return CanonicalizeTokens(tokens);
}

[[nodiscard]] Result<std::string> CanonicalizeTokens(
    const std::vector<sql::Token>& tokens) {
  // Only trailing ';' go: an inner one makes the parse fail.
  size_t end = tokens.size();
  while (end > 0 && (tokens[end - 1].type == sql::TokenType::kEof ||
                     tokens[end - 1].type == sql::TokenType::kSemicolon)) {
    --end;
  }
  std::string out;
  if (!tokens.empty()) out.reserve(tokens.back().offset + end);
  for (size_t i = 0; i < end; ++i) {
    const sql::Token& tok = tokens[i];
    if (!out.empty()) out += ' ';
    switch (tok.type) {
      case sql::TokenType::kIdentifier:
        out += ToLower(tok.text);
        break;
      case sql::TokenType::kKeyword:
        out += tok.text;  // lexer upper-cases keywords
        break;
      case sql::TokenType::kIntLiteral:
        out += std::to_string(tok.int_value);
        break;
      case sql::TokenType::kDoubleLiteral:
        // Exact, and always with a '.': `LIMIT 1.0` fails to parse.
        out += StrFormat("%#.17g", tok.double_value);
        break;
      case sql::TokenType::kStringLiteral: {
        out += '\'';
        for (char c : tok.text) {
          out += c;
          if (c == '\'') out += '\'';
        }
        out += '\'';
        break;
      }
      default: {
        const char* p = PunctText(tok.type);
        if (p == nullptr) {
          return Status::Internal("unprintable token in canonicalizer");
        }
        out += p;
        break;
      }
    }
  }
  return out;
}

StatementClass ClassifyStatement(const sql::Statement& stmt) {
  if (stmt.Is<sql::ShowStmt>()) return StatementClass::kRead;
  if (stmt.Is<sql::SelectStmt>()) {
    // Every SELECT — SEMI-OPEN included — is a shared-lock reader.
    // SEMI-OPEN does persist fitted weights (§3.2), but it publishes
    // them as a copy-on-write epoch that swaps in atomically
    // (core/weights.h); classifying it as a writer would serialize
    // every refit against all readers for no isolation gain.
    return StatementClass::kRead;
  }
  return StatementClass::kWrite;
}

}  // namespace service
}  // namespace mosaic
