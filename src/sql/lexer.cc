#include "sql/lexer.h"

#include <cctype>
#include <unordered_set>

#include "common/string_util.h"

namespace mosaic {
namespace sql {

bool Token::IsKeyword(const char* kw) const {
  return type == TokenType::kKeyword && text == kw;
}

std::string TokenTypeName(TokenType type) {
  switch (type) {
    case TokenType::kIdentifier:
      return "identifier";
    case TokenType::kIntLiteral:
      return "integer literal";
    case TokenType::kDoubleLiteral:
      return "double literal";
    case TokenType::kStringLiteral:
      return "string literal";
    case TokenType::kLParen:
      return "'('";
    case TokenType::kRParen:
      return "')'";
    case TokenType::kComma:
      return "','";
    case TokenType::kSemicolon:
      return "';'";
    case TokenType::kStar:
      return "'*'";
    case TokenType::kPlus:
      return "'+'";
    case TokenType::kMinus:
      return "'-'";
    case TokenType::kSlash:
      return "'/'";
    case TokenType::kEq:
      return "'='";
    case TokenType::kNe:
      return "'<>'";
    case TokenType::kLt:
      return "'<'";
    case TokenType::kLe:
      return "'<='";
    case TokenType::kGt:
      return "'>'";
    case TokenType::kGe:
      return "'>='";
    case TokenType::kDot:
      return "'.'";
    case TokenType::kKeyword:
      return "keyword";
    case TokenType::kEof:
      return "end of input";
  }
  return "?";
}

bool IsReservedKeyword(std::string_view w) {
  static const std::unordered_set<std::string_view> kKeywords = {
      // Standard SQL subset
      "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "ASC", "DESC",
      "LIMIT", "AS", "AND", "OR", "NOT", "IN", "BETWEEN", "INSERT", "INTO",
      "VALUES", "CREATE", "TABLE", "TEMPORARY", "DROP", "IF", "EXISTS",
      "UPDATE", "SET", "COPY", "DISTINCT", "NULL", "TRUE", "FALSE",
      "COUNT", "SUM", "AVG", "MIN", "MAX",
      // Mosaic extensions (paper §3)
      "POPULATION", "GLOBAL", "SAMPLE", "METADATA", "USING", "MECHANISM",
      "PERCENT", "UNIFORM", "STRATIFIED", "ON", "CLOSED", "SEMI", "OPEN",
      "SEMIOPEN", "FOR", "WEIGHT", "HAVING", "SHOW", "TABLES",
      "POPULATIONS", "SAMPLES",
      // Observability
      "EXPLAIN", "ANALYZE", "METRICS",
  };
  return kKeywords.count(w) > 0;
}

[[nodiscard]] Result<std::vector<Token>> Lex(const std::string& input) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = input.size();
  tokens.reserve(n / 4 + 2);  // ~4 bytes a token, plus kEof
  auto push = [&](TokenType type, std::string text, size_t off) {
    Token t;
    t.type = type;
    t.text = std::move(text);
    t.offset = off;
    tokens.push_back(std::move(t));
  };
  while (i < n) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // -- line comment
    if (c == '-' && i + 1 < n && input[i + 1] == '-') {
      while (i < n && input[i] != '\n') ++i;
      continue;
    }
    size_t start = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(input[j])) ||
                       input[j] == '_')) {
        ++j;
      }
      // Upper-case on the stack; longer words are never keywords.
      const std::string_view word(input.data() + i, j - i);
      char upper[16];
      const bool fits = word.size() <= sizeof(upper);
      for (size_t k = 0; fits && k < word.size(); ++k) {
        upper[k] = static_cast<char>(
            std::toupper(static_cast<unsigned char>(word[k])));
      }
      if (fits && IsReservedKeyword({upper, word.size()})) {
        push(TokenType::kKeyword, std::string(upper, word.size()), start);
      } else {
        push(TokenType::kIdentifier, std::string(word), start);
      }
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(input[i + 1])))) {
      size_t j = i;
      bool has_dot = false, has_exp = false;
      while (j < n) {
        char d = input[j];
        if (std::isdigit(static_cast<unsigned char>(d))) {
          ++j;
        } else if (d == '.' && !has_dot && !has_exp) {
          has_dot = true;
          ++j;
        } else if ((d == 'e' || d == 'E') && !has_exp && j > i) {
          has_exp = true;
          ++j;
          if (j < n && (input[j] == '+' || input[j] == '-')) ++j;
        } else {
          break;
        }
      }
      Token t;
      t.offset = start;
      t.text = input.substr(i, j - i);
      const std::string& num = t.text;
      if (has_dot || has_exp) {
        t.type = TokenType::kDoubleLiteral;
        try {
          t.double_value = std::stod(num);
        } catch (...) {
          return Status::ParseError("bad numeric literal '" + num + "'");
        }
      } else {
        t.type = TokenType::kIntLiteral;
        try {
          t.int_value = std::stoll(num);
        } catch (...) {
          return Status::ParseError("integer literal out of range '" + num +
                                    "'");
        }
      }
      tokens.push_back(std::move(t));
      i = j;
      continue;
    }
    if (c == '\'') {
      std::string s;
      size_t j = i + 1;
      bool closed = false;
      while (j < n) {
        if (input[j] == '\'') {
          if (j + 1 < n && input[j + 1] == '\'') {
            s += '\'';
            j += 2;
          } else {
            closed = true;
            ++j;
            break;
          }
        } else {
          s += input[j];
          ++j;
        }
      }
      if (!closed) {
        return Status::ParseError(StrFormat(
            "unterminated string literal at offset %zu", start));
      }
      push(TokenType::kStringLiteral, s, start);
      i = j;
      continue;
    }
    switch (c) {
      case '(':
        push(TokenType::kLParen, "(", start);
        ++i;
        break;
      case ')':
        push(TokenType::kRParen, ")", start);
        ++i;
        break;
      case ',':
        push(TokenType::kComma, ",", start);
        ++i;
        break;
      case ';':
        push(TokenType::kSemicolon, ";", start);
        ++i;
        break;
      case '*':
        push(TokenType::kStar, "*", start);
        ++i;
        break;
      case '+':
        push(TokenType::kPlus, "+", start);
        ++i;
        break;
      case '-':
        push(TokenType::kMinus, "-", start);
        ++i;
        break;
      case '/':
        push(TokenType::kSlash, "/", start);
        ++i;
        break;
      case '.':
        push(TokenType::kDot, ".", start);
        ++i;
        break;
      case '=':
        push(TokenType::kEq, "=", start);
        ++i;
        break;
      case '!':
        if (i + 1 < n && input[i + 1] == '=') {
          push(TokenType::kNe, "!=", start);
          i += 2;
        } else {
          return Status::ParseError(
              StrFormat("unexpected '!' at offset %zu", start));
        }
        break;
      case '<':
        if (i + 1 < n && input[i + 1] == '=') {
          push(TokenType::kLe, "<=", start);
          i += 2;
        } else if (i + 1 < n && input[i + 1] == '>') {
          push(TokenType::kNe, "<>", start);
          i += 2;
        } else {
          push(TokenType::kLt, "<", start);
          ++i;
        }
        break;
      case '>':
        if (i + 1 < n && input[i + 1] == '=') {
          push(TokenType::kGe, ">=", start);
          i += 2;
        } else {
          push(TokenType::kGt, ">", start);
          ++i;
        }
        break;
      case '[':
      case ']':
        // The paper writes IN [list]; accept brackets as parens.
        push(c == '[' ? TokenType::kLParen : TokenType::kRParen,
             std::string(1, c), start);
        ++i;
        break;
      default:
        return Status::ParseError(
            StrFormat("unexpected character '%c' at offset %zu", c, start));
    }
  }
  push(TokenType::kEof, "", n);
  return tokens;
}

}  // namespace sql
}  // namespace mosaic
