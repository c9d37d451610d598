#include "sql/parser.h"

#include "common/string_util.h"
#include "sql/lexer.h"

namespace mosaic {
namespace sql {

namespace {

/// Token-stream cursor with the usual Peek/Advance/Expect helpers.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  [[nodiscard]] Result<std::vector<Statement>> ParseScript() {
    std::vector<Statement> out;
    while (!AtEof()) {
      if (Peek().type == TokenType::kSemicolon) {
        Advance();
        continue;
      }
      MOSAIC_ASSIGN_OR_RETURN(Statement stmt, ParseStatement());
      out.push_back(std::move(stmt));
      if (!AtEof() && Peek().type != TokenType::kSemicolon) {
        return Error("expected ';' after statement");
      }
    }
    return out;
  }

  [[nodiscard]] Result<Statement> ParseStatement() {
    const Token& t = Peek();
    if (t.IsKeyword("SELECT")) {
      MOSAIC_ASSIGN_OR_RETURN(SelectStmt sel, ParseSelect());
      Statement stmt;
      stmt.node = std::move(sel);
      return stmt;
    }
    if (t.IsKeyword("EXPLAIN")) {
      Advance();
      // Plain EXPLAIN (no execution) has no plan to print in this
      // engine; only the ANALYZE form exists.
      MOSAIC_RETURN_IF_ERROR(ExpectKeyword("ANALYZE"));
      if (!Peek().IsKeyword("SELECT")) {
        return Error("EXPLAIN ANALYZE supports SELECT statements only");
      }
      MOSAIC_ASSIGN_OR_RETURN(SelectStmt sel, ParseSelect());
      sel.explain_analyze = true;
      Statement stmt;
      stmt.node = std::move(sel);
      return stmt;
    }
    if (t.IsKeyword("CREATE")) return ParseCreate();
    if (t.IsKeyword("INSERT")) return ParseInsert();
    if (t.IsKeyword("COPY")) return ParseCopy();
    if (t.IsKeyword("DROP")) return ParseDrop();
    if (t.IsKeyword("UPDATE")) return ParseUpdate();
    if (t.IsKeyword("SHOW")) return ParseShow();
    return Error("expected a statement, got " + Describe(t));
  }

  bool AtEof() const { return tokens_[pos_].type == TokenType::kEof; }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  const Token& Advance() { return tokens_[pos_++]; }

  bool Match(TokenType type) {
    if (Peek().type == type) {
      Advance();
      return true;
    }
    return false;
  }

  bool MatchKeyword(const char* kw) {
    if (Peek().IsKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }

  [[nodiscard]] Status Expect(TokenType type, const char* what) {
    if (Peek().type != type) {
      return Status::ParseError(std::string("expected ") + what + ", got " +
                                Describe(Peek()));
    }
    Advance();
    return Status::OK();
  }

  [[nodiscard]] Status ExpectKeyword(const char* kw) {
    if (!Peek().IsKeyword(kw)) {
      return Status::ParseError(std::string("expected ") + kw + ", got " +
                                Describe(Peek()));
    }
    Advance();
    return Status::OK();
  }

  static std::string Describe(const Token& t) {
    if (t.type == TokenType::kEof) return "end of input";
    return TokenTypeName(t.type) + " '" + t.text + "'";
  }

  [[nodiscard]] Status Error(const std::string& msg) const {
    return Status::ParseError(
        msg + StrFormat(" (at offset %zu)", Peek().offset));
  }

  /// Identifier, or any keyword usable as a name (we keep the reserved
  /// set small, but e.g. a column called "percent" would clash; allow
  /// non-structural keywords as identifiers where unambiguous).
  [[nodiscard]] Result<std::string> ParseIdentifier(const char* what) {
    const Token& t = Peek();
    if (t.type == TokenType::kIdentifier) {
      Advance();
      return t.text;
    }
    // Allow a few keywords in name position (e.g. WEIGHT, COUNT used
    // as a column alias).
    if (t.type == TokenType::kKeyword &&
        (t.text == "WEIGHT" || t.text == "COUNT" || t.text == "MIN" ||
         t.text == "MAX" || t.text == "PERCENT" || t.text == "SAMPLE")) {
      // Only treat as a name when not followed by '(' (function call).
      if (Peek(1).type != TokenType::kLParen) {
        Advance();
        return ToLower(t.text);
      }
    }
    return Status::ParseError(std::string("expected ") + what + ", got " +
                              Describe(t));
  }

  // ---- SELECT ------------------------------------------------------------

  [[nodiscard]] Result<SelectStmt> ParseSelect() {
    MOSAIC_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    SelectStmt sel;
    // Visibility keyword (paper §3.3). "SEMI-OPEN" lexes as
    // SEMI MINUS OPEN.
    if (MatchKeyword("CLOSED")) {
      sel.visibility = Visibility::kClosed;
    } else if (MatchKeyword("SEMIOPEN")) {
      sel.visibility = Visibility::kSemiOpen;
    } else if (Peek().IsKeyword("SEMI")) {
      Advance();
      if (!Match(TokenType::kMinus)) {
        return Error("expected '-' in SEMI-OPEN");
      }
      MOSAIC_RETURN_IF_ERROR(ExpectKeyword("OPEN"));
      sel.visibility = Visibility::kSemiOpen;
    } else if (MatchKeyword("OPEN")) {
      sel.visibility = Visibility::kOpen;
    }
    (void)MatchKeyword("DISTINCT");  // tolerated, no-op for aggregates

    if (Peek().type == TokenType::kStar &&
        (Peek(1).IsKeyword("FROM"))) {
      Advance();
      sel.select_star = true;
    } else {
      for (;;) {
        SelectItem item;
        MOSAIC_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (MatchKeyword("AS")) {
          MOSAIC_ASSIGN_OR_RETURN(item.alias, ParseIdentifier("alias"));
        }
        sel.items.push_back(std::move(item));
        if (!Match(TokenType::kComma)) break;
      }
    }
    MOSAIC_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    MOSAIC_ASSIGN_OR_RETURN(sel.from, ParseIdentifier("relation name"));
    // Qualified relation names ("system.queries"): keep the dot in
    // the name — resolution stays a flat catalog lookup, the `system`
    // schema is just a reserved prefix the planner intercepts.
    if (Match(TokenType::kDot)) {
      // Any keyword is a valid name segment here ("system.metrics" —
      // METRICS lexes as a keyword); nothing structural can follow a
      // dot, so there is no ambiguity to guard against.
      const Token& seg = Peek();
      if (seg.type == TokenType::kIdentifier) {
        Advance();
        sel.from += "." + seg.text;
      } else if (seg.type == TokenType::kKeyword) {
        Advance();
        sel.from += "." + ToLower(seg.text);
      } else {
        return Error("expected relation name after '.'");
      }
    }
    if (MatchKeyword("WHERE")) {
      MOSAIC_ASSIGN_OR_RETURN(sel.where, ParseExpr());
    }
    if (Peek().IsKeyword("GROUP")) {
      Advance();
      MOSAIC_RETURN_IF_ERROR(ExpectKeyword("BY"));
      for (;;) {
        MOSAIC_ASSIGN_OR_RETURN(std::string col,
                                ParseIdentifier("GROUP BY column"));
        sel.group_by.push_back(std::move(col));
        if (!Match(TokenType::kComma)) break;
      }
    }
    if (MatchKeyword("HAVING")) {
      if (sel.group_by.empty()) {
        return Error("HAVING requires GROUP BY");
      }
      MOSAIC_ASSIGN_OR_RETURN(sel.having, ParseExpr());
    }
    if (Peek().IsKeyword("ORDER")) {
      Advance();
      MOSAIC_RETURN_IF_ERROR(ExpectKeyword("BY"));
      for (;;) {
        OrderByItem o;
        MOSAIC_ASSIGN_OR_RETURN(o.column, ParseIdentifier("ORDER BY column"));
        if (MatchKeyword("DESC")) {
          o.descending = true;
        } else {
          (void)MatchKeyword("ASC");
        }
        sel.order_by.push_back(std::move(o));
        if (!Match(TokenType::kComma)) break;
      }
    }
    if (MatchKeyword("LIMIT")) {
      if (Peek().type != TokenType::kIntLiteral) {
        return Error("expected integer after LIMIT");
      }
      sel.limit = Advance().int_value;
    }
    return sel;
  }

  // ---- CREATE ------------------------------------------------------------

  [[nodiscard]] Result<Statement> ParseCreate() {
    MOSAIC_RETURN_IF_ERROR(ExpectKeyword("CREATE"));
    bool temporary = MatchKeyword("TEMPORARY");
    bool global = MatchKeyword("GLOBAL");
    if (MatchKeyword("TABLE")) {
      if (global) return Error("GLOBAL applies to POPULATION, not TABLE");
      return ParseCreateTable(temporary);
    }
    if (MatchKeyword("POPULATION")) {
      if (temporary) return Error("TEMPORARY applies to TABLE");
      return ParseCreatePopulation(global);
    }
    if (MatchKeyword("SAMPLE")) {
      if (temporary || global) {
        return Error("SAMPLE takes no TEMPORARY/GLOBAL modifier");
      }
      return ParseCreateSample();
    }
    if (MatchKeyword("METADATA")) {
      if (temporary || global) {
        return Error("METADATA takes no TEMPORARY/GLOBAL modifier");
      }
      return ParseCreateMetadata();
    }
    return Error("expected TABLE, POPULATION, SAMPLE or METADATA");
  }

  [[nodiscard]] Result<std::vector<ColumnDef>> ParseColumnDefs() {
    MOSAIC_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    std::vector<ColumnDef> defs;
    for (;;) {
      ColumnDef def;
      MOSAIC_ASSIGN_OR_RETURN(def.name, ParseIdentifier("column name"));
      MOSAIC_ASSIGN_OR_RETURN(std::string type_name,
                              ParseIdentifier("type name"));
      MOSAIC_ASSIGN_OR_RETURN(def.type, ParseDataType(type_name));
      defs.push_back(std::move(def));
      if (!Match(TokenType::kComma)) break;
    }
    MOSAIC_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    return defs;
  }

  [[nodiscard]] Result<Statement> ParseCreateTable(bool temporary) {
    CreateTableStmt stmt;
    stmt.temporary = temporary;
    MOSAIC_ASSIGN_OR_RETURN(stmt.name, ParseIdentifier("table name"));
    if (Peek().type == TokenType::kLParen) {
      MOSAIC_ASSIGN_OR_RETURN(stmt.columns, ParseColumnDefs());
    }
    Statement out;
    out.node = std::move(stmt);
    return out;
  }

  [[nodiscard]] Result<Statement> ParseCreatePopulation(bool global) {
    CreatePopulationStmt stmt;
    stmt.global = global;
    MOSAIC_ASSIGN_OR_RETURN(stmt.name, ParseIdentifier("population name"));
    if (Peek().type == TokenType::kLParen) {
      MOSAIC_ASSIGN_OR_RETURN(stmt.columns, ParseColumnDefs());
    }
    if (MatchKeyword("AS")) {
      MOSAIC_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'(' after AS"));
      MOSAIC_ASSIGN_OR_RETURN(SelectStmt sel, ParseSelect());
      MOSAIC_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      stmt.as_select = std::make_unique<SelectStmt>(std::move(sel));
    }
    Statement out;
    out.node = std::move(stmt);
    return out;
  }

  [[nodiscard]] Result<Statement> ParseCreateSample() {
    CreateSampleStmt stmt;
    MOSAIC_ASSIGN_OR_RETURN(stmt.name, ParseIdentifier("sample name"));
    if (Peek().type == TokenType::kLParen && !Peek(1).IsKeyword("SELECT")) {
      MOSAIC_ASSIGN_OR_RETURN(stmt.columns, ParseColumnDefs());
    }
    MOSAIC_RETURN_IF_ERROR(ExpectKeyword("AS"));
    MOSAIC_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'(' after AS"));
    MOSAIC_ASSIGN_OR_RETURN(SelectStmt sel, ParseSelect());
    stmt.as_select = std::make_unique<SelectStmt>(std::move(sel));
    // Optional USING MECHANISM <mech> PERCENT <number>
    if (MatchKeyword("USING")) {
      MOSAIC_RETURN_IF_ERROR(ExpectKeyword("MECHANISM"));
      if (MatchKeyword("UNIFORM")) {
        stmt.mechanism.type = MechanismSpec::Type::kUniform;
      } else if (MatchKeyword("STRATIFIED")) {
        stmt.mechanism.type = MechanismSpec::Type::kStratified;
        MOSAIC_RETURN_IF_ERROR(ExpectKeyword("ON"));
        MOSAIC_ASSIGN_OR_RETURN(stmt.mechanism.stratify_attr,
                                ParseIdentifier("stratification attribute"));
      } else {
        return Error("expected UNIFORM or STRATIFIED mechanism");
      }
      MOSAIC_RETURN_IF_ERROR(ExpectKeyword("PERCENT"));
      const Token& t = Peek();
      if (t.type == TokenType::kIntLiteral) {
        stmt.mechanism.percent = static_cast<double>(t.int_value);
        Advance();
      } else if (t.type == TokenType::kDoubleLiteral) {
        stmt.mechanism.percent = t.double_value;
        Advance();
      } else {
        return Error("expected numeric percent");
      }
      if (stmt.mechanism.percent <= 0 || stmt.mechanism.percent > 100) {
        return Error("PERCENT must be in (0, 100]");
      }
    }
    MOSAIC_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    Statement out;
    out.node = std::move(stmt);
    return out;
  }

  [[nodiscard]] Result<Statement> ParseCreateMetadata() {
    CreateMetadataStmt stmt;
    MOSAIC_ASSIGN_OR_RETURN(stmt.name, ParseIdentifier("metadata name"));
    if (MatchKeyword("FOR")) {
      MOSAIC_ASSIGN_OR_RETURN(stmt.population,
                              ParseIdentifier("population name"));
    } else {
      // Paper naming convention: <Population>_M<k>.
      size_t underscore = stmt.name.rfind("_M");
      if (underscore != std::string::npos && underscore > 0) {
        stmt.population = stmt.name.substr(0, underscore);
      }
    }
    MOSAIC_RETURN_IF_ERROR(ExpectKeyword("AS"));
    MOSAIC_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'(' after AS"));
    MOSAIC_ASSIGN_OR_RETURN(SelectStmt sel, ParseSelect());
    MOSAIC_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    stmt.as_select = std::make_unique<SelectStmt>(std::move(sel));
    Statement out;
    out.node = std::move(stmt);
    return out;
  }

  // ---- INSERT / COPY / DROP / UPDATE --------------------------------------

  [[nodiscard]] Result<Statement> ParseInsert() {
    MOSAIC_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
    MOSAIC_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    InsertStmt stmt;
    MOSAIC_ASSIGN_OR_RETURN(stmt.table, ParseIdentifier("table name"));
    MOSAIC_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
    for (;;) {
      MOSAIC_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
      std::vector<Value> row;
      for (;;) {
        MOSAIC_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
        row.push_back(std::move(v));
        if (!Match(TokenType::kComma)) break;
      }
      MOSAIC_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      stmt.rows.push_back(std::move(row));
      if (!Match(TokenType::kComma)) break;
    }
    Statement out;
    out.node = std::move(stmt);
    return out;
  }

  [[nodiscard]] Result<Statement> ParseCopy() {
    MOSAIC_RETURN_IF_ERROR(ExpectKeyword("COPY"));
    CopyStmt stmt;
    MOSAIC_ASSIGN_OR_RETURN(stmt.table, ParseIdentifier("table name"));
    MOSAIC_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    if (Peek().type != TokenType::kStringLiteral) {
      return Error("expected quoted file path after COPY ... FROM");
    }
    stmt.path = Advance().text;
    Statement out;
    out.node = std::move(stmt);
    return out;
  }

  [[nodiscard]] Result<Statement> ParseDrop() {
    MOSAIC_RETURN_IF_ERROR(ExpectKeyword("DROP"));
    DropStmt stmt;
    if (MatchKeyword("TABLE")) {
      stmt.target = DropStmt::Target::kTable;
    } else if (MatchKeyword("POPULATION")) {
      stmt.target = DropStmt::Target::kPopulation;
    } else if (MatchKeyword("SAMPLE")) {
      stmt.target = DropStmt::Target::kSample;
    } else if (MatchKeyword("METADATA")) {
      stmt.target = DropStmt::Target::kMetadata;
    } else {
      return Error("expected TABLE, POPULATION, SAMPLE or METADATA");
    }
    if (MatchKeyword("IF")) {
      MOSAIC_RETURN_IF_ERROR(ExpectKeyword("EXISTS"));
      stmt.if_exists = true;
    }
    MOSAIC_ASSIGN_OR_RETURN(stmt.name, ParseIdentifier("name"));
    Statement out;
    out.node = std::move(stmt);
    return out;
  }

  [[nodiscard]] Result<Statement> ParseShow() {
    MOSAIC_RETURN_IF_ERROR(ExpectKeyword("SHOW"));
    ShowStmt stmt;
    if (MatchKeyword("TABLES")) {
      stmt.what = ShowStmt::What::kTables;
    } else if (MatchKeyword("POPULATIONS")) {
      stmt.what = ShowStmt::What::kPopulations;
    } else if (MatchKeyword("SAMPLES")) {
      stmt.what = ShowStmt::What::kSamples;
    } else if (MatchKeyword("METADATA")) {
      stmt.what = ShowStmt::What::kMetadata;
    } else if (MatchKeyword("METRICS")) {
      stmt.what = ShowStmt::What::kMetrics;
    } else {
      return Error(
          "expected TABLES, POPULATIONS, SAMPLES, METADATA or METRICS");
    }
    Statement out;
    out.node = stmt;
    return out;
  }

  [[nodiscard]] Result<Statement> ParseUpdate() {
    MOSAIC_RETURN_IF_ERROR(ExpectKeyword("UPDATE"));
    UpdateStmt stmt;
    MOSAIC_ASSIGN_OR_RETURN(stmt.table, ParseIdentifier("table name"));
    MOSAIC_RETURN_IF_ERROR(ExpectKeyword("SET"));
    for (;;) {
      MOSAIC_ASSIGN_OR_RETURN(std::string col,
                              ParseIdentifier("column name"));
      MOSAIC_RETURN_IF_ERROR(Expect(TokenType::kEq, "'='"));
      MOSAIC_ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
      stmt.assignments.emplace_back(std::move(col), std::move(value));
      if (!Match(TokenType::kComma)) break;
    }
    if (MatchKeyword("WHERE")) {
      MOSAIC_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    Statement out;
    out.node = std::move(stmt);
    return out;
  }

  // ---- Expressions ---------------------------------------------------------
  // Precedence: OR < AND < NOT < comparison/IN/BETWEEN < add < mul < unary.

  [[nodiscard]] Result<ExprPtr> ParseExpr() { return ParseOr(); }

  [[nodiscard]] Result<ExprPtr> ParseOr() {
    MOSAIC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (MatchKeyword("OR")) {
      MOSAIC_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = Expr::MakeBinary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  [[nodiscard]] Result<ExprPtr> ParseAnd() {
    MOSAIC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (MatchKeyword("AND")) {
      MOSAIC_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      lhs = Expr::MakeBinary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  [[nodiscard]] Result<ExprPtr> ParseNot() {
    if (MatchKeyword("NOT")) {
      MOSAIC_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      return Expr::MakeUnary(UnaryOp::kNot, std::move(operand));
    }
    return ParseComparison();
  }

  [[nodiscard]] Result<ExprPtr> ParseComparison() {
    MOSAIC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    // IN / NOT IN / BETWEEN
    if (MatchKeyword("IN")) {
      return ParseInList(std::move(lhs), /*negated=*/false);
    }
    if (Peek().IsKeyword("NOT") && Peek(1).IsKeyword("IN")) {
      Advance();
      Advance();
      return ParseInList(std::move(lhs), /*negated=*/true);
    }
    if (MatchKeyword("BETWEEN")) {
      MOSAIC_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
      MOSAIC_RETURN_IF_ERROR(ExpectKeyword("AND"));
      MOSAIC_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
      return Expr::MakeBetween(std::move(lhs), std::move(lo), std::move(hi));
    }
    BinaryOp op;
    switch (Peek().type) {
      case TokenType::kEq:
        op = BinaryOp::kEq;
        break;
      case TokenType::kNe:
        op = BinaryOp::kNe;
        break;
      case TokenType::kLt:
        op = BinaryOp::kLt;
        break;
      case TokenType::kLe:
        op = BinaryOp::kLe;
        break;
      case TokenType::kGt:
        op = BinaryOp::kGt;
        break;
      case TokenType::kGe:
        op = BinaryOp::kGe;
        break;
      default:
        return lhs;
    }
    Advance();
    MOSAIC_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
    return Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
  }

  [[nodiscard]] Result<ExprPtr> ParseInList(ExprPtr subject, bool negated) {
    MOSAIC_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'(' or '['"));
    std::vector<Value> list;
    for (;;) {
      MOSAIC_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
      list.push_back(std::move(v));
      if (!Match(TokenType::kComma)) break;
    }
    MOSAIC_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')' or ']'"));
    ExprPtr in = Expr::MakeIn(std::move(subject), std::move(list));
    if (negated) return Expr::MakeUnary(UnaryOp::kNot, std::move(in));
    return in;
  }

  [[nodiscard]] Result<ExprPtr> ParseAdditive() {
    MOSAIC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    for (;;) {
      BinaryOp op;
      if (Peek().type == TokenType::kPlus) {
        op = BinaryOp::kAdd;
      } else if (Peek().type == TokenType::kMinus) {
        op = BinaryOp::kSub;
      } else {
        return lhs;
      }
      Advance();
      MOSAIC_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      lhs = Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
    }
  }

  [[nodiscard]] Result<ExprPtr> ParseMultiplicative() {
    MOSAIC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    for (;;) {
      BinaryOp op;
      if (Peek().type == TokenType::kStar) {
        op = BinaryOp::kMul;
      } else if (Peek().type == TokenType::kSlash) {
        op = BinaryOp::kDiv;
      } else {
        return lhs;
      }
      Advance();
      MOSAIC_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      lhs = Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
    }
  }

  [[nodiscard]] Result<ExprPtr> ParseUnary() {
    if (Match(TokenType::kMinus)) {
      MOSAIC_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      return Expr::MakeUnary(UnaryOp::kNeg, std::move(operand));
    }
    if (Match(TokenType::kPlus)) {
      return ParseUnary();
    }
    return ParsePrimary();
  }

  [[nodiscard]] Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kIntLiteral:
        Advance();
        return Expr::MakeLiteral(Value(t.int_value));
      case TokenType::kDoubleLiteral:
        Advance();
        return Expr::MakeLiteral(Value(t.double_value));
      case TokenType::kStringLiteral:
        Advance();
        return Expr::MakeLiteral(Value(t.text));
      case TokenType::kLParen: {
        Advance();
        MOSAIC_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
        MOSAIC_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        return inner;
      }
      case TokenType::kKeyword: {
        if (t.text == "TRUE") {
          Advance();
          return Expr::MakeLiteral(Value(true));
        }
        if (t.text == "FALSE") {
          Advance();
          return Expr::MakeLiteral(Value(false));
        }
        if (t.text == "NULL") {
          Advance();
          return Expr::MakeLiteral(Value::Null());
        }
        // Aggregate functions.
        AggFunc func;
        if (t.text == "COUNT") {
          func = AggFunc::kCount;
        } else if (t.text == "SUM") {
          func = AggFunc::kSum;
        } else if (t.text == "AVG") {
          func = AggFunc::kAvg;
        } else if (t.text == "MIN") {
          func = AggFunc::kMin;
        } else if (t.text == "MAX") {
          func = AggFunc::kMax;
        } else if (t.text == "WEIGHT" || t.text == "PERCENT" ||
                   t.text == "SAMPLE") {
          // Non-structural keyword in expression position = column ref.
          Advance();
          return Expr::MakeColumnRef(ToLower(t.text));
        } else {
          return Error("unexpected keyword '" + t.text + "' in expression");
        }
        Advance();
        MOSAIC_RETURN_IF_ERROR(
            Expect(TokenType::kLParen, "'(' after aggregate"));
        if (func == AggFunc::kCount && Match(TokenType::kStar)) {
          MOSAIC_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
          return Expr::MakeAggregate(func, nullptr, /*star=*/true);
        }
        MOSAIC_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
        MOSAIC_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        return Expr::MakeAggregate(func, std::move(arg), /*star=*/false);
      }
      case TokenType::kIdentifier: {
        Advance();
        return Expr::MakeColumnRef(t.text);
      }
      default:
        return Error("expected an expression, got " + Describe(t));
    }
  }

  [[nodiscard]] Result<Value> ParseLiteralValue() {
    const Token& t = Peek();
    bool negate = false;
    if (t.type == TokenType::kMinus) {
      Advance();
      negate = true;
    }
    const Token& v = Peek();
    switch (v.type) {
      case TokenType::kIntLiteral:
        Advance();
        return Value(negate ? -v.int_value : v.int_value);
      case TokenType::kDoubleLiteral:
        Advance();
        return Value(negate ? -v.double_value : v.double_value);
      case TokenType::kStringLiteral:
        if (negate) return Error("cannot negate a string literal");
        Advance();
        return Value(v.text);
      case TokenType::kKeyword:
        if (negate) return Error("cannot negate " + Describe(v));
        if (v.text == "TRUE") {
          Advance();
          return Value(true);
        }
        if (v.text == "FALSE") {
          Advance();
          return Value(false);
        }
        if (v.text == "NULL") {
          Advance();
          return Value::Null();
        }
        return Error("expected a literal, got " + Describe(v));
      case TokenType::kIdentifier:
        // The paper writes `WHERE email = Yahoo` with a bare
        // identifier on the literal side; treat it as a string.
        if (negate) return Error("cannot negate an identifier literal");
        Advance();
        return Value(v.text);
      default:
        return Error("expected a literal, got " + Describe(v));
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

[[nodiscard]] Result<Statement> ParseStatement(const std::string& input) {
  MOSAIC_ASSIGN_OR_RETURN(auto tokens, Lex(input));
  return ParseTokens(std::move(tokens));
}

[[nodiscard]] Result<Statement> ParseTokens(std::vector<Token> tokens) {
  Parser parser(std::move(tokens));
  MOSAIC_ASSIGN_OR_RETURN(auto stmts, parser.ParseScript());
  if (stmts.empty()) return Status::ParseError("empty statement");
  if (stmts.size() > 1) {
    return Status::ParseError(
        "ParseStatement called with multiple statements");
  }
  return std::move(stmts[0]);
}

[[nodiscard]] Result<std::vector<Statement>> ParseScript(const std::string& input) {
  MOSAIC_ASSIGN_OR_RETURN(auto tokens, Lex(input));
  Parser parser(std::move(tokens));
  return parser.ParseScript();
}

}  // namespace sql
}  // namespace mosaic
