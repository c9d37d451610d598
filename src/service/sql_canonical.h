// SQL canonicalization and read/write classification for the query
// service's result cache and locking policy.
#ifndef MOSAIC_SERVICE_SQL_CANONICAL_H_
#define MOSAIC_SERVICE_SQL_CANONICAL_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/token.h"

namespace mosaic {
namespace service {

/// Canonical cache key for a statement: tokens re-joined with single
/// spaces, identifiers lower-cased, keywords upper-cased, numeric
/// literals normalized, trailing (never inner) ';' dropped — so
/// "select  COUNT(*) from T ;" and "SELECT count(*) FROM t" share one
/// result-cache entry, and statements sharing a key parse alike.
/// Fails on statements the lexer rejects.
[[nodiscard]] Result<std::string> CanonicalizeSql(const std::string& sql);

/// The same key, from tokens as sql::Lex returns them.
[[nodiscard]] Result<std::string> CanonicalizeTokens(
    const std::vector<sql::Token>& tokens);

/// How the service must schedule a statement.
enum class StatementClass {
  /// Runs under the shared lock; its result may be cached (SELECT at
  /// any visibility level, SHOW). SEMI-OPEN belongs here even though
  /// it persists fitted weights (§3.2): weights are published as
  /// immutable copy-on-write epochs (core/weights.h), a
  /// self-synchronizing swap that never disturbs concurrent readers —
  /// only catalog structure and sample data need the exclusive lock.
  kRead,
  /// Mutates catalog state and runs exclusively: DDL/DML/UPDATE.
  kWrite,
};

/// Classify an already-parsed statement. OPEN queries count as reads
/// (the model cache synchronizes itself), and so does SELECT
/// SEMI-OPEN (epoch publication synchronizes itself; see above).
StatementClass ClassifyStatement(const sql::Statement& stmt);

}  // namespace service
}  // namespace mosaic

#endif  // MOSAIC_SERVICE_SQL_CANONICAL_H_
