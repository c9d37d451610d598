// Small string helpers shared across modules (lexer, CSV, pretty
// printers). Kept header-light: no locale dependence, ASCII only —
// SQL keywords and identifiers in Mosaic are ASCII.
#ifndef MOSAIC_COMMON_STRING_UTIL_H_
#define MOSAIC_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace mosaic {

/// ASCII lower-case copy.
std::string ToLower(std::string_view s);

/// ASCII upper-case copy.
std::string ToUpper(std::string_view s);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Strip leading and trailing whitespace.
std::string_view Trim(std::string_view s);

/// Split on a single character; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Join with a separator.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Strict non-negative base-10 integer parse: the whole string
/// (surrounding whitespace allowed) must be digits, and the value
/// must fit uint64. Rejects empty input, signs, trailing garbage, and
/// overflow — the shared parser behind numeric environment knobs
/// (common/env.h) and the server binaries' flag parsing, so a typo'd
/// `MOSAIC_SLOW_QUERY_MS=1e6` or `--port=80x` fails loudly instead of
/// silently misconfiguring.
[[nodiscard]] Result<uint64_t> ParseUint64(std::string_view s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Format a double trimming trailing zeros ("1.5", "3", "0.001").
std::string FormatDouble(double v, int max_precision = 6);

/// Render rows as an aligned, pipe-separated text table (for bench
/// harness output).
std::string RenderTable(const std::vector<std::string>& header,
                        const std::vector<std::vector<std::string>>& rows);

}  // namespace mosaic

#endif  // MOSAIC_COMMON_STRING_UTIL_H_
