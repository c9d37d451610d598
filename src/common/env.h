// Hardened environment-variable parsing for Mosaic's knobs
// (MOSAIC_SLOW_QUERY_MS, MOSAIC_TRACE and friends). A mistyped value
// used to be silently ignored or, worse, silently truncated by atoll;
// these helpers warn once on stderr and fall back to "unset" so a bad
// knob can never half-configure the engine.
#ifndef MOSAIC_COMMON_ENV_H_
#define MOSAIC_COMMON_ENV_H_

#include <cstddef>
#include <optional>

namespace mosaic {

/// Value of a numeric environment variable. Unset or empty returns
/// nullopt; garbage, a negative sign, or a value that overflows
/// size_t logs one warning naming the variable and also returns
/// nullopt (strict parse via ParseUint64, common/string_util.h).
std::optional<size_t> EnvSize(const char* name);

/// True when the flag-style variable is set to "1" (the repo's
/// convention for MOSAIC_TRACE / MOSAIC_BENCH_FULL). Any other
/// non-empty value logs a warning and reads as false.
bool EnvFlag(const char* name);

}  // namespace mosaic

#endif  // MOSAIC_COMMON_ENV_H_
