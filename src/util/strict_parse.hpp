#pragma once
// Strict input parsing shared by the serving entry points.
//
// The std::stoi family alone accepts "16abc" as 16 — a typo silently
// benchmarks the wrong configuration — and throws a bare
// std::invalid_argument("stoi") on "abc" that surfaces as an unhandled
// crash in a CLI. These wrappers require the whole token to be consumed
// and carry the offending text in the exception message, so callers can
// turn any bad value into one clean usage error. First written for
// service/request_stream.cpp; now also behind tools/dynasparse_serve and
// tools/dynasparse_cli so stream files and CLI flags share one parsing
// discipline.
//
// parse_env_int is the environment-variable counterpart: a knob like
// DYNASPARSE_FORCE_THREADS must never change behavior silently on a
// typo. A set-but-malformed or out-of-range value logs one warning
// (util/logging.hpp) and deterministically falls back to the caller's
// default — never a crash, never a silent misparse.

#include <cstddef>
#include <cstdint>
#include <string>

namespace dynasparse {

/// Whole-token numeric parsers: throw std::invalid_argument unless the
/// entire string is one valid literal (std::stoi would accept "4x2" as 4),
/// or std::out_of_range when the value does not fit the target type. The
/// unsigned parsers additionally reject negative input, which std::stoull
/// would silently wrap to a huge positive value.
int strict_stoi(const std::string& v);
std::int64_t strict_stoll(const std::string& v);
std::uint64_t strict_stoull(const std::string& v);
double strict_stod(const std::string& v);

/// The one sanctioned doorway to string-valued environment variables
/// (directories, chaos specs): returns nullptr when `name` is unset OR
/// set empty — the shell idiom `VAR= cmd` means "unset" everywhere else
/// in this codebase, so it means that here too. Numeric knobs use
/// parse_env_int instead; dynasparse_lint flags raw getenv outside this
/// file.
const char* env_text(const char* name);

/// Read the integer environment variable `name`. Unset (or set empty, the
/// shell idiom for unset) returns `fallback` silently; set but malformed
/// (non-whole-token) or outside [min_value, max_value] logs one warning
/// and returns `fallback`.
long long parse_env_int(const char* name, long long fallback,
                        long long min_value, long long max_value);

/// Parse a non-negative byte size with optional binary-unit suffix:
/// "512m" / "512M" / "512mb" / "512MB" = 512 MiB, likewise "k"/"kb" and
/// "g"/"gb"; "b" is explicit bytes, as is a bare number. Throws
/// std::invalid_argument on anything else — negative values, unknown or
/// dangling suffixes, trailing garbage ("512mx") — and std::out_of_range
/// on overflow: the strict_stoi whole-token discipline.
std::size_t parse_size_bytes(const std::string& v);

/// Parse a non-negative duration into milliseconds. Accepts a bare
/// integer ("250" = 250 ms), an "ms" suffix ("250ms"), or an "s" suffix
/// with an optionally fractional value ("1.5s" = 1500 ms). Throws
/// std::invalid_argument on anything else (negative values, unknown
/// suffixes, partial tokens — the strict_stoi discipline).
std::int64_t parse_duration_ms(const std::string& v);

}  // namespace dynasparse
