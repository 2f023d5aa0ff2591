#include "util/strict_parse.hpp"

#include <cctype>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "util/logging.hpp"

namespace dynasparse {

namespace {

/// Run `parse` and require it to consume the whole token. Rewraps the
/// stoi-family exceptions so the message names the offending text (the
/// bare "stoi" they throw is useless in a usage error).
template <typename T, typename ParseFn>
T parse_full(const std::string& value, ParseFn parse) {
  std::size_t consumed = 0;
  T result{};
  try {
    result = parse(value, &consumed);
  } catch (const std::out_of_range&) {
    throw std::out_of_range("value out of range: \"" + value + "\"");
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument("not a number: \"" + value + "\"");
  }
  if (consumed != value.size())
    throw std::invalid_argument("trailing characters in \"" + value + "\"");
  return result;
}

/// std::stoull happily parses "-1" as 2^64-1; an unsigned knob must
/// reject negative input instead of wrapping it.
void reject_negative(const std::string& v) {
  std::size_t i = 0;
  while (i < v.size() && std::isspace(static_cast<unsigned char>(v[i]))) ++i;
  if (i < v.size() && v[i] == '-')
    throw std::invalid_argument("negative value \"" + v + "\" for unsigned field");
}

}  // namespace

int strict_stoi(const std::string& v) {
  return parse_full<int>(v, [](const std::string& s, std::size_t* p) {
    return std::stoi(s, p);
  });
}

std::int64_t strict_stoll(const std::string& v) {
  return parse_full<std::int64_t>(v, [](const std::string& s, std::size_t* p) {
    return std::stoll(s, p);
  });
}

std::uint64_t strict_stoull(const std::string& v) {
  reject_negative(v);
  return parse_full<std::uint64_t>(v, [](const std::string& s, std::size_t* p) {
    return std::stoull(s, p);
  });
}

const char* env_text(const char* name) {
  const char* env = std::getenv(name);
  return (env && *env != '\0') ? env : nullptr;
}

double strict_stod(const std::string& v) {
  return parse_full<double>(v, [](const std::string& s, std::size_t* p) {
    return std::stod(s, p);
  });
}

long long parse_env_int(const char* name, long long fallback,
                        long long min_value, long long max_value) {
  const char* env = std::getenv(name);
  if (!env || *env == '\0') return fallback;
  long long v = 0;
  try {
    v = strict_stoll(env);
  } catch (const std::exception&) {
    log_warn(name, "=\"", env, "\" is not an integer; using default ", fallback);
    return fallback;
  }
  if (v < min_value || v > max_value) {
    log_warn(name, "=", v, " outside [", min_value, ", ", max_value,
             "]; using default ", fallback);
    return fallback;
  }
  return v;
}

std::size_t parse_size_bytes(const std::string& v) {
  std::string num = v;
  std::size_t mult = 1;
  // Longest suffix first so "mb" is not consumed as a bare "b" with a
  // dangling 'm'. Case-insensitive: both "512M" and "512m" are common.
  auto ends_with_ci = [&](const char* suffix) {
    const std::size_t n = std::char_traits<char>::length(suffix);
    if (v.size() < n) return false;
    for (std::size_t i = 0; i < n; ++i)
      if (std::tolower(static_cast<unsigned char>(v[v.size() - n + i])) != suffix[i])
        return false;
    return true;
  };
  struct Unit { const char* suffix; std::size_t mult; };
  static constexpr Unit kUnits[] = {
      {"kb", std::size_t{1} << 10}, {"mb", std::size_t{1} << 20},
      {"gb", std::size_t{1} << 30}, {"k", std::size_t{1} << 10},
      {"m", std::size_t{1} << 20},  {"g", std::size_t{1} << 30},
      {"b", 1},
  };
  for (const Unit& u : kUnits)
    if (ends_with_ci(u.suffix)) {
      num = v.substr(0, v.size() - std::char_traits<char>::length(u.suffix));
      mult = u.mult;
      break;
    }
  if (num.empty()) throw std::invalid_argument("empty size: \"" + v + "\"");
  const std::uint64_t base = strict_stoull(num);  // whole-token, rejects "-"
  if (base > std::numeric_limits<std::uint64_t>::max() / mult)
    throw std::out_of_range("size out of range: \"" + v + "\"");
  const std::uint64_t bytes = base * static_cast<std::uint64_t>(mult);
  if (bytes > std::numeric_limits<std::size_t>::max())
    throw std::out_of_range("size out of range: \"" + v + "\"");
  return static_cast<std::size_t>(bytes);
}

std::int64_t parse_duration_ms(const std::string& v) {
  std::string num = v;
  double scale = 1.0;
  bool fractional = false;
  if (v.size() >= 2 && v.compare(v.size() - 2, 2, "ms") == 0) {
    num = v.substr(0, v.size() - 2);
  } else if (!v.empty() && v.back() == 's') {
    num = v.substr(0, v.size() - 1);
    scale = 1000.0;
    fractional = true;  // "1.5s" is a natural spelling; "1.5ms" is not
  }
  if (num.empty()) throw std::invalid_argument("empty duration: \"" + v + "\"");
  std::int64_t ms = 0;
  if (fractional) {
    const double seconds = strict_stod(num);
    if (seconds < 0.0)
      throw std::invalid_argument("negative duration: \"" + v + "\"");
    const double as_ms = seconds * scale;
    if (as_ms > static_cast<double>(std::numeric_limits<std::int64_t>::max()))
      throw std::out_of_range("duration out of range: \"" + v + "\"");
    ms = static_cast<std::int64_t>(as_ms);
  } else {
    ms = strict_stoll(num);
    if (ms < 0) throw std::invalid_argument("negative duration: \"" + v + "\"");
  }
  return ms;
}

}  // namespace dynasparse
