#pragma once
// Metrics — an ordered list of named numbers, the one form in which the
// serving stack reports what it counts. InferenceService::metrics() and
// NetServer::metrics() build the lists next to the stats they read;
// every output (the wire STATS_REPLY, dynasparse_serve's `stats:` line
// and its --json file) renders one, so which counters exist and what
// they are called is decided where the stats are kept, never where they
// are printed.
//
// A counter is an integer and always prints as one (pool_bytes=30207552,
// never 3.02e+07); a gauge is a double and prints in the stream's default
// notation. Names are lowercase identifiers, unique within one list.

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace dynasparse {

class Metrics {
 public:
  struct Metric {
    std::string name;
    std::variant<std::int64_t, double> value;  // counter or gauge
  };

  void counter(std::string name, std::int64_t value);
  void gauge(std::string name, double value);
  /// Append every metric of `other`, in order.
  void append(const Metrics& other);

  const std::vector<Metric>& list() const { return list_; }

  /// `name=value` tokens separated by single spaces.
  std::string render_kv() const;
  /// A JSON object with one `"name": value` member per line.
  std::string render_json() const;

 private:
  std::vector<Metric> list_;
};

}  // namespace dynasparse
