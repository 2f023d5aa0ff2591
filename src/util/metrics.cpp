#include "util/metrics.hpp"

#include <sstream>

namespace dynasparse {

namespace {

void put_value(std::ostringstream& os, const Metrics::Metric& m) {
  std::visit([&os](auto v) { os << v; }, m.value);
}

}  // namespace

void Metrics::counter(std::string name, std::int64_t value) {
  list_.push_back({std::move(name), value});
}

void Metrics::gauge(std::string name, double value) {
  list_.push_back({std::move(name), value});
}

void Metrics::append(const Metrics& other) {
  list_.insert(list_.end(), other.list_.begin(), other.list_.end());
}

std::string Metrics::render_kv() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < list_.size(); ++i) {
    os << (i ? " " : "") << list_[i].name << '=';
    put_value(os, list_[i]);
  }
  return os.str();
}

std::string Metrics::render_json() const {
  std::ostringstream os;
  os << "{\n";
  for (std::size_t i = 0; i < list_.size(); ++i) {
    os << "  \"" << list_[i].name << "\": ";
    put_value(os, list_[i]);
    os << (i + 1 < list_.size() ? ",\n" : "\n");
  }
  os << "}\n";
  return os.str();
}

}  // namespace dynasparse
