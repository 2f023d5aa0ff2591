// Fixture net file: a stats output typed by hand instead of rendered
// from a Metrics list. One literal of each kind is flagged and one is
// waived; a name handed to a list, a comparison inside a message, an
// upper-case environment name and a char literal stay quiet.
#include <ostream>

namespace fixture {

void render(std::ostream& os, long hits, long misses) {
  os << " cache_hits=" << hits;
  os << "  \"cache_misses\": " << misses << ",\n";
  os << " legacy_hits=" << hits;  // dynasparse-lint: allow(stats-keys)
}

void quiet(std::ostream& os, void (*counter)(const char*, long)) {
  counter("cache_hits", 1);
  os << "limit must be >= 0, and a == b" << '"';
  os << "DYNASPARSE_FAULT_SPEC=";
}

}  // namespace fixture
