// Fixture cache file: a reuse tier growing its own fill protocol instead
// of wrapping KeyedFutureCache. Two qualified uses are flagged, one is
// waived by annotation; prose, strings and unrelated identifiers named
// `promise` stay quiet.
#include <future>

namespace fixture {

struct OwnCache {
  std::promise<int> fill;             // flagged
  std::shared_future<int> pending;    // flagged
  std::shared_future<int> legacy;     // dynasparse-lint: allow(cache-core)
  int promise = 0;                    // an identifier, not std::promise
  const char* note = "std::promise";  // a string, not code
};

}  // namespace fixture
