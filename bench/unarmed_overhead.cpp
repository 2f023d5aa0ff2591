// Unarmed-overhead bench: the two instrumentation layers on every
// request's path must cost next to nothing while they are off.
//
//   - fault_point() on a disarmed injector (util/fault_injection.hpp) is
//     one relaxed atomic load and a branch;
//   - OrderedMutex (util/ordered_mutex.hpp) with the lock-order checker
//     compiled out inlines to the std::mutex it wraps.
//
// Gate, per layer: 10k calls per request — an order of magnitude above
// any request in the serving mix, whose kernel count tops out in the
// hundreds — must cost under 1% of mean request latency. The latency is
// the wall time of the warm 16-request synthetic stream
// (service/request_stream.hpp) divided by 16. Every timing is the best of
// 3 runs. The exit code is 1 if a gate fails.
//
// With the checker armed (the default build) each acquisition does real
// bookkeeping, so the OrderedMutex cost is printed but not gated:
// configure with -DDYNASPARSE_LOCK_ORDER_CHECK=OFF to gate it.
//
//   unarmed_overhead

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <vector>

#include "bench_common.hpp"
#include "service/request_stream.hpp"
#include "util/fault_injection.hpp"
#include "util/ordered_mutex.hpp"

using namespace dynasparse;

namespace {

constexpr int kReps = 3;

/// Mean wall time per request of the 16-request synthetic stream, served
/// from a warm compilation cache.
double mean_request_ms() {
  std::vector<ServiceRequest> pool;
  for (const StreamRequestSpec& spec : synthetic_stream(16, 2023))
    pool.push_back(materialize_request(spec));
  ServiceOptions opts;
  opts.cache_capacity = pool.size();
  InferenceService service(opts);
  for (const ServiceRequest& req : pool)
    service.cache().get_or_compile(req.compile_key(), *req.model,
                                   *req.dataset, req.options.config);
  const double best_ms = bench::time_best_of_ms(kReps, [&] {
    std::vector<RequestId> ids;
    for (const ServiceRequest& req : pool) ids.push_back(service.submit(req));
    for (RequestId id : ids) (void)service.wait(id);
  });
  return best_ms / static_cast<double>(pool.size());
}

/// The cost of 10k calls of `ns_per_call` as a percentage of `request_ms`.
double pct_at_10k_calls(double ns_per_call, double request_ms) {
  return 10000.0 * ns_per_call / 1e6 / request_ms * 100.0;
}

}  // namespace

int main() {
  const double request_ms = mean_request_ms();
  std::printf("mean request latency (warm 16-request stream): %.3f ms\n",
              request_ms);

  constexpr std::int64_t kCalls = 20000000;
  std::int64_t fired = 0;  // keeps the loop observable; stays 0 disarmed
  const double fault_ns = bench::time_best_of_ms(kReps, [&] {
    for (std::int64_t i = 0; i < kCalls; ++i)
      if (fault_point(kFaultRuntimeKernelFault)) ++fired;
  }) * 1e6 / static_cast<double>(kCalls);
  const double fault_pct = pct_at_10k_calls(fault_ns, request_ms);
  const bool fault_ok = fired == 0 && fault_pct < 1.0;
  std::printf("unarmed fault_point: %.2f ns/call, 10k calls = %.3f%% of "
              "mean request latency: %s\n",
              fault_ns, fault_pct, fault_ok ? "ok" : "FAIL (>= 1%)");

  constexpr std::int64_t kLocks = 5000000;
  std::mutex plain;
  OrderedMutex ordered(LockRank::kMemoryBudget);
  std::int64_t sink = 0;  // observable work under each lock
  auto lock_loop_ms = [&](auto& mu) {
    return bench::time_best_of_ms(kReps, [&] {
      for (std::int64_t i = 0; i < kLocks; ++i) {
        mu.lock();
        ++sink;
        mu.unlock();
      }
    });
  };
  const double plain_ms = lock_loop_ms(plain);
  const double ordered_ms = lock_loop_ms(ordered);
  const double lock_ns = std::max(
      0.0, (ordered_ms - plain_ms) * 1e6 / static_cast<double>(kLocks));
  const double lock_pct = pct_at_10k_calls(lock_ns, request_ms);
  const bool armed = DYNASPARSE_LOCK_CHECK_ACTIVE != 0;
  const bool lock_ok =
      armed || (sink == 2 * kReps * kLocks && lock_pct < 1.0);
  std::printf("OrderedMutex (%s): +%.2f ns/lock over std::mutex, 10k locks = "
              "%.3f%% of mean request latency: %s\n",
              armed ? "armed, not gated" : "unarmed, gated", lock_ns, lock_pct,
              lock_ok ? "ok" : "FAIL (>= 1%)");
  return fault_ok && lock_ok ? 0 : 1;
}
