#include "util/fault_injection.hpp"

#include <cstdlib>
#include <functional>

#include "util/strict_parse.hpp"

namespace dynasparse {

const std::vector<std::string>& fault_site_names() {
  static const std::vector<std::string> kNames = {
      kFaultCompileAlloc, kFaultQueueDelay, kFaultRuntimeKernelFault,
      kFaultNetAccept,    kFaultNetRead,
  };
  return kNames;
}

namespace {

bool known_site(const std::string& name) {
  for (const std::string& s : fault_site_names())
    if (s == name) return true;
  return false;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

}  // namespace

FaultSpec parse_fault_spec(const std::string& spec) {
  FaultSpec out;
  if (spec.empty()) return out;
  for (const std::string& entry : split(spec, ',')) {
    if (entry.empty())
      throw std::invalid_argument("fault spec: empty entry in \"" + spec + "\"");
    std::vector<std::string> fields = split(entry, ':');
    if (fields[0] == "seed") {
      if (fields.size() != 2)
        throw std::invalid_argument("fault spec: expected seed:N, got \"" +
                                    entry + "\"");
      out.seed = strict_stoull(fields[1]);
      continue;
    }
    if (fields.size() < 2 || fields.size() > 3)
      throw std::invalid_argument(
          "fault spec: expected site:probability[:count], got \"" + entry + "\"");
    if (!known_site(fields[0]))
      throw std::invalid_argument("fault spec: unknown site \"" + fields[0] +
                                  "\"");
    FaultSiteSpec site;
    site.site = fields[0];
    site.probability = strict_stod(fields[1]);
    if (site.probability < 0.0 || site.probability > 1.0)
      throw std::invalid_argument("fault spec: probability " + fields[1] +
                                  " outside [0, 1] for site " + site.site);
    if (fields.size() == 3) {
      site.count = strict_stoll(fields[2]);
      if (site.count < 0)
        throw std::invalid_argument("fault spec: negative count for site " +
                                    site.site);
    }
    out.sites.push_back(std::move(site));
  }
  return out;
}

void FaultInjector::arm(const FaultSpec& spec) {
  std::lock_guard<OrderedMutex> lk(mu_);
  sites_.clear();
  order_.clear();
  for (const FaultSiteSpec& s : spec.sites) {
    Site site;
    site.spec = s;
    // Per-site RNG seeded from (spec seed, site name): the k-th draw of a
    // site is fixed regardless of how other sites or threads interleave.
    site.rng.seed(spec.seed ^ std::hash<std::string>{}(s.site));
    if (sites_.emplace(s.site, std::move(site)).second)
      order_.push_back(s.site);
  }
  armed_.store(!sites_.empty(), std::memory_order_relaxed);
  if (is_global_)
    detail::g_global_fault_armed.store(!sites_.empty(),
                                       std::memory_order_relaxed);
}

bool FaultInjector::should_inject(const std::string& site) {
  if (pause_depth_.load(std::memory_order_relaxed) > 0) return false;
  std::lock_guard<OrderedMutex> lk(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end()) return false;
  Site& s = it->second;
  ++s.stats.evaluations;
  if (s.spec.count >= 0 && s.stats.injected >= s.spec.count) return false;
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  if (dist(s.rng) >= s.spec.probability) return false;
  ++s.stats.injected;
  return true;
}

FaultSiteStats FaultInjector::site_stats(const std::string& site) const {
  std::lock_guard<OrderedMutex> lk(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? FaultSiteStats{} : it->second.stats;
}

std::vector<std::pair<std::string, FaultSiteStats>> FaultInjector::all_stats()
    const {
  std::lock_guard<OrderedMutex> lk(mu_);
  std::vector<std::pair<std::string, FaultSiteStats>> out;
  out.reserve(order_.size());
  for (const std::string& name : order_)
    out.emplace_back(name, sites_.at(name).stats);
  return out;
}

FaultInjector& FaultInjector::global() {
  static FaultInjector* injector = [] {
    auto* g = new FaultInjector();  // leaked: outlives every static user
    g->is_global_ = true;
    const char* env = env_text("DYNASPARSE_FAULT_SPEC");
    g->arm(env ? parse_fault_spec(env) : FaultSpec{});
    return g;
  }();
  return *injector;
}

bool detail::global_should_inject(const char* site) {
  FaultInjector& g = FaultInjector::global();
  return g.armed() && g.should_inject(site);
}

}  // namespace dynasparse
