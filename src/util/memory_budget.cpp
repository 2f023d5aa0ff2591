#include "util/memory_budget.hpp"

#include <algorithm>

namespace dynasparse {

bool MemoryBudget::Tier::charge(std::size_t bytes) {
  if (bytes == 0) return false;
  std::lock_guard<OrderedMutex> lk(owner_->mu_);
  bytes_ += static_cast<std::int64_t>(bytes);
  high_water_ = std::max(high_water_, bytes_);
  owner_->total_ += static_cast<std::int64_t>(bytes);
  owner_->high_water_ = std::max(owner_->high_water_, owner_->total_);
  return owner_->limit_ > 0 &&
         owner_->total_ > static_cast<std::int64_t>(owner_->limit_);
}

void MemoryBudget::Tier::credit(std::size_t bytes) {
  if (bytes == 0) return;
  std::lock_guard<OrderedMutex> lk(owner_->mu_);
  bytes_ -= static_cast<std::int64_t>(bytes);
  owner_->total_ -= static_cast<std::int64_t>(bytes);
}

void MemoryBudget::Tier::set_shrinker(std::function<void(std::size_t)> shrink) {
  std::lock_guard<OrderedMutex> lk(owner_->mu_);
  shrink_ = std::move(shrink);
}

std::int64_t MemoryBudget::Tier::bytes() const {
  std::lock_guard<OrderedMutex> lk(owner_->mu_);
  return bytes_;
}

MemoryBudget::~MemoryBudget() {
  // Move the callbacks out under the lock, destroy them after releasing
  // it: dropping a shrinker may run a captured cache's destructor, which
  // uncharges its tier and re-enters mu_.
  std::vector<std::function<void(std::size_t)>> dropped;
  {
    std::lock_guard<OrderedMutex> lk(mu_);
    dropped.reserve(tiers_.size());
    for (auto& tier : tiers_) dropped.push_back(std::move(tier->shrink_));
  }
}

std::shared_ptr<MemoryBudget::Tier> MemoryBudget::register_tier(std::string name,
                                                                double weight) {
  if (!(weight > 0.0)) weight = 1.0;
  std::lock_guard<OrderedMutex> lk(mu_);
  tiers_.push_back(std::shared_ptr<Tier>(
      new Tier(this, std::move(name), weight)));
  return tiers_.back();
}

std::vector<std::size_t> MemoryBudget::targets_locked() const {
  // Waterfill: tiers at or under their weighted share keep their bytes
  // (their target is what they hold), and the capacity they leave unused
  // is re-split among the still-over tiers by weight. Each round either
  // terminates or moves at least one tier to the "capped" side, so the
  // loop runs at most tiers_.size() rounds. Sum of targets == limit
  // exactly when every tier is over-share; <= limit otherwise.
  const std::size_t n = tiers_.size();
  std::vector<std::size_t> targets(n, 0);
  std::vector<bool> capped(n, false);
  for (;;) {
    double weight_sum = 0.0;
    std::int64_t capped_bytes = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (capped[i]) capped_bytes += tiers_[i]->bytes_;
      else weight_sum += tiers_[i]->weight_;
    }
    const std::int64_t remaining =
        std::max<std::int64_t>(0, static_cast<std::int64_t>(limit_) - capped_bytes);
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (capped[i]) continue;
      const auto share = static_cast<std::int64_t>(
          static_cast<double>(remaining) * tiers_[i]->weight_ / weight_sum);
      if (tiers_[i]->bytes_ <= share) {
        capped[i] = true;  // under-share: keeps its bytes, frees its slack
        changed = true;
      } else {
        targets[i] = static_cast<std::size_t>(share);
      }
    }
    if (!changed) break;
  }
  for (std::size_t i = 0; i < n; ++i)
    if (capped[i]) targets[i] = static_cast<std::size_t>(tiers_[i]->bytes_);
  return targets;
}

void MemoryBudget::rebalance() {
  if (limit_ == 0) return;
  for (int pass = 0; pass < 3; ++pass) {
    std::vector<std::pair<std::function<void(std::size_t)>, std::size_t>> work;
    std::int64_t before = 0;
    {
      std::lock_guard<OrderedMutex> lk(mu_);
      if (total_ <= static_cast<std::int64_t>(limit_)) {
        if (pass > 0) rebalancing_ = false;
        return;
      }
      if (pass == 0) {
        if (rebalancing_) return;  // coalesce: the running pass handles it
        rebalancing_ = true;
      }
      before = total_;
      ++rebalances_;
      std::vector<std::size_t> targets = targets_locked();
      // Reverse registration order: caches whose entries pin another
      // tier's values (cached programs holding pool operands) are
      // registered after that tier and must shrink first.
      for (std::size_t i = tiers_.size(); i-- > 0;) {
        Tier& t = *tiers_[i];
        if (t.shrink_ && t.bytes_ > static_cast<std::int64_t>(targets[i])) {
          ++t.shrinks_;
          work.emplace_back(t.shrink_, targets[i]);
        }
      }
    }
    for (auto& [shrink, target] : work) shrink(target);
    std::lock_guard<OrderedMutex> lk(mu_);
    if (work.empty() || total_ >= before) {  // no shrinkers or no progress
      rebalancing_ = false;
      return;
    }
  }
  std::lock_guard<OrderedMutex> lk(mu_);
  rebalancing_ = false;
}

std::int64_t MemoryBudget::total_bytes() const {
  std::lock_guard<OrderedMutex> lk(mu_);
  return total_;
}

MemoryBudgetStats MemoryBudget::stats() const {
  std::lock_guard<OrderedMutex> lk(mu_);
  MemoryBudgetStats out;
  out.limit_bytes = limit_;
  out.bytes = total_;
  out.high_water = high_water_;
  out.rebalances = rebalances_;
  out.tiers.reserve(tiers_.size());
  for (const auto& tier : tiers_) {
    MemoryTierStats ts;
    ts.name = tier->name_;
    ts.weight = tier->weight_;
    ts.bytes = tier->bytes_;
    ts.high_water = tier->high_water_;
    ts.shrinks = tier->shrinks_;
    out.tiers.push_back(std::move(ts));
  }
  return out;
}

}  // namespace dynasparse
