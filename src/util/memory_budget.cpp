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

std::shared_ptr<MemoryBudget::Tier> MemoryBudget::register_tier(std::string name) {
  std::lock_guard<OrderedMutex> lk(mu_);
  tiers_.push_back(std::shared_ptr<Tier>(new Tier(this, std::move(name))));
  return tiers_.back();
}

void MemoryBudget::rebalance() {
  if (limit_ == 0) return;
  const auto limit = static_cast<std::int64_t>(limit_);
  std::unique_lock<OrderedMutex> lk(mu_);
  if (total_ <= limit) return;
  ++rebalances_;
  // Last-registered first: the holders shrink before the tiers they pin.
  // tiers_ only grows, so an index stays valid across the unlocked calls.
  for (std::size_t i = tiers_.size(); i-- > 0 && total_ > limit;) {
    Tier& t = *tiers_[i];
    if (!t.shrink_ || t.bytes_ <= 0) continue;
    const auto target =
        static_cast<std::size_t>(std::max<std::int64_t>(0, t.bytes_ - (total_ - limit)));
    ++t.shrinks_;
    std::function<void(std::size_t)> shrink = t.shrink_;
    lk.unlock();
    shrink(target);
    lk.lock();
  }
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
    ts.bytes = tier->bytes_;
    ts.high_water = tier->high_water_;
    ts.shrinks = tier->shrinks_;
    out.tiers.push_back(std::move(ts));
  }
  return out;
}

}  // namespace dynasparse
