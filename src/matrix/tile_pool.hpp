#pragma once
// TilePool — dataset-keyed shared pool of reorganized operands.
//
// Every CompiledProgram carries partitioned copies of its dataset's
// operands: the adjacency operator(s) reorganized into N1 x N1 tiles and
// the feature matrix H0 into N1 x N2 tiles. These are immutable once
// built (the compiler profiles them and the runtime only reads), and two
// programs compiled from the same dataset under the same partition
// geometry produce bit-identical tiles — `from_csr`/`from_coo` are pure
// functions of (operand bytes, n1, n2, threshold). Yet before this pool
// each cached program held private copies, so the resident footprint of
// the compilation cache grew with cached *programs* instead of with
// distinct *datasets* (a GCN and a GraphSAGE variant over Citeseer
// duplicated every Citeseer tile).
//
// The pool fixes that: compilation routes operand materialization
// through get_or_build(key, build) where the key is
//
//   (dataset_signature, geometry_signature, operand_signature)
//
// - dataset_signature: content hash of the dataset (spec + CSR arrays +
//   feature nonzeros, src/compiler/signature.hpp) — equal signatures
//   mean byte-equal source operands;
// - geometry_signature: hash of everything that shapes the partitioned
//   result (n1, n2, sparse_storage_threshold bits) — the plan fields
//   that change tile content;
// - operand_signature: which operand of the dataset this is (h0, or an
//   adjacency operator hashed over AdjKind + epsilon bits).
//
// Equal keys therefore guarantee bit-identical `PartitionedMatrix`
// payloads, which is what makes handing the same shared_ptr to many
// programs safe under the determinism contract (fingerprint-verified in
// tests/tile_pool_test.cpp).
//
// The pool is a KeyedFutureCache (util/keyed_future_cache.hpp) and takes
// its in-flight dedup, cancelled-leader hand-off, failure semantics and
// held-entry rule from it: a pooled operand referenced by a live
// CompiledProgram is never evicted, since the next program compiled from
// that dataset would otherwise rebuild — and re-account — bytes that are
// still resident. An entry only leaves once every program holding it has
// itself been evicted. That is also why the pool registers FIRST with the
// MemoryBudget: the budget shrinks tiers in reverse registration order,
// so the program caches drop their references before the pool is asked
// to free the now-unheld tiles. The pool alone keeps an operand heavier
// than the whole budget (Oversize::kKeep): programs do not count the
// operands they take from the pool, so a dropped one would be held but
// counted nowhere.
//
// capacity 0 disables pooling: every call runs `build` privately, which
// keeps the pool-off baseline measurable through the same call sites.

#include <cstdint>
#include <functional>
#include <memory>
#include <tuple>
#include <utility>

#include "matrix/partitioned_matrix.hpp"
#include "util/keyed_future_cache.hpp"
#include "util/memory_budget.hpp"

namespace dynasparse {

using TilePoolStats = KeyedCacheStats;

class TilePool {
 public:
  /// (dataset, geometry, operand) — see file comment for what each
  /// component must hash so equal keys imply bit-identical payloads.
  struct Key {
    std::uint64_t dataset_sig = 0;
    std::uint64_t geometry_sig = 0;
    std::uint64_t operand_sig = 0;
    bool operator<(const Key& o) const {
      return std::tie(dataset_sig, geometry_sig, operand_sig) <
             std::tie(o.dataset_sig, o.geometry_sig, o.operand_sig);
    }
  };

  using Builder = std::function<PartitionedMatrix()>;

  /// `max_entries` 0 disables pooling (every call builds privately).
  /// `tier` (optional) charges resident bytes to the shared budget, which
  /// then drives shrink_to_bytes.
  explicit TilePool(std::size_t max_entries,
                    std::shared_ptr<MemoryBudget::Tier> tier = nullptr)
      : impl_(max_entries,
              [](const PartitionedMatrix& m) {
                return m.approx_footprint_bytes();
              },
              std::move(tier), LockRank::kTilePool, Oversize::kKeep) {}

  /// Return the pooled operand for `key`, running `build` at most once
  /// per key, with KeyedFutureCache::get_or_make's join, failure and
  /// abort semantics. The returned shared_ptr is the pin: the entry
  /// stays resident while any caller (or program) holds it.
  std::shared_ptr<const PartitionedMatrix> get_or_build(const Key& key,
                                                        const Builder& build) {
    return impl_.get_or_make(key, [&] {
      return std::make_shared<const PartitionedMatrix>(build());
    });
  }

  /// Evict unheld ready entries, LRU first, until resident bytes are at
  /// most `target` (what the budget's shrinker runs); held entries are
  /// skipped and counted in stats().pinned_skips.
  void shrink_to_bytes(std::size_t target) { impl_.shrink_to_bytes(target); }

  TilePoolStats stats() const { return impl_.stats(); }
  std::size_t max_entries() const { return impl_.max_entries(); }

 private:
  KeyedFutureCache<Key, PartitionedMatrix> impl_;
};

}  // namespace dynasparse
