#include "service/compilation_cache.hpp"

namespace dynasparse {

CompiledProgram CompilationCache::compile_miss(const GnnModel& model,
                                               const Dataset& ds,
                                               const SimConfig& cfg,
                                               const CancellationToken& token,
                                               std::uint64_t dataset_sig) const {
  OperandSource operands;
  operands.pool = pool_.get();
  operands.dataset_sig = dataset_sig;
  return plans_ ? plans_->compile_seeded(model, ds, cfg, token, operands)
                : compile(model, ds, cfg, token, operands);
}

std::shared_ptr<const CompiledProgram> CompilationCache::get_or_compile(
    const GnnModel& model, const Dataset& ds, const SimConfig& cfg,
    const CancellationToken& token) {
  if (impl_.max_entries() == 0) {
    // No storage, no key needed: skip the content hash (it walks every
    // weight bit and graph index) and go straight to the compiler. The
    // dummy key is never stored. With a pool attached the dataset hash
    // IS needed (it keys the pool) — still cheaper than the full
    // CompileKey, which additionally walks every weight bit.
    const std::uint64_t ds_sig =
        pool_ && pool_->max_entries() > 0 ? dataset_signature(ds) : 0;
    return impl_.get_or_make(CompileKey{}, [&] {
      return std::make_shared<const CompiledProgram>(
          compile_miss(model, ds, cfg, token, ds_sig));
    });
  }
  return get_or_compile(make_compile_key(model, ds, cfg),  // hash outside the lock
                        model, ds, cfg, token);
}

std::shared_ptr<const CompiledProgram> CompilationCache::get_or_compile(
    const CompileKey& key, const GnnModel& model, const Dataset& ds,
    const SimConfig& cfg, const CancellationToken& token) {
  return impl_.get_or_make(key, [&] {
    return std::make_shared<const CompiledProgram>(
        compile_miss(model, ds, cfg, token, key.dataset));
  });
}

}  // namespace dynasparse
