#pragma once
// Resumable, sharded TCAD population generation.
//
// Shard i's devices derive from the independent master seed
// numeric::mix_seed(seed, i) — a shard is a pure function of
// (seed, shard index, options), so a run interrupted after K shards and
// resumed produces exactly the population an uninterrupted sharded run
// would have. (Because drop-and-redraw consumes attempt indices greedily,
// the sharded population is not sample-for-sample identical to the
// unsharded generate_population stream; it is drawn from the same
// distribution and is deterministic in its own right.)
//
// Shards run through persist::build_sharded: completed shards are
// checksummed artifacts tracked by an atomically rewritten manifest;
// corrupt shards are rebuilt, never trusted.

#include <cstdint>
#include <string>
#include <vector>

#include "src/persist/manifest.hpp"
#include "src/persist/storage.hpp"
#include "src/surrogate/dataset.hpp"

namespace stco::surrogate {

using persist::CheckpointOptions;

/// generate_population with shard checkpointing (see file comment for the
/// determinism contract). ckpt.shard_size counts devices per shard.
std::vector<DeviceSample> generate_population_resumable(
    std::size_t count, std::uint64_t seed, const PopulationOptions& opts,
    const CheckpointOptions& ckpt, const exec::Context& ctx = exec::Context::serial());

using SurrogateShardLoad = persist::Shard<DeviceSample, PopulationStats>;

/// Shard artifact codec (for tests and tools). The standalone save writes
/// an empty header (fingerprint 0, shard 0); the load accepts any header.
void save_surrogate_shard(persist::Storage& storage, const std::string& path,
                          const std::vector<DeviceSample>& samples,
                          const PopulationStats& stats);
[[nodiscard]] SurrogateShardLoad load_surrogate_shard(persist::Storage& storage,
                                                      const std::string& path);

/// Configuration fingerprint over (count, seed, generation options).
std::uint64_t population_fingerprint(std::size_t count, std::uint64_t seed,
                                     const PopulationOptions& opts,
                                     std::size_t shard_size);

}  // namespace stco::surrogate
