#pragma once
// Resumable, sharded charlib dataset generation.
//
// The corner sweep is split into shards of consecutive corners and run
// through persist::build_sharded: each completed shard is a checksummed
// artifact recorded in an atomically rewritten manifest, and a rerun after
// an interruption (or crash) characterizes only what is missing. Because
// characterization is deterministic per corner and merged in grid order,
// the resumed dataset is bit-identical to an uninterrupted run. A shard or
// manifest that fails validation is rebuilt (counted under
// persist.corrupt_artifacts), never trusted.

#include <string>
#include <vector>

#include "src/charlib/dataset.hpp"
#include "src/persist/manifest.hpp"
#include "src/persist/storage.hpp"

namespace stco::charlib {

using persist::CheckpointOptions;

/// build_charlib_dataset with shard checkpointing. Identical output to the
/// plain builder for the same corners/opts; interruptions only cost the
/// unfinished shard.
std::vector<CharSample> build_charlib_dataset_resumable(
    const std::vector<compact::TechnologyPoint>& corners, const DatasetOptions& opts,
    const CheckpointOptions& ckpt, const exec::Context& ctx = exec::Context::serial());

using CharlibShardLoad = persist::Shard<CharSample, DatasetStats>;

/// Decode one shard artifact, whatever build it names (for tests and tools).
[[nodiscard]] CharlibShardLoad load_charlib_shard(persist::Storage& storage,
                                                  const std::string& path);

/// Configuration fingerprint: any change to corners or options invalidates
/// existing checkpoints instead of resuming into a different dataset.
std::uint64_t charlib_dataset_fingerprint(
    const std::vector<compact::TechnologyPoint>& corners, const DatasetOptions& opts,
    std::size_t shard_size);

}  // namespace stco::charlib
