#pragma once
// Sharded, resumable dataset builds: the checkpoint manifest and the one
// driver (build_sharded) every sharded generator runs through.
//
// A generator splits its work into deterministic shards, writes each shard
// as its own artifact, and after every completed shard atomically rewrites
// a manifest recording what is done. A resumed run loads the manifest,
// verifies it matches the requested configuration (fingerprint) and that
// every recorded shard artifact still validates, then generates only what
// is missing. Because each shard is a pure function of (configuration,
// shard index) — the stream_rng scheme for random draws — the resumed
// result is bit-identical to an uninterrupted run.
//
// Shard payload (schema 2): u64 configuration fingerprint, u32 shard index,
// u64 sample count, the samples, then the shard's stats. A shard whose
// header names another configuration or index — e.g. shard 0's file copied
// over shard 1's, which the checksum cannot catch — is corrupt and rebuilt.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/progress.hpp"
#include "src/persist/format.hpp"
#include "src/persist/storage.hpp"

namespace stco::persist {

/// Where and how to checkpoint a sharded dataset build.
struct CheckpointOptions {
  std::string dir;             ///< checkpoint directory (created if missing)
  std::size_t shard_size = 8;  ///< items per shard (corners / devices)
  /// Storage override; null = default_storage(). Tests inject a Storage
  /// wired to a FaultInjector here.
  Storage* storage = nullptr;
};

/// FNV-1a accumulator over the configuration that determines a dataset's
/// content. Any change to seed, sizes, or physics options changes the
/// fingerprint, which invalidates old checkpoints instead of silently
/// resuming into a different dataset.
class Fingerprint {
 public:
  Fingerprint& add_u64(std::uint64_t v);
  Fingerprint& add_f64(double v);
  Fingerprint& add_str(std::string_view s);
  std::uint64_t value() const { return hash_; }

 private:
  void add_bytes(const void* data, std::size_t len);
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

struct Manifest {
  std::string dataset_kind;              ///< "charlib" / "surrogate"
  std::uint64_t fingerprint = 0;         ///< config fingerprint (see Fingerprint)
  std::uint32_t num_shards = 0;
  std::vector<std::uint32_t> completed;  ///< indices of the shards on disk

  bool has(std::uint32_t index) const;
};

void save_manifest(Storage& storage, const std::string& path, const Manifest& m);

/// Corrupt or version-skewed manifests degrade to their LoadStatus; the
/// caller restarts generation from scratch (counted, not fatal).
[[nodiscard]] LoadStatus load_manifest(Storage& storage, const std::string& path,
                                       Manifest& out);

/// What a shard payload records about where it came from.
struct ShardHeader {
  std::uint64_t fingerprint = 0;
  std::uint32_t index = 0;
  bool operator==(const ShardHeader&) const = default;
};

/// One shard's content, or the outcome of decoding it from disk.
template <typename Sample, typename Stats>
struct Shard {
  LoadStatus status = LoadStatus::kNotFound;
  std::vector<Sample> samples;
  Stats stats;  ///< this shard's accounting
};

/// The items [begin, end) of the whole build that shard `index` covers.
struct ShardRange {
  std::uint32_t index = 0;
  std::size_t begin = 0, end = 0;
};

// A shard codec names one dataset kind and encodes its samples:
//   using Sample = ...; using Stats = ...;     // Stats has merge(const Stats&)
//   static constexpr const char* kName;        // manifest kind, shard file prefix
//   static constexpr std::uint32_t kArtifact;  // STCA kind of its shards
//   static constexpr const char* kProgress;    // task advanced for loaded shards
//   static constexpr bool kProgressPerSample;  // its unit: a sample, else an item
//   static void put(PayloadWriter&, const Sample&);
//   static Sample get(PayloadReader&);         // throws PayloadError
//   static void put_stats(PayloadWriter&, const Stats&);
//   static Stats get_stats(PayloadReader&);    // throws PayloadError
template <typename Codec>
using ShardOf = Shard<typename Codec::Sample, typename Codec::Stats>;

inline constexpr std::uint32_t kShardSchema = 2;

template <typename Codec>
void save_shard(Storage& storage, const std::string& path, const ShardHeader& header,
                const std::vector<typename Codec::Sample>& samples,
                const typename Codec::Stats& stats) {
  PayloadWriter w;
  w.put_u64(header.fingerprint);
  w.put_u32(header.index);
  w.put_u64(samples.size());
  for (const auto& s : samples) Codec::put(w, s);
  Codec::put_stats(w, stats);
  write_artifact(storage, path, Codec::kArtifact, kShardSchema, w.bytes());
}

/// Decode a shard artifact; never throws on bad input. Bytes left after the
/// stats, or (given `expect`) a header naming another configuration or
/// index, make the shard corrupt: counted, kBadPayload.
template <typename Codec>
[[nodiscard]] ShardOf<Codec> load_shard(Storage& storage, const std::string& path,
                                        const ShardHeader* expect = nullptr) {
  ShardOf<Codec> out;
  const ArtifactData art = read_artifact(storage, path, Codec::kArtifact, kShardSchema);
  out.status = art.status;
  if (!ok(art.status)) return out;
  try {
    PayloadReader r(art.payload);
    ShardHeader header;
    header.fingerprint = r.get_u64();
    header.index = r.get_u32();
    if (expect && header != *expect) throw PayloadError("shard: from another build");
    const std::uint64_t n = r.get_u64();
    for (std::uint64_t i = 0; i < n; ++i) out.samples.push_back(Codec::get(r));
    out.stats = Codec::get_stats(r);
    if (!r.done()) throw PayloadError("shard: trailing bytes");
  } catch (const PayloadError&) {
    count_corrupt_artifact();
    out = ShardOf<Codec>{};
    out.status = LoadStatus::kBadPayload;
  }
  return out;
}

namespace detail {

/// The manifest a sharded build resumes from: the one on disk when it
/// names this kind, fingerprint and shard count, else a fresh one. Checks
/// the options and creates the checkpoint directory first.
Manifest resume_manifest(const CheckpointOptions& ckpt, Storage& storage,
                         std::string_view kind, std::uint64_t fingerprint,
                         std::size_t items);

inline std::string manifest_path(const CheckpointOptions& ckpt) {
  return ckpt.dir + "/manifest.stca";
}

inline std::string shard_path(const CheckpointOptions& ckpt, std::string_view kind,
                              std::uint32_t index) {
  std::string path = ckpt.dir;
  path.append("/").append(kind).append("-shard-");
  return path.append(std::to_string(index)).append(".stca");
}

}  // namespace detail

/// Build `items` work items (corners, devices, ...) in shards of
/// ckpt.shard_size through a checkpoint directory: each shard recorded in
/// the manifest is loaded, every other one (or one that fails to load) is
/// built by `build(const ShardRange&, Stats&)` -> std::vector<Sample>,
/// written, and recorded. Samples concatenate in shard order; each shard's
/// stats are merged into `*stats` when non-null. A write that throws
/// (e.g. persist::CrashError) leaves every earlier shard resumable.
template <typename Codec, typename Build>
std::vector<typename Codec::Sample> build_sharded(const CheckpointOptions& ckpt,
                                                  std::uint64_t fingerprint,
                                                  std::size_t items, Build&& build,
                                                  typename Codec::Stats* stats) {
  static obs::Counter& c_loaded = obs::counter("persist.shards_loaded");
  static obs::Counter& c_built = obs::counter("persist.shards_built");
  Storage& storage = ckpt.storage ? *ckpt.storage : default_storage();
  Manifest manifest =
      detail::resume_manifest(ckpt, storage, Codec::kName, fingerprint, items);

  std::vector<typename Codec::Sample> out;
  typename Codec::Stats total{};
  for (std::uint32_t i = 0; i < manifest.num_shards; ++i) {
    const std::size_t begin = i * ckpt.shard_size;
    const ShardRange range{i, begin, std::min(begin + ckpt.shard_size, items)};
    const ShardHeader header{fingerprint, i};
    const std::string path = detail::shard_path(ckpt, Codec::kName, i);
    ShardOf<Codec> shard;
    if (manifest.has(i)) {
      shard = load_shard<Codec>(storage, path, &header);
      if (ok(shard.status)) {
        // Loaded shards count into the same cumulative progress task the
        // build callback advances for built ones, so a resumed run's
        // done/total covers the whole dataset.
        const std::size_t units = Codec::kProgressPerSample ? shard.samples.size()
                                                            : range.end - range.begin;
        obs::ProgressTask& prog = obs::progress(Codec::kProgress);
        prog.add_work(units);
        prog.advance(units);
        c_loaded.add(1);
      } else {
        std::erase(manifest.completed, i);  // unreadable: rebuild below
      }
    }
    if (!ok(shard.status)) {
      shard.samples = build(range, shard.stats);
      save_shard<Codec>(storage, path, header, shard.samples, shard.stats);
      manifest.completed.push_back(i);
      save_manifest(storage, detail::manifest_path(ckpt), manifest);
      c_built.add(1);
    }
    out.insert(out.end(), std::make_move_iterator(shard.samples.begin()),
               std::make_move_iterator(shard.samples.end()));
    total.merge(shard.stats);
  }
  if (stats) stats->merge(total);
  return out;
}

}  // namespace stco::persist
