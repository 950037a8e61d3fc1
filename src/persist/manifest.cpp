#include "src/persist/manifest.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/persist/artifacts.hpp"

namespace stco::persist {

namespace {
constexpr std::uint32_t kManifestSchema = 2;
}  // namespace

void Fingerprint::add_bytes(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    hash_ ^= p[i];
    hash_ *= 0x100000001B3ULL;
  }
}

Fingerprint& Fingerprint::add_u64(std::uint64_t v) {
  add_bytes(&v, sizeof(v));
  return *this;
}

Fingerprint& Fingerprint::add_f64(double v) {
  add_bytes(&v, sizeof(v));
  return *this;
}

Fingerprint& Fingerprint::add_str(std::string_view s) {
  add_u64(s.size());
  add_bytes(s.data(), s.size());
  return *this;
}

bool Manifest::has(std::uint32_t index) const {
  return std::find(completed.begin(), completed.end(), index) != completed.end();
}

void save_manifest(Storage& storage, const std::string& path, const Manifest& m) {
  PayloadWriter w;
  w.put_str(m.dataset_kind);
  w.put_u64(m.fingerprint);
  w.put_u32(m.num_shards);
  w.put_u64(m.completed.size());
  for (std::uint32_t index : m.completed) w.put_u32(index);
  write_artifact(storage, path, kind::kManifest, kManifestSchema, w.bytes());
}

LoadStatus load_manifest(Storage& storage, const std::string& path, Manifest& out) {
  const ArtifactData art = read_artifact(storage, path, kind::kManifest, kManifestSchema);
  if (!ok(art.status)) return art.status;
  try {
    PayloadReader r(art.payload);
    out.dataset_kind = r.get_str();
    out.fingerprint = r.get_u64();
    out.num_shards = r.get_u32();
    const std::uint64_t n = r.get_u64();
    out.completed.clear();
    out.completed.reserve(n > 4096 ? 4096 : static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint32_t index = r.get_u32();
      if (index >= out.num_shards) throw PayloadError("manifest: shard index out of range");
      out.completed.push_back(index);
    }
    if (!r.done()) throw PayloadError("manifest: trailing bytes");
  } catch (const PayloadError&) {
    count_corrupt_artifact();
    return LoadStatus::kBadPayload;
  }
  return LoadStatus::kOk;
}

namespace detail {

Manifest resume_manifest(const CheckpointOptions& ckpt, Storage& storage,
                         std::string_view kind, std::uint64_t fingerprint,
                         std::size_t items) {
  if (ckpt.dir.empty()) throw std::invalid_argument("build_sharded: empty dir");
  if (ckpt.shard_size == 0) throw std::invalid_argument("build_sharded: shard_size 0");
  storage.create_directories(ckpt.dir);
  const auto num_shards =
      static_cast<std::uint32_t>((items + ckpt.shard_size - 1) / ckpt.shard_size);
  Manifest m;
  if (ok(load_manifest(storage, manifest_path(ckpt), m)) && m.dataset_kind == kind &&
      m.fingerprint == fingerprint && m.num_shards == num_shards)
    return m;
  // Missing, corrupt, or from a different configuration: start fresh.
  return Manifest{std::string(kind), fingerprint, num_shards, {}};
}

}  // namespace detail

}  // namespace stco::persist
