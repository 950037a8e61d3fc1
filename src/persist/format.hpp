#pragma once
// STCA artifact container: a versioned, CRC32C-checksummed envelope around
// an opaque payload. Every durable artifact in the tree (model weights,
// dataset shards, checkpoint manifests, the stco cost cache) uses this one
// layout, so corruption detection and version gating live in exactly one
// place.
//
// Layout (little-endian, fixed 28-byte header + 4-byte trailer):
//
//   offset  size  field
//        0     4  magic "STCA"
//        4     4  u32 container version (kContainerVersion)
//        8     4  u32 kind fourcc (see artifacts.hpp for the registry)
//       12     4  u32 schema version (per kind)
//       16     4  u32 reserved (0)
//       20     8  u64 payload size
//       28     n  payload bytes
//     28+n     4  u32 CRC32C over bytes [0, 28+n)
//
// read_artifact validates the envelope and maps every way it can be wrong
// to a LoadStatus — it never throws on bad input. Payload decoding uses
// PayloadReader, which throws PayloadError on overrun; typed loaders catch
// it and degrade to LoadStatus::kBadPayload.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/persist/storage.hpp"

namespace stco::persist {

inline constexpr std::uint32_t kContainerVersion = 1;
inline constexpr std::size_t kHeaderSize = 28;
inline constexpr std::size_t kTrailerSize = 4;

constexpr std::uint32_t fourcc(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

/// Thrown by PayloadReader on overrun / absurd length fields. Typed
/// loaders catch it and return LoadStatus::kBadPayload.
class PayloadError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only little-endian payload builder.
class PayloadWriter {
 public:
  void put_u8(std::uint8_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_f64(double v);
  void put_str(std::string_view s);             ///< u64 length + bytes
  void put_f64s(const std::vector<double>& v);  ///< u64 count + raw doubles

  const std::string& bytes() const { return bytes_; }
  std::string take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

/// Bounds-checked little-endian payload cursor. Every getter throws
/// PayloadError instead of reading past the end, and length-prefixed
/// getters validate the prefix against the remaining bytes before
/// allocating (a corrupt length field must not become a huge allocation).
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  double get_f64();
  std::string get_str();
  std::vector<double> get_f64s();

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool done() const { return pos_ == bytes_.size(); }

 private:
  void need(std::size_t n) const;
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// Wrap `payload` in the STCA envelope and write it atomically.
void write_artifact(Storage& storage, const std::string& path, std::uint32_t kind,
                    std::uint32_t schema, std::string_view payload);

struct ArtifactData {
  LoadStatus status = LoadStatus::kNotFound;
  std::uint32_t schema = 0;
  std::string payload;
};

/// Read and validate an artifact: size, magic, container version, kind,
/// CRC32C. Corruption-class statuses (see persist::corrupt) are counted
/// under persist.corrupt_artifacts. Never throws on bad input.
[[nodiscard]] ArtifactData read_artifact(Storage& storage, const std::string& path,
                                         std::uint32_t expected_kind);

/// read_artifact that also requires `expected_schema`: an artifact of any
/// other schema reads as kBadVersion (counted) and its payload is dropped.
[[nodiscard]] ArtifactData read_artifact(Storage& storage, const std::string& path,
                                         std::uint32_t expected_kind,
                                         std::uint32_t expected_schema);

/// Count one corrupt artifact detected after the envelope check passed
/// (payload-level decode failures in typed loaders).
void count_corrupt_artifact();

}  // namespace stco::persist
