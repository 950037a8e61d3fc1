#include "src/persist/format.hpp"

#include <cstring>

#include "src/obs/obs.hpp"
#include "src/persist/crc32c.hpp"

namespace stco::persist {

namespace {

constexpr char kMagic[4] = {'S', 'T', 'C', 'A'};

template <typename T>
void append_pod(std::string& out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.append(buf, sizeof(T));
}

template <typename T>
T read_pod(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

}  // namespace

void PayloadWriter::put_u8(std::uint8_t v) { append_pod(bytes_, v); }
void PayloadWriter::put_u32(std::uint32_t v) { append_pod(bytes_, v); }
void PayloadWriter::put_u64(std::uint64_t v) { append_pod(bytes_, v); }
void PayloadWriter::put_f64(double v) { append_pod(bytes_, v); }

void PayloadWriter::put_str(std::string_view s) {
  put_u64(s.size());
  bytes_.append(s.data(), s.size());
}

void PayloadWriter::put_f64s(const std::vector<double>& v) {
  put_u64(v.size());
  bytes_.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(double));
}

void PayloadReader::need(std::size_t n) const {
  if (remaining() < n) throw PayloadError("persist: payload overrun");
}

std::uint8_t PayloadReader::get_u8() {
  need(1);
  return static_cast<std::uint8_t>(bytes_[pos_++]);
}

std::uint32_t PayloadReader::get_u32() {
  need(4);
  const auto v = read_pod<std::uint32_t>(bytes_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t PayloadReader::get_u64() {
  need(8);
  const auto v = read_pod<std::uint64_t>(bytes_.data() + pos_);
  pos_ += 8;
  return v;
}

double PayloadReader::get_f64() {
  need(8);
  const auto v = read_pod<double>(bytes_.data() + pos_);
  pos_ += 8;
  return v;
}

std::string PayloadReader::get_str() {
  const std::uint64_t n = get_u64();
  need(n);
  std::string s(bytes_.substr(pos_, n));
  pos_ += n;
  return s;
}

std::vector<double> PayloadReader::get_f64s() {
  const std::uint64_t n = get_u64();
  if (n > remaining() / sizeof(double))
    throw PayloadError("persist: corrupt vector length");
  std::vector<double> v(n);
  std::memcpy(v.data(), bytes_.data() + pos_, n * sizeof(double));
  pos_ += n * sizeof(double);
  return v;
}

void write_artifact(Storage& storage, const std::string& path, std::uint32_t kind,
                    std::uint32_t schema, std::string_view payload) {
  obs::Span span("persist.write_artifact");
  std::string bytes;
  bytes.reserve(kHeaderSize + payload.size() + kTrailerSize);
  bytes.append(kMagic, 4);
  append_pod<std::uint32_t>(bytes, kContainerVersion);
  append_pod<std::uint32_t>(bytes, kind);
  append_pod<std::uint32_t>(bytes, schema);
  append_pod<std::uint32_t>(bytes, 0);  // reserved
  append_pod<std::uint64_t>(bytes, payload.size());
  bytes.append(payload.data(), payload.size());
  append_pod<std::uint32_t>(bytes, crc32c(bytes));
  storage.write_atomic(path, bytes);
}

void count_corrupt_artifact() {
  static obs::Counter& c_corrupt = obs::counter("persist.corrupt_artifacts");
  c_corrupt.add(1);
}

ArtifactData read_artifact(Storage& storage, const std::string& path,
                           std::uint32_t expected_kind) {
  obs::Span span("persist.read_artifact");
  ArtifactData out;
  std::string bytes;
  out.status = storage.read(path, bytes);
  if (!ok(out.status)) return out;

  const auto fail = [&](LoadStatus s) -> ArtifactData& {
    out.status = s;
    out.payload.clear();
    if (corrupt(s)) count_corrupt_artifact();
    return out;
  };

  if (bytes.size() < kHeaderSize + kTrailerSize) return fail(LoadStatus::kTruncated);
  if (std::memcmp(bytes.data(), kMagic, 4) != 0) return fail(LoadStatus::kBadMagic);
  if (read_pod<std::uint32_t>(bytes.data() + 4) != kContainerVersion)
    return fail(LoadStatus::kBadVersion);
  const auto kind = read_pod<std::uint32_t>(bytes.data() + 8);
  out.schema = read_pod<std::uint32_t>(bytes.data() + 12);
  const auto payload_size = read_pod<std::uint64_t>(bytes.data() + 20);
  if (bytes.size() != kHeaderSize + payload_size + kTrailerSize)
    return fail(LoadStatus::kTruncated);
  const auto stored_crc =
      read_pod<std::uint32_t>(bytes.data() + bytes.size() - kTrailerSize);
  const auto actual_crc = crc32c_update(
      0, bytes.data(), bytes.size() - kTrailerSize);
  if (stored_crc != actual_crc) return fail(LoadStatus::kBadChecksum);
  if (kind != expected_kind) return fail(LoadStatus::kWrongKind);
  out.payload.assign(bytes, kHeaderSize, payload_size);
  return out;
}

ArtifactData read_artifact(Storage& storage, const std::string& path,
                           std::uint32_t expected_kind, std::uint32_t expected_schema) {
  ArtifactData out = read_artifact(storage, path, expected_kind);
  if (ok(out.status) && out.schema != expected_schema) {
    count_corrupt_artifact();
    out.status = LoadStatus::kBadVersion;
    out.payload.clear();
  }
  return out;
}

}  // namespace stco::persist
