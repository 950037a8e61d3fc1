#include "src/persist/storage.hpp"

#include <chrono>
#include <filesystem>
#include <thread>

#include "src/obs/obs.hpp"

namespace stco::persist {

const char* to_string(LoadStatus s) {
  switch (s) {
    case LoadStatus::kOk: return "ok";
    case LoadStatus::kNotFound: return "not-found";
    case LoadStatus::kIoError: return "io-error";
    case LoadStatus::kTruncated: return "truncated";
    case LoadStatus::kBadMagic: return "bad-magic";
    case LoadStatus::kBadVersion: return "bad-version";
    case LoadStatus::kWrongKind: return "wrong-kind";
    case LoadStatus::kBadChecksum: return "bad-checksum";
    case LoadStatus::kBadPayload: return "bad-payload";
  }
  return "unknown";
}

Storage::Storage(RetryPolicy retry, IoHooks* hooks)
    : retry_(retry), hooks_(hooks) {}

void Storage::write_atomic(const std::string& path, std::string_view bytes) {
  static obs::Counter& c_writes = obs::counter("persist.writes");
  static obs::Counter& c_bytes = obs::counter("persist.bytes_written");
  static obs::Counter& c_retries = obs::counter("persist.retries");
  std::uint64_t backoff_us = retry_.backoff_base_us;
  for (std::size_t attempt = 1;; ++attempt) {
    try {
      atomic_write_file(path, bytes, hooks_);
      c_writes.add(1);
      c_bytes.add(bytes.size());
      return;
    } catch (const CrashError&) {
      throw;  // simulated kill: never retried, temp file left behind
    } catch (const TransientIoError& e) {
      if (attempt >= retry_.max_attempts)
        throw std::runtime_error("persist: write failed after " +
                                 std::to_string(attempt) + " attempts: " + e.what());
      c_retries.add(1);
      if (retry_.sleep)
        std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
      backoff_us *= 2;
    }
  }
}

LoadStatus Storage::read(const std::string& path, std::string& out) const {
  static obs::Counter& c_reads = obs::counter("persist.reads");
  switch (read_file_bytes(path, out)) {
    case ReadFileStatus::kOk:
      c_reads.add(1);
      return LoadStatus::kOk;
    case ReadFileStatus::kNotFound: return LoadStatus::kNotFound;
    case ReadFileStatus::kIoError: return LoadStatus::kIoError;
  }
  return LoadStatus::kIoError;
}

bool Storage::exists(const std::string& path) const {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

void Storage::create_directories(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
}

Storage& default_storage() {
  static Storage storage;
  return storage;
}

}  // namespace stco::persist
