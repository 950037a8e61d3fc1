#pragma once
// persist::Storage — the single write path for every on-disk artifact.
// Wraps atomic_file.hpp with bounded-exponential-backoff retry of
// transient failures and the persist.* obs counters, and defines the
// LoadStatus vocabulary every loader in the tree degrades through.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/persist/atomic_file.hpp"

namespace stco::persist {

/// Outcome of loading an artifact, analogous to numeric::SolveStatus: a
/// missing or corrupt artifact is an expected, counted condition callers
/// degrade from (regenerate / retrain / cold-start) — never a crash and
/// never silently bad data.
enum class [[nodiscard]] LoadStatus {
  kOk = 0,
  kNotFound,     ///< no artifact on disk (cold start)
  kIoError,      ///< open/read failed for a reason other than absence
  kTruncated,    ///< shorter than the declared layout (torn or cut short)
  kBadMagic,     ///< not an STCA container at all
  kBadVersion,   ///< container or artifact schema from an unknown version
  kWrongKind,    ///< a valid artifact of a different kind
  kBadChecksum,  ///< CRC32C trailer mismatch (bit rot / partial write)
  kBadPayload,   ///< checksum fine but the payload fails to decode
};

[[nodiscard]] constexpr bool ok(LoadStatus s) { return s == LoadStatus::kOk; }

/// True for the statuses that mean "an artifact exists but cannot be
/// trusted" (everything except kOk / kNotFound / kIoError). These are the
/// ones counted under persist.corrupt_artifacts.
[[nodiscard]] constexpr bool corrupt(LoadStatus s) {
  return s != LoadStatus::kOk && s != LoadStatus::kNotFound &&
         s != LoadStatus::kIoError;
}

const char* to_string(LoadStatus s);

/// Bounded exponential backoff for transient write failures.
struct RetryPolicy {
  std::size_t max_attempts = 4;         ///< total attempts (1 = no retry)
  std::uint64_t backoff_base_us = 200;  ///< first backoff; doubles per retry
  bool sleep = true;                    ///< tests disable the real sleep
};

class Storage {
 public:
  explicit Storage(RetryPolicy retry = {}, IoHooks* hooks = nullptr);

  /// Atomically replace `path` with `bytes`. TransientIoError attempts are
  /// retried up to retry().max_attempts with exponential backoff (counted
  /// under persist.retries); throws std::runtime_error once exhausted.
  /// CrashError from the fault hooks propagates unretried, like a kill.
  void write_atomic(const std::string& path, std::string_view bytes);

  /// Whole-file read. kOk / kNotFound / kIoError only; container-level
  /// validation lives in read_artifact (format.hpp).
  [[nodiscard]] LoadStatus read(const std::string& path, std::string& out) const;

  [[nodiscard]] bool exists(const std::string& path) const;
  void create_directories(const std::string& path);  ///< mkdir -p, best effort

  const RetryPolicy& retry() const { return retry_; }

 private:
  RetryPolicy retry_;
  IoHooks* hooks_ = nullptr;
};

/// Process-wide storage: default retry policy, no fault hooks.
Storage& default_storage();

}  // namespace stco::persist
