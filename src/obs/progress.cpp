#include "src/obs/progress.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "src/obs/keys.hpp"
#include "src/obs/span.hpp"  // now_ns

namespace stco::obs {

namespace {

struct ProgressRegistry {
  std::mutex m;
  std::map<std::string, ProgressTask> tasks;  // node-based: stable refs
};

ProgressRegistry& progress_registry() {
  static ProgressRegistry* r = new ProgressRegistry;  // intentionally leaked
  return *r;
}

// Same contract as metrics.cpp check_metric_key: progress task names live
// in kMetricKeys, so the linter and the runtime check share one registry.
void check_progress_key(const std::string& name) {
#ifdef STCO_CHECKS
  if (keys::is_canonical_metric_key(name) || keys::is_test_key(name)) return;
  std::fprintf(stderr,
               "obs: progress key \"%s\" is not in the canonical registry "
               "(src/obs/keys.hpp) and lacks the \"%s\" prefix\n",
               name.c_str(), std::string(keys::kTestPrefix).c_str());
  std::abort();
#else
  (void)name;
#endif
}

}  // namespace

void ProgressTask::add_work(std::uint64_t n) {
  total_.fetch_add(n, std::memory_order_relaxed);
  // Stamp start on the first announcement. now_ns() can legitimately be 0
  // right at the trace epoch, so the stored stamp is offset by one.
  std::uint64_t expected = 0;
  start_ns_.compare_exchange_strong(expected, now_ns() + 1,
                                    std::memory_order_relaxed);
}

void ProgressTask::reduce_work(std::uint64_t n) {
  std::uint64_t cur = total_.load(std::memory_order_relaxed);
  while (true) {
    const std::uint64_t next = n >= cur ? 0 : cur - n;
    if (total_.compare_exchange_weak(cur, next, std::memory_order_relaxed))
      return;
  }
}

void ProgressTask::advance(std::uint64_t n) {
  done_.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t ProgressTask::done() const {
  return done_.load(std::memory_order_relaxed);
}

std::uint64_t ProgressTask::total() const {
  return total_.load(std::memory_order_relaxed);
}

ProgressSnapshot ProgressTask::sample() const {
  ProgressSnapshot p;
  p.done = done();
  p.total = total();
  const std::uint64_t start = start_ns_.load(std::memory_order_relaxed);
  if (start != 0 && p.done > 0) {
    const std::uint64_t now = now_ns() + 1;
    const double elapsed_s =
        now > start ? static_cast<double>(now - start) * 1e-9 : 0.0;
    if (elapsed_s > 0.0)
      p.rate_per_sec = static_cast<double>(p.done) / elapsed_s;
  }
  if (p.done < p.total && p.rate_per_sec > 0.0)
    p.eta_seconds = static_cast<double>(p.total - p.done) / p.rate_per_sec;
  return p;
}

void ProgressTask::reset() {
  done_.store(0, std::memory_order_relaxed);
  total_.store(0, std::memory_order_relaxed);
  start_ns_.store(0, std::memory_order_relaxed);
}

ProgressTask& progress(const std::string& name) {
  check_progress_key(name);
  auto& reg = progress_registry();
  std::lock_guard<std::mutex> lock(reg.m);
  return reg.tasks[name];
}

std::map<std::string, ProgressSnapshot> progress_snapshot() {
  std::map<std::string, ProgressSnapshot> out;
  auto& reg = progress_registry();
  std::lock_guard<std::mutex> lock(reg.m);
  for (const auto& [name, task] : reg.tasks) out[name] = task.sample();
  return out;
}

void reset_progress() {
  auto& reg = progress_registry();
  std::lock_guard<std::mutex> lock(reg.m);
  for (auto& [name, task] : reg.tasks) task.reset();
}

}  // namespace stco::obs
