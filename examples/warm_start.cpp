// Example: warm-starting the STCO loop from the SPICE library store.
//
// With STCO_CACHE_DIR set (or StcoConfig::cache_dir), the engine writes each
// SPICE library it builds to that directory as a checksummed artifact, one
// file per technology point, and later engines load a stored library instead
// of characterizing it again. Run this once cold, then again with the same
// directory: the second run loads every library (the calibration point's
// too), builds none, and makes the same decision bit for bit. A corrupt file
// is detected by its CRC or its contents, counted, and rebuilt.
//
// Usage:
//   STCO_CACHE_DIR=/tmp/stco-cache ./warm_start
//   STCO_CACHE_DIR=/tmp/stco-cache ./warm_start --expect-warm
//   STCO_CACHE_DIR=/tmp/stco-cache ./warm_start --expect-corrupt
//
// --expect-warm exits nonzero unless the run built no library and ran no
// SPICE; --expect-corrupt exits nonzero unless a corrupt stored library was
// detected and rebuilt (the CI smoke job uses both).

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/obs/obs.hpp"
#include "src/stco/loop.hpp"

int main(int argc, char** argv) {
  using namespace stco;

  bool expect_warm = false, expect_corrupt = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--expect-warm") == 0) expect_warm = true;
    if (std::strcmp(argv[i], "--expect-corrupt") == 0) expect_corrupt = true;
  }

  StcoConfig cfg;
  cfg.benchmark = "s298";
  cfg.grid_n = 3;
  cfg.rl.episodes = 2;
  cfg.rl.steps_per_episode = 5;
  // cfg.cache_dir left empty: the engine reads $STCO_CACHE_DIR.
  const char* dir = std::getenv("STCO_CACHE_DIR");
  if (dir == nullptr || *dir == '\0') {
    printf("persistence off: set STCO_CACHE_DIR to enable the library store\n");
    if (expect_warm || expect_corrupt) return 1;
  } else {
    printf("library store: %s\n", dir);
  }

  StcoEngine engine(cfg, SpiceBackend{});
  const auto result = engine.optimize();
  printf("best point: state %zu, VDD %.2f V, Vth %.2f V, Cox %.1f nF/cm^2, cost %.17g\n",
         result.best_state, result.best_point.vdd, result.best_point.vth,
         result.best_point.cox * 1e5, result.best_cost);
  const std::size_t built = engine.timing().evaluations.load();
  printf("libraries built this run: %zu\n", built);

  const auto snap = engine.obs_snapshot();
  const auto counter = [&](const char* key) {
    return static_cast<unsigned long long>(snap.counter_or(key));
  };
  printf("persist: %llu writes, %llu reads, %llu corrupt artifacts detected, "
         "%llu libraries loaded; spice: %llu transients\n",
         counter("persist.writes"), counter("persist.reads"),
         counter("persist.corrupt_artifacts"), counter("persist.cache.warm_hits"),
         counter("spice.transient.runs"));

  if (expect_warm) {
    if (built != 0 || counter("spice.transient.runs") != 0) {
      printf("FAIL: --expect-warm but %zu libraries were built\n", built);
      return 1;
    }
    if (obs::kEnabled && counter("persist.cache.warm_hits") == 0) {
      printf("FAIL: --expect-warm but no library was loaded\n");
      return 1;
    }
    printf("warm start verified: zero libraries built, all loaded from disk\n");
  }
  if (expect_corrupt) {
    if ((obs::kEnabled && counter("persist.corrupt_artifacts") == 0) || built == 0) {
      printf("FAIL: --expect-corrupt but no corrupt library was detected and rebuilt\n");
      return 1;
    }
    printf("corrupt library detected, counted and rebuilt\n");
  }
  return 0;
}
