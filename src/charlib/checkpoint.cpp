#include "src/charlib/checkpoint.hpp"

#include "src/gnn/serialize.hpp"
#include "src/obs/obs.hpp"
#include "src/persist/artifacts.hpp"

namespace stco::charlib {

namespace {

struct ShardCodec {
  using Sample = CharSample;
  using Stats = DatasetStats;
  static constexpr const char* kName = "charlib";
  static constexpr std::uint32_t kArtifact = persist::kind::kCharlibShard;
  static constexpr const char* kProgress = "charlib.dataset.corners";
  static constexpr bool kProgressPerSample = false;  // one unit per corner

  static void put(persist::PayloadWriter& w, const CharSample& s) {
    gnn::put_graph(w, s.graph);
    w.put_u32(static_cast<std::uint32_t>(s.metric));
    w.put_f64(s.target);
    w.put_str(s.cell);
  }

  static CharSample get(persist::PayloadReader& r) {
    CharSample s;
    s.graph = gnn::get_graph(r);
    const std::uint32_t metric = r.get_u32();
    if (metric >= cells::kNumMetrics)
      throw persist::PayloadError("charlib: metric out of range");
    s.metric = static_cast<cells::Metric>(metric);
    s.target = r.get_f64();
    s.cell = r.get_str();
    return s;
  }

  static void put_stats(persist::PayloadWriter& w, const DatasetStats& s) {
    w.put_u64(s.characterizations);
    w.put_u64(s.degraded_characterizations);
    w.put_u64(s.failed_sims);
    persist::put_robustness(w, s.solver);
  }

  static DatasetStats get_stats(persist::PayloadReader& r) {
    DatasetStats s;
    s.characterizations = r.get_u64();
    s.degraded_characterizations = r.get_u64();
    s.failed_sims = r.get_u64();
    s.solver = persist::get_robustness(r);
    return s;
  }
};

}  // namespace

std::uint64_t charlib_dataset_fingerprint(
    const std::vector<compact::TechnologyPoint>& corners, const DatasetOptions& opts,
    std::size_t shard_size) {
  persist::Fingerprint fp;
  fp.add_str("charlib-dataset-v1").add_u64(shard_size);
  fp.add_u64(corners.size());
  for (const auto& c : corners) {
    fp.add_u64(static_cast<std::uint64_t>(c.kind));
    fp.add_f64(c.vdd).add_f64(c.vth).add_f64(c.cox);
  }
  fp.add_u64(opts.cell_names.size());
  for (const auto& n : opts.cell_names) fp.add_str(n);
  fp.add_u64(opts.input_slews.size());
  for (double s : opts.input_slews) fp.add_f64(s);
  fp.add_u64(opts.output_loads.size());
  for (double l : opts.output_loads) fp.add_f64(l);
  fp.add_f64(opts.sizing.length).add_f64(opts.sizing.nfet_width);
  fp.add_f64(opts.sizing.pfet_width);
  fp.add_f64(opts.char_dt).add_f64(opts.char_time_unit);
  fp.add_f64(opts.scales.vdd).add_f64(opts.scales.width).add_f64(opts.scales.cox);
  fp.add_f64(opts.scales.vth).add_f64(opts.scales.slew).add_f64(opts.scales.load);
  return fp.value();
}

CharlibShardLoad load_charlib_shard(persist::Storage& storage,
                                    const std::string& path) {
  return persist::load_shard<ShardCodec>(storage, path);
}

std::vector<CharSample> build_charlib_dataset_resumable(
    const std::vector<compact::TechnologyPoint>& corners, const DatasetOptions& opts,
    const CheckpointOptions& ckpt, const exec::Context& ctx) {
  obs::Span span("charlib.build_dataset_resumable");
  const auto build_chunk = [&](const persist::ShardRange& range, DatasetStats& stats) {
    const std::vector<compact::TechnologyPoint> chunk(
        corners.begin() + static_cast<std::ptrdiff_t>(range.begin),
        corners.begin() + static_cast<std::ptrdiff_t>(range.end));
    DatasetOptions shard_opts = opts;
    shard_opts.stats = &stats;
    if (opts.on_progress) {
      shard_opts.on_progress = [&opts, &corners, begin = range.begin](
                                   std::size_t done, std::size_t /*n*/) {
        opts.on_progress(begin + done, corners.size());
      };
    }
    return build_charlib_dataset(chunk, shard_opts, ctx);
  };
  return persist::build_sharded<ShardCodec>(
      ckpt, charlib_dataset_fingerprint(corners, opts, ckpt.shard_size), corners.size(),
      build_chunk, opts.stats);
}

}  // namespace stco::charlib
