#include "src/surrogate/checkpoint.hpp"

#include "src/gnn/serialize.hpp"
#include "src/numeric/rng.hpp"
#include "src/obs/obs.hpp"
#include "src/persist/artifacts.hpp"

namespace stco::surrogate {

namespace {

constexpr std::uint32_t kShardSchema = 1;

void put_device(persist::PayloadWriter& w, const tcad::TftDevice& d) {
  w.put_u8(static_cast<std::uint8_t>(d.semi.kind));
  w.put_u8(static_cast<std::uint8_t>(d.semi.carrier));
  w.put_f64(d.semi.eps_r);
  w.put_f64(d.semi.ni);
  w.put_f64(d.semi.mu0);
  w.put_f64(d.semi.gamma);
  w.put_f64(d.semi.tau_srh_n);
  w.put_f64(d.semi.tau_srh_p);
  w.put_f64(d.semi.vth0);
  w.put_f64(d.semi.flatband);
  w.put_f64(d.semi.tail_trap_density);
  w.put_f64(d.semi.hop_energy_mev);
  w.put_f64(d.oxide.eps_r);
  w.put_f64(d.length);
  w.put_f64(d.width);
  w.put_f64(d.t_ox);
  w.put_f64(d.t_ch);
  w.put_f64(d.contact_len);
  w.put_f64(d.doping);
  w.put_f64(d.contact_phi);
}

tcad::TftDevice get_device(persist::PayloadReader& r) {
  tcad::TftDevice d;
  const std::uint8_t kind = r.get_u8();
  if (kind > static_cast<std::uint8_t>(tcad::SemiconductorKind::kSilicon))
    throw persist::PayloadError("surrogate: semiconductor kind out of range");
  d.semi.kind = static_cast<tcad::SemiconductorKind>(kind);
  const std::uint8_t carrier = r.get_u8();
  if (carrier > 1) throw persist::PayloadError("surrogate: carrier out of range");
  d.semi.carrier = static_cast<tcad::CarrierType>(carrier);
  d.semi.eps_r = r.get_f64();
  d.semi.ni = r.get_f64();
  d.semi.mu0 = r.get_f64();
  d.semi.gamma = r.get_f64();
  d.semi.tau_srh_n = r.get_f64();
  d.semi.tau_srh_p = r.get_f64();
  d.semi.vth0 = r.get_f64();
  d.semi.flatband = r.get_f64();
  d.semi.tail_trap_density = r.get_f64();
  d.semi.hop_energy_mev = r.get_f64();
  d.oxide.eps_r = r.get_f64();
  d.length = r.get_f64();
  d.width = r.get_f64();
  d.t_ox = r.get_f64();
  d.t_ch = r.get_f64();
  d.contact_len = r.get_f64();
  d.doping = r.get_f64();
  d.contact_phi = r.get_f64();
  return d;
}

struct ShardCodec {
  using Sample = DeviceSample;
  using Stats = PopulationStats;
  static constexpr const char* kName = "surrogate";
  static constexpr std::uint32_t kArtifact = persist::kind::kSurrogateShard;
  static constexpr const char* kProgress = "surrogate.population.devices";
  static constexpr bool kProgressPerSample = true;  // one unit per device

  static void put(persist::PayloadWriter& w, const DeviceSample& s) {
    put_device(w, s.device);
    w.put_f64(s.bias.vg);
    w.put_f64(s.bias.vd);
    w.put_f64(s.bias.vs);
    w.put_f64(s.drain_current);
    gnn::put_graph(w, s.poisson_graph);
    gnn::put_graph(w, s.iv_graph);
  }

  static DeviceSample get(persist::PayloadReader& r) {
    DeviceSample s;
    s.device = get_device(r);
    s.bias.vg = r.get_f64();
    s.bias.vd = r.get_f64();
    s.bias.vs = r.get_f64();
    s.drain_current = r.get_f64();
    s.poisson_graph = gnn::get_graph(r);
    s.iv_graph = gnn::get_graph(r);
    return s;
  }

  static void put_stats(persist::PayloadWriter& w, const PopulationStats& s) {
    w.put_u64(s.attempts);
    w.put_u64(s.dropped);
    persist::put_robustness(w, s.solver);
  }

  static PopulationStats get_stats(persist::PayloadReader& r) {
    PopulationStats s;
    s.attempts = r.get_u64();
    s.dropped = r.get_u64();
    s.solver = persist::get_robustness(r);
    return s;
  }
};

}  // namespace

std::uint64_t population_fingerprint(std::size_t count, std::uint64_t seed,
                                     const PopulationOptions& opts,
                                     std::size_t shard_size) {
  persist::Fingerprint fp;
  fp.add_str("surrogate-population-v1");
  fp.add_u64(count).add_u64(seed).add_u64(shard_size);
  fp.add_u64(opts.mesh_nx).add_u64(opts.mesh_nch).add_u64(opts.mesh_nox);
  fp.add_u64(opts.kinds.size());
  for (auto k : opts.kinds) fp.add_u64(static_cast<std::uint64_t>(k));
  fp.add_f64(opts.length_min).add_f64(opts.length_max);
  fp.add_f64(opts.tox_min).add_f64(opts.tox_max);
  fp.add_f64(opts.tch_min).add_f64(opts.tch_max);
  fp.add_f64(opts.vg_mag_min).add_f64(opts.vg_mag_max);
  fp.add_f64(opts.vd_mag_min).add_f64(opts.vd_mag_max);
  fp.add_f64(opts.doping_mag_max);
  fp.add_f64(opts.scales.potential).add_f64(opts.scales.potential_residual);
  fp.add_f64(opts.scales.charge).add_f64(opts.scales.charge_asinh_div);
  fp.add_f64(opts.scales.doping).add_f64(opts.scales.log_ni_div);
  fp.add_f64(opts.scales.mobility).add_f64(opts.scales.eps_r);
  // Principal solver knobs; these change which attempts converge and
  // therefore which devices survive drop-and-redraw.
  fp.add_u64(opts.poisson.max_newton).add_f64(opts.poisson.tol_update);
  fp.add_u64(opts.transport.max_newton).add_f64(opts.transport.tol_update);
  fp.add_u64(opts.transport.slice_points).add_u64(opts.transport.integration_steps);
  return fp.value();
}

void save_surrogate_shard(persist::Storage& storage, const std::string& path,
                          const std::vector<DeviceSample>& samples,
                          const PopulationStats& stats) {
  persist::save_shard<ShardCodec>(storage, path, {}, samples, stats);
}

SurrogateShardLoad load_surrogate_shard(persist::Storage& storage,
                                        const std::string& path) {
  return persist::load_shard<ShardCodec>(storage, path);
}

std::vector<DeviceSample> generate_population_resumable(
    std::size_t count, std::uint64_t seed, const PopulationOptions& opts,
    const CheckpointOptions& ckpt, const exec::Context& ctx) {
  obs::Span span("surrogate.generate_population_resumable");
  // Shard randomness: an independent master seed per shard index makes the
  // shard a pure function of (seed, index, opts) — resuming cannot shift
  // any other shard's stream.
  const auto build_shard = [&](const persist::ShardRange& range,
                               PopulationStats& stats) {
    PopulationOptions shard_opts = opts;
    shard_opts.stats = &stats;
    return generate_population(range.end - range.begin,
                               numeric::mix_seed(seed, range.index), shard_opts, ctx);
  };
  return persist::build_sharded<ShardCodec>(
      ckpt, population_fingerprint(count, seed, opts, ckpt.shard_size), count,
      build_shard, opts.stats);
}

}  // namespace stco::surrogate
