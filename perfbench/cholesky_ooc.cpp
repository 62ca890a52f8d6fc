// cholesky_ooc: the paper's flagship app (tiled Cholesky, Figs 5 and 7)
// under device-memory pressure.
//
// One op builds a fresh runtime (one card, pure offload, two card
// streams, one buffer per lower-triangle tile) whose card DDR budget is
// half the triangle's working set, and factors a copy of the seeded SPD
// input with apps::run_cholesky. The memory governor evicts and refetches
// tiles throughout. A fresh runtime per op is forced: run_cholesky never
// destroys the buffers it registers, so a second call on one runtime
// throws "buffer overlaps an existing buffer".
//
// Output checks: in set-up, the warm-up factor is compared with a plain
// single-threaded hsblas potrf of the same matrix; every op's factor must
// then be bit-identical to the warm-up factor.
//
// The traced run also factors a paper-scale phantom matrix on the
// SimExecutor (the virtual-clock twin) twice and reports its makespan and
// governor counts, which must repeat exactly.

#include <algorithm>
#include <cmath>
#include <cstring>

#include "apps/cholesky.hpp"
#include "apps/tiled_matrix.hpp"
#include "common/rng.hpp"
#include "harness.hpp"
#include "hsblas/kernels.hpp"
#include "hsblas/matrix.hpp"
#include "sim/platform.hpp"
#include "sim/sim_executor.hpp"

namespace perf {
namespace {

using hs::apps::TiledMatrix;

constexpr std::size_t kN = 1024;
constexpr std::size_t kTile = 128;
constexpr std::size_t kSimN = 8192;
constexpr std::size_t kSimTile = 512;
/// Card DDR budget as a share of the lower triangle's bytes.
constexpr double kBudgetShare = 0.5;
/// Max |L - L_ref| / max |L_ref| accepted against the plain factorization.
constexpr double kFactorTolerance = 1e-10;

std::size_t budget_bytes(const TiledMatrix& a) {
  std::size_t triangle = 0;
  for (std::size_t i = 0; i < a.row_tiles(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      triangle += a.tile_bytes(i, j);
    }
  }
  return static_cast<std::size_t>(kBudgetShare *
                                  static_cast<double>(triangle));
}

hs::apps::CholeskyConfig cholesky_config() {
  hs::apps::CholeskyConfig config;
  config.streams_per_device = 2;
  config.host_streams = 0;  // pure offload: the card owns every tile row
  config.tile_buffers = true;
  return config;
}

/// Max |L - ref| over the lower triangle, relative to max |ref|.
double factor_error(const TiledMatrix& tiled, const hs::blas::Matrix& ref) {
  const hs::blas::Matrix dense = tiled.to_dense();
  double diff = 0.0;
  double scale = 0.0;
  for (std::size_t j = 0; j < kN; ++j) {
    for (std::size_t i = j; i < kN; ++i) {
      diff = std::max(diff, std::abs(dense(i, j) - ref(i, j)));
      scale = std::max(scale, std::abs(ref(i, j)));
    }
  }
  return scale > 0.0 ? diff / scale : diff;
}

struct TwinResult {
  double virtual_ms = 0.0;
  hs::RuntimeStats stats;
};

/// The virtual-clock twin: same algorithm, configuration and budget
/// share at paper scale on a simulated HSW + KNC, payloads skipped.
TwinResult run_twin() {
  hs::sim::SimPlatform platform = hs::sim::hsw_plus_knc(1);
  TiledMatrix a = TiledMatrix::phantom(kSimN, kSimTile);
  platform.desc.domains[1].memory_bytes = {{hs::MemKind::ddr, budget_bytes(a)}};
  hs::RuntimeConfig config;
  config.platform = platform.desc;
  config.device_link = platform.link;
  config.domain_links = platform.domain_links;
  hs::Runtime runtime(config, std::make_unique<hs::sim::SimExecutor>(
                                  platform, /*execute_payloads=*/false));
  TwinResult out;
  out.virtual_ms = 1e3 * hs::apps::run_cholesky(runtime, cholesky_config(), a)
                             .seconds;
  out.stats = runtime.stats();
  return out;
}

class CholeskyOoc final : public Workload {
 public:
  explicit CholeskyOoc(std::uint64_t seed) : seed_(seed) {}

  bool setup(Spans& /*setup_spans*/) override {
    hs::Rng rng(seed_);
    hs::blas::Matrix dense(kN, kN);
    dense.make_spd(rng);
    input_ = std::make_unique<TiledMatrix>(TiledMatrix::from_dense(dense, kTile));
    work_ = std::make_unique<TiledMatrix>(kN, kN, kTile);

    std::memcpy(work_->data(), input_->data(), input_->size_bytes());
    double warmup_s = 0.0;
    factor(nullptr, warmup_s, /*count_threads=*/true);
    warm_factor_.assign(work_->data(), work_->data() + elems());
    return true;
  }

  bool check_setup() override {
    // The plain single-threaded baseline: hsblas potrf on the dense
    // matrix, no runtime. Its factor is the check of the warm-up factor.
    hs::blas::Matrix dense = input_->to_dense();
    const Clock::time_point t0 = Clock::now();
    const int info = hs::blas::potrf_lower(dense.view());
    ref_potrf_ms_ = 1e3 * seconds_between(t0, Clock::now());
    return info == 0 && factor_error(*work_, dense) <= kFactorTolerance;
  }

  bool op(Layer* layer, double& op_seconds) override {
    std::memcpy(work_->data(), input_->data(), input_->size_bytes());
    factor(layer, op_seconds, /*count_threads=*/false);
    return std::memcmp(work_->data(), warm_factor_.data(),
                       elems() * sizeof(double)) == 0;
  }

  [[nodiscard]] std::size_t runtime_threads() const override {
    return threads_;
  }
  [[nodiscard]] std::size_t compute_workers() const override { return 3; }

  void finish_layers(Layer& layer) override {
    const TwinResult first = run_twin();
    const TwinResult second = run_twin();
    const auto mib = [](std::uint64_t bytes) {
      return static_cast<double>(bytes) / (1024.0 * 1024.0);
    };
    const hs::RuntimeStats& s = first.stats;
    layer.extra["sim.virtual_ms"] = first.virtual_ms;
    layer.extra["sim.evictions"] = static_cast<double>(s.evictions);
    layer.extra["sim.refetches"] = static_cast<double>(s.refetches);
    layer.extra["sim.spill_mib"] = mib(s.spill_bytes_written);
    layer.extra["sim.bytes_moved_mib"] = mib(s.bytes_transferred);
    layer.extra["hsblas.ref_potrf_ms"] = ref_potrf_ms_;
    const bool repeat = first.virtual_ms == second.virtual_ms &&
                        s.evictions == second.stats.evictions &&
                        s.refetches == second.stats.refetches &&
                        s.spill_bytes_written ==
                            second.stats.spill_bytes_written &&
                        s.bytes_transferred == second.stats.bytes_transferred;
    layer.extra["selfcheck.exact_repeat"] = repeat ? 1.0 : 0.0;
  }

 private:
  [[nodiscard]] std::size_t elems() const {
    return input_->size_bytes() / sizeof(double);
  }

  /// One factorization of work_ on a fresh runtime, construction and
  /// teardown included.
  void factor(Layer* layer, double& seconds, bool count_threads) {
    Spans* spans = layer != nullptr ? &layer->spans : nullptr;
    // A recorder per op: every op has a fresh runtime, whose action ids
    // and clock start again from zero.
    hs::TraceRecorder trace;
    const Clock::time_point t0 = Clock::now();
    hs::PlatformDesc platform = bench_platform();
    platform.domains[1].memory_bytes = {{hs::MemKind::ddr,
                                         budget_bytes(*work_)}};
    auto runtime = timed(spans, "runtime_ctor",
                         [&] { return make_runtime(platform); });
    runtime->set_trace(layer != nullptr ? &trace : nullptr);
    (void)hs::apps::run_cholesky(*runtime, cholesky_config(), *work_);
    if (count_threads) {
      threads_ = process_threads() - 1;
    }
    if (layer != nullptr) {
      add_delta(layer->stats, hs::RuntimeStats{}, runtime->stats());
    }
    timed(spans, "runtime_dtor", [&] { runtime.reset(); });
    seconds = seconds_between(t0, Clock::now());
    if (layer != nullptr) {
      absorb(trace, layer->digest);
    }
  }

  std::uint64_t seed_;
  std::unique_ptr<TiledMatrix> input_;
  std::unique_ptr<TiledMatrix> work_;
  std::vector<double> warm_factor_;
  double ref_potrf_ms_ = 0.0;
  std::size_t threads_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_cholesky_ooc(std::uint64_t seed) {
  return std::make_unique<CholeskyOoc>(seed);
}

}  // namespace perf
