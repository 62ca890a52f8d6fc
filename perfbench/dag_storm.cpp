// dag_storm: fine-grained streaming overhead (paper §III) with tiny
// kernels, so admission, the dependence index, executor hand-off and the
// completion drain do almost all the work.
//
// One op, on two card streams:
//   * both streams first wait on a bench-owned event (the gate);
//   * stream 0 gets a chain of kDepth `inout` actions on one 4 KiB tile;
//   * stream 1 gets a fan-out of kDepth actions on distinct 4 KiB tiles,
//     in a seeded order;
//   * the gate fires after the last enqueue, then Runtime::synchronize.
// The gate makes the window at every admission exactly the op, so the
// dependence-analysis counts repeat exactly (ungated, the chain races its
// own drain and the window depth depends on worker speed).
//
// Output check after each op (untimed): the chain tile must read
// kDepth x ops and a seeded sample of fan-out tiles must read ops.

#include <algorithm>
#include <numeric>

#include "common/rng.hpp"
#include "core/event.hpp"
#include "harness.hpp"

namespace perf {
namespace {

constexpr std::size_t kDepth = 512;
constexpr std::size_t kTileDoubles = 512;  // 4 KiB
constexpr std::size_t kTileBytes = kTileDoubles * sizeof(double);
constexpr std::size_t kSampledTiles = 8;
constexpr hs::DomainId kCard{1};

hs::ComputePayload increment(const char* kernel) {
  return hs::ComputePayload{
      .body =
          [](hs::TaskContext& ctx) {
            double* tile = ctx.operand_as<double>(0);
            for (std::size_t i = 0; i < kTileDoubles; ++i) {
              tile[i] += 1.0;
            }
          },
      .kernel = kernel,
      .flops = static_cast<double>(kTileDoubles)};
}

std::vector<std::size_t> shuffled(std::uint64_t seed) {
  std::vector<std::size_t> order(kDepth);
  std::iota(order.begin(), order.end(), std::size_t{0});
  hs::Rng rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

/// Fires the gate when the op leaves scope, even when an enqueue threw,
/// so the streams never stay parked behind it.
struct GateGuard {
  std::shared_ptr<hs::EventState> gate = std::make_shared<hs::EventState>();
  GateGuard() = default;
  GateGuard(const GateGuard&) = delete;
  GateGuard& operator=(const GateGuard&) = delete;
  ~GateGuard() {
    for (auto& callback : gate->fire()) {
      callback();
    }
  }
};

class DagStorm final : public Workload {
 public:
  explicit DagStorm(std::uint64_t seed)
      : seed_(seed),
        chain_(kTileDoubles, 0.0),
        fan_(kDepth * kTileDoubles, 0.0),
        order_(shuffled(seed)) {}

  ~DagStorm() override {
    if (setup_spans_ != nullptr && runtime_ != nullptr) {
      timed(setup_spans_, "runtime_dtor", [&] { runtime_.reset(); });
    }
  }

  DagStorm(const DagStorm&) = delete;
  DagStorm& operator=(const DagStorm&) = delete;

  bool setup(Spans& setup_spans) override {
    setup_spans_ = &setup_spans;
    runtime_ = timed(&setup_spans, "runtime_ctor",
                     [] { return make_runtime(bench_platform()); });
    hs::Runtime& rt = *runtime_;
    const hs::BufferId chain = rt.buffer_create(chain_.data(), kTileBytes);
    const hs::BufferId fan = rt.buffer_create(fan_.data(), kDepth * kTileBytes);
    rt.buffer_instantiate(chain, kCard);
    rt.buffer_instantiate(fan, kCard);
    chain_stream_ = rt.stream_create(kCard, hs::CpuMask::range(0, 1));
    fan_stream_ = rt.stream_create(kCard, hs::CpuMask::range(1, 2));
    (void)rt.enqueue_transfer(chain_stream_, chain_.data(), kTileBytes,
                              hs::XferDir::src_to_sink);
    (void)rt.enqueue_transfer(fan_stream_, fan_.data(), kDepth * kTileBytes,
                              hs::XferDir::src_to_sink);
    rt.synchronize();

    double ignored = 0.0;
    const bool ok = run(nullptr, order_, ignored);
    threads_ = process_threads() - 1;
    return ok;
  }

  bool check_setup() override {
    // One op in the next seed's fan-out order: its dependence steps are
    // compared with the seed's (reported, not enforced; see RATIONALE.md).
    const std::uint64_t steps = steps_per_op_;
    double ignored = 0.0;
    const bool ok = run(nullptr, shuffled(seed_ + 1), ignored);
    seed_delta_ = last_steps_ > steps ? last_steps_ - steps
                                      : steps - last_steps_;
    return ok;
  }

  bool op(Layer* layer, double& op_seconds) override {
    return run(layer, order_, op_seconds);
  }

  [[nodiscard]] std::size_t runtime_threads() const override {
    return threads_;
  }
  [[nodiscard]] std::size_t compute_workers() const override { return 2; }

  void finish_layers(Layer& layer) override {
    layer.extra["selfcheck.exact_repeat"] = steps_repeat_ ? 1.0 : 0.0;
    layer.extra["selfcheck.dep_steps_seed_delta"] =
        static_cast<double>(seed_delta_);
  }

 private:
  bool run(Layer* layer, const std::vector<std::size_t>& order,
           double& seconds) {
    hs::Runtime& rt = *runtime_;
    Spans* spans = layer != nullptr ? &layer->spans : nullptr;
    rt.set_trace(layer != nullptr ? &layer->trace : nullptr);
    const hs::RuntimeStats before = rt.stats();
    const hs::ComputePayload chain_task = increment("chain");
    const hs::ComputePayload fan_task = increment("fanout");
    const hs::OperandRef chain_op{chain_.data(), kTileBytes,
                                  hs::Access::inout};

    const Clock::time_point t0 = Clock::now();
    {
      const GateGuard gate;
      (void)rt.enqueue_event_wait(chain_stream_, gate.gate);
      (void)rt.enqueue_event_wait(fan_stream_, gate.gate);
      for (std::size_t i = 0; i < kDepth; ++i) {
        timed(spans, "enqueue_chain", [&] {
          return rt.enqueue_compute(chain_stream_, chain_task,
                                    std::span(&chain_op, 1));
        });
      }
      for (const std::size_t tile : order) {
        const hs::OperandRef fan_op{&fan_[tile * kTileDoubles], kTileBytes,
                                    hs::Access::inout};
        timed(spans, "enqueue_fanout", [&] {
          return rt.enqueue_compute(fan_stream_, fan_task,
                                    std::span(&fan_op, 1));
        });
      }
    }
    timed(spans, "drain", [&] { rt.synchronize(); });
    seconds = seconds_between(t0, Clock::now());

    rt.set_trace(nullptr);  // the read-back below is not part of the op
    const hs::RuntimeStats after = rt.stats();
    if (layer != nullptr) {
      add_delta(layer->stats, before, after);
    }
    last_steps_ = after.dep_scan_steps - before.dep_scan_steps;
    if (ops_ == 0) {
      steps_per_op_ = last_steps_;
    }
    // Every op in the seed's order must cost exactly the same steps.
    if (&order == &order_) {
      steps_repeat_ = steps_repeat_ && last_steps_ == steps_per_op_;
    }
    ++ops_;
    return read_back_and_check();
  }

  /// Pulls the chain tile and a seeded sample of fan-out tiles home and
  /// checks them against the op count.
  bool read_back_and_check() {
    hs::Runtime& rt = *runtime_;
    hs::Rng rng(seed_ ^ (ops_ * 0x9e3779b97f4a7c15ULL));
    std::vector<std::size_t> sample(kSampledTiles);
    for (std::size_t& tile : sample) {
      tile = static_cast<std::size_t>(rng() % kDepth);
    }
    (void)rt.enqueue_transfer(chain_stream_, chain_.data(), kTileBytes,
                              hs::XferDir::sink_to_src);
    for (const std::size_t tile : sample) {
      (void)rt.enqueue_transfer(fan_stream_, &fan_[tile * kTileDoubles],
                                kTileBytes, hs::XferDir::sink_to_src);
    }
    rt.synchronize();
    const auto ops = static_cast<double>(ops_);
    bool ok = std::all_of(chain_.begin(), chain_.end(), [&](double v) {
      return v == ops * static_cast<double>(kDepth);
    });
    for (const std::size_t tile : sample) {
      const double* t = &fan_[tile * kTileDoubles];
      ok = ok && std::all_of(t, t + kTileDoubles,
                             [&](double v) { return v == ops; });
    }
    return ok;
  }

  std::uint64_t seed_;
  std::vector<double> chain_;
  std::vector<double> fan_;
  std::vector<std::size_t> order_;
  Spans* setup_spans_ = nullptr;
  std::unique_ptr<hs::Runtime> runtime_;
  hs::StreamId chain_stream_;
  hs::StreamId fan_stream_;
  std::size_t threads_ = 0;
  std::uint64_t ops_ = 0;
  std::uint64_t steps_per_op_ = 0;  ///< steps of the first op
  std::uint64_t last_steps_ = 0;
  std::uint64_t seed_delta_ = 0;  ///< |steps(seed + 1) - steps(seed)|
  bool steps_repeat_ = true;
};

}  // namespace

std::unique_ptr<Workload> make_dag_storm(std::uint64_t seed) {
  return std::make_unique<DagStorm>(seed);
}

}  // namespace perf
