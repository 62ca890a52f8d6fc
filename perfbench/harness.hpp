#pragma once

// Shared plumbing of the repo benchmark (`hsperf`): the workload
// interface, bench-side spans, quantiles, runtime-counter deltas and the
// trace digest that the per-layer metrics are derived from.
//
// Nothing here reaches inside the runtime: every span is recorded by the
// benchmark around a call into a layer, and every count comes from
// Runtime::stats(), Service::tenant_stats() or the TraceRecorder that
// Runtime::set_trace attaches.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "core/threaded_executor.hpp"
#include "core/trace.hpp"

namespace perf {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile (the numpy default); 0 for no samples.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Named duration samples (seconds), recorded by the benchmark around
/// calls into a layer.
class Spans {
 public:
  void add(const std::string& name, double seconds) {
    samples_[name].push_back(seconds);
  }
  [[nodiscard]] const std::vector<double>& get(const std::string& name) const;
  [[nodiscard]] double p50(const std::string& name) const {
    return quantile(get(name), 0.5);
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// Runs `fn` and, when `spans` is set, records its duration under `name`.
template <class Fn>
decltype(auto) timed(Spans* spans, const char* name, Fn&& fn) {
  if (spans == nullptr) {
    return fn();
  }
  struct Stamp {
    Spans* spans;
    const char* name;
    Clock::time_point t0 = Clock::now();
    ~Stamp() { spans->add(name, seconds_between(t0, Clock::now())); }
  } stamp{spans, name};
  return fn();
}

/// Element-wise `acc += after - before` over the RuntimeStats counters
/// the per-layer metrics read.
void add_delta(hs::RuntimeStats& acc, const hs::RuntimeStats& before,
               const hs::RuntimeStats& after);

/// What the traced phase learns from TraceRecorder records.
struct TraceDigest {
  std::vector<double> dispatch_wait_s;  ///< enqueue -> dispatch, computes
  /// Service time of computes on their stream's worker: from dispatch, or
  /// from the stream's previous completion if later, to completion.
  std::vector<double> exec_s;
  std::vector<double> xfer_s;  ///< the same for transfers that moved bytes
  std::map<std::string, double> kernel_flops;   ///< by kernel label
  std::map<std::string, double> kernel_span_s;  ///< by kernel label
  double compute_busy_s = 0.0;
  double copier_busy_s = 0.0;
  std::uint64_t defers = 0;  ///< governor "defer" events
  double wall_s = 0.0;       ///< summed wall time of the traced ops
};

/// Folds a trace's records into `digest` (wall_s is the caller's).
void absorb(const hs::TraceRecorder& trace, TraceDigest& digest);

/// State of the traced phase, handed to each op. Workloads record their
/// bench-side spans here and attach a recorder to their runtime: `trace`
/// when the runtime outlives the op, a per-op one folded in with absorb()
/// when every op builds its own runtime.
struct Layer {
  Spans spans;
  TraceDigest digest;
  /// One recorder for the whole traced phase: the recorder indexes its
  /// records by action id, so a fresh one per op on a long-lived runtime
  /// would cost O(actions admitted so far) per op. Folded into `digest`
  /// when the phase ends.
  hs::TraceRecorder trace;
  hs::RuntimeStats stats;  ///< counter deltas over the traced ops
  std::size_t ops = 0;
  /// Per-layer values only a workload can compute (sim twin, service
  /// counters, ...), by metric name.
  std::map<std::string, double> extra;
};

/// One workload of the benchmark. The harness builds it, times setup()
/// (several times, fresh object each), then runs op() in a closed loop:
/// one client, one client thread, the next op only after the last ends.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Everything before the first timed op: runtime construction, input
  /// generation, buffer registration, capture and the warm-up op.
  /// Returns false when the warm-up op's output check failed.
  virtual bool setup(Spans& setup_spans) = 0;
  /// Untimed checks after the last set-up, before the loop: reference
  /// comparisons and cross-seed repeats. Returns false when one failed.
  virtual bool check_setup() = 0;
  /// One op. Returns whether its outputs checked out; may throw. `layer`
  /// is set in the traced phase only. `op_seconds` receives the op's
  /// wall time, which excludes preparing and checking its data.
  virtual bool op(Layer* layer, double& op_seconds) = 0;
  /// Threads the runtime had spawned, counted after the warm-up op.
  [[nodiscard]] virtual std::size_t runtime_threads() const = 0;
  /// Compute worker threads of one runtime (the denominator of
  /// core.worker_busy_share).
  [[nodiscard]] virtual std::size_t compute_workers() const = 0;
  /// Per-layer values that need the whole run (sim twin, self-checks).
  virtual void finish_layers(Layer& layer) = 0;
};

/// The executor shape every workload uses: one worker per card stream,
/// one copier, so the runtime never spawns more threads than cores.
[[nodiscard]] inline hs::ThreadedExecutorConfig executor_config() {
  return hs::ThreadedExecutorConfig{.max_workers_per_domain = 2,
                                    .transfer_workers = 1};
}

/// A threaded runtime on `platform` with executor_config().
[[nodiscard]] inline std::unique_ptr<hs::Runtime> make_runtime(
    hs::PlatformDesc platform) {
  hs::RuntimeConfig config;
  config.platform = std::move(platform);
  return std::make_unique<hs::Runtime>(
      config, std::make_unique<hs::ThreadedExecutor>(executor_config()));
}

/// Host with one worker plus one card with two: the platform of every
/// workload (cholesky_ooc adds a memory budget to the card).
[[nodiscard]] inline hs::PlatformDesc bench_platform() {
  return hs::PlatformDesc::host_plus_cards(1, 1, 2);
}

/// Threads of this process right now (/proc/self/task entries).
[[nodiscard]] std::size_t process_threads();

std::unique_ptr<Workload> make_cholesky_ooc(std::uint64_t seed);
std::unique_ptr<Workload> make_dag_storm(std::uint64_t seed);
std::unique_ptr<Workload> make_tenant_replay(std::uint64_t seed);

}  // namespace perf
