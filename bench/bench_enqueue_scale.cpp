// Admission-path scaling: per-action host-side enqueue cost as the
// stream count, window depth and operand count grow.
//
// The workload is the dependence-analysis stress shape: per stream, one
// gate-range writer followed by readers of the gate that write disjoint
// private ranges. Nothing completes during the burst (virtual time is
// frozen between synchronize() calls), so the window is exactly as deep
// as the burst — the legacy pairwise scan pays O(depth) operand
// intersections per admission (O(depth^2) per burst) while the interval
// index resolves each admission from a handful of segment lookups.
//
// Each configuration is measured twice in-process: with the per-buffer
// dependence index (the default) and with RuntimeConfig::dep_legacy_scan
// (the pre-index path, same as HS_CONFIG=dep_legacy_scan=1). The
// acceptance target for the index is >=2x lower per-action cost at
// window depth >= 64 with >= 4 streams.
//
// A second table times the shapes whose edges the index prunes — a
// same-tile `inout` chain (Cholesky's trailing updates) and many readers
// of a tile followed by one writer — from window depth 64 to 4096 on
// both executors. A stream-wide gate (an event wait fired after the
// burst) keeps every action incomplete, so each admission faces the
// whole burst as its window. The target is a flat per-action cost: depth
// 4096 within 2x of depth 64 (gated by bench/check_perf_smoke.py).
//
// HS_BENCH_QUICK=1 shrinks the sweeps and rep counts for CI smoke runs.

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "common/json_report.hpp"
#include "core/event.hpp"
#include "core/threaded_executor.hpp"

namespace hs::bench {
namespace {

struct Shape {
  std::size_t streams;
  /// Minimum incomplete-window depth every timed admission faces (the
  /// untimed first half of each burst fills the window this deep).
  std::size_t depth;
  std::size_t operands;  ///< operands per action (1 = private write only)
};

/// Fresh sim runtime with the chosen dependence-analysis path. Routed
/// through SimRuntimePtr so the dep counters land in the JSON report.
SimRuntimePtr scale_runtime(const sim::SimPlatform& platform, bool legacy) {
  RuntimeConfig config;
  config.platform = platform.desc;
  config.device_link = platform.link;
  config.domain_links = platform.domain_links;
  config.dep_legacy_scan = legacy;
  return SimRuntimePtr(new Runtime(
      config, std::make_unique<sim::SimExecutor>(platform, false)));
}

/// Wall-clock seconds per enqueued action for one (shape, path) pair.
double per_action_seconds(const Shape& shape, bool legacy, int reps) {
  using clock = std::chrono::steady_clock;
  const sim::SimPlatform platform = sim::hsw_plus_knc(1);
  auto rt = scale_runtime(platform, legacy);

  // Arena layout: per stream, one gate slot then 2*depth private slots
  // (untimed window-fill half plus the timed half).
  const std::size_t per_stream = 1 + 2 * shape.depth;
  std::vector<double> arena(shape.streams * per_stream);
  const BufferId arena_id =
      rt->buffer_create(arena.data(), arena.size() * sizeof(double));
  rt->buffer_instantiate(arena_id, DomainId{1});

  std::vector<StreamId> streams;
  for (const CpuMask& mask : CpuMask::partition(240, shape.streams)) {
    streams.push_back(rt->stream_create(DomainId{1}, mask));
  }

  // Min over reps: enqueue cost is a deterministic amount of work, so
  // the fastest burst is the least-perturbed measurement of it. The
  // first (untimed) half of each burst fills the windows to `depth`, so
  // every timed admission analyzes against a window at least that deep.
  double best_s = std::numeric_limits<double>::infinity();
  for (int rep = -1; rep < reps; ++rep) {  // rep -1 is an untimed warmup
    auto t0 = clock::now();
    for (std::size_t a = 0; a < 2 * shape.depth; ++a) {
      if (a == shape.depth) {
        t0 = clock::now();
      }
      for (std::size_t s = 0; s < shape.streams; ++s) {
        double* base = &arena[s * per_stream];
        // Private write keeps actions mutually independent; the first
        // action writes the gate, every later one reads it, so each
        // admission owes exactly one edge (to the gate writer) but the
        // legacy path still scans the whole window to find it.
        OperandRef ops[8];
        ops[0] = {base + 1 + a, sizeof(double), Access::out};
        for (std::size_t k = 1; k < shape.operands; ++k) {
          ops[k] = {base, sizeof(double),
                    a == 0 && k == 1 ? Access::out : Access::in};
        }
        ComputePayload payload;
        payload.kernel = "nop";
        payload.body = [](TaskContext&) {};
        (void)rt->enqueue_compute(
            streams[s], std::move(payload),
            std::span<const OperandRef>(ops, shape.operands));
      }
    }
    if (rep >= 0) {
      best_s = std::min(
          best_s, std::chrono::duration<double>(clock::now() - t0).count());
    }
    rt->synchronize();  // drain the windows before the next burst
  }
  return best_s / static_cast<double>(shape.streams * shape.depth);
}

void enqueue_scale_table() {
  const bool quick = quick_mode();
  const int reps = quick ? 5 : 20;
  std::vector<Shape> shapes;
  if (quick) {
    shapes = {{4, 64, 3}, {4, 128, 3}};
  } else {
    for (const std::size_t streams : {1u, 2u, 4u, 8u}) {
      for (const std::size_t depth : {16u, 64u, 256u}) {
        for (const std::size_t operands : {1u, 3u}) {
          shapes.push_back({streams, depth, operands});
        }
      }
    }
  }

  Table table("Per-action enqueue cost: legacy pairwise scan vs interval "
              "index (sim, virtual time frozen during burst)");
  table.header({"streams", "depth", "operands", "legacy us/action",
                "index us/action", "speedup"});
  for (const Shape& shape : shapes) {
    const double legacy_s = per_action_seconds(shape, true, reps);
    const double index_s = per_action_seconds(shape, false, reps);
    table.row({std::to_string(shape.streams), std::to_string(shape.depth),
               std::to_string(shape.operands), fmt(legacy_s * 1e6, 3),
               fmt(index_s * 1e6, 3), fmt(legacy_s / index_s, 1) + "x"});
    // Acceptance rows: the dependence-analysis-bound shape (the paper's
    // 3-operand BLAS tasks) at deep windows on several streams. The
    // 1-operand rows are resolution-bound and reported for context.
    if (shape.streams >= 4 && shape.depth >= 64 && shape.operands >= 3) {
      report::note_counter("acceptance_shapes", 1);
      report::note_counter("acceptance_shapes_2x",
                           legacy_s / index_s >= 2.0 ? 1 : 0);
    }
  }
  table.print();
  std::puts("acceptance: index is >=2x cheaper per action at depth >= 64 "
            "with >= 4 streams.");
}

/// Dependence shapes whose redundant edges the index prunes.
enum class DepShape {
  chain,       ///< `depth` inout actions on one tile
  accumulate,  ///< `depth` readers of one tile, then one writer of it
};

struct ShapeCost {
  double us_per_action = 0.0;
  double steps_per_action = 0.0;  ///< dep_scan_steps per admission
  double edges_per_action = 0.0;  ///< dep_index_hits per admission
};

/// Min-of-reps wall-clock enqueue cost per admission of gated `shape`
/// bursts at window depth `depth`.
ShapeCost shape_cost(DepShape shape, std::size_t depth, bool threaded,
                     int reps) {
  using clock = std::chrono::steady_clock;
  const sim::SimPlatform platform = sim::hsw_plus_knc(1);
  RuntimeConfig config;
  std::unique_ptr<Executor> executor;
  if (threaded) {
    config.platform = PlatformDesc::host_plus_cards(2, 1, 2);
    executor = std::make_unique<ThreadedExecutor>();
  } else {
    config.platform = platform.desc;
    config.device_link = platform.link;
    executor = std::make_unique<sim::SimExecutor>(platform, false);
  }
  SimRuntimePtr rt(new Runtime(config, std::move(executor)));
  double tile = 0.0;
  const BufferId tile_id = rt->buffer_create(&tile, sizeof tile);
  rt->buffer_instantiate(tile_id, DomainId{1});
  const StreamId stream = rt->stream_create(DomainId{1}, CpuMask::first_n(2));
  const std::size_t actions =
      shape == DepShape::chain ? depth : depth + 1;

  // Every sample times the same number of admissions (4096) whatever the
  // depth — shallow windows as several bursts — so both ends of the
  // flatness ratio see the same exposure to timer and scheduler noise.
  const std::size_t bursts = std::max<std::size_t>(1, 4096 / depth);
  const auto n = static_cast<double>(bursts * actions);
  ShapeCost best;
  best.us_per_action = std::numeric_limits<double>::infinity();
  for (int rep = -1; rep < reps; ++rep) {  // rep -1 is an untimed warmup
    double seconds = 0.0;
    std::uint64_t steps = 0;
    std::uint64_t edges = 0;
    for (std::size_t burst = 0; burst < bursts; ++burst) {
      auto gate = std::make_shared<EventState>();
      (void)rt->enqueue_event_wait(stream, gate);
      const RuntimeStats before = rt->stats();
      const auto t0 = clock::now();
      for (std::size_t a = 0; a < actions; ++a) {
        const bool writes = shape == DepShape::chain || a == depth;
        const OperandRef op{&tile, sizeof tile,
                            writes ? Access::inout : Access::in};
        ComputePayload payload;
        payload.kernel = "nop";
        payload.body = [](TaskContext&) {};
        (void)rt->enqueue_compute(stream, std::move(payload),
                                  std::span(&op, 1));
      }
      seconds += std::chrono::duration<double>(clock::now() - t0).count();
      const RuntimeStats after = rt->stats();
      steps += after.dep_scan_steps - before.dep_scan_steps;
      edges += after.dep_index_hits - before.dep_index_hits;
      for (auto& callback : gate->fire()) {
        callback();
      }
      rt->synchronize();
    }
    if (rep >= 0 && seconds * 1e6 / n < best.us_per_action) {
      best.us_per_action = seconds * 1e6 / n;
      best.steps_per_action = static_cast<double>(steps) / n;
      best.edges_per_action = static_cast<double>(edges) / n;
    }
  }
  return best;
}

void dep_shape_table() {
  const bool quick = quick_mode();
  const int reps = quick ? 3 : 7;
  const std::vector<std::size_t> depths =
      quick ? std::vector<std::size_t>{64u, 4096u}
            : std::vector<std::size_t>{64u, 256u, 1024u, 4096u};
  Table table("Chain and accumulate enqueue cost vs window depth "
              "(index path, gated burst)");
  table.header({"executor", "shape", "depth", "us/action", "steps/action",
                "edges/action"});
  for (const bool threaded : {false, true}) {
    for (const DepShape shape : {DepShape::chain, DepShape::accumulate}) {
      for (const std::size_t depth : depths) {
        const ShapeCost cost = shape_cost(shape, depth, threaded, reps);
        table.row({threaded ? "threaded" : "sim",
                   shape == DepShape::chain ? "chain" : "accumulate",
                   std::to_string(depth), fmt(cost.us_per_action, 3),
                   fmt(cost.steps_per_action, 2),
                   fmt(cost.edges_per_action, 2)});
      }
    }
  }
  table.print();
  std::puts("target: per-action cost at depth 4096 within 2x of depth 64 "
            "for every executor and shape.");
}

}  // namespace
}  // namespace hs::bench

int main() {
  hs::bench::enqueue_scale_table();
  hs::bench::dep_shape_table();
  hs::report::write_json("enqueue_scale");
  return 0;
}
