// §III "Layering" overheads:
//   * "hStreams' performance overheads are less than 5% for data
//     transfers above 1MB. It has 20-30us of overhead for transfers
//     under 128KB."
//   * "The COI overheads are negligible when a pool of 2MB buffers were
//     used. When they were not enabled, as in the OmpSs case, the COI
//     allocation overheads were significant."
//   * "OmpSs ends up inducing overheads on top of hStreams of 15-50% for
//     matrices that are 4800-10000 elements on a side."

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "apps/tiled_matrix.hpp"
#include "bench_util.hpp"
#include "common/json_report.hpp"
#include "graph/capture.hpp"
#include "graph/replay.hpp"
#include "hsblas/kernels.hpp"
#include "ompss/ompss.hpp"

namespace hs::bench {
namespace {

/// Measured transfer time for one h2d transfer of `bytes` in a fresh
/// runtime (pool pre-warmed), vs the pure bandwidth term.
void transfer_overhead_table() {
  Table table("Transfer overhead vs size (modeled link: 25us + B/6.5GB/s)");
  table.header({"size", "transfer us", "overhead us", "overhead %"});
  for (const std::size_t kb :
       {4u, 16u, 64u, 128u, 512u, 1024u, 4096u, 16384u}) {
    const std::size_t bytes = kb * 1024;
    auto rt = sim_runtime(sim::hsw_plus_knc(1));
    std::vector<double> data(bytes / sizeof(double));
    const BufferId id = rt->buffer_create(data.data(), bytes);
    rt->buffer_instantiate(id, DomainId{1});
    const StreamId s = rt->stream_create(DomainId{1}, CpuMask::first_n(240));
    const double t0 = rt->now();
    (void)rt->enqueue_transfer(s, data.data(), bytes, XferDir::src_to_sink);
    rt->synchronize();
    const double total = rt->now() - t0;
    const double ideal = static_cast<double>(bytes) / 6.5e9;
    table.row({std::to_string(kb) + " KB", fmt(total * 1e6, 1),
               fmt((total - ideal) * 1e6, 1),
               fmt(100.0 * (total - ideal) / total, 1) + "%"});
  }
  table.print();
  std::puts("paper: 20-30us overhead under 128KB; <5% above 1MB.");
}

void pool_table() {
  Table table("COI-style 2MB buffer pool (100 x 8MB transfers)");
  table.header({"pool", "total s", "modeled alloc s", "pool misses"});
  for (const bool enabled : {true, false}) {
    auto rt = sim_runtime(sim::hsw_plus_knc(1), enabled);
    std::vector<double> data(1 << 20);  // 8 MB
    const BufferId id =
        rt->buffer_create(data.data(), data.size() * sizeof(double));
    rt->buffer_instantiate(id, DomainId{1});
    const StreamId s = rt->stream_create(DomainId{1}, CpuMask::first_n(240));
    const double t0 = rt->now();
    for (int i = 0; i < 100; ++i) {
      (void)rt->enqueue_transfer(s, data.data(), data.size() * sizeof(double),
                                 XferDir::src_to_sink);
    }
    rt->synchronize();
    const auto& stats = rt->transfer_pool().stats();
    table.row({enabled ? "enabled" : "disabled", fmt(rt->now() - t0, 4),
               fmt(stats.modeled_alloc_seconds, 4),
               std::to_string(stats.misses)});
  }
  table.print();
  std::puts("paper: negligible with the pool; significant without (the "
            "OmpSs configuration).");
}

/// OmpSs-on-hStreams overhead relative to raw hStreams for tiled matmul
/// at Cholesky-bench sizes (§III reports 15-50% at 4800-10000).
void ompss_overhead_table() {
  Table table("OmpSs overhead on top of hStreams (tiled matmul, 1 KNC)");
  table.header({"N", "raw hStreams s", "OmpSs s", "overhead %"});
  for (const std::size_t n : {4800u, 6400u, 8000u, 10000u}) {
    const std::size_t tile = 600;  // fine OmpSs tiling: task count grows with n
    double raw = 0.0;
    double layered = 0.0;
    for (const bool with_overhead : {false, true}) {
      auto rt = sim_runtime(sim::hsw_plus_knc(1),
                            /*transfer_pool=*/!with_overhead);
      ompss::OmpssConfig config;
      config.streams_per_device = 4;
      config.task_overhead_s = with_overhead ? 400e-6 : 0.0;
      config.edge_overhead_s = 0.0;
      ompss::OmpssRuntime omp(*rt, config);
      apps::TiledMatrix a = apps::TiledMatrix::phantom(n, tile);
      apps::TiledMatrix b = apps::TiledMatrix::phantom(n, tile);
      apps::TiledMatrix c = apps::TiledMatrix::phantom(n, tile);
      for (apps::TiledMatrix* m : {&a, &b, &c}) {
        for (std::size_t j = 0; j < m->col_tiles(); ++j) {
          for (std::size_t i = 0; i < m->row_tiles(); ++i) {
            omp.register_region(m->tile_ptr(i, j), m->tile_bytes(i, j));
          }
        }
      }
      const double t0 = rt->now();
      for (std::size_t p = 0; p < c.col_tiles(); ++p) {
        for (std::size_t k = 0; k < a.col_tiles(); ++k) {
          for (std::size_t i = 0; i < a.row_tiles(); ++i) {
            omp.task("dgemm", blas::gemm_flops(tile, tile, tile),
                     [](TaskContext&) {},
                     {{a.tile_ptr(i, k), a.tile_bytes(i, k), Access::in},
                      {b.tile_ptr(k, p), b.tile_bytes(k, p), Access::in},
                      {c.tile_ptr(i, p), c.tile_bytes(i, p),
                       k == 0 ? Access::out : Access::inout}});
          }
        }
      }
      omp.fetch_all();
      (with_overhead ? layered : raw) = rt->now() - t0;
    }
    table.row({std::to_string(n), fmt(raw, 4), fmt(layered, 4),
               fmt(100.0 * (layered - raw) / raw, 1) + "%"});
  }
  table.print();
  std::puts("paper: OmpSs induces 15-50% on top of hStreams at 4800-10000.");
}

/// Section VII future work: synchronous sink-side allocation vs the
/// "forthcoming" asynchronous form, as an enqueue-able action.
void async_alloc_table() {
  Table table("Device allocation: synchronous (MPSS 3.6) vs asynchronous "
              "(section VII forthcoming) - 8 x 32MB alloc+upload");
  table.header({"mode", "total s"});
  constexpr std::size_t kBuffers = 8;
  constexpr std::size_t kElems = 4 << 20;  // 32 MB
  for (const bool synchronous : {true, false}) {
    auto rt = sim_runtime(sim::hsw_plus_knc(1));
    std::vector<std::unique_ptr<double[]>> storage;
    std::vector<BufferId> ids;
    for (std::size_t b = 0; b < kBuffers; ++b) {
      storage.push_back(std::unique_ptr<double[]>(new double[kElems]));
      ids.push_back(
          rt->buffer_create(storage.back().get(), kElems * sizeof(double)));
    }
    std::vector<StreamId> streams;
    for (const CpuMask& mask : CpuMask::partition(240, 4)) {
      streams.push_back(rt->stream_create(DomainId{1}, mask));
    }
    const double t0 = rt->now();
    for (std::size_t b = 0; b < kBuffers; ++b) {
      const StreamId s = streams[b % streams.size()];
      auto done = rt->enqueue_alloc(s, ids[b]);
      if (synchronous) {
        const std::shared_ptr<EventState> evs[] = {done};
        rt->event_wait_host(evs);
      }
      (void)rt->enqueue_transfer(s, storage[b].get(),
                                 kElems * sizeof(double),
                                 XferDir::src_to_sink);
    }
    rt->synchronize();
    table.row({synchronous ? "synchronous" : "asynchronous",
               fmt(rt->now() - t0, 4)});
  }
  table.print();
  std::puts("paper (section VII): synchronous MIC-side allocation was the "
            "bottleneck this feature removes.");
}

/// Per-action host-side cost of getting work into a stream: eager
/// enqueue (validation, operand resolution, dependence analysis) vs
/// replay of a captured graph, whose nodes carry resolved operands and
/// re-enter through the same admission path (Runtime::submit). The
/// workload is N independent three-operand computes (the RTM slab
/// shape) in one relaxed-FIFO stream. These rows are the evidence that
/// replay needs no admission path of its own (DESIGN.md "One admission
/// path"). Wall-clock host time; the sim backend keeps virtual time
/// frozen during the burst so only front-end cost is measured.
void graph_replay_table() {
  Table table("Enqueue cost: eager vs graph replay "
              "(N independent 3-operand computes, one stream)");
  table.header({"N", "eager us/action", "replay us/action", "speedup"});
  using clock = std::chrono::steady_clock;
  // HS_BENCH_QUICK=1 (the CI perf-smoke job): fewer reps, small-N rows
  // only. Row keys stay a subset of the full sweep so the regression
  // check can compare either run against the committed baseline.
  const bool quick = quick_mode();
  const int kReps = quick ? 8 : 25;
  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{64u, 256u}
            : std::vector<std::size_t>{64u, 256u, 512u, 1024u};
  std::vector<std::pair<double, std::size_t>> speedups;  ///< (eager/replay, N)
  for (const std::size_t n : sizes) {
    auto rt = sim_runtime(sim::hsw_plus_knc(1));
    std::vector<double> data(3 * n);
    const BufferId id =
        rt->buffer_create(data.data(), 3 * n * sizeof(double));
    rt->buffer_instantiate(id, DomainId{1});
    const StreamId s = rt->stream_create(DomainId{1}, CpuMask::first_n(240));
    auto enqueue_all = [&rt, &data, s, n] {
      for (std::size_t i = 0; i < n; ++i) {
        ComputePayload p;
        p.kernel = "nop";
        p.body = [](TaskContext&) {};
        const OperandRef ops[] = {
            {&data[3 * i], sizeof(double), Access::in},
            {&data[3 * i + 1], sizeof(double), Access::in},
            {&data[3 * i + 2], sizeof(double), Access::inout}};
        (void)rt->enqueue_compute(s, std::move(p), ops);
      }
    };

    double eager_s = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = clock::now();
      enqueue_all();
      eager_s += std::chrono::duration<double>(clock::now() - t0).count();
      rt->synchronize();
    }

    graph::TaskGraph captured = [&] {
      const StreamId streams[] = {s};
      graph::GraphCapture capture(*rt, streams);
      enqueue_all();
      return capture.finish();
    }();
    graph::GraphExec exec(*rt, std::move(captured));
    double replay_s = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = clock::now();
      (void)exec.launch();
      replay_s += std::chrono::duration<double>(clock::now() - t0).count();
      rt->synchronize();
    }

    const double per_action = 1e6 / static_cast<double>(kReps) /
                              static_cast<double>(n);
    table.row({std::to_string(n), fmt(eager_s * per_action, 3),
               fmt(replay_s * per_action, 3),
               fmt(eager_s / replay_s, 1) + "x"});
    speedups.emplace_back(eager_s / replay_s, n);
  }
  table.print();
  // The sentence states what the rows above measured.
  const auto [lo, hi] = std::minmax_element(speedups.begin(), speedups.end());
  std::printf("replay skips operand resolution only: eager costs %.1fx "
              "(N=%zu) to %.1fx (N=%zu) replay's per-action cost.\n",
              lo->first, lo->second, hi->first, hi->second);
}

}  // namespace
}  // namespace hs::bench

int main() {
  hs::bench::transfer_overhead_table();
  hs::bench::pool_table();
  hs::bench::ompss_overhead_table();
  hs::bench::async_alloc_table();
  hs::bench::graph_replay_table();
  hs::report::write_json("overheads");
  return 0;
}
