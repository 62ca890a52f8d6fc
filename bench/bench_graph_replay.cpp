// Task-graph capture & replay: the amortization story end to end.
//
// Graph replay must be a pure host-side change — same schedule, same
// virtual time, same numerics — that resolves operands once at capture
// and re-admits the nodes through the eager admission path. The first
// two tables replay the paper's iterative workloads (RTM timestep loop,
// CG iteration loop) and show virtual time unchanged; "replay edges"
// counts the dependence edges admission wired into replayed actions
// (stats().deps_reused). The third exercises the offline passes a
// captured graph makes possible at all (transfer coalescing,
// redundant-transfer elimination, critical-path attribution).

#include <cstdio>
#include <vector>

#include "apps/cg.hpp"
#include "apps/rtm.hpp"
#include "apps/tiled_matrix.hpp"
#include "bench_util.hpp"
#include "common/json_report.hpp"
#include "common/rng.hpp"
#include "graph/capture.hpp"
#include "graph/passes.hpp"
#include "graph/replay.hpp"
#include "hsblas/reference.hpp"

namespace hs::bench {
namespace {

void rtm_table() {
  apps::RtmConfig config;
  config.nx = 32;
  config.ny = 32;
  config.nz = 128;
  config.steps = 8;
  config.ranks = 4;
  config.scheme = apps::RtmScheme::pipelined;

  Table table("RTM pipelined, 4 ranks on 4 KNCs, 8 timesteps: eager vs "
              "graph replay");
  table.header({"variant", "virtual s", "graphs", "replays", "replay edges"});
  for (const bool replay : {false, true}) {
    auto rt = sim_runtime(sim::hsw_plus_knc(4));
    const double seconds = replay ? apps::run_rtm_graph(*rt, config).seconds
                                  : apps::run_rtm(*rt, config).seconds;
    const RuntimeStats& stats = rt->stats();
    table.row({replay ? "graph replay" : "eager", fmt(seconds, 6),
               std::to_string(stats.graphs_captured),
               std::to_string(stats.graph_replays),
               std::to_string(stats.deps_reused)});
  }
  table.print();
  std::puts("replay reuses the captured timestep verbatim (identical "
            "virtual time); levels rotate by buffer rebinding.");
}

void cg_table() {
  const std::size_t n = 96;
  Rng rng(17);
  blas::Matrix dense(n, n);
  dense.make_spd(rng);
  std::vector<double> solution(n);
  for (auto& v : solution) {
    v = rng.uniform(-1.0, 1.0);
  }
  std::vector<double> b(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      b[i] += dense(i, j) * solution[j];
    }
  }
  const apps::TiledMatrix a = apps::TiledMatrix::from_dense(dense, 24);

  apps::CgConfig config;
  config.max_iterations = 80;
  config.tolerance = 1e-16;

  Table table("CG 96x96 on 1 KNC: eager vs per-phase graph replay");
  table.header({"variant", "iterations", "virtual s", "graphs", "replays",
                "replay edges"});
  for (const bool replay : {false, true}) {
    auto rt = sim_runtime(sim::hsw_plus_knc(1), true,
                          /*execute_payloads=*/true);
    std::vector<double> x(n, 0.0);
    const apps::CgStats stats =
        replay ? apps::run_cg_graph(*rt, config, a, b, x)
               : apps::run_cg(*rt, config, a, b, x);
    const RuntimeStats& rs = rt->stats();
    table.row({replay ? "graph replay" : "eager",
               std::to_string(stats.iterations), fmt(stats.seconds, 6),
               std::to_string(rs.graphs_captured),
               std::to_string(rs.graph_replays),
               std::to_string(rs.deps_reused)});
  }
  table.print();
  std::puts("three captured phase graphs; alpha/beta flow through host "
            "memory, so the same graphs serve every iteration.");
}

/// Offline passes on a captured upload pipeline: each tile is uploaded
/// as two adjacent half-tile transfers (as a strided packer would emit),
/// tile 0 is re-uploaded untouched, then every tile is consumed by a
/// compute. Redundancy elimination kills the stale re-uploads, then
/// coalescing merges the contiguous halves; the per-stage metric is
/// total modeled work (per-transfer fixed latency is what the passes
/// claw back). The critical-path report attributes the final chain.
void passes_table() {
  constexpr std::size_t kTiles = 8;
  constexpr std::size_t kTileElems = 1u << 15;  // 256 KB per tile
  auto rt = sim_runtime(sim::hsw_plus_knc(1));
  std::vector<double> data(kTiles * kTileElems, 0.0);
  const BufferId id =
      rt->buffer_create(data.data(), data.size() * sizeof(double));
  rt->buffer_instantiate(id, DomainId{1});
  const StreamId s = rt->stream_create(DomainId{1}, CpuMask::first_n(240));

  const StreamId streams[] = {s};
  graph::GraphBuilder builder(*rt, streams);
  constexpr std::size_t kHalf = kTileElems / 2 * sizeof(double);
  auto upload_tile = [&builder, &data, s](std::size_t t) {
    double* tile = data.data() + t * kTileElems;
    (void)builder.transfer(s, tile, kHalf, XferDir::src_to_sink);
    (void)builder.transfer(s, tile + kTileElems / 2, kHalf,
                           XferDir::src_to_sink);
  };
  for (std::size_t t = 0; t < kTiles; ++t) {
    upload_tile(t);
  }
  upload_tile(0);  // stale re-upload: nothing wrote tile 0 in between
  for (std::size_t t = 0; t < kTiles; ++t) {
    ComputePayload p;
    p.kernel = "consume";
    p.flops = 2e6;
    p.body = [](TaskContext&) {};
    const OperandRef ops[] = {{data.data() + t * kTileElems,
                               kTileElems * sizeof(double), Access::in}};
    (void)builder.compute(s, std::move(p), ops);
  }
  graph::TaskGraph graph = builder.finish();

  Table table("Offline graph passes (8-tile upload pipeline + stale "
              "re-upload of tile 0)");
  table.header({"stage", "nodes", "edges", "modeled work ms"});
  auto report_row = [&table, &graph](const char* stage) {
    double work = 0.0;
    for (const graph::GraphNode& node : graph.nodes) {
      work += graph::node_cost(node, {});
    }
    table.row({stage, std::to_string(graph.size()),
               std::to_string(graph.edge_count()), fmt(work * 1e3, 3)});
  };
  report_row("captured");
  const std::size_t dropped = graph::drop_redundant_transfers(graph, rt.get());
  report_row("drop_redundant_transfers");
  const std::size_t merged = graph::coalesce_transfers(graph, rt.get());
  report_row("coalesce_transfers");
  table.print();
  std::printf("dropped %zu redundant uploads, merged %zu adjacent "
              "transfers; each merge saves one fixed link latency.\n\n",
              dropped, merged);
  std::fputs(
      graph::to_string(graph::critical_path(graph), graph).c_str(),
      stdout);
}

}  // namespace
}  // namespace hs::bench

int main() {
  hs::bench::rtm_table();
  hs::bench::cg_table();
  hs::bench::passes_table();
  hs::report::write_json("graph_replay");
  return 0;
}
