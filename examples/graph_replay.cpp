// Task-graph capture & replay of an iterative loop.
//
// A ping-pong relaxation kernel runs many sweeps of the same three
// actions (upload boundary, compute, download result). Eagerly, every
// sweep pays validation and operand resolution per action. Here the
// sweep is captured ONCE as a TaskGraph — through the unmodified
// enqueue code — and then replayed per iteration: each node re-enters
// the runtime through the eager admission path, with the ping/pong
// roles rotated by buffer rebinding instead of recapturing.
//
// Build & run:  ./examples/graph_replay

#include <cstdio>
#include <vector>

#include "core/runtime.hpp"
#include "core/threaded_executor.hpp"
#include "graph/capture.hpp"
#include "graph/passes.hpp"
#include "graph/replay.hpp"

int main() {
  using namespace hs;

  RuntimeConfig config;
  config.platform = PlatformDesc::host_plus_cards(4, 1, 8);
  Runtime runtime(config, std::make_unique<ThreadedExecutor>());
  const DomainId card{1};
  const StreamId stream = runtime.stream_create(card, CpuMask::first_n(4));

  // Ping-pong state: each sweep reads `src` and writes `dst`, then the
  // buffers swap roles. n kept tiny so the output is checkable by eye.
  constexpr std::size_t kN = 8;
  // A heat spike in the middle: a linear ramp would be a fixed point of
  // the stencil, so this shape actually shows the sweeps diffusing it.
  std::vector<double> ping(kN, 0.0), pong(kN, 0.0);
  ping[kN / 2] = 8.0;
  const BufferId ping_id =
      runtime.buffer_create(ping.data(), kN * sizeof(double));
  const BufferId pong_id =
      runtime.buffer_create(pong.data(), kN * sizeof(double));
  runtime.buffer_instantiate(ping_id, card);
  runtime.buffer_instantiate(pong_id, card);

  // --- Capture one sweep through the ordinary enqueue front-end. -----------
  const StreamId captured_streams[] = {stream};
  graph::GraphCapture capture(runtime, captured_streams);

  (void)runtime.enqueue_transfer(stream, ping.data(), kN * sizeof(double),
                                 XferDir::src_to_sink);
  ComputePayload sweep;
  sweep.kernel = "relax";
  sweep.body = [](TaskContext& ctx) {
    // Bodies written against *operands* (not raw pointers) survive
    // buffer rebinding: operand 0/1 resolve to whatever buffers this
    // replay bound them to.
    const double* src = ctx.operand_as<double>(0);
    double* dst = ctx.operand_as<double>(1);
    dst[0] = src[0];
    dst[kN - 1] = src[kN - 1];
    for (std::size_t i = 1; i + 1 < kN; ++i) {
      dst[i] = 0.5 * src[i] + 0.25 * (src[i - 1] + src[i + 1]);
    }
  };
  const OperandRef ops[] = {
      {ping.data(), kN * sizeof(double), Access::in},
      {pong.data(), kN * sizeof(double), Access::out}};
  (void)runtime.enqueue_compute(stream, std::move(sweep), ops);
  (void)runtime.enqueue_transfer(stream, pong.data(), kN * sizeof(double),
                                 XferDir::sink_to_src);

  graph::TaskGraph graph = capture.finish();
  std::printf("captured %zu nodes, %zu pre-resolved edges (graph id %u)\n",
              graph.size(), graph.edge_count(), graph.id);

  // Offline analysis only a captured graph allows: the modeled critical
  // path, per-domain attribution, slack.
  std::fputs(to_string(graph::critical_path(graph), graph).c_str(), stdout);

  // --- Replay: one pre-linked batch per sweep, roles swapped by bind(). ----
  graph::GraphExec exec(runtime, std::move(graph));
  constexpr int kSweeps = 6;
  for (int s = 0; s < kSweeps; ++s) {
    if (s % 2 == 0) {
      exec.clear_bindings();  // capture-time roles: ping -> pong
    } else {
      exec.bind(ping_id, pong_id);  // swapped: pong -> ping
      exec.bind(pong_id, ping_id);
    }
    (void)exec.launch();
    runtime.synchronize();
  }

  const double* result = (kSweeps % 2 == 0) ? ping.data() : pong.data();
  std::printf("after %d replayed sweeps:", kSweeps);
  for (std::size_t i = 0; i < kN; ++i) {
    std::printf(" %.3f", result[i]);
  }
  std::printf("\n");

  const RuntimeStats stats = runtime.stats();
  std::printf("stats: %llu graphs captured, %llu replays, %llu dependence "
              "edges wired into replayed actions\n",
              static_cast<unsigned long long>(stats.graphs_captured),
              static_cast<unsigned long long>(stats.graph_replays),
              static_cast<unsigned long long>(stats.deps_reused));
  return 0;
}
