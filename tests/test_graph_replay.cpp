// Tests for the task-graph subsystem (src/graph): capture through the
// Runtime front-end, the GraphBuilder API, optimization passes, replay
// through Runtime::submit (the eager admission path) with buffer
// rebinding, and the graph-replay app variants. The headline claims are
// checked directly: replay is bit-identical to eager execution on both
// backends, and on the simulator the two produce identical traces —
// same dependence structure, same virtual timestamps.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "apps/cg.hpp"
#include "apps/rtm.hpp"
#include "apps/tiled_matrix.hpp"
#include "common/rng.hpp"
#include "core/runtime.hpp"
#include "core/threaded_executor.hpp"
#include "core/trace.hpp"
#include "graph/capture.hpp"
#include "graph/passes.hpp"
#include "graph/replay.hpp"
#include "hsblas/reference.hpp"
#include "sim/platform.hpp"
#include "sim/sim_executor.hpp"

namespace hs::graph {
namespace {

using apps::CgConfig;
using apps::CgStats;
using apps::RtmConfig;
using apps::RtmScheme;
using apps::TiledMatrix;
using blas::Matrix;

std::unique_ptr<Runtime> threaded_runtime(std::size_t cards,
                                          FaultPlan faults = {}) {
  RuntimeConfig config;
  config.platform = PlatformDesc::host_plus_cards(4, cards, 8);
  config.faults = std::move(faults);
  return std::make_unique<Runtime>(config,
                                   std::make_unique<ThreadedExecutor>());
}

std::unique_ptr<Runtime> sim_runtime(std::size_t cards,
                                     FaultPlan faults = {}) {
  const sim::SimPlatform platform = sim::hsw_plus_knc(cards);
  RuntimeConfig config;
  config.platform = platform.desc;
  config.device_link = platform.link;
  config.faults = std::move(faults);
  return std::make_unique<Runtime>(
      config, std::make_unique<sim::SimExecutor>(platform, true));
}

std::unique_ptr<Runtime> make_runtime(bool simulated, std::size_t cards,
                                      FaultPlan faults = {}) {
  return simulated ? sim_runtime(cards, std::move(faults))
                   : threaded_runtime(cards, std::move(faults));
}

/// SPD system with a known solution (same construction as test_apps_cg).
struct Problem {
  TiledMatrix a;
  std::vector<double> b;
};

Problem make_problem(std::size_t n, std::size_t tile, std::uint64_t seed) {
  Rng rng(seed);
  Matrix dense(n, n);
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
  return {TiledMatrix::from_dense(dense, tile), std::move(b)};
}

ComputePayload doubler(std::size_t count) {
  ComputePayload p;
  p.kernel = "double";
  p.body = [count](TaskContext& ctx) {
    double* v = ctx.operand_as<double>(0);
    for (std::size_t i = 0; i < count; ++i) {
      v[i] *= 2.0;
    }
  };
  return p;
}

// ---- Capture --------------------------------------------------------------

TEST(GraphCapture, RecordsThroughRuntimeFrontEnd) {
  auto rt = sim_runtime(1);
  std::vector<double> x(64, 1.0);
  const BufferId buf = rt->buffer_create(x.data(), 64 * sizeof(double));
  const StreamId s1 = rt->stream_create(DomainId{1}, CpuMask::first_n(2));
  const StreamId s2 = rt->stream_create(DomainId{1}, CpuMask::first_n(2));

  const std::uint64_t computes_before = rt->stats().computes_enqueued;
  const std::uint64_t transfers_before = rt->stats().transfers_enqueued;

  const StreamId captured[] = {s1, s2};
  GraphCapture capture(*rt, captured);
  (void)rt->enqueue_alloc(s1, buf);
  (void)rt->enqueue_transfer(s1, x.data(), 64 * sizeof(double),
                             XferDir::src_to_sink);
  const OperandRef ops[] = {{x.data(), 64 * sizeof(double), Access::inout}};
  const auto ev = rt->enqueue_compute(s1, doubler(64), ops);
  // A wait on a captured placeholder event resolves to an in-graph edge.
  (void)rt->enqueue_event_wait(s2, ev);
  TaskGraph graph = capture.finish();

  // Capture recorded instead of executing: nothing was admitted, nothing
  // was counted, and the host data is untouched.
  EXPECT_EQ(rt->stats().computes_enqueued, computes_before);
  EXPECT_EQ(rt->stats().transfers_enqueued, transfers_before);
  EXPECT_EQ(rt->stats().graphs_captured, 1u);
  EXPECT_DOUBLE_EQ(x[0], 1.0);

  ASSERT_EQ(graph.size(), 4u);
  EXPECT_GE(graph.id, 1u);
  EXPECT_EQ(graph.nodes[0].type, ActionType::alloc);
  EXPECT_EQ(graph.nodes[1].type, ActionType::transfer);
  EXPECT_EQ(graph.nodes[2].type, ActionType::compute);
  EXPECT_EQ(graph.nodes[3].type, ActionType::event_wait);
  EXPECT_EQ(graph.nodes[3].wait_node, 2u);
  EXPECT_EQ(graph.nodes[3].external_event, nullptr);
  // Same-stream relaxed-FIFO edges: the transfer conflicts with the
  // alloc's whole-range operand, the compute with both.
  EXPECT_EQ(graph.nodes[1].preds, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(graph.nodes[2].preds, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_GE(graph.edge_count(), 4u);
  graph.validate();
}

TEST(GraphCapture, UncapturedStreamsStayEager) {
  auto rt = threaded_runtime(1);
  std::vector<double> x(16, 3.0);
  const BufferId buf = rt->buffer_create(x.data(), 16 * sizeof(double));
  rt->buffer_instantiate(buf, DomainId{0});
  const StreamId cap = rt->stream_create(DomainId{1}, CpuMask::first_n(2));
  const StreamId eager = rt->stream_create(DomainId{0}, CpuMask::first_n(2));

  const StreamId captured[] = {cap};
  GraphCapture capture(*rt, captured);
  const OperandRef ops[] = {{x.data(), 16 * sizeof(double), Access::inout}};
  (void)rt->enqueue_compute(cap, doubler(16), ops);
  // The eager stream executes immediately even while a capture is live.
  (void)rt->enqueue_compute(eager, doubler(16), ops);
  rt->stream_synchronize(eager);
  EXPECT_DOUBLE_EQ(x[0], 6.0);
  EXPECT_EQ(capture.size(), 1u);
  TaskGraph graph = capture.finish();
  EXPECT_EQ(graph.size(), 1u);
}

TEST(GraphCapture, SecondConcurrentCaptureRefused) {
  auto rt = sim_runtime(1);
  const StreamId s = rt->stream_create(DomainId{1}, CpuMask::first_n(2));
  const StreamId captured[] = {s};
  GraphCapture first(*rt, captured);
  try {
    GraphCapture second(*rt, captured);
    FAIL() << "expected already_initialized";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::already_initialized);
  }
  (void)first.finish();
}

// ---- Builder + replay -----------------------------------------------------

TEST(GraphReplay, BuilderGraphExecutesAndRelaunches) {
  auto rt = threaded_runtime(1);
  std::vector<double> x(64);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<double>(i);
  }
  const BufferId buf = rt->buffer_create(x.data(), 64 * sizeof(double));
  const StreamId s = rt->stream_create(DomainId{1}, CpuMask::first_n(2));

  const StreamId streams[] = {s};
  GraphBuilder b(*rt, streams);
  (void)b.alloc(s, buf);
  (void)b.transfer(s, x.data(), 64 * sizeof(double), XferDir::src_to_sink);
  const OperandRef ops[] = {{x.data(), 64 * sizeof(double), Access::inout}};
  (void)b.compute(s, doubler(64), ops);
  (void)b.transfer(s, x.data(), 64 * sizeof(double), XferDir::sink_to_src);
  TaskGraph graph = b.finish();
  ASSERT_EQ(graph.size(), 4u);

  GraphExec exec(*rt, std::move(graph));
  (void)exec.launch();
  rt->synchronize();
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_DOUBLE_EQ(x[i], 2.0 * static_cast<double>(i));
  }
  // Relaunch re-uploads the (now doubled) host data and doubles again.
  (void)exec.launch();
  rt->synchronize();
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_DOUBLE_EQ(x[i], 4.0 * static_cast<double>(i));
  }
  EXPECT_EQ(rt->stats().graph_replays, 2u);
  EXPECT_GT(rt->stats().deps_reused, 0u);
}

TEST(GraphReplay, CrossStreamWaitOrdersReplayedWork) {
  auto rt = threaded_runtime(1);
  const StreamId s1 = rt->stream_create(DomainId{1}, CpuMask::first_n(2));
  const StreamId s2 = rt->stream_create(DomainId{1}, CpuMask::first_n(2));

  std::atomic<int> stage{0};
  std::atomic<bool> ordered{false};
  ComputePayload produce;
  produce.body = [&stage](TaskContext&) { stage.store(1); };
  ComputePayload consume;
  consume.body = [&stage, &ordered](TaskContext&) {
    ordered.store(stage.load() == 1);
  };

  const StreamId streams[] = {s1, s2};
  GraphBuilder b(*rt, streams);
  const std::uint32_t producer = b.compute(s1, std::move(produce), {});
  (void)b.wait(s2, producer);
  (void)b.compute(s2, std::move(consume), {});
  TaskGraph graph = b.finish();
  ASSERT_EQ(graph.nodes[1].wait_node, producer);

  GraphExec exec(*rt, std::move(graph));
  for (int round = 0; round < 3; ++round) {
    stage.store(0);
    ordered.store(false);
    (void)exec.launch();
    rt->synchronize();
    EXPECT_TRUE(ordered.load()) << "round " << round;
  }
}

TEST(GraphReplay, ExternalEventWaitedVerbatim) {
  auto rt = threaded_runtime(1);
  std::vector<double> x(8, 1.0);
  const BufferId buf = rt->buffer_create(x.data(), 8 * sizeof(double));
  rt->buffer_instantiate(buf, DomainId{1});
  const StreamId outside = rt->stream_create(DomainId{1}, CpuMask::first_n(2));
  const StreamId s = rt->stream_create(DomainId{1}, CpuMask::first_n(2));

  const OperandRef ops[] = {{x.data(), 8 * sizeof(double), Access::inout}};
  (void)rt->enqueue_transfer(outside, x.data(), 8 * sizeof(double),
                             XferDir::src_to_sink);
  const auto external = rt->enqueue_compute(outside, doubler(8), ops);

  const StreamId streams[] = {s};
  GraphBuilder b(*rt, streams);
  (void)b.wait_external(s, external);
  (void)b.compute(s, doubler(8), ops);
  TaskGraph graph = b.finish();
  ASSERT_EQ(graph.nodes[0].external_event, external);

  GraphExec exec(*rt, std::move(graph));
  (void)exec.launch();
  rt->synchronize();
  (void)rt->enqueue_transfer(s, x.data(), 8 * sizeof(double),
                             XferDir::sink_to_src);
  rt->synchronize();
  EXPECT_DOUBLE_EQ(x[0], 4.0);  // external doubler, then the replayed one
}

TEST(GraphReplay, BufferRebindingRedirectsOperandsAndTransfers) {
  auto rt = threaded_runtime(1);
  std::vector<double> x(32, 5.0);
  std::vector<double> y(32, 7.0);
  const BufferId bx = rt->buffer_create(x.data(), 32 * sizeof(double));
  const BufferId by = rt->buffer_create(y.data(), 32 * sizeof(double));
  const StreamId s = rt->stream_create(DomainId{1}, CpuMask::first_n(2));

  const StreamId streams[] = {s};
  GraphBuilder b(*rt, streams);
  (void)b.alloc(s, bx);
  (void)b.transfer(s, x.data(), 32 * sizeof(double), XferDir::src_to_sink);
  const OperandRef ops[] = {{x.data(), 32 * sizeof(double), Access::inout}};
  (void)b.compute(s, doubler(32), ops);
  (void)b.transfer(s, x.data(), 32 * sizeof(double), XferDir::sink_to_src);
  GraphExec exec(*rt, b.finish());

  (void)exec.launch();
  rt->synchronize();
  EXPECT_DOUBLE_EQ(x[0], 10.0);
  EXPECT_DOUBLE_EQ(y[0], 7.0);

  // Rebind the captured buffer to y: the same graph now round-trips and
  // doubles y, leaving x alone. The alloc node instantiates y on demand.
  exec.bind(bx, by);
  (void)exec.launch();
  rt->synchronize();
  EXPECT_DOUBLE_EQ(x[0], 10.0);
  EXPECT_DOUBLE_EQ(y[0], 14.0);

  exec.clear_bindings();
  (void)exec.launch();
  rt->synchronize();
  EXPECT_DOUBLE_EQ(x[0], 20.0);
  EXPECT_DOUBLE_EQ(y[0], 14.0);
}

TEST(GraphReplay, BindRejectsSizeMismatch) {
  auto rt = threaded_runtime(1);
  std::vector<double> x(32, 0.0);
  std::vector<double> small(16, 0.0);
  const BufferId bx = rt->buffer_create(x.data(), 32 * sizeof(double));
  const BufferId bs = rt->buffer_create(small.data(), 16 * sizeof(double));
  const StreamId s = rt->stream_create(DomainId{1}, CpuMask::first_n(2));

  const StreamId streams[] = {s};
  GraphBuilder b(*rt, streams);
  (void)b.alloc(s, bx);
  GraphExec exec(*rt, b.finish());
  try {
    exec.bind(bx, bs);
    FAIL() << "expected invalid_argument";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::invalid_argument);
  }
}

TEST(GraphReplay, StreamMappingRequiresMatchingDomain) {
  auto rt = threaded_runtime(2);
  const StreamId s1 = rt->stream_create(DomainId{1}, CpuMask::first_n(2));
  const StreamId s1b = rt->stream_create(DomainId{1}, CpuMask::first_n(2));
  const StreamId s2 = rt->stream_create(DomainId{2}, CpuMask::first_n(2));

  std::atomic<int> runs{0};
  ComputePayload tick;
  tick.body = [&runs](TaskContext&) { ++runs; };
  const StreamId streams[] = {s1};
  GraphBuilder b(*rt, streams);
  (void)b.compute(s1, std::move(tick), {});
  GraphExec exec(*rt, b.finish());

  try {
    exec.map_stream(s1, s2);  // different domain
    FAIL() << "expected invalid_argument";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::invalid_argument);
  }
  exec.map_stream(s1, s1b);  // same domain, same policy: fine
  (void)exec.launch();
  rt->synchronize();
  EXPECT_EQ(runs.load(), 1);
}

// ---- Passes ---------------------------------------------------------------

TEST(GraphPasses, CoalesceMergesAdjacentTransfers) {
  auto rt = threaded_runtime(1);
  std::vector<double> x(64);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<double>(i);
  }
  const BufferId buf = rt->buffer_create(x.data(), 64 * sizeof(double));
  const StreamId s = rt->stream_create(DomainId{1}, CpuMask::first_n(2));

  const StreamId streams[] = {s};
  GraphBuilder b(*rt, streams);
  (void)b.alloc(s, buf);
  (void)b.transfer(s, x.data(), 32 * sizeof(double), XferDir::src_to_sink);
  (void)b.transfer(s, x.data() + 32, 32 * sizeof(double),
                   XferDir::src_to_sink);
  const OperandRef ops[] = {{x.data(), 64 * sizeof(double), Access::inout}};
  (void)b.compute(s, doubler(64), ops);
  (void)b.transfer(s, x.data(), 64 * sizeof(double), XferDir::sink_to_src);
  TaskGraph graph = b.finish();
  ASSERT_EQ(graph.size(), 5u);

  EXPECT_EQ(coalesce_transfers(graph, rt.get()), 1u);
  EXPECT_EQ(graph.size(), 4u);
  EXPECT_EQ(rt->stats().transfers_coalesced, 1u);
  // The surviving upload covers the union range.
  ASSERT_EQ(graph.nodes[1].type, ActionType::transfer);
  EXPECT_EQ(graph.nodes[1].transfer.offset, 0u);
  EXPECT_EQ(graph.nodes[1].transfer.length, 64 * sizeof(double));
  graph.validate();

  // The optimized graph still computes the right answer.
  GraphExec exec(*rt, std::move(graph));
  (void)exec.launch();
  rt->synchronize();
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_DOUBLE_EQ(x[i], 2.0 * static_cast<double>(i));
  }
}

TEST(GraphPasses, DropRedundantTransferNeedsNoInterveningWriter) {
  auto rt = sim_runtime(1);
  std::vector<double> x(32, 1.0);
  const BufferId buf = rt->buffer_create(x.data(), 32 * sizeof(double));
  rt->buffer_instantiate(buf, DomainId{1});
  const StreamId s = rt->stream_create(DomainId{1}, CpuMask::first_n(2));
  const StreamId streams[] = {s};
  const OperandRef read_ops[] = {{x.data(), 32 * sizeof(double),
                                  Access::in}};
  const OperandRef write_ops[] = {{x.data(), 32 * sizeof(double),
                                   Access::inout}};

  {
    // Re-send with only a reader in between: the second upload is dead.
    GraphBuilder b(*rt, streams);
    (void)b.transfer(s, x.data(), 32 * sizeof(double), XferDir::src_to_sink);
    ComputePayload reader;
    reader.body = [](TaskContext&) {};
    (void)b.compute(s, std::move(reader), read_ops);
    (void)b.transfer(s, x.data(), 32 * sizeof(double), XferDir::src_to_sink);
    TaskGraph graph = b.finish();
    EXPECT_EQ(drop_redundant_transfers(graph), 1u);
    EXPECT_EQ(graph.size(), 2u);
    graph.validate();
  }
  {
    // A writer in between makes the re-send load-bearing: kept.
    GraphBuilder b(*rt, streams);
    (void)b.transfer(s, x.data(), 32 * sizeof(double), XferDir::src_to_sink);
    (void)b.compute(s, doubler(32), write_ops);
    (void)b.transfer(s, x.data(), 32 * sizeof(double), XferDir::src_to_sink);
    TaskGraph graph = b.finish();
    EXPECT_EQ(drop_redundant_transfers(graph), 0u);
    EXPECT_EQ(graph.size(), 3u);
  }
}

TEST(GraphPasses, CriticalPathReportsChainAndSlack) {
  auto rt = sim_runtime(1);
  std::vector<double> x(1024, 0.0);
  const BufferId buf = rt->buffer_create(x.data(), 1024 * sizeof(double));
  const StreamId s = rt->stream_create(DomainId{1}, CpuMask::first_n(2));

  const StreamId streams[] = {s};
  GraphBuilder b(*rt, streams);
  (void)b.alloc(s, buf);
  (void)b.transfer(s, x.data(), 1024 * sizeof(double), XferDir::src_to_sink);
  ComputePayload work = doubler(1024);
  work.flops = 1e6;
  const OperandRef ops[] = {{x.data(), 1024 * sizeof(double), Access::inout}};
  (void)b.compute(s, std::move(work), ops);
  (void)b.transfer(s, x.data(), 1024 * sizeof(double), XferDir::sink_to_src);
  const TaskGraph graph = b.finish();

  const CriticalPathReport report = critical_path(graph);
  ASSERT_EQ(report.earliest_finish.size(), graph.size());
  ASSERT_EQ(report.slack.size(), graph.size());
  EXPECT_GT(report.makespan_s, 0.0);
  // The whole graph is one chain: every node on it, in program order,
  // with zero slack; the chain time is attributed to domain 1.
  ASSERT_EQ(report.chain.size(), graph.size());
  for (std::size_t i = 0; i < report.chain.size(); ++i) {
    EXPECT_EQ(report.chain[i], static_cast<std::uint32_t>(i));
    EXPECT_DOUBLE_EQ(report.slack[report.chain[i]], 0.0);
  }
  ASSERT_EQ(report.domain_seconds.size(), 1u);
  EXPECT_NEAR(report.domain_seconds.at(1u), report.makespan_s, 1e-12);

  const std::string text = to_string(report, graph);
  EXPECT_NE(text.find("critical path"), std::string::npos);
  EXPECT_NE(text.find("domain 1"), std::string::npos);
  EXPECT_NE(text.find("double"), std::string::npos);
}

// ---- App equivalence: eager vs replay, both backends ----------------------

class GraphApps : public ::testing::TestWithParam<bool> {};

TEST_P(GraphApps, RtmReplayBitIdenticalToEager) {
  const bool simulated = GetParam();
  RtmConfig config;
  config.nx = 12;
  config.ny = 10;
  config.nz = 32;
  config.steps = 4;
  config.ranks = 2;
  config.scheme = RtmScheme::pipelined;

  std::vector<double> eager_field;
  {
    auto rt = make_runtime(simulated, 2);
    (void)apps::run_rtm(*rt, config, &eager_field);
  }
  std::vector<double> replay_field;
  auto rt = make_runtime(simulated, 2);
  (void)apps::run_rtm_graph(*rt, config, &replay_field);

  ASSERT_EQ(replay_field.size(), eager_field.size());
  for (std::size_t i = 0; i < replay_field.size(); ++i) {
    ASSERT_EQ(replay_field[i], eager_field[i]) << "at " << i;
  }
  // One steady graph plus one exchange-free final graph, one replay per
  // timestep, reusing captured edges instead of re-analysing.
  EXPECT_EQ(rt->stats().graphs_captured, 2u);
  EXPECT_EQ(rt->stats().graph_replays, config.steps);
  EXPECT_GT(rt->stats().deps_reused, 0u);
}

TEST_P(GraphApps, RtmReplayHostOnlyScheme) {
  const bool simulated = GetParam();
  RtmConfig config;
  config.nx = 12;
  config.ny = 10;
  config.nz = 32;
  config.steps = 3;
  config.ranks = 2;
  config.scheme = RtmScheme::host_only;

  std::vector<double> eager_field;
  {
    auto rt = make_runtime(simulated, 0);
    (void)apps::run_rtm(*rt, config, &eager_field);
  }
  std::vector<double> replay_field;
  auto rt = make_runtime(simulated, 0);
  (void)apps::run_rtm_graph(*rt, config, &replay_field);
  ASSERT_EQ(replay_field.size(), eager_field.size());
  for (std::size_t i = 0; i < replay_field.size(); ++i) {
    ASSERT_EQ(replay_field[i], eager_field[i]) << "at " << i;
  }
}

TEST_P(GraphApps, CgReplayBitIdenticalToEager) {
  const bool simulated = GetParam();
  Problem problem = make_problem(64, 16, 31);
  CgConfig config;
  config.max_iterations = 60;
  config.tolerance = 1e-16;

  std::vector<double> x_eager(64, 0.0);
  CgStats eager;
  {
    auto rt = make_runtime(simulated, 1);
    eager = apps::run_cg(*rt, config, problem.a, problem.b, x_eager);
  }
  std::vector<double> x_replay(64, 0.0);
  auto rt = make_runtime(simulated, 1);
  const CgStats replay =
      apps::run_cg_graph(*rt, config, problem.a, problem.b, x_replay);

  EXPECT_TRUE(eager.converged);
  EXPECT_TRUE(replay.converged);
  EXPECT_EQ(replay.iterations, eager.iterations);
  EXPECT_EQ(replay.residual, eager.residual);  // bit-identical scalars
  for (std::size_t i = 0; i < x_replay.size(); ++i) {
    ASSERT_EQ(x_replay[i], x_eager[i]) << "at " << i;
  }
  EXPECT_EQ(rt->stats().graphs_captured, 3u);  // one per phase
  EXPECT_GT(rt->stats().graph_replays, 0u);
  EXPECT_GT(rt->stats().deps_reused, 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, GraphApps, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& pinfo) {
                           return pinfo.param ? "Sim" : "Threaded";
                         });

// ---- Sim trace identity ---------------------------------------------------

/// Asserts two sim traces describe the same execution: same actions in
/// the same admission order with the same virtual timestamps. Action ids
/// and graph ids are excluded — those legitimately differ between eager
/// and replayed runs; everything observable about scheduling must not.
void expect_same_schedule(const std::vector<TraceRecorder::Record>& eager,
                          const std::vector<TraceRecorder::Record>& replay) {
  ASSERT_EQ(replay.size(), eager.size());
  for (std::size_t i = 0; i < eager.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i) + " (" + eager[i].label + ")");
    EXPECT_EQ(replay[i].stream, eager[i].stream);
    EXPECT_EQ(replay[i].domain, eager[i].domain);
    EXPECT_EQ(replay[i].type, eager[i].type);
    EXPECT_EQ(replay[i].label, eager[i].label);
    EXPECT_EQ(replay[i].bytes, eager[i].bytes);
    EXPECT_EQ(replay[i].flops, eager[i].flops);
    EXPECT_EQ(replay[i].enqueue_s, eager[i].enqueue_s);
    EXPECT_EQ(replay[i].dispatch_s, eager[i].dispatch_s);
    EXPECT_EQ(replay[i].complete_s, eager[i].complete_s);
  }
}

std::size_t replayed_records(const std::vector<TraceRecorder::Record>& recs) {
  std::size_t n = 0;
  for (const auto& r : recs) {
    n += r.graph != 0 ? 1u : 0u;
  }
  return n;
}

TEST(GraphTrace, RtmReplayScheduleIdenticalToEager) {
  RtmConfig config;
  config.nx = 12;
  config.ny = 10;
  config.nz = 32;
  config.steps = 3;
  config.ranks = 2;
  config.scheme = RtmScheme::pipelined;

  TraceRecorder eager_trace;
  {
    auto rt = sim_runtime(2);
    rt->set_trace(&eager_trace);
    (void)apps::run_rtm(*rt, config);
  }
  TraceRecorder replay_trace;
  {
    auto rt = sim_runtime(2);
    rt->set_trace(&replay_trace);
    (void)apps::run_rtm_graph(*rt, config);
  }
  const auto eager = eager_trace.records();
  const auto replay = replay_trace.records();
  expect_same_schedule(eager, replay);
  EXPECT_EQ(replayed_records(eager), 0u);
  EXPECT_GT(replayed_records(replay), 0u);
}

TEST(GraphTrace, CgReplayScheduleIdenticalToEager) {
  Problem problem = make_problem(64, 16, 7);
  CgConfig config;
  config.max_iterations = 20;
  config.tolerance = 1e-12;

  TraceRecorder eager_trace;
  std::vector<double> x1(64, 0.0);
  {
    auto rt = sim_runtime(1);
    rt->set_trace(&eager_trace);
    (void)apps::run_cg(*rt, config, problem.a, problem.b, x1);
  }
  TraceRecorder replay_trace;
  std::vector<double> x2(64, 0.0);
  {
    auto rt = sim_runtime(1);
    rt->set_trace(&replay_trace);
    (void)apps::run_cg_graph(*rt, config, problem.a, problem.b, x2);
  }
  expect_same_schedule(eager_trace.records(), replay_trace.records());
  EXPECT_GT(replayed_records(replay_trace.records()), 0u);
}

// ---- Domain loss during replay --------------------------------------------

class GraphFault : public ::testing::TestWithParam<bool> {};

TEST_P(GraphFault, DeviceLossMidReplaySurfacesAtSynchronize) {
  // The card drops off the bus while a replayed graph's upload is in
  // flight: the loss must surface as device_lost at the next sync, the
  // runtime must stay usable, and relaunching on the dead domain must be
  // refused the same way an eager enqueue would be.
  FaultPlan plan;
  plan.schedule = {{DomainId{1}, 0, 0, FaultKind::device_loss}};
  auto rt = make_runtime(GetParam(), 1, plan);

  std::vector<double> x(32, 1.0);
  const BufferId buf = rt->buffer_create(x.data(), 32 * sizeof(double));
  const StreamId s = rt->stream_create(DomainId{1}, CpuMask::first_n(2));

  const StreamId streams[] = {s};
  GraphBuilder b(*rt, streams);
  (void)b.alloc(s, buf);
  (void)b.transfer(s, x.data(), 32 * sizeof(double), XferDir::src_to_sink);
  const OperandRef ops[] = {{x.data(), 32 * sizeof(double), Access::inout}};
  (void)b.compute(s, doubler(32), ops);
  (void)b.transfer(s, x.data(), 32 * sizeof(double), XferDir::sink_to_src);
  GraphExec exec(*rt, b.finish());

  (void)exec.launch();
  try {
    rt->synchronize();
    FAIL() << "expected device_lost";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::device_lost);
  }
  EXPECT_FALSE(rt->has_pending_error());
  rt->synchronize();  // reported exactly once; runtime still works

  try {
    (void)exec.launch();
    FAIL() << "expected device_lost on relaunch";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::device_lost);
  }
}

TEST_P(GraphFault, RelaunchAfterExplicitDomainLossRefused) {
  auto rt = make_runtime(GetParam(), 1);
  std::vector<double> x(16, 1.0);
  const BufferId buf = rt->buffer_create(x.data(), 16 * sizeof(double));
  const StreamId s = rt->stream_create(DomainId{1}, CpuMask::first_n(2));

  const StreamId streams[] = {s};
  GraphBuilder b(*rt, streams);
  (void)b.alloc(s, buf);
  (void)b.transfer(s, x.data(), 16 * sizeof(double), XferDir::src_to_sink);
  const OperandRef ops[] = {{x.data(), 16 * sizeof(double), Access::inout}};
  (void)b.compute(s, doubler(16), ops);
  GraphExec exec(*rt, b.finish());

  (void)exec.launch();
  rt->synchronize();
  rt->mark_domain_lost(DomainId{1});
  try {
    (void)exec.launch();
    FAIL() << "expected device_lost";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::device_lost);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, GraphFault, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& pinfo) {
                           return pinfo.param ? "Sim" : "Threaded";
                         });

}  // namespace
}  // namespace hs::graph
