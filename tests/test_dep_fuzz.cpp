// Randomized dependence-analysis fuzz: the per-buffer interval index
// (core/buffer.hpp) prunes edges that are already implied, so it must
// derive a blocker set closure-equivalent to the legacy pairwise window
// scan's, for every random operand-overlap pattern and every
// stream_cancel in the mix, on both order policies and both executors.
//
// Three angles of attack:
//  - RuntimeConfig::dep_oracle = true makes the runtime itself
//    cross-check every admission — each index blocker is a scan blocker,
//    and each scan blocker reaches an index blocker through the
//    successor graph — and throw Errc::internal on any gap, so simply
//    running the random workload to completion is the assertion. The
//    workload is then captured as a graph and replayed, also with two
//    captured streams mapped onto one: replay admits through the same
//    path, so the oracle checks every replayed admission too.
//  - A determinism fingerprint: the same workload replayed in virtual
//    time with the index and with dep_legacy_scan-style pairwise scanning
//    must produce bit-identical schedules (same now(), same dispatch
//    counts) — the index is an optimization, never a semantic change.
//  - Cancel hazards on the threaded executor: a cancelled pending writer
//    pruned its still-running predecessor from the index, and a writer
//    admitted after the cancel must still wait for that predecessor.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "core/runtime.hpp"
#include "core/threaded_executor.hpp"
#include "graph/capture.hpp"
#include "graph/replay.hpp"
#include "sim/platform.hpp"
#include "sim/sim_executor.hpp"

namespace hs {
namespace {

constexpr std::size_t kArena = 4096;  ///< fuzzed proxy region, bytes
constexpr std::size_t kStreams = 3;
constexpr std::size_t kActions = 200;

/// One randomly generated step: an action with a handful of byte-range
/// operands, a full-barrier signal when `ops` is empty, or a
/// stream_cancel of the stream when `cancel` is set.
struct FuzzAction {
  std::size_t stream;
  bool cancel = false;
  struct Op {
    std::size_t offset;
    std::size_t len;
    Access access;
  };
  std::vector<Op> ops;
};

std::vector<FuzzAction> make_workload(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> pick_stream(0, kStreams - 1);
  std::uniform_int_distribution<int> pick_nops(0, 3);
  std::uniform_int_distribution<int> pick_access(0, 2);
  std::uniform_int_distribution<std::size_t> pick_len(1, 128);
  std::vector<FuzzAction> workload;
  workload.reserve(kActions);
  for (std::size_t i = 0; i < kActions; ++i) {
    FuzzAction action;
    action.stream = pick_stream(rng);
    // ~1 in 13 actions is a no-operand signal: a stream-wide barrier,
    // which exercises the barrier-residue path of the index. ~1 in 29
    // steps cancels the stream instead, finishing pending writers early
    // while the predecessors they pruned may still run.
    if (rng() % 29 == 0) {
      action.cancel = true;
    } else if (rng() % 13 != 0) {
      const int nops = 1 + pick_nops(rng);
      for (int k = 0; k < nops; ++k) {
        const std::size_t len = pick_len(rng);
        std::uniform_int_distribution<std::size_t> pick_off(0, kArena - len);
        const int a = pick_access(rng);
        const Access access = a == 0   ? Access::in
                              : a == 1 ? Access::out
                                       : Access::inout;
        action.ops.push_back({pick_off(rng), len, access});
      }
    }
    workload.push_back(std::move(action));
  }
  return workload;
}

/// Actions (not cancels) in `workload`: completed + cancelled must sum
/// to this once it drains.
std::uint64_t enqueued(const std::vector<FuzzAction>& workload) {
  return static_cast<std::uint64_t>(
      std::count_if(workload.begin(), workload.end(),
                    [](const FuzzAction& a) { return !a.cancel; }));
}

/// Enqueues one step of a workload (not a cancel) into `stream`.
void enqueue_step(Runtime& rt, StreamId stream, const unsigned char* arena,
                  const FuzzAction& action) {
  if (action.ops.empty()) {
    (void)rt.enqueue_signal(stream);
    return;
  }
  std::vector<OperandRef> ops;
  ops.reserve(action.ops.size());
  for (const FuzzAction::Op& op : action.ops) {
    ops.push_back({arena + op.offset, op.len, op.access});
  }
  ComputePayload payload;
  payload.body = [](TaskContext&) {};
  (void)rt.enqueue_compute(stream, std::move(payload), ops);
}

/// Replays `workload` against `rt` and waits for it to drain.
void run_workload(Runtime& rt, const std::vector<StreamId>& streams,
                  const unsigned char* arena,
                  const std::vector<FuzzAction>& workload) {
  for (const FuzzAction& action : workload) {
    const StreamId stream = streams[action.stream];
    if (action.cancel) {
      (void)rt.stream_cancel(stream);
    } else {
      enqueue_step(rt, stream, arena, action);
    }
  }
  rt.synchronize();
}

/// Graph launches replay_workload makes.
constexpr std::uint64_t kLaunches = 3;

/// Captures `workload`'s actions as a graph and replays it through the
/// eager admission path: two launches back to back (the second admits
/// against the first's residue), then one with the second captured
/// stream mapped onto the first, so one window holds both streams'
/// nodes. Waits for it to drain.
void replay_workload(Runtime& rt, const std::vector<StreamId>& streams,
                     const unsigned char* arena,
                     const std::vector<FuzzAction>& workload) {
  graph::TaskGraph captured;
  {
    graph::GraphCapture capture(rt, streams);
    for (const FuzzAction& action : workload) {
      if (!action.cancel) {
        enqueue_step(rt, streams[action.stream], arena, action);
      }
    }
    captured = capture.finish();
  }
  graph::GraphExec exec(rt, std::move(captured));
  (void)exec.launch();
  (void)exec.launch();
  exec.map_stream(streams[1], streams[0]);
  (void)exec.launch();
  rt.synchronize();
}

// --- Oracle cross-check: every admission, both executors, both policies ---

class DepOracleFuzz : public ::testing::TestWithParam<
                          std::tuple<OrderPolicy, bool /*sim*/>> {};

TEST_P(DepOracleFuzz, IndexMatchesLegacyScanOnRandomOverlaps) {
  const auto [policy, use_sim] = GetParam();
  static unsigned char arena[kArena];
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    RuntimeConfig config;
    config.policy = policy;
    config.dep_oracle = true;  // throw Errc::internal on any mismatch
    std::unique_ptr<Runtime> rt;
    sim::SimPlatform platform = sim::hsw_plus_knc(1);
    if (use_sim) {
      config.platform = platform.desc;
      config.device_link = platform.link;
      rt = std::make_unique<Runtime>(
          config, std::make_unique<sim::SimExecutor>(platform, false));
    } else {
      config.platform = PlatformDesc::host_plus_cards(4, 1, 32);
      rt = std::make_unique<Runtime>(config,
                                     std::make_unique<ThreadedExecutor>());
    }
    const BufferId arena_id = rt->buffer_create(arena, sizeof arena);
    rt->buffer_instantiate(arena_id, DomainId{1});
    std::vector<StreamId> streams;
    for (std::size_t s = 0; s < kStreams; ++s) {
      streams.push_back(
          rt->stream_create(DomainId{1}, CpuMask::range(s * 8, s * 8 + 8)));
    }
    const std::vector<FuzzAction> workload = make_workload(seed);
    run_workload(*rt, streams, arena, workload);
    replay_workload(*rt, streams, arena, workload);
    const RuntimeStats stats = rt->stats();
    EXPECT_EQ(stats.actions_completed + stats.actions_cancelled,
              enqueued(workload) * (1 + kLaunches));
    EXPECT_EQ(stats.graph_replays, kLaunches);
    EXPECT_GT(stats.deps_reused, 0u) << "replay wired no edges";
    if (policy == OrderPolicy::relaxed_fifo) {
      // Strict-FIFO admissions chain on the previous action and never
      // consult the index, so only relaxed streams record checks.
      EXPECT_GT(stats.dep_oracle_checks, 0u) << "oracle never engaged";
    }
  }
}

std::string dep_fuzz_name(
    const ::testing::TestParamInfo<std::tuple<OrderPolicy, bool>>& info) {
  const auto [policy, use_sim] = info.param;
  return std::string(policy == OrderPolicy::relaxed_fifo ? "Relaxed"
                                                         : "Strict") +
         (use_sim ? "Sim" : "Threaded");
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndExecutors, DepOracleFuzz,
    ::testing::Combine(::testing::Values(OrderPolicy::relaxed_fifo,
                                         OrderPolicy::strict_fifo),
                       ::testing::Values(false, true)),
    dep_fuzz_name);

// --- Determinism fingerprint: index vs legacy scan, virtual time ---------

TEST(DepFuzz, IndexAndLegacyScanProduceIdenticalVirtualSchedules) {
  static unsigned char arena[kArena];
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const std::vector<FuzzAction> workload = make_workload(seed);
    double now[2] = {0.0, 0.0};
    std::uint64_t ooo[2] = {0, 0};
    std::uint64_t completed[2] = {0, 0};
    for (const bool legacy : {false, true}) {
      sim::SimPlatform platform = sim::hsw_plus_knc(1);
      RuntimeConfig config;
      config.platform = platform.desc;
      config.device_link = platform.link;
      config.dep_legacy_scan = legacy;
      Runtime rt(config, std::make_unique<sim::SimExecutor>(platform, false));
      const BufferId arena_id = rt.buffer_create(arena, sizeof arena);
      rt.buffer_instantiate(arena_id, DomainId{1});
      std::vector<StreamId> streams;
      for (std::size_t s = 0; s < kStreams; ++s) {
        streams.push_back(
            rt.stream_create(DomainId{1}, CpuMask::range(s * 8, s * 8 + 8)));
      }
      run_workload(rt, streams, arena, workload);
      const RuntimeStats stats = rt.stats();
      now[legacy] = rt.now();
      ooo[legacy] = stats.ooo_dispatches;
      completed[legacy] = stats.actions_completed;
      if (legacy) {
        EXPECT_EQ(stats.dep_index_hits, 0u) << "legacy mode used the index";
      } else {
        EXPECT_GT(stats.dep_index_hits, 0u) << "index mode never hit";
      }
    }
    EXPECT_DOUBLE_EQ(now[0], now[1]) << "seed " << seed;
    EXPECT_EQ(ooo[0], ooo[1]) << "seed " << seed;
    EXPECT_EQ(completed[0], completed[1]) << "seed " << seed;
  }
}

// --- Cancel hazard: a cancelled writer's pruned predecessor still counts --

/// One card stream over a one-tile buffer on the threaded executor, with
/// the dependence oracle on. A pending writer W prunes the running writer
/// W' from the index; once W is cancelled, a later X on the same bytes
/// must still wait for W'. X is a device-to-host transfer: it runs on the
/// copier pool, not the stream's team, so an edge lost to the cancel
/// would let it overlap W'.
class CancelHazard {
 public:
  CancelHazard() {
    RuntimeConfig config;
    config.platform = PlatformDesc::host_plus_cards(2, 1, 4);
    config.dep_oracle = true;
    rt_ = std::make_unique<Runtime>(config,
                                    std::make_unique<ThreadedExecutor>());
    const BufferId tile = rt_->buffer_create(tile_, sizeof tile_);
    const BufferId noise = rt_->buffer_create(noise_, sizeof noise_);
    rt_->buffer_instantiate(tile, DomainId{1});
    rt_->buffer_instantiate(noise, DomainId{1});
    stream_ = rt_->stream_create(DomainId{1}, CpuMask::range(0, 2));
    noise_stream_ = rt_->stream_create(DomainId{1}, CpuMask::range(2, 4));
  }

  // A failed assertion must not leave W' held: the runtime's teardown
  // drains every stream.
  ~CancelHazard() { release(); }

  CancelHazard(const CancelHazard&) = delete;
  CancelHazard& operator=(const CancelHazard&) = delete;

  Runtime& rt() { return *rt_; }

  /// Enqueues W' (held until release()) and the pending writer W.
  void enqueue_writers() {
    released_.store(false);
    first_done_.store(false);
    const OperandRef op{tile_, sizeof tile_, Access::inout};
    ComputePayload first;
    first.kernel = "w_prime";
    first.body = [this](TaskContext& ctx) {
      released_.wait(false);
      double* tile = ctx.operand_as<double>(0);
      std::fill(tile, tile + kTile, 1.0);
      first_done_.store(true);
    };
    (void)rt_->enqueue_compute(stream_, std::move(first), std::span(&op, 1));
    ComputePayload second;
    second.kernel = "w";
    second.body = [](TaskContext& ctx) {
      double* tile = ctx.operand_as<double>(0);
      std::fill(tile, tile + kTile, 2.0);
    };
    (void)rt_->enqueue_compute(stream_, std::move(second), std::span(&op, 1));
  }

  /// Independent tiny computes on the noise stream: their completions
  /// keep worker threads draining the completion queue.
  void enqueue_noise() {
    for (std::size_t i = 0; i < kNoise; ++i) {
      const OperandRef op{&noise_[i], sizeof(double), Access::inout};
      ComputePayload p;
      p.kernel = "noise";
      p.body = [](TaskContext& ctx) { *ctx.operand_as<double>(0) += 1.0; };
      (void)rt_->enqueue_compute(noise_stream_, std::move(p),
                                 std::span(&op, 1));
    }
  }

  /// Enqueues X and counts it as a violation if it finishes before W'.
  std::shared_ptr<EventState> enqueue_reader() {
    auto done = rt_->enqueue_transfer(stream_, tile_, sizeof tile_,
                                      XferDir::sink_to_src);
    done->on_fire([this] {
      if (!first_done_.load()) {
        violations_.fetch_add(1);
      }
    });
    return done;
  }

  void release() {
    released_.store(true);
    released_.notify_all();
  }

  StreamId stream() const { return stream_; }
  int violations() const { return violations_.load(); }
  double host_value() const { return tile_[0]; }

 private:
  static constexpr std::size_t kTile = 64;
  static constexpr std::size_t kNoise = 16;
  // Everything the action bodies touch is declared before the runtime,
  // so it outlives the runtime's teardown drain.
  double tile_[kTile] = {};
  double noise_[kNoise] = {};
  std::atomic<bool> released_{false};
  std::atomic<bool> first_done_{false};
  std::atomic<int> violations_{0};
  std::unique_ptr<Runtime> rt_;
  StreamId stream_;
  StreamId noise_stream_;
};

TEST(DepCancelHazard, WriterAfterCancelWaitsForPrunedPredecessor) {
  CancelHazard h;
  h.enqueue_writers();
  EXPECT_EQ(h.rt().stream_cancel(h.stream()), 1u);  // W, never W'
  const auto x = h.enqueue_reader();
  // Left alone, X would copy the tile home while W' is still held.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(x->fired()) << "X finished while W' was still running";
  h.release();
  h.rt().synchronize();
  EXPECT_TRUE(x->fired());
  EXPECT_EQ(h.violations(), 0);
  EXPECT_EQ(h.host_value(), 1.0) << "X did not copy W'\'s result";
}

TEST(DepCancelHazard, CancelRacingCompletionDrainKeepsPrunedPredecessor) {
  // The cancel runs on its own thread while worker threads drain noise
  // completions, so its victim W often only queues behind another
  // drainer; X is admitted in that gap, after the cancel returns.
  CancelHazard h;
  for (int iter = 0; iter < 100; ++iter) {
    h.enqueue_writers();
    h.enqueue_noise();
    std::size_t cancelled = 0;
    std::thread canceller(
        [&h, &cancelled] { cancelled = h.rt().stream_cancel(h.stream()); });
    canceller.join();
    EXPECT_EQ(cancelled, 1u) << "iteration " << iter;
    (void)h.enqueue_reader();
    std::thread releaser([&h] { h.release(); });
    releaser.join();
    h.rt().synchronize();
  }
  EXPECT_EQ(h.violations(), 0);
  EXPECT_EQ(h.host_value(), 1.0);
}

}  // namespace
}  // namespace hs
