// Core runtime tests: buffers/proxy address space, stream FIFO semantics
// with out-of-order execution, strict-FIFO (CUDA-like) policy, events,
// transfers, host-as-target aliasing, the app API layer, the counter
// table, and HS_CONFIG.
//
// Runtimes run on the ThreadedExecutor (the functional backend), except
// the bench-report check, which uses bench_util's simulated runtime.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <numeric>
#include <set>
#include <string>

#include "bench_util.hpp"
#include "core/app_api.hpp"
#include "core/runtime.hpp"
#include "core/threaded_executor.hpp"
#include "scoped_hs_config.hpp"

namespace hs {
namespace {

std::unique_ptr<Runtime> make_runtime(
    PlatformDesc platform = PlatformDesc::host_plus_cards(4, 1, 4),
    OrderPolicy policy = OrderPolicy::relaxed_fifo) {
  RuntimeConfig config;
  config.platform = std::move(platform);
  config.policy = policy;
  return std::make_unique<Runtime>(config,
                                   std::make_unique<ThreadedExecutor>());
}

OperandRef in(const void* p, std::size_t len) {
  return {p, len, Access::in};
}
OperandRef out(void* p, std::size_t len) {
  return {p, len, Access::out};
}

TEST(Domains, DiscoveryAndKinds) {
  auto rt = make_runtime(PlatformDesc::host_plus_cards(8, 2, 16));
  EXPECT_EQ(rt->domain_count(), 3u);
  EXPECT_TRUE(rt->domain(kHostDomain).is_host());
  EXPECT_EQ(rt->domains_of_kind(DomainKind::coprocessor).size(), 2u);
  EXPECT_EQ(rt->domain(DomainId{1}).hw_threads(), 16u);
  EXPECT_THROW((void)rt->domain(DomainId{9}), Error);
}

TEST(Domains, HostMustBeDomainZero) {
  PlatformDesc bad;
  bad.domains.push_back(
      DomainDesc{.name = "mic", .kind = DomainKind::coprocessor});
  RuntimeConfig config;
  config.platform = bad;
  EXPECT_THROW(
      (void)Runtime(config, std::make_unique<ThreadedExecutor>()), Error);
}

TEST(Buffers, CreateResolveTranslate) {
  auto rt = make_runtime();
  std::vector<double> data(100, 1.0);
  const BufferId id =
      rt->buffer_create(data.data(), data.size() * sizeof(double));
  rt->buffer_instantiate(id, DomainId{1});

  // Host translation is the identity (the host incarnation aliases user
  // memory).
  EXPECT_EQ(rt->translate(data.data() + 10, 8, kHostDomain), data.data() + 10);

  // Device translation preserves the offset within the incarnation.
  auto* dev0 = static_cast<double*>(rt->translate(data.data(), 8, DomainId{1}));
  auto* dev10 =
      static_cast<double*>(rt->translate(data.data() + 10, 8, DomainId{1}));
  EXPECT_EQ(dev10 - dev0, 10);
  EXPECT_NE(static_cast<void*>(dev0), static_cast<void*>(data.data()));
}

TEST(Buffers, OverlappingCreateRejected) {
  auto rt = make_runtime();
  std::vector<double> data(100);
  (void)rt->buffer_create(data.data(), 100 * sizeof(double));
  EXPECT_THROW(
      (void)rt->buffer_create(data.data() + 50, 10 * sizeof(double)), Error);
}

TEST(Buffers, UnknownPointerRejected) {
  auto rt = make_runtime();
  std::vector<double> registered(10);
  std::vector<double> stray(10);
  (void)rt->buffer_create(registered.data(), 10 * sizeof(double));
  EXPECT_THROW((void)rt->translate(stray.data(), 8, kHostDomain), Error);
}

TEST(Buffers, RangeEscapingBufferRejected) {
  auto rt = make_runtime();
  std::vector<double> data(10);
  (void)rt->buffer_create(data.data(), 10 * sizeof(double));
  EXPECT_THROW((void)rt->translate(data.data() + 8, 4 * sizeof(double),
                                   kHostDomain),
               Error);
}

TEST(Buffers, TransferRequiresInstantiation) {
  auto rt = make_runtime();
  std::vector<double> data(10);
  (void)rt->buffer_create(data.data(), 10 * sizeof(double));
  const StreamId s = rt->stream_create(DomainId{1}, CpuMask::first_n(2));
  EXPECT_THROW((void)rt->enqueue_transfer(s, data.data(), 8 * sizeof(double),
                                          XferDir::src_to_sink),
               Error);
}

TEST(Buffers, DestroyThenUseFails) {
  auto rt = make_runtime();
  std::vector<double> data(10);
  const BufferId id = rt->buffer_create(data.data(), 10 * sizeof(double));
  rt->buffer_destroy(id);
  EXPECT_EQ(rt->buffer_count(), 0u);
  EXPECT_THROW((void)rt->translate(data.data(), 8, kHostDomain), Error);
}

TEST(Streams, CreateAndMaskValidation) {
  auto rt = make_runtime(PlatformDesc::host_plus_cards(4, 1, 8));
  (void)rt->stream_create(DomainId{1}, CpuMask::range(0, 4));
  (void)rt->stream_create(DomainId{1}, CpuMask::range(4, 8));
  EXPECT_EQ(rt->stream_count(), 2u);
  // Mask beyond the domain's hardware threads.
  EXPECT_THROW((void)rt->stream_create(DomainId{1}, CpuMask::range(6, 10)),
               Error);
  EXPECT_THROW((void)rt->stream_create(DomainId{1}, CpuMask{}), Error);
}

TEST(Streams, DestroyIdleOnly) {
  auto rt = make_runtime();
  const StreamId s = rt->stream_create(kHostDomain, CpuMask::first_n(1));
  rt->stream_destroy(s);
  EXPECT_THROW((void)rt->stream_domain(s), Error);
}

// --- FIFO semantics ---------------------------------------------------------

TEST(FifoSemantics, DependentTasksRunInOrder) {
  auto rt = make_runtime();
  std::vector<int> log_data(1, 0);
  const BufferId id = rt->buffer_create(log_data.data(), sizeof(int));
  (void)id;
  const StreamId s = rt->stream_create(kHostDomain, CpuMask::first_n(2));

  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    ComputePayload p;
    p.body = [&order, i](TaskContext&) { order.push_back(i); };
    const OperandRef ops[] = {out(log_data.data(), sizeof(int))};
    (void)rt->enqueue_compute(s, std::move(p), ops);
  }
  rt->synchronize();
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(FifoSemantics, IndependentActionsMayOverlap) {
  // Task A holds the stream's conflict on range X; a transfer touching
  // range Y enqueued later must be able to complete while A still runs —
  // the §II example ("B's data transfer may proceed out of order,
  // concurrent with the execution of task A").
  auto rt = make_runtime();
  std::vector<double> x(64, 1.0);
  std::vector<double> y(64, 2.0);
  const BufferId bx = rt->buffer_create(x.data(), sizeof(double) * 64);
  const BufferId by = rt->buffer_create(y.data(), sizeof(double) * 64);
  rt->buffer_instantiate(bx, DomainId{1});
  rt->buffer_instantiate(by, DomainId{1});
  const StreamId s = rt->stream_create(DomainId{1}, CpuMask::first_n(2));

  std::atomic<bool> release_a{false};
  std::atomic<bool> transfer_done{false};
  ComputePayload task_a;
  task_a.body = [&release_a](TaskContext&) {
    while (!release_a.load()) {
      std::this_thread::yield();
    }
  };
  const OperandRef ops_a[] = {out(x.data(), sizeof(double) * 64)};
  (void)rt->enqueue_compute(s, std::move(task_a), ops_a);

  auto ev = rt->enqueue_transfer(s, y.data(), sizeof(double) * 64,
                                 XferDir::src_to_sink);
  ev->on_fire([&transfer_done] { transfer_done.store(true); });

  // The transfer must finish while task A is still blocked.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!transfer_done.load()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "independent transfer did not overlap the running task";
    std::this_thread::yield();
  }
  release_a.store(true);
  rt->synchronize();
  EXPECT_GE(rt->stats().ooo_dispatches, 1u);
}

TEST(FifoSemantics, ConflictingTransferWaits) {
  // Same as above but the transfer touches the task's range: it must NOT
  // complete until the task finishes.
  auto rt = make_runtime();
  std::vector<double> x(64, 1.0);
  const BufferId bx = rt->buffer_create(x.data(), sizeof(double) * 64);
  rt->buffer_instantiate(bx, DomainId{1});
  const StreamId s = rt->stream_create(DomainId{1}, CpuMask::first_n(2));

  std::atomic<bool> release_a{false};
  std::atomic<bool> task_running{false};
  ComputePayload task_a;
  task_a.body = [&](TaskContext&) {
    task_running.store(true);
    while (!release_a.load()) {
      std::this_thread::yield();
    }
  };
  const OperandRef ops_a[] = {out(x.data(), sizeof(double) * 64)};
  (void)rt->enqueue_compute(s, std::move(task_a), ops_a);

  auto ev = rt->enqueue_transfer(s, x.data(), sizeof(double) * 64,
                                 XferDir::src_to_sink);
  while (!task_running.load()) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(ev->fired());
  release_a.store(true);
  rt->synchronize();
  EXPECT_TRUE(ev->fired());
}

TEST(FifoSemantics, PartialOverlapIsAConflict) {
  auto rt = make_runtime();
  std::vector<double> x(100, 0.0);
  (void)rt->buffer_create(x.data(), sizeof(double) * 100);
  const StreamId s = rt->stream_create(kHostDomain, CpuMask::first_n(1));

  std::vector<int> order;
  ComputePayload t1;
  t1.body = [&order](TaskContext&) { order.push_back(1); };
  const OperandRef ops1[] = {out(x.data(), sizeof(double) * 60)};
  (void)rt->enqueue_compute(s, std::move(t1), ops1);

  ComputePayload t2;  // overlaps [40, 60) with t1
  t2.body = [&order](TaskContext&) { order.push_back(2); };
  const OperandRef ops2[] = {out(x.data() + 40, sizeof(double) * 60)};
  (void)rt->enqueue_compute(s, std::move(t2), ops2);
  rt->synchronize();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(FifoSemantics, ReadersDoNotConflict) {
  auto rt = make_runtime();
  std::vector<double> x(64, 3.0);
  (void)rt->buffer_create(x.data(), sizeof(double) * 64);
  const StreamId s = rt->stream_create(kHostDomain, CpuMask::first_n(2));

  // A writer, then two readers, then a writer. The two readers may run
  // in any order but both must see the first writer's value and complete
  // before the second writer.
  std::atomic<int> readers_after_write{0};
  ComputePayload w1;
  w1.body = [&x](TaskContext&) { x[0] = 42.0; };
  const OperandRef wop[] = {out(x.data(), sizeof(double) * 64)};
  (void)rt->enqueue_compute(s, std::move(w1), wop);

  for (int r = 0; r < 2; ++r) {
    ComputePayload reader;
    reader.body = [&x, &readers_after_write](TaskContext&) {
      if (x[0] == 42.0) {
        readers_after_write.fetch_add(1);
      }
    };
    const OperandRef rop[] = {in(x.data(), sizeof(double) * 64)};
    (void)rt->enqueue_compute(s, std::move(reader), rop);
  }

  ComputePayload w2;
  w2.body = [&x](TaskContext&) { x[0] = 7.0; };
  (void)rt->enqueue_compute(s, std::move(w2), wop);
  rt->synchronize();
  EXPECT_EQ(readers_after_write.load(), 2);
  EXPECT_DOUBLE_EQ(x[0], 7.0);
}

// --- Strict policy (CUDA Streams model) -------------------------------------

TEST(StrictPolicy, NoOutOfOrderExecution) {
  auto rt = make_runtime(PlatformDesc::host_plus_cards(4, 1, 4),
                         OrderPolicy::strict_fifo);
  std::vector<double> x(64, 0.0);
  std::vector<double> y(64, 0.0);
  const BufferId bx = rt->buffer_create(x.data(), sizeof(double) * 64);
  const BufferId by = rt->buffer_create(y.data(), sizeof(double) * 64);
  rt->buffer_instantiate(bx, DomainId{1});
  rt->buffer_instantiate(by, DomainId{1});
  const StreamId s = rt->stream_create(DomainId{1}, CpuMask::first_n(2));

  std::atomic<bool> release{false};
  std::atomic<bool> task_started{false};
  ComputePayload blocker;
  blocker.body = [&](TaskContext&) {
    task_started.store(true);
    while (!release.load()) {
      std::this_thread::yield();
    }
  };
  const OperandRef ops[] = {out(x.data(), sizeof(double) * 64)};
  (void)rt->enqueue_compute(s, std::move(blocker), ops);

  // Independent transfer — under strict FIFO it must still wait.
  auto ev = rt->enqueue_transfer(s, y.data(), sizeof(double) * 64,
                                 XferDir::src_to_sink);
  while (!task_started.load()) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(ev->fired());
  release.store(true);
  rt->synchronize();
  EXPECT_TRUE(ev->fired());
  EXPECT_EQ(rt->stats().ooo_dispatches, 0u);
}

// --- Transfers ---------------------------------------------------------------

TEST(Transfers, RoundTripThroughDevice) {
  auto rt = make_runtime();
  std::vector<double> data(256);
  std::iota(data.begin(), data.end(), 0.0);
  const BufferId id =
      rt->buffer_create(data.data(), data.size() * sizeof(double));
  rt->buffer_instantiate(id, DomainId{1});
  const StreamId s = rt->stream_create(DomainId{1}, CpuMask::first_n(2));

  // Upload, negate on the device, download.
  (void)rt->enqueue_transfer(s, data.data(), data.size() * sizeof(double),
                             XferDir::src_to_sink);
  ComputePayload negate;
  negate.body = [&data](TaskContext& ctx) {
    double* local = ctx.translate(data.data(), data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
      local[i] = -local[i];
    }
  };
  const OperandRef ops[] = {
      {data.data(), data.size() * sizeof(double), Access::inout}};
  (void)rt->enqueue_compute(s, std::move(negate), ops);
  (void)rt->enqueue_transfer(s, data.data(), data.size() * sizeof(double),
                             XferDir::sink_to_src);
  rt->synchronize();

  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_DOUBLE_EQ(data[i], -static_cast<double>(i));
  }
  EXPECT_EQ(rt->stats().bytes_transferred, 2 * 256 * sizeof(double));
}

TEST(Transfers, HostAsTargetAliasedAway) {
  auto rt = make_runtime();
  std::vector<double> data(64, 5.0);
  (void)rt->buffer_create(data.data(), data.size() * sizeof(double));
  const StreamId s = rt->stream_create(kHostDomain, CpuMask::first_n(2));

  (void)rt->enqueue_transfer(s, data.data(), data.size() * sizeof(double),
                             XferDir::src_to_sink);
  rt->synchronize();
  EXPECT_EQ(rt->stats().transfers_aliased_away, 1u);
  EXPECT_EQ(rt->stats().bytes_transferred, 0u);
  EXPECT_DOUBLE_EQ(data[0], 5.0);
}

TEST(Transfers, PartialRangeOnly) {
  auto rt = make_runtime();
  std::vector<double> data(100, 1.0);
  const BufferId id =
      rt->buffer_create(data.data(), data.size() * sizeof(double));
  rt->buffer_instantiate(id, DomainId{1});
  const StreamId s = rt->stream_create(DomainId{1}, CpuMask::first_n(2));

  // Zero the device incarnation of the middle range, then pull back only
  // that range.
  ComputePayload zero;
  zero.body = [&data](TaskContext& ctx) {
    double* local = ctx.translate(data.data() + 40, 20);
    std::fill(local, local + 20, 0.0);
  };
  const OperandRef ops[] = {
      {data.data() + 40, 20 * sizeof(double), Access::out}};
  (void)rt->enqueue_compute(s, std::move(zero), ops);
  (void)rt->enqueue_transfer(s, data.data() + 40, 20 * sizeof(double),
                             XferDir::sink_to_src);
  rt->synchronize();

  EXPECT_DOUBLE_EQ(data[39], 1.0);
  EXPECT_DOUBLE_EQ(data[40], 0.0);
  EXPECT_DOUBLE_EQ(data[59], 0.0);
  EXPECT_DOUBLE_EQ(data[60], 1.0);
}

// --- Events ---------------------------------------------------------------------

TEST(Events, CrossStreamOrdering) {
  auto rt = make_runtime();
  std::vector<double> x(8, 0.0);
  std::vector<double> y(8, 0.0);
  (void)rt->buffer_create(x.data(), sizeof(double) * 8);
  (void)rt->buffer_create(y.data(), sizeof(double) * 8);
  const StreamId s1 = rt->stream_create(kHostDomain, CpuMask::range(0, 2));
  const StreamId s2 = rt->stream_create(kHostDomain, CpuMask::range(2, 4));

  ComputePayload produce;
  produce.body = [&x](TaskContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    x[0] = 1.0;
  };
  const OperandRef pops[] = {out(x.data(), sizeof(double) * 8)};
  auto ev = rt->enqueue_compute(s1, std::move(produce), pops);

  // s2 waits on s1's completion event before consuming.
  (void)rt->enqueue_event_wait(s2, ev);
  double observed = -1.0;
  ComputePayload consume;
  consume.body = [&x, &observed](TaskContext&) { observed = x[0]; };
  const OperandRef cops[] = {in(x.data(), sizeof(double) * 8)};
  (void)rt->enqueue_compute(s2, std::move(consume), cops);
  rt->synchronize();
  EXPECT_DOUBLE_EQ(observed, 1.0);
}

TEST(Events, HostWaitAllAndAny) {
  auto rt = make_runtime();
  std::vector<double> x(8, 0.0);
  (void)rt->buffer_create(x.data(), sizeof(double) * 8);
  const StreamId s = rt->stream_create(kHostDomain, CpuMask::first_n(2));

  std::vector<std::shared_ptr<EventState>> events;
  for (int i = 0; i < 4; ++i) {
    ComputePayload p;
    p.body = [](TaskContext&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    };
    const OperandRef ops[] = {out(x.data(), sizeof(double) * 8)};
    events.push_back(rt->enqueue_compute(s, std::move(p), ops));
  }
  rt->event_wait_host(events, WaitMode::any);
  EXPECT_TRUE(events.front()->fired());  // FIFO: first completes first
  rt->event_wait_host(events, WaitMode::all);
  for (const auto& e : events) {
    EXPECT_TRUE(e->fired());
  }
}

TEST(Events, SignalFiresAfterEarlierConflicts) {
  auto rt = make_runtime();
  std::vector<double> x(8, 0.0);
  (void)rt->buffer_create(x.data(), sizeof(double) * 8);
  const StreamId s = rt->stream_create(kHostDomain, CpuMask::first_n(1));

  std::atomic<bool> task_done{false};
  ComputePayload p;
  p.body = [&task_done](TaskContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    task_done.store(true);
  };
  const OperandRef ops[] = {out(x.data(), sizeof(double) * 8)};
  (void)rt->enqueue_compute(s, std::move(p), ops);
  auto signal = rt->enqueue_signal(s);  // stream-wide
  signal->wait_blocking();
  EXPECT_TRUE(task_done.load());
}

// --- Task context ---------------------------------------------------------------

TEST(TaskContextTest, TeamSizeMatchesLogicalMask) {
  auto rt = make_runtime(PlatformDesc::host_plus_cards(4, 1, 16));
  std::vector<double> x(8, 0.0);
  const BufferId id = rt->buffer_create(x.data(), sizeof(double) * 8);
  rt->buffer_instantiate(id, DomainId{1});
  const StreamId s = rt->stream_create(DomainId{1}, CpuMask::range(0, 12));

  std::size_t seen_width = 0;
  ComputePayload p;
  p.body = [&seen_width](TaskContext& ctx) { seen_width = ctx.team_size(); };
  const OperandRef ops[] = {out(x.data(), sizeof(double) * 8)};
  (void)rt->enqueue_compute(s, std::move(p), ops);
  rt->synchronize();
  EXPECT_EQ(seen_width, 12u);  // logical width, even though pool is capped
}

TEST(TaskContextTest, ParallelForInsideTask) {
  auto rt = make_runtime();
  std::vector<double> x(1000, 0.0);
  const BufferId id =
      rt->buffer_create(x.data(), x.size() * sizeof(double));
  rt->buffer_instantiate(id, DomainId{1});
  const StreamId s = rt->stream_create(DomainId{1}, CpuMask::first_n(4));

  ComputePayload p;
  p.body = [&x](TaskContext& ctx) {
    double* local = ctx.translate(x.data(), x.size());
    ctx.parallel_for(x.size(), [local](std::size_t i) {
      local[i] = static_cast<double>(i) * 2.0;
    });
  };
  const OperandRef ops[] = {out(x.data(), x.size() * sizeof(double))};
  (void)rt->enqueue_compute(s, std::move(p), ops);
  (void)rt->enqueue_transfer(s, x.data(), x.size() * sizeof(double),
                             XferDir::sink_to_src);
  rt->synchronize();
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_DOUBLE_EQ(x[i], static_cast<double>(i) * 2.0);
  }
}

// --- App API -------------------------------------------------------------------

TEST(AppApiTest, PartitionsDevicesEvenly) {
  auto rt = make_runtime(PlatformDesc::host_plus_cards(8, 2, 61));
  AppApi app(*rt, AppConfig{.streams_per_device = 4, .host_streams = 3});
  EXPECT_EQ(app.stream_count(), 2u * 4u + 3u);
  EXPECT_EQ(app.device_streams().size(), 8u);
  EXPECT_EQ(app.host_streams().size(), 3u);
  EXPECT_EQ(app.streams_on(DomainId{1}).size(), 4u);
  // Stream masks within one device must be disjoint.
  const auto on_dev1 = app.streams_on(DomainId{1});
  CpuMask seen;
  for (const std::size_t idx : on_dev1) {
    const CpuMask m = rt->stream_mask(app.stream(idx));
    EXPECT_FALSE(seen.intersects(m));
    seen = seen | m;
  }
  EXPECT_EQ(seen.count(), 61u);
}

TEST(AppApiTest, EndToEndInvokeAndXfer) {
  auto rt = make_runtime(PlatformDesc::host_plus_cards(4, 1, 8));
  AppApi app(*rt, AppConfig{.streams_per_device = 2, .host_streams = 1});
  std::vector<double> v(128, 1.0);
  (void)app.create_buf(v.data(), v.size() * sizeof(double));

  const std::size_t dev_stream = app.device_streams().front();
  (void)app.xfer_memory(dev_stream, v.data(), v.size() * sizeof(double),
                        XferDir::src_to_sink);
  const OperandRef ops[] = {
      {v.data(), v.size() * sizeof(double), Access::inout}};
  (void)app.invoke(
      dev_stream, "scale", 128.0,
      [&v](TaskContext& ctx) {
        double* local = ctx.translate(v.data(), v.size());
        for (std::size_t i = 0; i < v.size(); ++i) {
          local[i] *= 3.0;
        }
      },
      ops);
  (void)app.xfer_memory(dev_stream, v.data(), v.size() * sizeof(double),
                        XferDir::sink_to_src);
  app.synchronize();
  EXPECT_DOUBLE_EQ(v[0], 3.0);
  EXPECT_DOUBLE_EQ(v[127], 3.0);
}

TEST(AppApiTest, HostStreamsSkipReservedThreads) {
  auto rt = make_runtime(PlatformDesc::host_plus_cards(8, 1, 4));
  AppApi app(*rt,
             AppConfig{.streams_per_device = 1,
                       .host_streams = 2,
                       .host_threads_reserved = 2});
  for (const std::size_t idx : app.host_streams()) {
    const CpuMask m = rt->stream_mask(app.stream(idx));
    EXPECT_FALSE(m.test(0));
    EXPECT_FALSE(m.test(1));
  }
}

// --- Stats ------------------------------------------------------------------------

TEST(Stats, CountsActions) {
  auto rt = make_runtime();
  std::vector<double> x(8, 0.0);
  const BufferId id = rt->buffer_create(x.data(), sizeof(double) * 8);
  rt->buffer_instantiate(id, DomainId{1});
  const StreamId s = rt->stream_create(DomainId{1}, CpuMask::first_n(2));

  ComputePayload p;
  p.body = [](TaskContext&) {};
  const OperandRef ops[] = {out(x.data(), sizeof(double) * 8)};
  (void)rt->enqueue_compute(s, std::move(p), ops);
  (void)rt->enqueue_transfer(s, x.data(), sizeof(double) * 8,
                             XferDir::sink_to_src);
  (void)rt->enqueue_signal(s);
  rt->synchronize();
  const RuntimeStats st = rt->stats();
  EXPECT_EQ(st.computes_enqueued, 1u);
  EXPECT_EQ(st.transfers_enqueued, 1u);
  EXPECT_EQ(st.syncs_enqueued, 1u);
  EXPECT_EQ(st.actions_completed, 3u);
}


// --- The counter table ------------------------------------------------------

TEST(CounterTable, EveryFieldOnceUnderDistinctNamesAndInTheBenchReport) {
  static_assert(sizeof(RuntimeStats) == kCounterCount * sizeof(std::uint64_t));
  report::counters().clear();
  (void)bench::sim_runtime(sim::hsw_plus_knc(1))->tenant_register();
  // Stamp each visited field with its 1-based visit number: a field that
  // is missed or visited twice leaves a slot out of sequence.
  RuntimeStats stats;
  TenantStatsSlice slice;
  std::set<std::string> names;
  std::uint64_t rows = 0;
  std::uint64_t tenant_rows = 0;
  for_each_counter([&](const CounterInfo& c) {
    EXPECT_EQ(static_cast<std::size_t>(c.id), rows);
    EXPECT_TRUE(names.insert(c.name).second) << c.name;
    EXPECT_EQ(report::counters().count(c.name), 1u) << c.name;
    stats.*c.total = ++rows;
    if (c.slice != nullptr) {
      slice.*c.slice = ++tenant_rows;
      EXPECT_EQ(report::counters().count(std::string("tenant1_") + c.name), 1u);
    }
  });
  EXPECT_EQ(report::counters().size(), rows + tenant_rows);
  report::counters().clear();
  ASSERT_EQ(sizeof slice, tenant_rows * sizeof(std::uint64_t));
  std::array<std::uint64_t, kCounterCount> totals{};
  std::array<std::uint64_t, kCounterCount> slices{};
  std::memcpy(totals.data(), &stats, sizeof stats);
  std::memcpy(slices.data(), &slice, sizeof slice);
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    EXPECT_EQ(totals[i], i + 1);
    EXPECT_EQ(slices[i], i < tenant_rows ? i + 1 : 0);
  }
}

// --- HS_CONFIG --------------------------------------------------------------

/// Transfers elided when the same 4 KiB range is uploaded to the card twice.
std::uint64_t repeated_upload_elisions(Runtime& rt) {
  std::vector<double> x(512, 1.0);
  rt.buffer_instantiate(rt.buffer_create(x.data(), 4096), DomainId{1});
  const StreamId s = rt.stream_create(DomainId{1}, CpuMask::first_n(1));
  (void)rt.enqueue_transfer(s, x.data(), 4096, XferDir::src_to_sink);
  (void)rt.enqueue_transfer(s, x.data(), 4096, XferDir::src_to_sink);
  rt.synchronize();
  return rt.stats().transfers_elided;
}

TEST(HsConfig, ElideOffIsTheConfigInEffect) {
  {
    const test::ScopedHsConfig on("coherence.track=1,coherence.elide=1");
    EXPECT_EQ(repeated_upload_elisions(*make_runtime()), 1u);
  }
  {
    // Elision needs tracking: track=0 turns elide off too.
    const test::ScopedHsConfig untracked("coherence.track=0,coherence.elide=1");
    EXPECT_FALSE(make_runtime()->config().coherence.elide);
  }
  const test::ScopedHsConfig off("coherence.elide=0");
  auto rt = make_runtime();
  EXPECT_FALSE(rt->config().coherence.elide);
  EXPECT_NE(hs_config_string(rt->config()).find("coherence.elide=0"),
            std::string::npos);
  EXPECT_EQ(repeated_upload_elisions(*rt), 0u);
}

TEST(HsConfig, MalformedItemsFailConstructionNamingTheKey) {
  const std::pair<const char*, const char*> cases[] = {
      {"dep_orcale=1", "dep_orcale"},          // unknown key
      {"dep_oracle=2", "dep_oracle"},          // value other than 0 or 1
      {"eviction=yes", "eviction"},            // value other than 0 or 1
      {"coherence.track", "coherence.track"},  // no '='
  };
  for (const auto& [items, key] : cases) {
    const test::ScopedHsConfig bad(items);
    try {
      (void)make_runtime();
      ADD_FAILURE() << "HS_CONFIG=" << items << " was accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Errc::invalid_argument) << items;
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << items;
    }
  }
}

}  // namespace
}  // namespace hs
