// Tests for the hStreams-compatible C-style API (core/hstreams_compat)
// and the runtime features it surfaces: memory-kind budgets, read-only
// buffers, whole-buffer heap-argument dependences.
//
// The compat layer is process-global (as the original library is), so
// these tests run strictly sequentially within one binary and tear the
// context down after each case.

#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>

#include "core/hstreams_compat.hpp"
#include "scoped_hs_config.hpp"
#include "core/threaded_executor.hpp"
#include "sim/platform.hpp"
#include "sim/sim_executor.hpp"

namespace hs::compat {
namespace {

class CompatApi : public ::testing::Test {
 protected:
  void TearDown() override {
    if (hStreams_IsInitialized()) {
      EXPECT_EQ(hStreams_app_fini(), HSTR_RESULT_SUCCESS);
    }
  }
};

TEST_F(CompatApi, LifecycleAndDiscovery) {
  EXPECT_FALSE(hStreams_IsInitialized());
  EXPECT_EQ(hStreams_app_thread_sync(), HSTR_RESULT_NOT_INITIALIZED);

  EXPECT_EQ(hStreams_SetPlatform(PlatformDesc::host_plus_cards(4, 2, 8)),
            HSTR_RESULT_SUCCESS);
  EXPECT_EQ(hStreams_app_init(2), HSTR_RESULT_SUCCESS);
  EXPECT_TRUE(hStreams_IsInitialized());
  EXPECT_EQ(hStreams_app_init(2), HSTR_RESULT_ALREADY_INITIALIZED);

  std::uint32_t domains = 0;
  std::uint32_t streams = 0;
  EXPECT_EQ(hStreams_GetNumPhysDomains(&domains), HSTR_RESULT_SUCCESS);
  EXPECT_EQ(hStreams_GetNumLogStreams(&streams), HSTR_RESULT_SUCCESS);
  EXPECT_EQ(domains, 3u);
  EXPECT_EQ(streams, 4u);  // 2 streams x 2 cards

  EXPECT_EQ(hStreams_app_fini(), HSTR_RESULT_SUCCESS);
  EXPECT_EQ(hStreams_app_fini(), HSTR_RESULT_NOT_INITIALIZED);
}

TEST_F(CompatApi, XferComputeEventRoundTrip) {
  ASSERT_EQ(hStreams_SetPlatform(PlatformDesc::host_plus_cards(4, 1, 8)),
            HSTR_RESULT_SUCCESS);
  ASSERT_EQ(hStreams_app_init(2), HSTR_RESULT_SUCCESS);

  // Sink-side kernel resolved by name: args = [scalar factor, heap ptr,
  // scalar count].
  ASSERT_EQ(hStreams_RegisterKernel(
                "scale",
                [](const std::uint64_t* args, std::size_t nargs,
                   TaskContext&) {
                  ASSERT_EQ(nargs, 3u);
                  const auto factor = static_cast<double>(args[0]);
                  auto* data = reinterpret_cast<double*>(args[1]);
                  const auto count = static_cast<std::size_t>(args[2]);
                  for (std::size_t i = 0; i < count; ++i) {
                    data[i] *= factor;  // already sink-local
                  }
                }),
            HSTR_RESULT_SUCCESS);

  std::vector<double> data(512);
  std::iota(data.begin(), data.end(), 0.0);
  ASSERT_EQ(hStreams_app_create_buf(data.data(),
                                    data.size() * sizeof(double)),
            HSTR_RESULT_SUCCESS);

  HSTR_EVENT ev_up = HSTR_NULL_EVENT;
  ASSERT_EQ(hStreams_app_xfer_memory(data.data(), data.data(),
                                     data.size() * sizeof(double), 0,
                                     HSTR_SRC_TO_SINK, &ev_up),
            HSTR_RESULT_SUCCESS);

  const HSTR_ARG args[] = {HSTR_ARG::scalar(3), HSTR_ARG::heap(data.data()),
                           HSTR_ARG::scalar(data.size())};
  HSTR_EVENT ev_compute = HSTR_NULL_EVENT;
  ASSERT_EQ(hStreams_EnqueueCompute(0, "scale", args, 3, &ev_compute),
            HSTR_RESULT_SUCCESS);

  HSTR_EVENT ev_down = HSTR_NULL_EVENT;
  ASSERT_EQ(hStreams_app_xfer_memory(data.data(), data.data(),
                                     data.size() * sizeof(double), 0,
                                     HSTR_SINK_TO_SRC, &ev_down),
            HSTR_RESULT_SUCCESS);
  ASSERT_EQ(hStreams_app_event_wait(1, &ev_down), HSTR_RESULT_SUCCESS);

  EXPECT_DOUBLE_EQ(data[100], 300.0);
  EXPECT_DOUBLE_EQ(data[511], 3.0 * 511.0);
}

TEST_F(CompatApi, UnknownKernelAndBadHandles) {
  ASSERT_EQ(hStreams_app_init(2), HSTR_RESULT_SUCCESS);
  std::vector<double> data(8, 0.0);
  ASSERT_EQ(hStreams_app_create_buf(data.data(), sizeof(double) * 8),
            HSTR_RESULT_SUCCESS);
  EXPECT_EQ(hStreams_EnqueueCompute(0, "no_such_kernel", nullptr, 0,
                                    nullptr),
            HSTR_RESULT_BAD_NAME);
  EXPECT_EQ(hStreams_RegisterKernel(nullptr, [](auto, auto, auto&) {}),
            HSTR_RESULT_BAD_NAME);
  const HSTR_EVENT bogus = 999;
  EXPECT_EQ(hStreams_app_event_wait(1, &bogus), HSTR_RESULT_NOT_FOUND);
  // Transfer into an unregistered range.
  std::vector<double> stray(8);
  EXPECT_EQ(hStreams_app_xfer_memory(stray.data(), stray.data(), 64, 0,
                                     HSTR_SRC_TO_SINK, nullptr),
            HSTR_RESULT_NOT_FOUND);
}

TEST_F(CompatApi, EventStreamWaitScopesDependence) {
  ASSERT_EQ(hStreams_SetPlatform(PlatformDesc::host_plus_cards(4, 1, 8)),
            HSTR_RESULT_SUCCESS);
  ASSERT_EQ(hStreams_app_init(2), HSTR_RESULT_SUCCESS);
  ASSERT_EQ(hStreams_RegisterKernel(
                "fill",
                [](const std::uint64_t* args, std::size_t, TaskContext&) {
                  auto* p = reinterpret_cast<double*>(args[0]);
                  const auto v = static_cast<double>(args[1]);
                  for (std::size_t i = 0; i < 16; ++i) {
                    p[i] = v;
                  }
                }),
            HSTR_RESULT_SUCCESS);

  std::vector<double> x(16, 0.0);
  std::vector<double> y(16, 0.0);
  ASSERT_EQ(hStreams_app_create_buf(x.data(), sizeof(double) * 16),
            HSTR_RESULT_SUCCESS);
  ASSERT_EQ(hStreams_app_create_buf(y.data(), sizeof(double) * 16),
            HSTR_RESULT_SUCCESS);

  // Producer in stream 0 writes x; stream 1 waits on it scoped to x,
  // then consumes x and independently writes y.
  const HSTR_ARG p_args[] = {HSTR_ARG::heap(x.data()), HSTR_ARG::scalar(7)};
  HSTR_EVENT produced = HSTR_NULL_EVENT;
  ASSERT_EQ(hStreams_EnqueueCompute(0, "fill", p_args, 2, &produced),
            HSTR_RESULT_SUCCESS);

  void* addresses[] = {x.data()};
  ASSERT_EQ(hStreams_EventStreamWait(1, 1, &produced, 1, addresses, nullptr),
            HSTR_RESULT_SUCCESS);
  const HSTR_ARG c_args[] = {HSTR_ARG::heap(y.data()), HSTR_ARG::scalar(9)};
  ASSERT_EQ(hStreams_EnqueueCompute(1, "fill", c_args, 2, nullptr),
            HSTR_RESULT_SUCCESS);
  ASSERT_EQ(hStreams_app_thread_sync(), HSTR_RESULT_SUCCESS);

  // Both device-side writes landed on the sink; pull them back.
  HSTR_EVENT evs[2];
  ASSERT_EQ(hStreams_app_xfer_memory(x.data(), x.data(), 16 * sizeof(double),
                                     0, HSTR_SINK_TO_SRC, &evs[0]),
            HSTR_RESULT_SUCCESS);
  ASSERT_EQ(hStreams_app_xfer_memory(y.data(), y.data(), 16 * sizeof(double),
                                     1, HSTR_SINK_TO_SRC, &evs[1]),
            HSTR_RESULT_SUCCESS);
  ASSERT_EQ(hStreams_app_event_wait(2, evs), HSTR_RESULT_SUCCESS);
  EXPECT_DOUBLE_EQ(x[5], 7.0);
  EXPECT_DOUBLE_EQ(y[5], 9.0);
}

TEST_F(CompatApi, DeAllocReleasesBudget) {
  // Legacy hStreams semantics: with the eviction governor off, an
  // over-budget create fails hard and DeAlloc is the only way to get
  // the bytes back. (With eviction on — the default — the second create
  // would simply evict the idle first buffer and succeed.)
  PlatformDesc platform = PlatformDesc::host_plus_cards(4, 1, 8);
  platform.domains[1].memory_bytes[MemKind::ddr] = 1 << 20;  // 1 MB card
  ASSERT_EQ(hStreams_SetPlatform(platform), HSTR_RESULT_SUCCESS);
  {
    const test::ScopedHsConfig no_eviction("eviction=0");
    ASSERT_EQ(hStreams_app_init(2), HSTR_RESULT_SUCCESS);
  }

  std::vector<double> big(96 * 1024);  // 768 KB
  ASSERT_EQ(hStreams_app_create_buf(big.data(),
                                    big.size() * sizeof(double)),
            HSTR_RESULT_SUCCESS);
  // A second buffer of the same size exceeds the 1 MB card budget.
  std::vector<double> big2(96 * 1024);
  EXPECT_EQ(hStreams_app_create_buf(big2.data(),
                                    big2.size() * sizeof(double)),
            HSTR_RESULT_OUT_OF_MEMORY);
  // Free the first; now the second fits.
  EXPECT_EQ(hStreams_DeAlloc(big.data()), HSTR_RESULT_SUCCESS);
  EXPECT_EQ(hStreams_app_create_buf(big2.data(),
                                    big2.size() * sizeof(double)),
            HSTR_RESULT_SUCCESS);
}

TEST_F(CompatApi, ResultNamesRoundTrip) {
  EXPECT_STREQ(hStreams_ResultGetName(HSTR_RESULT_SUCCESS),
               "HSTR_RESULT_SUCCESS");
  EXPECT_STREQ(hStreams_ResultGetName(HSTR_RESULT_OUT_OF_MEMORY),
               "HSTR_RESULT_OUT_OF_MEMORY");
  EXPECT_STREQ(hStreams_ResultGetName(HSTR_RESULT_TIME_OUT_REACHED),
               "HSTR_RESULT_TIME_OUT_REACHED");
  EXPECT_STREQ(hStreams_ResultGetName(HSTR_RESULT_REMOTE_ERROR),
               "HSTR_RESULT_REMOTE_ERROR");
  EXPECT_STREQ(hStreams_ResultGetName(HSTR_RESULT_DEVICE_NOT_AVAILABLE),
               "HSTR_RESULT_DEVICE_NOT_AVAILABLE");
  EXPECT_STREQ(hStreams_ResultGetName(HSTR_RESULT_EVENT_CANCELED),
               "HSTR_RESULT_EVENT_CANCELED");
}

TEST_F(CompatApi, ErrcMapsOntoResultSurface) {
  EXPECT_EQ(hStreams_ResultFromErrc(Errc::ok), HSTR_RESULT_SUCCESS);
  EXPECT_EQ(hStreams_ResultFromErrc(Errc::not_found), HSTR_RESULT_NOT_FOUND);
  EXPECT_EQ(hStreams_ResultFromErrc(Errc::resource_exhausted),
            HSTR_RESULT_OUT_OF_MEMORY);
  EXPECT_EQ(hStreams_ResultFromErrc(Errc::timed_out),
            HSTR_RESULT_TIME_OUT_REACHED);
  EXPECT_EQ(hStreams_ResultFromErrc(Errc::link_error),
            HSTR_RESULT_REMOTE_ERROR);
  EXPECT_EQ(hStreams_ResultFromErrc(Errc::device_lost),
            HSTR_RESULT_DEVICE_NOT_AVAILABLE);
  EXPECT_EQ(hStreams_ResultFromErrc(Errc::cancelled),
            HSTR_RESULT_EVENT_CANCELED);
  EXPECT_EQ(hStreams_ResultFromErrc(Errc::internal),
            HSTR_RESULT_INTERNAL_ERROR);
}

TEST_F(CompatApi, DeviceLossSurfacesAsResultCodeNotException) {
  // Three scheduled transients exhaust the default retry budget on the
  // first upload, declaring the card lost mid-run.
  RuntimeConfig config;
  config.platform = PlatformDesc::host_plus_cards(4, 1, 4);
  config.faults.schedule = {
      {DomainId{1}, 0, 0, FaultKind::transient_error},
      {DomainId{1}, 0, 1, FaultKind::transient_error},
      {DomainId{1}, 0, 2, FaultKind::transient_error}};
  Runtime runtime(config, std::make_unique<ThreadedExecutor>());
  ASSERT_EQ(hStreams_InitWithRuntime(&runtime, 2), HSTR_RESULT_SUCCESS);

  std::vector<double> data(64, 1.0);
  ASSERT_EQ(hStreams_app_create_buf(data.data(), 64 * sizeof(double)),
            HSTR_RESULT_SUCCESS);
  ASSERT_EQ(hStreams_app_xfer_memory(data.data(), data.data(),
                                     64 * sizeof(double), 0,
                                     HSTR_SRC_TO_SINK, nullptr),
            HSTR_RESULT_SUCCESS);
  // The loss surfaces as an HSTR code at the next sync; no C++ exception
  // crosses the C-style boundary.
  EXPECT_EQ(hStreams_app_thread_sync(), HSTR_RESULT_DEVICE_NOT_AVAILABLE);
  // Further work targeting the dead card is refused with the same code.
  EXPECT_EQ(hStreams_app_xfer_memory(data.data(), data.data(),
                                     64 * sizeof(double), 0,
                                     HSTR_SRC_TO_SINK, nullptr),
            HSTR_RESULT_DEVICE_NOT_AVAILABLE);
  EXPECT_FALSE(runtime.domain_alive(DomainId{1}));
  EXPECT_EQ(hStreams_app_fini(), HSTR_RESULT_SUCCESS);
}

}  // namespace

// --- Runtime-level feature tests (budgets, read-only) ----------------------

namespace {

std::unique_ptr<Runtime> make_runtime(PlatformDesc platform) {
  RuntimeConfig config;
  config.platform = std::move(platform);
  return std::make_unique<Runtime>(config,
                                   std::make_unique<ThreadedExecutor>());
}

TEST(MemoryBudget, InstantiationChargesAndRefunds) {
  PlatformDesc platform = PlatformDesc::host_plus_cards(2, 1, 4);
  platform.domains[1].memory_bytes = {{MemKind::ddr, 4096},
                                      {MemKind::hbm, 1024}};
  auto rt = make_runtime(platform);
  const DomainId card{1};
  EXPECT_EQ(rt->memory_available(card, MemKind::ddr), 4096u);
  EXPECT_EQ(rt->memory_available(card, MemKind::hbm), 1024u);
  EXPECT_EQ(rt->memory_available(card, MemKind::persistent), 0u);

  std::vector<std::byte> a(3000);
  std::vector<std::byte> b(3000);
  std::vector<std::byte> h(512);
  const BufferId ba = rt->buffer_create(a.data(), a.size());
  const BufferId bb = rt->buffer_create(b.data(), b.size());
  const BufferId bh = rt->buffer_create(
      h.data(), h.size(), BufferProps{.mem_kind = MemKind::hbm});

  rt->buffer_instantiate(ba, card);
  EXPECT_EQ(rt->memory_available(card, MemKind::ddr), 1096u);
  // Over budget: the governor spills the idle incarnation of ba (clean —
  // nothing device-newer — so zero writeback) instead of throwing.
  rt->buffer_instantiate(bb, card);
  EXPECT_EQ(rt->memory_available(card, MemKind::ddr), 1096u);
  EXPECT_EQ(rt->stats().evictions, 1u);
  EXPECT_EQ(rt->stats().spill_bytes_written, 0u);
  // HBM is a separate pool.
  rt->buffer_instantiate(bh, card);
  EXPECT_EQ(rt->memory_available(card, MemKind::hbm), 512u);
  // Deinstantiating the spilled incarnation is a no-op refund-wise (its
  // charge was already released at eviction).
  rt->buffer_deinstantiate(ba, card);
  EXPECT_EQ(rt->memory_available(card, MemKind::ddr), 1096u);
  // Destroy refunds the resident incarnation.
  rt->buffer_destroy(bb);
  EXPECT_EQ(rt->memory_available(card, MemKind::ddr), 4096u);
}

TEST(MemoryBudget, EvictionDisabledRestoresThrowOnExhaustion) {
  PlatformDesc platform = PlatformDesc::host_plus_cards(2, 1, 4);
  platform.domains[1].memory_bytes = {{MemKind::ddr, 4096}};
  RuntimeConfig config;
  config.platform = std::move(platform);
  config.eviction = false;
  auto rt = std::make_unique<Runtime>(config,
                                      std::make_unique<ThreadedExecutor>());
  const DomainId card{1};
  std::vector<std::byte> a(3000);
  std::vector<std::byte> b(3000);
  const BufferId ba = rt->buffer_create(a.data(), a.size());
  const BufferId bb = rt->buffer_create(b.data(), b.size());
  rt->buffer_instantiate(ba, card);
  try {
    rt->buffer_instantiate(bb, card);
    FAIL() << "over-budget instantiation must throw with eviction off";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::resource_exhausted);
  }
  EXPECT_EQ(rt->stats().evictions, 0u);
}

TEST(MemoryBudget, MissingKindRejected) {
  PlatformDesc platform = PlatformDesc::host_plus_cards(2, 1, 4);
  platform.domains[1].memory_bytes = {{MemKind::ddr, 1 << 20}};
  auto rt = make_runtime(platform);
  std::vector<std::byte> p(64);
  const BufferId id = rt->buffer_create(
      p.data(), p.size(), BufferProps{.mem_kind = MemKind::persistent});
  EXPECT_THROW(rt->buffer_instantiate(id, DomainId{1}), Error);
}

TEST(ReadOnlyBuffers, WriteOperandsRejected) {
  auto rt = make_runtime(PlatformDesc::host_plus_cards(2, 1, 4));
  std::vector<double> data(64, 1.0);
  const BufferId id = rt->buffer_create(
      data.data(), data.size() * sizeof(double),
      BufferProps{.read_only = true});
  rt->buffer_instantiate(id, DomainId{1});
  const StreamId s = rt->stream_create(DomainId{1}, CpuMask::first_n(2));

  // Reading is fine; upload transfers are fine (that is how the data
  // arrives); compute writes are contract violations.
  (void)rt->enqueue_transfer(s, data.data(), 64 * sizeof(double),
                             XferDir::src_to_sink);
  ComputePayload reader;
  reader.body = [](TaskContext&) {};
  const OperandRef rops[] = {
      {data.data(), 64 * sizeof(double), Access::in}};
  (void)rt->enqueue_compute(s, std::move(reader), rops);

  ComputePayload writer;
  writer.body = [](TaskContext&) {};
  const OperandRef wops[] = {
      {data.data(), 64 * sizeof(double), Access::out}};
  EXPECT_THROW((void)rt->enqueue_compute(s, std::move(writer), wops), Error);
  rt->synchronize();
}

}  // namespace
}  // namespace hs::compat
