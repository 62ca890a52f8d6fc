// tenant_replay: service mode, where graph replay and eager admission
// share one card and the weighted-fair admission gate.
//
// One Service, two tenants at weights 3:1, each with one session and two
// streams on the same card. One op:
//   * tenant `replay` launches a graph captured in set-up: kReplay
//     requests (32 KiB upload, scale kernel, 32 KiB download) over its two
//     streams. Its inputs never change, so the coherence layer elides
//     every upload after the first launch;
//   * tenant `eager` enqueues kEager requests of the same shape through
//     its session, on inputs rewritten (and declared with
//     note_host_write) before every op, so its uploads are real;
//   * then both sessions synchronize.
//
// Output check after each op: every eager output and a seeded sample of
// replay outputs (poisoned before the op) must be 2 x their input.

#include <algorithm>
#include <limits>

#include "common/rng.hpp"
#include "graph/capture.hpp"
#include "graph/replay.hpp"
#include "harness.hpp"
#include "service/service.hpp"
#include "service/session.hpp"

namespace perf {
namespace {

constexpr std::size_t kReplay = 256;
constexpr std::size_t kEager = 64;
constexpr std::size_t kReqDoubles = 4096;  // 32 KiB
constexpr std::size_t kReqBytes = kReqDoubles * sizeof(double);
constexpr std::size_t kSampledReplay = 16;
constexpr hs::DomainId kCard{1};

hs::ComputePayload scale() {
  return hs::ComputePayload{
      .body =
          [](hs::TaskContext& ctx) {
            const double* in = ctx.operand_as<double>(0);
            double* out = ctx.operand_as<double>(1);
            for (std::size_t i = 0; i < kReqDoubles; ++i) {
              out[i] = 2.0 * in[i];
            }
          },
      .kernel = "scale",
      .flops = static_cast<double>(kReqDoubles)};
}

/// A tenant's client: one session, two streams on the card, and a
/// request-sized input and output array registered in its namespace.
struct Client {
  std::vector<double> in;
  std::vector<double> out;
  /// Declared after the arrays it registers: closes before they go.
  std::unique_ptr<hs::service::Session> session;
  hs::StreamId streams[2];

  Client(hs::service::Service& service, std::uint32_t tenant,
         std::size_t requests)
      : in(requests * kReqDoubles, 0.0),
        out(requests * kReqDoubles, 0.0),
        session(service.open_session(tenant)) {
    streams[0] = session->stream_create(kCard, hs::CpuMask::range(0, 1));
    streams[1] = session->stream_create(kCard, hs::CpuMask::range(1, 2));
    session->buffer_create("in", in.data(), in.size() * sizeof(double));
    session->buffer_create("out", out.data(), out.size() * sizeof(double));
    session->buffer_instantiate("in", kCard);
    session->buffer_instantiate("out", kCard);
  }

  /// Upload, scale, download of request `r` on stream r % 2. `spans`, when
  /// set, times each Session::enqueue_* call.
  void enqueue(std::size_t r, Spans* spans) {
    const hs::StreamId s = streams[r % 2];
    double* src = &in[r * kReqDoubles];
    double* dst = &out[r * kReqDoubles];
    const hs::OperandRef ops[] = {{src, kReqBytes, hs::Access::in},
                                  {dst, kReqBytes, hs::Access::out}};
    timed(spans, "session_enqueue", [&] {
      return session->enqueue_transfer(s, src, kReqBytes,
                                       hs::XferDir::src_to_sink);
    });
    timed(spans, "session_enqueue",
          [&] { return session->enqueue_compute(s, scale(), ops); });
    timed(spans, "session_enqueue", [&] {
      return session->enqueue_transfer(s, dst, kReqBytes,
                                       hs::XferDir::sink_to_src);
    });
  }

  [[nodiscard]] bool doubled(std::size_t r) const {
    for (std::size_t i = r * kReqDoubles; i < (r + 1) * kReqDoubles; ++i) {
      if (out[i] != 2.0 * in[i]) {
        return false;
      }
    }
    return true;
  }
};

class TenantReplay final : public Workload {
 public:
  explicit TenantReplay(std::uint64_t seed) : seed_(seed) {}

  ~TenantReplay() override {
    eager_.reset();
    replay_.reset();
    exec_.reset();
    service_.reset();
    if (setup_spans_ != nullptr && runtime_ != nullptr) {
      timed(setup_spans_, "runtime_dtor", [&] { runtime_.reset(); });
    }
  }

  TenantReplay(const TenantReplay&) = delete;
  TenantReplay& operator=(const TenantReplay&) = delete;

  bool setup(Spans& setup_spans) override {
    setup_spans_ = &setup_spans;
    runtime_ = timed(&setup_spans, "runtime_ctor",
                     [] { return make_runtime(bench_platform()); });
    service_ = std::make_unique<hs::service::Service>(*runtime_);
    replay_tenant_ = service_->tenant_create({.name = "replay", .weight = 3});
    eager_tenant_ = service_->tenant_create({.name = "eager", .weight = 1});
    replay_ = std::make_unique<Client>(*service_, replay_tenant_, kReplay);
    eager_ = std::make_unique<Client>(*service_, eager_tenant_, kEager);

    hs::Rng rng(seed_);
    for (double& v : replay_->in) {
      v = rng.uniform(-1.0, 1.0);
    }
    {
      const auto capture = replay_->session->begin_capture();
      for (std::size_t r = 0; r < kReplay; ++r) {
        replay_->enqueue(r, nullptr);
      }
      exec_ = std::make_unique<hs::graph::GraphExec>(*runtime_,
                                                     capture->finish());
    }
    nodes_ = exec_->graph().size();

    double ignored = 0.0;
    const bool ok = op(nullptr, ignored);
    threads_ = process_threads() - 1;
    return ok;
  }

  bool check_setup() override { return true; }

  bool op(Layer* layer, double& op_seconds) override {
    hs::Runtime& rt = *runtime_;
    // Untimed preparation: fresh eager inputs, poisoned replay samples.
    hs::Rng rng(seed_ ^ (++ops_ * 0x9e3779b97f4a7c15ULL));
    for (double& v : eager_->in) {
      v = rng.uniform(-1.0, 1.0);
    }
    rt.note_host_write(eager_->in.data(), eager_->in.size() * sizeof(double));
    std::size_t sample[kSampledReplay];
    for (std::size_t& r : sample) {
      r = static_cast<std::size_t>(rng() % kReplay);
      double* dst = &replay_->out[r * kReqDoubles];
      std::fill(dst, dst + kReqDoubles,
                std::numeric_limits<double>::quiet_NaN());
      rt.note_host_write(dst, kReqBytes);
    }

    Spans* spans = layer != nullptr ? &layer->spans : nullptr;
    rt.set_trace(layer != nullptr ? &layer->trace : nullptr);
    const hs::RuntimeStats before = rt.stats();
    const hs::service::TenantStats replay_before =
        service_->tenant_stats(replay_tenant_);
    const hs::service::TenantStats eager_before =
        service_->tenant_stats(eager_tenant_);

    const Clock::time_point t0 = Clock::now();
    timed(spans, "graph_launch", [&] { return exec_->launch(); });
    for (std::size_t r = 0; r < kEager; ++r) {
      eager_->enqueue(r, spans);
    }
    timed(spans, "sync_replay", [&] { replay_->session->synchronize(); });
    timed(spans, "sync_eager", [&] { eager_->session->synchronize(); });
    op_seconds = seconds_between(t0, Clock::now());

    rt.set_trace(nullptr);
    if (layer != nullptr) {
      add_delta(layer->stats, before, rt.stats());
      const hs::service::TenantStats replay_after =
          service_->tenant_stats(replay_tenant_);
      const hs::service::TenantStats eager_after =
          service_->tenant_stats(eager_tenant_);
      layer->extra["service.gate_passes"] += static_cast<double>(
          replay_after.gate_passes - replay_before.gate_passes +
          eager_after.gate_passes - eager_before.gate_passes);
      layer->extra["service.gate_waits"] += static_cast<double>(
          replay_after.gate_waits - replay_before.gate_waits +
          eager_after.gate_waits - eager_before.gate_waits);
    }

    bool ok = true;
    for (std::size_t r = 0; r < kEager; ++r) {
      ok = ok && eager_->doubled(r);
    }
    for (const std::size_t r : sample) {
      ok = ok && replay_->doubled(r);
    }
    return ok;
  }

  [[nodiscard]] std::size_t runtime_threads() const override {
    return threads_;
  }
  [[nodiscard]] std::size_t compute_workers() const override { return 2; }

  void finish_layers(Layer& layer) override {
    layer.extra["graph.launch_us_per_node"] =
        1e6 * layer.spans.p50("graph_launch") / static_cast<double>(nodes_);
    layer.extra["selfcheck.exact_repeat"] = 1.0;  // no exact counts here
  }

 private:
  std::uint64_t seed_;
  Spans* setup_spans_ = nullptr;
  std::unique_ptr<hs::Runtime> runtime_;
  std::unique_ptr<hs::service::Service> service_;
  std::uint32_t replay_tenant_ = 0;
  std::uint32_t eager_tenant_ = 0;
  std::unique_ptr<Client> replay_;
  std::unique_ptr<Client> eager_;
  std::unique_ptr<hs::graph::GraphExec> exec_;
  std::size_t nodes_ = 0;
  std::size_t threads_ = 0;
  std::uint64_t ops_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_tenant_replay(std::uint64_t seed) {
  return std::make_unique<TenantReplay>(seed);
}

}  // namespace perf
