// hsperf: the repo benchmark.
//
//   hsperf --workload <cholesky_ooc|dag_storm|tenant_replay> --seed <n>
//          --seconds <s> --trace <0|1>
//
// Builds the workload's inputs from --seed, sets it up several times
// (set-up time is the median), then runs a closed loop — one client, one
// client thread, each op after the last completed — on the
// ThreadedExecutor for --seconds of wall time, checking every op's
// output. With --trace 0 it prints the end-to-end metrics; with --trace 1
// it runs half the time untraced and half with a TraceRecorder attached
// and bench-side spans around each call into a layer, and prints the
// per-layer metrics. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// See RATIONALE.md for the workloads and what each metric should move.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"

namespace perf {
namespace {

/// Set-up repeats. The first kSetupWarmups are not timed: the first
/// set-ups of a process run slower while the heap grows and its pages are
/// first touched. setup_s is the median of the kSetups after them.
constexpr std::size_t kSetupWarmups = 3;
constexpr std::size_t kSetups = 7;
constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
        have[0] = true;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
        have[1] = true;
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
        have[2] = args.seconds > 0.0;
      } else if (key == "--trace") {
        args.trace = value == "1";
        have[3] = value == "0" || value == "1";
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && have[0] && have[1] && have[2] && have[3];
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "cholesky_ooc") {
    return make_cholesky_ooc(seed);
  }
  if (name == "dag_storm") {
    return make_dag_storm(seed);
  }
  if (name == "tenant_replay") {
    return make_tenant_replay(seed);
  }
  return nullptr;
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 1;
  }
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

/// CPU time the hypervisor gave to other guests so far (/proc/stat
/// "steal") and all CPU time, in clock ticks summed over CPUs.
struct HostTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

HostTicks host_ticks() {
  HostTicks out;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return out;
  }
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const unsigned long long x : v) {
      out.total += x;
    }
    out.steal = v[7];
  }
  std::fclose(f);
  return out;
}

/// One stretch of about kWindowS of the loop.
struct Window {
  std::vector<double> latency_s;  ///< successful ops only
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double steal_share = 0.0;  ///< host steal / all host CPU time
};

struct LoopResult {
  std::vector<double> latency_s;  ///< successful ops of the kept windows
  double wall_s = 0.0;            ///< kept windows
  double cpu_s = 0.0;             ///< kept windows
  std::size_t attempted = 0;      ///< every op, kept or not
  std::size_t failed = 0;
  double loop_s = 0.0;       ///< whole loop, dropped windows included
  double steal_share = 0.0;  ///< host steal share over the kept windows
};

constexpr double kWindowS = 1.0;
/// A window in which the host stole more than this share of all CPU time
/// is dropped and the loop extended to replace it.
constexpr double kMaxStealShare = 0.02;
/// The loop never runs longer than this many times `seconds`.
constexpr double kMaxLoopFactor = 1.75;

/// The closed loop: ops back to back, grouped into windows of about
/// kWindowS. On a virtual machine that shares its host, CPU time lost to
/// other guests ("steal") slows every timing together. So windows
/// with more steal than kMaxStealShare are set aside and the loop runs
/// on until `seconds` of quiet windows were measured, or until
/// kMaxLoopFactor x `seconds`. The result covers the quietest windows
/// that add up to `seconds`; failures count over every op.
LoopResult run_loop(Workload& workload, double seconds, Layer* layer) {
  LoopResult out;
  std::vector<Window> windows;
  double quiet_s = 0.0;
  const Clock::time_point t0 = Clock::now();
  while (quiet_s < seconds &&
         seconds_between(t0, Clock::now()) < kMaxLoopFactor * seconds) {
    Window w;
    const HostTicks host0 = host_ticks();
    const double cpu0 = cpu_seconds();
    const Clock::time_point w0 = Clock::now();
    while (seconds_between(w0, Clock::now()) < kWindowS) {
      ++out.attempted;
      if (layer != nullptr) {
        ++layer->ops;
      }
      double op_s = 0.0;
      bool ok = false;
      try {
        ok = workload.op(layer, op_s);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "hsperf: op %zu threw: %s\n", out.attempted,
                     e.what());
      }
      if (layer != nullptr) {
        layer->digest.wall_s += op_s;
      }
      if (ok) {
        w.latency_s.push_back(op_s);
      } else {
        ++out.failed;
      }
    }
    w.wall_s = seconds_between(w0, Clock::now());
    w.cpu_s = cpu_seconds() - cpu0;
    const HostTicks host1 = host_ticks();
    w.steal_share = share(static_cast<double>(host1.steal - host0.steal),
                          static_cast<double>(host1.total - host0.total));
    if (w.steal_share <= kMaxStealShare) {
      quiet_s += w.wall_s;
    }
    windows.push_back(std::move(w));
  }
  out.loop_s = seconds_between(t0, Clock::now());

  std::stable_sort(windows.begin(), windows.end(),
                   [](const Window& a, const Window& b) {
                     return a.steal_share < b.steal_share;
                   });
  double steal_weighted = 0.0;
  for (const Window& w : windows) {
    if (out.wall_s >= seconds) {
      break;
    }
    out.latency_s.insert(out.latency_s.end(), w.latency_s.begin(),
                         w.latency_s.end());
    out.wall_s += w.wall_s;
    out.cpu_s += w.cpu_s;
    steal_weighted += w.steal_share * w.wall_s;
  }
  out.steal_share = share(steal_weighted, out.wall_s);
  return out;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string number(double v) {
  if (!std::isfinite(v)) {
    v = 0.0;
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-40s %16s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Every per-layer metric, in BENCHMARK.json order. A workload whose op
/// never enters a layer reports that layer's metrics as 0.
std::vector<Metric> layer_metrics(const Layer& layer, const Spans& setup,
                                  const Workload& workload,
                                  double untraced_p50_s, double traced_p50_s,
                                  std::size_t runtime_threads) {
  const hs::RuntimeStats& s = layer.stats;
  const TraceDigest& d = layer.digest;
  const auto ops = static_cast<double>(std::max<std::size_t>(layer.ops, 1));
  const auto actions = static_cast<double>(
      s.computes_enqueued + s.transfers_enqueued + s.syncs_enqueued);
  const auto per_op = [ops](double v) { return v / ops; };
  const auto extra = [&layer](const char* name) {
    const auto it = layer.extra.find(name);
    return it == layer.extra.end() ? 0.0 : it->second;
  };
  // Runtime construction/teardown: per op where the op builds a runtime
  // (cholesky_ooc), otherwise from the repeated set-ups.
  const auto life_ms = [&](const std::string& name) {
    const Spans& from = layer.spans.get(name).empty() ? setup : layer.spans;
    return 1e3 * from.p50(name);
  };
  const auto gflops = [&d](const std::string& label) {
    const auto span = d.kernel_span_s.find(label);
    const auto flops = d.kernel_flops.find(label);
    return span == d.kernel_span_s.end() || flops == d.kernel_flops.end()
               ? 0.0
               : 1e-9 * share(flops->second, span->second);
  };
  double kernel_busy_s = 0.0;
  for (const char* label : {"dgemm", "dsyrk", "dtrsm", "dpotrf"}) {
    const auto it = d.kernel_span_s.find(label);
    kernel_busy_s += it == d.kernel_span_s.end() ? 0.0 : it->second;
  }
  std::vector<double> enqueue_all = layer.spans.get("enqueue_chain");
  const auto& fanout = layer.spans.get("enqueue_fanout");
  enqueue_all.insert(enqueue_all.end(), fanout.begin(), fanout.end());

  return {
      {"apps.runtime_ctor_ms", life_ms("runtime_ctor"), "ms"},
      {"apps.runtime_dtor_ms", life_ms("runtime_dtor"), "ms"},
      {"hsblas.ref_potrf_ms", extra("hsblas.ref_potrf_ms"), "ms"},
      {"core.enqueue_chain_us_p50", 1e6 * layer.spans.p50("enqueue_chain"),
       "us"},
      {"core.enqueue_fanout_us_p50", 1e6 * layer.spans.p50("enqueue_fanout"),
       "us"},
      {"core.enqueue_us_p90", 1e6 * quantile(enqueue_all, 0.9), "us"},
      {"core.dep_steps_per_action",
       share(static_cast<double>(s.dep_scan_steps), actions), "count"},
      {"core.dep_edges_per_action",
       share(static_cast<double>(s.dep_index_hits), actions), "count"},
      {"core.lock_contention_per_kaction",
       1e3 * share(static_cast<double>(s.lock_shard_contention), actions),
       "count"},
      {"core.drain_ms", 1e3 * layer.spans.p50("drain"), "ms"},
      {"core.dispatch_wait_us_p50", 1e6 * quantile(d.dispatch_wait_s, 0.5),
       "us"},
      {"core.exec_us_p50", 1e6 * quantile(d.exec_s, 0.5), "us"},
      {"core.ooo_dispatch_share",
       share(static_cast<double>(s.ooo_dispatches), actions), "share"},
      {"core.worker_busy_share",
       share(d.compute_busy_s,
             static_cast<double>(workload.compute_workers()) * d.wall_s),
       "share"},
      {"hsblas.gemm_gflops", gflops("dgemm"), "GF/s"},
      {"hsblas.syrk_gflops", gflops("dsyrk"), "GF/s"},
      {"hsblas.trsm_gflops", gflops("dtrsm"), "GF/s"},
      {"hsblas.potrf_gflops", gflops("dpotrf"), "GF/s"},
      {"hsblas.busy_ms_per_op", 1e3 * per_op(kernel_busy_s), "ms"},
      {"core.governor.evictions_per_op",
       per_op(static_cast<double>(s.evictions)), "count"},
      {"core.governor.refetches_per_op",
       per_op(static_cast<double>(s.refetches)), "count"},
      {"core.governor.spill_mib_per_op",
       per_op(static_cast<double>(s.spill_bytes_written)) / kMiB, "MiB"},
      {"core.governor.clean_drop_mib_per_op",
       per_op(static_cast<double>(s.spill_bytes_dropped_clean)) / kMiB, "MiB"},
      {"core.governor.refetch_share",
       share(static_cast<double>(s.refetches),
             static_cast<double>(s.evictions)),
       "share"},
      {"core.governor.defers_per_op", per_op(static_cast<double>(d.defers)),
       "count"},
      {"sim.virtual_ms", extra("sim.virtual_ms"), "ms"},
      {"sim.evictions", extra("sim.evictions"), "count"},
      {"sim.refetches", extra("sim.refetches"), "count"},
      {"sim.spill_mib", extra("sim.spill_mib"), "MiB"},
      {"sim.bytes_moved_mib", extra("sim.bytes_moved_mib"), "MiB"},
      {"interconnect.bytes_moved_mib_per_op",
       per_op(static_cast<double>(s.bytes_transferred)) / kMiB, "MiB"},
      {"interconnect.xfer_us_p50", 1e6 * quantile(d.xfer_s, 0.5), "us"},
      {"interconnect.copier_busy_share",
       share(d.copier_busy_s,
             static_cast<double>(executor_config().transfer_workers) *
                 d.wall_s),
       "share"},
      {"core.coherence.elided_share",
       share(static_cast<double>(s.transfers_elided),
             static_cast<double>(s.transfers_enqueued)),
       "share"},
      {"core.coherence.bytes_elided_mib_per_op",
       per_op(static_cast<double>(s.bytes_elided)) / kMiB, "MiB"},
      {"graph.launch_us_per_node", extra("graph.launch_us_per_node"), "us"},
      {"graph.deps_reused_per_launch",
       share(static_cast<double>(s.deps_reused),
             static_cast<double>(s.graph_replays)),
       "count"},
      {"service.enqueue_us_p50", 1e6 * layer.spans.p50("session_enqueue"),
       "us"},
      {"service.sync_ms_p50_replay", 1e3 * layer.spans.p50("sync_replay"),
       "ms"},
      {"service.sync_ms_p50_eager", 1e3 * layer.spans.p50("sync_eager"), "ms"},
      {"service.gate_passes_per_op", per_op(extra("service.gate_passes")),
       "count"},
      {"service.gate_waits_per_op", per_op(extra("service.gate_waits")),
       "count"},
      {"trace.overhead_share",
       untraced_p50_s > 0.0 ? traced_p50_s / untraced_p50_s - 1.0 : 0.0,
       "share"},
      {"run.runtime_threads", static_cast<double>(runtime_threads), "count"},
      {"run.ops_traced", static_cast<double>(layer.ops), "count"},
      {"selfcheck.exact_repeat", extra("selfcheck.exact_repeat"), "count"},
      {"selfcheck.dep_steps_seed_delta", extra("selfcheck.dep_steps_seed_delta"),
       "count"},
  };
}

int run(const Args& args) {
  // Set-up, several times over; the last instance runs the loop.
  Spans setup_spans;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  bool setup_ok = true;
  for (std::size_t k = 0; k < kSetupWarmups + kSetups; ++k) {
    workload.reset();  // tear the previous instance down untimed
    const Clock::time_point t0 = Clock::now();
    workload = make_workload(args.workload, args.seed);
    setup_ok = workload->setup(setup_spans) && setup_ok;
    if (k >= kSetupWarmups) {
      setup_s.push_back(seconds_between(t0, Clock::now()));
    }
  }
  setup_ok = workload->check_setup() && setup_ok;

  // Thread budget: the runtime (process threads minus this client
  // thread) may not spawn more threads than there are CPUs.
  const std::size_t nproc = online_cpus();
  const std::size_t threads = workload->runtime_threads();
  const bool threads_ok = threads <= nproc;
  if (!threads_ok) {
    std::fprintf(stderr, "hsperf: runtime spawned %zu threads on %zu CPUs\n",
                 threads, nproc);
  }
  if (!setup_ok) {
    std::fprintf(stderr, "hsperf: a set-up output check failed\n");
  }

  std::vector<Metric> metrics;
  LoopResult total;
  if (!args.trace) {
    total = run_loop(*workload, args.seconds, nullptr);
    const double attempted = static_cast<double>(total.attempted);
    const double timed_ops = static_cast<double>(
        std::max<std::size_t>(total.latency_s.size(), 1));
    metrics = {
        {"latency_ms_p50", 1e3 * quantile(total.latency_s, 0.5), "ms"},
        {"latency_ms_p90", 1e3 * quantile(total.latency_s, 0.9), "ms"},
        {"throughput_ops_s",
         static_cast<double>(total.latency_s.size()) / total.wall_s, "1/s"},
        {"cpu_ms_per_op", 1e3 * total.cpu_s / timed_ops, "ms"},
        {"setup_s", quantile(setup_s, 0.5), "s"},
        {"peak_rss_mib", peak_rss_mib(), "MiB"},
        {"success_share",
         1.0 - static_cast<double>(total.failed) / attempted, "share"},
    };
    std::printf("# %s seed=%llu: %zu ops timed (%zu beyond p90) in %.1f s "
                "of a %.1f s loop, host steal share %.4f; %zu runtime "
                "threads on %zu CPUs\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                total.latency_s.size(), total.latency_s.size() / 10,
                total.wall_s, total.loop_s, total.steal_share, threads, nproc);
  } else {
    // Half the time untraced (the overhead reference), half traced.
    const LoopResult plain = run_loop(*workload, args.seconds / 2, nullptr);
    Layer layer;
    const LoopResult traced = run_loop(*workload, args.seconds / 2, &layer);
    absorb(layer.trace, layer.digest);
    workload->finish_layers(layer);
    metrics = layer_metrics(layer, setup_spans, *workload,
                            quantile(plain.latency_s, 0.5),
                            quantile(traced.latency_s, 0.5), threads);
    total.attempted = plain.attempted + traced.attempted;
    total.failed = plain.failed + traced.failed;
  }
  const bool correct = setup_ok && threads_ok && total.failed == 0;
  print_result(correct, total.attempted, total.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perf

int main(int argc, char** argv) {
  perf::Args args;
  if (!perf::parse_args(argc, argv, args) ||
      perf::make_workload(args.workload, 0) == nullptr) {
    std::fprintf(stderr,
                 "usage: hsperf --workload <cholesky_ooc|dag_storm|"
                 "tenant_replay> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  try {
    return perf::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hsperf: %s\n", e.what());
    return 1;
  }
}
