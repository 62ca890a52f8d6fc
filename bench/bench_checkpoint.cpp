// Durable incremental checkpoint: write amplification and overhead.
//
// Table 1 factorizes the same tiled matrix with an epoch cut every
// step, once with incremental snapshots (validity-map-driven:
// only byte ranges dirtied since the previous epoch are written) and
// once with incremental disabled (every epoch rewrites every tracked
// byte). Cholesky's working set shrinks as the factorization marches,
// so the incremental run must write strictly fewer bytes — the
// checkpoint_incremental_lt_full acceptance counter gates CI on that.
//
// Table 2 sweeps the epoch interval to expose the overhead knob: more
// frequent cuts mean more bytes written and more checkpoint barriers,
// in exchange for a shorter replay window after a crash. Virtual
// seconds are deterministic (SimExecutor), so drift there is a real
// scheduling change, not noise.
//
// HS_BENCH_QUICK=1 shrinks the matrix for the CI perf-smoke gate.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

#include "apps/cholesky.hpp"
#include "apps/tiled_matrix.hpp"
#include "bench_util.hpp"
#include "checkpoint/checkpoint.hpp"
#include "common/json_report.hpp"

namespace hs::bench {
namespace {

/// Scratch checkpoint directory under $TMPDIR, removed on scope exit.
struct CkptDir {
  std::string path;
  CkptDir() {
    char tmpl[] = "/tmp/bench_ckpt_XXXXXX";
    char* made = mkdtemp(tmpl);
    require(made != nullptr, "bench_checkpoint: mkdtemp failed");
    path = made;
  }
  ~CkptDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

struct RunResult {
  double seconds = 0.0;
  std::uint64_t epochs = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_skipped = 0;
};

/// One factorization on a fresh sim runtime. interval == 0 disables
/// checkpointing entirely (the baseline the sweep compares against).
RunResult run_once(std::size_t n, std::size_t tile, std::size_t interval,
                   bool incremental) {
  auto rt = sim_runtime(sim::hsw_plus_knc(2));
  apps::TiledMatrix a = apps::TiledMatrix::square(n, tile);
  apps::CholeskyConfig config;
  config.streams_per_device = 2;
  config.host_streams = 1;

  RunResult out;
  if (interval == 0) {
    out.seconds = apps::run_cholesky(*rt, config, a).seconds;
  } else {
    CkptDir dir;
    ckpt::CheckpointConfig cc;
    cc.directory = dir.path;
    cc.incremental = incremental;
    ckpt::CheckpointManager manager(*rt, cc);
    config.checkpoint = &manager;
    config.checkpoint_interval = interval;
    out.seconds = apps::run_cholesky(*rt, config, a).seconds;
  }
  const RuntimeStats stats = rt->stats();
  out.epochs = stats.checkpoints_taken;
  out.bytes_written = stats.checkpoint_bytes_written;
  out.bytes_skipped = stats.checkpoint_bytes_skipped_clean;
  return out;
}

void amplification_table(std::size_t n, std::size_t tile) {
  Table table("Checkpoint write amplification: incremental vs full epochs "
              "(Cholesky " + std::to_string(n) + ", epoch every step)");
  table.header({"variant", "epochs", "bytes written", "bytes skipped clean",
                "virtual s"});
  const RunResult incremental = run_once(n, tile, 1, /*incremental=*/true);
  const RunResult full = run_once(n, tile, 1, /*incremental=*/false);
  table.row({"incremental", std::to_string(incremental.epochs),
             std::to_string(incremental.bytes_written),
             std::to_string(incremental.bytes_skipped),
             fmt(incremental.seconds, 6)});
  table.row({"full", std::to_string(full.epochs),
             std::to_string(full.bytes_written),
             std::to_string(full.bytes_skipped), fmt(full.seconds, 6)});
  table.print();

  const bool lt = incremental.bytes_written < full.bytes_written;
  const double pct =
      full.bytes_written == 0
          ? 0.0
          : 100.0 * (1.0 - static_cast<double>(incremental.bytes_written) /
                               static_cast<double>(full.bytes_written));
  std::printf("incremental epochs wrote %.1f%% fewer bytes than full "
              "snapshots%s\n\n",
              pct, lt ? "" : " — ACCEPTANCE FAILED");
  report::note_counter("checkpoint_incremental_bytes",
                       incremental.bytes_written);
  report::note_counter("checkpoint_full_bytes", full.bytes_written);
  report::note_counter("checkpoint_incremental_lt_full", lt ? 1 : 0);
}

void interval_table(std::size_t n, std::size_t tile) {
  Table table("Checkpoint overhead vs epoch interval (Cholesky " +
              std::to_string(n) + ", incremental)");
  table.header({"interval (steps)", "epochs", "bytes written", "virtual s"});
  for (const std::size_t interval : {std::size_t{0}, std::size_t{1},
                                     std::size_t{2}, std::size_t{4}}) {
    const RunResult r = run_once(n, tile, interval, /*incremental=*/true);
    table.row({interval == 0 ? "off" : std::to_string(interval),
               std::to_string(r.epochs), std::to_string(r.bytes_written),
               fmt(r.seconds, 6)});
  }
  table.print();
  std::puts("shorter intervals buy a smaller post-crash replay window with "
            "more bytes written and more epoch barriers.");
}

}  // namespace
}  // namespace hs::bench

int main() {
  const std::size_t n = hs::bench::quick_mode() ? 96 : 192;
  const std::size_t tile = 24;
  hs::bench::amplification_table(n, tile);
  hs::bench::interval_table(n, tile);
  hs::report::write_json("checkpoint");
  return 0;
}
