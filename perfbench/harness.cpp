#include "harness.hpp"

#include <algorithm>
#include <filesystem>
#include <functional>

namespace perf {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

const std::vector<double>& Spans::get(const std::string& name) const {
  static const std::vector<double> kEmpty;
  const auto it = samples_.find(name);
  return it == samples_.end() ? kEmpty : it->second;
}

void add_delta(hs::RuntimeStats& acc, const hs::RuntimeStats& before,
               const hs::RuntimeStats& after) {
#define PERF_DELTA(field) acc.field += after.field - before.field
  PERF_DELTA(computes_enqueued);
  PERF_DELTA(transfers_enqueued);
  PERF_DELTA(syncs_enqueued);
  PERF_DELTA(actions_completed);
  PERF_DELTA(bytes_transferred);
  PERF_DELTA(ooo_dispatches);
  PERF_DELTA(graph_replays);
  PERF_DELTA(deps_reused);
  PERF_DELTA(dep_index_hits);
  PERF_DELTA(dep_scan_steps);
  PERF_DELTA(lock_shard_contention);
  PERF_DELTA(transfers_elided);
  PERF_DELTA(bytes_elided);
  PERF_DELTA(evictions);
  PERF_DELTA(spill_bytes_written);
  PERF_DELTA(spill_bytes_dropped_clean);
  PERF_DELTA(refetches);
#undef PERF_DELTA
}

namespace {

using Record = hs::TraceRecorder::Record;

/// Service time of each record on a server that runs its records one at
/// a time in completion order: a record starts when it was dispatched or
/// when the previous one completed, whichever is later. Separates the
/// time a task ran from the time it sat queued behind its stream-mates.
void serial_service(std::vector<const Record*>& lane,
                    const std::function<void(const Record&, double)>& sink) {
  std::sort(lane.begin(), lane.end(), [](const Record* a, const Record* b) {
    return a->complete_s < b->complete_s;
  });
  double free_at = 0.0;
  for (const Record* r : lane) {
    const double start = std::max(r->dispatch_s, free_at);
    sink(*r, std::max(0.0, r->complete_s - start));
    free_at = r->complete_s;
  }
}

}  // namespace

void absorb(const hs::TraceRecorder& trace, TraceDigest& digest) {
  const std::vector<Record> records = trace.records();
  std::map<std::uint32_t, std::vector<const Record*>> compute_lanes;
  std::vector<const Record*> copier_lane;
  for (const Record& r : records) {
    if (r.complete_s <= 0.0) {
      continue;  // never completed: cannot happen after a drained op
    }
    if (r.type == hs::ActionType::compute) {
      digest.dispatch_wait_s.push_back(r.dispatch_s - r.enqueue_s);
      compute_lanes[r.stream.value].push_back(&r);
    } else if (r.type == hs::ActionType::transfer && !r.elided &&
               r.bytes > 0) {
      copier_lane.push_back(&r);
    }
  }
  for (auto& [stream, lane] : compute_lanes) {
    serial_service(lane, [&digest](const Record& r, double busy) {
      digest.exec_s.push_back(busy);
      digest.compute_busy_s += busy;
      digest.kernel_flops[r.label] += r.flops;
      digest.kernel_span_s[r.label] += busy;
    });
  }
  serial_service(copier_lane, [&digest](const Record&, double busy) {
    digest.xfer_s.push_back(busy);
    digest.copier_busy_s += busy;
  });
  for (const auto& event : trace.ooc_events()) {
    digest.defers += event.kind == "defer" ? 1 : 0;
  }
}

std::size_t process_threads() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

}  // namespace perf
