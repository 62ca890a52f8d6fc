#pragma once

// The runtime's counter table: every counter is defined once, in
// HS_RUNTIME_COUNTERS, and everything that holds or reports counters is
// generated from it — RuntimeStats, TenantStatsSlice, the atomic arrays
// the runtime bumps, the stats()/tenant_slice() snapshots, and every
// export that walks for_each_counter (bench JSON, hsinfo, the
// sum-of-slices checks).

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace hs {

// X(name, scope, doc). `scope` is `tenant` for counters also counted into
// the enqueuing stream's tenant slice, at the same site and by the same
// amount as the total — so for a run where every stream is tenant-bound,
// the slices of a tenant row sum to its total — and `global` otherwise.
#define HS_RUNTIME_COUNTERS(X)                                                \
  X(computes_enqueued, tenant, "compute actions admitted")                    \
  X(transfers_enqueued, tenant, "transfer actions admitted")                  \
  X(syncs_enqueued, tenant, "allocs, event waits and signals admitted")       \
  X(actions_completed, tenant, "actions that ran to completion")              \
  X(actions_failed, global, "task bodies that threw")                         \
  X(transfers_aliased_away, global, "host-as-target transfer no-ops")         \
  X(bytes_transferred, tenant, "bytes moved (device->device: both hops)")     \
  X(ooo_dispatches, global, "dispatches past an earlier incomplete action")   \
  X(faults_injected, global, "interconnect faults delivered")                 \
  X(transfers_retried, global, "backoff retries after transient faults")      \
  X(actions_cancelled, global, "actions drained by stream_cancel or loss")    \
  X(domains_lost, global, "devices declared dead")                            \
  X(graphs_captured, global, "task graphs recorded")                          \
  X(graph_replays, global, "graph launches")                                  \
  X(deps_reused, global, "dependence edges into replayed actions")            \
  X(transfers_coalesced, global, "transfer nodes removed by graph passes")    \
  X(links_degraded, global, "links that crossed into degraded")               \
  X(placements_steered, global, "pick_healthy calls off the first choice")    \
  X(partial_recoveries, global, "graph-based subset re-launches")             \
  X(actions_reexecuted, global, "actions re-admitted by recovery")            \
  X(dep_index_hits, global, "dependence edges found via the index")           \
  X(dep_scan_steps, global, "index entries + window entries scanned")         \
  X(lock_shard_contention, global, "contended stream/dep-shard locks")        \
  X(dep_oracle_checks, global, "admissions checked by dep_oracle")            \
  X(transfers_elided, tenant, "transfers completed as no-ops")                \
  X(bytes_elided, tenant, "bytes those no-ops did not move")                  \
  X(transfer_chunks, global, "chunks of pipelined multi-hop moves")           \
  X(pipeline_serial_us, global, "modeled serial us of pipelined moves")       \
  X(pipeline_actual_us, global, "observed us of the same moves")              \
  X(coherence_oracle_checks, global, "elisions checked byte-for-byte")        \
  X(checkpoints_taken, global, "durable epochs committed")                    \
  X(checkpoint_bytes_written, global, "chunk bytes persisted")                \
  X(checkpoint_bytes_skipped_clean, global, "bytes proven unchanged")         \
  X(restores_performed, global, "restores that rebound buffers")              \
  X(evictions, global, "incarnations spilled by the governor")                \
  X(spill_bytes_written, global, "dirty bytes evictions synced home")         \
  X(spill_bytes_dropped_clean, global, "clean bytes evictions dropped")       \
  X(refetches, global, "spilled incarnations re-admitted")

// Per-scope expansions for the generators below (undefined at the end).
#define HS_COUNTER_IF_tenant(...) __VA_ARGS__
#define HS_COUNTER_IF_global(...)
#define HS_COUNTER_SLICE_tenant(name) &TenantStatsSlice::name
#define HS_COUNTER_SLICE_global(name) nullptr

/// Snapshot of every runtime counter (Runtime::stats()).
struct RuntimeStats {
#define HS_COUNTER_FIELD(name, scope, doc) std::uint64_t name = 0;
  HS_RUNTIME_COUNTERS(HS_COUNTER_FIELD)
#undef HS_COUNTER_FIELD
};

/// Snapshot of one tenant's slice (Runtime::tenant_slice()): the rows of
/// the table whose scope is `tenant`.
struct TenantStatsSlice {
#define HS_COUNTER_FIELD(name, scope, doc) \
  HS_COUNTER_IF_##scope(std::uint64_t name = 0;)
  HS_RUNTIME_COUNTERS(HS_COUNTER_FIELD)
#undef HS_COUNTER_FIELD
};

/// Row index of each counter in the table.
enum class Counter : std::size_t {
#define HS_COUNTER_ENUM(name, scope, doc) name,
  HS_RUNTIME_COUNTERS(HS_COUNTER_ENUM)
#undef HS_COUNTER_ENUM
};

#define HS_COUNTER_ONE(name, scope, doc) +1
inline constexpr std::size_t kCounterCount =
    0 HS_RUNTIME_COUNTERS(HS_COUNTER_ONE);
#undef HS_COUNTER_ONE

static_assert(sizeof(RuntimeStats) == kCounterCount * sizeof(std::uint64_t),
              "RuntimeStats holds exactly the rows of HS_RUNTIME_COUNTERS");

/// Live counters, one relaxed atomic per row, indexed by Counter. The
/// runtime keeps one for its totals and one per registered tenant (a
/// tenant's array only ever moves on its tenant-scoped rows).
using CounterArray = std::array<std::atomic<std::uint64_t>, kCounterCount>;

/// One row of the table.
struct CounterInfo {
  Counter id;
  const char* name;
  const char* doc;
  std::uint64_t RuntimeStats::*total;
  /// The TenantStatsSlice field; nullptr for rows without a tenant scope.
  std::uint64_t TenantStatsSlice::*slice;
};

inline constexpr std::array<CounterInfo, kCounterCount> kCounters{{
#define HS_COUNTER_INFO(name, scope, doc)         \
  {Counter::name, #name, doc, &RuntimeStats::name, \
   HS_COUNTER_SLICE_##scope(name)},
    HS_RUNTIME_COUNTERS(HS_COUNTER_INFO)
#undef HS_COUNTER_INFO
}};

#undef HS_COUNTER_IF_tenant
#undef HS_COUNTER_IF_global
#undef HS_COUNTER_SLICE_tenant
#undef HS_COUNTER_SLICE_global

/// Calls `fn(const CounterInfo&)` for every row of the table, in order.
template <typename Fn>
constexpr void for_each_counter(Fn&& fn) {
  for (const CounterInfo& c : kCounters) {
    fn(c);
  }
}

}  // namespace hs
