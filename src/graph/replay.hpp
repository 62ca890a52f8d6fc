#pragma once

// Graph replay: instantiating a captured TaskGraph on a Runtime and
// launching it repeatedly.
//
// Each launch() materializes fresh ActionRecords from the graph nodes
// (the records are single-use runtime state; the graph is the reusable
// template) and admits them one by one through Runtime::submit — the
// same admission path as an eager enqueue, so dependences are derived
// from operands against the streams' windows exactly as eager enqueue
// would derive them. What a graph saves is the front-end work: operands
// are resolved once at capture, and passes may have coalesced or dropped
// transfers. In-graph event waits are rewired to the producer's fresh
// completion event, so cross-stream ordering replays exactly as
// captured. Ready members are dispatched once the whole launch is
// admitted.
//
// Buffer rebinding lets iterative apps swap operand storage between
// launches without recapturing: RTM ping-pongs three wavefield levels by
// rotating `bind()` calls per timestep; admission derives each launch's
// dependences from the rebound operands.

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/runtime.hpp"
#include "graph/graph.hpp"

namespace hs::graph {

class GraphExec {
 public:
  /// Binds `graph` for replay on `runtime`. The graph's streams must
  /// exist on the runtime (they normally are the capture-time streams).
  GraphExec(Runtime& runtime, TaskGraph graph);

  /// Replays nodes captured on `captured` into `replacement` instead.
  /// Both streams must live on the same domain with the same policy —
  /// unless the captured stream's domain has been declared lost, in
  /// which case the remap may cross domains (same policy still
  /// required): that is how recovery re-homes a dead card's subgraph
  /// onto a survivor.
  void map_stream(StreamId captured, StreamId replacement);

  /// Rebinds every operand and transfer on buffer `captured` to
  /// `replacement` for subsequent launches. Sizes must match (byte
  /// ranges are reused verbatim). Rebinding composes with repeated
  /// calls: the latest binding for a captured id wins.
  void bind(BufferId captured, BufferId replacement);
  void clear_bindings();

  /// One replayed instance: per-node completion events and records, in
  /// node order (subset launches leave non-member slots null).
  struct Launch {
    std::vector<std::shared_ptr<EventState>> events;
    /// The per-launch records. Read-only after the launch drains:
    /// recovery planning inspects the cancelled/failed flags to seed the
    /// re-execution set.
    std::vector<std::shared_ptr<ActionRecord>> records;
    [[nodiscard]] const std::shared_ptr<EventState>& event(
        std::uint32_t node) const {
      return events.at(node);
    }
    /// True if the node's effects cannot be trusted: it was claimed-
    /// failed (domain loss / cancellation) or its body threw. Only
    /// meaningful once the launch has drained.
    [[nodiscard]] bool lost(std::uint32_t node) const {
      const auto& record = records.at(node);
      return record != nullptr && (record->cancelled || record->failed);
    }
  };

  /// Admits one instance of the graph. Returns immediately (the launch
  /// is asynchronous, like the eager enqueues it replaces); completion
  /// is observed via the returned events or the usual synchronize calls.
  /// Alloc nodes instantiate their buffer on first launch and no-op on
  /// later ones.
  Launch launch();

  /// Admits only `nodes` (ascending node indices — typically a
  /// RecoveryPlan::rerun set). Members are ordered against each other
  /// and against work still in their streams' windows by the usual
  /// operand analysis; a non-member completed in the prior launch, so an
  /// in-graph wait on a non-member producer is satisfied immediately.
  /// Combined with map_stream re-homing dead streams and the caller
  /// rolling back the written host ranges (RecoveryPlan::restore), this
  /// is partial re-execution: only the lost subgraph runs again. Counts
  /// into partial_recoveries / actions_reexecuted unless `count_recovery`
  /// is false (checkpointed drivers launch planned per-step segments
  /// through here; a scheduled segment is not a recovery).
  Launch launch_subset(std::span<const std::uint32_t> nodes,
                       bool count_recovery = true);

  [[nodiscard]] const TaskGraph& graph() const noexcept { return graph_; }

 private:
  [[nodiscard]] BufferId mapped(BufferId id) const;
  [[nodiscard]] StreamId mapped(StreamId id) const;
  /// Fresh per-launch record for one node (stream/buffer maps applied,
  /// tagged with the graph id; alloc nodes instantiate). Wait events are
  /// wired by admit.
  [[nodiscard]] std::shared_ptr<ActionRecord> materialize(
      const GraphNode& node);
  /// The launch loop shared by launch and launch_subset: checks every
  /// member stream's domain is alive, then materializes and submits
  /// `members` (ascending) in order.
  Launch admit(std::span<const std::uint32_t> members);

  Runtime& runtime_;
  TaskGraph graph_;
  std::unordered_map<StreamId, StreamId> stream_map_;
  std::unordered_map<BufferId, BufferId> buffer_map_;
};

}  // namespace hs::graph
