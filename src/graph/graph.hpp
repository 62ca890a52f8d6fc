#pragma once

// Task-graph IR.
//
// A TaskGraph is a captured sequence of stream actions with their
// dependence edges resolved. The motivating observation (§III of the
// paper, generalized): iterative applications enqueue the *same* action
// pattern every timestep. Capturing one iteration as a graph resolves
// its operands once, lets offline passes coalesce or drop transfers, and
// gives recovery (passes.hpp) and checkpointed restart an explicit
// dependence structure to plan over. Replay (replay.hpp) admits the
// nodes through the eager admission path, Runtime::submit, which
// re-derives their dependences from operands; the recorded `preds` are
// the IR for passes and planning, not an admission shortcut.
//
// Nodes are stored in capture (program) order; every dependence edge
// points backward (`preds[i] < i`, `wait_node < i`), so the node array
// is simultaneously a topological order — passes and replay exploit
// this and never need a sort.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/action.hpp"
#include "core/types.hpp"

namespace hs::graph {

/// Sentinel for "no node" (absent wait_node, unresolved reference).
inline constexpr std::uint32_t kNoNode = 0xffffffffu;

/// One captured action. Mirrors ActionRecord minus the per-execution
/// state (ids, completion event, claim flags), plus the resolved edges.
struct GraphNode {
  ActionType type = ActionType::compute;
  StreamId stream;  ///< capture-time stream; replay may remap it

  /// Declared memory operands in capture-time buffer ids; replay rewrites
  /// the buffer ids through its binding table.
  std::vector<Operand> operands;
  bool full_barrier = false;

  ComputePayload compute;    ///< valid for compute nodes
  TransferPayload transfer;  ///< valid for transfer and alloc nodes

  /// For event_wait nodes whose producer was captured into the same
  /// graph: the producer's node index. Replay rewires the wait to the
  /// producer's fresh per-launch completion event.
  std::uint32_t wait_node = kNoNode;
  /// For event_wait nodes on events produced outside the graph: the
  /// event itself, waited on verbatim at every replay.
  std::shared_ptr<EventState> external_event;

  /// Same-stream dependence edges (indices of earlier nodes this one
  /// must wait for), computed once by GraphCapture::finish with the same
  /// conflict rule Runtime::admit applies per enqueue: strict_fifo chains
  /// on the previous node; relaxed_fifo intersects operand ranges. Read
  /// by passes and recovery planning; replay re-derives its own edges.
  std::vector<std::uint32_t> preds;

  /// True if this node's operands (or barrier flag) conflict with an
  /// earlier node's — the same predicate ActionRecord::conflicts_with
  /// applies at eager enqueue time.
  [[nodiscard]] bool conflicts_with(const GraphNode& earlier) const;

  /// Human-readable tag for reports ("dgemm", "xfer h2d", ...).
  [[nodiscard]] std::string label() const;
};

/// Capture-time metadata of one participating stream.
struct GraphStreamInfo {
  StreamId stream;
  DomainId domain;
  OrderPolicy policy = OrderPolicy::relaxed_fifo;
};

/// A captured task graph: nodes in capture order plus the streams they
/// were recorded on. Value type — copy it, edit it with passes, hand it
/// to a GraphExec for replay.
struct TaskGraph {
  /// Runtime-issued id (1-based; 0 marks eager actions in traces).
  std::uint32_t id = 0;
  std::vector<GraphNode> nodes;
  std::vector<GraphStreamInfo> streams;

  [[nodiscard]] std::size_t size() const noexcept { return nodes.size(); }

  /// Total captured dependence edges (preds plus in-graph waits).
  [[nodiscard]] std::size_t edge_count() const noexcept;

  /// Metadata of a participating stream; throws not_found otherwise.
  [[nodiscard]] const GraphStreamInfo& stream_info(StreamId stream) const;

  /// Structural invariants: edges point backward, wait nodes reference
  /// in-range indices, streams are declared. Throws Errc::internal on
  /// violation — passes call this after rewriting the node array.
  void validate() const;
};

}  // namespace hs::graph
