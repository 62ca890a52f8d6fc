#pragma once

// Graph capture: recording stream enqueues as TaskGraph nodes.
//
// Two front doors:
//
//   * GraphCapture attaches to a Runtime as its CaptureSink. While
//     attached, enqueues into the captured streams flow through the
//     ordinary Runtime front-end (same validation, same operand
//     resolution) but are *recorded* instead of executed. Existing
//     application code — the RTM/CG inner loops — captures unmodified.
//   * GraphBuilder is direct-construction sugar over a GraphCapture for
//     code that wants to talk in node indices instead of events.
//
// finish() runs the per-stream dependence analysis once — the same
// conflict rule Runtime::admit applies per enqueue — and bakes the edges
// into the graph, where passes and recovery planning read them. Replay
// does not reuse them: it re-admits every node through Runtime::submit.

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/runtime.hpp"
#include "graph/graph.hpp"

namespace hs::graph {

class GraphCapture final : public CaptureSink {
 public:
  /// Attaches to `runtime` and starts capturing enqueues into `streams`.
  /// Enqueues into other streams execute eagerly as usual. Throws
  /// already_initialized if another capture is active. Capture is a
  /// host-side, single-threaded protocol: all enqueues between
  /// construction and finish() must come from one thread.
  GraphCapture(Runtime& runtime, std::span<const StreamId> streams);
  ~GraphCapture() override;  ///< detaches if finish() was never reached

  GraphCapture(const GraphCapture&) = delete;
  GraphCapture& operator=(const GraphCapture&) = delete;

  // CaptureSink:
  [[nodiscard]] bool captures(StreamId stream) const override;
  std::shared_ptr<EventState> record(
      std::shared_ptr<ActionRecord> record) override;

  /// Node index whose placeholder completion event is `placeholder`;
  /// kNoNode if the event was not produced by this capture. Valid during
  /// and after capture.
  [[nodiscard]] std::uint32_t node_of(const EventState* placeholder) const;

  /// The placeholder completion event of node `index` (never fires; it
  /// only serves as a handle for enqueue_event_wait during capture).
  [[nodiscard]] const std::shared_ptr<EventState>& placeholder_of(
      std::uint32_t index) const;

  /// Number of nodes recorded so far.
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }

  /// Detaches from the runtime, runs the dependence analysis, and
  /// returns the finished graph (with a fresh runtime-issued id). The
  /// capture is spent afterwards.
  [[nodiscard]] TaskGraph finish();

 private:
  Runtime& runtime_;
  std::vector<GraphStreamInfo> streams_;
  std::vector<GraphNode> nodes_;
  std::vector<std::shared_ptr<EventState>> placeholders_;  // per node
  std::unordered_map<const EventState*, std::uint32_t> by_event_;
  bool active_ = true;
};

/// Direct builder API: constructs a graph node-by-node through the
/// Runtime front-end (so operand resolution and validation behave
/// exactly like eager enqueue) and returns node indices.
class GraphBuilder {
 public:
  GraphBuilder(Runtime& runtime, std::span<const StreamId> streams);

  std::uint32_t compute(StreamId stream, ComputePayload payload,
                        std::span<const OperandRef> operands);
  std::uint32_t transfer(StreamId stream, const void* proxy, std::size_t len,
                         XferDir dir);
  std::uint32_t alloc(StreamId stream, BufferId buffer);
  std::uint32_t signal(StreamId stream,
                       std::span<const OperandRef> operands = {});
  /// Wait in `stream` for in-graph node `producer` to complete.
  std::uint32_t wait(StreamId stream, std::uint32_t producer,
                     std::span<const OperandRef> operands = {});
  /// Wait for an event produced outside the graph (waited verbatim at
  /// every replay).
  std::uint32_t wait_external(StreamId stream,
                              std::shared_ptr<EventState> event,
                              std::span<const OperandRef> operands = {});

  [[nodiscard]] TaskGraph finish() { return capture_.finish(); }

 private:
  std::uint32_t note(const std::shared_ptr<EventState>& placeholder);

  Runtime& runtime_;
  GraphCapture capture_;
};

}  // namespace hs::graph
