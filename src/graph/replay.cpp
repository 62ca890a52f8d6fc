#include "graph/replay.hpp"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "common/status.hpp"

namespace hs::graph {

GraphExec::GraphExec(Runtime& runtime, TaskGraph graph)
    : runtime_(runtime), graph_(std::move(graph)) {
  require(graph_.id != 0, "graph was not finished (id 0)");
  graph_.validate();
}

void GraphExec::map_stream(StreamId captured, StreamId replacement) {
  const GraphStreamInfo& info = graph_.stream_info(captured);
  // Cross-domain remaps are only legal when the captured domain died:
  // recovery must be able to re-home a dead card's subgraph, but a live
  // stream's placement is the application's decision, not the replayer's.
  require(runtime_.stream_domain(replacement) == info.domain ||
              !runtime_.domain_alive(info.domain),
          "stream remap must stay on the captured domain while it is alive");
  require(runtime_.stream_policy(replacement) == info.policy,
          "stream remap must keep the captured order policy");
  stream_map_[captured] = replacement;
}

void GraphExec::bind(BufferId captured, BufferId replacement) {
  require(runtime_.buffer_size(captured) ==
              runtime_.buffer_size(replacement),
          "rebound buffer must match the captured buffer's size");
  buffer_map_[captured] = replacement;
}

void GraphExec::clear_bindings() { buffer_map_.clear(); }

BufferId GraphExec::mapped(BufferId id) const {
  const auto it = buffer_map_.find(id);
  return it == buffer_map_.end() ? id : it->second;
}

StreamId GraphExec::mapped(StreamId id) const {
  const auto it = stream_map_.find(id);
  return it == stream_map_.end() ? id : it->second;
}

std::shared_ptr<ActionRecord> GraphExec::materialize(const GraphNode& node) {
  auto record = std::make_shared<ActionRecord>();
  record->type = node.type;
  record->stream = mapped(node.stream);
  record->graph = graph_.id;
  record->full_barrier = node.full_barrier;
  record->operands = node.operands;
  for (Operand& op : record->operands) {
    op.buffer = mapped(op.buffer);
  }
  record->compute = node.compute;
  record->transfer = node.transfer;
  record->transfer.buffer = mapped(node.transfer.buffer);
  if (node.type == ActionType::alloc) {
    // Eager enqueue_alloc charges the budget at enqueue time;
    // buffer_instantiate is idempotent, so repeat launches no-op here
    // and only pay the modeled in-stream latency.
    runtime_.buffer_instantiate(record->transfer.buffer,
                                runtime_.stream_domain(record->stream));
  }
  return record;
}

namespace {

/// Dispatches the members a launch held back once it leaves scope:
/// normally after the last member is admitted, and also when an
/// admission throws, so members already admitted are never stranded.
struct DispatchOnExit {
  Runtime& runtime;
  std::vector<std::shared_ptr<ActionRecord>> ready;
  ~DispatchOnExit() { runtime.dispatch_ready(ready); }
};

}  // namespace

GraphExec::Launch GraphExec::admit(std::span<const std::uint32_t> members) {
  const std::size_t n = graph_.nodes.size();
  Launch out;
  out.events.resize(n);
  out.records.resize(n);

  // All-or-nothing against a dead domain: every stream the launch
  // touches is checked before any member is materialized or admitted.
  std::vector<StreamId> streams;
  for (const std::uint32_t i : members) {
    const StreamId stream = mapped(graph_.nodes[i].stream);
    if (std::find(streams.begin(), streams.end(), stream) == streams.end()) {
      streams.push_back(stream);
    }
  }
  for (const StreamId stream : streams) {
    const DomainId domain = runtime_.stream_domain(stream);
    require(runtime_.domain_alive(domain),
            "domain " + std::to_string(domain.value) + " was lost",
            Errc::device_lost);
  }

  // Each member goes through the eager admission path, which re-derives
  // its dependences against the streams' windows. Dispatch waits for the
  // whole launch: a member run inline could fail its domain (a device
  // loss on the launch's own first upload) while later members are
  // still being admitted, and would throw that loss out of launch().
  DispatchOnExit dispatch{runtime_, {}};
  for (const std::uint32_t i : members) {
    const GraphNode& node = graph_.nodes[i];
    auto record = materialize(node);
    if (node.type == ActionType::event_wait) {
      if (node.wait_node == kNoNode) {
        record->wait_event = node.external_event;
      } else if (out.records[node.wait_node] != nullptr) {
        record->wait_event = out.records[node.wait_node]->completion;
      } else {
        // The producer is outside the subset: it completed in the prior
        // launch, so the wait is already satisfied.
        auto satisfied = std::make_shared<EventState>();
        for (auto& callback : satisfied->fire()) {
          callback();  // no registered callbacks; fire before sharing
        }
        record->wait_event = std::move(satisfied);
      }
    }
    out.events[i] = record->completion;
    out.records[i] = record;
    (void)runtime_.submit(std::move(record), &dispatch.ready);
  }
  runtime_.count(Counter::graph_replays);
  return out;
}

GraphExec::Launch GraphExec::launch() {
  std::vector<std::uint32_t> all(graph_.nodes.size());
  std::iota(all.begin(), all.end(), 0u);
  return admit(all);
}

GraphExec::Launch GraphExec::launch_subset(
    std::span<const std::uint32_t> nodes, bool count_recovery) {
  const std::size_t n = graph_.nodes.size();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    require(nodes[i] < n, "launch_subset: node index out of range",
            Errc::out_of_range);
    require(i == 0 || nodes[i] > nodes[i - 1],
            "launch_subset: node indices must be strictly ascending");
  }
  if (nodes.empty()) {
    Launch out;
    out.events.resize(n);
    out.records.resize(n);
    return out;
  }
  Launch out = admit(nodes);
  if (count_recovery) {
    runtime_.count(Counter::partial_recoveries);
    runtime_.count(Counter::actions_reexecuted, nodes.size());
  }
  return out;
}

}  // namespace hs::graph
