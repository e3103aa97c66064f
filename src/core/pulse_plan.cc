#include "core/pulse_plan.h"

#include <deque>

namespace pulse {

PulsePlan::NodeId PulsePlan::AddOperator(std::shared_ptr<PulseOperator> op) {
  nodes_.push_back(std::move(op));
  edges_.emplace_back();
  return nodes_.size() - 1;
}

Status PulsePlan::Connect(NodeId from, NodeId to, size_t port) {
  if (from >= nodes_.size() || to >= nodes_.size()) {
    return Status::InvalidArgument("Connect: node id out of range");
  }
  if (port >= nodes_[to]->num_inputs()) {
    return Status::InvalidArgument("Connect: port out of range for '" +
                                   nodes_[to]->name() + "'");
  }
  edges_[from].push_back(Edge{to, port});
  return Status::OK();
}

Status PulsePlan::BindSource(const std::string& stream, NodeId to,
                             size_t port) {
  if (to >= nodes_.size()) {
    return Status::InvalidArgument("BindSource: node id out of range");
  }
  if (port >= nodes_[to]->num_inputs()) {
    return Status::InvalidArgument("BindSource: port out of range");
  }
  sources_[stream].push_back(Edge{to, port});
  return Status::OK();
}

const std::vector<PulsePlan::Edge>& PulsePlan::source_bindings(
    const std::string& stream) const {
  static const std::vector<Edge>* empty = new std::vector<Edge>();
  auto it = sources_.find(stream);
  return it == sources_.end() ? *empty : it->second;
}

std::vector<std::string> PulsePlan::source_names() const {
  std::vector<std::string> names;
  names.reserve(sources_.size());
  for (const auto& [name, _] : sources_) names.push_back(name);
  return names;
}

std::vector<PulsePlan::NodeId> PulsePlan::SinkNodes() const {
  std::vector<NodeId> sinks;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (edges_[id].empty()) sinks.push_back(id);
  }
  return sinks;
}

Result<std::vector<PulsePlan::NodeId>> PulsePlan::TopologicalOrder() const {
  std::vector<size_t> indegree(nodes_.size(), 0);
  for (const auto& out : edges_) {
    for (const Edge& e : out) ++indegree[e.to];
  }
  std::deque<NodeId> ready;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (indegree[id] == 0) ready.push_back(id);
  }
  std::vector<NodeId> order;
  order.reserve(nodes_.size());
  while (!ready.empty()) {
    const NodeId id = ready.front();
    ready.pop_front();
    order.push_back(id);
    for (const Edge& e : edges_[id]) {
      if (--indegree[e.to] == 0) ready.push_back(e.to);
    }
  }
  if (order.size() != nodes_.size()) {
    return Status::InvalidArgument("pulse plan contains a cycle");
  }
  return order;
}

std::optional<PulsePlan::NodeId> PulsePlan::UpstreamOf(NodeId node,
                                                       size_t port) const {
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    for (const Edge& e : edges_[id]) {
      if (e.to == node && e.port == port) return id;
    }
  }
  return std::nullopt;
}

Result<PulseExecutor> PulseExecutor::Make(PulsePlan plan) {
  PulseExecutor exec(std::move(plan));
  PULSE_ASSIGN_OR_RETURN(exec.topo_order_, exec.plan_.TopologicalOrder());
  exec.node_hists_.assign(exec.plan_.num_nodes(), nullptr);
  for (PulsePlan::NodeId id = 0; id < exec.plan_.num_nodes(); ++id) {
    if (exec.plan_.node(id)->lineage().push_scoped()) {
      exec.push_scoped_.push_back(id);
    }
  }
  return exec;
}

void PulseExecutor::ClearPushScopedLineage() {
  for (PulsePlan::NodeId id : push_scoped_) plan_.node(id)->lineage().Clear();
}

void PulseExecutor::set_metrics_registry(obs::MetricsRegistry* registry) {
  for (PulsePlan::NodeId id = 0; id < plan_.num_nodes(); ++id) {
    PulseOperator* op = plan_.node(id);
    op->BindMetrics(registry);
    node_hists_[id] =
        registry->GetHistogram("op/" + op->name() + "/process_ns");
  }
}

Status PulseExecutor::RunNode(PulsePlan::NodeId id, size_t port,
                              const Segment& segment, SegmentBatch* out) {
  obs::Span span(node_hists_[id]);
  return plan_.node(id)->Process(port, segment, out);
}

void PulseExecutor::DeliverToSink(Segment segment) {
  ++total_output_;
  if (!discard_output_) output_.push_back(std::move(segment));
}

Status PulseExecutor::Drain(PulsePlan::NodeId from, SegmentBatch segments) {
  struct Work {
    PulsePlan::NodeId node;
    size_t port;
    Segment segment;
  };
  std::deque<Work> pending;
  // Consumes `outs`: the last consumer of each segment takes it by move,
  // the others get copies.
  auto route = [&](PulsePlan::NodeId producer, SegmentBatch& outs) {
    const auto& edges = plan_.downstream(producer);
    if (edges.empty()) {
      for (Segment& s : outs) DeliverToSink(std::move(s));
      return;
    }
    for (Segment& s : outs) {
      for (size_t i = 0; i + 1 < edges.size(); ++i) {
        pending.push_back(Work{edges[i].to, edges[i].port, s});
      }
      pending.push_back(Work{edges.back().to, edges.back().port, std::move(s)});
    }
  };
  route(from, segments);
  SegmentBatch outs;
  while (!pending.empty()) {
    Work w = std::move(pending.front());
    pending.pop_front();
    outs.clear();
    PULSE_RETURN_IF_ERROR(RunNode(w.node, w.port, w.segment, &outs));
    route(w.node, outs);
  }
  return Status::OK();
}

Status PulseExecutor::PushSegment(const std::string& stream,
                                  Segment segment) {
  const auto& bindings = plan_.source_bindings(stream);
  if (bindings.empty()) {
    return Status::NotFound("no operator bound to stream '" + stream + "'");
  }
  if (segment.id == 0) segment.id = NextSegmentId();
  PULSE_SPAN("executor/push_segment");
  ClearPushScopedLineage();
  for (const auto& e : bindings) {
    SegmentBatch outs;
    PULSE_RETURN_IF_ERROR(RunNode(e.to, e.port, segment, &outs));
    PULSE_RETURN_IF_ERROR(Drain(e.to, std::move(outs)));
  }
  return Status::OK();
}

Status PulseExecutor::Finish() {
  ClearPushScopedLineage();
  for (PulsePlan::NodeId id : topo_order_) {
    SegmentBatch outs;
    PULSE_RETURN_IF_ERROR(plan_.node(id)->Flush(&outs));
    PULSE_RETURN_IF_ERROR(Drain(id, std::move(outs)));
  }
  return Status::OK();
}

std::vector<Segment> PulseExecutor::TakeOutput() {
  std::vector<Segment> out = std::move(output_);
  output_.clear();
  return out;
}

}  // namespace pulse
