#include "engine/executor.h"

#include <deque>

namespace pulse {

Result<Executor> Executor::Make(QueryPlan plan) {
  Executor exec(std::move(plan));
  PULSE_ASSIGN_OR_RETURN(exec.topo_order_, exec.plan_.TopologicalOrder());
  exec.node_hists_.assign(exec.plan_.num_nodes(), nullptr);
  return exec;
}

void Executor::set_metrics_registry(obs::MetricsRegistry* registry) {
  for (QueryPlan::NodeId id = 0; id < plan_.num_nodes(); ++id) {
    Operator* op = plan_.node(id);
    op->metrics().Bind(registry, op->name());
    node_hists_[id] =
        registry->GetHistogram("op/" + op->name() + "/process_ns");
  }
}

Status Executor::RunNode(QueryPlan::NodeId id, size_t port,
                         const Tuple& tuple, std::vector<Tuple>* out) {
  obs::Span span(node_hists_[id]);
  return plan_.node(id)->Process(port, tuple, out);
}

void Executor::DeliverToSink(const Tuple& tuple) {
  ++total_output_;
  if (callback_) callback_(tuple);
  if (!discard_output_) output_.push_back(tuple);
}

Status Executor::Drain(QueryPlan::NodeId from, std::vector<Tuple> tuples) {
  // Explicit work queue of (node, port, tuple) deliveries.
  struct Work {
    QueryPlan::NodeId node;
    size_t port;
    Tuple tuple;
  };
  std::deque<Work> pending;
  auto route = [&](QueryPlan::NodeId producer, std::vector<Tuple>& outs) {
    const auto& edges = plan_.downstream(producer);
    if (edges.empty()) {
      for (const Tuple& t : outs) DeliverToSink(t);
      return;
    }
    for (const Tuple& t : outs) {
      for (const auto& e : edges) pending.push_back(Work{e.to, e.port, t});
    }
  };
  route(from, tuples);
  std::vector<Tuple> outs;
  while (!pending.empty()) {
    Work w = std::move(pending.front());
    pending.pop_front();
    outs.clear();
    PULSE_RETURN_IF_ERROR(RunNode(w.node, w.port, w.tuple, &outs));
    route(w.node, outs);
  }
  return Status::OK();
}

Status Executor::PushTuple(const std::string& stream, const Tuple& tuple) {
  const auto& bindings = plan_.source_bindings(stream);
  if (bindings.empty()) {
    return Status::NotFound("no operator bound to stream '" + stream + "'");
  }
  for (const auto& e : bindings) {
    std::vector<Tuple> outs;
    PULSE_RETURN_IF_ERROR(RunNode(e.to, e.port, tuple, &outs));
    PULSE_RETURN_IF_ERROR(Drain(e.to, std::move(outs)));
  }
  return Status::OK();
}

Status Executor::AdvanceTime(double t) {
  for (QueryPlan::NodeId id : topo_order_) {
    std::vector<Tuple> outs;
    PULSE_RETURN_IF_ERROR(plan_.node(id)->AdvanceTime(t, &outs));
    PULSE_RETURN_IF_ERROR(Drain(id, std::move(outs)));
  }
  return Status::OK();
}

Status Executor::Finish() {
  for (QueryPlan::NodeId id : topo_order_) {
    std::vector<Tuple> outs;
    PULSE_RETURN_IF_ERROR(plan_.node(id)->Flush(&outs));
    PULSE_RETURN_IF_ERROR(Drain(id, std::move(outs)));
  }
  return Status::OK();
}

std::vector<Tuple> Executor::TakeOutput() {
  std::vector<Tuple> out = std::move(output_);
  output_.clear();
  return out;
}

}  // namespace pulse
