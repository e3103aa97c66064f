#ifndef PULSE_ENGINE_EXECUTOR_H_
#define PULSE_ENGINE_EXECUTOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/plan.h"
#include "engine/tuple.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/result.h"

namespace pulse {

/// Single-threaded push executor for a QueryPlan.
///
/// PushTuple drives one tuple through the DAG to completion (depth-first
/// routing with an explicit work queue), collecting tuples that reach
/// sink operators. This is the Borealis-style per-tuple processing loop
/// the paper's discrete measurements go through.
class Executor {
 public:
  /// Validates the plan (acyclic); takes shared ownership of operators.
  static Result<Executor> Make(QueryPlan plan);

  /// Pushes a tuple on the named source stream and runs the dataflow to
  /// quiescence. Fails if the stream has no bindings.
  Status PushTuple(const std::string& stream, const Tuple& tuple);

  /// Punctuates all operators with event time t (topological order).
  Status AdvanceTime(double t);

  /// End-of-stream: flushes every operator.
  Status Finish();

  /// Tuples that reached sink operators since the last TakeOutput.
  std::vector<Tuple>& output() { return output_; }
  std::vector<Tuple> TakeOutput();

  /// Total tuples ever delivered to sinks.
  uint64_t total_output() const { return total_output_; }

  /// Optional per-result callback; when set, outputs still accumulate in
  /// output() unless discard_output(true).
  void set_output_callback(std::function<void(const Tuple&)> cb) {
    callback_ = std::move(cb);
  }
  /// When true, sink tuples are counted and passed to the callback but
  /// not stored (long benchmark runs).
  void set_discard_output(bool discard) { discard_output_ = discard; }

  /// Binds every operator's counters to `registry` under the same
  /// op/<name>/... naming scheme the Pulse executor uses
  /// (docs/OBSERVABILITY.md), making a discrete run of a query directly
  /// comparable to its Pulse realization, and enables per-operator
  /// Process latency histograms (op/<name>/process_ns). The registry
  /// must be non-null and outlive the executor.
  void set_metrics_registry(obs::MetricsRegistry* registry);

  const QueryPlan& plan() const { return plan_; }
  QueryPlan& plan() { return plan_; }

 private:
  explicit Executor(QueryPlan plan) : plan_(std::move(plan)) {}

  // Routes `tuples` produced by `from` to its downstream operators,
  // processing transitively until quiescence.
  Status Drain(QueryPlan::NodeId from, std::vector<Tuple> tuples);
  void DeliverToSink(const Tuple& tuple);
  // One Process call, timed into the operator's op/<name>/process_ns
  // histogram when a registry is attached.
  Status RunNode(QueryPlan::NodeId id, size_t port, const Tuple& tuple,
                 std::vector<Tuple>* out);

  QueryPlan plan_;
  std::vector<QueryPlan::NodeId> topo_order_;
  std::vector<Tuple> output_;
  uint64_t total_output_ = 0;
  std::function<void(const Tuple&)> callback_;
  bool discard_output_ = false;
  // Parallel to plan_ nodes, nullptr while no registry is attached;
  // resolved once in set_metrics_registry so
  // the per-tuple path never does a name lookup.
  std::vector<obs::Histogram*> node_hists_;
};

}  // namespace pulse

#endif  // PULSE_ENGINE_EXECUTOR_H_
