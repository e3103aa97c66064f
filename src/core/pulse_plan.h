#ifndef PULSE_CORE_PULSE_PLAN_H_
#define PULSE_CORE_PULSE_PLAN_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/operators/pulse_operator.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/result.h"

namespace pulse {

/// A dataflow plan of continuous-time operators. Mirrors the discrete
/// engine's QueryPlan but routes segments: Pulse performs operator-by-
/// operator transformation of a stream query into "an internal query plan
/// comprised of simultaneous equation systems" (paper Section III-C), and
/// this is that plan.
class PulsePlan {
 public:
  using NodeId = size_t;

  struct Edge {
    NodeId to = 0;
    size_t port = 0;
  };

  PulsePlan() = default;
  PulsePlan(PulsePlan&&) = default;
  PulsePlan& operator=(PulsePlan&&) = default;

  NodeId AddOperator(std::shared_ptr<PulseOperator> op);
  Status Connect(NodeId from, NodeId to, size_t port = 0);
  Status BindSource(const std::string& stream, NodeId to, size_t port = 0);

  size_t num_nodes() const { return nodes_.size(); }
  PulseOperator* node(NodeId id) const { return nodes_[id].get(); }
  const std::vector<Edge>& downstream(NodeId id) const { return edges_[id]; }
  const std::vector<Edge>& source_bindings(const std::string& stream) const;
  std::vector<std::string> source_names() const;
  std::vector<NodeId> SinkNodes() const;
  Result<std::vector<NodeId>> TopologicalOrder() const;

  /// The node feeding input `port` of `node`, or nullopt when that port
  /// is fed by an external stream. Used by whole-query bound inversion to
  /// walk upstream.
  std::optional<NodeId> UpstreamOf(NodeId node, size_t port) const;

 private:
  std::vector<std::shared_ptr<PulseOperator>> nodes_;
  std::vector<std::vector<Edge>> edges_;
  std::map<std::string, std::vector<Edge>> sources_;
};

/// Single-threaded push executor for a PulsePlan: drives one segment
/// through the DAG to quiescence, collecting sink segments.
class PulseExecutor {
 public:
  static Result<PulseExecutor> Make(PulsePlan plan);

  /// Pushes a segment on the named source stream. Assigns the segment an
  /// id when it has none. The records in push-scoped lineage stores last
  /// until the next PushSegment or Finish.
  Status PushSegment(const std::string& stream, Segment segment);

  /// End-of-stream: flushes every operator.
  Status Finish();

  std::vector<Segment>& output() { return output_; }
  std::vector<Segment> TakeOutput();
  uint64_t total_output() const { return total_output_; }

  void set_discard_output(bool discard) { discard_output_ = discard; }

  /// Binds every operator's counters to `registry` under the unified
  /// op/<name>/... naming scheme (docs/OBSERVABILITY.md) and enables
  /// per-operator Process latency histograms (op/<name>/process_ns).
  /// Executors bound to one registry add into the same series. The
  /// registry must be non-null and outlive the executor.
  void set_metrics_registry(obs::MetricsRegistry* registry);

  const PulsePlan& plan() const { return plan_; }
  PulsePlan& plan() { return plan_; }

 private:
  explicit PulseExecutor(PulsePlan plan) : plan_(std::move(plan)) {}

  // Drops the previous push's records from the push-scoped lineage
  // stores (LineageStore::set_push_scoped).
  void ClearPushScopedLineage();
  Status Drain(PulsePlan::NodeId from, SegmentBatch segments);
  void DeliverToSink(Segment segment);
  // One Process call, timed into the operator's op/<name>/process_ns
  // histogram when a registry is attached.
  Status RunNode(PulsePlan::NodeId id, size_t port, const Segment& segment,
                 SegmentBatch* out);

  PulsePlan plan_;
  std::vector<PulsePlan::NodeId> topo_order_;
  std::vector<Segment> output_;
  uint64_t total_output_ = 0;
  bool discard_output_ = false;
  // Parallel to plan_ nodes, nullptr while no registry is attached;
  // resolved once in set_metrics_registry so
  // the Process hot path never does a name lookup.
  std::vector<obs::Histogram*> node_hists_;
  std::vector<PulsePlan::NodeId> push_scoped_;
};

}  // namespace pulse

#endif  // PULSE_CORE_PULSE_PLAN_H_
