#include "core/transform.h"

#include <limits>

#include "core/operators/aggregate.h"
#include "core/operators/distinct.h"
#include "core/operators/epoch.h"
#include "core/operators/filter.h"
#include "core/operators/group_by.h"
#include "core/operators/join.h"
#include "core/operators/map.h"
#include "engine/distinct.h"
#include "engine/epoch.h"
#include "engine/filter.h"
#include "engine/group_by.h"
#include "engine/join.h"
#include "engine/map.h"
#include "util/logging.h"

namespace pulse {

namespace {

constexpr size_t kNoKey = std::numeric_limits<size_t>::max();

// A logical input resolved against the plan being built.
struct Resolved {
  bool is_stream = false;
  std::string stream;                      // when is_stream
  QueryPlan::NodeId node = 0;              // when !is_stream (discrete)
  std::shared_ptr<const Schema> schema;
  size_t key_index = kNoKey;
};

// Pre-resolves every predicate attribute to a tuple field index so the
// per-tuple hot path is name-free. Shared (by shared_ptr) with the engine
// operators' lambdas.
class TuplePredicateEvaluator {
 public:
  static Result<std::shared_ptr<TuplePredicateEvaluator>> Make(
      const Predicate& predicate, const Schema* left, const Schema* right) {
    auto eval = std::make_shared<TuplePredicateEvaluator>();
    eval->predicate_ = predicate;
    std::vector<AttrRef> refs;
    predicate.CollectAttributes(&refs);
    for (const AttrRef& ref : refs) {
      const Schema* schema = ref.side == Side::kLeft ? left : right;
      if (schema == nullptr) {
        return Status::InvalidArgument(
            "predicate references an absent input side: " + ref.ToString());
      }
      PULSE_ASSIGN_OR_RETURN(size_t idx, schema->IndexOf(ref.name));
      eval->index_[{ref.side == Side::kLeft ? 0 : 1, ref.name}] = idx;
    }
    return eval;
  }

  bool EvalUnary(const Tuple& tuple) const {
    return EvalBinary(tuple, tuple);
  }

  bool EvalBinary(const Tuple& left, const Tuple& right) const {
    Predicate::ValueResolver resolver =
        [this, &left, &right](const AttrRef& ref) -> Result<double> {
      const int side = ref.side == Side::kLeft ? 0 : 1;
      auto it = index_.find({side, ref.name});
      if (it == index_.end()) {
        return Status::Internal("unresolved attribute " + ref.ToString());
      }
      const Tuple& t = side == 0 ? left : right;
      return t.at(it->second).as_double();
    };
    Result<bool> r = predicate_.EvaluateOnValues(resolver);
    PULSE_CHECK(r.ok());
    return *r;
  }

 private:
  Predicate predicate_ = Predicate::And({});
  std::map<std::pair<int, std::string>, size_t> index_;
};

Result<Resolved> ResolveStreamInput(const QuerySpec& spec,
                                    const std::string& name) {
  PULSE_ASSIGN_OR_RETURN(StreamSpec stream, spec.stream(name));
  Resolved r;
  r.is_stream = true;
  r.stream = name;
  r.schema = stream.schema;
  PULSE_ASSIGN_OR_RETURN(r.key_index, stream.schema->IndexOf(
                                          stream.key_field));
  return r;
}

}  // namespace

Result<DiscretePlan> BuildDiscretePlan(const QuerySpec& spec) {
  DiscretePlan out;
  std::vector<Resolved> resolved(spec.num_nodes());

  auto resolve_input = [&](const QuerySpec::Input& in) -> Result<Resolved> {
    if (in.is_stream) return ResolveStreamInput(spec, in.stream);
    if (in.node >= spec.num_nodes() || resolved[in.node].schema == nullptr) {
      return Status::InvalidArgument(
          "node input references an unbuilt node (inputs must precede "
          "consumers)");
    }
    return resolved[in.node];
  };
  // Routes `upstream` into `to`:`port` (stream binding or node edge).
  auto connect = [&](const Resolved& upstream, QueryPlan::NodeId to,
                     size_t port) -> Status {
    if (upstream.is_stream) {
      return out.plan.BindSource(upstream.stream, to, port);
    }
    return out.plan.Connect(upstream.node, to, port);
  };

  for (QuerySpec::NodeId id = 0; id < spec.num_nodes(); ++id) {
    const QuerySpec::Node& node = spec.node(id);
    switch (node.kind) {
      case QuerySpec::OpKind::kFilter: {
        PULSE_ASSIGN_OR_RETURN(Resolved in, resolve_input(node.inputs[0]));
        PULSE_ASSIGN_OR_RETURN(
            std::shared_ptr<TuplePredicateEvaluator> eval,
            TuplePredicateEvaluator::Make(node.filter->predicate,
                                          in.schema.get(), nullptr));
        auto op = std::make_shared<LambdaFilter>(
            node.name, in.schema,
            [eval](const Tuple& t) { return eval->EvalUnary(t); });
        const QueryPlan::NodeId nid = out.plan.AddOperator(op);
        PULSE_RETURN_IF_ERROR(connect(in, nid, 0));
        resolved[id] = Resolved{false, "", nid, in.schema, in.key_index};
        break;
      }
      case QuerySpec::OpKind::kJoin: {
        PULSE_ASSIGN_OR_RETURN(Resolved l, resolve_input(node.inputs[0]));
        PULSE_ASSIGN_OR_RETURN(Resolved r, resolve_input(node.inputs[1]));
        const JoinSpec& js = *node.join;
        PULSE_ASSIGN_OR_RETURN(
            std::shared_ptr<TuplePredicateEvaluator> eval,
            TuplePredicateEvaluator::Make(js.predicate, l.schema.get(),
                                          r.schema.get()));
        std::vector<JoinComparison> structured;
        if (js.match_keys) {
          if (l.key_index == kNoKey || r.key_index == kNoKey) {
            return Status::InvalidArgument(
                "match_keys join requires keyed inputs");
          }
          structured.push_back(
              JoinComparison{l.key_index, CmpOp::kEq, r.key_index});
        }
        const size_t lkey = l.key_index;
        const size_t rkey = r.key_index;
        const bool distinct = js.require_distinct_keys;
        auto extra = [eval, lkey, rkey, distinct](const Tuple& lt,
                                                  const Tuple& rt) {
          if (distinct && lt.at(lkey) == rt.at(rkey)) return false;
          return eval->EvalBinary(lt, rt);
        };
        auto op = std::make_shared<SlidingWindowJoin>(
            node.name, l.schema, r.schema, js.window_seconds,
            std::move(structured), extra, js.left_prefix, js.right_prefix);
        const QueryPlan::NodeId nid = out.plan.AddOperator(op);
        PULSE_RETURN_IF_ERROR(connect(l, nid, 0));
        PULSE_RETURN_IF_ERROR(connect(r, nid, 1));

        std::shared_ptr<const Schema> joined = op->output_schema();
        size_t key_index = kNoKey;
        QueryPlan::NodeId tail = nid;
        if (lkey != kNoKey && rkey != kNoKey) {
          // Materialize a composite pair key so downstream GROUP BY
          // (id1, id2) has a single grouping column.
          std::vector<MapColumn> columns;
          for (size_t i = 0; i < joined->num_fields(); ++i) {
            columns.push_back(MapColumn::FieldExpr(joined->field(i), i));
          }
          const size_t right_base = l.schema->num_fields();
          columns.push_back(MapColumn{
              Field{"pair_key", ValueType::kInt64},
              [lkey, rkey, right_base](const Tuple& t) {
                return Value(CombineKeys(t.at(lkey).as_int64(),
                                         t.at(right_base + rkey)
                                             .as_int64()));
              }});
          auto map_op = std::make_shared<MapOperator>(node.name + ".key",
                                                      std::move(columns));
          const QueryPlan::NodeId mid = out.plan.AddOperator(map_op);
          PULSE_RETURN_IF_ERROR(out.plan.Connect(nid, mid, 0));
          joined = map_op->output_schema();
          key_index = joined->num_fields() - 1;
          tail = mid;
        }
        resolved[id] = Resolved{false, "", tail, joined, key_index};
        break;
      }
      case QuerySpec::OpKind::kAggregate: {
        PULSE_ASSIGN_OR_RETURN(Resolved in, resolve_input(node.inputs[0]));
        const AggregateSpec& as = *node.aggregate;
        PULSE_ASSIGN_OR_RETURN(size_t value_idx,
                               in.schema->IndexOf(as.attribute));
        const WindowSpec window{as.window_seconds, as.slide_seconds};
        if (as.per_key) {
          if (in.key_index == kNoKey) {
            return Status::InvalidArgument(
                "per_key aggregate requires a keyed input");
          }
          auto op = std::make_shared<GroupedWindowedAggregate>(
              node.name, in.schema, window, as.fn, value_idx, in.key_index,
              as.output_attribute);
          const QueryPlan::NodeId nid = out.plan.AddOperator(op);
          PULSE_RETURN_IF_ERROR(connect(in, nid, 0));
          resolved[id] =
              Resolved{false, "", nid, op->output_schema(), 0};
        } else {
          auto op = std::make_shared<WindowedAggregate>(
              node.name, in.schema, window, as.fn, value_idx,
              as.output_attribute);
          const QueryPlan::NodeId nid = out.plan.AddOperator(op);
          PULSE_RETURN_IF_ERROR(connect(in, nid, 0));
          resolved[id] =
              Resolved{false, "", nid, op->output_schema(), kNoKey};
        }
        break;
      }
      case QuerySpec::OpKind::kMap: {
        PULSE_ASSIGN_OR_RETURN(Resolved in, resolve_input(node.inputs[0]));
        const MapSpec& ms = *node.map;
        // Resolve every referenced attribute once; tuple-time evaluation
        // reads by index.
        auto index = std::make_shared<std::map<std::string, size_t>>();
        auto resolve_attr = [&](const AttrRef& ref) -> Status {
          if (index->count(ref.name) > 0) return Status::OK();
          PULSE_ASSIGN_OR_RETURN(size_t idx, in.schema->IndexOf(ref.name));
          (*index)[ref.name] = idx;
          return Status::OK();
        };
        for (const ComputedAttr& ca : ms.outputs) {
          if (ca.kind == ComputedAttr::Kind::kDifference) {
            PULSE_RETURN_IF_ERROR(resolve_attr(ca.a));
            PULSE_RETURN_IF_ERROR(resolve_attr(ca.b));
          } else {
            PULSE_RETURN_IF_ERROR(resolve_attr(ca.x1));
            PULSE_RETURN_IF_ERROR(resolve_attr(ca.y1));
            PULSE_RETURN_IF_ERROR(resolve_attr(ca.x2));
            PULSE_RETURN_IF_ERROR(resolve_attr(ca.y2));
          }
        }
        std::vector<MapColumn> columns;
        size_t key_index = kNoKey;
        if (ms.keep_inputs) {
          for (size_t i = 0; i < in.schema->num_fields(); ++i) {
            columns.push_back(MapColumn::FieldExpr(in.schema->field(i), i));
          }
          key_index = in.key_index;
        } else if (in.key_index != kNoKey) {
          columns.push_back(MapColumn::FieldExpr(
              in.schema->field(in.key_index), in.key_index));
          key_index = 0;
        }
        for (const ComputedAttr& ca : ms.outputs) {
          ComputedAttr attr = ca;  // captured by value
          columns.push_back(MapColumn{
              Field{ca.name, ValueType::kDouble},
              [attr, index](const Tuple& t) {
                Predicate::ValueResolver resolver =
                    [&](const AttrRef& ref) -> Result<double> {
                  auto it = index->find(ref.name);
                  if (it == index->end()) {
                    return Status::Internal("unresolved map attribute");
                  }
                  return t.at(it->second).as_double();
                };
                Result<double> v = attr.EvaluateValues(resolver);
                PULSE_CHECK(v.ok());
                return Value(*v);
              }});
        }
        auto op =
            std::make_shared<MapOperator>(node.name, std::move(columns));
        const QueryPlan::NodeId nid = out.plan.AddOperator(op);
        PULSE_RETURN_IF_ERROR(connect(in, nid, 0));
        resolved[id] =
            Resolved{false, "", nid, op->output_schema(), key_index};
        break;
      }
      case QuerySpec::OpKind::kEpoch: {
        PULSE_ASSIGN_OR_RETURN(Resolved in, resolve_input(node.inputs[0]));
        auto op = std::make_shared<EpochMark>(node.name, in.schema,
                                              node.epoch->epoch_seconds,
                                              node.epoch->output_attribute);
        const QueryPlan::NodeId nid = out.plan.AddOperator(op);
        PULSE_RETURN_IF_ERROR(connect(in, nid, 0));
        // Epoch marking appends a column, so the key's index is stable.
        resolved[id] =
            Resolved{false, "", nid, op->output_schema(), in.key_index};
        break;
      }
      case QuerySpec::OpKind::kDistinct: {
        PULSE_ASSIGN_OR_RETURN(Resolved in, resolve_input(node.inputs[0]));
        if (in.key_index == kNoKey) {
          return Status::InvalidArgument(
              "distinct node '" + node.name +
              "' requires a keyed input (no key survives upstream)");
        }
        auto op = std::make_shared<EpochDistinct>(
            node.name, in.schema, node.distinct->epoch_seconds,
            in.key_index);
        const QueryPlan::NodeId nid = out.plan.AddOperator(op);
        PULSE_RETURN_IF_ERROR(connect(in, nid, 0));
        resolved[id] = Resolved{false, "", nid, in.schema, in.key_index};
        break;
      }
    }
  }

  for (QueryPlan::NodeId sink : out.plan.SinkNodes()) {
    out.sink_schemas.push_back(out.plan.node(sink)->output_schema());
  }
  return out;
}

Result<TransformedPlan> BuildPulsePlan(const QuerySpec& spec) {
  TransformedPlan out;
  std::vector<PulsePlan::NodeId> built(spec.num_nodes(), 0);
  std::vector<bool> is_built(spec.num_nodes(), false);

  auto connect = [&](const QuerySpec::Input& in, PulsePlan::NodeId to,
                     size_t port) -> Status {
    if (in.is_stream) {
      // Validate the stream exists.
      PULSE_ASSIGN_OR_RETURN(StreamSpec stream, spec.stream(in.stream));
      (void)stream;
      return out.plan.BindSource(in.stream, to, port);
    }
    if (in.node >= spec.num_nodes() || !is_built[in.node]) {
      return Status::InvalidArgument(
          "node input references an unbuilt node");
    }
    return out.plan.Connect(built[in.node], to, port);
  };

  for (QuerySpec::NodeId id = 0; id < spec.num_nodes(); ++id) {
    const QuerySpec::Node& node = spec.node(id);
    PulsePlan::NodeId nid = 0;
    switch (node.kind) {
      case QuerySpec::OpKind::kFilter: {
        nid = out.plan.AddOperator(std::make_shared<PulseFilter>(
            node.name, node.filter->predicate));
        PULSE_RETURN_IF_ERROR(connect(node.inputs[0], nid, 0));
        break;
      }
      case QuerySpec::OpKind::kJoin: {
        const JoinSpec& js = *node.join;
        PulseJoinOptions options;
        options.window_seconds = js.window_seconds;
        options.match_keys = js.match_keys;
        options.require_distinct_keys = js.require_distinct_keys;
        options.left_prefix = js.left_prefix;
        options.right_prefix = js.right_prefix;
        nid = out.plan.AddOperator(std::make_shared<PulseJoin>(
            node.name, js.predicate, options));
        PULSE_RETURN_IF_ERROR(connect(node.inputs[0], nid, 0));
        PULSE_RETURN_IF_ERROR(connect(node.inputs[1], nid, 1));
        break;
      }
      case QuerySpec::OpKind::kAggregate: {
        const AggregateSpec& as = *node.aggregate;
        PulseAggregateOptions options;
        options.fn = as.fn;
        options.input_attribute = as.attribute;
        options.output_attribute = as.output_attribute;
        options.window_seconds = as.window_seconds;
        options.slide_seconds = as.slide_seconds;
        if (as.per_key) {
          const std::string base = node.name;
          auto factory = [options, base](Key group)
              -> Result<std::unique_ptr<PulseOperator>> {
            return MakePulseAggregate(base + "[" + std::to_string(group) +
                                          "]",
                                      options);
          };
          nid = out.plan.AddOperator(
              std::make_shared<PulseGroupBy>(node.name, factory));
        } else {
          PULSE_ASSIGN_OR_RETURN(std::unique_ptr<PulseOperator> agg,
                                 MakePulseAggregate(node.name, options));
          nid = out.plan.AddOperator(std::move(agg));
        }
        PULSE_RETURN_IF_ERROR(connect(node.inputs[0], nid, 0));
        break;
      }
      case QuerySpec::OpKind::kMap: {
        nid = out.plan.AddOperator(std::make_shared<PulseMap>(
            node.name, node.map->outputs, node.map->keep_inputs));
        PULSE_RETURN_IF_ERROR(connect(node.inputs[0], nid, 0));
        break;
      }
      case QuerySpec::OpKind::kEpoch: {
        nid = out.plan.AddOperator(std::make_shared<PulseEpoch>(
            node.name, node.epoch->epoch_seconds));
        PULSE_RETURN_IF_ERROR(connect(node.inputs[0], nid, 0));
        break;
      }
      case QuerySpec::OpKind::kDistinct: {
        nid = out.plan.AddOperator(std::make_shared<PulseDistinct>(
            node.name, node.distinct->epoch_seconds));
        PULSE_RETURN_IF_ERROR(connect(node.inputs[0], nid, 0));
        break;
      }
    }
    built[id] = nid;
    is_built[id] = true;
    out.node_map[id] = nid;
  }

  // Inputs precede their consumers, so a reverse walk sees every
  // consumer of a node before the node itself.
  std::vector<bool> push_scoped(spec.num_nodes(), true);
  for (QuerySpec::NodeId id = spec.num_nodes(); id-- > 0;) {
    const QuerySpec::Node& node = spec.node(id);
    if (push_scoped[id]) {
      out.plan.node(built[id])->lineage().set_push_scoped(true);
    }
    const bool stateless = node.kind == QuerySpec::OpKind::kFilter ||
                           node.kind == QuerySpec::OpKind::kMap ||
                           node.kind == QuerySpec::OpKind::kEpoch ||
                           node.kind == QuerySpec::OpKind::kDistinct;
    if (stateless && push_scoped[id]) continue;
    for (const QuerySpec::Input& in : node.inputs) {
      if (!in.is_stream) push_scoped[in.node] = false;
    }
  }
  return out;
}

Result<SegmentModelBuilder> SegmentModelBuilder::Make(
    const StreamSpec& spec) {
  if (spec.schema == nullptr) {
    return Status::InvalidArgument("stream schema must not be null");
  }
  if (spec.segment_horizon <= 0.0) {
    return Status::InvalidArgument("segment_horizon must be positive");
  }
  SegmentModelBuilder builder;
  builder.spec_ = spec;
  PULSE_ASSIGN_OR_RETURN(builder.key_index_,
                         spec.schema->IndexOf(spec.key_field));
  for (const ModelClause& clause : spec.models) {
    std::vector<size_t> indices;
    indices.reserve(clause.coefficient_fields.size());
    for (const std::string& field : clause.coefficient_fields) {
      PULSE_ASSIGN_OR_RETURN(size_t idx, spec.schema->IndexOf(field));
      indices.push_back(idx);
    }
    builder.coefficient_indices_.push_back(std::move(indices));
    if (spec.schema->HasField(clause.modeled_attribute)) {
      PULSE_ASSIGN_OR_RETURN(
          size_t idx, spec.schema->IndexOf(clause.modeled_attribute));
      builder.observed_indices_[clause.modeled_attribute] = idx;
    }
  }
  return builder;
}

Result<Segment> SegmentModelBuilder::BuildSegment(const Tuple& tuple) const {
  Segment seg;
  seg.id = NextSegmentId();
  seg.key = tuple.at(key_index_).as_int64();
  seg.range = Interval::ClosedOpen(tuple.timestamp,
                                   tuple.timestamp + spec_.segment_horizon);
  for (size_t m = 0; m < spec_.models.size(); ++m) {
    // The MODEL clause is written in segment-local time (the delta
    // attribute); shift to absolute time for plan-wide composition.
    // Coefficients go straight into (inline) polynomial storage.
    Polynomial local;
    local.Resize(coefficient_indices_[m].size());
    size_t c = 0;
    for (size_t idx : coefficient_indices_[m]) {
      local[c++] = tuple.at(idx).as_double();
    }
    local.TrimInPlace();
    seg.set_attribute(spec_.models[m].modeled_attribute,
                      local.Shift(-tuple.timestamp));
  }
  return seg;
}

Key SegmentModelBuilder::KeyOf(const Tuple& tuple) const {
  return tuple.at(key_index_).as_int64();
}

Result<double> SegmentModelBuilder::ObservedValue(
    const Tuple& tuple, const std::string& attribute) const {
  auto it = observed_indices_.find(attribute);
  if (it == observed_indices_.end()) {
    return Status::NotFound("modeled attribute '" + attribute +
                            "' is not an observable tuple field");
  }
  return tuple.at(it->second).as_double();
}

}  // namespace pulse
