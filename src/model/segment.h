#ifndef PULSE_MODEL_SEGMENT_H_
#define PULSE_MODEL_SEGMENT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "math/interval_set.h"
#include "math/polynomial.h"
#include "util/result.h"

namespace pulse {

/// Discrete entity identifier carried by a data stream (paper Section II-B,
/// "Key attributes"): keys are discrete, unique, and modeled attributes are
/// functional dependents of keys throughout the dataflow (Property 2 of
/// query inversion).
using Key = int64_t;

/// A model segment: the first-class datatype of Pulse query processing
/// (paper Section III-C). A segment is a time range [tl, tu) over which a
/// particular set of polynomial coefficients is valid, written
/// s = ([tl, tu), c) in the paper. A segment carries:
///   - the key of the entity it describes,
///   - one polynomial per modeled attribute (in segment-local time,
///     i.e. evaluated at t - range.lo so coefficients stay small),
///   - unmodeled attributes, constant for the segment's lifespan.
struct Segment {
  Key key = 0;
  /// Engine-assigned identifier, unique per operator output; lineage
  /// entries reference producers by this id (0 = unassigned).
  uint64_t id = 0;
  /// Validity range; by stream convention half-open [tl, tu).
  Interval range = Interval::ClosedOpen(0.0, 0.0);
  /// Modeled attribute name -> polynomial in absolute time t.
  std::map<std::string, Polynomial> attributes;
  /// Unmodeled attributes (constant over the segment).
  std::map<std::string, double> unmodeled;

  Segment() = default;
  Segment(Key k, Interval r) : key(k), range(r) {}

  bool has_attribute(const std::string& name) const {
    return attributes.count(name) > 0;
  }

  /// Polynomial for `name`; fails with NotFound when absent.
  Result<Polynomial> attribute(const std::string& name) const;

  void set_attribute(const std::string& name, Polynomial p) {
    attributes[name] = std::move(p);
  }

  /// Evaluates attribute `name` at absolute time t (t need not lie inside
  /// range; extrapolation is the predictive-processing use case).
  Result<double> EvaluateAttribute(const std::string& name, double t) const;

  /// A copy restricted to range ∩ clip (attributes unchanged). The result
  /// range may be empty; callers drop such segments.
  Segment ClipTo(const Interval& clip) const;

  /// True when both segments have the same key and their ranges share at
  /// least one point.
  bool OverlapsInTime(const Segment& other) const {
    return range.Intersects(other.range);
  }

  std::string ToString() const;
};

/// A batch of segments flowing between Pulse operators, ordered by
/// range.lo. Also used as operator output ("equation systems consume
/// segments and produce segments", Section III-C).
using SegmentBatch = std::vector<Segment>;

/// Applies the paper's update semantics (Section II-B) to an ordered
/// per-key timeline: when a successor segment overlaps its predecessors
/// temporally, the successor acts as an update for the overlap — earlier
/// segments are truncated to end where the newcomer begins. `timeline`
/// must be ordered by arrival; `incoming` is appended. Returns true when
/// `incoming` took the in-order fast path (pushed at the end, no
/// predecessor touched); false when it was dropped as empty or rewrote
/// the timeline.
bool ApplySegmentUpdate(std::vector<Segment>* timeline, Segment incoming);

}  // namespace pulse

#endif  // PULSE_MODEL_SEGMENT_H_
