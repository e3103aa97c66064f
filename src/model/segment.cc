#include "model/segment.h"

#include <algorithm>
#include <sstream>

namespace pulse {

Result<Polynomial> Segment::attribute(const std::string& name) const {
  auto it = attributes.find(name);
  if (it == attributes.end()) {
    return Status::NotFound("segment has no modeled attribute '" + name +
                            "'");
  }
  return it->second;
}

Result<double> Segment::EvaluateAttribute(const std::string& name,
                                          double t) const {
  auto it = attributes.find(name);
  if (it == attributes.end()) {
    return Status::NotFound("segment has no modeled attribute '" + name +
                            "'");
  }
  return it->second.Evaluate(t);
}

Segment Segment::ClipTo(const Interval& clip) const {
  Segment out = *this;
  out.range = range.Intersect(clip);
  return out;
}

std::string Segment::ToString() const {
  std::ostringstream os;
  os << "Segment{key=" << key << ", range=" << range.ToString();
  for (const auto& [name, poly] : attributes) {
    os << ", " << name << "(t)=" << poly.ToString();
  }
  for (const auto& [name, v] : unmodeled) {
    os << ", " << name << "=" << v;
  }
  os << "}";
  return os.str();
}

bool ApplySegmentUpdate(std::vector<Segment>* timeline, Segment incoming) {
  if (incoming.range.IsEmpty()) return false;
  // Fast path for the dominant in-order append: the timeline is sorted
  // and disjoint, so a segment starting at or after the last one's end
  // cannot overlap anything and keeps the ordering by plain push_back.
  if (timeline->empty()) {
    timeline->push_back(std::move(incoming));
    return true;
  }
  const Interval& last = timeline->back().range;
  if (incoming.range.lo > last.hi ||
      (incoming.range.lo == last.hi &&
       (last.hi_open || incoming.range.lo_open))) {
    timeline->push_back(std::move(incoming));
    return true;
  }
  // Successor wins the overlap: truncate any earlier segment that extends
  // past the newcomer's start; drop segments fully covered.
  std::vector<Segment> kept;
  kept.reserve(timeline->size() + 1);
  for (Segment& s : *timeline) {
    if (!s.range.Intersects(incoming.range)) {
      kept.push_back(std::move(s));
      continue;
    }
    // Piece of s strictly before the incoming segment survives.
    Segment head = s;
    head.range.hi = incoming.range.lo;
    head.range.hi_open = !incoming.range.lo_open;
    if (!head.range.IsEmpty()) kept.push_back(std::move(head));
    // Piece of s after the incoming segment survives too (incoming is an
    // update for the overlap only).
    Segment tail = std::move(s);
    tail.range.lo = incoming.range.hi;
    tail.range.lo_open = !incoming.range.hi_open;
    if (!tail.range.IsEmpty()) kept.push_back(std::move(tail));
  }
  kept.push_back(std::move(incoming));
  std::sort(kept.begin(), kept.end(), [](const Segment& a, const Segment& b) {
    if (a.range.lo != b.range.lo) return a.range.lo < b.range.lo;
    return !a.range.lo_open && b.range.lo_open;
  });
  *timeline = std::move(kept);
  return false;
}

}  // namespace pulse
