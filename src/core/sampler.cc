#include "core/sampler.h"

#include <cmath>
#include <cstdint>

#include "util/logging.h"

namespace pulse {

Sampler::Sampler(SamplerOptions options) : options_(options) {
  PULSE_CHECK(options_.rate > 0.0 || options_.slide > 0.0);
}

std::vector<Tuple> Sampler::Sample(
    const Segment& segment,
    const std::vector<std::string>& attributes) const {
  std::vector<Tuple> out;
  auto emit = [&](double t) {
    Tuple tuple;
    tuple.timestamp = t;
    tuple.values.reserve(attributes.size() + 1);
    tuple.values.push_back(Value(segment.key));
    for (const std::string& attr : attributes) {
      auto it = segment.attributes.find(attr);
      const double v =
          it != segment.attributes.end() ? it->second.Evaluate(t) : 0.0;
      tuple.values.emplace_back(v);
    }
    out.push_back(std::move(tuple));
  };

  if (segment.range.IsEmpty()) return out;
  if (segment.range.IsPoint()) {
    emit(segment.range.lo);
    return out;
  }
  const double step =
      options_.slide > 0.0 ? options_.slide : 1.0 / options_.rate;
  // Samples lie on the absolute grid k * step so consecutive segments of
  // one output stream produce a uniformly spaced tuple sequence. Integer
  // stepping avoids accumulated floating-point drift past the range end.
  int64_t k = static_cast<int64_t>(std::ceil(segment.range.lo / step));
  if (k * step == segment.range.lo && segment.range.lo_open) ++k;
  for (;; ++k) {
    const double t = static_cast<double>(k) * step;
    const bool inside =
        t < segment.range.hi ||
        (t == segment.range.hi && !segment.range.hi_open);
    if (!inside) break;
    emit(t);
  }
  return out;
}

std::vector<Tuple> Sampler::SampleAll(
    const SegmentBatch& segments,
    const std::vector<std::string>& attributes) const {
  std::vector<Tuple> out;
  for (const Segment& s : segments) {
    std::vector<Tuple> part = Sample(s, attributes);
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

}  // namespace pulse
