#include "testing/workload_gen.h"

#include <algorithm>
#include <cmath>

#include "core/validation/lineage.h"
#include "util/logging.h"

namespace pulse {
namespace testing {

namespace {

// Random polynomial in piece-local time: constant term O(value_scale),
// higher orders damped by 1/k^2 so values stay bounded over the piece
// (same shape the hand-rolled equivalence trials used).
Polynomial RandomPiecePolynomial(Rng& rng, size_t degree, double scale) {
  std::vector<double> coeffs;
  coeffs.push_back(rng.Uniform(-scale, scale));
  for (size_t k = 1; k <= degree; ++k) {
    const double damp = static_cast<double>(k * k);
    coeffs.push_back(rng.Uniform(-0.4 * scale, 0.4 * scale) / damp);
  }
  Polynomial p(std::move(coeffs));
  p.TrimInPlace();
  return p;
}

// Telemetry-mode piece polynomial (piece-local time): a near-zero
// baseline or a burst near value_scale, with a bounded linear drift.
// The two bands are separated by design (baseline < 0.15 * scale,
// burst > 0.5 * scale over typical piece lengths), so thresholds in
// between give clean region entries for epoch/distinct plans.
Polynomial TelemetryPiecePolynomial(Rng& rng, double scale,
                                    double burst_probability) {
  const bool burst = rng.Bernoulli(burst_probability);
  std::vector<double> coeffs;
  if (burst) {
    coeffs.push_back(rng.Uniform(0.6 * scale, scale));
    coeffs.push_back(rng.Uniform(-0.05 * scale, 0.05 * scale));
  } else {
    coeffs.push_back(rng.Uniform(0.0, 0.08 * scale));
    coeffs.push_back(rng.Uniform(-0.01 * scale, 0.01 * scale));
  }
  Polynomial p(std::move(coeffs));
  p.TrimInPlace();
  return p;
}

}  // namespace

const TrackPiece* KeyTrack::PieceAt(double t) const {
  for (const TrackPiece& piece : pieces) {
    if (piece.range.Contains(t)) return &piece;
  }
  return nullptr;
}

std::optional<double> KeyTrack::Value(const std::string& attr,
                                     double t) const {
  const TrackPiece* piece = PieceAt(t);
  if (piece == nullptr) return std::nullopt;
  auto it = piece->attrs.find(attr);
  if (it == piece->attrs.end()) return std::nullopt;
  return it->second.Evaluate(t);
}

std::vector<Segment> StreamWorkload::ToSegments() const {
  // (range.lo, key) order so replay pushes interleave the keys the way
  // a live stream would.
  std::vector<std::pair<const KeyTrack*, const TrackPiece*>> flat;
  for (const KeyTrack& track : tracks) {
    for (const TrackPiece& piece : track.pieces) {
      flat.push_back({&track, &piece});
    }
  }
  std::sort(flat.begin(), flat.end(), [](const auto& a, const auto& b) {
    if (a.second->range.lo != b.second->range.lo) {
      return a.second->range.lo < b.second->range.lo;
    }
    return a.first->key < b.first->key;
  });
  std::vector<Segment> out;
  out.reserve(flat.size());
  for (const auto& [track, piece] : flat) {
    Segment s(track->key, piece->range);
    s.id = NextSegmentId();
    for (const auto& [attr, poly] : piece->attrs) {
      s.set_attribute(attr, poly);
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<Tuple> StreamWorkload::ToTuples(double dt) const {
  PULSE_CHECK(dt > 0.0);
  std::vector<Tuple> out;
  for (double t = t_begin; t < t_end - 1e-12; t += dt) {
    for (const KeyTrack& track : tracks) {
      const TrackPiece* piece = track.PieceAt(t);
      if (piece == nullptr) continue;
      std::vector<pulse::Value> values;
      values.reserve(attributes.size() + 1);
      values.push_back(pulse::Value(static_cast<int64_t>(track.key)));
      bool complete = true;
      for (const std::string& attr : attributes) {
        auto it = piece->attrs.find(attr);
        if (it == piece->attrs.end()) {
          complete = false;
          break;
        }
        values.emplace_back(it->second.Evaluate(t));
      }
      if (complete) out.emplace_back(t, std::move(values));
    }
  }
  return out;
}

std::shared_ptr<const Schema> StreamWorkload::MakeSchema() const {
  std::vector<Field> fields;
  fields.push_back({"id", ValueType::kInt64});
  for (const std::string& attr : attributes) {
    fields.push_back({attr, ValueType::kDouble});
  }
  return Schema::Make(std::move(fields));
}

std::optional<double> StreamWorkload::Value(Key key, const std::string& attr,
                                           double t) const {
  for (const KeyTrack& track : tracks) {
    if (track.key == key) return track.Value(attr, t);
  }
  return std::nullopt;
}

std::optional<double> StreamWorkload::Envelope(const std::string& attr,
                                              double t, bool is_min) const {
  std::optional<double> best;
  for (const KeyTrack& track : tracks) {
    std::optional<double> v = track.Value(attr, t);
    if (!v.has_value()) continue;
    if (!best.has_value() || (is_min ? *v < *best : *v > *best)) best = v;
  }
  return best;
}

std::optional<double> StreamWorkload::Integral(Key key,
                                              const std::string& attr,
                                              double lo, double hi) const {
  if (hi <= lo) return 0.0;
  const KeyTrack* track = nullptr;
  for (const KeyTrack& t : tracks) {
    if (t.key == key) {
      track = &t;
      break;
    }
  }
  if (track == nullptr) return std::nullopt;
  double total = 0.0;
  bool any = false;
  for (const TrackPiece& piece : track->pieces) {
    const double a = std::max(lo, piece.range.lo);
    const double b = std::min(hi, piece.range.hi);
    if (b <= a) continue;
    auto it = piece.attrs.find(attr);
    if (it == piece.attrs.end()) return std::nullopt;
    const Polynomial anti = it->second.Antiderivative();
    total += anti.Evaluate(b) - anti.Evaluate(a);
    any = true;
  }
  if (!any) return std::nullopt;
  return total;
}

StreamWorkload GenerateStreamWorkload(Rng& rng, std::string name,
                                      std::vector<std::string> attributes,
                                      size_t num_keys,
                                      const WorkloadGenOptions& options) {
  PULSE_CHECK(num_keys >= 1);
  PULSE_CHECK(options.duration > 0.0);
  StreamWorkload ws;
  ws.name = std::move(name);
  ws.attributes = std::move(attributes);
  ws.t_begin = 0.0;
  ws.t_end = options.duration;
  for (size_t k = 0; k < num_keys; ++k) {
    KeyTrack track;
    track.key = static_cast<Key>(k + 1);
    const size_t pieces = static_cast<size_t>(rng.UniformInt(
        static_cast<int64_t>(options.min_pieces),
        static_cast<int64_t>(options.max_pieces)));
    // Random interior breakpoints partitioning [0, duration).
    std::vector<double> cuts{0.0, options.duration};
    for (size_t i = 1; i < pieces; ++i) {
      cuts.push_back(rng.Uniform(0.1 * options.duration,
                                 0.9 * options.duration));
    }
    std::sort(cuts.begin(), cuts.end());
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      if (cuts[i + 1] - cuts[i] < 1e-9) continue;  // degenerate cut
      TrackPiece piece;
      piece.range = Interval::ClosedOpen(cuts[i], cuts[i + 1]);
      for (const std::string& attr : ws.attributes) {
        // Generate in piece-local time, then shift to absolute time
        // (exactly how SegmentModelBuilder publishes MODEL clauses).
        if (options.telemetry) {
          piece.attrs[attr] =
              TelemetryPiecePolynomial(rng, options.value_scale,
                                       options.burst_probability)
                  .Shift(-cuts[i]);
        } else {
          const size_t degree = static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(options.max_degree)));
          piece.attrs[attr] =
              RandomPiecePolynomial(rng, degree, options.value_scale)
                  .Shift(-cuts[i]);
        }
      }
      track.pieces.push_back(std::move(piece));
    }
    ws.tracks.push_back(std::move(track));
  }
  // Sampled value/derivative bounds for the matcher's discretization
  // tolerances (exact sup not needed; a dense sample on a fixed lattice
  // is deterministic and close enough with headroom applied by callers).
  double vmax = 0.0;
  double dmax = 0.0;
  for (const KeyTrack& track : ws.tracks) {
    for (const TrackPiece& piece : track.pieces) {
      for (const auto& [attr, poly] : piece.attrs) {
        const Polynomial deriv = poly.Derivative();
        const double step =
            std::max(piece.range.Length() / 64.0, 1e-6);
        for (double t = piece.range.lo; t <= piece.range.hi;
             t += step) {
          vmax = std::max(vmax, std::fabs(poly.Evaluate(t)));
          dmax = std::max(dmax, std::fabs(deriv.Evaluate(t)));
        }
      }
    }
  }
  ws.value_bound = vmax;
  ws.derivative_bound = dmax;
  return ws;
}

}  // namespace testing
}  // namespace pulse
