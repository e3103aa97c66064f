#include "model/segmentation.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace pulse {

namespace {

// Fits and measures one candidate piece; returns max abs residual and the
// fitted polynomial. Falls back to a constant/low-degree fit while the
// buffer is shorter than degree+1.
struct CandidateFit {
  Polynomial poly;
  double max_error = 0.0;
};

CandidateFit FitCandidate(const std::vector<Sample>& pts, size_t degree) {
  CandidateFit out;
  const size_t usable_degree =
      std::min(degree, pts.empty() ? size_t{0} : pts.size() - 1);
  Result<Polynomial> fit = FitPolynomial(pts, usable_degree);
  if (!fit.ok()) {
    // Degenerate geometry (e.g. duplicate timestamps): fall back to the
    // mean so segmentation always makes progress.
    double mean = 0.0;
    for (const Sample& s : pts) mean += s.value;
    if (!pts.empty()) mean /= static_cast<double>(pts.size());
    out.poly = Polynomial::Constant(mean);
  } else {
    out.poly = std::move(fit).value();
  }
  out.max_error = MaxAbsResidual(out.poly, pts);
  return out;
}

FittedSegment MakeFromPoints(const std::vector<Sample>& pts,
                             const CandidateFit& fit, double extend_gap) {
  FittedSegment seg;
  seg.poly = fit.poly;
  seg.num_points = pts.size();
  seg.max_error = fit.max_error;
  const double lo = pts.front().t;
  double hi = pts.back().t + extend_gap;
  if (hi <= lo) hi = lo + 1e-9;  // keep the range non-degenerate
  seg.range = Interval::ClosedOpen(lo, hi);
  return seg;
}

}  // namespace

SlidingWindowSegmenter::SlidingWindowSegmenter(SegmentationOptions options)
    : options_(options) {
  PULSE_CHECK(options_.max_error > 0.0);
}

std::optional<FittedSegment> SlidingWindowSegmenter::Add(
    const Sample& sample) {
  if (!buffer_.empty()) {
    last_gap_ = std::max(0.0, sample.t - buffer_.back().t);
  }
  // Tentatively extend the current piece.
  buffer_.push_back(sample);
  const bool over_cap = options_.max_points_per_segment > 0 &&
                        buffer_.size() > options_.max_points_per_segment;
  if (buffer_.size() <= options_.degree + 1 && !over_cap) {
    return std::nullopt;  // cannot violate the bound yet
  }
  const CandidateFit fit = FitCandidate(buffer_, options_.degree);
  if (fit.max_error <= options_.max_error && !over_cap) {
    return std::nullopt;
  }
  // The new sample broke the piece: emit everything before it.
  buffer_.pop_back();
  const CandidateFit closed = FitCandidate(buffer_, options_.degree);
  FittedSegment seg = MakeFromPoints(buffer_, closed, last_gap_);
  buffer_.clear();
  buffer_.push_back(sample);
  return seg;
}

std::optional<FittedSegment> SlidingWindowSegmenter::Flush() {
  if (buffer_.empty()) return std::nullopt;
  const CandidateFit fit = FitCandidate(buffer_, options_.degree);
  FittedSegment seg = MakeFromPoints(buffer_, fit, last_gap_);
  buffer_.clear();
  return seg;
}

std::vector<FittedSegment> SlidingWindowSegmentation(
    const std::vector<Sample>& samples, const SegmentationOptions& options) {
  SlidingWindowSegmenter segmenter(options);
  std::vector<FittedSegment> out;
  for (const Sample& s : samples) {
    if (auto seg = segmenter.Add(s)) out.push_back(std::move(*seg));
  }
  if (auto seg = segmenter.Flush()) out.push_back(std::move(*seg));
  return out;
}

std::vector<FittedSegment> BottomUpSegmentation(
    const std::vector<Sample>& samples, const SegmentationOptions& options) {
  std::vector<FittedSegment> out;
  if (samples.empty()) return out;

  // Start from the finest pieces that admit a degree-d fit.
  const size_t unit = options.degree + 1;
  std::vector<std::vector<Sample>> groups;
  for (size_t i = 0; i < samples.size(); i += unit) {
    const size_t end = std::min(samples.size(), i + unit);
    groups.emplace_back(samples.begin() + i, samples.begin() + end);
  }

  // Greedy merging: repeatedly merge the adjacent pair whose combined fit
  // has the smallest max-residual, while it stays within the bound.
  auto merged_cost = [&](size_t i) {
    std::vector<Sample> joined = groups[i];
    joined.insert(joined.end(), groups[i + 1].begin(), groups[i + 1].end());
    return FitCandidate(joined, options.degree).max_error;
  };
  while (groups.size() > 1) {
    double best_cost = std::numeric_limits<double>::infinity();
    size_t best_i = 0;
    for (size_t i = 0; i + 1 < groups.size(); ++i) {
      const bool over_cap =
          options.max_points_per_segment > 0 &&
          groups[i].size() + groups[i + 1].size() >
              options.max_points_per_segment;
      if (over_cap) continue;
      const double cost = merged_cost(i);
      if (cost < best_cost) {
        best_cost = cost;
        best_i = i;
      }
    }
    if (best_cost > options.max_error) break;
    groups[best_i].insert(groups[best_i].end(), groups[best_i + 1].begin(),
                          groups[best_i + 1].end());
    groups.erase(groups.begin() + best_i + 1);
  }

  for (size_t g = 0; g < groups.size(); ++g) {
    const CandidateFit fit = FitCandidate(groups[g], options.degree);
    // Extend each piece up to the successor's first sample so pieces tile.
    double gap = 0.0;
    if (g + 1 < groups.size()) {
      gap = groups[g + 1].front().t - groups[g].back().t;
    } else if (groups[g].size() > 1) {
      gap = groups[g].back().t - groups[g][groups[g].size() - 2].t;
    }
    out.push_back(MakeFromPoints(groups[g], fit, std::max(gap, 0.0)));
  }
  return out;
}

std::vector<FittedSegment> SwabSegmentation(
    const std::vector<Sample>& samples, const SegmentationOptions& options,
    size_t buffer_size) {
  std::vector<FittedSegment> out;
  if (samples.empty()) return out;
  PULSE_CHECK(buffer_size >= 2 * (options.degree + 1));

  size_t next = 0;
  std::vector<Sample> buffer;
  while (next < samples.size() || !buffer.empty()) {
    // Refill the working buffer.
    while (buffer.size() < buffer_size && next < samples.size()) {
      buffer.push_back(samples[next++]);
    }
    std::vector<FittedSegment> local = BottomUpSegmentation(buffer, options);
    if (local.size() <= 1 && next >= samples.size()) {
      // Terminal buffer: everything that remains is final.
      out.insert(out.end(), local.begin(), local.end());
      break;
    }
    if (local.size() <= 1) {
      // Buffer too coherent to split: grow it and retry.
      buffer_size *= 2;
      continue;
    }
    // Emit only the leftmost piece; return the rest to the buffer.
    out.push_back(local.front());
    const size_t consumed = local.front().num_points;
    buffer.erase(buffer.begin(), buffer.begin() + consumed);
  }
  return out;
}

}  // namespace pulse
