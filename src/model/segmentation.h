#ifndef PULSE_MODEL_SEGMENTATION_H_
#define PULSE_MODEL_SEGMENTATION_H_

#include <optional>
#include <vector>

#include "math/interval_set.h"
#include "math/polynomial.h"
#include "model/fitting.h"
#include "util/result.h"

namespace pulse {

/// A fitted model piece produced by a segmentation algorithm.
struct FittedSegment {
  Interval range = Interval::ClosedOpen(0.0, 0.0);  // [first t, last t + dt)
  Polynomial poly;          // model in absolute time
  size_t num_points = 0;    // samples represented by this piece
  double max_error = 0.0;   // max abs residual over those samples
};

/// Segmentation configuration shared by all algorithms. Every algorithm
/// extends each emitted range's upper end by the trailing inter-arrival
/// gap, so consecutive pieces tile time without holes.
struct SegmentationOptions {
  /// Polynomial degree of each piece (1 = the paper's piecewise-linear
  /// historical models, Section V-A "online segmentation-based algorithm
  /// [13] to find a piecewise linear model").
  size_t degree = 1;
  /// A piece is closed when its max abs residual would exceed this bound.
  double max_error = 1.0;
  /// Upper bound on samples per piece (0 = unlimited).
  size_t max_points_per_segment = 0;
};

/// Online sliding-window segmenter in the style of Keogh et al. (ICDM'01),
/// the algorithm the paper cites for historical model fitting. Samples are
/// fed one at a time; a FittedSegment is emitted whenever adding the next
/// sample would push the fit error beyond options.max_error.
///
/// Cost note: the fit is recomputed on the growing buffer, giving the
/// classic O(n * L) behaviour for mean piece length L. Ablation A3
/// (bench_ablation_segmentation) measures this class; the Fig. 8
/// modeling operator is MultiAttributeSegmenter (core/runtime.h), which
/// keeps its fit incrementally.
class SlidingWindowSegmenter {
 public:
  explicit SlidingWindowSegmenter(SegmentationOptions options);

  /// Adds a sample. Returns a completed segment when one closes, else
  /// nullopt. Samples must arrive in non-decreasing time order.
  std::optional<FittedSegment> Add(const Sample& sample);

  /// Emits the final partial segment, if any.
  std::optional<FittedSegment> Flush();

  /// Samples buffered toward the current (unfinished) piece.
  size_t pending() const { return buffer_.size(); }

 private:
  SegmentationOptions options_;
  std::vector<Sample> buffer_;
  double last_gap_ = 0.0;  // most recent inter-arrival spacing
};

/// Offline bottom-up segmentation: starts from finest pieces and greedily
/// merges the pair with the lowest merged error until no merge stays
/// within options.max_error. Better fits than sliding-window at higher
/// cost; part of ablation A3.
std::vector<FittedSegment> BottomUpSegmentation(
    const std::vector<Sample>& samples, const SegmentationOptions& options);

/// SWAB (Sliding Window And Bottom-up, Keogh et al.): bottom-up inside a
/// sliding buffer, giving online behaviour with near-offline quality.
std::vector<FittedSegment> SwabSegmentation(
    const std::vector<Sample>& samples, const SegmentationOptions& options,
    size_t buffer_size = 64);

/// Convenience: runs the online sliding-window segmenter over a full
/// sample vector.
std::vector<FittedSegment> SlidingWindowSegmentation(
    const std::vector<Sample>& samples, const SegmentationOptions& options);

}  // namespace pulse

#endif  // PULSE_MODEL_SEGMENTATION_H_
