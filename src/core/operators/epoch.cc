#include "core/operators/epoch.h"

#include <algorithm>
#include <memory>

#include "engine/epoch.h"
#include "util/logging.h"

namespace pulse {

PulseEpoch::PulseEpoch(std::string name, double epoch_seconds)
    : PulseOperator(std::move(name)), epoch_seconds_(epoch_seconds) {
  PULSE_CHECK(epoch_seconds_ > 0.0);
}

Status PulseEpoch::Process(size_t port, const Segment& segment,
                           SegmentBatch* out) {
  PULSE_CHECK(port == 0);
  metrics_.segments_in->Increment();
  const double lo = segment.range.lo;
  const double hi = segment.range.hi;
  // Every piece of this input shares one copy of it as its cause.
  std::shared_ptr<const Segment> cause;
  for (int64_t k = EpochIndexOf(lo, epoch_seconds_);
       static_cast<double>(k) * epoch_seconds_ < hi; ++k) {
    const double e_lo = static_cast<double>(k) * epoch_seconds_;
    const double e_hi = static_cast<double>(k + 1) * epoch_seconds_;
    Segment piece = segment.ClipTo(
        Interval::ClosedOpen(std::max(lo, e_lo), e_hi));
    if (piece.range.IsEmpty()) continue;
    piece.id = NextSegmentId();
    if (cause == nullptr) cause = std::make_shared<const Segment>(segment);
    lineage_.Record(piece.id, piece.range, {LineageEntry{0, cause}});
    out->push_back(std::move(piece));
    metrics_.segments_out->Increment();
  }
  return Status::OK();
}

}  // namespace pulse
