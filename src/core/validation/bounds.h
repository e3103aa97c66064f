#ifndef PULSE_CORE_VALIDATION_BOUNDS_H_
#define PULSE_CORE_VALIDATION_BOUNDS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "model/segment.h"
#include "util/result.h"

namespace pulse {

/// User-supplied accuracy bound on a query-output attribute (paper
/// Section IV): Pulse guarantees continuous-time results lie within this
/// range of the discrete-time results. Bounds may be absolute or relative
/// to the result's magnitude (the NYSE experiments use relative bounds,
/// e.g. "1% of the trade's value").
struct BoundSpec {
  std::string attribute;
  double value = 0.0;
  bool relative = false;

  static BoundSpec Absolute(std::string attribute, double value) {
    return BoundSpec{std::move(attribute), value, false};
  }
  static BoundSpec Relative(std::string attribute, double fraction) {
    return BoundSpec{std::move(attribute), fraction, true};
  }

  /// The absolute margin implied for a result near `reference`.
  double MarginFor(double reference) const;
};

/// The bounds actually enforced at a stream's inputs after inversion:
/// a symmetric margin per (key, attribute). Registered margins are
/// conservative — validating |actual - predicted| <= margin at the input
/// guarantees the output bound (two-sided, paper Section IV-C).
///
/// Margin/Within sit on the per-tuple validation hot path, so lookups are
/// allocation-free (transparent string_view comparison).
class BoundRegistry {
 public:
  /// Installs (or tightens) the margin for (key, attribute).
  void Set(Key key, std::string_view attribute, double margin);

  /// Margin for (key, attribute); falls back to the attribute-wide
  /// default (key kAnyKey), then +infinity (unbounded = never violated).
  double Margin(Key key, std::string_view attribute) const;

  /// True when |actual - predicted| is within the registered margin.
  bool Within(Key key, std::string_view attribute, double predicted,
              double actual) const;

  /// Wildcard key for attribute-wide defaults.
  static constexpr Key kAnyKey = -1;

  /// Monotone change counter: bumped by every Set that changes a margin
  /// (a Set that would not tighten one leaves it alone). Hot paths cache
  /// margins and refresh when the version moves.
  uint64_t version() const { return version_; }

  size_t size() const;
  void Clear() { margins_.clear(); }

 private:
  using AttrMargins = std::map<std::string, double, std::less<>>;

  // Returns the margin in `m` for `attribute`, or +infinity.
  static double Find(const AttrMargins& m, std::string_view attribute);

  std::map<Key, AttrMargins> margins_;
  uint64_t version_ = 0;
};

}  // namespace pulse

#endif  // PULSE_CORE_VALIDATION_BOUNDS_H_
