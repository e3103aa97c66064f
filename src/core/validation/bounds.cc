#include "core/validation/bounds.h"

#include <cmath>
#include <limits>

namespace pulse {

double BoundSpec::MarginFor(double reference) const {
  if (!relative) return value;
  return value * std::abs(reference);
}

void BoundRegistry::Set(Key key, std::string_view attribute, double margin) {
  AttrMargins& per_key = margins_[key];
  auto it = per_key.find(attribute);
  if (it == per_key.end()) {
    per_key.emplace(std::string(attribute), margin);
  } else if (margin < it->second) {
    it->second = margin;
  } else {
    return;
  }
  ++version_;
}

double BoundRegistry::Find(const AttrMargins& m,
                           std::string_view attribute) {
  auto it = m.find(attribute);
  if (it == m.end()) return std::numeric_limits<double>::infinity();
  return it->second;
}

double BoundRegistry::Margin(Key key, std::string_view attribute) const {
  auto it = margins_.find(key);
  if (it != margins_.end()) {
    const double m = Find(it->second, attribute);
    if (m != std::numeric_limits<double>::infinity()) return m;
  }
  it = margins_.find(kAnyKey);
  if (it != margins_.end()) return Find(it->second, attribute);
  return std::numeric_limits<double>::infinity();
}

bool BoundRegistry::Within(Key key, std::string_view attribute,
                           double predicted, double actual) const {
  return std::abs(actual - predicted) <= Margin(key, attribute);
}

size_t BoundRegistry::size() const {
  size_t total = 0;
  for (const auto& [key, attrs] : margins_) total += attrs.size();
  return total;
}

}  // namespace pulse
