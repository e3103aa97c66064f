#include "obs/op_metrics.h"

namespace pulse {

void OperatorMetrics::Bind(obs::MetricsRegistry* registry,
                           const std::string& op_name) {
  const std::string prefix = "op/" + op_name + "/";
  tuples_in = registry->GetCounter(prefix + "in");
  tuples_out = registry->GetCounter(prefix + "out");
  invocations = registry->GetCounter(prefix + "invocations");
  comparisons = registry->GetCounter(prefix + "comparisons");
}

void PulseOperatorMetrics::Bind(obs::MetricsRegistry* registry,
                                const std::string& op_name) {
  const std::string prefix = "op/" + op_name + "/";
  segments_in = registry->GetCounter(prefix + "in");
  segments_out = registry->GetCounter(prefix + "out");
  solves = registry->GetCounter(prefix + "solves");
  state_size.Retarget(registry->GetGauge(prefix + "state_size"));
}

}  // namespace pulse
