#include "shard/sharded_runtime.h"

#include <utility>

namespace pulse {
namespace shard {

Result<ShardedRuntime> ShardedRuntime::Make(const QuerySpec& spec,
                                            ShardedRuntimeOptions options) {
  ShardedRuntime rt;
  PULSE_ASSIGN_OR_RETURN(rt.pool_, ShardPool::Make(spec, std::move(options)));
  PULSE_ASSIGN_OR_RETURN(rt.client_, rt.pool_->AddClient());
  return rt;
}

RuntimeStats ShardedRuntime::stats() const {
  // A shard registry sums the counters of every client on that shard.
  // This pool is private and has exactly one client, so the per-shard
  // sums are exactly this runtime's counts.
  RuntimeStats sum;
  for (size_t i = 0; i < pool_->num_shards(); ++i) {
    const RuntimeStats s =
        RuntimeCore::Counters::Bind(pool_->shard_metrics(i),
                                    RuntimeCore::Mode::kHistorical)
            .Read();
    sum.tuples_in += s.tuples_in;
    sum.segments_pushed += s.segments_pushed;
    sum.output_segments += s.output_segments;
  }
  return sum;
}

}  // namespace shard
}  // namespace pulse
