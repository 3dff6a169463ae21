#ifndef PASS_SHARD_PARALLEL_SHARD_EXECUTOR_H_
#define PASS_SHARD_PARALLEL_SHARD_EXECUTOR_H_

#include <cstddef>
#include <functional>

namespace pass {

/// Kept only because perfbench/src/serve_mix.cc compiles against it.
class ParallelShardExecutor {
 public:
  void ForEachShard(size_t num_shards,
                    const std::function<void(size_t)>& fn) const {
    for (size_t i = 0; i < num_shards; ++i) fn(i);
  }
};

}  // namespace pass

#endif  // PASS_SHARD_PARALLEL_SHARD_EXECUTOR_H_
