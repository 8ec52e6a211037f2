#ifndef GPUDB_CORE_POOL_EXECUTOR_H_
#define GPUDB_CORE_POOL_EXECUTOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/core/aggregates.h"
#include "src/core/executor.h"
#include "src/core/resilience.h"
#include "src/db/sharding.h"
#include "src/gpu/device_pool.h"
#include "src/predicate/expr.h"

namespace gpudb {
namespace core {

/// \brief Scatter/gather executor over a ShardedTable on a DevicePool
/// (DESIGN.md §15).
///
/// Each decomposable operator runs shard by shard on the shard's primary
/// device and the per-shard answers are recombined:
///
///   Count / RangeCount : sum of per-shard counts
///   SelectRowIds       : per-shard ids + row_begin, concatenated in order
///   SelectBitmap       : per-shard bitmaps concatenated
///   SUM                : sum of exact per-shard integer sums
///   MIN / MAX          : min/max over non-empty shards
///   AVG                : (sum of shard sums) / (sum of shard counts)
///
/// All of these are bit-exact against single-device execution: integer
/// columns use the data-independent exact depth encoding, sums are exact
/// uint64 accumulations, and range sharding preserves row order (see
/// db/sharding.h). Non-decomposable operators (MEDIAN, KTH_LARGEST,
/// GROUP BY, ORDER BY) are *single-device* operators per the EXTENDING.md
/// rule and return kNotImplemented here; callers route them to a plain
/// Executor.
///
/// Failure domains: each shard walks the degradation ladder
/// (core/resilience.h) over its [primary, replica] placements, then the
/// CPU tier. A device the pool refuses (quarantined / force-lost) or one
/// that faults through its retries is left for the next rung -- each hop
/// counted in `pool.failovers`. User errors propagate immediately without
/// failover.
///
/// Thread model: one PoolExecutor serves one session (its executor cache is
/// not locked); devices are shared across sessions and every dispatch holds
/// the pool's per-device lease, so concurrent sessions interleave at shard
/// granularity.
class PoolExecutor {
 public:
  /// Both pointers must outlive the executor. Every shard must fit the
  /// pool's device framebuffers. `resilience` is the ladder policy every
  /// shard runs under.
  [[nodiscard]] static Result<std::unique_ptr<PoolExecutor>> Make(
      gpu::DevicePool* pool, const db::ShardedTable* sharded,
      const ResilienceOptions& resilience = ResilienceOptions());

  [[nodiscard]] Result<uint64_t> Count(const predicate::ExprPtr& where);
  [[nodiscard]] Result<std::vector<uint8_t>> SelectBitmap(
      const predicate::ExprPtr& where);
  [[nodiscard]] Result<std::vector<uint32_t>> SelectRowIds(
      const predicate::ExprPtr& where);
  [[nodiscard]] Result<double> Aggregate(AggregateKind kind,
                                         std::string_view column,
                                         const predicate::ExprPtr& where =
                                             nullptr);
  [[nodiscard]] Result<uint64_t> RangeCount(std::string_view column,
                                            double low, double high);

  /// True for aggregates the scatter/gather path can recombine bit-exactly
  /// (COUNT/SUM/AVG/MIN/MAX); MEDIAN is an order statistic and stays
  /// single-device.
  static bool ShardableAggregate(AggregateKind kind);

  /// What the ladder did for the last query, over all of its shards.
  const LadderOutcome& last_stats() const { return last_stats_; }
  const db::ShardedTable& sharded() const { return *sharded_; }
  gpu::DevicePool& pool() { return *pool_; }

 private:
  PoolExecutor(gpu::DevicePool* pool, const db::ShardedTable* sharded,
               const ResilienceOptions& resilience)
      : pool_(pool), sharded_(sharded), resilience_(resilience) {}

  /// The cached executor for (shard, device); created on first use. Must be
  /// called with the device's lease held.
  [[nodiscard]] Result<Executor*> ShardExecutorFor(size_t shard_index, int device_id);

  /// One shard device as a ladder placement: the pool's health gate, the
  /// device lease, the `pool.shard` span, and the failover bookkeeping.
  class ShardPlacement;

  /// Runs `op` on one shard's ladder: primary -> replica -> CPU tier.
  template <typename T>
  [[nodiscard]] Result<T> Ladder(size_t shard_index, const LadderOp<T>& op);

  /// Runs `op` on every shard and sums the answers (counts, exact sums).
  template <typename T>
  [[nodiscard]] Result<T> SumShards(const LadderOp<T>& op);

  gpu::DevicePool* pool_;
  const db::ShardedTable* sharded_;
  const ResilienceOptions resilience_;
  LadderOutcome last_stats_;
  std::map<std::pair<size_t, int>, std::unique_ptr<Executor>> executors_;
};

}  // namespace core
}  // namespace gpudb

#endif  // GPUDB_CORE_POOL_EXECUTOR_H_
