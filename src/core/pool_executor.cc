#include "src/core/pool_executor.h"

#include <string>
#include <utility>

#include "src/common/trace.h"

namespace gpudb {
namespace core {

Result<std::unique_ptr<PoolExecutor>> PoolExecutor::Make(
    gpu::DevicePool* pool, const db::ShardedTable* sharded,
    const ResilienceOptions& resilience) {
  if (pool == nullptr || sharded == nullptr) {
    return Status::InvalidArgument(
        "PoolExecutor requires a device pool and a sharded table");
  }
  if (sharded->num_shards() == 0) {
    return Status::InvalidArgument("sharded table has no shards");
  }
  const uint64_t pixels =
      static_cast<uint64_t>(pool->options().width) * pool->options().height;
  for (size_t i = 0; i < sharded->num_shards(); ++i) {
    const db::Shard& shard = sharded->shard(i);
    if (shard.table.num_rows() > pixels) {
      return Status::ResourceExhausted(
          "shard " + std::to_string(i) + " has " +
          std::to_string(shard.table.num_rows()) +
          " rows but pool devices hold only " + std::to_string(pixels) +
          " pixels; use more shards or larger devices");
    }
    if (shard.placement.primary >= pool->size() ||
        shard.placement.replica >= pool->size()) {
      return Status::InvalidArgument(
          "shard placement references a device outside the pool");
    }
  }
  return std::unique_ptr<PoolExecutor>(
      new PoolExecutor(pool, sharded, resilience));
}

bool PoolExecutor::ShardableAggregate(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kCount:
    case AggregateKind::kSum:
    case AggregateKind::kAvg:
    case AggregateKind::kMin:
    case AggregateKind::kMax:
      return true;
    case AggregateKind::kMedian:
      return false;
  }
  return false;
}

Result<Executor*> PoolExecutor::ShardExecutorFor(size_t shard_index,
                                            int device_id) {
  const auto key = std::make_pair(shard_index, device_id);
  auto it = executors_.find(key);
  const db::Shard& shard = sharded_->shard(shard_index);
  if (it == executors_.end()) {
    GPUDB_ASSIGN_OR_RETURN(
        std::unique_ptr<Executor> exec,
        Executor::Make(&pool_->device(device_id), &shard.table));
    it = executors_.emplace(key, std::move(exec)).first;
    return it->second.get();
  }
  // Devices multiplex shards (and sessions); restore this shard's viewport
  // before running anything.
  GPUDB_RETURN_NOT_OK(
      pool_->device(device_id).SetViewport(shard.table.num_rows()));
  return it->second.get();
}

class PoolExecutor::ShardPlacement final : public Placement {
 public:
  ShardPlacement(PoolExecutor* owner, size_t shard_index, int device_id,
                 const char* role)
      : owner_(owner),
        shard_index_(shard_index),
        device_id_(device_id),
        role_(role) {}

  Status Attempt(const char* op_name, bool consult_gate,
                 const std::function<Status(Executor&)>& run) override {
    gpu::DevicePool& pool = *owner_->pool_;
    TraceSpan span("pool.shard");
    span.AddTag("op", op_name);
    span.AddTag("shard", static_cast<uint64_t>(shard_index_));
    span.AddTag("device", device_id_);
    span.AddTag("role", role_);
    const bool admitted = consult_gate ? pool.AdmitDispatch(device_id_)
                                       : !pool.forced_lost(device_id_);
    if (!admitted) {
      return Refused(&span, Status::DeviceLost(
                                "device " + std::to_string(device_id_) +
                                " refused the shard"));
    }
    // TryAcquire re-checks a forced loss under the lease: the admission
    // verdict may have raced ForceDeviceLost while this shard waited.
    Result<gpu::DevicePool::Lease> lease = pool.TryAcquire(device_id_);
    if (!lease.ok()) return Refused(&span, lease.status());
    GPUDB_ASSIGN_OR_RETURN(Executor * exec,
                           owner_->ShardExecutorFor(shard_index_, device_id_));
    const gpu::DeviceCounters& counters = exec->device().counters();
    const gpu::CounterMark before = gpu::CounterMark::Of(counters);
    const Status status = run(*exec);
    gpu::AddDeltaSince(before, counters, &owner_->last_stats_.work);
    if (status.ok()) {
      pool.RecordSuccess(device_id_);
      span.AddTag("outcome", "ok");
    } else if (IsDeviceFault(status)) {
      pool.RecordFailure(device_id_);
      span.AddTag("outcome", "fault");
      HopOff();
    }
    return status;
  }

 private:
  Status Refused(TraceSpan* span, Status why) {
    span->AddTag("outcome", "refused");
    HopOff();
    return why;
  }

  /// Bookkeeping for a shard leaving this device for a later rung.
  void HopOff() {
    LadderOutcome& stats = owner_->last_stats_;
    owner_->pool_->RecordFailover(device_id_);
    ++stats.failovers;
    if (stats.first_failed_device < 0) stats.first_failed_device = device_id_;
  }

  PoolExecutor* owner_;
  size_t shard_index_;
  int device_id_;
  const char* role_;
};

template <typename T>
Result<T> PoolExecutor::Ladder(size_t shard_index, const LadderOp<T>& op) {
  const db::Shard& shard = sharded_->shard(shard_index);
  // Cancellation stays responsive across the whole scatter: every shard
  // dispatch starts by consulting the primary's interrupt flag.
  GPUDB_RETURN_NOT_OK(
      pool_->device(shard.placement.primary).CheckInterrupt());
  if (last_stats_.first_device < 0) {
    last_stats_.first_device = shard.placement.primary;
  }
  ShardPlacement primary(this, shard_index, shard.placement.primary,
                         "primary");
  ShardPlacement replica(this, shard_index, shard.placement.replica,
                         "replica");
  std::vector<Placement*> placements = {&primary};
  if (shard.placement.replicated()) placements.push_back(&replica);
  return RunLadder(resilience_, placements, op, shard.table, &last_stats_);
}

template <typename T>
Result<T> PoolExecutor::SumShards(const LadderOp<T>& op) {
  last_stats_ = LadderOutcome();
  T total = 0;
  for (size_t i = 0; i < sharded_->num_shards(); ++i) {
    GPUDB_ASSIGN_OR_RETURN(T part, Ladder(i, op));
    total += part;
  }
  return total;
}

Result<uint64_t> PoolExecutor::Count(const predicate::ExprPtr& where) {
  return SumShards(Executor::CountOp(where));
}

Result<std::vector<uint8_t>> PoolExecutor::SelectBitmap(
    const predicate::ExprPtr& where) {
  last_stats_ = LadderOutcome();
  const LadderOp<std::vector<uint8_t>> op = Executor::SelectBitmapOp(where);
  std::vector<uint8_t> bitmap;
  bitmap.reserve(sharded_->num_rows());
  for (size_t i = 0; i < sharded_->num_shards(); ++i) {
    GPUDB_ASSIGN_OR_RETURN(std::vector<uint8_t> part, Ladder(i, op));
    bitmap.insert(bitmap.end(), part.begin(), part.end());
  }
  return bitmap;
}

Result<std::vector<uint32_t>> PoolExecutor::SelectRowIds(
    const predicate::ExprPtr& where) {
  last_stats_ = LadderOutcome();
  const LadderOp<std::vector<uint32_t>> op = Executor::SelectRowIdsOp(where);
  std::vector<uint32_t> rows;
  for (size_t i = 0; i < sharded_->num_shards(); ++i) {
    const uint32_t row_begin = sharded_->shard(i).row_begin;
    GPUDB_ASSIGN_OR_RETURN(std::vector<uint32_t> part, Ladder(i, op));
    // Shards are contiguous ranges in order, so offsetting and appending
    // keeps the global id list sorted -- identical to one-device output.
    for (uint32_t local : part) rows.push_back(row_begin + local);
  }
  return rows;
}

Result<uint64_t> PoolExecutor::RangeCount(std::string_view column, double low,
                                          double high) {
  return SumShards(Executor::RangeCountOp(column, low, high));
}

Result<double> PoolExecutor::Aggregate(AggregateKind kind,
                                       std::string_view column,
                                       const predicate::ExprPtr& where) {
  if (!ShardableAggregate(kind)) {
    return Status::NotImplemented(
        "MEDIAN is an order statistic over the whole selection and cannot be "
        "recombined from per-shard answers; it is a single-device operator "
        "(EXTENDING.md)");
  }
  // Mirror the single-device validation order: resolve the column before
  // touching the WHERE clause (COUNT(*) aside, which takes no column).
  if (kind != AggregateKind::kCount) {
    GPUDB_ASSIGN_OR_RETURN(size_t col,
                           sharded_->shard(0).table.ColumnIndex(column));
    (void)col;
  }
  last_stats_ = LadderOutcome();
  auto shard_count = [&](size_t i) {
    return Ladder(i, Executor::CountOp(where));
  };
  auto shard_aggregate = [&](size_t i, AggregateKind agg) {
    return Ladder(i, Executor::AggregateOp(agg, column, where));
  };
  switch (kind) {
    case AggregateKind::kCount: {
      GPUDB_ASSIGN_OR_RETURN(uint64_t total, Count(where));
      return static_cast<double>(total);
    }
    case AggregateKind::kSum:
      // Per-shard GPU sums are exact integer accumulations (<= 2^24 values
      // of <= 24 bits each fits a double exactly), so the total is too.
      return SumShards(Executor::AggregateOp(kind, column, where));
    case AggregateKind::kMin:
    case AggregateKind::kMax: {
      bool any = false;
      double best = 0.0;
      for (size_t i = 0; i < sharded_->num_shards(); ++i) {
        GPUDB_ASSIGN_OR_RETURN(uint64_t count, shard_count(i));
        if (count == 0) continue;  // empty shards contribute nothing
        GPUDB_ASSIGN_OR_RETURN(double value, shard_aggregate(i, kind));
        if (!any || (kind == AggregateKind::kMin ? value < best
                                                 : value > best)) {
          best = value;
        }
        any = true;
      }
      if (!any) {
        // The status Min/MaxValue produce via KthSmallest/Largest(k=1).
        return Status::OutOfRange("k=1 out of range for 0 records");
      }
      return best;
    }
    case AggregateKind::kAvg: {
      uint64_t total_count = 0;
      double total_sum = 0.0;
      for (size_t i = 0; i < sharded_->num_shards(); ++i) {
        GPUDB_ASSIGN_OR_RETURN(uint64_t count, shard_count(i));
        if (count == 0) continue;
        GPUDB_ASSIGN_OR_RETURN(double sum,
                               shard_aggregate(i, AggregateKind::kSum));
        total_count += count;
        total_sum += sum;
      }
      if (total_count == 0) {
        return Status::InvalidArgument("AVG over empty selection");
      }
      // One division over exact totals: identical to the single-device
      // double(sum) / double(count).
      return total_sum / static_cast<double>(total_count);
    }
    case AggregateKind::kMedian:
      break;  // unreachable: rejected above
  }
  return Status::Internal("unknown aggregate kind");
}

}  // namespace core
}  // namespace gpudb
