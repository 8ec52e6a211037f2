#ifndef GPUDB_CORE_RESILIENCE_H_
#define GPUDB_CORE_RESILIENCE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/db/table.h"
#include "src/gpu/counters.h"

namespace gpudb {
namespace core {

class Executor;

/// \brief Bounded-retry policy for transient device faults.
///
/// Retries apply only to the kDeviceLost category (see IsTransientFault):
/// a lost context or injected watchdog kill may succeed on the next
/// attempt, while deterministic failures (bad arguments, a texture that
/// cannot fit VRAM) never will. Backoff is exponential with a cap; tests
/// keep `sleep` off so retry schedules stay deterministic and instant.
struct RetryPolicy {
  int max_attempts = 3;          ///< Total attempts, including the first.
  double backoff_base_ms = 1.0;  ///< Delay before the first retry.
  double backoff_multiplier = 2.0;
  double backoff_max_ms = 64.0;
  bool sleep = false;  ///< Actually sleep between attempts.

  /// Backoff before retry `retry_index` (0-based): base * multiplier^i,
  /// clamped to backoff_max_ms.
  double DelayMs(int retry_index) const;
};

/// True for faults worth retrying in place: the transient kDeviceLost
/// category (driver context loss, injected watchdog/readback faults).
bool IsTransientFault(const Status& status);

/// True for faults that indict the device path as a whole and count
/// toward the circuit breaker: kDeviceLost, kResourceExhausted (VRAM),
/// and kInternal (simulator invariant violations). Deadline and
/// cancellation are the *user's* budget running out, not a device fault,
/// and user errors (InvalidArgument & co.) are neither.
bool IsDeviceFault(const Status& status);

/// \brief Per-executor resilience configuration (DESIGN.md section 11).
struct ResilienceOptions {
  bool enabled = true;
  RetryPolicy retry;
  /// Degrade device faults to the cpu/ baseline where an equivalent
  /// implementation exists (count/select/aggregate/kth/range).
  bool allow_cpu_fallback = true;
  /// Per-query wall-clock deadline armed on the device around each
  /// top-level operator; 0 disables.
  double deadline_ms = 0.0;
};

/// \brief What the ladder did for one query, over all its operators and
/// shards: the query log's resilience and failure-domain columns.
struct LadderOutcome {
  uint64_t retries = 0;          ///< In-place retry attempts.
  bool cpu_fallback = false;     ///< Some answer came from the CPU rung.
  uint64_t failovers = 0;        ///< Shard hops off a pool device.
  int first_device = -1;         ///< Primary device of the first shard run.
  int first_failed_device = -1;  ///< First device a shard hopped off, or -1.
  /// Device work of every pool shard attempt, summed over the pool devices
  /// (each attempt's counter delta, taken under its lease).
  gpu::DeviceCounters work;
};

/// \brief One operator as the ladder runs it: its name (metric suffix and
/// trace tag), its GPU body on an executor, and its CPU-tier body over the
/// executor's table (null for retry-only operators).
template <typename T>
struct LadderOp {
  const char* name = nullptr;
  std::function<Result<T>(Executor&)> gpu;
  std::function<Result<T>(const db::Table&)> cpu;
};

/// \brief A device the ladder may try: a standalone executor's own device,
/// or a pool shard's primary or replica.
class Placement {
 public:
  virtual ~Placement() = default;

  /// One attempt at `op_name`: asks the health gate when `consult_gate` (a
  /// later rung could answer instead; a force-lost pool device refuses
  /// regardless), takes the device, calls `run` on its executor, and
  /// records the outcome on the gate. A refusal is a kDeviceLost status.
  [[nodiscard]] virtual Status Attempt(
      const char* op_name, bool consult_gate,
      const std::function<Status(Executor&)>& run) = 0;
};

/// \brief The degradation ladder (DESIGN.md §11): walks `placements` in
/// order, then the CPU rung.
///
/// Each attempt arms the deadline and runs `gpu` with bounded in-place
/// retries of transient faults (ResetQueryState + CheckInterrupt between
/// them). Success returns; deadline, cancellation and user errors return
/// untouched; a device fault moves on to the next rung. `cpu` (null for a
/// retry-only operator) answers when the placements are exhausted and
/// options.allow_cpu_fallback is set. Retries and the CPU rung are added
/// to `outcome`.
[[nodiscard]] Status RunLadder(const ResilienceOptions& options,
                               const char* op_name,
                               const std::vector<Placement*>& placements,
                               const std::function<Status(Executor&)>& gpu,
                               const std::function<Status()>& cpu,
                               LadderOutcome* outcome);

/// RunLadder for one operator; its CPU body runs over `table`.
template <typename T>
[[nodiscard]] Result<T> RunLadder(const ResilienceOptions& options,
                                  const std::vector<Placement*>& placements,
                                  const LadderOp<T>& op,
                                  const db::Table& table,
                                  LadderOutcome* outcome) {
  T value{};
  std::function<Status()> cpu;
  if (op.cpu != nullptr) {
    cpu = [&]() -> Status {
      GPUDB_ASSIGN_OR_RETURN(value, op.cpu(table));
      return Status::OK();
    };
  }
  GPUDB_RETURN_NOT_OK(RunLadder(
      options, op.name, placements,
      [&](Executor& exec) -> Status {
        GPUDB_ASSIGN_OR_RETURN(value, op.gpu(exec));
        return Status::OK();
      },
      cpu, outcome));
  return value;
}

/// Stamps a resilience event into the active trace (zero-duration span
/// nested under the operator that hit it), so EXPLAIN ANALYZE and the
/// Chrome trace show *where* a query degraded, not just that it did.
void TraceResilienceEvent(const char* event, const char* op_name,
                          int attempt = -1);

}  // namespace core
}  // namespace gpudb

#endif  // GPUDB_CORE_RESILIENCE_H_
