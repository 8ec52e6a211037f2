#include "src/core/resilience.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/core/executor.h"

namespace gpudb {
namespace core {

namespace {

/// Resilience outcome counters (cached references; see DeviceMetrics).
struct ResilienceMetrics {
  MetricCounter& retried =
      MetricsRegistry::Global().counter("queries.retried");
  MetricCounter& retry_attempts =
      MetricsRegistry::Global().counter("queries.retry_attempts");
  MetricCounter& fell_back =
      MetricsRegistry::Global().counter("queries.fell_back");
  MetricCounter& deadline_exceeded =
      MetricsRegistry::Global().counter("queries.deadline_exceeded");

  static ResilienceMetrics& Get() {
    static ResilienceMetrics metrics;
    return metrics;
  }
};

/// Sleeps for `ms` when `real` is set; no-op otherwise (deterministic
/// test schedules).
void BackoffSleep(double ms, bool real) {
  if (!real || ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

double RetryPolicy::DelayMs(int retry_index) const {
  double delay = backoff_base_ms;
  for (int i = 0; i < retry_index; ++i) delay *= backoff_multiplier;
  return std::min(delay, backoff_max_ms);
}

bool IsTransientFault(const Status& status) {
  return status.IsDeviceLost();
}

bool IsDeviceFault(const Status& status) {
  return status.IsDeviceLost() || status.IsResourceExhausted() ||
         status.IsInternal();
}

void TraceResilienceEvent(const char* event, const char* op_name,
                          int attempt) {
  if (!Tracer::Global().enabled()) return;
  TraceSpan span(event);
  span.AddTag("op", op_name);
  if (attempt >= 0) span.AddTag("attempt", attempt);
}

Status RunLadder(const ResilienceOptions& options, const char* op_name,
                 const std::vector<Placement*>& placements,
                 const std::function<Status(Executor&)>& gpu,
                 const std::function<Status()>& cpu, LadderOutcome* outcome) {
  ResilienceMetrics& metrics = ResilienceMetrics::Get();
  const bool on = options.enabled;  // off: one raw attempt, no later rung
  const size_t rungs = on ? placements.size() : 1;
  const bool cpu_rung = on && options.allow_cpu_fallback && cpu != nullptr;
  for (size_t i = 0; i < rungs; ++i) {
    // A gate may turn the query away only when a later rung can answer it.
    const bool later = i + 1 < rungs || cpu_rung;
    Status interrupt;
    auto run = [&](Executor& exec) {
      gpu::Device& device = exec.device();
      // Arm the deadline unless an outer scope already did; disarm before
      // returning so an expired deadline never leaks into the next query.
      const bool arm = on && options.deadline_ms > 0.0 &&
                       !device.deadline_armed();
      if (arm) device.ArmDeadline(options.deadline_ms);
      Status result = gpu(exec);
      for (int retry = 0; on && !result.ok() && IsTransientFault(result) &&
                          retry < options.retry.max_attempts - 1;
           ++retry) {
        if (retry == 0) metrics.retried.Increment();
        metrics.retry_attempts.Increment();
        ++outcome->retries;
        TraceResilienceEvent("resilience.retry", op_name, retry + 1);
        BackoffSleep(options.retry.DelayMs(retry), options.retry.sleep);
        device.ResetQueryState();
        result = device.CheckInterrupt();
        if (result.ok()) result = gpu(exec);
      }
      if (IsDeviceFault(result)) {
        device.ResetQueryState();
        // The deadline may have fired while the device was faulting; the
        // later rungs honour it too.
        if (later) interrupt = device.CheckInterrupt();
      }
      if (arm) device.DisarmDeadline();
      return result;
    };
    const Status status = placements[i]->Attempt(op_name, later, run);
    if (status.ok()) return status;
    if (status.IsDeadlineExceeded()) metrics.deadline_exceeded.Increment();
    // Cancellation and user errors (bad column, k out of range, ...) are
    // not the device's fault, and a later rung would fail them the same
    // way: they propagate untouched.
    if (!IsDeviceFault(status) || !later) return status;
    GPUDB_RETURN_NOT_OK(interrupt);
  }
  // Only reachable with the CPU rung on: without it, the last placement has
  // no later rung and returns above.
  metrics.fell_back.Increment();
  MetricsRegistry::Global()
      .counter("queries.fell_back." + std::string(op_name))
      .Increment();
  TraceResilienceEvent("resilience.fallback", op_name);
  outcome->cpu_fallback = true;
  return cpu();
}

}  // namespace core
}  // namespace gpudb
