#ifndef GPUDB_CORE_OP_SPAN_H_
#define GPUDB_CORE_OP_SPAN_H_

#include <string_view>

#include "src/common/trace.h"
#include "src/gpu/counters.h"
#include "src/gpu/device.h"
#include "src/gpu/perf_model.h"

namespace gpudb {
namespace core {

/// \brief TraceSpan that attributes simulated GPU time to an operator.
///
/// On construction it snapshots the device's hardware counters; on
/// destruction it prices the counter delta with PerfModel and tags the span
/// with the full GpuTimeBreakdown (fill/depth-write/setup/readback split),
/// pass and fragment counts, and bytes moved. EXPLAIN ANALYZE reads these
/// tags back to print the per-operator cost tree.
///
/// Nested GpuOpSpans overlap by design (a parent's delta includes its
/// children's); tree consumers compute self-time as total minus children.
/// When tracing is disabled the constructor costs one atomic load and no
/// counter copy; when enabled it takes a CounterMark, which never copies
/// the pass log.
class GpuOpSpan {
 public:
  GpuOpSpan(std::string_view name, gpu::Device* device)
      : span_(name), device_(device) {
    if (span_.active()) before_ = gpu::CounterMark::Of(device_->counters());
  }

  ~GpuOpSpan() {
    if (!span_.active()) return;
    const gpu::DeviceCounters delta =
        gpu::DeltaSince(before_, device_->counters());
    const gpu::GpuTimeBreakdown b = gpu::PerfModel().Estimate(delta);
    span_.AddTag("passes", delta.passes);
    span_.AddTag("fragments", delta.fragments_generated);
    span_.AddTag("fragments_passed", delta.fragments_passed);
    span_.AddTag("occlusion_readbacks", delta.occlusion_readbacks);
    span_.AddTag("bytes_uploaded", delta.bytes_uploaded);
    span_.AddTag("bytes_read_back", delta.bytes_read_back);
    span_.AddTag("texture_swap_ins", delta.texture_swap_ins);
    span_.AddTag("fill_ms", b.fill_ms);
    span_.AddTag("depth_write_ms", b.depth_write_ms);
    span_.AddTag("setup_ms", b.setup_ms);
    span_.AddTag("occl_readback_ms", b.readback_ms);
    span_.AddTag("upload_ms", b.upload_ms);
    span_.AddTag("swap_ms", b.swap_ms);
    span_.AddTag("buffer_readback_ms", b.buffer_readback_ms);
    span_.AddTag("compute_ms", b.ComputeMs());
    span_.AddTag("total_ms", b.TotalMs());
  }

  GpuOpSpan(const GpuOpSpan&) = delete;
  GpuOpSpan& operator=(const GpuOpSpan&) = delete;

  bool active() const { return span_.active(); }

  /// Extra operator-specific tags (selectivity, k, bit width, ...).
  template <typename T>
  void AddTag(std::string_view key, T value) {
    span_.AddTag(key, value);
  }

 private:
  TraceSpan span_;
  gpu::Device* device_;
  gpu::CounterMark before_;
};

}  // namespace core
}  // namespace gpudb

#endif  // GPUDB_CORE_OP_SPAN_H_
