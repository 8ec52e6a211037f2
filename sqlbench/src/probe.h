// Host and kernel probes for the SQL benchmark's normalisation metrics.
#ifndef SQLBENCH_PROBE_H_
#define SQLBENCH_PROBE_H_

#include "src/common/result.h"
#include "src/core/executor.h"
#include "src/db/table.h"

namespace sqlbench {

/// What the host itself can do, measured in the benchmark's own process:
/// a STREAM-style copy bandwidth and a dependent scalar-loop rate. Later
/// runs divide host wall figures by these to compare across machines.
struct HostProbe {
  double copy_gbps = 0.0;         ///< bytes read + written per second / 1e9
  double scalar_ns_per_op = 0.0;  ///< one dependent multiply-add
  /// The scalar loop run on `threads` threads at once: threads x one-thread
  /// time / parallel time. Near `threads` on an idle host; lower while other
  /// tenants of the host take CPU time.
  double cores_available = 0.0;
};
HostProbe MeasureHost(int threads);

/// Wall cost of single device passes over the executor's full viewport,
/// timed around the gpu module's public pass calls.
struct KernelProbe {
  double ns_per_fragment_fixed = 0.0;    ///< fixed-function depth compare
  double ns_per_fragment_program = 0.0;  ///< TestBit fragment program
  double plane_gbps = 0.0;     ///< modelled plane bytes / fixed-pass wall
  double band_imbalance = 0.0; ///< slowest band / mean band, fixed pass
};
gpudb::Result<KernelProbe> MeasureKernels(gpudb::core::Executor* exec);

/// Wall ms per MB uploaded when a fresh executor on `device` binds every
/// column of `table` (Executor::BindingFor packs each column into a texture
/// and uploads it). Under a video memory budget below the working set,
/// each upload first evicts resident textures. The fresh textures stay on
/// the device.
gpudb::Result<double> MeasureUpload(gpudb::gpu::Device* device,
                                    const gpudb::db::Table& table);

}  // namespace sqlbench

#endif  // SQLBENCH_PROBE_H_
