#include "probe.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/profile.h"
#include "src/core/state_guard.h"
#include "src/gpu/device.h"

namespace sqlbench {

namespace {

using Clock = std::chrono::steady_clock;

double NsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

constexpr int kReps = 9;
constexpr uint64_t kScalarIters = uint64_t{4} << 20;

/// A chain of dependent multiply-adds, so no two iterations overlap.
void ScalarLoop(int salt) {
  uint64_t x = 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(salt);
  for (uint64_t i = 0; i < kScalarIters; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  volatile uint64_t keep = x;
  (void)keep;
}

/// One fixed-function depth-compare pass under an occlusion query (the
/// compare step of the paper's Routine 4.2); returns its wall ns.
gpudb::Result<double> FixedPass(gpudb::gpu::Device& dev) {
  using gpudb::gpu::CompareOp;
  gpudb::core::StateGuard guard(&dev);
  dev.UseProgram(nullptr);
  dev.SetAlphaTest(false, CompareOp::kAlways, 0.0f);
  dev.SetStencilTest(false, CompareOp::kAlways, 0);
  dev.SetDepthBoundsTest(false);
  dev.SetDepthTest(true, CompareOp::kGreaterEqual);
  dev.SetDepthWriteMask(false);
  dev.SetColorWriteMask(false);
  const auto t0 = Clock::now();
  GPUDB_RETURN_NOT_OK(dev.BeginOcclusionQuery());
  GPUDB_RETURN_NOT_OK(dev.RenderQuad(0.5f));
  GPUDB_ASSIGN_OR_RETURN(uint64_t passed, dev.EndOcclusionQuery());
  (void)passed;
  return NsSince(t0);
}

/// One TestBit program pass (Routine 4.6's inner step) over `binding`.
gpudb::Result<double> ProgramPass(gpudb::gpu::Device& dev,
                                  const gpudb::core::AttributeBinding& b) {
  using gpudb::gpu::CompareOp;
  gpudb::core::StateGuard guard(&dev);
  GPUDB_RETURN_NOT_OK(dev.BindTexture(b.texture));
  dev.SetDepthTest(false, CompareOp::kAlways);
  dev.SetDepthBoundsTest(false);
  dev.SetColorWriteMask(false);
  dev.SetAlphaTest(true, CompareOp::kGreaterEqual, 0.5f);
  dev.SetStencilTest(false, CompareOp::kAlways, 0);
  const gpudb::gpu::TestBitProgram program(b.channel, 7);
  dev.UseProgram(&program);
  const auto t0 = Clock::now();
  GPUDB_RETURN_NOT_OK(dev.BeginOcclusionQuery());
  GPUDB_RETURN_NOT_OK(dev.RenderTexturedQuad());
  GPUDB_ASSIGN_OR_RETURN(uint64_t passed, dev.EndOcclusionQuery());
  (void)passed;
  return NsSince(t0);
}

}  // namespace

HostProbe MeasureHost(int threads) {
  HostProbe probe;
  // 2 x 64 MB, larger than the last-level cache of common server parts,
  // so the copy streams memory.
  constexpr size_t kWords = size_t{8} << 20;
  std::vector<double> a(kWords, 1.0);
  std::vector<double> b(kWords, 0.0);
  std::vector<double> copy_ns;
  for (int r = 0; r < kReps; ++r) {
    a[static_cast<size_t>(r)] = r;
    const auto t0 = Clock::now();
    std::memcpy(b.data(), a.data(), kWords * sizeof(double));
    copy_ns.push_back(NsSince(t0));
  }
  volatile double sink = b[kWords / 2] + b[kReps - 1];
  (void)sink;
  probe.copy_gbps = 2.0 * kWords * sizeof(double) / Median(copy_ns);

  std::vector<double> loop_ns;
  std::vector<double> parallel_ns;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = Clock::now();
    ScalarLoop(r);
    loop_ns.push_back(NsSince(t0));
    const auto t1 = Clock::now();
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) workers.emplace_back(ScalarLoop, t);
    for (std::thread& worker : workers) worker.join();
    parallel_ns.push_back(NsSince(t1));
  }
  probe.scalar_ns_per_op = Median(loop_ns) / static_cast<double>(kScalarIters);
  probe.cores_available = threads * Median(loop_ns) / Median(parallel_ns);
  return probe;
}

gpudb::Result<KernelProbe> MeasureKernels(gpudb::core::Executor* exec) {
  KernelProbe probe;
  gpudb::gpu::Device& dev = exec->device();
  const double fragments = static_cast<double>(dev.viewport_pixels());
  GPUDB_ASSIGN_OR_RETURN(gpudb::core::AttributeBinding binding,
                         exec->BindingFor(0));

  std::vector<double> fixed_ns;
  std::vector<double> program_ns;
  for (int r = 0; r < kReps; ++r) {
    GPUDB_ASSIGN_OR_RETURN(double f, FixedPass(dev));
    GPUDB_ASSIGN_OR_RETURN(double p, ProgramPass(dev, binding));
    fixed_ns.push_back(f);
    program_ns.push_back(p);
  }
  probe.ns_per_fragment_fixed = Median(fixed_ns) / fragments;
  probe.ns_per_fragment_program = Median(program_ns) / fragments;

  // The plane-traffic byte model and band timings exist only for passes
  // run with the profiler on; profile a few extra fixed passes for them.
  gpudb::Profiler& profiler = gpudb::Profiler::Global();
  gpudb::MetricGauge& imbalance =
      gpudb::MetricsRegistry::Global().gauge("gpu.band_imbalance");
  profiler.set_enabled(true);
  double plane_bytes = 0.0;
  std::vector<double> imbalances;
  for (int r = 0; r < 3; ++r) {
    gpudb::Result<double> pass = FixedPass(dev);
    if (!pass.ok()) {
      profiler.set_enabled(false);
      return pass.status();
    }
    const gpudb::PassProfile& prof = dev.counters().pass_log.back().prof;
    plane_bytes = static_cast<double>(prof.plane_bytes_read +
                                      prof.plane_bytes_written);
    imbalances.push_back(imbalance.value());
  }
  profiler.set_enabled(false);
  probe.plane_gbps = plane_bytes / Median(fixed_ns);
  probe.band_imbalance = Median(imbalances);
  return probe;
}

gpudb::Result<double> MeasureUpload(gpudb::gpu::Device* device,
                                    const gpudb::db::Table& table) {
  std::vector<double> ms_per_mb;
  for (int r = 0; r < 3; ++r) {
    GPUDB_ASSIGN_OR_RETURN(std::unique_ptr<gpudb::core::Executor> fresh,
                           gpudb::core::Executor::Make(device, &table));
    const uint64_t bytes0 = device->counters().bytes_uploaded;
    const auto t0 = Clock::now();
    for (size_t c = 0; c < table.num_columns(); ++c) {
      GPUDB_RETURN_NOT_OK(fresh->BindingFor(c).status());
    }
    const double ms = NsSince(t0) / 1e6;
    const double mb =
        static_cast<double>(device->counters().bytes_uploaded - bytes0) / 1e6;
    ms_per_mb.push_back(ms / mb);
  }
  return Median(ms_per_mb);
}

}  // namespace sqlbench
