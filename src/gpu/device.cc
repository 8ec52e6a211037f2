#include "src/gpu/device.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "src/common/metrics.h"
#include "src/common/profile.h"
#include "src/common/trace.h"

namespace gpudb {
namespace gpu {

// Force the per-fragment stages into the span/raster loops: at -O2 the
// compiler judges them too large to inline on its own, which leaves an
// opaque call (and per-call RenderState reloads) on a path executed a
// million times per pass.
#if defined(__GNUC__)
#define GPUDB_ALWAYS_INLINE __attribute__((always_inline)) inline
#else
#define GPUDB_ALWAYS_INLINE inline
#endif

namespace {

/// Device-level hardware metrics (process-wide, across all Device
/// instances). References are cached so the hot paths pay one map lookup
/// per process, not per pass.
struct DeviceMetrics {
  MetricCounter& passes = MetricsRegistry::Global().counter("gpu.passes");
  MetricCounter& fragments =
      MetricsRegistry::Global().counter("gpu.fragments_generated");
  MetricCounter& bytes_uploaded =
      MetricsRegistry::Global().counter("gpu.bytes_uploaded");
  MetricCounter& bytes_read_back =
      MetricsRegistry::Global().counter("gpu.bytes_read_back");
  MetricCounter& occlusion_readbacks =
      MetricsRegistry::Global().counter("gpu.occlusion_readbacks");
  MetricCounter& texture_swap_ins =
      MetricsRegistry::Global().counter("gpu.texture_swap_ins");
  MetricCounter& bytes_swapped =
      MetricsRegistry::Global().counter("gpu.bytes_swapped");
  // Deep-profile counters; only advance while the Profiler is enabled.
  MetricCounter& alpha_killed =
      MetricsRegistry::Global().counter("gpu.alpha_killed");
  MetricCounter& stencil_killed =
      MetricsRegistry::Global().counter("gpu.stencil_killed");
  MetricCounter& depth_killed =
      MetricsRegistry::Global().counter("gpu.depth_killed");
  MetricCounter& plane_bytes_read =
      MetricsRegistry::Global().counter("gpu.plane_bytes_read");
  MetricCounter& plane_bytes_written =
      MetricsRegistry::Global().counter("gpu.plane_bytes_written");
  // Depth-plane cache (DESIGN.md §14).
  MetricCounter& plancache_hits =
      MetricsRegistry::Global().counter("plancache.hits");
  MetricCounter& plancache_misses =
      MetricsRegistry::Global().counter("plancache.misses");
  MetricCounter& plancache_evictions =
      MetricsRegistry::Global().counter("plancache.evictions");

  static DeviceMetrics& Get() {
    static DeviceMetrics* m = new DeviceMetrics();
    return *m;
  }
};

}  // namespace

Device::Device(uint32_t width, uint32_t height, int depth_bits)
    : fb_(width, height, depth_bits),
      viewport_pixels_(uint64_t{width} * height),
      worker_threads_(ThreadPool::DefaultThreads()) {}

Status Device::SetWorkerThreads(int n) {
  if (n < 1) {
    return Status::InvalidArgument("worker thread count must be >= 1, got " +
                                   std::to_string(n));
  }
  if (n != worker_threads_) {
    worker_threads_ = n;
    pool_.reset();  // re-created lazily at the right size
  }
  return Status::OK();
}

ThreadPool* Device::EnsurePool() {
  if (pool_ == nullptr || pool_->size() != worker_threads_) {
    pool_ = std::make_unique<ThreadPool>(worker_threads_);
  }
  return pool_.get();
}

Result<TextureId> Device::UploadTexture(Texture texture) {
  const uint64_t bytes = texture.byte_size();
  GPUDB_RETURN_NOT_OK(injector_.OnAllocation(bytes));
  textures_.emplace_back(std::move(texture));
  const auto id = static_cast<TextureId>(textures_.size() - 1);
  // The initial upload makes the texture resident (evicting others if the
  // working set exceeds the card). A texture that cannot fit at all fails
  // before any bus transfer is charged. EnsureResident knows this first
  // residency is not a swap-in, so the transfer is charged here as the AGP
  // upload it is.
  GPUDB_RETURN_NOT_OK(EnsureResident(id));
  counters_.bytes_uploaded += bytes;
  DeviceMetrics::Get().bytes_uploaded.Add(bytes);
  TraceSpan span("gpu.upload_texture");
  span.AddTag("bytes", bytes);
  span.AddTag("texture", static_cast<double>(id));
  return id;
}

Status Device::SetVideoMemoryBudget(uint64_t bytes) {
  if (bytes == 0) {
    return Status::InvalidArgument("video memory budget must be positive");
  }
  video_memory_budget_ = bytes;
  // Evict immediately if the resident set no longer fits. Cached depth
  // planes share the budget at strictly lower priority than textures, so
  // they go first.
  while (resident_bytes_ + plane_cache_.bytes() > video_memory_budget_ &&
         plane_cache_.EvictLru()) {
    DeviceMetrics::Get().plancache_evictions.Increment();
  }
  for (TextureSlot& slot : textures_) {
    if (resident_bytes_ <= video_memory_budget_) break;
    if (slot.resident) {
      slot.resident = false;
      resident_bytes_ -= slot.data.byte_size();
    }
  }
  if (resident_bytes_ > video_memory_budget_) {
    return Status::Internal("resident accounting out of sync");
  }
  return Status::OK();
}

Status Device::EnsureResident(TextureId id) {
  TextureSlot& slot = textures_[id];
  slot.last_use = ++lru_clock_;
  if (slot.resident) return Status::OK();
  const uint64_t bytes = slot.data.byte_size();
  if (bytes > video_memory_budget_) {
    return Status::ResourceExhausted(
        "texture of " + std::to_string(bytes) +
        " bytes exceeds the video memory budget of " +
        std::to_string(video_memory_budget_));
  }
  // Cached depth planes yield before any texture is considered: a texture
  // the query needs now outranks an optimization for a future query.
  while (resident_bytes_ + plane_cache_.bytes() + bytes >
             video_memory_budget_ &&
         plane_cache_.EvictLru()) {
    DeviceMetrics::Get().plancache_evictions.Increment();
  }
  // Evict least-recently-used resident textures (never the bound units)
  // until the texture fits.
  while (resident_bytes_ + bytes > video_memory_budget_) {
    TextureId victim = -1;
    uint64_t oldest = ~uint64_t{0};
    for (size_t i = 0; i < textures_.size(); ++i) {
      if (!textures_[i].resident) continue;
      bool bound = static_cast<TextureId>(i) == id;
      for (TextureId unit : bound_units_) {
        bound = bound || unit == static_cast<TextureId>(i);
      }
      if (bound) continue;
      if (textures_[i].last_use < oldest) {
        oldest = textures_[i].last_use;
        victim = static_cast<TextureId>(i);
      }
    }
    if (victim < 0) {
      return Status::ResourceExhausted(
          "cannot evict enough textures (all bound) to fit " +
          std::to_string(bytes) + " bytes");
    }
    textures_[victim].resident = false;
    resident_bytes_ -= textures_[victim].data.byte_size();
  }
  slot.resident = true;
  resident_bytes_ += bytes;
  // Only a re-residency is a swap-in: the first time a texture becomes
  // resident is its creation/upload, which is charged by the caller.
  if (slot.ever_resident) {
    ++counters_.texture_swap_ins;
    counters_.bytes_swapped += bytes;
    DeviceMetrics::Get().texture_swap_ins.Increment();
    DeviceMetrics::Get().bytes_swapped.Add(bytes);
    TraceSpan span("gpu.texture_swap_in");
    span.AddTag("bytes", bytes);
    span.AddTag("texture", static_cast<double>(id));
  }
  slot.ever_resident = true;
  return Status::OK();
}

Result<TextureId> Device::CreateTexture(uint32_t width, uint32_t height,
                                        int channels) {
  GPUDB_ASSIGN_OR_RETURN(Texture tex, Texture::Make(width, height, channels));
  GPUDB_RETURN_NOT_OK(injector_.OnAllocation(tex.byte_size()));
  textures_.emplace_back(std::move(tex));
  const auto id = static_cast<TextureId>(textures_.size() - 1);
  // Allocation is on-card (no bus transfer), but it occupies the budget;
  // EnsureResident charges nothing for a first residency.
  GPUDB_RETURN_NOT_OK(EnsureResident(id));
  return id;
}

Status Device::CopyColorToTexture(TextureId dst) {
  GPUDB_RETURN_NOT_OK(CheckInterrupt());
  GPUDB_RETURN_NOT_OK(injector_.OnPass());
  if (dst < 0 || static_cast<size_t>(dst) >= textures_.size()) {
    return Status::InvalidArgument("CopyColorToTexture: invalid texture id " +
                                   std::to_string(dst));
  }
  GPUDB_RETURN_NOT_OK(EnsureResident(dst));
  Texture& tex = textures_[dst].data;
  if (tex.total_texels() < viewport_pixels_) {
    return Status::InvalidArgument(
        "CopyColorToTexture: destination texture smaller than viewport");
  }
  for (uint64_t i = 0; i < viewport_pixels_; ++i) {
    const float* rgba = fb_.color(i);
    for (int c = 0; c < tex.channels(); ++c) {
      tex.Set(i, c, rgba[c]);
    }
  }
  // Charged as an on-card one-cycle-per-texel pass (glCopyTexSubImage2D).
  PassRecord pass;
  pass.label = "copy-color-to-texture";
  pass.fragments = viewport_pixels_;
  pass.fp_instructions = 1;
  pass.fragments_passed = viewport_pixels_;
  pass.profiled = Profiler::Global().enabled();
  if (pass.profiled) {
    // The copy bypasses the fragment tests; its plane traffic is one full
    // read of the color plane (the test-chain model in
    // ApplyPlaneTrafficModel does not apply).
    pass.prof.plane_bytes_read = viewport_pixels_ * 16;
  }
  return FinishPass(std::move(pass));
}

Result<bool> Device::RestoreCachedDepthPlane(const PlaneKey& key) {
  const std::vector<uint32_t>* plane = plane_cache_.Lookup(key);
  if (plane == nullptr) {
    ++counters_.plane_cache_misses;
    DeviceMetrics::Get().plancache_misses.Increment();
    return false;
  }
  GPUDB_RETURN_NOT_OK(CheckInterrupt());
  GPUDB_RETURN_NOT_OK(injector_.OnPass());
  const uint64_t n = plane->size();
  if (n > fb_.pixel_count()) {
    return Status::Internal(
        "cached depth plane larger than the framebuffer it came from");
  }
  std::copy(plane->begin(), plane->end(), fb_.depth_data());
  ++counters_.plane_cache_hits;
  DeviceMetrics::Get().plancache_hits.Increment();
  // The on-card blit that stands in for CopyToDepth: one cycle per texel,
  // every texel "passes" and lands in the depth plane. No fragment tests
  // run, so the plane-traffic model does not apply; the traffic is exactly
  // one full write of the restored depth range.
  PassRecord pass;
  pass.label = "plane-restore";
  pass.fragments = n;
  pass.fp_instructions = 1;
  pass.fragments_passed = n;
  pass.depth_writes = n;
  pass.cache_hit = true;
  pass.profiled = Profiler::Global().enabled();
  if (pass.profiled) pass.prof.plane_bytes_written = n * 4;
  GPUDB_RETURN_NOT_OK(FinishPass(std::move(pass)));
  return true;
}

Status Device::CacheDepthPlane(const PlaneKey& key) {
  GPUDB_RETURN_NOT_OK(CheckInterrupt());
  const uint64_t n = key.viewport_pixels;
  if (n == 0 || n > fb_.pixel_count()) {
    return Status::InvalidArgument(
        "CacheDepthPlane: key covers " + std::to_string(n) +
        " pixels, framebuffer has " + std::to_string(fb_.pixel_count()));
  }
  const uint64_t bytes = n * sizeof(uint32_t);
  // Planes never displace textures: if the plane cannot fit beside the
  // resident set even with the whole cache empty, skip caching silently --
  // the query already has its answer, the copy just stays un-amortized.
  if (resident_bytes_ + bytes > video_memory_budget_) return Status::OK();
  while (resident_bytes_ + plane_cache_.bytes() + bytes >
         video_memory_budget_) {
    if (!plane_cache_.EvictLru()) return Status::OK();
    DeviceMetrics::Get().plancache_evictions.Increment();
  }
  GPUDB_RETURN_NOT_OK(injector_.OnPass());
  std::vector<uint32_t> plane(fb_.depth_data(), fb_.depth_data() + n);
  // The snapshot is an on-card depth-plane read (glCopyTexSubImage2D of the
  // depth attachment, in 2004 terms): one cycle per texel, one full read.
  PassRecord pass;
  pass.label = "plane-snapshot";
  pass.fragments = n;
  pass.fp_instructions = 1;
  pass.fragments_passed = n;
  pass.profiled = Profiler::Global().enabled();
  if (pass.profiled) pass.prof.plane_bytes_read = n * 4;
  GPUDB_RETURN_NOT_OK(FinishPass(std::move(pass)));
  plane_cache_.Insert(key, std::move(plane));
  return Status::OK();
}

void Device::InvalidateCachedPlanes(std::string_view table) {
  plane_cache_.InvalidateTable(table);
}

Result<std::vector<float>> Device::ReadTexture(TextureId id, int channel) {
  if (id < 0 || static_cast<size_t>(id) >= textures_.size()) {
    return Status::InvalidArgument("ReadTexture: invalid texture id " +
                                   std::to_string(id));
  }
  const Texture& tex = textures_[id].data;
  if (channel < 0 || channel >= tex.channels()) {
    return Status::InvalidArgument("ReadTexture: invalid channel " +
                                   std::to_string(channel));
  }
  GPUDB_RETURN_NOT_OK(CheckInterrupt());
  GPUDB_RETURN_NOT_OK(injector_.OnReadback("texture"));
  counters_.bytes_read_back += tex.total_texels() * 4;
  DeviceMetrics::Get().bytes_read_back.Add(tex.total_texels() * 4);
  std::vector<float> out(tex.total_texels());
  for (uint64_t i = 0; i < tex.total_texels(); ++i) {
    out[i] = tex.At(i, channel);
  }
  return out;
}

Status Device::UpdateTexture(TextureId id, uint64_t offset,
                             const std::vector<float>& values, int channel) {
  if (id < 0 || static_cast<size_t>(id) >= textures_.size()) {
    return Status::InvalidArgument("UpdateTexture: invalid texture id " +
                                   std::to_string(id));
  }
  GPUDB_RETURN_NOT_OK(EnsureResident(id));
  Texture& tex = textures_[id].data;
  if (channel < 0 || channel >= tex.channels()) {
    return Status::InvalidArgument("UpdateTexture: invalid channel " +
                                   std::to_string(channel));
  }
  if (offset + values.size() > tex.total_texels()) {
    return Status::OutOfRange("UpdateTexture: write of " +
                              std::to_string(values.size()) +
                              " texels at offset " + std::to_string(offset) +
                              " exceeds texture");
  }
  for (size_t i = 0; i < values.size(); ++i) {
    tex.Set(offset + i, channel, values[i]);
  }
  counters_.bytes_uploaded += values.size() * 4;
  DeviceMetrics::Get().bytes_uploaded.Add(values.size() * 4);
  return Status::OK();
}

Status Device::BindTexture(TextureId id) { return BindTextureUnit(0, id); }

Status Device::BindTextureUnit(int unit, TextureId id) {
  if (unit < 0 || unit >= kTextureUnits) {
    return Status::InvalidArgument("texture unit must be in [0,3], got " +
                                   std::to_string(unit));
  }
  if (id < 0 || static_cast<size_t>(id) >= textures_.size()) {
    return Status::InvalidArgument("BindTexture: invalid texture id " +
                                   std::to_string(id));
  }
  bound_units_[unit] = id;
  return Status::OK();
}

Status Device::UnbindTextureUnit(int unit) {
  if (unit < 0 || unit >= kTextureUnits) {
    return Status::InvalidArgument("texture unit must be in [0,3], got " +
                                   std::to_string(unit));
  }
  bound_units_[unit] = -1;
  return Status::OK();
}

void Device::SetAlphaTest(bool enabled, CompareOp func, float ref) {
  state_.alpha_test_enabled = enabled;
  state_.alpha_func = func;
  state_.alpha_ref = ref;
}

void Device::SetStencilTest(bool enabled, CompareOp func, uint8_t ref,
                            uint8_t value_mask) {
  state_.stencil_test_enabled = enabled;
  state_.stencil_func = func;
  state_.stencil_ref = ref;
  state_.stencil_value_mask = value_mask;
}

void Device::SetStencilOp(StencilOp fail, StencilOp zfail, StencilOp zpass) {
  state_.stencil_fail_op = fail;
  state_.stencil_zfail_op = zfail;
  state_.stencil_zpass_op = zpass;
}

void Device::SetDepthTest(bool enabled, CompareOp func) {
  state_.depth_test_enabled = enabled;
  state_.depth_func = func;
}

void Device::SetDepthWriteMask(bool enabled) {
  state_.depth_write_mask = enabled;
}

void Device::SetColorWriteMask(bool enabled) {
  state_.color_write_mask = enabled;
}

void Device::SetDepthBoundsTest(bool enabled, float zmin, float zmax) {
  state_.depth_bounds_test_enabled = enabled;
  state_.depth_bounds_min = fb_.Quantize(zmin);
  state_.depth_bounds_max = fb_.Quantize(zmax);
}

Status Device::SetViewport(uint64_t pixels) {
  if (pixels == 0 || pixels > fb_.pixel_count()) {
    return Status::OutOfRange("viewport of " + std::to_string(pixels) +
                              " pixels exceeds framebuffer of " +
                              std::to_string(fb_.pixel_count()));
  }
  viewport_pixels_ = pixels;
  return Status::OK();
}

void Device::ClearColor(float r, float g, float b, float a) {
  fb_.ClearColor(r, g, b, a);
}

void Device::ClearDepth(float d) { fb_.ClearDepth(d); }

void Device::ClearStencil(uint8_t s) { fb_.ClearStencil(s); }

Status Device::RenderQuad(float depth) {
  return RenderInternal(depth, /*textured=*/false);
}

Status Device::RenderTexturedQuad() {
  if (bound_units_[0] < 0) {
    return Status::FailedPrecondition(
        "RenderTexturedQuad requires a bound texture");
  }
  return RenderInternal(/*quad_depth=*/0.0f, /*textured=*/true);
}

ScreenVertex Device::ApplyVertexStage(const Vertex& v) const {
  ScreenVertex out;
  if (window_space_vertices_) {
    // Default host setup: positions already in window coordinates with
    // z = window depth (the orthographic screen-aligned configuration every
    // algorithm in the paper renders under).
    out.x = v.position.x;
    out.y = v.position.y;
    out.depth = v.position.z;
  } else {
    const Vec4 clip = transform_.Transform(v.position);
    const float w = clip.w != 0.0f ? clip.w : 1.0f;
    // Viewport transform over the full framebuffer, depth range [0,1].
    out.x = (clip.x / w + 1.0f) * 0.5f * static_cast<float>(fb_.width());
    out.y = (clip.y / w + 1.0f) * 0.5f * static_cast<float>(fb_.height());
    out.depth = (clip.z / w + 1.0f) * 0.5f;
  }
  out.u = v.u;
  out.v = v.v;
  return out;
}

void Device::SetTransform(const Mat4& mvp) {
  transform_ = mvp;
  window_space_vertices_ = false;
}

void Device::ResetTransform() {
  transform_ = Mat4::Identity();
  window_space_vertices_ = true;
}

namespace {

// --- The staged row kernel (DESIGN.md §14) ---------------------------------
//
// Every quad pass whose per-fragment work is known to the device runs one
// kernel, StagedRowKernel<Stage>. The fragment stage yields, per fragment,
// whether it survives the program (KILL) and alpha stages and its quantized
// depth; everything after that -- stencil, depth bounds, depth test, the
// plane writes, occlusion, and the gpuprof kill tallies -- is one shared
// tail. The tail has two forms with one outcome: SimdLanes, 16 fragments
// per SSE2 step without data-dependent branches, and ScalarLane, for row
// remainders, for passes that write color, and for the generic path
// (GenericFragment) that programs without a stage take.

/// What a fragment stage yields: for one fragment (F = float) whether it
/// survives the program's KILL and the alpha test, and its quantized depth;
/// for four fragments (F = FloatLanes) the same as 0 / -1 and code lanes.
template <typename F>
struct StageOut;
template <>
struct StageOut<float> {
  bool alive;
  uint32_t depth;
};
template <>
struct StageOut<FloatLanes> {
  IntLanes alive;
  IntLanes depth;
};

/// A per-pass flag or depth code as F's alive / depth form.
template <typename F>
auto AllLanes(bool b) {
  if constexpr (std::is_same_v<F, float>) {
    return b;
  } else {
    return IntLanes{} - int32_t{b};
  }
}
template <typename F>
auto Code(uint32_t q) {
  if constexpr (std::is_same_v<F, float>) {
    return q;
  } else {
    return IntLanes{} + static_cast<int32_t>(q);
  }
}
inline bool And(bool a, bool b) { return a && b; }
inline IntLanes And(IntLanes a, IntLanes b) { return a & b; }

/// Fixed-function quads: every fragment has the quad's depth and the
/// constant alpha 1.0, so both outcomes are resolved once per pass.
struct FlatStage {
  static constexpr bool kFlat = true;
  bool alive;
  uint32_t depth;

  template <typename F>
  StageOut<F> At(uint64_t) const {
    return {AllLanes<F>(alive), Code<F>(depth)};
  }
  std::array<float, 4> Color(uint64_t) const { return {0, 0, 0, 1}; }
};

/// Depth copy and fused compare: texel -> normalize -> quantize. The color
/// stays at its default, so the alpha outcome is per pass.
struct DepthCopyRowStage {
  static constexpr bool kFlat = false;
  DepthCopyStage program;
  uint32_t depth_max;
  bool alpha_ok;

  template <typename F>
  StageOut<F> At(uint64_t i) const {
    return {AllLanes<F>(alpha_ok),
            QuantizeDepth(program.Depth<F>(i), depth_max)};
  }
  std::array<float, 4> Color(uint64_t) const { return {0, 0, 0, 1}; }
};

/// Semilinear: dot product plus KILL at the quad's depth.
struct SemilinearRowStage {
  static constexpr bool kFlat = false;
  SemilinearStage program;
  uint32_t depth;
  bool alpha_ok;

  template <typename F>
  StageOut<F> At(uint64_t i) const {
    return {And(AllLanes<F>(alpha_ok), program.Keep(program.Dot<F>(i))),
            Code<F>(depth)};
  }
  std::array<float, 4> Color(uint64_t i) const {
    return {program.Dot<float>(i), 0, 0, 1};
  }
};

/// TestBit: frac -> alpha test at the quad's depth.
struct TestBitRowStage {
  static constexpr bool kFlat = false;
  TestBitStage program;
  CompareTable alpha_test;
  float alpha_ref;
  uint32_t depth;

  template <typename F>
  StageOut<F> At(uint64_t i) const {
    return {alpha_test(program.Alpha<F>(i), Splat<F>(alpha_ref)),
            Code<F>(depth)};
  }
  std::array<float, 4> Color(uint64_t i) const {
    return {0, 0, 0, program.Alpha<float>(i)};
  }
};

/// The pass's RenderState reduced to what the tail reads. A disabled depth
/// test compares with ALWAYS, so only depth writes look at the enable bit.
struct TailState {
  bool stencil_test;
  bool depth_reads;  ///< the depth test or the bounds test reads the plane
  bool bounds_test;
  bool depth_write;
  bool color_write;
  uint8_t stencil_ref;
  uint8_t ref_masked;
  uint8_t value_mask;
  uint8_t write_mask;
  StencilOp fail_op;
  StencilOp zfail_op;
  StencilOp zpass_op;
  CompareTable stencil_cmp;
  CompareTable depth_cmp;
  uint32_t bounds_min;
  uint32_t bounds_max;

  explicit TailState(const RenderState& rs)
      : stencil_test(rs.stencil_test_enabled),
        depth_reads(rs.depth_test_enabled || rs.depth_bounds_test_enabled),
        bounds_test(rs.depth_bounds_test_enabled),
        depth_write(rs.depth_test_enabled && rs.depth_write_mask),
        color_write(rs.color_write_mask),
        stencil_ref(rs.stencil_ref),
        ref_masked(static_cast<uint8_t>(rs.stencil_ref &
                                        rs.stencil_value_mask)),
        value_mask(rs.stencil_value_mask),
        write_mask(rs.stencil_write_mask),
        fail_op(rs.stencil_fail_op),
        zfail_op(rs.stencil_zfail_op),
        zpass_op(rs.stencil_zpass_op),
        stencil_cmp(rs.stencil_func),
        depth_cmp(rs.depth_test_enabled ? rs.depth_func : CompareOp::kAlways),
        bounds_min(rs.depth_bounds_min),
        bounds_max(rs.depth_bounds_max) {}
};

/// Per-band counts of one kernel call, reduced into the band's tile. Every
/// passing fragment writes depth when the pass writes depth at all, so
/// depth_writes is `passed` or zero.
struct RowTally {
  uint64_t fragments = 0;
  uint64_t alive = 0;           ///< fragments - alive = alpha_killed
  uint64_t stencil_killed = 0;
  uint64_t passed = 0;
  uint64_t stencil_updates = 0;
};

/// Folds a kernel call's tally into its pass record and occlusion count.
void AddTally(const RowTally& t, const TailState& ts, bool profiled,
              PassRecord* pass, uint64_t* occlusion) {
  pass->fragments += t.fragments;
  pass->fragments_passed += t.passed;
  if (ts.depth_write) pass->depth_writes += t.passed;
  pass->stencil_updates += t.stencil_updates;
  if (profiled) {
    pass->prof.alpha_killed += t.fragments - t.alive;
    pass->prof.stencil_killed += t.stencil_killed;
  }
  if (occlusion != nullptr) *occlusion += t.passed;
}

/// One fragment through the tail: stencil test, depth bounds, depth test,
/// and the plane writes, as OpenGL orders them.
template <typename Stage>
GPUDB_ALWAYS_INLINE void ScalarLane(const Stage& stage, const TailState& ts,
                                    StageOut<float> f, uint64_t i,
                                    uint32_t* depth, uint8_t* stencil,
                                    float* color, RowTally* t) {
  if (!f.alive) return;
  ++t->alive;
  const uint8_t stored = stencil[i];
  const auto update_stencil = [&](StencilOp op) {
    const uint8_t res = ApplyStencilOp(op, stored, ts.stencil_ref);
    const auto merged = static_cast<uint8_t>((stored & ~ts.write_mask) |
                                             (res & ts.write_mask));
    if (merged != stored) {
      stencil[i] = merged;
      ++t->stencil_updates;
    }
  };
  if (ts.stencil_test &&
      !ts.stencil_cmp(ts.ref_masked,
                      static_cast<uint8_t>(stored & ts.value_mask))) {
    update_stencil(ts.fail_op);  // Op1
    ++t->stencil_killed;
    return;
  }
  const uint32_t d = depth[i];
  const bool depth_pass =
      (!ts.bounds_test || (d >= ts.bounds_min && d <= ts.bounds_max)) &&
      ts.depth_cmp(f.depth, d);
  if (!depth_pass) {
    if (ts.stencil_test) update_stencil(ts.zfail_op);  // Op2
    return;
  }
  if (ts.stencil_test) update_stencil(ts.zpass_op);  // Op3
  ++t->passed;
  if (ts.depth_write) depth[i] = f.depth;
  if (ts.color_write) {
    const std::array<float, 4> rgba = stage.Color(i);
    for (int c = 0; c < 4; ++c) color[i * 4 + c] = rgba[c];
  }
}

/// A program's per-fragment color, for ScalarLane's color write.
struct ProgramColor {
  std::array<float, 4> color;
  std::array<float, 4> Color(uint64_t) const { return color; }
};

/// The generic path's per-pass context: programs without a fragment stage
/// run their virtual Execute per fragment, then the shared tail.
struct GenericPass {
  std::array<const Texture*, 4> units;
  const FragmentProgram* program;  ///< null for untextured triangles
  TailState tail;
  CompareTable alpha_test;
  float alpha_ref;
};

/// One rasterized fragment through Execute, the alpha test, and the tail.
/// Safe to call from band workers as long as no two concurrent calls share
/// a pixel or a tally (RenderInternal's row bands guarantee both).
GPUDB_ALWAYS_INLINE void GenericFragment(const GenericPass& gp,
                                         const RasterFragment& frag,
                                         FrameBuffer* fb, RowTally* t) {
  const uint64_t i = uint64_t{frag.y} * fb->width() + frag.x;
  ++t->fragments;
  FragmentOutput out;
  out.depth = frag.depth;
  if (gp.program != nullptr) {
    FragmentInput in;
    in.texel_index = i;
    in.frag_depth = frag.depth;
    in.tex0 = gp.units[0];
    in.tex1 = gp.units[1];
    in.tex2 = gp.units[2];
    in.tex3 = gp.units[3];
    gp.program->Execute(in, &out);
    if (out.discarded) return;  // KILL: skips all later stages.
  }
  // Alpha failures do not reach the stencil stage.
  if (!gp.alpha_test(out.color[3], gp.alpha_ref)) return;
  const uint32_t depth_q =
      fb->Quantize(out.depth_written ? out.depth : frag.depth);
  ScalarLane(ProgramColor{out.color}, gp.tail, StageOut<float>{true, depth_q},
             i, fb->depth_data(), fb->stencil_data(), fb->color_data(), t);
}

#if defined(__SSE2__)
/// A stencil op on 16 lanes without a branch on the op:
/// ((sat(stored + inc) - dec) & keep) ^ flip covers all six.
struct StencilOp16 {
  __m128i inc, dec, keep, flip;

  StencilOp16(StencilOp op, uint8_t ref)
      : inc(_mm_set1_epi8(op == StencilOp::kIncr ? 1 : 0)),
        dec(_mm_set1_epi8(op == StencilOp::kDecr ? 1 : 0)),
        keep(_mm_set1_epi8(op == StencilOp::kZero || op == StencilOp::kReplace
                               ? 0
                               : -1)),
        flip(_mm_set1_epi8(static_cast<char>(
            op == StencilOp::kReplace  ? ref
            : op == StencilOp::kInvert ? 0xff
                                       : 0))) {}

  __m128i Apply(__m128i stored) const {
    const __m128i t = _mm_subs_epu8(_mm_adds_epu8(stored, inc), dec);
    return _mm_xor_si128(_mm_and_si128(t, keep), flip);
  }
};

/// The tail's per-pass constants as SSE2 lanes: 32-bit lanes for depth
/// (unsigned compares by flipping the sign bit), 8-bit lanes for stencil.
struct SimdTail {
  __m128i bias;
  __m128i d_lt, d_eq, d_gt;        ///< depth_cmp truth table
  __m128i bounds_min, bounds_max;  ///< biased
  __m128i s_lt, s_eq, s_gt;        ///< stencil_cmp truth table
  __m128i ref_masked, value_mask, write_mask;
  StencilOp16 fail, zfail, zpass;

  explicit SimdTail(const TailState& ts)
      : bias(_mm_set1_epi32(static_cast<int>(0x80000000u))),
        d_lt(_mm_set1_epi32(ts.depth_cmp.lt ? -1 : 0)),
        d_eq(_mm_set1_epi32(ts.depth_cmp.eq ? -1 : 0)),
        d_gt(_mm_set1_epi32(ts.depth_cmp.gt ? -1 : 0)),
        bounds_min(
            _mm_set1_epi32(static_cast<int>(ts.bounds_min ^ 0x80000000u))),
        bounds_max(
            _mm_set1_epi32(static_cast<int>(ts.bounds_max ^ 0x80000000u))),
        s_lt(_mm_set1_epi8(ts.stencil_cmp.lt ? -1 : 0)),
        s_eq(_mm_set1_epi8(ts.stencil_cmp.eq ? -1 : 0)),
        s_gt(_mm_set1_epi8(ts.stencil_cmp.gt ? -1 : 0)),
        ref_masked(_mm_set1_epi8(static_cast<char>(ts.ref_masked))),
        value_mask(_mm_set1_epi8(static_cast<char>(ts.value_mask))),
        write_mask(_mm_set1_epi8(static_cast<char>(ts.write_mask))),
        fail(ts.fail_op, ts.stencil_ref),
        zfail(ts.zfail_op, ts.stencil_ref),
        zpass(ts.zpass_op, ts.stencil_ref) {}
};

GPUDB_ALWAYS_INLINE __m128i Select(__m128i mask, __m128i a, __m128i b) {
  return _mm_or_si128(_mm_and_si128(mask, a), _mm_andnot_si128(mask, b));
}

/// Per-lane byte counters: adding a 0/-1 mask counts its set lanes. A lane
/// gains at most one per 16-fragment step, so the bytes cannot overflow
/// within kMaxSteps steps; the kernel adds them to its tally that often.
struct LaneCounts {
  static constexpr int kMaxSteps = 255;

  __m128i alive = _mm_setzero_si128();
  __m128i passed = _mm_setzero_si128();
  __m128i stencil_killed = _mm_setzero_si128();
  __m128i stencil_updates = _mm_setzero_si128();

  static uint64_t CountLanes(__m128i bytes) {
    const __m128i s = _mm_sad_epu8(bytes, _mm_setzero_si128());
    return static_cast<uint64_t>(_mm_extract_epi16(s, 0)) +
           static_cast<uint64_t>(_mm_extract_epi16(s, 4));
  }
  void DrainInto(RowTally* t) {
    t->alive += CountLanes(alive);
    t->passed += CountLanes(passed);
    t->stencil_killed += CountLanes(stencil_killed);
    t->stencil_updates += CountLanes(stencil_updates);
    *this = LaneCounts();
  }
};

/// Sixteen fragments [i, i+16) through the tail: ScalarLane's outcome for
/// every lane, computed as lane masks. `alive` holds 0x00/0xff bytes.
GPUDB_ALWAYS_INLINE void SimdLanes(const TailState& ts, const SimdTail& v,
                                   __m128i alive, const __m128i q[4],
                                   uint64_t i, uint32_t* depth,
                                   uint8_t* stencil, LaneCounts* n) {
  const __m128i ones = _mm_set1_epi8(-1);
  __m128i d[4] = {};
  __m128i depth_pass = ones;
  if (ts.depth_reads) {
    __m128i dp32[4];
    for (int g = 0; g < 4; ++g) {
      d[g] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(depth + i) + g);
      const __m128i db = _mm_xor_si128(d[g], v.bias);
      const __m128i qb = _mm_xor_si128(q[g], v.bias);
      __m128i m = _mm_or_si128(
          _mm_or_si128(_mm_and_si128(_mm_cmpgt_epi32(db, qb), v.d_lt),
                       _mm_and_si128(_mm_cmpeq_epi32(q[g], d[g]), v.d_eq)),
          _mm_and_si128(_mm_cmpgt_epi32(qb, db), v.d_gt));
      if (ts.bounds_test) {
        m = _mm_andnot_si128(_mm_or_si128(_mm_cmpgt_epi32(v.bounds_min, db),
                                          _mm_cmpgt_epi32(db, v.bounds_max)),
                             m);
      }
      dp32[g] = m;
    }
    // Saturating packs map 0 / -1 lanes onto 0 / -1 bytes exactly.
    depth_pass = _mm_packs_epi16(_mm_packs_epi32(dp32[0], dp32[1]),
                                 _mm_packs_epi32(dp32[2], dp32[3]));
  }
  __m128i stencil_pass = ones;
  if (ts.stencil_test) {
    const __m128i stored =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(stencil + i));
    // Unsigned (ref & mask) FUNC (stored & mask) from eq and ref <= val.
    const __m128i val = _mm_and_si128(stored, v.value_mask);
    const __m128i eq = _mm_cmpeq_epi8(v.ref_masked, val);
    const __m128i le =
        _mm_cmpeq_epi8(_mm_min_epu8(v.ref_masked, val), v.ref_masked);
    stencil_pass = _mm_or_si128(
        _mm_or_si128(_mm_and_si128(_mm_andnot_si128(eq, le), v.s_lt),
                     _mm_and_si128(eq, v.s_eq)),
        _mm_andnot_si128(le, v.s_gt));
    const __m128i res =
        Select(alive,
               Select(stencil_pass,
                      Select(depth_pass, v.zpass.Apply(stored),
                             v.zfail.Apply(stored)),
                      v.fail.Apply(stored)),
               stored);
    const __m128i merged = Select(v.write_mask, res, stored);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(stencil + i), merged);
    n->stencil_updates = _mm_sub_epi8(
        n->stencil_updates,
        _mm_andnot_si128(_mm_cmpeq_epi8(merged, stored), ones));
    n->stencil_killed = _mm_sub_epi8(n->stencil_killed,
                                     _mm_andnot_si128(stencil_pass, alive));
  }
  const __m128i pass =
      _mm_and_si128(_mm_and_si128(alive, stencil_pass), depth_pass);
  n->alive = _mm_sub_epi8(n->alive, alive);
  n->passed = _mm_sub_epi8(n->passed, pass);
  if (ts.depth_write) {
    const __m128i lo = _mm_unpacklo_epi8(pass, pass);
    const __m128i hi = _mm_unpackhi_epi8(pass, pass);
    const __m128i p32[4] = {
        _mm_unpacklo_epi16(lo, lo), _mm_unpackhi_epi16(lo, lo),
        _mm_unpacklo_epi16(hi, hi), _mm_unpackhi_epi16(hi, hi)};
    for (int g = 0; g < 4; ++g) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(depth + i) + g,
                       Select(p32[g], q[g], d[g]));
    }
  }
}
#endif  // defined(__SSE2__)

/// Whether a pass runs the tail 16 lanes at a time. Color writes take the
/// scalar lane: the color is per fragment and passes rarely write it.
bool SimdTailFor(const TailState& ts) {
#if defined(__SSE2__)
  return !ts.color_write;
#else
  (void)ts;
  return false;
#endif
}

/// The staged row kernel: rows [y_begin, y_end) of `rect` through `Stage`
/// and the shared tail, sixteen fragments per step (the stage yields them
/// four at a time), with the scalar lane for the rest of each row.
///
/// Everything the loops read lives in locals: the stencil plane is
/// uint8_t (and __m128i may alias anything), so a loop reading RenderState,
/// the stage, or the plane pointers through references would reload them
/// after every stencil store. Locals whose address never escapes cannot
/// alias and stay in registers.
template <typename Stage>
void StagedRowKernel(const Stage& stage_in, const TailState& ts_in,
                     FrameBuffer* fb, const ScissorRect& rect,
                     uint32_t y_begin, uint32_t y_end, RowTally* out) {
  const Stage stage = stage_in;
  const TailState ts = ts_in;
  const uint32_t w = fb->width();
  uint32_t* const depth = fb->depth_data();
  uint8_t* const stencil = fb->stencil_data();
  float* const color = fb->color_data();
  RowTally t;
#if defined(__SSE2__)
  const bool simd = SimdTailFor(ts);
  const SimdTail v(ts);
  const StageOut<float> flat = Stage::kFlat ? stage.template At<float>(0)
                                            : StageOut<float>{false, 0};
  const __m128i flat_alive = _mm_set1_epi8(flat.alive ? -1 : 0);
  const __m128i flat_q = _mm_set1_epi32(static_cast<int>(flat.depth));
  LaneCounts counts;
  int steps = 0;  // since counts were last added to t
#endif
  for (uint32_t y = y_begin; y < y_end; ++y) {
    uint64_t i = uint64_t{y} * w + rect.x0;
    uint32_t x = rect.x0;
#if defined(__SSE2__)
    for (; simd && x + 16 <= rect.x1; x += 16, i += 16) {
      __m128i alive16 = flat_alive;
      __m128i q[4] = {flat_q, flat_q, flat_q, flat_q};
      if constexpr (!Stage::kFlat) {
        __m128i alive32[4];
        for (int g = 0; g < 4; ++g) {
          const StageOut<FloatLanes> f =
              stage.template At<FloatLanes>(i + 4 * g);
          q[g] = reinterpret_cast<__m128i>(f.depth);
          alive32[g] = reinterpret_cast<__m128i>(f.alive);
        }
        alive16 = _mm_packs_epi16(_mm_packs_epi32(alive32[0], alive32[1]),
                                  _mm_packs_epi32(alive32[2], alive32[3]));
      }
      SimdLanes(ts, v, alive16, q, i, depth, stencil, &counts);
      if (++steps == LaneCounts::kMaxSteps) {
        counts.DrainInto(&t);
        steps = 0;
      }
    }
#endif
    for (; x < rect.x1; ++x, ++i) {
      ScalarLane(stage, ts, stage.template At<float>(i), i, depth, stencil,
                 color, &t);
    }
    t.fragments += rect.x1 - rect.x0;
  }
#if defined(__SSE2__)
  counts.DrainInto(&t);
#endif
  *out = t;
}

}  // namespace

void Device::ApplyPlaneTrafficModel(PassRecord* pass) const {
  // Bandwidth model for a tested pass (DESIGN.md §13): the stencil unit
  // reads 1 byte for every fragment that reaches it (all fragments past the
  // alpha stage), the depth unit reads the 4-byte stored depth for bounds
  // and compare, updates write back at plane width, and a passing fragment
  // with the color mask open writes 4 float32 channels.
  const RenderState& rs = state_;
  PassProfile& p = pass->prof;
  const uint64_t after_alpha = pass->fragments - p.alpha_killed;
  const uint64_t depth_tested = after_alpha - p.stencil_killed;
  uint64_t reads = 0;
  if (rs.stencil_test_enabled) reads += after_alpha;
  if (rs.depth_bounds_test_enabled || rs.depth_test_enabled) {
    reads += depth_tested * 4;
  }
  uint64_t writes = pass->stencil_updates + pass->depth_writes * 4;
  if (rs.color_write_mask) writes += pass->fragments_passed * 16;
  p.plane_bytes_read = reads;
  p.plane_bytes_written = writes;
}

Status Device::FinishPass(PassRecord pass) {
  if (pass.profiled) {
    // Close the fragment ledger: kills were counted at the test stages,
    // the rest is arithmetic. Imbalance (more kills than fragments, or
    // more survivors than depth-tested fragments) means the pipeline
    // miscounted; surface it before the unsigned subtraction wraps.
    PassProfile& p = pass.prof;
    if (p.alpha_killed + p.stencil_killed > pass.fragments ||
        pass.fragments - p.alpha_killed - p.stencil_killed <
            pass.fragments_passed) {
      return Status::Internal(
          "gpuprof fragment ledger out of balance in pass '" +
          std::string(pass.label) + "'");
    }
    p.depth_tested = pass.fragments - p.alpha_killed - p.stencil_killed;
    p.depth_killed = p.depth_tested - pass.fragments_passed;
    p.occlusion_samples =
        pass.in_occlusion_query ? pass.fragments_passed : 0;
  }
  // Record-time enforcement of the PassRecord invariants: a violated
  // invariant means the simulator itself miscounted, which would silently
  // corrupt every downstream PerfModel estimate. Propagated as a Status so
  // release builds catch it too (a fired assert is invisible at -DNDEBUG).
  if (!pass.Valid()) {
    return Status::Internal(
        "PassRecord invariants violated at record time in pass '" +
        std::string(pass.label) + "'");
  }
  ++counters_.passes;
  counters_.fragments_generated += pass.fragments;
  counters_.fragments_passed += pass.fragments_passed;
  counters_.fp_instructions_executed +=
      pass.fragments * static_cast<uint64_t>(pass.fp_instructions);
  counters_.depth_writes += pass.depth_writes;
  counters_.stencil_updates += pass.stencil_updates;
  if (pass.fused) ++counters_.fused_passes;
  DeviceMetrics::Get().passes.Increment();
  DeviceMetrics::Get().fragments.Add(pass.fragments);
  if (pass.profiled) {
    counters_.prof.Merge(pass.prof);
    DeviceMetrics::Get().alpha_killed.Add(pass.prof.alpha_killed);
    DeviceMetrics::Get().stencil_killed.Add(pass.prof.stencil_killed);
    DeviceMetrics::Get().depth_killed.Add(pass.prof.depth_killed);
    DeviceMetrics::Get().plane_bytes_read.Add(pass.prof.plane_bytes_read);
    DeviceMetrics::Get().plane_bytes_written.Add(
        pass.prof.plane_bytes_written);
    Profiler::Global().RecordPass(pass.label, pass.fragments,
                                  pass.fragments_passed, pass.prof,
                                  pass.fused, pass.cache_hit);
  }
  if (Tracer::Global().enabled()) {
    // One span per rendering pass, carrying the full PassRecord. The span
    // is emitted at pass completion (zero duration on the trace timeline);
    // the nesting under the operator that issued the pass is what matters.
    TraceSpan span("pass:" + std::string(pass.label));
    span.AddTag("fragments", pass.fragments);
    span.AddTag("fragments_passed", pass.fragments_passed);
    span.AddTag("fp_instructions", pass.fp_instructions);
    span.AddTag("depth_writes", pass.depth_writes);
    span.AddTag("stencil_updates", pass.stencil_updates);
    span.AddTag("in_occlusion_query",
                pass.in_occlusion_query ? "true" : "false");
    if (pass.fused) span.AddTag("fused", "true");
    if (pass.cache_hit) span.AddTag("cache", "hit");
    span.AddTag("kernel", ToString(pass.kernel));
    if (pass.profiled) {
      span.AddTag("alpha_killed", pass.prof.alpha_killed);
      span.AddTag("stencil_killed", pass.prof.stencil_killed);
      span.AddTag("depth_tested", pass.prof.depth_tested);
      span.AddTag("depth_killed", pass.prof.depth_killed);
      span.AddTag("occlusion_samples", pass.prof.occlusion_samples);
      span.AddTag("plane_bytes_read", pass.prof.plane_bytes_read);
      span.AddTag("plane_bytes_written", pass.prof.plane_bytes_written);
    }
  }
  counters_.pass_log.push_back(std::move(pass));
  return Status::OK();
}

void Device::ArmDeadline(double ms) {
  deadline_ = std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double, std::milli>(ms));
  deadline_armed_ = true;
}

Status Device::CheckInterrupt() const {
  if (cancel_requested_.load(std::memory_order_relaxed)) {
    return Status::Cancelled("query cancelled");
  }
  if (deadline_armed_ && std::chrono::steady_clock::now() >= deadline_) {
    return Status::DeadlineExceeded("query deadline exceeded");
  }
  return Status::OK();
}

Status Device::RenderInternal(float quad_depth, bool textured) {
  // Consume the one-shot fused mark up front: if this pass faults before
  // recording, the operator-level retry re-issues the whole fused sequence
  // (re-marking included), so the flag must not leak onto an unrelated
  // later pass.
  const bool fused = std::exchange(next_pass_fused_, false);
  // Cooperative per-pass interrupt check plus the watchdog fault site.
  // Both happen before any fragment work, on the issuing thread, so the
  // injector's draw sequence is independent of the worker-thread count.
  GPUDB_RETURN_NOT_OK(CheckInterrupt());
  GPUDB_RETURN_NOT_OK(injector_.OnPass());
  const FragmentProgram* program = textured ? program_ : nullptr;
  std::array<const Texture*, 4> units = {nullptr, nullptr, nullptr, nullptr};
  if (textured) {
    for (int u = 0; u < kTextureUnits; ++u) {
      if (bound_units_[u] < 0) continue;
      GPUDB_RETURN_NOT_OK(EnsureResident(bound_units_[u]));
      units[u] = &textures_[bound_units_[u]].data;
      if (units[u]->total_texels() < viewport_pixels_) {
        return Status::FailedPrecondition(
            "bound texture has fewer texels than the viewport covers");
      }
    }
  }

  PassRecord pass;
  pass.label = program != nullptr ? program->name() : "fixed-function";
  pass.fp_instructions = program != nullptr ? program->instruction_count() : 0;
  pass.in_occlusion_query = occlusion_active_;
  pass.fused = fused;
  // One relaxed load per pass decides which PassRecords carry deep
  // counters; a mid-pass toggle cannot tear.
  pass.profiled = Profiler::Global().enabled();

  // The viewport's first n pixels form up to two rectangles: the full rows
  // and a partial final row. Each is a screen-aligned quad at constant
  // depth, so rasterization takes the span fast path (RasterizeRectRows):
  // the two triangles of such a quad cover exactly the rectangle's pixels,
  // once each, with the quad depth passed through bit-exactly, and emitting
  // the runs directly skips three edge-function evaluations per fragment.
  const uint32_t w = fb_.width();
  const uint32_t full_rows = static_cast<uint32_t>(viewport_pixels_ / w);
  const uint32_t remainder = static_cast<uint32_t>(viewport_pixels_ % w);
  std::vector<ScissorRect> rects;
  if (full_rows > 0) rects.push_back({0, 0, w, full_rows});
  if (remainder > 0) rects.push_back({0, full_rows, remainder, full_rows + 1});

  // Clip to the user scissor; surviving rects keep disjoint, increasing row
  // ranges, which is what makes the band split below race-free.
  std::vector<ScissorRect> clipped;
  uint32_t total_rows = 0;
  for (ScissorRect rect : rects) {
    if (state_.scissor_test_enabled) {
      const ScissorRect& s = state_.scissor;
      rect.x0 = std::max(rect.x0, s.x0);
      rect.y0 = std::max(rect.y0, s.y0);
      rect.x1 = std::min(rect.x1, s.x1);
      rect.y1 = std::min(rect.y1, s.y1);
      if (rect.x0 >= rect.x1 || rect.y0 >= rect.y1) continue;
    }
    total_rows += rect.y1 - rect.y0;
    clipped.push_back(rect);
  }

  // Tile decomposition: the pass's rows, concatenated across rects, are
  // split into `bands` contiguous, disjoint horizontal slices. Every pixel
  // belongs to exactly one band and each pass touches each pixel at most
  // once, so framebuffer writes are race-free by construction; per-band
  // PassRecord counters and occlusion counts are reduced in fixed band
  // order afterwards so every reduction (and therefore counters_,
  // pass_log, and EndOcclusionQuery results) is bit-identical to serial
  // execution.
  // Wall-clock band time rides in the Tile but never enters the PassRecord:
  // counters stay bit-stable across thread counts while timings feed the
  // "gpu.band_ms" histogram and trace counter track.
  struct Tile {
    PassRecord pass;
    uint64_t occlusion = 0;
    double band_ms = 0.0;
  };
  const int bands =
      std::max(1, std::min(worker_threads_, static_cast<int>(total_rows)));
  std::vector<Tile> tiles(static_cast<size_t>(bands));

  // Pick the pass's fragment stage once (DESIGN.md §14). Fixed-function
  // quads and the programs with an As*() stage run the staged row kernel;
  // any other program runs the generic per-fragment path.
  const bool profiled = pass.profiled;
  const bool occlusion = occlusion_active_;
  const TailState tail(state_);
  const CompareTable alpha_test(state_.alpha_test_enabled
                                    ? state_.alpha_func
                                    : CompareOp::kAlways);
  // Fixed-function quads and the depth-copy and Semilinear programs leave
  // alpha at 1.0, so their alpha outcome is the same for every fragment.
  const bool alpha_ok = alpha_test(1.0f, state_.alpha_ref);
  const uint32_t quad_q = fb_.Quantize(quad_depth);
  using RowFn =
      std::function<void(const ScissorRect&, uint32_t, uint32_t, Tile*)>;
  const auto staged = [&](const auto& stage) -> RowFn {
    return [this, stage, tail, occlusion, profiled](
               const ScissorRect& rect, uint32_t yb, uint32_t ye, Tile* tile) {
      RowTally t;
      StagedRowKernel(stage, tail, &fb_, rect, yb, ye, &t);
      AddTally(t, tail, profiled, &tile->pass,
               occlusion ? &tile->occlusion : nullptr);
    };
  };
  const Texture* tex0 = units[0];
  RowFn rows;
  if (program == nullptr) {
    rows = staged(FlatStage{alpha_ok, quad_q});
  } else if (tex0 != nullptr && program->AsDepthCopy() != nullptr) {
    rows = staged(DepthCopyRowStage{
        DepthCopyStage(*program->AsDepthCopy(), *tex0), fb_.depth_max(),
        alpha_ok});
  } else if (tex0 != nullptr && program->AsSemilinear() != nullptr) {
    rows = staged(SemilinearRowStage{
        SemilinearStage(*program->AsSemilinear(), *tex0), quad_q, alpha_ok});
  } else if (tex0 != nullptr && program->AsTestBit() != nullptr) {
    rows = staged(TestBitRowStage{TestBitStage(*program->AsTestBit(), *tex0),
                                  alpha_test, state_.alpha_ref, quad_q});
  } else {
    const GenericPass gp{units, program, tail, alpha_test, state_.alpha_ref};
    rows = [this, gp, quad_depth, occlusion, profiled](
               const ScissorRect& rect, uint32_t yb, uint32_t ye, Tile* tile) {
      RowTally t;
      RasterizeRectRows(rect, quad_depth, yb, ye,
                        [&](const RasterFragment& frag) {
                          GenericFragment(gp, frag, &fb_, &t);
                        });
      AddTally(t, gp.tail, profiled, &tile->pass,
               occlusion ? &tile->occlusion : nullptr);
    };
    pass.kernel = PassKernel::kGeneric;
  }
  if (pass.kernel == PassKernel::kNone) {
    pass.kernel = SimdTailFor(tail) ? PassKernel::kStagedSimd
                                    : PassKernel::kStagedScalar;
  }

  const auto run_band = [&](int band) {
    // Per-band cooperative cancellation: a band that starts after the
    // interrupt fired does no work. Bands already in their fragment loop
    // finish normally; the post-reduction check below surfaces the error.
    if (InterruptPending()) return;
    const auto band_start = profiled ? std::chrono::steady_clock::now()
                                     : std::chrono::steady_clock::time_point();
    // Tile accumulators live on the band's stack; copied into the shared
    // tile vector once at band end.
    Tile tile;
    // Rows [row_begin, row_end) of the concatenated row sequence.
    const auto nrows = uint64_t{total_rows};
    const auto row_begin =
        static_cast<uint32_t>(nrows * static_cast<uint64_t>(band) /
                              static_cast<uint64_t>(bands));
    const auto row_end =
        static_cast<uint32_t>(nrows * (static_cast<uint64_t>(band) + 1) /
                              static_cast<uint64_t>(bands));
    uint32_t skipped = 0;
    for (const ScissorRect& rect : clipped) {
      const uint32_t height = rect.y1 - rect.y0;
      const uint32_t lo = std::max(row_begin, skipped);
      const uint32_t hi = std::min(row_end, skipped + height);
      if (lo < hi) {
        rows(rect, rect.y0 + (lo - skipped), rect.y0 + (hi - skipped), &tile);
      }
      skipped += height;
    }
    if (profiled) {
      tile.band_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - band_start)
                         .count();
    }
    tiles[static_cast<size_t>(band)] = std::move(tile);
  };

  if (bands == 1) {
    run_band(0);
  } else {
    EnsurePool()->ParallelFor(bands, run_band);
  }

  // An interrupt that fired mid-pass leaves partially rendered bands; the
  // pass is not recorded and the framebuffer contents are indeterminate
  // (the query is being abandoned either way).
  GPUDB_RETURN_NOT_OK(CheckInterrupt());

  for (const Tile& tile : tiles) {
    pass.fragments += tile.pass.fragments;
    pass.fragments_passed += tile.pass.fragments_passed;
    pass.depth_writes += tile.pass.depth_writes;
    pass.stencil_updates += tile.pass.stencil_updates;
    pass.prof.alpha_killed += tile.pass.prof.alpha_killed;
    pass.prof.stencil_killed += tile.pass.prof.stencil_killed;
    occlusion_count_ += tile.occlusion;
  }
  if (profiled) {
    ApplyPlaneTrafficModel(&pass);
    std::vector<double> band_times;
    band_times.reserve(tiles.size());
    for (const Tile& tile : tiles) band_times.push_back(tile.band_ms);
    Profiler::Global().RecordBandTimings(band_times);
  }

  return FinishPass(std::move(pass));
}

Status Device::DrawTriangles(const std::vector<Vertex>& vertices) {
  GPUDB_RETURN_NOT_OK(CheckInterrupt());
  GPUDB_RETURN_NOT_OK(injector_.OnPass());
  if (vertices.empty() || vertices.size() % 3 != 0) {
    return Status::InvalidArgument(
        "DrawTriangles requires a positive multiple of 3 vertices");
  }
  std::array<const Texture*, 4> units = {nullptr, nullptr, nullptr, nullptr};
  for (int u = 0; u < kTextureUnits; ++u) {
    if (bound_units_[u] < 0) continue;
    GPUDB_RETURN_NOT_OK(EnsureResident(bound_units_[u]));
    units[u] = &textures_[bound_units_[u]].data;
  }
  PassRecord pass;
  pass.label = program_ != nullptr ? program_->name() : "triangles";
  pass.fp_instructions =
      program_ != nullptr ? program_->instruction_count() : 0;
  pass.in_occlusion_query = occlusion_active_;
  pass.profiled = Profiler::Global().enabled();
  pass.kernel = PassKernel::kGeneric;

  // Arbitrary geometry may overlap itself (later triangles read earlier
  // ones' depth/stencil writes), so this path stays strictly serial; only
  // the disjoint-pixel quad passes of RenderInternal parallelize.
  const TailState tail(state_);
  const GenericPass gp{units, program_, tail,
                       CompareTable(state_.alpha_test_enabled
                                        ? state_.alpha_func
                                        : CompareOp::kAlways),
                       state_.alpha_ref};
  RowTally t;
  const auto emit = [&](const RasterFragment& frag) {
    GenericFragment(gp, frag, &fb_, &t);
  };

  ScissorRect clip{0, 0, fb_.width(), fb_.height()};
  if (state_.scissor_test_enabled) {
    const ScissorRect& s = state_.scissor;
    clip.x0 = std::max(clip.x0, s.x0);
    clip.y0 = std::max(clip.y0, s.y0);
    clip.x1 = std::min(clip.x1, s.x1);
    clip.y1 = std::min(clip.y1, s.y1);
    if (clip.x0 >= clip.x1 || clip.y0 >= clip.y1) {
      return FinishPass(std::move(pass));
    }
  }
  for (size_t v = 0; v + 2 < vertices.size(); v += 3) {
    const ScreenVertex a = ApplyVertexStage(vertices[v]);
    const ScreenVertex b = ApplyVertexStage(vertices[v + 1]);
    const ScreenVertex c = ApplyVertexStage(vertices[v + 2]);
    RasterizeTriangle(a, b, c, clip, emit);
  }
  AddTally(t, tail, pass.profiled, &pass,
           occlusion_active_ ? &occlusion_count_ : nullptr);
  if (pass.profiled) ApplyPlaneTrafficModel(&pass);
  return FinishPass(std::move(pass));
}

Status Device::BeginOcclusionQuery() {
  if (occlusion_active_) {
    return Status::FailedPrecondition("occlusion query already active");
  }
  occlusion_active_ = true;
  occlusion_count_ = 0;
  return Status::OK();
}

Result<uint64_t> Device::EndOcclusionQuery() {
  if (!occlusion_active_) {
    return Status::FailedPrecondition("no active occlusion query");
  }
  occlusion_active_ = false;
  GPUDB_RETURN_NOT_OK(CheckInterrupt());
  // Transient occlusion-query failure: the query still ended (active flag
  // cleared above) but its count never made it back across the bus.
  GPUDB_RETURN_NOT_OK(injector_.OnOcclusionReadback());
  ++counters_.occlusion_readbacks;
  counters_.bytes_read_back += 4;  // the pixel pass count
  DeviceMetrics::Get().occlusion_readbacks.Increment();
  DeviceMetrics::Get().bytes_read_back.Add(4);
  return occlusion_count_;
}

Result<std::vector<uint8_t>> Device::ReadStencil() {
  GPUDB_RETURN_NOT_OK(CheckInterrupt());
  GPUDB_RETURN_NOT_OK(injector_.OnReadback("stencil"));
  counters_.bytes_read_back += fb_.pixel_count();
  DeviceMetrics::Get().bytes_read_back.Add(fb_.pixel_count());
  TraceSpan span("gpu.read_stencil");
  span.AddTag("bytes", fb_.pixel_count());
  return fb_.stencil_plane();
}

Result<std::vector<uint32_t>> Device::ReadDepth() {
  GPUDB_RETURN_NOT_OK(CheckInterrupt());
  GPUDB_RETURN_NOT_OK(injector_.OnReadback("depth"));
  counters_.bytes_read_back += fb_.pixel_count() * 4;
  DeviceMetrics::Get().bytes_read_back.Add(fb_.pixel_count() * 4);
  TraceSpan span("gpu.read_depth");
  span.AddTag("bytes", fb_.pixel_count() * 4);
  return fb_.depth_plane();
}

Result<std::vector<float>> Device::ReadColorChannel(int channel) {
  GPUDB_RETURN_NOT_OK(CheckInterrupt());
  GPUDB_RETURN_NOT_OK(injector_.OnReadback("color"));
  counters_.bytes_read_back += fb_.pixel_count() * 4;
  DeviceMetrics::Get().bytes_read_back.Add(fb_.pixel_count() * 4);
  std::vector<float> out(fb_.pixel_count());
  for (uint64_t i = 0; i < fb_.pixel_count(); ++i) {
    out[i] = fb_.color(i)[channel];
  }
  return out;
}

}  // namespace gpu
}  // namespace gpudb
