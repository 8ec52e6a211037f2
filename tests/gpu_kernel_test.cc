// Differential test of the staged row kernel (DESIGN.md §14): every
// fragment stage, under a sweep of stencil/depth/alpha/occlusion/profiler
// states at 1/2/4/8 pixel engines, must leave bit-identical planes, pass
// records, and occlusion counts to the generic per-fragment path. The
// reference wraps the same program in a test-local FragmentProgram that
// delegates Execute but exposes no As*() stage, so the device cannot
// recognize it and runs every fragment through Execute.
//
// Also checks that the benchmark's statement shapes never fall back to the
// generic path (the per-pass `kernel` tag).

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/profile.h"
#include "src/common/random.h"
#include "src/common/trace.h"
#include "src/core/executor.h"
#include "src/db/catalog.h"
#include "src/db/datagen.h"
#include "src/gpu/device.h"
#include "src/gpu/device_pool.h"
#include "src/gpu/fragment_program.h"
#include "src/sql/session.h"
#include "tests/test_util.h"

namespace gpudb {
namespace gpu {
namespace {

constexpr uint32_t kWidth = 37;   // two 16-lane blocks plus a scalar tail
constexpr uint32_t kHeight = 9;
constexpr uint64_t kViewport = kWidth * 8 + 5;  // a partial last row

/// The generic-path reference: delegates to `inner` (or, for a
/// fixed-function pass, writes the quad depth) without an As*() hook.
class NoStageProgram final : public FragmentProgram {
 public:
  NoStageProgram(const FragmentProgram* inner, float quad_depth)
      : inner_(inner), quad_depth_(quad_depth) {}

  void Execute(const FragmentInput& in, FragmentOutput* out) const override {
    if (inner_ != nullptr) {
      inner_->Execute(in, out);
      return;
    }
    out->depth = quad_depth_;
    out->depth_written = true;
  }
  int instruction_count() const override {
    return inner_ != nullptr ? inner_->instruction_count() : 0;
  }
  std::string_view name() const override {
    return inner_ != nullptr ? inner_->name() : "fixed-function";
  }

 private:
  const FragmentProgram* inner_;
  float quad_depth_;
};

/// Texel values every stage must agree on, specials included.
std::vector<float> TexelPool() {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  return {0.0f,       -0.0f,      nan,       16777216.0f, 16777215.0f,
          1.0f,       2.0f,       3.0f,      5.0f,        255.0f,
          256.0f,     1000.5f,    -7.0f,     -0.25f,      0.5f,
          123456.0f,  8388608.5f, 524287.0f, inf,         -inf,
          1e-40f,     4095.0f,    65535.0f,  1048576.0f};
}

struct Case {
  // Stage: 0 fixed-function, 1 CopyToDepth, 2 FusedCompare, 3 Semilinear,
  // 4 TestBit.
  int stage = 0;
  uint64_t seed = 0;
  RenderState rs;
  float quad_depth = 0.0f;
  bool occlusion = false;
  bool profile = false;
  int channel = 0;
  int bit = 0;
  double scale = 1.0;
  double offset = 0.0;
  std::array<float, 4> weights = {0, 0, 0, 0};
  CompareOp op = CompareOp::kAlways;
  float b = 0.0f;
};

/// Draws case `k` of the sweep. Each dimension cycles with its own period,
/// so every value of every dimension -- and every stencil op triple --
/// appears, in varied company.
Case MakeCase(int stage, int k) {
  Random rng(static_cast<uint64_t>(stage) * 7919 + static_cast<uint64_t>(k));
  const auto op_of = [](int v) { return static_cast<CompareOp>(v % 8); };
  const auto sop_of = [](int v) { return static_cast<StencilOp>(v % 6); };
  Case c;
  c.stage = stage;
  c.seed = rng.NextUint64();
  RenderState& rs = c.rs;
  rs.stencil_test_enabled = k % 5 != 0;
  rs.stencil_func = op_of(k);
  const uint8_t refs[] = {0, 1, 2, 3, 255, 0x81};
  rs.stencil_ref = refs[(k / 3) % 6];
  rs.stencil_value_mask = (k / 2) % 3 == 0 ? 0x0f : 0xff;
  rs.stencil_write_mask = (k / 7) % 4 == 0 ? 0xf0 : 0xff;
  rs.stencil_fail_op = sop_of(k);
  rs.stencil_zfail_op = sop_of(k / 6);
  rs.stencil_zpass_op = sop_of(k / 36);
  rs.depth_test_enabled = (k / 4) % 3 != 0;
  rs.depth_func = op_of(k / 9 + 3);
  rs.depth_write_mask = (k / 11) % 2 == 0;
  rs.depth_bounds_test_enabled = (k / 13) % 4 == 0;
  rs.depth_bounds_min = static_cast<uint32_t>(rng.NextUint64() % (1u << 23));
  rs.depth_bounds_max =
      rs.depth_bounds_min + static_cast<uint32_t>(rng.NextUint64() % (1u << 23));
  rs.alpha_test_enabled = (k / 17) % 3 != 0;
  rs.alpha_func = op_of(k / 5 + 1);
  const float alpha_refs[] = {0.5f, 1.0f, 0.0f, 0.25f};
  rs.alpha_ref = alpha_refs[(k / 19) % 4];
  rs.color_write_mask = (k / 23) % 5 == 0;
  rs.scissor_test_enabled = (k / 29) % 6 == 0;
  rs.scissor = {3, 1, 30, 8};
  c.occlusion = (k / 2) % 2 == 0;
  c.profile = (k / 31) % 2 == 1;
  const float depths[] = {0.0f, 0.3f, 0.5f, 1.0f, 0.75f};
  c.quad_depth = depths[(k / 8) % 5];
  c.channel = static_cast<int>(rng.NextUint64() % 4);
  c.bit = static_cast<int>(rng.NextUint64() % 25);
  const double scales[] = {1.0 / 16777215.0, 1.0 / 1000.0, 1e-9, 0.25};
  const double offsets[] = {0.0, -100.0, 5e6, 1.0};
  c.scale = scales[rng.NextUint64() % 4];
  c.offset = offsets[rng.NextUint64() % 4];
  const float weights[] = {0.0f, 1.0f, -1.0f, 0.5f, 3.0f};
  for (float& w : c.weights) w = weights[rng.NextUint64() % 5];
  c.op = op_of(static_cast<int>(rng.NextUint64() % 8));
  const float bs[] = {0.0f, 1.0f, -5.0f, 1e6f,
                      std::numeric_limits<float>::quiet_NaN()};
  c.b = bs[rng.NextUint64() % 5];
  return c;
}

/// What a pass leaves behind.
struct Outcome {
  std::vector<uint32_t> depth;
  std::vector<uint8_t> stencil;
  std::vector<float> color;
  PassRecord pass;
  uint64_t occlusion = 0;
};

/// Runs case `c` on a fresh device seeded with the same planes and texture
/// every time; `generic` routes the pass through NoStageProgram.
Outcome RunCase(const Case& c, int threads, bool generic) {
  Device dev(kWidth, kHeight);
  EXPECT_OK(dev.SetWorkerThreads(threads));
  EXPECT_OK(dev.SetViewport(kViewport));
  const std::vector<float> pool = TexelPool();
  Random rng(c.seed);
  std::vector<std::vector<float>> channels(4, std::vector<float>(kWidth * kHeight));
  for (auto& ch : channels) {
    for (float& v : ch) v = pool[rng.NextUint64() % pool.size()];
  }
  auto tex = Texture::FromColumns(
      {&channels[0], &channels[1], &channels[2], &channels[3]}, kWidth);
  EXPECT_OK(tex.status());
  auto id = dev.UploadTexture(std::move(tex).ValueOrDie());
  EXPECT_OK(id.status());
  EXPECT_OK(dev.BindTexture(id.ValueOrDie()));
  FrameBuffer& fb = dev.framebuffer();
  const uint32_t quad_q = fb.Quantize(c.quad_depth);
  for (uint64_t i = 0; i < fb.pixel_count(); ++i) {
    const uint64_t r = rng.NextUint64();
    // Half the stencil values sit near the refs; a quarter of the depths
    // equal the quad depth, so every ordering is exercised.
    const uint8_t near[] = {0, 1, 2, 3, 255, 0x81, 0x11, 0xf1};
    fb.set_stencil(i, r % 2 == 0 ? near[(r >> 8) % 8]
                                 : static_cast<uint8_t>(r >> 16));
    fb.set_depth(i, (r >> 24) % 4 == 0
                        ? quad_q
                        : static_cast<uint32_t>(r >> 32) & kDepthMax);
    fb.set_color(i, {static_cast<float>(r % 7), 0.5f, -1.0f, 2.0f});
  }
  dev.state() = c.rs;

  const CopyToDepthProgram copy(c.channel, c.scale, c.offset);
  const FusedCompareProgram fused(c.channel, c.scale, c.offset);
  const SemilinearProgram semilinear(c.weights, c.op, c.b);
  const TestBitProgram test_bit(c.channel, c.bit);
  const FragmentProgram* programs[] = {nullptr, &copy, &fused, &semilinear,
                                       &test_bit};
  const FragmentProgram* program = programs[c.stage];
  const NoStageProgram wrapper(program, c.quad_depth);

  Profiler::Global().set_enabled(c.profile);
  if (c.occlusion) EXPECT_OK(dev.BeginOcclusionQuery());
  if (generic) {
    dev.UseProgram(&wrapper);
    EXPECT_OK(dev.RenderTexturedQuad());
  } else if (program == nullptr) {
    EXPECT_OK(dev.RenderQuad(c.quad_depth));
  } else {
    dev.UseProgram(program);
    EXPECT_OK(dev.RenderTexturedQuad());
  }
  Outcome out;
  if (c.occlusion) {
    auto n = dev.EndOcclusionQuery();
    EXPECT_OK(n.status());
    out.occlusion = n.ok() ? n.ValueOrDie() : 0;
  }
  Profiler::Global().set_enabled(false);
  dev.UseProgram(nullptr);
  out.depth = fb.depth_plane();
  out.stencil = fb.stencil_plane();
  out.color.assign(fb.color(0), fb.color(0) + fb.pixel_count() * 4);
  EXPECT_EQ(dev.counters().pass_log.size(), 1u);
  if (!dev.counters().pass_log.empty()) out.pass = dev.counters().pass_log[0];
  return out;
}

std::string Describe(const Case& c, int k, int threads) {
  const RenderState& rs = c.rs;
  return "stage " + std::to_string(c.stage) + " case " + std::to_string(k) +
         " threads " + std::to_string(threads) + ": stencil " +
         std::to_string(rs.stencil_test_enabled) + " " +
         std::string(ToString(rs.stencil_func)) + " ops " +
         std::string(ToString(rs.stencil_fail_op)) + "/" +
         std::string(ToString(rs.stencil_zfail_op)) + "/" +
         std::string(ToString(rs.stencil_zpass_op)) + " depth " +
         std::to_string(rs.depth_test_enabled) + " " +
         std::string(ToString(rs.depth_func)) + " bounds " +
         std::to_string(rs.depth_bounds_test_enabled) + " alpha " +
         std::to_string(rs.alpha_test_enabled) + " " +
         std::string(ToString(rs.alpha_func)) + " color " +
         std::to_string(rs.color_write_mask) + " occlusion " +
         std::to_string(c.occlusion) + " profile " + std::to_string(c.profile);
}

void ExpectSame(const Outcome& want, const Outcome& got,
                const std::string& what) {
  EXPECT_EQ(want.depth, got.depth) << what;
  EXPECT_EQ(want.stencil, got.stencil) << what;
  ASSERT_EQ(want.color.size(), got.color.size()) << what;
  EXPECT_EQ(std::memcmp(want.color.data(), got.color.data(),
                        want.color.size() * sizeof(float)),
            0)
      << what;
  EXPECT_EQ(want.occlusion, got.occlusion) << what;
  const PassRecord& a = want.pass;
  const PassRecord& b = got.pass;
  EXPECT_EQ(a.label, b.label) << what;
  EXPECT_EQ(a.fragments, b.fragments) << what;
  EXPECT_EQ(a.fp_instructions, b.fp_instructions) << what;
  EXPECT_EQ(a.fragments_passed, b.fragments_passed) << what;
  EXPECT_EQ(a.depth_writes, b.depth_writes) << what;
  EXPECT_EQ(a.stencil_updates, b.stencil_updates) << what;
  EXPECT_EQ(a.in_occlusion_query, b.in_occlusion_query) << what;
  EXPECT_EQ(a.profiled, b.profiled) << what;
  EXPECT_TRUE(a.prof == b.prof) << what;
}

constexpr int kCasesPerStage = 432;  // every stencil op triple, twice

class StagedKernelTest : public ::testing::TestWithParam<int> {};

TEST_P(StagedKernelTest, MatchesGenericPathBitForBit) {
  const int stage = GetParam();
  for (int k = 0; k < kCasesPerStage; ++k) {
    const Case c = MakeCase(stage, k);
    const Outcome want = RunCase(c, 1, /*generic=*/true);
    ASSERT_EQ(want.pass.kernel, PassKernel::kGeneric);
    for (int threads : {1, 2, 4, 8}) {
      const Outcome got = RunCase(c, threads, /*generic=*/false);
      const std::string what = Describe(c, k, threads);
      EXPECT_NE(got.pass.kernel, PassKernel::kGeneric) << what;
      EXPECT_EQ(got.pass.kernel == PassKernel::kStagedScalar,
                c.rs.color_write_mask)
          << what;
      ExpectSame(want, got, what);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EveryStage, StagedKernelTest,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(FloorExact, ScalarAndLanesAgreeWithStdFloor) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> xs = {0.0f,        -0.0f,      0.5f,       -0.5f,
                           1.0f,        -1.0f,      2.5f,       -2.5f,
                           8388607.5f,  -8388607.5f, 8388608.0f, -8388608.0f,
                           16777217.0f, 1e30f,      -1e30f,     inf,
                           -inf,        1e-40f,     -1e-40f,    0.999999f};
  Random rng(7);
  for (int i = 0; i < 10000; ++i) {
    uint32_t bits = static_cast<uint32_t>(rng.NextUint64());
    float x;
    std::memcpy(&x, &bits, sizeof(x));
    xs.push_back(x);
  }
  while (xs.size() % 4 != 0) xs.push_back(nan);
  for (size_t i = 0; i < xs.size(); i += 4) {
    const FloatLanes lanes =
        FloorExact(FloatLanes{xs[i], xs[i + 1], xs[i + 2], xs[i + 3]});
    for (size_t l = 0; l < 4; ++l) {
      const float x = xs[i + l];
      const float want = std::floor(x);
      const float got[2] = {FloorExact(x), lanes[l]};
      for (float g : got) {
        if (std::isnan(want)) {
          EXPECT_TRUE(std::isnan(g)) << x;
        } else {
          EXPECT_EQ(std::memcmp(&want, &g, sizeof(float)), 0) << x;
        }
      }
    }
  }
}

// --- The kernel tag --------------------------------------------------------

TEST(KernelTags, PassSpansCarryTheKernel) {
  Tracer& tracer = Tracer::Global();
  const bool was_enabled = tracer.enabled();
  tracer.set_enabled(true);
  const size_t mark = tracer.FinishedCount();

  Device dev(40, 4);
  std::vector<float> values(160, 3.0f);
  auto tex = Texture::FromColumns({&values}, 40);
  ASSERT_OK(tex.status());
  ASSERT_OK_AND_ASSIGN(TextureId id,
                       dev.UploadTexture(std::move(tex).ValueOrDie()));
  ASSERT_OK(dev.BindTexture(id));
  dev.SetColorWriteMask(false);
  ASSERT_OK(dev.RenderQuad(0.5f));  // staged, SSE2 tail
  dev.SetColorWriteMask(true);
  ASSERT_OK(dev.RenderQuad(0.5f));  // staged, scalar tail (color writes)
  const PolynomialProgram poly({1, 0, 0, 0}, {2, 0, 0, 0}, CompareOp::kLess,
                               5.0f);
  dev.UseProgram(&poly);
  ASSERT_OK(dev.RenderTexturedQuad());  // no stage: generic
  dev.UseProgram(nullptr);
  tracer.set_enabled(was_enabled);

  std::vector<std::string> kernels;
  for (const FinishedSpan& span : tracer.FinishedSince(mark)) {
    if (span.name.rfind("pass:", 0) != 0) continue;
    kernels.emplace_back(span.TextTag("kernel"));
  }
#if defined(__SSE2__)
  const std::string simd = "staged-simd";
#else
  const std::string simd = "staged-scalar";
#endif
  EXPECT_EQ(kernels, (std::vector<std::string>{simd, "staged-scalar",
                                               "generic"}));
  const PassLog& log = dev.counters().pass_log;
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[2].kernel, PassKernel::kGeneric);
}

// --- The benchmark's statement shapes run no generic pass -----------------

TEST(KernelTags, BenchmarkStatementShapesRunStaged) {
  ASSERT_OK_AND_ASSIGN(db::Table flows, db::MakeTcpIpTable(2000, /*seed=*/3));
  db::Catalog catalog;
  ASSERT_OK(catalog.Register("flows", &flows));
  Device device(100, 20);
  sql::Session session(&device, &catalog);

  DevicePoolOptions po;
  po.devices = 2;
  po.width = 100;
  po.height = 10;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<DevicePool> pool, DevicePool::Make(po));

  const std::vector<std::string> statements = {
      // CNF chain (fused count), 1/2/4 attributes.
      "SELECT COUNT(*) FROM flows WHERE data_count < 5000",
      "SELECT COUNT(*) FROM flows WHERE data_count < 5000 AND "
      "data_count > 10",
      "SELECT COUNT(*) FROM flows WHERE data_count < 5000 AND "
      "flow_rate > 100 AND data_loss >= 0 AND retransmissions <= 30",
      // General CNF.
      "SELECT COUNT(*) FROM flows WHERE (data_count < 5000 OR "
      "flow_rate > 100) AND retransmissions <= 30",
      // p OR NOT q.
      "SELECT COUNT(*) FROM flows WHERE data_count < 500 OR NOT "
      "(flow_rate < 100000)",
      // BETWEEN.
      "SELECT COUNT(*) FROM flows WHERE data_count BETWEEN 100 AND 9000",
      // attr-vs-attr.
      "SELECT COUNT(*) FROM flows WHERE data_count < flow_rate",
      "SELECT COUNT(*) FROM flows WHERE data_loss > retransmissions",
      // SUM and AVG ... WHERE.
      "SELECT SUM(retransmissions) FROM flows",
      "SELECT AVG(data_count) FROM flows WHERE flow_rate > 1000",
      // SELECT * with and without LIMIT.
      "SELECT * FROM flows WHERE data_count < 3000",
      "SELECT * FROM flows WHERE data_count < 3000 LIMIT 10",
  };
  const auto run_all = [&]() {
    for (const std::string& sql : statements) {
      auto result = session.Execute(sql);
      EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    }
  };
  const auto expect_staged = [](const Device& dev, const std::string& what) {
    size_t staged = 0;
    for (const PassRecord& pass : dev.counters().pass_log) {
      EXPECT_NE(pass.kernel, PassKernel::kGeneric)
          << what << ": pass " << pass.label;
      if (pass.kernel == PassKernel::kStagedSimd) ++staged;
    }
    return staged;
  };

  // Single device, plane cache on (select_hot) and off.
  core::PlanOptions plan;
  plan.plane_cache = true;
  session.set_plan_options(plan);
  run_all();
  plan.plane_cache = false;
  session.set_plan_options(plan);
  run_all();
  EXPECT_GT(expect_staged(device, "session device"), 0u);

  // Through the shard pool (materialize_pool).
  session.SetDevicePool(pool.get(), 4);
  run_all();
  for (int d = 0; d < pool->size(); ++d) {
    EXPECT_GT(expect_staged(pool->device(d), "pool device " + std::to_string(d)),
              0u);
  }
}

}  // namespace
}  // namespace gpu
}  // namespace gpudb
