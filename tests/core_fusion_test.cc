// Planner pass fusion + depth-plane caching (DESIGN.md §14): the rewritten
// plans must be bit-exact with the reference pass sequences -- same counts,
// same stencil masks -- while issuing fewer passes (fusion) or skipping
// attribute copies (cache). Also unit-tests PlanSelectionPasses and the
// gpu::PlaneCache container itself (LRU, invalidation, budget priority).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/compare.h"
#include "src/core/eval_cnf.h"
#include "src/core/planner.h"
#include "src/gpu/device.h"
#include "src/gpu/plane_cache.h"
#include "tests/test_util.h"

namespace gpudb {
namespace core {
namespace {

using gpu::CompareOp;
using testing_util::RandomInts;
using testing_util::UploadIntAttribute;

constexpr int kBitWidth = 16;
constexpr size_t kRecords = 2500;

GpuPredicate Depth(const AttributeBinding& attr, CompareOp op, double c) {
  return GpuPredicate::DepthCompare(attr, op, c);
}

/// Boolean selection mask from the current stencil contents.
std::vector<bool> SelectionMask(gpu::Device* device, uint8_t valid,
                                size_t n) {
  auto stencil = device->ReadStencil();
  EXPECT_TRUE(stencil.ok());
  std::vector<bool> mask(n);
  for (size_t i = 0; i < n; ++i) {
    mask[i] = stencil.ValueOrDie()[i] == valid;
  }
  return mask;
}

// ---------------------------------------------------------------------------
// PlanSelectionPasses: the plans and the pass sequences they measurably run.

class PassPlanTest : public ::testing::Test {
 protected:
  PassPlanTest() : device_(64, 64) {
    const std::vector<uint32_t> ints = RandomInts(kRecords, kBitWidth, 11);
    const std::vector<float> a = testing_util::ToFloats(ints);
    const std::vector<float> b =
        testing_util::ToFloats(RandomInts(kRecords, kBitWidth, 12));
    auto pair = gpu::Texture::FromColumns({&a, &b}, 64);
    EXPECT_TRUE(pair.ok());
    pair_ = device_.UploadTexture(std::move(pair).ValueOrDie()).ValueOrDie();
    attr_ = UploadIntAttribute(&device_, ints, 64);
  }

  /// Device passes one EvalCnf under `opts` renders.
  uint64_t CnfPasses(const std::vector<GpuClause>& clauses,
                     SelectionExecOptions opts) {
    const uint64_t before = device_.counters().passes;
    auto sel = EvalCnf(&device_, clauses, &opts);
    EXPECT_TRUE(sel.ok()) << sel.status().ToString();
    return device_.counters().passes - before;
  }

  /// CnfPasses under a plan alone (no cache).
  uint64_t CnfPasses(const std::vector<GpuClause>& clauses,
                     const PassPlan& plan) {
    SelectionExecOptions opts;
    opts.plan = plan;
    return CnfPasses(clauses, opts);
  }

  /// `a op b` over the pair texture, as a semilinear predicate.
  GpuPredicate AttrCompare(CompareOp op) const {
    return GpuPredicate::Semilinear(pair_,
                                    SemilinearQuery::AttrCompare(0, op, 1));
  }

  gpu::Device device_;
  gpu::TextureId pair_ = -1;
  AttributeBinding attr_;
};

TEST_F(PassPlanTest, IdentityCnfRunsRoutine43) {
  // Identity plan: 2 passes per depth compare (copy + compare), 1 per
  // semilinear predicate, 1 cleanup per clause, 1 count.
  const std::vector<GpuClause> clauses = {
      {Depth(attr_, CompareOp::kLess, 10000), AttrCompare(CompareOp::kLess)},
      {Depth(attr_, CompareOp::kNotEqual, 0)},
      {AttrCompare(CompareOp::kGreaterEqual)}};
  EXPECT_EQ(CnfPasses(clauses, PassPlan{}), 2u * 2 + 2 + 3 + 1);
  // Fusion off plans the identity.
  const PassPlan off = PlanSelectionPasses(clauses, false, false);
  EXPECT_FALSE(off.Rewritten());
  EXPECT_EQ(CnfPasses(clauses, off), 2u * 2 + 2 + 3 + 1);
}

TEST_F(PassPlanTest, SingletonCnfCollapsesToCountedChain) {
  const std::vector<GpuClause> clauses = {
      {Depth(attr_, CompareOp::kGreater, 10)},
      {Depth(attr_, CompareOp::kLess, 60000)},
      {Depth(attr_, CompareOp::kNotEqual, 50)}};
  const PassPlan plan = PlanSelectionPasses(clauses, /*fusion_enabled=*/true,
                                            /*cache_enabled=*/false);
  EXPECT_TRUE(plan.chain);
  EXPECT_TRUE(plan.fused_count);
  EXPECT_TRUE(plan.fused_compares);
  EXPECT_TRUE(plan.Rewritten());
  // Reference: 3 copies + 3 compares + 3 cleanups + 1 count = 10.
  EXPECT_EQ(CnfPasses(clauses, PassPlan{}), 10u);
  // Rewritten: 3 fused compare passes, count carried by the last one.
  EXPECT_EQ(CnfPasses(clauses, plan), 3u);
}

TEST_F(PassPlanTest, MultiPredicateClauseKeepsTheCnfSkeleton) {
  const std::vector<GpuClause> clauses = {
      {Depth(attr_, CompareOp::kLess, 10), Depth(attr_, CompareOp::kGreater, 90)},
      {Depth(attr_, CompareOp::kNotEqual, 0)}};
  const PassPlan plan = PlanSelectionPasses(clauses, true, false);
  EXPECT_FALSE(plan.chain);
  EXPECT_FALSE(plan.fused_count);
  EXPECT_TRUE(plan.fused_compares);
  // Reference: 3 copies + 3 compares + 2 cleanups + 1 count = 9.
  EXPECT_EQ(CnfPasses(clauses, PassPlan{}), 9u);
  // Rewritten: 3 fused + 2 cleanups + 1 count = 6.
  EXPECT_EQ(CnfPasses(clauses, plan), 6u);
}

TEST_F(PassPlanTest, CacheDisablesCompareFusionButKeepsTheChain) {
  const std::vector<GpuClause> clauses = {
      {Depth(attr_, CompareOp::kGreater, 10)},
      {Depth(attr_, CompareOp::kLess, 90)}};
  const PassPlan plan = PlanSelectionPasses(clauses, true, true);
  EXPECT_TRUE(plan.chain);
  EXPECT_TRUE(plan.fused_count);
  // Cacheable predicates keep the copy separate so the depth plane can be
  // snapshotted and restored across queries.
  EXPECT_FALSE(plan.fused_compares);
  // 2 copies + 2 compares, count carried by the final compare.
  EXPECT_EQ(CnfPasses(clauses, plan), 4u);
  // The chain without fusion or a fused count: 2k + 1.
  PassPlan chain;
  chain.chain = true;
  EXPECT_EQ(CnfPasses(clauses, chain), 2u * 2 + 1);
}

TEST_F(PassPlanTest, DnfRunsOneChainPerTerm) {
  // Per term of m predicates: the chain (2 passes per depth compare), one
  // stamp pass, m - 1 walk-down passes; then one count. This is the
  // sequence bench/ablation_dnf_vs_cnf prices.
  const std::vector<GpuTerm> terms = {
      {Depth(attr_, CompareOp::kLess, 10000),
       Depth(attr_, CompareOp::kGreater, 2000)},
      {Depth(attr_, CompareOp::kGreaterEqual, 60000)}};
  const uint64_t before = device_.counters().passes;
  ASSERT_TRUE(EvalDnf(&device_, terms).ok());
  EXPECT_EQ(device_.counters().passes - before,
            (2u * 2 + 1 + 1) + (2u * 1 + 1 + 0) + 1);
  SelectionExecOptions fused;
  fused.plan.fused_compares = true;
  const uint64_t before_fused = device_.counters().passes;
  ASSERT_TRUE(EvalDnf(&device_, terms, &fused).ok());
  EXPECT_EQ(device_.counters().passes - before_fused,
            (2u + 1 + 1) + (1u + 1 + 0) + 1);
}

// ---------------------------------------------------------------------------
// Fused copy+compare: bit-exact with the reference pair for every operator.

TEST(FusedCompareTest, MatchesUnfusedForEveryOperatorAndConstant) {
  const std::vector<uint32_t> ints = RandomInts(kRecords, kBitWidth, 42);
  const double present = static_cast<double>(ints[7]);  // boundary stress
  for (const CompareOp op :
       {CompareOp::kLess, CompareOp::kLessEqual, CompareOp::kEqual,
        CompareOp::kGreaterEqual, CompareOp::kGreater, CompareOp::kNotEqual}) {
    for (const double constant : {present, 0.0, 40000.0}) {
      gpu::Device device(64, 64);
      AttributeBinding attr = UploadIntAttribute(&device, ints, 64);
      const std::vector<GpuClause> clauses = {{Depth(attr, op, constant)}};

      auto ref = EvalCnf(&device, clauses);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      const std::vector<bool> ref_mask =
          SelectionMask(&device, ref.ValueOrDie().valid_value, kRecords);

      SelectionExecOptions opts;
      opts.plan = PlanSelectionPasses(clauses, true, false);
      const uint64_t passes_before = device.counters().passes;
      auto fused = EvalCnf(&device, clauses, &opts);
      ASSERT_TRUE(fused.ok()) << fused.status().ToString();
      const std::string what = std::string(gpu::ToString(op)) + " " +
                               std::to_string(constant);
      EXPECT_EQ(fused.ValueOrDie().count, ref.ValueOrDie().count) << what;
      EXPECT_EQ(SelectionMask(&device, fused.ValueOrDie().valid_value,
                              kRecords),
                ref_mask)
          << what;
      EXPECT_EQ(opts.fused_passes, 1) << what;
      // The whole selection ran in one pass (count via the same pass).
      EXPECT_EQ(device.counters().passes - passes_before, 1u) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// Planned evaluators vs. the identity plan.

class PlannedEvalTest : public ::testing::Test {
 protected:
  PlannedEvalTest() : device_(64, 64) {
    ints_ = RandomInts(kRecords, kBitWidth, 20260806);
    attr_ = UploadIntAttribute(&device_, ints_, 64);
  }

  gpu::Device device_;
  std::vector<uint32_t> ints_;
  AttributeBinding attr_;
};

TEST_F(PlannedEvalTest, GeneralCnfMatchesLegacyWithFewerPasses) {
  const std::vector<GpuClause> clauses = {
      {Depth(attr_, CompareOp::kLess, 16000),
       Depth(attr_, CompareOp::kGreaterEqual, 48000)},
      {Depth(attr_, CompareOp::kNotEqual, 0)}};

  const uint64_t before_ref = device_.counters().passes;
  auto ref = EvalCnf(&device_, clauses);
  ASSERT_TRUE(ref.ok());
  const uint64_t ref_passes = device_.counters().passes - before_ref;
  const std::vector<bool> ref_mask =
      SelectionMask(&device_, ref.ValueOrDie().valid_value, kRecords);

  SelectionExecOptions opts;
  opts.plan = PlanSelectionPasses(clauses, true, false);
  const uint64_t before = device_.counters().passes;
  auto planned = EvalCnf(&device_, clauses, &opts);
  ASSERT_TRUE(planned.ok());
  const uint64_t planned_passes = device_.counters().passes - before;

  EXPECT_EQ(planned.ValueOrDie().count, ref.ValueOrDie().count);
  EXPECT_EQ(planned.ValueOrDie().valid_value, ref.ValueOrDie().valid_value);
  EXPECT_EQ(
      SelectionMask(&device_, planned.ValueOrDie().valid_value, kRecords),
      ref_mask);
  EXPECT_EQ(opts.fused_passes, 3);
  EXPECT_LT(planned_passes, ref_passes);
  EXPECT_EQ(device_.counters().fused_passes, 3u);
}

TEST_F(PlannedEvalTest, SingletonChainMatchesLegacyCount) {
  const std::vector<GpuClause> clauses = {
      {Depth(attr_, CompareOp::kGreater, 8000)},
      {Depth(attr_, CompareOp::kLess, 56000)},
      {Depth(attr_, CompareOp::kNotEqual, 12345)}};

  auto ref = EvalCnf(&device_, clauses);
  ASSERT_TRUE(ref.ok());
  const std::vector<bool> ref_mask =
      SelectionMask(&device_, ref.ValueOrDie().valid_value, kRecords);

  SelectionExecOptions opts;
  opts.plan = PlanSelectionPasses(clauses, true, false);
  ASSERT_TRUE(opts.plan.chain);
  const uint64_t before = device_.counters().passes;
  auto planned = EvalCnf(&device_, clauses, &opts);
  ASSERT_TRUE(planned.ok());

  // Chain + fused count: one pass per predicate, nothing else.
  EXPECT_EQ(device_.counters().passes - before, clauses.size());
  EXPECT_EQ(planned.ValueOrDie().count, ref.ValueOrDie().count);
  // The chain walks the stencil up to k+1 instead of parity-flipping
  // between 1 and 2, so the valid *value* differs; the selected *set*
  // must not.
  EXPECT_EQ(planned.ValueOrDie().valid_value, clauses.size() + 1);
  EXPECT_EQ(
      SelectionMask(&device_, planned.ValueOrDie().valid_value, kRecords),
      ref_mask);
}

TEST_F(PlannedEvalTest, DnfMatchesLegacy) {
  const std::vector<GpuTerm> terms = {
      {Depth(attr_, CompareOp::kLess, 10000),
       Depth(attr_, CompareOp::kGreater, 2000)},
      {Depth(attr_, CompareOp::kGreaterEqual, 60000)}};

  auto ref = EvalDnf(&device_, terms);
  ASSERT_TRUE(ref.ok());
  const std::vector<bool> ref_mask =
      SelectionMask(&device_, ref.ValueOrDie().valid_value, kRecords);

  SelectionExecOptions opts;
  opts.plan = PlanSelectionPasses(terms, true, false);
  opts.plan.chain = false;  // executor clears the chain rules for DNF
  opts.plan.fused_count = false;
  auto planned = EvalDnf(&device_, terms, &opts);
  ASSERT_TRUE(planned.ok());

  EXPECT_EQ(planned.ValueOrDie().count, ref.ValueOrDie().count);
  EXPECT_EQ(planned.ValueOrDie().valid_value, ref.ValueOrDie().valid_value);
  EXPECT_EQ(
      SelectionMask(&device_, planned.ValueOrDie().valid_value, kRecords),
      ref_mask);
  EXPECT_EQ(opts.fused_passes, 3);
}

// ---------------------------------------------------------------------------
// Depth-plane cache: hit/miss behaviour, bit-exactness, invalidation, LRU.

class PlaneCacheExecTest : public ::testing::Test {
 protected:
  PlaneCacheExecTest() : device_(64, 64) {
    ints_ = RandomInts(kRecords, kBitWidth, 7);
    attr_ = UploadIntAttribute(&device_, ints_, 64);
    attr_.column = 0;
  }

  SelectionExecOptions CachedOpts(const std::vector<GpuClause>& clauses,
                                  uint64_t version = 1) {
    SelectionExecOptions opts;
    opts.plan = PlanSelectionPasses(clauses, true, true);
    opts.use_cache = true;
    opts.table = "t";
    opts.table_version = version;
    return opts;
  }

  gpu::Device device_;
  std::vector<uint32_t> ints_;
  AttributeBinding attr_;
};

TEST_F(PlaneCacheExecTest, MissThenHitStaysBitExactAndSkipsTheCopy) {
  const std::vector<GpuClause> clauses = {
      {Depth(attr_, CompareOp::kGreater, 30000)}};

  auto ref = EvalCnf(&device_, clauses);
  ASSERT_TRUE(ref.ok());

  SelectionExecOptions cold = CachedOpts(clauses);
  auto first = EvalCnf(&device_, clauses, &cold);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cold.cache_misses, 1);
  EXPECT_EQ(cold.cache_hits, 0);
  EXPECT_EQ(cold.fused_passes, 0);  // cacheable predicates are not fused
  EXPECT_EQ(first.ValueOrDie().count, ref.ValueOrDie().count);

  SelectionExecOptions warm = CachedOpts(clauses);
  auto second = EvalCnf(&device_, clauses, &warm);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(warm.cache_hits, 1);
  EXPECT_EQ(warm.cache_misses, 0);
  EXPECT_EQ(second.ValueOrDie().count, ref.ValueOrDie().count);

  EXPECT_EQ(device_.counters().plane_cache_hits, 1u);
  EXPECT_EQ(device_.counters().plane_cache_misses, 1u);
  // The warm query ran no CopyToDepth: its pass log is restore + compare,
  // and the restore is flagged as a cache hit.
  const auto& log = device_.counters().pass_log;
  ASSERT_GE(log.size(), 2u);
  const auto& restore = log[log.size() - 2];
  EXPECT_EQ(restore.label, "plane-restore");
  EXPECT_TRUE(restore.cache_hit);
}

TEST_F(PlaneCacheExecTest, RestoredPlaneIsBitExact) {
  const std::vector<GpuClause> clauses = {
      {Depth(attr_, CompareOp::kLessEqual, 20000)}};
  SelectionExecOptions cold = CachedOpts(clauses);
  ASSERT_TRUE(EvalCnf(&device_, clauses, &cold).ok());
  auto after_copy = device_.ReadDepth();
  ASSERT_TRUE(after_copy.ok());

  device_.ClearDepth(0.0f);  // scribble over the plane
  SelectionExecOptions warm = CachedOpts(clauses);
  ASSERT_TRUE(EvalCnf(&device_, clauses, &warm).ok());
  ASSERT_EQ(warm.cache_hits, 1);
  auto after_restore = device_.ReadDepth();
  ASSERT_TRUE(after_restore.ok());
  // The cache covers the viewport's texels; the framebuffer tail beyond
  // them is scratch.
  const std::vector<uint32_t> copied(after_copy.ValueOrDie().begin(),
                                     after_copy.ValueOrDie().begin() + kRecords);
  const std::vector<uint32_t> restored(
      after_restore.ValueOrDie().begin(),
      after_restore.ValueOrDie().begin() + kRecords);
  EXPECT_EQ(copied, restored);
}

TEST_F(PlaneCacheExecTest, TableInvalidationAndVersionChangeBothMiss) {
  const std::vector<GpuClause> clauses = {
      {Depth(attr_, CompareOp::kGreater, 100)}};
  SelectionExecOptions cold = CachedOpts(clauses);
  ASSERT_TRUE(EvalCnf(&device_, clauses, &cold).ok());
  ASSERT_EQ(cold.cache_misses, 1);

  // Version bump: the old plane is still resident but its key no longer
  // matches, so the query misses (and re-caches under the new version).
  SelectionExecOptions v2 = CachedOpts(clauses, /*version=*/2);
  ASSERT_TRUE(EvalCnf(&device_, clauses, &v2).ok());
  EXPECT_EQ(v2.cache_misses, 1);
  EXPECT_EQ(v2.cache_hits, 0);

  // Eager invalidation: planes for the table are dropped outright.
  device_.InvalidateCachedPlanes("t");
  EXPECT_EQ(device_.plane_cache().size(), 0u);
  SelectionExecOptions after = CachedOpts(clauses, /*version=*/2);
  ASSERT_TRUE(EvalCnf(&device_, clauses, &after).ok());
  EXPECT_EQ(after.cache_misses, 1);
}

TEST_F(PlaneCacheExecTest, PredicateWithoutColumnIdentityIsNotCached) {
  AttributeBinding anon = attr_;
  anon.column = -1;
  const std::vector<GpuClause> clauses = {
      {Depth(anon, CompareOp::kGreater, 30000)}};
  SelectionExecOptions opts = CachedOpts(clauses);
  auto sel = EvalCnf(&device_, clauses, &opts);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(opts.cache_hits + opts.cache_misses, 0);
  EXPECT_EQ(device_.plane_cache().size(), 0u);
}

// ---------------------------------------------------------------------------
// gpu::PlaneCache container semantics.

TEST(PlaneCacheTest, LruEvictionAndInvalidation) {
  gpu::PlaneCache cache;
  gpu::PlaneKey a{"t", 1, 0, 1.0, 0.0, 4};
  gpu::PlaneKey b{"t", 1, 1, 1.0, 0.0, 4};
  gpu::PlaneKey c{"u", 1, 0, 1.0, 0.0, 4};
  cache.Insert(a, {1, 2, 3, 4});
  cache.Insert(b, {5, 6, 7, 8});
  cache.Insert(c, {9, 10, 11, 12});
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.bytes(), 3u * 4u * sizeof(uint32_t));

  // Touch `a` so `b` is the least recently used.
  ASSERT_NE(cache.Lookup(a), nullptr);
  ASSERT_TRUE(cache.EvictLru());
  EXPECT_EQ(cache.Lookup(b), nullptr);
  EXPECT_NE(cache.Lookup(a), nullptr);

  // Table invalidation drops only that table's planes.
  EXPECT_EQ(cache.InvalidateTable("t"), 1u);
  EXPECT_EQ(cache.Lookup(a), nullptr);
  EXPECT_NE(cache.Lookup(c), nullptr);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_FALSE(cache.EvictLru());
}

TEST(PlaneCacheTest, KeyDiscriminatesEveryField) {
  gpu::PlaneCache cache;
  const gpu::PlaneKey base{"t", 1, 0, 1.0, 0.0, 8};
  cache.Insert(base, std::vector<uint32_t>(8, 7));
  for (gpu::PlaneKey k :
       {gpu::PlaneKey{"u", 1, 0, 1.0, 0.0, 8},   // table
        gpu::PlaneKey{"t", 2, 0, 1.0, 0.0, 8},   // version
        gpu::PlaneKey{"t", 1, 1, 1.0, 0.0, 8},   // column
        gpu::PlaneKey{"t", 1, 0, 2.0, 0.0, 8},   // scale
        gpu::PlaneKey{"t", 1, 0, 1.0, 1.0, 8},   // offset
        gpu::PlaneKey{"t", 1, 0, 1.0, 0.0, 4}}) {  // viewport
    EXPECT_EQ(cache.Lookup(k), nullptr);
  }
  EXPECT_NE(cache.Lookup(base), nullptr);
}

TEST(PlaneCacheBudgetTest, PlanesNeverDisplaceTexturesAndEvictLruFirst) {
  const std::vector<uint32_t> ints = RandomInts(kRecords, kBitWidth, 99);
  gpu::Device device(64, 64);
  AttributeBinding attr = UploadIntAttribute(&device, ints, 64);
  attr.column = 0;
  const uint64_t texture_bytes = device.video_memory_used();
  ASSERT_GT(texture_bytes, 0u);
  const uint64_t plane_bytes = device.viewport_pixels() * sizeof(uint32_t);

  // Budget with room for the texture plus exactly one cached plane.
  ASSERT_TRUE(
      device.SetVideoMemoryBudget(texture_bytes + plane_bytes).ok());

  gpu::PlaneKey k0{"t", 1, 0, attr.encoding.scale, attr.encoding.offset,
                   device.viewport_pixels()};
  gpu::PlaneKey k1 = k0;
  k1.column = 1;
  ASSERT_TRUE(CopyToDepth(&device, attr).ok());
  ASSERT_TRUE(device.CacheDepthPlane(k0).ok());
  EXPECT_EQ(device.plane_cache().size(), 1u);

  // A second plane exceeds the budget: the LRU plane is evicted and the
  // texture stays resident (planes are strictly lower priority).
  ASSERT_TRUE(device.CacheDepthPlane(k1).ok());
  EXPECT_EQ(device.plane_cache().size(), 1u);
  EXPECT_TRUE(device.plane_cache().Contains(k1));
  EXPECT_EQ(device.video_memory_used(), texture_bytes);
  EXPECT_LE(device.video_memory_used() + device.plane_cache().bytes(),
            texture_bytes + plane_bytes);

  // Shrinking the budget to texture-only drains the plane cache before
  // touching any texture.
  ASSERT_TRUE(device.SetVideoMemoryBudget(texture_bytes).ok());
  EXPECT_EQ(device.plane_cache().size(), 0u);
  EXPECT_EQ(device.video_memory_used(), texture_bytes);

  // With no headroom at all, caching silently skips (the query already has
  // its answer; the cache is an optimization, never an error).
  ASSERT_TRUE(device.CacheDepthPlane(k0).ok());
  EXPECT_EQ(device.plane_cache().size(), 0u);
}

}  // namespace
}  // namespace core
}  // namespace gpudb
