#ifndef GPUDB_CORE_EVAL_CNF_H_
#define GPUDB_CORE_EVAL_CNF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/core/compare.h"
#include "src/core/planner.h"
#include "src/core/semilinear.h"
#include "src/gpu/device.h"

namespace gpudb {
namespace core {

/// \brief A simple predicate lowered to its GPU execution strategy:
/// attribute-vs-constant comparisons run through the depth test (Routine
/// 4.1); attribute-vs-attribute comparisons are rewritten as semi-linear
/// queries `a_i - a_j op 0` and run through a fragment program (Routine 4.2).
struct GpuPredicate {
  enum class Kind { kDepthCompare, kSemilinear };

  Kind kind = Kind::kDepthCompare;

  // kDepthCompare: attribute op constant.
  AttributeBinding attr;
  gpu::CompareOp op = gpu::CompareOp::kAlways;
  double constant = 0.0;

  // kSemilinear: dot(weights, texture channels) op b.
  gpu::TextureId texture = -1;
  SemilinearQuery query;

  static GpuPredicate DepthCompare(const AttributeBinding& attr,
                                   gpu::CompareOp op, double constant);
  static GpuPredicate Semilinear(gpu::TextureId texture,
                                 const SemilinearQuery& query);
};

/// One CNF clause: disjunction of simple predicates.
using GpuClause = std::vector<GpuPredicate>;

/// \brief Outcome of a GPU selection: which stencil value marks selected
/// records, and how many there are.
struct StencilSelection {
  uint8_t valid_value = 1;  ///< stencil == valid_value <=> record selected.
  uint64_t count = 0;
};

/// One DNF term: conjunction of simple predicates.
using GpuTerm = std::vector<GpuPredicate>;

/// \brief How a selection executes, plus what actually happened (DESIGN.md
/// §14). The caller fills the plan and cache identity; the evaluators fill
/// the outcome counters, which the executor surfaces as EXPLAIN annotations.
///
/// A default-constructed value is the identity plan -- no chain, no fused
/// count, no fused compares, no cache -- under which EvalCnf and EvalDnf
/// issue exactly the paper's pass sequences (Routine 4.3 and its §4.2 DNF
/// modification), every depth compare as Routine 4.1's CopyToDepth +
/// comparison-quad pair.
struct SelectionExecOptions {
  PassPlan plan;
  /// Depth-plane caching for kDepthCompare predicates. Requires `table`
  /// and per-predicate column indices; predicates without a column identity
  /// fall back to fusion (if planned) or the classic pair.
  bool use_cache = false;
  std::string table;
  uint64_t table_version = 0;

  // Exec-time outcomes.
  int fused_passes = 0;
  int cache_hits = 0;
  int cache_misses = 0;
};

/// \brief Routine 4.3 (EvalCNF): evaluates A_1 AND ... AND A_k where each
/// A_i is a disjunction of simple predicates.
///
/// Under the identity plan (`opts` null or default) it uses the three
/// stencil values {0, 1, 2} exactly as the paper describes: the stencil is
/// cleared to 1; clause i alternates the valid value between 1 and 2 via
/// INCR/DECR, with a cleanup pass zeroing records that failed the clause.
/// The valid value is 2 if the clause count is odd, 1 if even, and one
/// extra counting pass reports the selected-record count.
///
/// The planner's rewrites (PassPlan) change only the pass sequence, never
/// the answer -- same mask, same count, at any thread count:
///  * `chain` (every clause a single predicate, at most 254 of them):
///    predicate i passes records from stencil value i+1 to i+2, so no
///    cleanup passes run and the valid value is k+1;
///  * `fused_count` (with `chain`): the last predicate pass carries the
///    occlusion query, replacing the counting pass;
///  * `fused_compares` / `use_cache`: each depth compare runs as one fused
///    copy+compare pass or restores its depth plane from the cache.
/// `opts`, when given, also receives the outcome counters.
[[nodiscard]] Result<StencilSelection> EvalCnf(
    gpu::Device* device, const std::vector<GpuClause>& clauses,
    SelectionExecOptions* opts = nullptr);

/// \brief DNF evaluation -- the paper's claimed easy modification of
/// Routine 4.3 ("We can easily modify our algorithm for handling a boolean
/// expression represented as a DNF", Section 4.2). Evaluates
/// T_1 OR T_2 OR ... OR T_k where each T_i is a conjunction of at most 254
/// predicates.
///
/// Stencil scheme: candidates hold 1, records selected by some term hold 0
/// (ZERO is the only reference-free "stamp" operation, which makes 0 the
/// natural selected marker). Each term runs the same stencil chain as
/// EvalCnf's `chain` plan, 1 -> m+1 over the candidates, stamps the
/// survivors to 0, and decrements partial chains back to 1 for the next
/// term. The skeleton admits no chain rewrite; only the per-predicate
/// rewrites of `opts` (fused compares, plane cache) apply.
///
/// On return the stencil marks selected records with value 0 (the returned
/// StencilSelection's valid_value).
[[nodiscard]] Result<StencilSelection> EvalDnf(
    gpu::Device* device, const std::vector<GpuTerm>& terms,
    SelectionExecOptions* opts = nullptr);

}  // namespace core
}  // namespace gpudb

#endif  // GPUDB_CORE_EVAL_CNF_H_
