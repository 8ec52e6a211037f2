#include "src/core/eval_cnf.h"

#include <string>

#include "src/core/count.h"
#include "src/core/op_span.h"
#include "src/core/state_guard.h"

namespace gpudb {
namespace core {

GpuPredicate GpuPredicate::DepthCompare(const AttributeBinding& attr,
                                        gpu::CompareOp op, double constant) {
  GpuPredicate p;
  p.kind = Kind::kDepthCompare;
  p.attr = attr;
  p.op = op;
  p.constant = constant;
  return p;
}

GpuPredicate GpuPredicate::Semilinear(gpu::TextureId texture,
                                      const SemilinearQuery& query) {
  GpuPredicate p;
  p.kind = Kind::kSemilinear;
  p.texture = texture;
  p.query = query;
  return p;
}

namespace {

/// Evaluates one simple predicate with the caller's stencil configuration
/// active, leaving the stencil config untouched. The plan picks how a depth
/// compare runs: restored from the depth-plane cache, as one fused
/// copy+compare pass, or -- under the identity plan -- as Routine 4.1's
/// CopyToDepth + comparison-quad pair. When `begin_occlusion` is set, the
/// occlusion query is begun immediately before the comparison pass itself
/// -- after any copy/restore/snapshot passes, whose fragments must not be
/// counted -- so the caller can read the survivor count of exactly the
/// predicate's comparison.
Status ExecPredicate(gpu::Device* device, const GpuPredicate& pred,
                     SelectionExecOptions* opts, bool begin_occlusion) {
  switch (pred.kind) {
    case GpuPredicate::Kind::kDepthCompare: {
      const bool cacheable = opts->use_cache && !opts->table.empty() &&
                             pred.attr.column >= 0;
      if (cacheable) {
        gpu::PlaneKey key;
        key.table = opts->table;
        key.version = opts->table_version;
        key.column = pred.attr.column;
        key.scale = pred.attr.encoding.scale;
        key.offset = pred.attr.encoding.offset;
        key.viewport_pixels = device->viewport_pixels();
        GPUDB_ASSIGN_OR_RETURN(const bool hit,
                               device->RestoreCachedDepthPlane(key));
        if (hit) {
          ++opts->cache_hits;
        } else {
          ++opts->cache_misses;
          GPUDB_RETURN_NOT_OK(CopyToDepth(device, pred.attr));
          GPUDB_RETURN_NOT_OK(device->CacheDepthPlane(key));
        }
        if (begin_occlusion) GPUDB_RETURN_NOT_OK(device->BeginOcclusionQuery());
        return CompareQuad(device, pred.op, pred.constant, pred.attr.encoding);
      }
      if (opts->plan.fused_compares) {
        ++opts->fused_passes;
        if (begin_occlusion) GPUDB_RETURN_NOT_OK(device->BeginOcclusionQuery());
        return FusedComparePass(device, pred.attr, pred.op, pred.constant);
      }
      // CopyToDepth runs under its own state guard (stencil disabled), then
      // the comparison quad triggers the caller's stencil ops.
      GPUDB_RETURN_NOT_OK(CopyToDepth(device, pred.attr));
      if (begin_occlusion) GPUDB_RETURN_NOT_OK(device->BeginOcclusionQuery());
      return CompareQuad(device, pred.op, pred.constant, pred.attr.encoding);
    }
    case GpuPredicate::Kind::kSemilinear:
      // Fragments failing the query are killed before the stencil stage;
      // survivors trigger the caller's Op3. The depth unit must be inert.
      device->SetDepthTest(false, gpu::CompareOp::kAlways);
      device->SetDepthBoundsTest(false);
      if (begin_occlusion) GPUDB_RETURN_NOT_OK(device->BeginOcclusionQuery());
      return SemilinearQuad(device, pred.texture, pred.query);
  }
  return Status::Internal("corrupt GpuPredicate");
}

/// The stencil chain shared by EvalCnf's `chain` plan and every EvalDnf
/// term: over records holding stencil 1, predicate j (of n) passes records
/// from value j+1 to j+2, so a record ends at n+1 iff it satisfied all n.
/// With `count_last`, the last predicate pass carries the occlusion query.
/// Returns n+1, the value marking the survivors.
template <typename PredicateAt>
Result<uint8_t> StencilChain(gpu::Device* device, size_t n,
                             const PredicateAt& predicate_at,
                             SelectionExecOptions* opts, bool count_last) {
  if (n > 254) {
    return Status::ResourceExhausted(
        "a stencil chain supports at most 254 predicates (8-bit stencil); "
        "got " +
        std::to_string(n));
  }
  uint8_t value = 1;
  for (size_t j = 0; j < n; ++j) {
    // Cooperative cancellation between predicate passes (lint rule R2).
    GPUDB_RETURN_NOT_OK(device->CheckInterrupt());
    device->SetStencilTest(true, gpu::CompareOp::kEqual, value);
    device->SetStencilOp(gpu::StencilOp::kKeep, gpu::StencilOp::kKeep,
                         gpu::StencilOp::kIncr);
    GPUDB_RETURN_NOT_OK(ExecPredicate(device, predicate_at(j), opts,
                                      count_last && j + 1 == n));
    ++value;
  }
  return value;
}

Status ValidateClauses(const std::vector<GpuClause>& clauses, bool chain) {
  if (clauses.empty()) {
    return Status::InvalidArgument("EvalCnf requires at least one clause");
  }
  for (const GpuClause& clause : clauses) {
    if (clause.empty()) {
      return Status::InvalidArgument("EvalCnf: empty clause");
    }
    if (chain && clause.size() != 1) {
      return Status::InvalidArgument(
          "EvalCnf: a chain plan requires single-predicate clauses");
    }
  }
  return Status::OK();
}

}  // namespace

Result<StencilSelection> EvalCnf(gpu::Device* device,
                                 const std::vector<GpuClause>& clauses,
                                 SelectionExecOptions* opts) {
  SelectionExecOptions identity;
  if (opts == nullptr) opts = &identity;
  GPUDB_RETURN_NOT_OK(ValidateClauses(clauses, opts->plan.chain));
  GpuOpSpan op("EvalCnf", device);
  if (op.active()) {
    size_t predicates = 0;
    for (const GpuClause& clause : clauses) predicates += clause.size();
    op.AddTag("clauses", clauses.size());
    op.AddTag("predicates", predicates);
  }
  StateGuard guard(device);
  device->SetAlphaTest(false, gpu::CompareOp::kAlways, 0.0f);
  device->SetColorWriteMask(false);

  // Line 1: Clear Stencil to 1 (TRUE AND A_1).
  device->ClearStencil(1);

  const size_t k = clauses.size();
  StencilSelection sel;
  const bool count_in_chain = opts->plan.chain && opts->plan.fused_count;
  if (opts->plan.chain) {
    // Every clause is a single predicate, so the INCR/DECR parity dance and
    // its cleanup passes are unnecessary: identical survivor sets per pass
    // give the identical final mask and count.
    GPUDB_ASSIGN_OR_RETURN(
        sel.valid_value,
        StencilChain(
            device, k,
            [&](size_t j) -> const GpuPredicate& { return clauses[j].front(); },
            opts, count_in_chain));
  } else {
    for (size_t i = 1; i <= k; ++i) {
      // Cooperative cancellation between clauses (large CNFs run thousands
      // of passes; the per-pass device check bounds the latency either way).
      GPUDB_RETURN_NOT_OK(device->CheckInterrupt());
      const bool odd = (i % 2) == 1;
      // Lines 4-10: valid records hold 1 on odd iterations (passing ones are
      // INCRemented to 2), 2 on even iterations (passing ones DECRemented
      // back to 1). Records that already passed an earlier predicate of this
      // clause no longer match the valid value, so they cannot be bumped
      // twice -- this is what makes the disjunction work.
      device->SetStencilTest(true, gpu::CompareOp::kEqual, odd ? 1 : 2);
      device->SetStencilOp(gpu::StencilOp::kKeep, gpu::StencilOp::kKeep,
                           odd ? gpu::StencilOp::kIncr : gpu::StencilOp::kDecr);
      // Lines 11-14: evaluate each B_ij of the clause.
      for (const GpuPredicate& pred : clauses[i - 1]) {
        // Cooperative cancellation between predicate passes (lint rule R2).
        GPUDB_RETURN_NOT_OK(device->CheckInterrupt());
        GPUDB_RETURN_NOT_OK(
            ExecPredicate(device, pred, opts, /*begin_occlusion=*/false));
      }
      // Lines 15-19: records still holding the old valid value failed every
      // B_ij of this clause -> invalidate them (stencil 0).
      GPUDB_RETURN_NOT_OK(ZeroStencilValue(device, odd ? 1 : 2));
    }
    sel.valid_value = (k % 2 == 1) ? 2 : 1;
  }

  if (count_in_chain) {
    // The chain's last comparison rendered exactly the selected records.
    GPUDB_ASSIGN_OR_RETURN(sel.count, device->EndOcclusionQuery());
  } else {
    GPUDB_ASSIGN_OR_RETURN(sel.count, CountSelected(device, sel.valid_value));
  }
  return sel;
}

Result<StencilSelection> EvalDnf(gpu::Device* device,
                                 const std::vector<GpuTerm>& terms,
                                 SelectionExecOptions* opts) {
  SelectionExecOptions identity;
  if (opts == nullptr) opts = &identity;
  if (terms.empty()) {
    return Status::InvalidArgument("EvalDnf requires at least one term");
  }
  for (const GpuTerm& term : terms) {
    if (term.empty()) {
      return Status::InvalidArgument("EvalDnf: empty term");
    }
  }
  GpuOpSpan op("EvalDnf", device);
  if (op.active()) {
    size_t predicates = 0;
    for (const GpuTerm& term : terms) predicates += term.size();
    op.AddTag("terms", terms.size());
    op.AddTag("predicates", predicates);
  }
  StateGuard guard(device);
  device->SetAlphaTest(false, gpu::CompareOp::kAlways, 0.0f);
  device->SetColorWriteMask(false);
  // 1 = candidate (not yet selected), 0 = selected by an earlier term.
  device->ClearStencil(1);

  for (const GpuTerm& term : terms) {
    GPUDB_RETURN_NOT_OK(device->CheckInterrupt());
    GPUDB_ASSIGN_OR_RETURN(
        const uint8_t satisfied,
        StencilChain(
            device, term.size(),
            [&](size_t j) -> const GpuPredicate& { return term[j]; }, opts,
            /*count_last=*/false));
    // Records at m+1 satisfied the whole term: stamp them selected (0).
    device->SetStencilTest(true, gpu::CompareOp::kEqual, satisfied);
    device->SetStencilOp(gpu::StencilOp::kKeep, gpu::StencilOp::kKeep,
                         gpu::StencilOp::kZero);
    device->SetDepthTest(false, gpu::CompareOp::kAlways);
    device->SetDepthBoundsTest(false);
    GPUDB_RETURN_NOT_OK(device->RenderQuad(0.0f));
    // Walk partial chains (values 2..m) back down to 1 so the next term
    // starts clean: each pass decrements every value above 1.
    for (size_t step = 1; step < term.size(); ++step) {
      // Cooperative cancellation between walk-down passes (lint rule R2).
      GPUDB_RETURN_NOT_OK(device->CheckInterrupt());
      device->SetStencilTest(true, gpu::CompareOp::kLess, /*ref=*/1);
      device->SetStencilOp(gpu::StencilOp::kKeep, gpu::StencilOp::kKeep,
                           gpu::StencilOp::kDecr);
      GPUDB_RETURN_NOT_OK(device->RenderQuad(0.0f));
    }
  }

  StencilSelection sel;
  sel.valid_value = 0;
  GPUDB_ASSIGN_OR_RETURN(sel.count, CountSelected(device, 0));
  return sel;
}

}  // namespace core
}  // namespace gpudb
