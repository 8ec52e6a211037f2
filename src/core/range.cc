#include "src/core/range.h"

#include "src/core/op_span.h"
#include "src/core/state_guard.h"

namespace gpudb {
namespace core {

Result<uint64_t> RangeSelect(gpu::Device* device, const AttributeBinding& attr,
                             double low, double high) {
  if (low > high) {
    return Status::InvalidArgument("range query with low > high");
  }
  GpuOpSpan op("RangeSelect", device);
  op.AddTag("low", low);
  op.AddTag("high", high);
  const auto [lo, hi] = attr.encoding.ExactBounds(low, high);
  // SetupStencil + CopyToDepth (Routine 4.4 lines 1-2).
  GPUDB_RETURN_NOT_OK(CopyToDepth(device, attr));
  StateGuard guard(device);
  device->ClearStencil(0);
  device->SetAlphaTest(false, gpu::CompareOp::kAlways, 0.0f);
  device->SetColorWriteMask(false);
  device->SetStencilTest(true, gpu::CompareOp::kAlways, /*ref=*/1);
  device->SetStencilOp(gpu::StencilOp::kKeep, gpu::StencilOp::kKeep,
                       gpu::StencilOp::kReplace);
  // Lines 3-6: enable the bounds test over the encoded interval and render
  // one quad. The quad's own depth is irrelevant (the bounds test inspects
  // the stored values), so the depth test proper is disabled.
  device->SetDepthTest(false, gpu::CompareOp::kAlways);
  device->SetDepthWriteMask(false);
  device->SetDepthBoundsTest(true, attr.encoding.Encode(lo),
                             attr.encoding.Encode(hi));
  GPUDB_RETURN_NOT_OK(device->BeginOcclusionQuery());
  GPUDB_RETURN_NOT_OK(device->RenderQuad(attr.encoding.Encode(lo)));
  GPUDB_ASSIGN_OR_RETURN(uint64_t count, device->EndOcclusionQuery());
  device->SetDepthBoundsTest(false);
  return count;
}

Result<uint64_t> RangeSelectTwoPass(gpu::Device* device,
                                    const AttributeBinding& attr, double low,
                                    double high) {
  if (low > high) {
    return Status::InvalidArgument("range query with low > high");
  }
  const auto [lo, hi] = attr.encoding.ExactBounds(low, high);
  GPUDB_RETURN_NOT_OK(CopyToDepth(device, attr));
  StateGuard guard(device);
  device->ClearStencil(0);
  device->SetAlphaTest(false, gpu::CompareOp::kAlways, 0.0f);
  device->SetColorWriteMask(false);
  // Pass 1: x >= low marks stencil 1.
  device->SetStencilTest(true, gpu::CompareOp::kAlways, /*ref=*/1);
  device->SetStencilOp(gpu::StencilOp::kKeep, gpu::StencilOp::kKeep,
                       gpu::StencilOp::kReplace);
  GPUDB_RETURN_NOT_OK(CompareQuad(device, gpu::CompareOp::kGreaterEqual, lo,
                                  attr.encoding));
  // Pass 2: among stencil==1, x <= high survives as 2; count survivors.
  device->SetStencilTest(true, gpu::CompareOp::kEqual, /*ref=*/1);
  device->SetStencilOp(gpu::StencilOp::kKeep, gpu::StencilOp::kKeep,
                       gpu::StencilOp::kIncr);
  GPUDB_RETURN_NOT_OK(device->BeginOcclusionQuery());
  GPUDB_RETURN_NOT_OK(
      CompareQuad(device, gpu::CompareOp::kLessEqual, hi, attr.encoding));
  GPUDB_ASSIGN_OR_RETURN(uint64_t count, device->EndOcclusionQuery());
  // Normalize the mask back to {0,1}: clear stragglers at 1 to 0, then the
  // survivors at 2 down to 1 for a uniform selection encoding.
  device->SetStencilTest(true, gpu::CompareOp::kEqual, /*ref=*/1);
  device->SetStencilOp(gpu::StencilOp::kKeep, gpu::StencilOp::kKeep,
                       gpu::StencilOp::kZero);
  device->SetDepthTest(false, gpu::CompareOp::kAlways);
  GPUDB_RETURN_NOT_OK(device->RenderQuad(0.0f));
  device->SetStencilTest(true, gpu::CompareOp::kEqual, /*ref=*/2);
  device->SetStencilOp(gpu::StencilOp::kKeep, gpu::StencilOp::kKeep,
                       gpu::StencilOp::kDecr);
  GPUDB_RETURN_NOT_OK(device->RenderQuad(0.0f));
  return count;
}

}  // namespace core
}  // namespace gpudb
