#ifndef GPUDB_CORE_RANGE_H_
#define GPUDB_CORE_RANGE_H_

#include <cstdint>

#include "src/common/result.h"
#include "src/core/compare.h"
#include "src/gpu/device.h"

namespace gpudb {
namespace core {

/// \brief Routine 4.4: range query `low <= attribute <= high` using the
/// GL_EXT_depth_bounds_test feature.
///
/// The attribute is copied into the depth buffer; the depth bounds test then
/// passes exactly the fragments whose *stored* depth lies within the encoded
/// [low, high] interval, so a single additional quad evaluates both
/// comparisons at once -- "the computational time ... is comparable to the
/// time required in evaluating a single predicate" (Section 4.2).
///
/// Under an exact integer encoding, fractional and out-of-domain bounds are
/// restated first (DepthEncoding::ExactBounds), so the answer is exact.
///
/// Selected records get stencil = 1, others 0; returns the selected count.
[[nodiscard]] Result<uint64_t> RangeSelect(gpu::Device* device, const AttributeBinding& attr,
                             double low, double high);

/// \brief The same range query implemented as a two-predicate CNF
/// ((x >= low) AND (x <= high)) via two comparison passes. This is the
/// baseline the paper contrasts the depth-bounds path against; kept for the
/// ablation benchmark.
[[nodiscard]] Result<uint64_t> RangeSelectTwoPass(gpu::Device* device,
                                    const AttributeBinding& attr, double low,
                                    double high);

}  // namespace core
}  // namespace gpudb

#endif  // GPUDB_CORE_RANGE_H_
