#ifndef GPUDB_CORE_DEPTH_ENCODING_H_
#define GPUDB_CORE_DEPTH_ENCODING_H_

#include <cstdint>
#include <utility>

#include "src/db/column.h"
#include "src/gpu/framebuffer.h"
#include "src/gpu/types.h"

namespace gpudb {
namespace core {

/// \brief Affine map from attribute values to normalized depth in [0,1].
///
/// CopyToDepth (Routine 4.1) must "normalize the texture value to the range
/// of valid depth values [0,1]" before writing it to the depth buffer. The
/// choice of normalization decides whether comparisons stay exact:
///
///  * Int24 columns use scale = 1 / (2^24 - 1): every integer v in
///    [0, 2^24) maps to the quantized depth value v itself, so depth-test
///    comparisons are bit-exact.
///  * Float columns map [min, max] onto [0,1]; quantization to the 24-bit
///    depth buffer introduces error up to (max-min) / 2^24 (the precision
///    limit the paper discusses in Section 6.1).
///
/// depth = (value - offset) * scale.
struct DepthEncoding {
  double scale = 1.0;
  double offset = 0.0;
  /// Set by the exact integer encodings (ExactInt24, ExactInt): the
  /// attribute holds integers in [0, 1 / scale], each stored as its own
  /// depth code.
  bool exact_int = false;

  /// A comparison `attribute op constant` as the depth test runs it.
  struct Comparison {
    gpu::CompareOp op;
    double constant;
  };

  /// \brief `attribute op constant`, restated so the depth test answers it
  /// exactly. Under an exact integer encoding a fractional or out-of-domain
  /// constant would be rounded or clamped onto a neighbouring depth code,
  /// changing the answer; it becomes the equivalent comparison against an
  /// integer of the domain: `x > 4.5` -> `x >= 5`, `x > -1` -> `x >= 0`
  /// (every record), `x = 5.5` -> `x < 0` (none). In-domain integer
  /// constants, and every constant under other encodings, come back
  /// unchanged. Either way it stays one comparison, so the pass sequence
  /// never changes.
  Comparison ExactCompare(gpu::CompareOp op, double constant) const;

  /// \brief The depth-bounds interval for `low <= attribute <= high`, with
  /// the same exactness: under an exact integer encoding the bounds become
  /// [ceil(low), floor(high)] clipped to the domain, and an interval
  /// holding no integer becomes [1, 0], which the bounds test passes for no
  /// record. Other encodings get the bounds unchanged.
  std::pair<double, double> ExactBounds(double low, double high) const;

  /// Normalized (unclamped) depth for an attribute value.
  float Encode(double value) const {
    return static_cast<float>((value - offset) * scale);
  }

  /// The 24-bit quantized depth the GPU would store for `value`.
  uint32_t EncodeQuantized(double value) const {
    return gpu::QuantizeDepth(Encode(value));
  }

  /// Exact identity encoding for integer columns: quantized depth == value.
  static DepthEncoding ExactInt24();

  /// Exact identity encoding for a depth buffer of `bits` precision:
  /// integers in [0, 2^bits) map to their own depth code on such a buffer.
  /// Data wider than the buffer cannot be exact -- the Section 6.1
  /// precision ceiling (see the precision ablation benchmark).
  static DepthEncoding ExactInt(int bits);

  /// Picks the encoding appropriate for a column's type and domain.
  static DepthEncoding ForColumn(const db::Column& column);
};

}  // namespace core
}  // namespace gpudb

#endif  // GPUDB_CORE_DEPTH_ENCODING_H_
