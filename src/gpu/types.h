#ifndef GPUDB_GPU_TYPES_H_
#define GPUDB_GPU_TYPES_H_

#include <cstdint>
#include <string_view>

#include "src/gpu/lanes.h"

namespace gpudb {
namespace gpu {

/// \brief Relational operator used by the alpha, stencil, and depth tests.
///
/// Mirrors the OpenGL comparison functions the paper relies on (Section 3.1:
/// "The relational operator can be any of the following: =, <, >, <=, >=, !=.
/// In addition, there are two operators, never and always.").
enum class CompareOp : uint8_t {
  kNever,
  kLess,
  kLessEqual,
  kEqual,
  kGreaterEqual,
  kGreater,
  kNotEqual,
  kAlways,
};

std::string_view ToString(CompareOp op);

/// Applies `op` to (lhs, rhs): "lhs op rhs".
template <typename T>
inline bool EvalCompare(CompareOp op, T lhs, T rhs) {
  switch (op) {
    case CompareOp::kNever:
      return false;
    case CompareOp::kLess:
      return lhs < rhs;
    case CompareOp::kLessEqual:
      return lhs <= rhs;
    case CompareOp::kEqual:
      return lhs == rhs;
    case CompareOp::kGreaterEqual:
      return lhs >= rhs;
    case CompareOp::kGreater:
      return lhs > rhs;
    case CompareOp::kNotEqual:
      return lhs != rhs;
    case CompareOp::kAlways:
      return true;
  }
  return false;
}

/// \brief A CompareOp reduced to its truth table over the orderings of two
/// operands, so a per-fragment loop evaluates `lhs op rhs` without
/// branching on `op`. Agrees with EvalCompare for every input: unordered
/// (NaN) operands satisfy only kNotEqual and kAlways.
struct CompareTable {
  bool lt = false;
  bool eq = false;
  bool gt = false;
  bool unordered = false;

  explicit CompareTable(CompareOp op)
      : lt(op == CompareOp::kLess || op == CompareOp::kLessEqual ||
           op == CompareOp::kNotEqual || op == CompareOp::kAlways),
        eq(op == CompareOp::kEqual || op == CompareOp::kLessEqual ||
           op == CompareOp::kGreaterEqual || op == CompareOp::kAlways),
        gt(op == CompareOp::kGreater || op == CompareOp::kGreaterEqual ||
           op == CompareOp::kNotEqual || op == CompareOp::kAlways),
        unordered(op == CompareOp::kNotEqual || op == CompareOp::kAlways) {}

  template <typename T>
  bool operator()(T lhs, T rhs) const {
    const bool l = lhs < rhs;
    const bool e = lhs == rhs;
    const bool g = lhs > rhs;
    return (lt & l) | (eq & e) | (gt & g) | (unordered & !(l | e | g));
  }
  /// Four lanes at once: a 0 / -1 mask per lane.
  IntLanes operator()(FloatLanes lhs, FloatLanes rhs) const {
    const auto all = [](bool b) { return IntLanes{} - int32_t{b}; };
    const IntLanes l = lhs < rhs;
    const IntLanes e = lhs == rhs;
    const IntLanes g = lhs > rhs;
    return (l & all(lt)) | (e & all(eq)) | (g & all(gt)) |
           (~(l | e | g) & all(unordered));
  }
};

/// Logical negation of a comparison: NOT (x op y) == (x Invert(op) y).
/// Used by the CNF rewriter to eliminate NOT operators (Section 4.2: "If a
/// simple predicate has a NOT operator, we can invert the comparison").
CompareOp Invert(CompareOp op);

/// Mirror image of a comparison: (x op y) == (y Mirror(op) x).
CompareOp Mirror(CompareOp op);

/// \brief Stencil update operation (Section 3.4).
enum class StencilOp : uint8_t {
  kKeep,     ///< Keep the stored stencil value.
  kZero,     ///< Set the stencil value to zero.
  kReplace,  ///< Set the stencil value to the reference value.
  kIncr,     ///< Increment (saturating, as in core OpenGL GL_INCR).
  kDecr,     ///< Decrement (saturating).
  kInvert,   ///< Bitwise invert.
};

std::string_view ToString(StencilOp op);

/// Applies a stencil operation to a stored 8-bit stencil value. Inline
/// because it sits in the per-fragment stencil path of every selection
/// pass.
inline uint8_t ApplyStencilOp(StencilOp op, uint8_t stored, uint8_t ref) {
  switch (op) {
    case StencilOp::kKeep:
      return stored;
    case StencilOp::kZero:
      return 0;
    case StencilOp::kReplace:
      return ref;
    case StencilOp::kIncr:
      return stored == 0xff ? stored : static_cast<uint8_t>(stored + 1);
    case StencilOp::kDecr:
      return stored == 0 ? stored : static_cast<uint8_t>(stored - 1);
    case StencilOp::kInvert:
      return static_cast<uint8_t>(~stored);
  }
  return stored;
}

}  // namespace gpu
}  // namespace gpudb

#endif  // GPUDB_GPU_TYPES_H_
