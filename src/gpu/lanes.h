#ifndef GPUDB_GPU_LANES_H_
#define GPUDB_GPU_LANES_H_

#include <cmath>
#include <cstdint>

namespace gpudb {
namespace gpu {

/// \brief Four fragments' worth of lanes, as GCC/Clang vector extensions
/// (SSE2 registers on x86-64, plain scalar code elsewhere).
///
/// Fragment-stage arithmetic (fragment_program.h) is written once as a
/// template over F = float -- one fragment, what FragmentProgram::Execute
/// runs -- and F = FloatLanes -- four fragments, what the device's staged
/// row kernel runs. Comparisons on lanes yield IntLanes masks (0 / -1 per
/// lane) where the scalar form yields bool. The overloads below give both
/// forms of the few operations the stages need beyond + - * /.
using FloatLanes = float __attribute__((vector_size(16)));
using IntLanes = int32_t __attribute__((vector_size(16)));

/// Four float64 lanes as two 16-byte halves (a 32-byte vector would want
/// AVX), with the scalar-operand arithmetic the stages use.
struct DoubleLanes {
  using Half = double __attribute__((vector_size(16)));
  Half lo;
  Half hi;

  friend DoubleLanes operator+(DoubleLanes a, double b) {
    return {a.lo + b, a.hi + b};
  }
  friend DoubleLanes operator-(DoubleLanes a, double b) {
    return {a.lo - b, a.hi - b};
  }
  friend DoubleLanes operator*(DoubleLanes a, double b) {
    return {a.lo * b, a.hi * b};
  }
};

/// A float as every lane of F (identity for float).
template <typename F>
F Splat(float v) {
  return F{} + v;
}

/// float32 -> float64, exactly.
inline double Widen(float v) { return static_cast<double>(v); }
inline DoubleLanes Widen(FloatLanes v) {
  using Pair = float __attribute__((vector_size(8)));
  return {__builtin_convertvector(Pair{v[0], v[1]}, DoubleLanes::Half),
          __builtin_convertvector(Pair{v[2], v[3]}, DoubleLanes::Half)};
}

/// float64 -> float32, rounded to nearest.
inline float Narrow(double v) { return static_cast<float>(v); }
inline FloatLanes Narrow(DoubleLanes v) {
  using Pair = float __attribute__((vector_size(8)));
  const Pair lo = __builtin_convertvector(v.lo, Pair);
  const Pair hi = __builtin_convertvector(v.hi, Pair);
  return FloatLanes{lo[0], lo[1], hi[0], hi[1]};
}

/// float64 -> int32 toward zero, for lanes known to be in int32 range.
inline IntLanes TruncateToInt(DoubleLanes v) {
  using Pair = int32_t __attribute__((vector_size(8)));
  const Pair lo = __builtin_convertvector(v.lo, Pair);
  const Pair hi = __builtin_convertvector(v.hi, Pair);
  return IntLanes{lo[0], lo[1], hi[0], hi[1]};
}

/// Floor without a libm call: exact for every input, including -0 (stays
/// -0), |x| >= 2^23 (already integral), infinities, and NaN.
inline float FloorExact(float x) {
  const bool small = std::fabs(x) < 8388608.0f;  // 2^23; false for NaN, inf
  const float xs = small ? x : 0.0f;
  float t = static_cast<float>(static_cast<int32_t>(xs));  // toward zero
  t -= t > xs ? 1.0f : 0.0f;
  return small ? std::copysign(t, xs) : x;
}
inline FloatLanes FloorExact(FloatLanes x) {
  const IntLanes kMagnitude = IntLanes{} + 0x7fffffff;
  const IntLanes small =
      reinterpret_cast<FloatLanes>(reinterpret_cast<IntLanes>(x) &
                                   kMagnitude) < 8388608.0f;
  const FloatLanes xs = small ? x : FloatLanes{};
  FloatLanes t = __builtin_convertvector(
      __builtin_convertvector(xs, IntLanes), FloatLanes);
  t -= reinterpret_cast<FloatLanes>((t > xs) &
                                    reinterpret_cast<IntLanes>(Splat<FloatLanes>(1.0f)));
  const IntLanes with_sign = (reinterpret_cast<IntLanes>(t) & kMagnitude) |
                             (reinterpret_cast<IntLanes>(xs) & ~kMagnitude);
  return small ? reinterpret_cast<FloatLanes>(with_sign) : x;
}

}  // namespace gpu
}  // namespace gpudb

#endif  // GPUDB_GPU_LANES_H_
