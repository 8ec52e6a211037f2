#include "src/core/depth_encoding.h"

#include <algorithm>
#include <cmath>

namespace gpudb {
namespace core {

namespace {

/// Largest integer of an exact integer encoding's domain.
double IntMax(const DepthEncoding& encoding) {
  return std::round(1.0 / encoding.scale);
}

}  // namespace

DepthEncoding DepthEncoding::ExactInt24() {
  return DepthEncoding{1.0 / static_cast<double>(gpu::kDepthMax), 0.0,
                       /*exact_int=*/true};
}

DepthEncoding DepthEncoding::ExactInt(int bits) {
  const double max_code = static_cast<double>((uint32_t{1} << bits) - 1);
  return DepthEncoding{1.0 / max_code, 0.0, /*exact_int=*/true};
}

DepthEncoding::Comparison DepthEncoding::ExactCompare(gpu::CompareOp op,
                                                      double constant) const {
  using gpu::CompareOp;
  const double top = IntMax(*this);
  if (!exact_int ||
      (constant >= 0 && constant <= top && constant == std::floor(constant))) {
    return {op, constant};
  }
  const Comparison all{CompareOp::kGreaterEqual, 0.0};
  const Comparison none{CompareOp::kLess, 0.0};
  // A NaN constant fails every comparison but !=.
  if (std::isnan(constant)) {
    return op == CompareOp::kNotEqual || op == CompareOp::kAlways ? all
                                                                  : none;
  }
  // x >= t for an integer t, as an in-domain comparison.
  auto at_least = [&](double t) -> Comparison {
    if (t <= 0) return all;
    if (t > top) return none;
    return {CompareOp::kGreaterEqual, t};
  };
  // x <= t for an integer t, likewise.
  auto at_most = [&](double t) -> Comparison {
    if (t < 0) return none;
    if (t >= top) return all;
    return {CompareOp::kLessEqual, t};
  };
  switch (op) {
    case CompareOp::kGreater:
      return at_least(std::floor(constant) + 1);
    case CompareOp::kGreaterEqual:
      return at_least(std::ceil(constant));
    case CompareOp::kLess:
      return at_most(std::ceil(constant) - 1);
    case CompareOp::kLessEqual:
      return at_most(std::floor(constant));
    case CompareOp::kEqual:  // no domain integer equals the constant
    case CompareOp::kNever:
      return none;
    case CompareOp::kNotEqual:
    case CompareOp::kAlways:
      return all;
  }
  return {op, constant};
}

std::pair<double, double> DepthEncoding::ExactBounds(double low,
                                                     double high) const {
  if (!exact_int) return {low, high};
  const double lo = std::max(std::ceil(low), 0.0);
  const double hi = std::min(std::floor(high), IntMax(*this));
  if (!(lo <= hi)) return {1.0, 0.0};  // no integer inside (or a NaN bound)
  return {lo, hi};
}

DepthEncoding DepthEncoding::ForColumn(const db::Column& column) {
  if (column.type() == db::ColumnType::kInt24) {
    return ExactInt24();
  }
  const double lo = column.min();
  const double hi = column.max();
  if (hi <= lo) {
    // Degenerate single-valued column: center the value at depth 0.5 with a
    // unit scale. Comparison constants below the value encode < 0.5 (clamped
    // at 0 by QuantizeDepth) and constants above encode > 0.5 (clamped at 1),
    // so ordering and equality against out-of-domain constants stay correct.
    // A zero scale would collapse value and constant onto the same depth.
    return DepthEncoding{1.0, lo - 0.5};
  }
  return DepthEncoding{1.0 / (hi - lo), lo};
}

}  // namespace core
}  // namespace gpudb
