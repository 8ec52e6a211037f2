#include "workload.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/random.h"
#include "src/cpu/aggregate.h"
#include "src/cpu/quickselect.h"
#include "src/cpu/scan.h"

namespace sqlbench {

using gpudb::Result;
using gpudb::Status;
using gpudb::core::AggregateKind;
using gpudb::gpu::CompareOp;
using Kind = gpudb::sql::Query::Kind;

std::string_view OpClassName(OpClass c) {
  switch (c) {
    case OpClass::kCount: return "count";
    case OpClass::kRange: return "range";
    case OpClass::kSemilinear: return "semilinear";
    case OpClass::kDnf: return "dnf";
    case OpClass::kKth: return "kth";
    case OpClass::kSum: return "sum";
    case OpClass::kAvgWhere: return "avg_where";
    case OpClass::kSelectRows: return "select_rows";
  }
  return "unknown";
}

bool ParseWorkload(std::string_view name, WorkloadKind* out) {
  static constexpr std::pair<std::string_view, WorkloadKind> kNames[] = {
      {"select_hot", WorkloadKind::kSelectHot},
      {"select_churn", WorkloadKind::kSelectChurn},
      {"aggregate_scan", WorkloadKind::kAggregateScan},
      {"materialize_pool", WorkloadKind::kMaterializePool},
  };
  for (const auto& [n, w] : kNames) {
    if (n == name) {
      *out = w;
      return true;
    }
  }
  return false;
}

uint64_t HashRowIds(const std::vector<uint32_t>& ids) {
  uint64_t h = 1469598103934665603ull;
  for (uint32_t id : ids) {
    for (int b = 0; b < 4; ++b) {
      h ^= (id >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

namespace {

const char* OpText(CompareOp op) {
  switch (op) {
    case CompareOp::kLess: return "<";
    case CompareOp::kLessEqual: return "<=";
    case CompareOp::kGreater: return ">";
    case CompareOp::kGreaterEqual: return ">=";
    default: return "=";
  }
}

std::string LeafSql(const Table& t, const Leaf& l) {
  const std::string& name = t.column(static_cast<size_t>(l.col)).name();
  switch (l.kind) {
    case Leaf::Kind::kConst:
      return name + " " + OpText(l.op) + " " + std::to_string(l.k);
    case Leaf::Kind::kAttr:
      return name + " " + OpText(l.op) + " " +
             t.column(static_cast<size_t>(l.col2)).name();
    case Leaf::Kind::kBetween:
      return name + " BETWEEN " + std::to_string(l.lo) + " AND " +
             std::to_string(l.hi);
  }
  return "";
}

std::string WhereSql(const Table& t, const Where& w) {
  switch (w.shape) {
    case Where::Shape::kNone:
      return "";
    case Where::Shape::kAnd: {
      std::string s = " WHERE ";
      for (size_t i = 0; i < w.leaves.size(); ++i) {
        if (i > 0) s += " AND ";
        s += LeafSql(t, w.leaves[i]);
      }
      return s;
    }
    case Where::Shape::kOrNot:
      return " WHERE " + LeafSql(t, w.leaves[0]) + " OR NOT (" +
             LeafSql(t, w.leaves[1]) + ")";
  }
  return "";
}

std::string SelectListSql(const Table& t, const Statement& s) {
  const std::string& col = t.column(static_cast<size_t>(s.column)).name();
  switch (s.kind) {
    case Kind::kCount: return "COUNT(*)";
    case Kind::kSelectRows: return "*";
    case Kind::kKthLargest:
      return "KTH_LARGEST(" + col + ", " + std::to_string(s.k) + ")";
    default:
      break;
  }
  std::string agg(gpudb::core::ToString(s.aggregate));
  std::transform(agg.begin(), agg.end(), agg.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return agg + "(" + col + ")";
}

/// Column popularity order per table: rank r is drawn with weight 1/(r+1),
/// so a few hot columns take most statements (Zipf, theta = 1).
constexpr int kHotOrder[2][4] = {{0, 2, 1, 3}, {0, 1, 2, 3}};
/// Attribute pairs for attr-vs-attr predicates, hottest first.
constexpr int kPairs[2][2][2] = {{{0, 2}, {1, 3}}, {{1, 2}, {3, 2}}};

class Generator {
 public:
  Generator(const std::vector<const Table*>& tables, uint64_t seed)
      : tables_(tables), rng_(seed) {
    sorted_.resize(tables.size());
    for (size_t t = 0; t < tables.size(); ++t) {
      for (size_t c = 0; c < tables[t]->num_columns(); ++c) {
        std::vector<float> v = tables[t]->column(c).values();
        std::sort(v.begin(), v.end());
        sorted_[t].push_back(std::move(v));
      }
    }
  }

  double Uniform(double lo, double hi) { return rng_.NextDouble(lo, hi); }
  uint64_t Below(uint64_t n) { return rng_.NextUint64(n); }

  /// Zipf-skewed column of table `t`, distinct from those in `taken`.
  int HotColumn(TableId t, const std::vector<int>& taken) {
    double weights[4];
    double total = 0.0;
    for (int r = 0; r < 4; ++r) {
      const bool used = std::find(taken.begin(), taken.end(),
                                  kHotOrder[t][r]) != taken.end();
      weights[r] = used ? 0.0 : 1.0 / (r + 1);
      total += weights[r];
    }
    double x = rng_.NextDouble() * total;
    for (int r = 0; r < 4; ++r) {
      if (x < weights[r]) return kHotOrder[t][r];
      x -= weights[r];
    }
    for (int r = 3; r >= 0; --r) {
      if (weights[r] > 0.0) return kHotOrder[t][r];
    }
    return 0;
  }

  /// Smallest column value v with at least `fraction` of the values <= v.
  uint32_t Quantile(TableId t, int col, double fraction) const {
    const std::vector<float>& v = sorted_[t][static_cast<size_t>(col)];
    const double f = std::clamp(fraction, 0.0, 1.0);
    const auto rank = static_cast<size_t>(
        std::ceil(f * static_cast<double>(v.size())));
    return static_cast<uint32_t>(v[std::clamp<size_t>(rank, 1, v.size()) - 1]);
  }

  /// `col op k` selecting about `sel` of the rows. With `nonempty` the
  /// comparison is inclusive, which always keeps at least one row.
  Leaf ConstLeaf(TableId t, int col, double sel, bool nonempty) {
    Leaf l;
    l.col = col;
    const bool strict = !nonempty && rng_.NextDouble() < 0.5;
    if (rng_.NextDouble() < 0.5) {
      l.op = strict ? CompareOp::kLess : CompareOp::kLessEqual;
      l.k = Quantile(t, col, sel);
    } else {
      l.op = strict ? CompareOp::kGreater : CompareOp::kGreaterEqual;
      l.k = Quantile(t, col, 1.0 - sel);
    }
    return l;
  }

  /// A conjunction of constant leaves, one per column of `cols`, whose
  /// combined selectivity is about `sel`.
  Where ConjunctionOn(TableId t, const std::vector<int>& cols, double sel,
                      bool nonempty) {
    Where w;
    w.shape = Where::Shape::kAnd;
    const double each = std::pow(sel, 1.0 / static_cast<double>(cols.size()));
    for (int col : cols) w.leaves.push_back(ConstLeaf(t, col, each, nonempty));
    return w;
  }

  /// The same over `n` distinct Zipf-drawn columns.
  Where Conjunction(TableId t, int n, double sel, bool nonempty) {
    std::vector<int> cols;
    for (int i = 0; i < n; ++i) cols.push_back(HotColumn(t, cols));
    return ConjunctionOn(t, cols, sel, nonempty);
  }

  const Table& table(TableId t) const { return *tables_[t]; }

 private:
  const std::vector<const Table*>& tables_;
  gpudb::Random rng_;
  std::vector<std::vector<std::vector<float>>> sorted_;
};

/// Zipf-like column ranks for the select rotation, one per turn: rank r
/// comes up about 1/(r+1) as often as rank 0 (4:2:1:1 in 8 turns).
constexpr int kZipfRanks[8] = {0, 1, 0, 2, 0, 1, 0, 3};

/// Selection mix of select_hot / select_churn: six COUNT(*) templates in a
/// fixed 24-statement turn, the first three groups of six on flows and the
/// last on census. The columns and attribute pairs a statement reads are
/// fixed by its position, so every seed touches the same textures in the
/// same order; with seed-drawn columns, select_churn's evictions and qps
/// differed from seed to seed. Only constants and comparison directions are
/// drawn, plus one structural draw: one single-column COUNT in four gets a
/// second comparison on the same column. That varies the modelled cost
/// between seeds and reads the same texture either way.
Statement SelectStatement(Generator& g, size_t i) {
  Statement s;
  s.table = (i / 6) % 4 == 3 ? kCensus : kFlows;
  s.kind = Kind::kCount;
  const int rank = kZipfRanks[(i / 24) % 8];
  const int hot = kHotOrder[s.table][rank];
  const int next = kHotOrder[s.table][(rank + 1) % 4];
  const double sel = g.Uniform(0.01, 0.9);
  switch (i % 6) {
    case 0:
      s.op_class = OpClass::kCount;
      s.where = g.ConjunctionOn(s.table, {hot}, sel, false);
      if (g.Below(4) == 0) {
        s.where.leaves.push_back(g.ConstLeaf(s.table, hot, 0.95, false));
      }
      break;
    case 1:
      s.op_class = OpClass::kCount;
      s.where = g.ConjunctionOn(s.table, {hot, next}, sel, false);
      break;
    case 2:
      s.op_class = OpClass::kCount;
      s.where = g.ConjunctionOn(
          s.table, {kHotOrder[s.table][0], kHotOrder[s.table][1],
                    kHotOrder[s.table][2], kHotOrder[s.table][3]},
          sel, false);
      break;
    case 3: {
      s.op_class = OpClass::kRange;
      Leaf l;
      l.kind = Leaf::Kind::kBetween;
      l.col = hot;
      const double from = g.Uniform(0.0, 1.0 - sel);
      l.lo = g.Quantile(s.table, l.col, from);
      l.hi = g.Quantile(s.table, l.col, from + sel);
      s.where.shape = Where::Shape::kAnd;
      s.where.leaves = {l};
      break;
    }
    case 4: {
      s.op_class = OpClass::kSemilinear;
      Leaf l;
      l.kind = Leaf::Kind::kAttr;
      const int pair = rank == 0 ? 0 : 1;
      l.col = kPairs[s.table][pair][0];
      l.col2 = kPairs[s.table][pair][1];
      l.op = g.Below(2) == 0 ? CompareOp::kLess : CompareOp::kGreater;
      s.where.shape = Where::Shape::kAnd;
      s.where.leaves = {l};
      break;
    }
    default:
      // p OR NOT q, each half selecting about sel/2.
      s.op_class = OpClass::kDnf;
      s.where.shape = Where::Shape::kOrNot;
      s.where.leaves = {g.ConstLeaf(s.table, hot, sel / 2, false),
                        g.ConstLeaf(s.table, next, 1.0 - sel / 2, false)};
      break;
  }
  return s;
}

/// aggregate_scan: order statistics and bit-sliced sums over flows, in a
/// fixed 8-statement rotation whose latencies form three clusters:
/// MEDIAN/KTH (3/8, cheapest), MIN/MAX of data_count with a WHERE (3/8; p50
/// falls inside it), and SUM(retransmissions) and AVG(data_count) WHERE
/// (1/8 each; p95 falls inside AVG). The one structural draw -- whether an
/// order statistic reads data_count (19 bits) or flow_rate (20 bits) -- sits
/// in the cheapest cluster: it varies the modelled cost between seeds
/// without moving p50 or p95 across a cluster boundary.
Statement AggregateStatement(Generator& g, size_t i) {
  enum { kMedian, kKth, kMin, kMax, kSum, kAvg };
  static constexpr int kRotation[8] = {kMedian, kMin, kKth, kSum,
                                       kMax,    kKth, kAvg, kMin};
  constexpr int kDataCount = 0;
  constexpr int kFlowRate = 2;
  constexpr int kRetransmissions = 3;
  Statement s;
  s.table = kFlows;
  s.kind = Kind::kAggregate;
  s.column = kDataCount;
  // A non-empty filter on one of the other three columns.
  const auto filter = [&g] {
    Where w;
    w.shape = Where::Shape::kAnd;
    w.leaves = {g.ConstLeaf(kFlows, 1 + static_cast<int>(g.Below(3)),
                            g.Uniform(0.05, 0.9), true)};
    return w;
  };
  switch (kRotation[i % 8]) {
    case kMedian:
    case kKth:
      s.column = g.Below(2) == 0 ? kDataCount : kFlowRate;
      s.op_class = OpClass::kKth;
      if (kRotation[i % 8] == kMedian) {
        s.aggregate = AggregateKind::kMedian;
      } else {
        s.kind = Kind::kKthLargest;
        s.k = 1 + g.Below(g.table(kFlows).num_rows());
      }
      break;
    case kMin:
    case kMax:
      s.aggregate = kRotation[i % 8] == kMin ? AggregateKind::kMin
                                              : AggregateKind::kMax;
      s.op_class = OpClass::kKth;
      s.where = filter();
      break;
    case kSum:
      s.aggregate = AggregateKind::kSum;
      s.op_class = OpClass::kSum;
      s.column = kRetransmissions;
      break;
    default:
      s.aggregate = AggregateKind::kAvg;
      s.op_class = OpClass::kAvgWhere;
      s.where = filter();
      break;
  }
  return s;
}

/// materialize_pool: row-id materialization at 1-50% selectivity, with and
/// without LIMIT, plus pooled COUNT and SUM, in a fixed 16-statement
/// rotation. SUM is over one fixed 8-bit column, so its cost is the same
/// in every rotation. Its 2 of 16 slots are the slowest cluster, and p95
/// falls near the middle of it rather than on its lower edge.
Statement PoolStatement(Generator& g, size_t i) {
  enum { kSel, kSelLimit, kCount, kSum };
  static constexpr int kRotation[16] = {
      kSel, kSelLimit, kCount, kSel, kSel, kSelLimit, kSum, kSel,
      kSel, kSelLimit, kCount, kSel, kSum, kSelLimit, kCount, kSel};
  Statement s;
  s.table = kFlows;
  // One or two predicates by position; only the last statement of the
  // rotation draws its count, which varies the modelled cost slightly
  // between seeds.
  const int arity = i % 16 == 15 ? 1 + static_cast<int>(g.Below(2))
                                 : 1 + static_cast<int>((i / 3) % 2);
  switch (kRotation[i % 16]) {
    case kSel:
    case kSelLimit:
      s.kind = Kind::kSelectRows;
      s.op_class = OpClass::kSelectRows;
      s.where = g.Conjunction(kFlows, arity, g.Uniform(0.01, 0.5), false);
      if (kRotation[i % 16] == kSelLimit) s.limit = 10 + g.Below(10000);
      break;
    case kCount:
      s.kind = Kind::kCount;
      s.op_class = OpClass::kCount;
      s.where = g.Conjunction(kFlows, arity, g.Uniform(0.01, 0.9), false);
      break;
    default:
      s.kind = Kind::kAggregate;
      s.aggregate = AggregateKind::kSum;
      s.op_class = OpClass::kSum;
      s.column = 3;  // retransmissions
      break;
  }
  return s;
}

std::vector<uint8_t> LeafMask(const Table& t, const Leaf& l) {
  std::vector<uint8_t> mask;
  const std::vector<float>& v = t.column(static_cast<size_t>(l.col)).values();
  switch (l.kind) {
    case Leaf::Kind::kConst:
      gpudb::cpu::PredicateScan(v, l.op, static_cast<float>(l.k), &mask);
      break;
    case Leaf::Kind::kAttr:
      gpudb::cpu::AttrCompareScan(
          v, t.column(static_cast<size_t>(l.col2)).values(), l.op, &mask);
      break;
    case Leaf::Kind::kBetween:
      gpudb::cpu::RangeScan(v, static_cast<float>(l.lo),
                            static_cast<float>(l.hi), &mask);
      break;
  }
  return mask;
}

std::vector<uint8_t> WhereMask(const Table& t, const Where& w) {
  if (w.shape == Where::Shape::kNone) {
    return std::vector<uint8_t>(t.num_rows(), 1);
  }
  std::vector<uint8_t> mask = LeafMask(t, w.leaves[0]);
  for (size_t j = 1; j < w.leaves.size(); ++j) {
    const std::vector<uint8_t> other = LeafMask(t, w.leaves[j]);
    for (size_t i = 0; i < mask.size(); ++i) {
      mask[i] = w.shape == Where::Shape::kAnd
                    ? static_cast<uint8_t>(mask[i] & other[i])
                    : static_cast<uint8_t>(mask[i] | (other[i] ^ 1u));
    }
  }
  return mask;
}

}  // namespace

std::vector<Statement> MakeStatements(WorkloadKind workload,
                                      const std::vector<const Table*>& tables,
                                      uint64_t seed, size_t length) {
  Generator g(tables, seed);
  std::vector<Statement> out;
  out.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    Statement s;
    switch (workload) {
      case WorkloadKind::kSelectHot:
      case WorkloadKind::kSelectChurn:
        s = SelectStatement(g, i);
        break;
      case WorkloadKind::kAggregateScan:
        s = AggregateStatement(g, i);
        break;
      case WorkloadKind::kMaterializePool:
        s = PoolStatement(g, i);
        break;
    }
    const Table& t = *tables[s.table];
    s.sql = "SELECT " + SelectListSql(t, s) + " FROM " +
            kTableNames[s.table] + WhereSql(t, s.where);
    if (s.limit > 0) s.sql += " LIMIT " + std::to_string(s.limit);
    out.push_back(std::move(s));
  }
  return out;
}

Result<Answer> Oracle(const std::vector<const Table*>& tables,
                      const Statement& stmt) {
  const Table& t = *tables[stmt.table];
  const std::vector<float>& v =
      t.column(static_cast<size_t>(stmt.column)).values();
  const std::vector<uint8_t> mask = WhereMask(t, stmt.where);
  const uint64_t selected = gpudb::cpu::CountMask(mask);
  Answer a;
  switch (stmt.kind) {
    case Kind::kCount:
      a.count = selected;
      return a;
    case Kind::kSelectRows: {
      std::vector<uint32_t> ids;
      ids.reserve(selected);
      for (size_t i = 0; i < mask.size(); ++i) {
        if (mask[i]) ids.push_back(static_cast<uint32_t>(i));
      }
      if (stmt.limit > 0 && ids.size() > stmt.limit) ids.resize(stmt.limit);
      a.count = ids.size();
      a.rows_hash = HashRowIds(ids);
      return a;
    }
    case Kind::kKthLargest: {
      GPUDB_ASSIGN_OR_RETURN(float x,
                             gpudb::cpu::QuickSelectLargest(v, stmt.k));
      a.scalar = x;
      return a;
    }
    case Kind::kAggregate:
      break;
    default:
      return Status::InvalidArgument("statement kind has no oracle");
  }
  switch (stmt.aggregate) {
    case AggregateKind::kSum:
      a.scalar = static_cast<double>(gpudb::cpu::MaskedSumInt(v, mask));
      return a;
    case AggregateKind::kAvg: {
      GPUDB_ASSIGN_OR_RETURN(a.scalar, gpudb::cpu::MaskedAvgInt(v, mask));
      return a;
    }
    case AggregateKind::kMin:
    case AggregateKind::kMax: {
      if (selected == 0) return Status::OutOfRange("empty selection");
      const uint64_t k = stmt.aggregate == AggregateKind::kMax ? 1 : selected;
      GPUDB_ASSIGN_OR_RETURN(
          float x, gpudb::cpu::MaskedQuickSelectLargest(v, mask, k));
      a.scalar = x;
      return a;
    }
    case AggregateKind::kMedian: {
      GPUDB_ASSIGN_OR_RETURN(float x, gpudb::cpu::Median(v));
      a.scalar = x;
      return a;
    }
    case AggregateKind::kCount:
      a.scalar = static_cast<double>(selected);
      return a;
  }
  return Status::InvalidArgument("unknown aggregate");
}

Answer FromResult(const gpudb::sql::QueryResult& result) {
  Answer a;
  a.scalar = result.scalar;
  if (result.kind == Kind::kSelectRows) {
    a.count = result.row_ids.size();
    a.rows_hash = HashRowIds(result.row_ids);
  } else {
    a.count = result.count;
  }
  return a;
}

bool SameAnswer(const Statement& stmt, const Answer& want, const Answer& got) {
  switch (stmt.kind) {
    case Kind::kCount:
      return want.count == got.count;
    case Kind::kSelectRows:
      return want.count == got.count && want.rows_hash == got.rows_hash;
    default:
      return want.scalar == got.scalar;
  }
}

}  // namespace sqlbench
