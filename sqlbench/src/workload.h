// Statement streams and their CPU oracle for the end-to-end SQL benchmark.
//
// A workload is a seeded, fixed-length cycle of SQL statements. Each
// statement is generated from a small structured spec, rendered to SQL text
// for sql::Session, and answered independently on the CPU from the same spec
// with cpu/scan, cpu/quickselect and cpu/aggregate -- never through the SQL
// parser or the planner, so the oracle shares no code with the path it
// checks.
#ifndef SQLBENCH_WORKLOAD_H_
#define SQLBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/aggregates.h"
#include "src/db/table.h"
#include "src/gpu/types.h"
#include "src/sql/parser.h"

namespace sqlbench {

using gpudb::db::Table;

/// The benchmark's two relations (paper §5.1 stand-ins, from db/datagen).
enum TableId { kFlows = 0, kCensus = 1 };
inline constexpr const char* kTableNames[] = {"flows", "census"};

/// Operator class of a statement: the key of the per-layer
/// `core.exec_ms.<class>` metrics.
enum class OpClass {
  kCount,       ///< COUNT(*) over a 1-, 2- or 4-attribute conjunction
  kRange,       ///< COUNT(*) ... WHERE c BETWEEN lo AND hi
  kSemilinear,  ///< COUNT(*) ... WHERE a op b (attribute vs attribute)
  kDnf,         ///< COUNT(*) ... WHERE p OR NOT q
  kKth,         ///< MEDIAN, KTH_LARGEST, MIN, MAX (order statistics)
  kSum,         ///< SUM(c) [WHERE p]
  kAvgWhere,    ///< AVG(c) WHERE p
  kSelectRows,  ///< SELECT * ... WHERE p [LIMIT n]
};
inline constexpr int kNumOpClasses = 8;
std::string_view OpClassName(OpClass c);

/// One leaf predicate: `col op k`, `col op col2`, or `col BETWEEN lo AND hi`.
struct Leaf {
  enum class Kind { kConst, kAttr, kBetween };
  Kind kind = Kind::kConst;
  int col = 0;
  gpudb::gpu::CompareOp op = gpudb::gpu::CompareOp::kLess;
  uint32_t k = 0;
  int col2 = 0;
  uint32_t lo = 0;
  uint32_t hi = 0;
};

/// A WHERE clause: nothing, a conjunction of leaves, or `l0 OR NOT l1`.
struct Where {
  enum class Shape { kNone, kAnd, kOrNot };
  Shape shape = Shape::kNone;
  std::vector<Leaf> leaves;
};

struct Statement {
  std::string sql;
  TableId table = kFlows;
  OpClass op_class = OpClass::kCount;
  gpudb::sql::Query::Kind kind = gpudb::sql::Query::Kind::kCount;
  gpudb::core::AggregateKind aggregate = gpudb::core::AggregateKind::kCount;
  int column = 0;      ///< aggregate / order-statistic attribute
  uint64_t k = 0;      ///< KTH_LARGEST rank
  uint64_t limit = 0;  ///< SELECT * LIMIT (0 = none)
  Where where;
};

/// The CPU oracle's answer. Row-id results are kept as (count, hash) so a
/// cycle of SELECT * statements does not hold every id list in memory.
struct Answer {
  uint64_t count = 0;   ///< COUNT(*) / number of row ids returned
  double scalar = 0.0;  ///< aggregate or order-statistic value
  uint64_t rows_hash = 0;
};

/// FNV-1a over the row ids, in order.
uint64_t HashRowIds(const std::vector<uint32_t>& ids);

/// The benchmark's workloads.
enum class WorkloadKind { kSelectHot, kSelectChurn, kAggregateScan,
                          kMaterializePool };
bool ParseWorkload(std::string_view name, WorkloadKind* out);

/// Generates the workload's statement cycle from `seed`. `tables` are the
/// generated relations indexed by TableId. Constants are drawn from the
/// columns' own quantiles so target selectivities span about 1-90%.
std::vector<Statement> MakeStatements(WorkloadKind workload,
                                      const std::vector<const Table*>& tables,
                                      uint64_t seed, size_t length);

/// The CPU reference answer of `stmt`. Fails on a statement the program
/// would reject as well (an empty selection under MIN/MAX/AVG/KTH).
gpudb::Result<Answer> Oracle(const std::vector<const Table*>& tables,
                             const Statement& stmt);

/// The comparable part of a program result, in the oracle's form.
Answer FromResult(const gpudb::sql::QueryResult& result);

/// True when the program's answer equals the oracle's bit for bit.
bool SameAnswer(const Statement& stmt, const Answer& want, const Answer& got);

}  // namespace sqlbench

#endif  // SQLBENCH_WORKLOAD_H_
