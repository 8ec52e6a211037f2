#ifndef GPUDB_PREDICATE_CNF_H_
#define GPUDB_PREDICATE_CNF_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/db/table.h"
#include "src/predicate/expr.h"

namespace gpudb {
namespace predicate {

/// \brief A boolean combination in conjunctive normal form, the shape
/// EvalCNF (Routine 4.3) consumes: A_1 AND A_2 AND ... AND A_k where each
/// A_i = B_i1 OR B_i2 OR ... OR B_im and every B_ij is a SimplePredicate
/// with no NOT operator.
struct Cnf {
  std::vector<std::vector<SimplePredicate>> clauses;

  /// Reference evaluation for cross-checking the GPU path.
  bool EvaluateRow(const db::Table& table, size_t row) const;

  /// Total simple-predicate count (= number of Compare passes EvalCNF runs).
  size_t predicate_count() const;

  std::string ToString(const db::Table* table = nullptr) const;
};

/// Safety valve: CNF distribution is worst-case exponential; conversions
/// that would exceed this many clauses fail with ResourceExhausted.
inline constexpr size_t kMaxCnfClauses = 4096;

/// \brief A boolean combination in disjunctive normal form: T_1 OR ... OR
/// T_k where each term T_i is a conjunction of NOT-free simple predicates.
/// The paper notes EvalCNF "can easily [be] modified for handling a boolean
/// expression represented as a DNF" (Section 4.2); core::EvalDnf is that
/// modification (the same evaluator as core::EvalCnf, running one stencil
/// chain per term), and queries that are naturally disjunctions of
/// conjunctions avoid the exponential CNF distribution entirely.
struct Dnf {
  std::vector<std::vector<SimplePredicate>> terms;

  /// Reference evaluation for cross-checking the GPU path.
  bool EvaluateRow(const db::Table& table, size_t row) const;

  /// Total simple-predicate count.
  size_t predicate_count() const;

  std::string ToString(const db::Table* table = nullptr) const;
};

/// \brief Converts an arbitrary AND/OR/NOT expression into DNF (NOT
/// elimination followed by distributing AND over OR). Subject to the same
/// kMaxCnfClauses blow-up guard, applied to terms.
Result<Dnf> ToDnf(const ExprPtr& expr);

/// \brief Converts an arbitrary AND/OR/NOT expression into CNF.
///
/// NOT operators are eliminated first by pushing them to the leaves
/// (De Morgan) and inverting the leaf comparisons, exactly as the paper
/// prescribes: "If a simple predicate in this expression has a NOT operator,
/// we can invert the comparison operation and eliminate the NOT operator"
/// (Section 4.2). ORs are then distributed over ANDs.
Result<Cnf> ToCnf(const ExprPtr& expr);

}  // namespace predicate
}  // namespace gpudb

#endif  // GPUDB_PREDICATE_CNF_H_
