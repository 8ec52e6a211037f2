// Ablation: evaluating a naturally-disjunctive query through EvalDnf (the
// paper's "easily modified" variant of Routine 4.3) versus converting it to
// CNF first. CNF conversion of an OR-of-ANDs multiplies clauses
// (m^k growth), so the DNF path wins exactly where the query is born
// disjunctive -- e.g. alert rules that union several conjunctive patterns.

#include "bench/bench_util.h"
#include "src/core/eval_cnf.h"
#include "src/predicate/cnf.h"
#include "src/predicate/expr.h"

namespace gpudb {
namespace bench {
namespace {

using gpu::CompareOp;
using predicate::Expr;
using predicate::ExprPtr;

int Run() {
  PrintHeader("Ablation: DNF vs CNF evaluation",
              "OR of k two-predicate conjunctions, 1M records",
              "\"We can easily modify our algorithm for handling a boolean "
              "expression represented as a DNF\" (Section 4.2)");
  const db::Table& table = TcpIpTable();
  constexpr size_t n = 1'000'000;
  gpu::PerfModel model;
  PrintRowHeader();

  for (int k = 2; k <= 4; ++k) {
    // Alert rule: OR over k patterns "attr_i > t_i AND attr_j <= u_j".
    ExprPtr expr;
    for (int i = 0; i < k; ++i) {
      const size_t a = i % 4;
      const size_t b = (i + 1) % 4;
      const float ta = ThresholdForSelectivity(table.column(a), n, 0.3);
      const float tb = ThresholdForSelectivity(table.column(b), n, 0.7);
      ExprPtr pattern = Expr::And(Expr::Pred(a, CompareOp::kGreater, ta),
                                  Expr::Pred(b, CompareOp::kLessEqual, tb));
      expr = expr == nullptr ? pattern : Expr::Or(expr, pattern);
    }
    auto dnf = predicate::ToDnf(expr);
    auto cnf = predicate::ToCnf(expr);
    if (!dnf.ok() || !cnf.ok()) return 1;

    auto device = MakeDevice();
    std::vector<core::AttributeBinding> bindings;
    for (size_t c = 0; c < 4; ++c) {
      bindings.push_back(UploadColumn(device.get(), table.column(c), n));
    }
    auto lower = [&](const predicate::SimplePredicate& p) {
      return core::GpuPredicate::DepthCompare(bindings[p.attr], p.op,
                                              p.constant);
    };
    std::vector<core::GpuTerm> terms;
    for (const auto& term : dnf.ValueOrDie().terms) {
      core::GpuTerm t;
      for (const auto& p : term) t.push_back(lower(p));
      terms.push_back(t);
    }
    std::vector<core::GpuClause> clauses;
    for (const auto& clause : cnf.ValueOrDie().clauses) {
      core::GpuClause c;
      for (const auto& p : clause) c.push_back(lower(p));
      clauses.push_back(c);
    }

    // One row per strategy, each priced by the model over its own passes.
    auto measure = [&](const char* strategy, auto&& eval,
                       uint64_t* count) -> Result<ResultRow> {
      device->ResetCounters();
      Timer timer;
      GPUDB_ASSIGN_OR_RETURN(core::StencilSelection sel, eval());
      ResultRow row;
      row.label = "k=" + std::to_string(k) + " " + strategy;
      row.gpu_wall_ms = timer.ElapsedMs();
      const gpu::GpuTimeBreakdown b = model.Estimate(device->counters());
      row.gpu_model_total_ms = b.TotalMs();
      row.gpu_model_compute_ms = b.ComputeMs();
      *count = sel.count;
      return row;
    };
    uint64_t dnf_count = 0;
    uint64_t cnf_count = 0;
    auto dnf_row = measure(
        "dnf", [&] { return core::EvalDnf(device.get(), terms); }, &dnf_count);
    auto cnf_row = measure(
        "cnf", [&] { return core::EvalCnf(device.get(), clauses); },
        &cnf_count);
    if (!dnf_row.ok() || !cnf_row.ok()) return 1;
    ResultRow& d = dnf_row.ValueOrDie();
    ResultRow& c = cnf_row.ValueOrDie();
    d.check_passed = c.check_passed = dnf_count == cnf_count;
    PrintRow(d);
    PrintRow(c);
    std::printf("    predicates: dnf=%zu cnf=%zu, cnf/dnf model time %.2fx\n",
                dnf.ValueOrDie().predicate_count(),
                cnf.ValueOrDie().predicate_count(),
                c.gpu_model_total_ms / d.gpu_model_total_ms);
  }
  PrintFooter(
      "The CNF predicate count grows as 2^k while the DNF stays at 2k, and "
      "the model time follows: pick the normal form matching the query's "
      "natural shape.");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace gpudb

int main(int argc, char** argv) {
  gpudb::bench::InitBench(argc, argv);
  return gpudb::bench::Run();
}
