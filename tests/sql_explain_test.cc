#include <cmath>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/json.h"
#include "src/common/profile.h"
#include "src/common/trace.h"
#include "src/core/executor.h"
#include "src/db/datagen.h"
#include "src/gpu/device.h"
#include "src/gpu/perf_model.h"
#include "src/sql/explain.h"
#include "src/sql/parser.h"
#include "tests/test_util.h"

namespace gpudb {
namespace sql {
namespace {

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  ExplainAnalyzeTest() : device_(100, 100) {
    auto t = db::MakeUniformTable(5000, 10, 3, /*seed=*/7);
    EXPECT_TRUE(t.ok());
    table_ = std::move(t).ValueOrDie();  // columns u0, u1, u2
    auto e = core::Executor::Make(&device_, &table_);
    EXPECT_TRUE(e.ok());
    executor_ = std::move(e).ValueOrDie();
  }

  ~ExplainAnalyzeTest() override {
    // EXPLAIN ANALYZE restores the tracer state it found; tests run with
    // tracing off, so leave no spans behind for other suites. EXPLAIN
    // PROFILE likewise restores the profiler flag but leaves label
    // aggregates in the global Profiler; drop those too.
    Tracer::Global().Clear();
    Profiler::Global().ResetForTesting();
  }

  gpu::Device device_;
  db::Table table_;
  std::unique_ptr<core::Executor> executor_;
};

TEST_F(ExplainAnalyzeTest, ParserAcceptsAndFlagsExplainAnalyze) {
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery("EXPLAIN ANALYZE SELECT COUNT(*) FROM t WHERE u0 >= 100",
                 table_));
  EXPECT_TRUE(q.explain_analyze);
  EXPECT_EQ(q.kind, Query::Kind::kCount);

  ASSERT_OK_AND_ASSIGN(Query plain,
                       ParseQuery("SELECT COUNT(*) FROM t", table_));
  EXPECT_FALSE(plain.explain_analyze);

  // EXPLAIN without ANALYZE is not part of the fragment.
  EXPECT_FALSE(ParseQuery("EXPLAIN SELECT COUNT(*) FROM t", table_).ok());
}

TEST_F(ExplainAnalyzeTest, MatchesPlainExecutionResult) {
  ASSERT_OK_AND_ASSIGN(QueryResult plain,
                       ExecuteSql(executor_.get(),
                                  "SELECT COUNT(*) FROM t WHERE u0 >= 100"));
  ASSERT_OK_AND_ASSIGN(
      QueryResult analyzed,
      ExecuteSql(executor_.get(),
                 "EXPLAIN ANALYZE SELECT COUNT(*) FROM t WHERE u0 >= 100"));
  EXPECT_FALSE(plain.analyzed);
  EXPECT_TRUE(analyzed.analyzed);
  EXPECT_EQ(analyzed.count, plain.count);
  EXPECT_FALSE(analyzed.explain.empty());
  EXPECT_FALSE(analyzed.spans.empty());
  EXPECT_GT(analyzed.simulated_total_ms, 0.0);
  // Tracing was off before the query and is off again after.
  EXPECT_FALSE(Tracer::Global().enabled());
}

TEST_F(ExplainAnalyzeTest, SelfMsSumsToPerfModelTotal) {
  // The acceptance criterion of the observability layer: per-operator
  // simulated self-time telescopes to the PerfModel total of the query's
  // full counter delta.
  const gpu::CounterMark before = gpu::CounterMark::Of(device_.counters());
  ASSERT_OK_AND_ASSIGN(
      QueryResult r,
      ExecuteSql(executor_.get(),
                 "EXPLAIN ANALYZE SELECT COUNT(*) FROM t WHERE u0 >= 100 "
                 "AND u1 < 5"));
  const gpu::DeviceCounters delta =
      gpu::DeltaSince(before, device_.counters());
  const double expected_total = gpu::PerfModel().Estimate(delta).TotalMs();
  EXPECT_NEAR(r.simulated_total_ms, expected_total, 1e-9);

  // Recompute each span's self time (total minus direct children totals)
  // and check the telescoped sum equals the root total.
  std::map<uint64_t, double> children_total;
  for (const FinishedSpan& s : r.spans) {
    children_total[s.parent_id] += s.NumberTag("total_ms", 0.0);
  }
  double self_sum = 0.0;
  double root_total = -1.0;
  for (const FinishedSpan& s : r.spans) {
    const double total = s.NumberTag("total_ms", 0.0);
    self_sum += total - children_total[s.id];
    if (s.name == "query") root_total = total;
  }
  ASSERT_GE(root_total, 0.0) << "no root query span";
  EXPECT_NEAR(self_sum, root_total, 1e-9);
  EXPECT_NEAR(root_total, expected_total, 1e-9);
}

TEST_F(ExplainAnalyzeTest, TreeShowsOperatorsCostsAndFragments) {
  ASSERT_OK_AND_ASSIGN(
      QueryResult r,
      ExecuteSql(executor_.get(),
                 "EXPLAIN ANALYZE SELECT COUNT(*) FROM t WHERE u0 >= 100 "
                 "AND u1 < 5"));
  // Operator spans with their simulated cost split.
  EXPECT_NE(r.explain.find("query"), std::string::npos);
  EXPECT_NE(r.explain.find("Count"), std::string::npos);
  EXPECT_NE(r.explain.find("Where"), std::string::npos);
  EXPECT_NE(r.explain.find("EvalCnf"), std::string::npos);
  EXPECT_NE(r.explain.find("total="), std::string::npos);
  EXPECT_NE(r.explain.find("self="), std::string::npos);
  EXPECT_NE(r.explain.find("fill "), std::string::npos);
  EXPECT_NE(r.explain.find("setup "), std::string::npos);
  // Operator tags and the device rollup: fragments generated vs passed and
  // bytes moved.
  EXPECT_NE(r.explain.find("selectivity="), std::string::npos);
  EXPECT_NE(r.explain.find("normal_form=cnf"), std::string::npos);
  EXPECT_NE(r.explain.find("passes:"), std::string::npos);
  EXPECT_NE(r.explain.find("fragments ->"), std::string::npos);
  EXPECT_NE(r.explain.find("B uploaded"), std::string::npos);
  // The span forest renders children indented under the root.
  EXPECT_EQ(r.explain.rfind("query", 0), 0u) << "root first:\n" << r.explain;
  EXPECT_NE(r.explain.find("\n  Count"), std::string::npos) << r.explain;
}

TEST_F(ExplainAnalyzeTest, SpansExportAsValidChromeTrace) {
  ASSERT_OK_AND_ASSIGN(
      QueryResult r,
      ExecuteSql(executor_.get(),
                 "EXPLAIN ANALYZE SELECT KTH_LARGEST(u0, 10) FROM t"));
  auto parsed = json::Parse(Tracer::ToChromeTrace(r.spans));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* events = parsed.ValueOrDie().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->as_array().size(), r.spans.size());
}

TEST_F(ExplainAnalyzeTest, WorksForEveryQueryKind) {
  for (const char* query : {
           "EXPLAIN ANALYZE SELECT * FROM t WHERE u0 < 100",
           "EXPLAIN ANALYZE SELECT SUM(u1) FROM t WHERE u0 >= 512",
           "EXPLAIN ANALYZE SELECT MAX(u2) FROM t",
           "EXPLAIN ANALYZE SELECT KTH_LARGEST(u0, 3) FROM t",
       }) {
    auto r = ExecuteSql(executor_.get(), query);
    ASSERT_TRUE(r.ok()) << query << ": " << r.status().ToString();
    EXPECT_TRUE(r.ValueOrDie().analyzed) << query;
    EXPECT_FALSE(r.ValueOrDie().explain.empty()) << query;
    EXPECT_GT(r.ValueOrDie().simulated_total_ms, 0.0) << query;
  }
}

TEST_F(ExplainAnalyzeTest, ParserAcceptsExplainProfile) {
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery("EXPLAIN PROFILE SELECT COUNT(*) FROM t WHERE u0 >= 100",
                 table_));
  EXPECT_TRUE(q.explain_profile);
  EXPECT_TRUE(q.explain_analyze);  // PROFILE implies ANALYZE

  ASSERT_OK_AND_ASSIGN(
      Query analyze,
      ParseQuery("EXPLAIN ANALYZE SELECT COUNT(*) FROM t", table_));
  EXPECT_FALSE(analyze.explain_profile);
}

TEST_F(ExplainAnalyzeTest, ExplainProfileCarriesCounterGroups) {
  ASSERT_OK_AND_ASSIGN(QueryResult plain,
                       ExecuteSql(executor_.get(),
                                  "SELECT COUNT(*) FROM t WHERE u0 >= 100"));
  ASSERT_OK_AND_ASSIGN(
      QueryResult profiled,
      ExecuteSql(executor_.get(),
                 "EXPLAIN PROFILE SELECT COUNT(*) FROM t WHERE u0 >= 100"));
  // Same answer, same analyze fields, plus the deep-counter table.
  EXPECT_EQ(profiled.count, plain.count);
  EXPECT_TRUE(profiled.analyzed);
  EXPECT_TRUE(profiled.profiled);
  ASSERT_FALSE(profiled.profile_groups.empty());
  ASSERT_FALSE(profiled.profile.empty());
  uint64_t fragments = 0;
  uint64_t depth_tested = 0;
  uint64_t plane_bytes = 0;
  for (const PassProfileGroup& g : profiled.profile_groups) {
    EXPECT_FALSE(g.label.empty());
    EXPECT_GT(g.passes, 0u);
    fragments += g.fragments;
    depth_tested += g.prof.depth_tested;
    plane_bytes += g.prof.plane_bytes_read + g.prof.plane_bytes_written;
  }
  EXPECT_GT(fragments, 0u);
  EXPECT_GT(depth_tested, 0u);
  EXPECT_GT(plane_bytes, 0u);
  EXPECT_NE(profiled.profile.find("depth_test"), std::string::npos);
  EXPECT_NE(profiled.profile.find("plane_rd_B"), std::string::npos);
  // The query-scoped enable restored the global off state.
  EXPECT_FALSE(Profiler::Global().enabled());
  // ToString appends the table under the tree.
  EXPECT_NE(profiled.ToString().find("pass profile:"), std::string::npos);

  // Plain EXPLAIN ANALYZE does not profile.
  ASSERT_OK_AND_ASSIGN(
      QueryResult analyzed,
      ExecuteSql(executor_.get(),
                 "EXPLAIN ANALYZE SELECT COUNT(*) FROM t WHERE u0 >= 100"));
  EXPECT_FALSE(analyzed.profiled);
  EXPECT_TRUE(analyzed.profile.empty());
}

TEST_F(ExplainAnalyzeTest, ProfileTableByteIdenticalAcrossThreadCounts) {
  // The EXPLAIN PROFILE acceptance check: the rendered counter table for the
  // same query must be byte-identical at 1 and 8 worker threads.
  const char* query =
      "EXPLAIN PROFILE SELECT COUNT(*) FROM t WHERE u0 >= 100 AND u1 < 5";
  std::string first;
  for (int threads : {1, 8}) {
    gpu::Device device(100, 100);
    ASSERT_OK(device.SetWorkerThreads(threads));
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<core::Executor> executor,
                         core::Executor::Make(&device, &table_));
    ASSERT_OK_AND_ASSIGN(QueryResult r, ExecuteSql(executor.get(), query));
    ASSERT_TRUE(r.profiled);
    ASSERT_FALSE(r.profile.empty());
    if (first.empty()) {
      first = r.profile;
    } else {
      EXPECT_EQ(r.profile, first) << "threads=" << threads;
    }
  }
}

TEST_F(ExplainAnalyzeTest, ToStringAppendsTree) {
  ASSERT_OK_AND_ASSIGN(
      QueryResult r,
      ExecuteSql(executor_.get(), "EXPLAIN ANALYZE SELECT COUNT(*) FROM t"));
  const std::string text = r.ToString();
  EXPECT_EQ(text.rfind("count = ", 0), 0u);
  EXPECT_NE(text.find("query"), std::string::npos);
}

}  // namespace
}  // namespace sql
}  // namespace gpudb
