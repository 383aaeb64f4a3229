#include "opt/explain.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "ast/builders.h"
#include "common/check.h"
#include "common/rng.h"
#include "parser/parser.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace hql {
namespace {

using namespace hql::dsl;  // NOLINT
using ::hql::testing::MakeSchema;

TEST(ExplainTest, ReportsShapeAndForms) {
  Schema schema = MakeSchema({{"R", 2}, {"S", 2}});
  StatsCatalog stats;
  stats.SetCardinality("R", 1000, 2);
  stats.SetCardinality("S", 1000, 2);

  QueryPtr q = When(Join(Eq(Col(0), Col(2)), Rel("R"), Rel("S")),
                    Upd(Ins("R", Sel(Ge(Col(0), Int(30)), Rel("S")))));
  ASSERT_OK_AND_ASSIGN(ExplainReport report, Explain(q, schema, stats));

  EXPECT_EQ(report.arity, 4u);
  EXPECT_EQ(report.when_depth, 1u);
  EXPECT_GT(report.tree_size, 0.0);
  EXPECT_TRUE(report.has_mod_enf);
  EXPECT_FALSE(report.lazy_is_empty);
  EXPECT_GT(report.estimated_cardinality, 0.0);
  EXPECT_GT(report.state_materialization, 0.0);

  // The textual forms parse back.
  EXPECT_OK(ParseQuery(report.enf).status());
  EXPECT_OK(ParseQuery(report.lazy).status());
  EXPECT_OK(ParseQuery(report.plan).status());

  std::string text = FormatExplain(report);
  EXPECT_NE(text.find("enf:"), std::string::npos);
  EXPECT_NE(text.find("decisions:"), std::string::npos);
}

TEST(ExplainTest, DetectsStaticEmptiness) {
  // The Example 2.1(b) query is proved empty in the report.
  Schema schema = MakeSchema({{"R", 2}, {"S", 2}});
  StatsCatalog stats = StatsCatalog();
  QueryPtr rjoins = Join(Eq(Col(0), Col(2)), Rel("R"), Rel("S"));
  QueryPtr query1 = When(
      Diff(When(rjoins, Upd(Ins("R", Sel(Ge(Col(0), Int(30)), Rel("S"))))),
           When(rjoins, Upd(Ins("R", Sel(Gt(Col(0), Int(30)), Rel("S")))))),
      Upd(Del("S", Sel(Lt(Col(0), Int(60)), Rel("S")))));
  ASSERT_OK_AND_ASSIGN(ExplainReport report, Explain(query1, schema, stats));
  EXPECT_TRUE(report.lazy_is_empty);
  EXPECT_DOUBLE_EQ(report.lazy_cost, 0.0);
}

TEST(ExplainTest, FlagsPreciseDeltaFallback) {
  Schema schema = MakeSchema({{"R", 1}, {"S", 1}});
  StatsCatalog stats;
  // An explicit substitution has no mod-ENF form.
  QueryPtr q = When(Rel("R"), Sub1(U(Rel("R"), Rel("S")), "R"));
  ASSERT_OK_AND_ASSIGN(ExplainReport report, Explain(q, schema, stats));
  EXPECT_FALSE(report.has_mod_enf);
  EXPECT_NE(FormatExplain(report).find("precise deltas"),
            std::string::npos);
}

TEST(ExplainTest, RuntimeHalfComesFromContextAndMemoCache) {
  Schema schema = MakeSchema({{"R", 1}});
  StatsCatalog stats;
  QueryPtr q = Rel("R");

  // No cache given: no memo counters and no memo line.
  ExecContext ctx;
  ExecContextScope scope(&ctx);
  ctx.AddViewCreated();
  ASSERT_OK_AND_ASSIGN(ExplainReport plain, Explain(q, schema, stats));
  EXPECT_FALSE(plain.memo.has_value());
  EXPECT_EQ(plain.exec.views_created, 1u);
  EXPECT_EQ(FormatExplain(plain).find("memo:"), std::string::npos);

  MemoCache cache(4);
  EXPECT_EQ(cache.Lookup(7), nullptr);
  cache.Insert(7, std::make_shared<const Relation>(1));
  EXPECT_NE(cache.Lookup(7), nullptr);
  ASSERT_OK_AND_ASSIGN(ExplainReport report,
                       Explain(q, schema, stats, &cache));
  ASSERT_TRUE(report.memo.has_value());
  EXPECT_EQ(report.memo->hits, 1u);
  EXPECT_EQ(report.memo->misses, 1u);
  EXPECT_EQ(report.memo->entries, 1u);
  EXPECT_NE(FormatExplain(report).find("memo:       1 hits, 1 misses (50.0%"),
            std::string::npos)
      << FormatExplain(report);
}

TEST(ExplainTest, NeverFailsOnRandomQueries) {
  Rng rng(1031);
  Schema schema = PropertySchema();
  StatsCatalog stats;
  for (const auto& [name, arity] : schema.arities()) {
    stats.SetCardinality(name, 500, arity);
  }
  AstGenOptions options;
  options.max_depth = 3;
  options.allow_cond = true;
  options.allow_aggregate = true;
  for (int trial = 0; trial < 150; ++trial) {
    QueryPtr q = RandomQuery(&rng, schema, 2, options);
    ASSERT_OK_AND_ASSIGN(ExplainReport report, Explain(q, schema, stats));
    EXPECT_FALSE(FormatExplain(report).empty());
    EXPECT_OK(ParseQuery(report.lazy).status()) << report.lazy;
  }
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE.

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  Schema schema_ = MakeSchema({{"R", 2}, {"S", 2}});

  Database MakeDb() {
    Database db(schema_);
    HQL_CHECK(db.Set("R", testing::Ints({{1, 10}, {2, 20}})).ok());
    HQL_CHECK(
        db.Set("S", testing::Ints({{30, 1}, {35, 2}, {2, 3}})).ok());
    return db;
  }
};

TEST_F(ExplainAnalyzeTest, ActualsMatchExecutionOnExample21) {
  // Example 2.1's query shape: (R join S) when {ins(R, sigma[A>=30](S))}.
  Database db = MakeDb();
  QueryPtr q = When(Join(Eq(Col(0), Col(2)), Rel("R"), Rel("S")),
                    Upd(Ins("R", Sel(Ge(Col(0), Int(30)), Rel("S")))));

  ASSERT_OK_AND_ASSIGN(AnalyzeReport report,
                       ExplainAnalyze(q, db, schema_, AnalyzeOptions()));
  ASSERT_OK_AND_ASSIGN(Relation expected,
                       Execute(q, db, schema_, Strategy::kDirect));
  ASSERT_FALSE(expected.empty());  // the workload is non-trivial
  EXPECT_EQ(report.actual_rows, expected.size());
  EXPECT_GT(report.plan.estimated_cardinality, 0.0);
  EXPECT_FALSE(report.exec.route.empty());

  // Tracing defaults on: the run produced spans, and the final operator's
  // actual output cardinality is the returned relation's size.
  ASSERT_FALSE(report.exec.spans.empty());
  EXPECT_TRUE(std::any_of(
      report.exec.spans.begin(), report.exec.spans.end(),
      [&](const OperatorSpan& s) { return s.rows_out == expected.size(); }));
  for (const OperatorSpan& span : report.exec.spans) {
    EXPECT_FALSE(span.op.empty());
    EXPECT_EQ(span.route, report.exec.route);
  }

  std::string text = FormatExplainAnalyze(report);
  EXPECT_NE(text.find("estimated:"), std::string::npos);
  EXPECT_NE(text.find("actual:"), std::string::npos);
  EXPECT_NE(text.find("spans:"), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, ActualsMatchOnExample22ComposedUpdates) {
  // Example 2.2's composed-state shape: a deletion chained before an
  // insertion, queried through a selection.
  Database db = MakeDb();
  QueryPtr q = When(
      Sel(Ge(Col(0), Int(2)), Rel("R")),
      Comp(Upd(Del("R", Sel(Lt(Col(1), Int(15)), Rel("R")))),
           Upd(Ins("R", Sel(Ge(Col(0), Int(30)), Rel("S"))))));

  for (Strategy strategy : {Strategy::kLazy, Strategy::kFilter2,
                            Strategy::kFilter3, Strategy::kHybrid}) {
    AnalyzeOptions options;
    options.strategy = strategy;
    ASSERT_OK_AND_ASSIGN(AnalyzeReport report,
                         ExplainAnalyze(q, db, schema_, options));
    ASSERT_OK_AND_ASSIGN(Relation expected,
                         Execute(q, db, schema_, Strategy::kDirect));
    EXPECT_EQ(report.actual_rows, expected.size())
        << "strategy " << StrategyName(strategy);
    EXPECT_FALSE(report.exec.route.empty())
        << "strategy " << StrategyName(strategy);
  }
}

TEST_F(ExplainAnalyzeTest, TracingOffOmitsSpansButKeepsCounters) {
  Database db = MakeDb();
  QueryPtr q = When(Join(Eq(Col(0), Col(2)), Rel("R"), Rel("S")),
                    Upd(Ins("R", Sel(Ge(Col(0), Int(30)), Rel("S")))));
  AnalyzeOptions options;
  options.tracing = false;
  // An eager route must materialize the state as shared views, so the
  // counter half of the report is non-trivially populated.
  options.strategy = Strategy::kFilter2;
  ASSERT_OK_AND_ASSIGN(AnalyzeReport report,
                       ExplainAnalyze(q, db, schema_, options));
  EXPECT_TRUE(report.exec.spans.empty());
  EXPECT_GT(report.exec.views_created, 0u);
}

TEST_F(ExplainAnalyzeTest, ChargesPropagateToCallersContext) {
  Database db = MakeDb();
  QueryPtr q = When(Sel(Ge(Col(0), Int(1)), Rel("R")),
                    Upd(Ins("R", Sel(Ge(Col(0), Int(30)), Rel("S")))));
  AnalyzeOptions options;
  options.strategy = Strategy::kFilter2;
  ExecContext ctx;
  {
    ExecContextScope scope(&ctx);
    ASSERT_OK(ExplainAnalyze(q, db, schema_, options).status());
  }
  // The analyzed run's work is visible to the enclosing accounting.
  EXPECT_GT(ctx.Snapshot().views_created, 0u);
}

}  // namespace
}  // namespace hql
