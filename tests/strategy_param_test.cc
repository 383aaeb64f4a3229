// Parameterized cross-strategy agreement sweeps (TEST_P): one fixture, a
// grid of (strategy, workload shape, seed) instantiations. This is the
// library's broadest soundness net: every point of the paper's evaluation
// spectrum must return the value of the direct semantics on every workload
// shape.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "ast/builders.h"
#include "common/rng.h"
#include "eval/direct.h"
#include "opt/planner.h"
#include "storage/index.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace hql {
namespace {

using namespace hql::dsl;  // NOLINT

enum class Shape {
  kPlainUpdates,   // when-states are update chains
  kSubstitutions,  // explicit substitutions
  kConditionals,   // conditional updates
  kAggregates,     // aggregation in bodies and states
  kDeepNesting,    // depth-4 when towers
};

const char* ShapeName(Shape s) {
  switch (s) {
    case Shape::kPlainUpdates:
      return "PlainUpdates";
    case Shape::kSubstitutions:
      return "Substitutions";
    case Shape::kConditionals:
      return "Conditionals";
    case Shape::kAggregates:
      return "Aggregates";
    case Shape::kDeepNesting:
      return "DeepNesting";
  }
  return "?";
}

AstGenOptions OptionsFor(Shape shape) {
  AstGenOptions options;
  options.max_depth = 3;
  switch (shape) {
    case Shape::kPlainUpdates:
      options.allow_compose = false;
      break;
    case Shape::kSubstitutions:
      break;
    case Shape::kConditionals:
      options.allow_cond = true;
      break;
    case Shape::kAggregates:
      options.allow_aggregate = true;
      break;
    case Shape::kDeepNesting:
      options.max_depth = 5;
      break;
  }
  return options;
}

using Param = std::tuple<Strategy, Shape, uint64_t /*seed*/>;

class StrategyAgreementTest : public ::testing::TestWithParam<Param> {};

TEST_P(StrategyAgreementTest, MatchesDirectSemantics) {
  const auto& [strategy, shape, seed] = GetParam();
  Rng rng(seed);
  Schema schema = PropertySchema();
  AstGenOptions options = OptionsFor(shape);
  int evaluated = 0;
  for (int trial = 0; trial < 40; ++trial) {
    Database db = RandomDatabase(&rng, schema, 6, 8);
    size_t arity = 1 + static_cast<size_t>(rng.Uniform(0, 2));
    QueryPtr q;
    if (shape == Shape::kPlainUpdates) {
      q = Query::When(RandomQuery(&rng, schema, arity, options),
                      Upd(RandomUpdate(&rng, schema, options)));
    } else {
      q = RandomQuery(&rng, schema, arity, options);
    }
    ASSERT_OK_AND_ASSIGN(Relation reference,
                         Execute(q, db, schema, Strategy::kDirect));
    auto result = Execute(q, db, schema, strategy);
    ASSERT_TRUE(result.ok())
        << StrategyName(strategy) << ": " << result.status().ToString();
    ++evaluated;
    EXPECT_EQ(result.value(), reference)
        << StrategyName(strategy) << " diverged on " << q->ToString();
  }
  EXPECT_EQ(evaluated, 40);
}

std::string ParamName(const ::testing::TestParamInfo<Param>& info) {
  const auto& [strategy, shape, seed] = info.param;
  std::string name = StrategyName(strategy);
  name[0] = static_cast<char>(std::toupper(name[0]));
  return name + "_" + ShapeName(shape) + "_seed" + std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(
    Spectrum, StrategyAgreementTest,
    ::testing::Combine(
        ::testing::Values(Strategy::kLazy, Strategy::kFilter1,
                          Strategy::kFilter2, Strategy::kFilter3,
                          Strategy::kHybrid),
        ::testing::Values(Shape::kPlainUpdates, Shape::kSubstitutions,
                          Shape::kConditionals, Shape::kAggregates,
                          Shape::kDeepNesting),
        ::testing::Values(1u, 2u, 3u)),
    ParamName);

// A second parameterized sweep: the planner's reuse knob must never change
// results, only plans.
class ReuseParamTest : public ::testing::TestWithParam<double> {};

TEST_P(ReuseParamTest, PlansStayEquivalent) {
  const double reuse = GetParam();
  Rng rng(611);
  Schema schema = PropertySchema();
  AstGenOptions options;
  options.max_depth = 3;
  options.allow_cond = true;
  options.allow_aggregate = true;
  PlannerOptions popts;
  popts.reuse_count = reuse;
  for (int trial = 0; trial < 30; ++trial) {
    Database db = RandomDatabase(&rng, schema, 6, 8);
    QueryPtr q = RandomQuery(&rng, schema, 2, options);
    ASSERT_OK_AND_ASSIGN(Relation reference,
                         Execute(q, db, schema, Strategy::kDirect));
    ASSERT_OK_AND_ASSIGN(Relation out,
                         Execute(q, db, schema, Strategy::kHybrid, popts));
    EXPECT_EQ(out, reference) << "reuse=" << reuse << ": " << q->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(ReuseSweep, ReuseParamTest,
                         ::testing::Values(1.0, 4.0, 64.0, 1024.0));

// Third sweep: lazy-tree-size caps must never change results, only which
// side of the lazy/eager line each `when` lands on.
class TreeCapParamTest : public ::testing::TestWithParam<double> {};

TEST_P(TreeCapParamTest, CapsPreserveSemantics) {
  const double cap = GetParam();
  Rng rng(613);
  Schema schema = PropertySchema();
  AstGenOptions options;
  options.max_depth = 4;
  options.allow_cond = true;
  options.allow_aggregate = true;
  PlannerOptions popts;
  popts.max_lazy_tree_size = cap;
  for (int trial = 0; trial < 30; ++trial) {
    Database db = RandomDatabase(&rng, schema, 6, 8);
    QueryPtr q = RandomQuery(&rng, schema, 2, options);
    ASSERT_OK_AND_ASSIGN(Relation reference,
                         Execute(q, db, schema, Strategy::kDirect));
    ASSERT_OK_AND_ASSIGN(Relation out,
                         Execute(q, db, schema, Strategy::kHybrid, popts));
    EXPECT_EQ(out, reference) << "cap=" << cap << ": " << q->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(TreeCapSweep, TreeCapParamTest,
                         ::testing::Values(1.0, 16.0, 256.0, 1e6));

// Fourth sweep: index policies must never change results, only how
// selections and joins are executed. index_min_rows is pinned to 1 so the
// tiny property databases actually exercise the probe kernels; manual mode
// pre-builds single-column indexes on every relation, advisor mode builds
// on first access.
enum class IndexPolicy { kOff, kManual, kAdvisor };

const char* IndexPolicyName(IndexPolicy p) {
  switch (p) {
    case IndexPolicy::kOff:
      return "IndexOff";
    case IndexPolicy::kManual:
      return "IndexManual";
    case IndexPolicy::kAdvisor:
      return "IndexAdvisor";
  }
  return "?";
}

using IndexParam = std::tuple<Strategy, IndexPolicy>;

class IndexPolicyParamTest : public ::testing::TestWithParam<IndexParam> {};

TEST_P(IndexPolicyParamTest, PoliciesPreserveSemantics) {
  const auto& [strategy, policy] = GetParam();
  Rng rng(617);
  Schema schema = PropertySchema();
  AstGenOptions options;
  options.max_depth = 3;
  options.allow_cond = true;
  options.allow_aggregate = true;
  IndexAdvisor advisor(/*build_threshold=*/1);
  PlannerOptions popts;
  popts.index_min_rows = 1;
  switch (policy) {
    case IndexPolicy::kOff:
      popts.index_mode = IndexMode::kOff;
      break;
    case IndexPolicy::kManual:
      popts.index_mode = IndexMode::kManual;
      break;
    case IndexPolicy::kAdvisor:
      popts.index_mode = IndexMode::kAdvisor;
      popts.index_advisor = &advisor;
      break;
  }
  for (int trial = 0; trial < 30; ++trial) {
    Database db = RandomDatabase(&rng, schema, 6, 8);
    if (policy == IndexPolicy::kManual) {
      for (const auto& [name, arity] : schema.arities()) {
        for (size_t col = 0; col < arity; ++col) {
          ASSERT_OK(db.BuildIndex(name, {col}).status());
        }
      }
    }
    QueryPtr q = RandomQuery(&rng, schema, 2, options);
    ASSERT_OK_AND_ASSIGN(Relation reference,
                         Execute(q, db, schema, Strategy::kDirect));
    ASSERT_OK_AND_ASSIGN(Relation out,
                         Execute(q, db, schema, strategy, popts));
    EXPECT_EQ(out, reference)
        << StrategyName(strategy) << "/" << IndexPolicyName(policy) << ": "
        << q->ToString();
  }
}

std::string IndexParamName(const ::testing::TestParamInfo<IndexParam>& info) {
  const auto& [strategy, policy] = info.param;
  std::string name = StrategyName(strategy);
  name[0] = static_cast<char>(std::toupper(name[0]));
  return name + "_" + IndexPolicyName(policy);
}

INSTANTIATE_TEST_SUITE_P(
    IndexSweep, IndexPolicyParamTest,
    ::testing::Combine(
        ::testing::Values(Strategy::kDirect, Strategy::kLazy,
                          Strategy::kFilter1, Strategy::kFilter2,
                          Strategy::kFilter3, Strategy::kHybrid),
        ::testing::Values(IndexPolicy::kOff, IndexPolicy::kManual,
                          IndexPolicy::kAdvisor)),
    IndexParamName);

// Fifth sweep: the columnar/vectorized route must never change results,
// only how large flat-base selections and equi-joins execute.
// columnar_min_rows is pinned to 1 and the morsel size kept tiny so the
// small property databases actually cross the vectorized kernels (and
// their morsel boundaries) instead of falling back to the row path.
using ColumnarParam = std::tuple<Strategy, ColumnarMode>;

class ColumnarParamTest : public ::testing::TestWithParam<ColumnarParam> {};

TEST_P(ColumnarParamTest, ModesPreserveSemantics) {
  const auto& [strategy, mode] = GetParam();
  Rng rng(619);
  Schema schema = PropertySchema();
  AstGenOptions options;
  options.max_depth = 3;
  options.allow_cond = true;
  options.allow_aggregate = true;
  PlannerOptions popts;
  popts.columnar_mode = mode;
  popts.columnar_min_rows = 1;
  popts.columnar_morsel_rows = 4;  // several morsels even on tiny bases
  popts.columnar_threads = 2;      // exercise the parallel dispatch path
  for (int trial = 0; trial < 30; ++trial) {
    Database db = RandomDatabase(&rng, schema, 6, 8);
    QueryPtr q = RandomQuery(&rng, schema, 2, options);
    ASSERT_OK_AND_ASSIGN(Relation reference,
                         Execute(q, db, schema, Strategy::kDirect));
    ASSERT_OK_AND_ASSIGN(Relation out,
                         Execute(q, db, schema, strategy, popts));
    EXPECT_EQ(out, reference)
        << StrategyName(strategy) << "/" << ColumnarModeName(mode) << ": "
        << q->ToString();
  }
}

std::string ColumnarParamName(
    const ::testing::TestParamInfo<ColumnarParam>& info) {
  const auto& [strategy, mode] = info.param;
  std::string name = StrategyName(strategy);
  name[0] = static_cast<char>(std::toupper(name[0]));
  std::string mode_name = ColumnarModeName(mode);
  mode_name[0] = static_cast<char>(std::toupper(mode_name[0]));
  return name + "_Columnar" + mode_name;
}

INSTANTIATE_TEST_SUITE_P(
    ColumnarSweep, ColumnarParamTest,
    ::testing::Combine(
        ::testing::Values(Strategy::kDirect, Strategy::kLazy,
                          Strategy::kFilter1, Strategy::kFilter2,
                          Strategy::kFilter3, Strategy::kHybrid),
        ::testing::Values(ColumnarMode::kOff, ColumnarMode::kAuto)),
    ColumnarParamName);

}  // namespace
}  // namespace hql
