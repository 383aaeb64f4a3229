// Columnar execution tests: the ColumnBatch cache lifecycle on Relation,
// predicate compilation onto batch encodings, and randomized agreement of
// the vectorized kernels (eval/vector_exec.h) with the row kernels —
// results must be bit-identical, not merely set-equal, across typed
// fast paths, overlays, and morsel boundaries.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "ast/builders.h"
#include "common/rng.h"
#include "eval/ra_eval.h"
#include "eval/vector_exec.h"
#include "storage/column_batch.h"
#include "storage/relation.h"
#include "storage/view.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace hql {
namespace {

using namespace hql::dsl;  // NOLINT
using hql::testing::IntRow;
using hql::testing::Ints;

// A columnar config that engages on tiny test relations and crosses morsel
// boundaries (morsel_rows intentionally smaller than the data).
PhysicalPolicy TestConfig(size_t morsel_rows = 8, size_t threads = 1) {
  PhysicalPolicy config;
  config.columnar_mode = ColumnarMode::kAuto;
  config.columnar_min_rows = 1;
  config.columnar_morsel_rows = morsel_rows;
  config.columnar_threads = threads;
  return config;
}

Relation MixedRelation() {
  // Column 0: all int. Column 1: all double. Column 2: mixed types.
  std::vector<Tuple> rows;
  rows.push_back({Value::Int(1), Value::Double(1.5), Value::Str("a")});
  rows.push_back({Value::Int(2), Value::Double(-2.0), Value::Int(7)});
  rows.push_back({Value::Int(3), Value::Double(0.0), Value::Bool(true)});
  rows.push_back({Value::Int(4), Value::Double(4.25), Value::Nul()});
  return Relation::FromTuples(3, std::move(rows));
}

// ---------------------------------------------------------------------------
// Batch representation.
// ---------------------------------------------------------------------------

TEST(ColumnBatchTest, EncodingsFollowColumnTypes) {
  Relation rel = MixedRelation();
  ColumnBatch batch(rel);
  EXPECT_EQ(batch.rows(), rel.size());
  EXPECT_EQ(batch.arity(), 3u);
  EXPECT_EQ(batch.encoding(0), ColumnEncoding::kInt64);
  EXPECT_EQ(batch.encoding(1), ColumnEncoding::kFloat64);
  EXPECT_EQ(batch.encoding(2), ColumnEncoding::kGeneric);
}

TEST(ColumnBatchTest, ValueAtReboxesEveryEncoding) {
  Relation rel = MixedRelation();
  ColumnBatch batch(rel);
  const std::vector<Tuple>& tuples = rel.tuples();
  for (size_t r = 0; r < batch.rows(); ++r) {
    for (size_t c = 0; c < batch.arity(); ++c) {
      EXPECT_EQ(batch.ValueAt(r, c), tuples[r][c]) << r << "," << c;
    }
  }
}

TEST(ColumnBatchTest, RowOrderMatchesSortedBase) {
  Rng rng(101);
  Relation rel = GenRelation(&rng, 100, 2, 50);
  ColumnBatch batch(rel);
  ASSERT_EQ(batch.encoding(0), ColumnEncoding::kInt64);
  const int64_t* col0 = batch.ints(0);
  for (size_t r = 0; r < batch.rows(); ++r) {
    EXPECT_EQ(Value::Int(col0[r]), rel.tuples()[r][0]) << r;
  }
}

TEST(ColumnBatchTest, EmptyRelationBatch) {
  Relation rel(2);
  ColumnBatch batch(rel);
  EXPECT_EQ(batch.rows(), 0u);
  EXPECT_EQ(batch.arity(), 2u);
}

// ---------------------------------------------------------------------------
// Cache lifecycle on Relation (mirrors the secondary-index cache).
// ---------------------------------------------------------------------------

TEST(ColumnBatchCacheTest, InstallOnceAndShared) {
  Relation rel = Ints({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(rel.ExistingColumnarBatch(), nullptr);
  ColumnBatchPtr first = rel.ColumnarBatch();
  ASSERT_NE(first, nullptr);
  ColumnBatchPtr second = rel.ColumnarBatch();
  EXPECT_EQ(first.get(), second.get());  // one transposition, shared
  EXPECT_EQ(rel.ExistingColumnarBatch().get(), first.get());
}

TEST(ColumnBatchCacheTest, CopyDropsMoveCarries) {
  Relation rel = Ints({{1, 2}, {3, 4}});
  ColumnBatchPtr built = rel.ColumnarBatch();

  Relation copy = rel;  // copies never share the cache
  EXPECT_EQ(copy.ExistingColumnarBatch(), nullptr);

  Relation moved = std::move(rel);  // moves carry it
  EXPECT_EQ(moved.ExistingColumnarBatch().get(), built.get());
}

TEST(ColumnBatchCacheTest, MutationInvalidates) {
  Relation rel = Ints({{1, 2}, {3, 4}});
  ColumnBatchPtr built = rel.ColumnarBatch();
  ASSERT_NE(built, nullptr);

  rel.Insert(IntRow({5, 6}));
  EXPECT_EQ(rel.ExistingColumnarBatch(), nullptr);
  ColumnBatchPtr rebuilt = rel.ColumnarBatch();
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_NE(rebuilt.get(), built.get());
  EXPECT_EQ(rebuilt->rows(), 3u);

  rel.Erase(IntRow({1, 2}));
  EXPECT_EQ(rel.ExistingColumnarBatch(), nullptr);
  EXPECT_EQ(rel.ColumnarBatch()->rows(), 2u);

  // The old batch stays valid for holders that grabbed it before the
  // mutation — it images the old content.
  EXPECT_EQ(built->rows(), 2u);
  EXPECT_EQ(built->ValueAt(0, 0), Value::Int(1));
}

// ---------------------------------------------------------------------------
// Predicate compilation.
// ---------------------------------------------------------------------------

TEST(VectorPredicateTest, CompilesConjunctionsOfColumnVsLiteral) {
  Relation rel = MixedRelation();
  ColumnBatch batch(rel);
  auto compiled = CompileVectorPredicate(
      And(Ge(Col(0), Int(2)), Lt(Col(1), Dbl(4.0))), batch);
  ASSERT_TRUE(compiled.has_value());
  ASSERT_EQ(compiled->conjuncts.size(), 2u);
  EXPECT_EQ(compiled->conjuncts[0].kind, VectorConjunct::Kind::kIntInt);
  EXPECT_EQ(compiled->conjuncts[1].kind, VectorConjunct::Kind::kNumDouble);
}

TEST(VectorPredicateTest, RejectsNonConjunctiveShapes) {
  Relation rel = MixedRelation();
  ColumnBatch batch(rel);
  // Disjunction, column-vs-column, and arithmetic are row-kernel shapes.
  EXPECT_FALSE(
      CompileVectorPredicate(Or(Ge(Col(0), Int(2)), Lt(Col(0), Int(1))),
                             batch)
          .has_value());
  EXPECT_FALSE(CompileVectorPredicate(Eq(Col(0), Col(1)), batch).has_value());
  EXPECT_FALSE(CompileVectorPredicate(Ge(Add(Col(0), Int(1)), Int(2)), batch)
                   .has_value());
}

TEST(VectorPredicateTest, SelectionMatchesRowEvaluationPerConjunct) {
  Relation rel = MixedRelation();
  ColumnBatch batch(rel);
  // Cross-type comparisons exercise Value::Compare's int/double tie-break;
  // out-of-range columns fold to the row kernels' null semantics.
  std::vector<ScalarExprPtr> preds = {
      Ge(Col(0), Int(2)),     Eq(Col(0), Dbl(2.0)),  Ne(Col(0), Dbl(2.0)),
      Lt(Col(1), Int(1)),     Le(Col(1), Dbl(0.0)),  Gt(Col(2), Int(0)),
      Eq(Col(2), Str("a")),   Ge(Col(7), Int(0)),    Bool(true),
      Bool(false),            Lt(Col(1), Dbl(-1.9)),
  };
  for (const ScalarExprPtr& pred : preds) {
    auto compiled = CompileVectorPredicate(pred, batch);
    ASSERT_TRUE(compiled.has_value()) << pred->ToString();
    std::vector<uint32_t> sel;
    EvalPredicateBatch(batch, *compiled, 0, batch.rows(), &sel);
    Relation expected = FilterRelation(rel, *pred);
    std::vector<Tuple> got;
    for (uint32_t r : sel) got.push_back(rel.tuples()[r]);
    EXPECT_EQ(Relation::FromSortedUnique(rel.arity(), std::move(got)),
              expected)
        << pred->ToString();
  }
}

// ---------------------------------------------------------------------------
// Vectorized kernels vs row kernels.
// ---------------------------------------------------------------------------

TEST(ColumnarFilterTest, FallsBackBelowMinRowsAndOnHeavyOverlays) {
  Relation rel = Ints({{1, 2}, {3, 4}, {5, 6}});
  RelationView view(std::make_shared<Relation>(rel));
  ScalarExprPtr pred = Ge(Col(0), Int(3));

  PhysicalPolicy off;  // mode kOff
  EXPECT_FALSE(TryColumnarFilter(view, pred, off).has_value());

  PhysicalPolicy small = TestConfig();
  small.columnar_min_rows = 100;  // base too small
  EXPECT_FALSE(TryColumnarFilter(view, pred, small).has_value());

  // An overlay past max_delta_fraction of the base falls back too.
  RelationView heavy = RelationView::Overlay(
      std::make_shared<Relation>(rel),
      {IntRow({7, 8}), IntRow({9, 10})}, {IntRow({1, 2})});
  PhysicalPolicy strict = TestConfig();
  strict.columnar_max_delta_fraction = 0.1;
  EXPECT_FALSE(TryColumnarFilter(heavy, pred, strict).has_value());
  // ...but the same overlay vectorizes under the default fraction of a
  // larger base.
  EXPECT_TRUE(TryColumnarFilter(view, pred, TestConfig()).has_value());
}

TEST(ColumnarFilterTest, OverlayResultsAreBitIdentical) {
  Rng rng(271);
  Relation base = GenRelation(&rng, 500, 2, 200);
  RelationPtr shared = std::make_shared<Relation>(std::move(base));
  Relation dels = SampleFraction(&rng, *shared, 0.05);
  Relation adds = GenRelation(&rng, 20, 2, 200);
  RelationView view = RelationView::Overlay(
      shared, adds.tuples(), dels.tuples());

  ScalarExprPtr pred = And(Ge(Col(0), Int(40)), Lt(Col(1), Int(700000)));
  auto columnar = TryColumnarFilter(view, pred, TestConfig(64));
  ASSERT_TRUE(columnar.has_value());
  EXPECT_EQ(*columnar, FilterRelation(view, *pred));
}

TEST(ColumnarJoinTest, EquiJoinMatchesRowHashJoin) {
  Rng rng(277);
  Relation lhs = GenRelation(&rng, 300, 2, 60);
  Relation rhs = GenRelation(&rng, 80, 2, 60);
  RelationView lv(std::make_shared<Relation>(std::move(lhs)));
  RelationView rv(std::make_shared<Relation>(std::move(rhs)));

  // Pure equi-join and equi-join with a residual conjunct.
  std::vector<ScalarExprPtr> preds = {
      Eq(Col(0), Col(2)),
      And(Eq(Col(0), Col(2)), Lt(Col(1), Col(3))),
  };
  for (const ScalarExprPtr& pred : preds) {
    auto columnar = TryColumnarJoin(lv, rv, pred, TestConfig(32));
    ASSERT_TRUE(columnar.has_value()) << pred->ToString();
    EXPECT_EQ(*columnar, JoinRelations(lv, rv, pred)) << pred->ToString();
  }

  // A pure theta join has no equality conjunct to hash on.
  EXPECT_FALSE(
      TryColumnarJoin(lv, rv, Lt(Col(0), Col(2)), TestConfig()).has_value());
}

TEST(ColumnarJoinTest, OverlayedProbeSideIsPatched) {
  Rng rng(281);
  Relation probe = GenRelation(&rng, 400, 2, 80);
  RelationPtr shared = std::make_shared<Relation>(std::move(probe));
  Relation dels = SampleFraction(&rng, *shared, 0.04);
  Relation adds = GenRelation(&rng, 15, 2, 80);
  RelationView lv = RelationView::Overlay(
      shared, adds.tuples(), dels.tuples());
  RelationView rv(std::make_shared<Relation>(GenRelation(&rng, 50, 2, 80)));

  ScalarExprPtr pred = Eq(Col(0), Col(2));
  auto columnar = TryColumnarJoin(lv, rv, pred, TestConfig(32));
  ASSERT_TRUE(columnar.has_value());
  EXPECT_EQ(*columnar, JoinRelations(lv, rv, pred));
}

// Randomized property sweep: the routed kernels must equal the row kernels
// bit-identically on random relations, predicates, overlays, thread counts
// and morsel boundaries.
TEST(ColumnarPropertyTest, VectorizedEqualsRowKernels) {
  Rng rng(283);
  AstGenOptions options;
  options.literal_domain = 16;
  for (int trial = 0; trial < 60; ++trial) {
    size_t arity = 1 + static_cast<size_t>(rng.Uniform(0, 2));
    size_t rows = 1 + static_cast<size_t>(rng.Uniform(0, 400));
    Relation base = GenRelation(&rng, rows, arity, 16, 16);
    RelationPtr shared = std::make_shared<Relation>(std::move(base));
    RelationView view(shared);
    if (rng.Uniform(0, 2) == 0) {
      Relation dels = SampleFraction(&rng, *shared, 0.05);
      Relation adds = GenRelation(&rng, rng.Uniform(0, 10), arity, 16, 16);
      view = RelationView::Overlay(shared, adds.tuples(), dels.tuples());
    }
    PhysicalPolicy config = TestConfig(
        /*morsel_rows=*/1 + static_cast<size_t>(rng.Uniform(0, 100)),
        /*threads=*/1 + static_cast<size_t>(rng.Uniform(0, 3)));

    ScalarExprPtr pred = RandomPredicate(&rng, arity, options);
    Relation vectorized = VectorizedFilter(view, pred, config);
    EXPECT_EQ(vectorized, FilterRelation(view, *pred))
        << "filter trial " << trial << ": " << pred->ToString();

    Relation other = GenRelation(&rng, 1 + rng.Uniform(0, 100), arity, 16, 16);
    RelationView ov(std::make_shared<Relation>(std::move(other)));
    ScalarExprPtr jpred =
        Eq(Col(rng.Uniform(0, arity - 1)),
           Col(arity + static_cast<size_t>(rng.Uniform(0, arity - 1))));
    if (rng.Uniform(0, 2) == 0) {
      jpred = And(jpred, RandomPredicate(&rng, 2 * arity, options));
    }
    Relation vjoin = VectorizedJoin(view, ov, jpred, config);
    EXPECT_EQ(vjoin, JoinRelations(view, ov, jpred))
        << "join trial " << trial << ": " << jpred->ToString();
  }
}

}  // namespace
}  // namespace hql
