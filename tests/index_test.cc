// Secondary-index layer tests: RelationIndex probe correctness, the
// per-base install-once cache (sharing, invalidation on mutation, copy vs
// move semantics), the overlay probe path across delta application and the
// consolidation boundary, the frequency-driven advisor, the sargable
// extractor, and randomized agreement of the index-backed kernels with the
// scan kernels over version trees.

#include "storage/index.h"

#include "common/exec_context.h"

#include <gtest/gtest.h>

#include <vector>

#include "ast/builders.h"
#include "ast/scalar_expr.h"
#include "common/rng.h"
#include "eval/index_exec.h"
#include "eval/ra_eval.h"
#include "storage/database.h"
#include "storage/relation.h"
#include "storage/view.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace hql {
namespace {

using namespace hql::dsl;  // NOLINT
using ::hql::testing::IntRow;
using ::hql::testing::Ints;

std::vector<Tuple> ProbedTuples(const Relation& base,
                                const RelationIndex& index,
                                const Tuple& key) {
  std::vector<Tuple> out;
  for (uint32_t pos : index.Probe(key)) out.push_back(base.tuples()[pos]);
  return out;
}

TEST(RelationIndexTest, SingleColumnProbe) {
  Relation r = Ints({{1, 10}, {1, 20}, {2, 30}, {3, 40}});
  RelationIndex index(r, {0});
  EXPECT_EQ(index.distinct_keys(), 3u);
  EXPECT_EQ(index.indexed_rows(), 4u);

  EXPECT_EQ(ProbedTuples(r, index, IntRow({1})),
            (std::vector<Tuple>{IntRow({1, 10}), IntRow({1, 20})}));
  EXPECT_EQ(ProbedTuples(r, index, IntRow({3})),
            (std::vector<Tuple>{IntRow({3, 40})}));
  EXPECT_TRUE(index.Probe(IntRow({99})).empty());
}

TEST(RelationIndexTest, MultiColumnProbe) {
  Relation r = Ints({{1, 10, 5}, {1, 20, 5}, {1, 20, 6}, {2, 20, 5}});
  RelationIndex index(r, {0, 1});
  EXPECT_EQ(index.distinct_keys(), 3u);
  EXPECT_EQ(ProbedTuples(r, index, IntRow({1, 20})),
            (std::vector<Tuple>{IntRow({1, 20, 5}), IntRow({1, 20, 6})}));
  EXPECT_TRUE(index.Probe(IntRow({2, 10})).empty());
}

TEST(RelationIndexTest, TypeSensitiveKeys) {
  // Int(1) and Double(1.0) are distinct values library-wide; the index must
  // keep them in separate buckets, matching kEq scan semantics.
  Relation r = Relation::FromTuples(
      1, {Tuple{Value::Int(1)}, Tuple{Value::Double(1.0)}});
  RelationIndex index(r, {0});
  EXPECT_EQ(index.distinct_keys(), 2u);
  EXPECT_EQ(index.Probe(Tuple{Value::Int(1)}).size(), 1u);
  EXPECT_EQ(index.Probe(Tuple{Value::Double(1.0)}).size(), 1u);
}

TEST(RelationIndexTest, PositionsAscendWithinBucket) {
  Relation r = Ints({{5, 1}, {5, 2}, {5, 3}, {7, 1}});
  RelationIndex index(r, {0});
  RelationIndex::PosSpan span = index.Probe(IntRow({5}));
  ASSERT_EQ(span.size(), 3u);
  for (size_t i = 1; i < span.size(); ++i) {
    EXPECT_LT(span.data[i - 1], span.data[i]);
  }
}

TEST(IndexCacheTest, IndexOnBuildsOnceAndShares) {
  ExecContext ctx;
  ExecContextScope scope(&ctx);
  Relation r = Ints({{1, 10}, {2, 20}});
  RelationIndexPtr a = r.IndexOn({0});
  RelationIndexPtr b = r.IndexOn({0});
  RelationIndexPtr c = r.ExistingIndex({0});
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a.get(), c.get());
  ExecStats after = ctx.Snapshot();
  EXPECT_EQ(after.indexes_built, 1u);
  EXPECT_EQ(after.indexes_shared, 2u);

  // A different column set is a different index.
  RelationIndexPtr d = r.IndexOn({1});
  EXPECT_NE(a.get(), d.get());
  EXPECT_EQ(ctx.Snapshot().indexes_built, 2u);
}

TEST(IndexCacheTest, ExistingIndexIsNullBeforeBuild) {
  Relation r = Ints({{1, 10}});
  EXPECT_EQ(r.ExistingIndex({0}), nullptr);
  r.IndexOn({0});
  EXPECT_NE(r.ExistingIndex({0}), nullptr);
  EXPECT_EQ(r.ExistingIndex({1}), nullptr);
}

TEST(IndexCacheTest, MutationInvalidatesCache) {
  Relation r = Ints({{1, 10}, {2, 20}});
  r.IndexOn({0});
  ASSERT_NE(r.ExistingIndex({0}), nullptr);
  r.Insert(IntRow({3, 30}));
  EXPECT_EQ(r.ExistingIndex({0}), nullptr);

  RelationIndexPtr rebuilt = r.IndexOn({0});
  EXPECT_EQ(rebuilt->indexed_rows(), 3u);
  EXPECT_EQ(rebuilt->Probe(IntRow({3})).size(), 1u);

  r.Erase(IntRow({1, 10}));
  EXPECT_EQ(r.ExistingIndex({0}), nullptr);
}

TEST(IndexCacheTest, CopiesDropTheCacheMovesCarryIt) {
  Relation r = Ints({{1, 10}});
  r.IndexOn({0});

  Relation copy = r;  // a copy is a fresh mutable value: no cache
  EXPECT_EQ(copy.ExistingIndex({0}), nullptr);
  EXPECT_NE(r.ExistingIndex({0}), nullptr);

  Relation moved = std::move(r);  // a move transfers the cache
  EXPECT_NE(moved.ExistingIndex({0}), nullptr);
}

PhysicalPolicy ManualConfig() {
  PhysicalPolicy config;
  config.index_mode = IndexMode::kManual;
  config.index_min_rows = 1;
  return config;
}

TEST(IndexedFilterTest, OverlayProbeBeforeAndAfterApplyDelta) {
  PhysicalPolicy config = ManualConfig();
  RelationView flat(Ints({{1, 10}, {1, 20}, {2, 30}, {3, 40}}));
  flat.base()->IndexOn({0});
  ScalarExprPtr pred = Eq(Col(0), Int(1));

  std::optional<Relation> hit = TryIndexedFilter(flat, pred, config);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, FilterRelation(flat, *pred));

  // Stack a delta touching the probed key on both sides: delete one base
  // match, add a new one. Force overlay stacking so the base (and its
  // index) stays shared.
  RelationView overlay = flat.ApplyDelta({IntRow({1, 99})}, {IntRow({1, 10})},
                                         /*consolidate_fraction=*/100.0);
  ASSERT_EQ(overlay.base().get(), flat.base().get());
  std::optional<Relation> patched = TryIndexedFilter(overlay, pred, config);
  ASSERT_TRUE(patched.has_value());
  EXPECT_EQ(*patched, Ints({{1, 20}, {1, 99}}));
  EXPECT_EQ(*patched, FilterRelation(overlay, *pred));
}

TEST(IndexedFilterTest, ConsolidationBoundaryDropsTheSharedIndex) {
  // A delta past kConsolidateFraction consolidates into a fresh base: the
  // old base's index no longer applies, and the probe path reports a miss
  // (manual mode, nothing built on the new base) instead of using it.
  PhysicalPolicy config = ManualConfig();
  RelationView flat(Ints({{1, 10}, {2, 20}, {3, 30}, {4, 40}}));
  flat.base()->IndexOn({0});

  std::vector<Tuple> adds;
  for (int i = 0; i < 10; ++i) adds.push_back(IntRow({1, 100 + i}));
  RelationView merged = flat.ApplyDelta(adds, {});
  ASSERT_TRUE(merged.is_flat());  // 10 > 0.25 * 4: consolidated
  ASSERT_NE(merged.base().get(), flat.base().get());

  ScalarExprPtr pred = Eq(Col(0), Int(1));
  EXPECT_FALSE(TryIndexedFilter(merged, pred, config).has_value());

  // Building on the new base restores the probe path, with the merged rows.
  merged.base()->IndexOn({0});
  std::optional<Relation> hit = TryIndexedFilter(merged, pred, config);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->size(), 11u);
  EXPECT_EQ(*hit, FilterRelation(merged, *pred));
}

TEST(IndexedFilterTest, ResidualAndModeGates) {
  PhysicalPolicy config = ManualConfig();
  RelationView view(Ints({{1, 10}, {1, 20}, {2, 30}}));
  view.base()->IndexOn({0});

  // Equality + residual: the probe narrows, the residual filters.
  ScalarExprPtr pred = And(Eq(Col(0), Int(1)), Gt(Col(1), Int(15)));
  std::optional<Relation> hit = TryIndexedFilter(view, pred, config);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, Ints({{1, 20}}));

  // No equality conjunct: not sargable.
  EXPECT_FALSE(
      TryIndexedFilter(view, Gt(Col(1), Int(0)), config).has_value());

  // Off mode never probes.
  PhysicalPolicy off;
  EXPECT_FALSE(TryIndexedFilter(view, pred, off).has_value());

  // Small bases are never probed.
  PhysicalPolicy big_floor = ManualConfig();
  big_floor.index_min_rows = 1000;
  EXPECT_FALSE(TryIndexedFilter(view, pred, big_floor).has_value());

  // Out-of-arity equality columns (null semantics) never probe.
  ScalarExprPtr oob = And(Eq(Col(0), Int(1)), Eq(Col(7), Int(1)));
  EXPECT_FALSE(TryIndexedFilter(view, oob, config).has_value());
}

TEST(IndexedJoinTest, ProbesLargerSideAndPatchesOverlay) {
  PhysicalPolicy config = ManualConfig();
  RelationView small(Ints({{1, 100}, {2, 200}, {9, 900}}));
  RelationView big_flat(
      Ints({{1, 11}, {1, 12}, {2, 21}, {3, 31}, {4, 41}, {5, 51}}));
  big_flat.base()->IndexOn({0});
  RelationView big = big_flat.ApplyDelta({IntRow({2, 22})}, {IntRow({1, 12})},
                                         /*consolidate_fraction=*/100.0);
  ASSERT_EQ(big.base().get(), big_flat.base().get());

  // small.$0 = big.$2 with small on the left (arity 2).
  ScalarExprPtr pred = Eq(Col(0), Col(2));
  std::optional<Relation> hit = TryIndexedJoin(small, big, pred, config);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, JoinRelations(small, big, pred));
  EXPECT_EQ(*hit, Ints({{1, 100, 1, 11}, {2, 200, 2, 21}, {2, 200, 2, 22}}));

  // Orientation flip: big on the left gives the same content modulo column
  // order, still via the big side's index.
  ScalarExprPtr flipped = Eq(Col(0), Col(2));
  std::optional<Relation> hit2 = TryIndexedJoin(big, small, flipped, config);
  ASSERT_TRUE(hit2.has_value());
  EXPECT_EQ(*hit2, JoinRelations(big, small, flipped));
}

TEST(IndexAdvisorTest, BuildsAtThreshold) {
  Relation r = Ints({{1, 10}, {2, 20}});
  RelationPtr base = std::make_shared<const Relation>(std::move(r));

  IndexAdvisor advisor(/*build_threshold=*/3);
  EXPECT_EQ(advisor.Advise(base, {0}), nullptr);  // 1st access
  EXPECT_EQ(advisor.Advise(base, {0}), nullptr);  // 2nd
  RelationIndexPtr built = advisor.Advise(base, {0});  // 3rd: builds
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(advisor.Advise(base, {0}).get(), built.get());  // now cached
  EXPECT_EQ(advisor.stats().accesses, 4u);
  EXPECT_EQ(advisor.stats().builds, 1u);

  // A different column set counts separately.
  EXPECT_EQ(advisor.Advise(base, {1}), nullptr);
}

TEST(SargableTest, ExtractsAscendingPrefixAndResidual) {
  // $2 = 7 and 5 = $0 and $1 > 3 -> columns {0, 2}, residual {$1 > 3}.
  ScalarExprPtr pred = And(And(Eq(Col(2), Int(7)), Eq(Int(5), Col(0))),
                           Gt(Col(1), Int(3)));
  std::optional<SargablePredicate> sarg = ExtractSargable(pred);
  ASSERT_TRUE(sarg.has_value());
  EXPECT_EQ(sarg->columns, (std::vector<size_t>{0, 2}));
  EXPECT_EQ(sarg->key, (Tuple{Value::Int(5), Value::Int(7)}));
  ASSERT_EQ(sarg->residual.size(), 1u);

  // Duplicate equality on one column: first one keys, second is residual.
  ScalarExprPtr dup = And(Eq(Col(0), Int(1)), Eq(Col(0), Int(2)));
  std::optional<SargablePredicate> s2 = ExtractSargable(dup);
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(s2->columns, (std::vector<size_t>{0}));
  EXPECT_EQ(s2->residual.size(), 1u);

  // No column-literal equality at all.
  EXPECT_FALSE(ExtractSargable(Gt(Col(0), Int(1))).has_value());
  EXPECT_FALSE(ExtractSargable(Eq(Col(0), Col(1))).has_value());
  EXPECT_FALSE(ExtractSargable(nullptr).has_value());
}

TEST(FlattenConjunctsTest, FlattensAndTreesOnly) {
  std::vector<ScalarExprPtr> out;
  FlattenConjuncts(And(And(Eq(Col(0), Int(1)), Gt(Col(1), Int(2))),
                       Or(Eq(Col(2), Int(3)), Eq(Col(2), Int(4)))),
                   &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2]->op(), ScalarOp::kOr);

  out.clear();
  FlattenConjuncts(nullptr, &out);
  EXPECT_TRUE(out.empty());
}

// Randomized property: on version trees of overlay states, the indexed
// kernels agree bit-identically with the scan kernels — for every policy,
// before and after deltas, across consolidations.
TEST(IndexPropertyTest, IndexedKernelsMatchScansOnVersionTrees) {
  Rng rng(20260806);
  IndexAdvisor advisor(/*build_threshold=*/1);
  PhysicalPolicy config;
  config.index_mode = IndexMode::kAdvisor;
  config.index_advisor = &advisor;
  config.index_min_rows = 1;

  for (int trial = 0; trial < 40; ++trial) {
    // A base relation and a chain of random deltas stacked on it.
    size_t rows = 20 + static_cast<size_t>(rng.Uniform(0, 40));
    std::vector<Tuple> tuples;
    for (size_t i = 0; i < rows; ++i) {
      tuples.push_back(IntRow({rng.Uniform(0, 8), rng.Uniform(0, 50)}));
    }
    RelationView view(Relation::FromTuples(2, std::move(tuples)));

    for (int depth = 0; depth < 4; ++depth) {
      std::vector<Tuple> adds, dels;
      for (int i = 0; i < 3; ++i) {
        adds.push_back(IntRow({rng.Uniform(0, 8), rng.Uniform(51, 99)}));
      }
      if (!view.base()->tuples().empty()) {
        dels.push_back(view.base()->tuples()[static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(view.base()->size()) - 1))]);
      }
      view = view.ApplyDelta(adds, dels);

      ScalarExprPtr pred =
          rng.Uniform(0, 1) == 0
              ? Eq(Col(0), Int(rng.Uniform(0, 8)))
              : And(Eq(Col(0), Int(rng.Uniform(0, 8))),
                    Gt(Col(1), Int(rng.Uniform(0, 50))));
      std::optional<Relation> indexed = TryIndexedFilter(view, pred, config);
      ASSERT_TRUE(indexed.has_value()) << "trial " << trial;
      EXPECT_EQ(*indexed, FilterRelation(view, *pred))
          << "trial " << trial << " depth " << depth;

      // Join against a small probe side through the same machinery.
      std::vector<Tuple> probe_tuples;
      for (int i = 0; i < 5; ++i) {
        probe_tuples.push_back(IntRow({rng.Uniform(0, 8)}));
      }
      RelationView probe(Relation::FromTuples(1, std::move(probe_tuples)));
      ScalarExprPtr jpred = Eq(Col(0), Col(1));
      std::optional<Relation> joined =
          TryIndexedJoin(probe, view, jpred, config);
      ASSERT_TRUE(joined.has_value()) << "trial " << trial;
      EXPECT_EQ(*joined, JoinRelations(probe, view, jpred))
          << "trial " << trial << " depth " << depth;
    }
  }
}

TEST(DatabaseBuildIndexTest, ValidatesAndBuilds) {
  Schema schema = hql::testing::MakeSchema({{"R", 2}});
  Database db(schema);
  ASSERT_OK(db.Set("R", Ints({{1, 10}, {2, 20}})));

  ASSERT_OK_AND_ASSIGN(RelationIndexPtr index, db.BuildIndex("R", {0}));
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->indexed_rows(), 2u);

  EXPECT_FALSE(db.BuildIndex("missing", {0}).ok());
  EXPECT_FALSE(db.BuildIndex("R", {}).ok());
  EXPECT_FALSE(db.BuildIndex("R", {2}).ok());
  EXPECT_FALSE(db.BuildIndex("R", {1, 0}).ok());
}

}  // namespace
}  // namespace hql
