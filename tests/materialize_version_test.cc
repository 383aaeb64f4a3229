// Tests for materialized hypothetical states reused across query families
// (Examples 2.2(a)/(b): MaterializeState, and xsub/delta environments built
// from EvalState) and the VersionTree workload (Example 2.1).

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "ast/builders.h"
#include "common/rng.h"
#include "eval/delta.h"
#include "eval/direct.h"
#include "eval/filter1.h"
#include "eval/materialize.h"
#include "eval/xsub.h"
#include "hql/free_dom.h"
#include "opt/planner.h"
#include "parser/parser.h"
#include "tests/test_util.h"
#include "workload/generators.h"
#include "workload/version_tree.h"

namespace hql {
namespace {

using namespace hql::dsl;  // NOLINT
using ::hql::testing::Ints;
using ::hql::testing::MakeSchema;

// [eta]xval(DB): one relation value per name in dom(eta), read off the
// reference state.
Result<XsubValue> XsubOf(const HypoExprPtr& eta, const Database& db) {
  HQL_ASSIGN_OR_RETURN(Database moved, EvalState(eta, db));
  XsubValue out;
  for (const std::string& name : DomNames(eta)) {
    HQL_ASSIGN_OR_RETURN(Relation value, moved.Get(name));
    out.Bind(name, std::move(value));
  }
  return out;
}

// The precise delta (Section 5.5) capturing [eta] in DB:
// R_D = DB(R) - V and R_I = V - DB(R) for each written name R.
Result<DeltaValue> PreciseDeltaOf(const HypoExprPtr& eta, const Database& db) {
  HQL_ASSIGN_OR_RETURN(Database moved, EvalState(eta, db));
  DeltaValue out;
  for (const std::string& name : DomNames(eta)) {
    HQL_ASSIGN_OR_RETURN(Relation before, db.Get(name));
    HQL_ASSIGN_OR_RETURN(Relation after, moved.Get(name));
    out.Bind(name, DeltaPair(before.DifferenceWith(after),
                             after.DifferenceWith(before)));
  }
  return out;
}

TEST(MaterializeTest, StateMatchesDirectStateUnderEveryKernel) {
  // The scenario-node state builder agrees with EvalState whichever
  // kernels its update arguments run on, and keeps relations a small
  // update leaves over the parent's base as overlays on that base.
  Rng rng(1117);
  Schema schema = PropertySchema();
  AstGenOptions options;
  options.max_depth = 3;
  PhysicalPolicy kernels;
  kernels.index_mode = IndexMode::kManual;
  kernels.index_min_rows = 1;
  kernels.columnar_mode = ColumnarMode::kAuto;
  kernels.columnar_min_rows = 1;
  kernels.columnar_threads = 1;
  for (int trial = 0; trial < 150; ++trial) {
    Database db = RandomDatabase(&rng, schema, 12, 8);
    ASSERT_OK(db.BuildIndex("A2", {0}).status());
    HypoExprPtr eta = RandomHypo(&rng, schema, options);
    ASSERT_OK_AND_ASSIGN(Database want, EvalState(eta, db));
    for (const PhysicalPolicy& policy : {PhysicalPolicy(), kernels}) {
      ASSERT_OK_AND_ASSIGN(Database got, MaterializeState(eta, db, policy));
      EXPECT_EQ(got, want) << eta->ToString();
    }
  }

  Database db = RandomDatabase(&rng, schema, 200, 64);
  ASSERT_OK_AND_ASSIGN(
      HypoExprPtr edge,
      ParseHypo("{ins(A2, {(100, 1)}); del(A2, sigma[$0 = 0](A2))}"));
  ASSERT_OK_AND_ASSIGN(Database got, MaterializeState(edge, db, kernels));
  EXPECT_EQ(got.ViewRef("A2").base(), db.ViewRef("A2").base());
  EXPECT_EQ(got.ViewRef("B2").base(), db.ViewRef("B2").base());
}

TEST(MaterializeTest, SmashCapturesComposition) {
  // The Section 5.5 lemma: if Delta1 captures [eta1] in DB and Delta2
  // captures [eta2] in apply(DB, Delta1), then Delta1 ! Delta2 captures
  // [eta1 # eta2] in DB.
  Rng rng(1129);
  Schema schema = PropertySchema();
  AstGenOptions options;
  options.max_depth = 2;
  for (int trial = 0; trial < 100; ++trial) {
    Database db = RandomDatabase(&rng, schema, 6, 8);
    HypoExprPtr eta1 = RandomHypo(&rng, schema, options);
    HypoExprPtr eta2 = RandomHypo(&rng, schema, options);

    ASSERT_OK_AND_ASSIGN(DeltaValue d1, PreciseDeltaOf(eta1, db));
    ASSERT_OK_AND_ASSIGN(Database mid, d1.ApplyTo(db));
    ASSERT_OK_AND_ASSIGN(DeltaValue d2, PreciseDeltaOf(eta2, mid));

    ASSERT_OK_AND_ASSIGN(Database via_smash, d1.SmashWith(d2).ApplyTo(db));
    ASSERT_OK_AND_ASSIGN(Database via_state,
                         EvalState(Comp(eta1, eta2), db));
    EXPECT_EQ(via_smash, via_state)
        << eta1->ToString() << " # " << eta2->ToString();
  }
}

TEST(MaterializeTest, ReuseAcrossFamily) {
  // Materialize once, answer a family by filtering through the xsub env:
  // same values as evaluating each hypothetical query from scratch.
  Schema schema = MakeSchema({{"R", 2}, {"S", 2}});
  Rng rng(1117);
  Database db(schema);
  ASSERT_OK(db.Set("R", GenRelation(&rng, 100, 2, 50)));
  ASSERT_OK(db.Set("S", GenRelation(&rng, 100, 2, 50)));
  HypoExprPtr eta = Upd(Seq(Ins("R", Sel(Ge(Col(0), Int(10)), Rel("S"))),
                            Del("S", Sel(Lt(Col(0), Int(30)), Rel("S")))));
  ASSERT_OK_AND_ASSIGN(XsubValue env, XsubOf(eta, db));
  Filter1Options options;
  options.env = &env;
  for (int i = 0; i < 10; ++i) {
    QueryPtr family = Sel(Eq(Col(0), Int(i * 5)), U(Rel("R"), Rel("S")));
    ASSERT_OK_AND_ASSIGN(Relation fast, RunFilter1(family, db, options));
    ASSERT_OK_AND_ASSIGN(Relation reference,
                         EvalDirect(Query::When(family, eta), db));
    EXPECT_EQ(fast, reference);
  }
}

TEST(VersionTreeTest, PathStatesCompose) {
  Schema schema = MakeSchema({{"R", 1}, {"S", 1}});
  Database db(schema);
  ASSERT_OK(db.Set("R", Ints({{1}})));
  ASSERT_OK(db.Set("S", Ints({{2}})));

  VersionTree tree;
  auto v1 = tree.AddChild(VersionTree::kRoot, "add S to R",
                          Upd(Ins("R", Rel("S"))));
  auto v2a = tree.AddChild(v1, "clear S", Upd(Del("S", Rel("S"))));
  auto v2b = tree.AddChild(v1, "add 9", Upd(Ins("R", Single({Value::Int(9)}))));
  EXPECT_EQ(tree.size(), 4u);
  EXPECT_EQ(tree.parent(v2a), v1);
  EXPECT_EQ(tree.label(v2b), "add 9");

  // Root: query sees the base state.
  ASSERT_OK_AND_ASSIGN(
      Relation at_root,
      EvalDirect(tree.QueryAt(VersionTree::kRoot, Rel("R")), db));
  EXPECT_EQ(at_root, Ints({{1}}));

  // v1: R = {1, 2}.
  ASSERT_OK_AND_ASSIGN(Relation at_v1,
                       EvalDirect(tree.QueryAt(v1, Rel("R")), db));
  EXPECT_EQ(at_v1, Ints({{1}, {2}}));

  // v2a: R unchanged from v1, S empty.
  ASSERT_OK_AND_ASSIGN(Relation s_v2a,
                       EvalDirect(tree.QueryAt(v2a, Rel("S")), db));
  EXPECT_TRUE(s_v2a.empty());
  ASSERT_OK_AND_ASSIGN(Relation r_v2a,
                       EvalDirect(tree.QueryAt(v2a, Rel("R")), db));
  EXPECT_EQ(r_v2a, Ints({{1}, {2}}));

  // v2b: R = {1, 2, 9}.
  ASSERT_OK_AND_ASSIGN(Relation r_v2b,
                       EvalDirect(tree.QueryAt(v2b, Rel("R")), db));
  EXPECT_EQ(r_v2b, Ints({{1}, {2}, {9}}));

  // Example 2.1's comparison query between the two alternatives.
  ASSERT_OK_AND_ASSIGN(Relation diff,
                       EvalDirect(tree.CompareAt(v2b, v2a, Rel("R")), db));
  EXPECT_EQ(diff, Ints({{9}}));

  // The real state never changed.
  EXPECT_EQ(db.GetRef("R"), Ints({{1}}));
  EXPECT_EQ(db.GetRef("S"), Ints({{2}}));
}

TEST(VersionTreeTest, AllStrategiesAgreeOnTreeQueries) {
  Schema schema = MakeSchema({{"R", 2}, {"S", 2}});
  Rng rng(1123);
  Database db(schema);
  ASSERT_OK(db.Set("R", GenRelation(&rng, 60, 2, 40)));
  ASSERT_OK(db.Set("S", GenRelation(&rng, 60, 2, 40)));

  VersionTree tree;
  auto v1 = tree.AddChild(
      VersionTree::kRoot, "v1",
      Upd(Del("S", Sel(Lt(Col(0), Int(20)), Rel("S")))));
  auto v2a = tree.AddChild(
      v1, "v2a", Upd(Ins("R", Sel(Ge(Col(0), Int(10)), Rel("S")))));
  auto v2b = tree.AddChild(
      v1, "v2b", Upd(Ins("R", Sel(Gt(Col(0), Int(10)), Rel("S")))));

  QueryPtr body = Proj({0}, Join(Eq(Col(0), Col(2)), Rel("R"), Rel("S")));
  QueryPtr compare = tree.CompareAt(v2a, v2b, body);
  ASSERT_OK_AND_ASSIGN(Relation reference,
                       Execute(compare, db, schema, Strategy::kDirect));
  for (Strategy s : {Strategy::kLazy, Strategy::kFilter1, Strategy::kFilter2,
                     Strategy::kFilter3, Strategy::kHybrid}) {
    ASSERT_OK_AND_ASSIGN(Relation out, Execute(compare, db, schema, s));
    EXPECT_EQ(out, reference) << StrategyName(s);
  }
}

}  // namespace
}  // namespace hql
