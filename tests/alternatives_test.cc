#include "opt/alternatives.h"

#include <gtest/gtest.h>

#include <vector>

#include "ast/builders.h"
#include "ast/query.h"
#include "common/rng.h"
#include "eval/memo.h"
#include "tests/test_util.h"
#include "workload/generators.h"
#include "workload/version_tree.h"

namespace hql {
namespace {

using namespace hql::dsl;  // NOLINT
using ::hql::testing::Ints;
using ::hql::testing::MakeSchema;

Database MakeDb(uint64_t seed, size_t rows) {
  Schema schema = MakeSchema({{"R", 2}, {"S", 2}});
  Rng rng(seed);
  Database db(schema);
  HQL_CHECK(db.Set("R", GenRelation(&rng, rows, 2, 100)).ok());
  HQL_CHECK(db.Set("S", GenRelation(&rng, rows, 2, 100)).ok());
  return db;
}

// The Example 2.1 shape: one shared edge, several leaves below it.
std::vector<HypoExprPtr> TreeStates(int leaves) {
  VersionTree tree;
  VersionTree::NodeId shared = tree.AddChild(
      VersionTree::kRoot, "shared",
      Comp(Upd(Ins("R", Sel(Gt(Col(0), Int(50)), Rel("S")))),
           Upd(Del("S", Sel(Lt(Col(0), Int(20)), Rel("S"))))));
  std::vector<HypoExprPtr> states;
  states.push_back(nullptr);  // the root itself: the real database
  for (int i = 0; i < leaves; ++i) {
    VersionTree::NodeId leaf = tree.AddChild(
        shared, "alt" + std::to_string(i),
        Upd(Del("R", Sel(And(Ge(Col(0), Int(i * 10)),
                             Lt(Col(0), Int(i * 10 + 10))),
                         Rel("R")))));
    states.push_back(tree.PathState(leaf));
  }
  return states;
}

std::vector<Relation> SerialReference(const QueryPtr& query,
                                      const std::vector<HypoExprPtr>& states,
                                      const Database& db, const Schema& schema,
                                      Strategy strategy) {
  std::vector<Relation> out;
  for (const HypoExprPtr& s : states) {
    QueryPtr q = s == nullptr ? query : Query::When(query, s);
    Result<Relation> r = Execute(q, db, schema, strategy);
    HQL_CHECK(r.ok());
    out.push_back(std::move(r).value());
  }
  return out;
}

TEST(EvalAlternativesTest, MatchesSerialLoopAcrossStrategiesAndThreads) {
  Database db = MakeDb(11, 60);
  const Schema& schema = db.schema();
  std::vector<HypoExprPtr> states = TreeStates(5);
  QueryPtr query = Sel(Ge(Col(0), Int(30)), Rel("R"));

  for (Strategy strategy :
       {Strategy::kDirect, Strategy::kLazy, Strategy::kFilter2,
        Strategy::kHybrid}) {
    std::vector<Relation> expected =
        SerialReference(query, states, db, schema, strategy);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      AlternativesOptions options;
      options.strategy = strategy;
      options.num_threads = threads;
      ASSERT_OK_AND_ASSIGN(
          std::vector<Relation> got,
          EvalAlternatives(query, states, db, schema, options));
      ASSERT_EQ(got.size(), expected.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], expected[i])
            << StrategyName(strategy) << " threads=" << threads
            << " alternative=" << i;
      }
    }
  }
}

TEST(EvalAlternativesTest, SharedMemoCacheDoesNotChangeResults) {
  Database db = MakeDb(13, 80);
  const Schema& schema = db.schema();
  std::vector<HypoExprPtr> states = TreeStates(6);
  QueryPtr query = Sel(Ge(Col(0), Int(10)), Rel("R"));

  std::vector<Relation> expected =
      SerialReference(query, states, db, schema, Strategy::kLazy);
  MemoCache cache;
  AlternativesOptions options;
  options.strategy = Strategy::kLazy;
  options.num_threads = 4;
  options.planner.memo = &cache;
  // Twice through the same cache: cold then warm.
  for (int round = 0; round < 2; ++round) {
    ASSERT_OK_AND_ASSIGN(
        std::vector<Relation> got,
        EvalAlternatives(query, states, db, schema, options));
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << "round=" << round << " alt=" << i;
    }
  }
  // The family shares a path prefix, so the cache must actually be used.
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(EvalAlternativesTest, EmptyFamilyAndDefaults) {
  Database db = MakeDb(17, 10);
  const Schema& schema = db.schema();
  QueryPtr query = Rel("R");
  ASSERT_OK_AND_ASSIGN(std::vector<Relation> got,
                       EvalAlternatives(query, {}, db, schema));
  EXPECT_TRUE(got.empty());
}

TEST(EvalAlternativesTest, FirstErrorByInputOrderWins) {
  Database db = MakeDb(19, 10);
  const Schema& schema = db.schema();
  // Alternative 1 and 3 reference an unknown relation; the reported error
  // must be alternative 1's regardless of completion order.
  std::vector<HypoExprPtr> states = {
      nullptr,
      Upd(Ins("R", Rel("NoSuchA"))),
      nullptr,
      Upd(Ins("R", Rel("NoSuchB"))),
  };
  QueryPtr query = Rel("R");
  AlternativesOptions options;
  options.num_threads = 4;
  Result<std::vector<Relation>> got =
      EvalAlternatives(query, states, db, schema, options);
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().ToString().find("NoSuchA"), std::string::npos)
      << got.status().ToString();
}

}  // namespace
}  // namespace hql
