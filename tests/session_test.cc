// "Materialize once, ask many" (Example 2.2) through the Engine/Session
// facade: a scenario derived once answers a family of queries, each equal
// to direct evaluation of `Q when η`.

#include "opt/engine.h"

#include <gtest/gtest.h>

#include "ast/builders.h"
#include "common/rng.h"
#include "eval/direct.h"
#include "parser/parser.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace hql {
namespace {

using namespace hql::dsl;  // NOLINT
using ::hql::testing::Ints;
using ::hql::testing::MakeSchema;

TEST(SessionTest, EvaluateMatchesWhenSemantics) {
  Rng rng(1307);
  Schema schema = PropertySchema();
  AstGenOptions options;
  options.max_depth = 3;
  for (int trial = 0; trial < 150; ++trial) {
    Database db = RandomDatabase(&rng, schema, 8, 8);
    HypoExprPtr state = RandomHypo(&rng, schema, options);
    Engine engine(db);
    ASSERT_OK_AND_ASSIGN(SessionPtr session, engine.CreateSession());
    ASSERT_OK(session->Derive("root", "eta", state));
    for (int i = 0; i < 5; ++i) {
      QueryPtr q = RandomQuery(&rng, schema, 2, options);
      ASSERT_OK_AND_ASSIGN(Relation via_session, session->Query("eta", q));
      ASSERT_OK_AND_ASSIGN(Relation reference,
                           EvalDirect(Query::When(q, state), db));
      EXPECT_EQ(via_session, reference)
          << q->ToString() << " when " << state->ToString();
    }
  }
}

TEST(SessionTest, NestedWhatIfsOnTopOfSession) {
  Schema schema = MakeSchema({{"R", 1}, {"S", 1}});
  Database db(schema);
  ASSERT_OK(db.Set("R", Ints({{1}})));
  ASSERT_OK(db.Set("S", Ints({{2}})));
  Engine engine(db);
  ASSERT_OK_AND_ASSIGN(SessionPtr session, engine.CreateSession());
  ASSERT_OK(session->Derive("root", "eta", Upd(Ins("R", Rel("S")))));
  // A further hypothetical inside the scenario's world.
  QueryPtr nested =
      Query::When(Rel("R"), Upd(Ins("R", Single({Value::Int(9)}))));
  for (const char* strategy :
       {"hybrid", "direct", "lazy", "filter1", "filter2", "filter3"}) {
    ASSERT_OK(session->Set("strategy", strategy));
    ASSERT_OK_AND_ASSIGN(Relation out, session->Query("eta", nested));
    EXPECT_EQ(out, Ints({{1}, {2}, {9}})) << strategy;
    // The scenario's state and the base are unaffected.
    ASSERT_OK_AND_ASSIGN(Relation plain, session->Query("eta", Rel("R")));
    EXPECT_EQ(plain, Ints({{1}, {2}})) << strategy;
    ASSERT_OK_AND_ASSIGN(Database at_eta, session->StateAt("eta"));
    EXPECT_EQ(at_eta.GetRef("R"), Ints({{1}, {2}})) << strategy;
    EXPECT_EQ(session->BaseSnapshot().GetRef("R"), Ints({{1}})) << strategy;
  }
  EXPECT_EQ(engine.Snapshot().GetRef("R"), Ints({{1}}));
}

TEST(SessionTest, ParserDrivenEndToEnd) {
  Schema schema = MakeSchema({{"emp", 2}, {"dept", 2}});
  Database db(schema);
  ASSERT_OK(db.Set("emp", Ints({{1, 10}, {2, 20}})));
  ASSERT_OK(db.Set("dept", Ints({{10, 500}, {20, 900}})));
  Engine engine(db);
  ASSERT_OK_AND_ASSIGN(SessionPtr session, engine.CreateSession());
  ASSERT_OK_AND_ASSIGN(HypoExprPtr state,
                       ParseHypo("{ins(emp, {(3, 10)})}"));
  ASSERT_OK(session->Derive("root", "hire", state));
  ASSERT_OK_AND_ASSIGN(QueryPtr q,
                       ParseQuery("pi[0](sigma[$1 = 10](emp))"));
  ASSERT_OK_AND_ASSIGN(Relation out, session->Query("hire", q));
  EXPECT_EQ(out, Ints({{1}, {3}}));
}

TEST(SessionTest, Rejections) {
  Schema schema = MakeSchema({{"R", 1}});
  Engine engine{Database(schema)};
  ASSERT_OK_AND_ASSIGN(SessionPtr session, engine.CreateSession());
  EXPECT_FALSE(session->Derive("root", "null", nullptr).ok());
  ASSERT_OK(session->Derive("root", "eta", Upd(Ins("R", Rel("R")))));
  EXPECT_FALSE(session->Query("eta", nullptr).ok());
  EXPECT_FALSE(session->Query("eta", Rel("Unknown")).ok());
}

}  // namespace
}  // namespace hql
