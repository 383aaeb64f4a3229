// Quickstart: a guided tour of the hql public API.
//
//   $ ./examples/quickstart
//
// Covers: declaring a schema, loading a database state, writing queries
// (both with the C++ DSL and the textual parser), hypothetical queries with
// `when`, the substitution machinery (slice / reduce), the evaluation
// strategy spectrum, and a what-if session over the Engine/Session facade.

#include <cstdio>
#include <string>

#include "ast/builders.h"
#include "ast/typecheck.h"
#include "common/check.h"
#include "eval/direct.h"
#include "hql/reduce.h"
#include "hql/subst.h"
#include "opt/engine.h"
#include "opt/planner.h"
#include "parser/parser.h"
#include "storage/database.h"

namespace {

template <typename T>
T Unwrap(hql::Result<T> result) {
  HQL_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  return std::move(result).value();
}

}  // namespace

int main() {
  using namespace hql;        // NOLINT
  using namespace hql::dsl;   // NOLINT

  // -------------------------------------------------------------------
  // 1. Schema and database state.
  // -------------------------------------------------------------------
  // emp(id, dept_id) and dept(dept_id, budget).
  Schema schema;
  HQL_CHECK(schema.AddRelation("emp", 2).ok());
  HQL_CHECK(schema.AddRelation("dept", 2).ok());

  Database db(schema);
  HQL_CHECK(db.Set("emp", Relation::FromTuples(
                              2, {{Value::Int(1), Value::Int(10)},
                                  {Value::Int(2), Value::Int(10)},
                                  {Value::Int(3), Value::Int(20)}}))
                .ok());
  HQL_CHECK(db.Set("dept", Relation::FromTuples(
                               2, {{Value::Int(10), Value::Int(500)},
                                   {Value::Int(20), Value::Int(900)}}))
                .ok());
  std::printf("Database state:\n%s\n", db.ToString().c_str());

  // -------------------------------------------------------------------
  // 2. A plain relational-algebra query, built with the DSL.
  //    Employees of departments with budget >= 600:
  //    pi[0](emp join[dept_id = dept_id] sigma[budget >= 600](dept)).
  // -------------------------------------------------------------------
  QueryPtr rich = Proj({0}, Join(Eq(Col(1), Col(2)), Rel("emp"),
                                 Sel(Ge(Col(1), Int(600)), Rel("dept"))));
  std::printf("Query: %s\n", rich->ToString().c_str());
  std::printf("Arity: %zu\n", Unwrap(InferQueryArity(rich, schema)));
  std::printf("Value: %s\n\n", Unwrap(EvalDirect(rich, db)).ToString().c_str());

  // -------------------------------------------------------------------
  // 3. The same query written in the textual syntax.
  // -------------------------------------------------------------------
  QueryPtr parsed = Unwrap(ParseQuery(
      "pi[0](emp join[$1 = $2] sigma[$1 >= 600](dept))"));
  HQL_CHECK(parsed->Equals(*rich));
  std::printf("Parsed form round-trips: %s\n\n", parsed->ToString().c_str());

  // -------------------------------------------------------------------
  // 4. A hypothetical query: what would the answer be *if* department 10
  //    received a 200-unit budget increase? `when {U}` never mutates db.
  // -------------------------------------------------------------------
  QueryPtr whatif = Unwrap(ParseQuery(
      "pi[0](emp join[$1 = $2] sigma[$1 >= 600](dept)) when "
      "{del(dept, {(10, 500)}); ins(dept, {(10, 700)})}"));
  std::printf("Hypothetical query:\n  %s\n", whatif->ToString().c_str());
  std::printf("Hypothetical value: %s\n",
              Unwrap(EvalDirect(whatif, db)).ToString().c_str());
  std::printf("Real state unchanged: dept = %s\n\n",
              db.GetRef("dept").ToString().c_str());

  // -------------------------------------------------------------------
  // 5. The substitution view (the paper's core idea): `when {U}` is the
  //    suspended application of the substitution slice(U), and reduce()
  //    rewrites the hypothetical query to plain relational algebra.
  // -------------------------------------------------------------------
  QueryPtr reduced = Unwrap(Reduce(whatif, schema));
  std::printf("Fully lazy rewrite (Theorem 4.1):\n  %s\n",
              reduced->ToString().c_str());
  std::printf("Same value: %s\n\n",
              Unwrap(EvalDirect(reduced, db)).ToString().c_str());

  // -------------------------------------------------------------------
  // 6. The whole strategy spectrum computes the same answer.
  // -------------------------------------------------------------------
  for (Strategy s : {Strategy::kDirect, Strategy::kLazy, Strategy::kFilter1,
                     Strategy::kFilter2, Strategy::kFilter3,
                     Strategy::kHybrid}) {
    Relation out = Unwrap(Execute(whatif, db, schema, s));
    std::printf("  %-8s -> %s\n", StrategyName(s), out.ToString().c_str());
  }
  std::printf("\nAll strategies agree.\n\n");

  // -------------------------------------------------------------------
  // 7. A what-if session: derive a named scenario once. Its state is built
  //    on first use, copy-on-write over the base, and every later query
  //    there runs against it.
  // -------------------------------------------------------------------
  Engine engine(db);
  SessionPtr session = engine.CreateSession().value();
  HQL_CHECK(session->Derive("root", "raise",
                            ParseHypo("{del(dept, {(10, 500)}); "
                                      "ins(dept, {(10, 700)})}").value())
                .ok());
  Relation fast = session->Query("raise", ParseQuery("sigma[$1 >= 600](dept)")
                                              .value()).value();
  std::printf("Session scenario 'raise': rich departments = %s\n",
              fast.ToString().c_str());
  std::printf("Done.\n");
  return 0;
}
