// Version management over a tree of update alternatives (Example 2.1).
//
// A planning team explores a tree of proposed schedule changes. Each edge
// carries an hypothetical update; each node denotes the state reached by
// composing the updates on its root path. Queries against any node are
// ordinary HQL queries whose state is the # composition of the path — no
// version is ever materialized unless an eager strategy decides to.

#include <cstdio>
#include <string>
#include <vector>

#include "ast/builders.h"
#include "common/check.h"
#include "common/rng.h"
#include "eval/memo.h"
#include "opt/alternatives.h"
#include "opt/engine.h"
#include "opt/planner.h"
#include "workload/generators.h"
#include "workload/version_tree.h"

namespace {

template <typename T>
T Unwrap(hql::Result<T> result) {
  HQL_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  return std::move(result).value();
}

}  // namespace

int main() {
  using namespace hql;       // NOLINT
  using namespace hql::dsl;  // NOLINT

  // shifts(worker_id, day) and oncall(worker_id, day).
  Schema schema;
  HQL_CHECK(schema.AddRelation("shifts", 2).ok());
  HQL_CHECK(schema.AddRelation("oncall", 2).ok());
  Rng rng(7);
  Database db(schema);
  HQL_CHECK(db.Set("shifts", GenRelation(&rng, 2000, 2, 400, 7)).ok());
  HQL_CHECK(db.Set("oncall", GenRelation(&rng, 200, 2, 400, 7)).ok());

  // The tree of alternatives:
  //           root
  //            |  freeze weekends
  //           v1
  //     +------+------+
  //     | hire temps  | move oncall to shifts
  //    v2a           v2b
  HypoExprPtr freeze_weekends =
      Upd(Del("shifts", Sel(Ge(Col(1), Int(5)), Rel("shifts"))));
  HypoExprPtr promote_oncall = Upd(
      Seq(Ins("shifts", Rel("oncall")), Del("oncall", Rel("oncall"))));
  VersionTree tree;
  auto v1 = tree.AddChild(VersionTree::kRoot, "v1: freeze weekends",
                          freeze_weekends);
  auto v2a = tree.AddChild(
      v1, "v2a: hire temps",
      Upd(Ins("shifts", Proj({0, 1}, X(Proj({0}, Rel("oncall")),
                                       Single({Value::Int(2)}))))));
  auto v2b = tree.AddChild(v1, "v2b: promote oncall", promote_oncall);

  // Coverage on day 6 (a weekend day): workers with a shift that day.
  QueryPtr weekend_coverage =
      Proj({0}, Sel(Eq(Col(1), Int(6)), Rel("shifts")));

  std::printf("%-24s %s\n", "version", "weekend coverage (workers)");
  for (VersionTree::NodeId node = 0;
       node < static_cast<VersionTree::NodeId>(tree.size()); ++node) {
    Relation out = Unwrap(Execute(tree.QueryAt(node, weekend_coverage), db,
                                  schema, Strategy::kHybrid));
    std::printf("%-24s %zu\n", tree.label(node).c_str(), out.size());
  }

  // Comparing two alternatives below the same prefix (the paper's query Q):
  // workers covering weekends under v2b but not under v2a.
  QueryPtr compare = tree.CompareAt(v2b, v2a, weekend_coverage);
  Relation diff = Unwrap(Execute(compare, db, schema, Strategy::kHybrid));
  std::printf("\nWorkers covering weekends only under v2b: %zu\n",
              diff.size());

  // Family-of-queries optimization (Example 2.2): derive v2b as a session
  // scenario along its root path. The first query there builds v2b's
  // copy-on-write state once; every later per-day query runs against it.
  Engine engine(db);
  SessionPtr session = Unwrap(engine.CreateSession());
  HQL_CHECK(session->Derive("root", "v1", freeze_weekends).ok());
  HQL_CHECK(session->Derive("v1", "v2b", promote_oncall).ok());
  std::printf("\nPer-day coverage at v2b (one session scenario, state built "
              "once):\n");
  for (int day = 0; day < 7; ++day) {
    QueryPtr per_day = Proj({0}, Sel(Eq(Col(1), Int(day)), Rel("shifts")));
    Relation out = Unwrap(session->Query("v2b", per_day));
    std::printf("  day %d: %zu workers\n", day, out.size());
  }

  // Family-of-alternatives optimization: every version of the tree answered
  // in one batched call. The thread pool fans the versions out and the
  // shared memo cache evaluates the common v1 prefix once for the whole
  // family instead of once per version. (A weekday query: the weekend
  // freeze does not simplify it away, so the versions genuinely share the
  // rewritten v1 subplans.)
  QueryPtr midweek_coverage =
      Proj({0}, Sel(Eq(Col(1), Int(3)), Rel("shifts")));
  std::vector<HypoExprPtr> states;
  for (VersionTree::NodeId node = 0;
       node < static_cast<VersionTree::NodeId>(tree.size()); ++node) {
    states.push_back(tree.PathState(node));  // nullptr at the root
  }
  MemoCache memo;
  AlternativesOptions alt_options;
  alt_options.strategy = Strategy::kLazy;
  alt_options.planner.memo = &memo;
  std::vector<Relation> family = Unwrap(
      EvalAlternatives(midweek_coverage, states, db, schema, alt_options));
  std::printf("\nBatched EvalAlternatives over all %zu versions:\n",
              family.size());
  for (size_t i = 0; i < family.size(); ++i) {
    std::printf("  %-24s %zu workers\n", tree.label(static_cast<int>(i)).c_str(),
                family[i].size());
  }
  MemoCache::Stats stats = memo.stats();
  std::printf("  memo: %llu hits / %llu misses (%.0f%% hit rate)\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              100.0 * stats.HitRate());
  return 0;
}
