// E1 — Example 2.1, hypothetical queries using alternatives.
//
// Paper claim: the eager strategy (materialize the hypothetical state, then
// filter query evaluation through it) wins when many queries are asked
// against one hypothetical state; the lazy strategy (rewrite each query to
// pure RA via substitutions) wins for one-shot queries. The crossover moves
// with the number of queries per state.
//
// Rows: Eager/<rows>/<queries_per_state> vs Lazy/<rows>/<queries_per_state>.
// Each iteration answers `queries_per_state` selection queries against the
// same hypothetical state eta3 # eta1 (a path in the tree of alternatives).

#include <benchmark/benchmark.h>

#include "ast/builders.h"
#include "bench/bench_util.h"
#include "eval/direct.h"
#include "eval/ra_eval.h"
#include "hql/ra_rewrite.h"
#include "hql/reduce.h"
#include "opt/engine.h"
#include "opt/planner.h"

namespace hql {
namespace {

using namespace hql::dsl;  // NOLINT
using bench::MakeRS;
using bench::Unwrap;

// Sparse keys: the self-join in the state stays near-linear.
int64_t KeyDomain(size_t rows) { return static_cast<int64_t>(rows) * 2; }

// The hypothetical state is deliberately expensive: it inserts the result
// of a self-join of S into R and trims S. Lazy evaluation re-runs this
// expression for every family member; eager evaluation materializes it
// once per hypothetical state.
HypoExprPtr PathState(size_t rows) {
  int64_t cut = KeyDomain(rows) / 2;
  return Comp(
      Upd(Del("S", Sel(Lt(Col(0), Int(cut)), Rel("S")))),
      Upd(Ins("R", Proj({0, 1}, Join(Eq(Col(0), Col(2)), Rel("S"),
                                     Rel("S"))))));
}

// The i-th query of the family: a cheap selection over R.
QueryPtr FamilyQuery(int i, size_t rows) {
  int64_t window = KeyDomain(rows) / 16;
  int64_t lo = (static_cast<int64_t>(i) * 37) % KeyDomain(rows);
  return Sel(And(Ge(Col(0), Int(lo)), Lt(Col(0), Int(lo + window))),
             Rel("R"));
}

void BM_Eager(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const int queries = static_cast<int>(state.range(1));
  Database db = MakeRS(7, rows, KeyDomain(rows));
  HypoExprPtr eta = PathState(rows);
  uint64_t total = 0;
  for (auto _ : state) {
    // Materialize the hypothetical state once per batch...
    Database hypo = Unwrap(EvalState(eta, db));
    // ...then filter every query of the family through it.
    for (int i = 0; i < queries; ++i) {
      Relation out = Unwrap(EvalDirect(FamilyQuery(i, rows), hypo));
      total += out.size();
    }
  }
  state.counters["result_tuples"] = static_cast<double>(total);
  state.counters["per_query_us"] = benchmark::Counter(
      static_cast<double>(queries) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_Lazy(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const int queries = static_cast<int>(state.range(1));
  Database db = MakeRS(7, rows, KeyDomain(rows));
  const Schema& schema = db.schema();
  HypoExprPtr eta = PathState(rows);
  DatabaseResolver resolver(db);
  uint64_t total = 0;
  for (auto _ : state) {
    for (int i = 0; i < queries; ++i) {
      // Rewrite each hypothetical query to pure RA and evaluate: no state
      // is ever materialized, but the substituted state queries re-run per
      // family member.
      QueryPtr q = Query::When(FamilyQuery(i, rows), eta);
      QueryPtr reduced = Unwrap(Reduce(q, schema));
      reduced = Unwrap(SimplifyRa(reduced, schema));
      Relation out = Unwrap(EvalRa(reduced, resolver));
      total += out.size();
    }
  }
  state.counters["result_tuples"] = static_cast<double>(total);
  state.counters["per_query_us"] = benchmark::Counter(
      static_cast<double>(queries) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_Hybrid(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const int queries = static_cast<int>(state.range(1));
  Database db = MakeRS(7, rows, KeyDomain(rows));
  const Schema& schema = db.schema();
  HypoExprPtr eta = PathState(rows);
  PlannerOptions options;
  options.reuse_count = static_cast<double>(queries);
  uint64_t total = 0;
  for (auto _ : state) {
    for (int i = 0; i < queries; ++i) {
      QueryPtr q = Query::When(FamilyQuery(i, rows), eta);
      Relation out =
          Unwrap(Execute(q, db, schema, Strategy::kHybrid, options));
      total += out.size();
    }
  }
  state.counters["result_tuples"] = static_cast<double>(total);
}

// The library's amortization API: each iteration derives the state as a
// scenario of one Engine session, answers every family member at it (the
// first query builds the scenario's copy-on-write state, the rest reuse
// it), and drops it. Memo is off so no iteration is served from an earlier
// one.
void BM_Session(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const int queries = static_cast<int>(state.range(1));
  EngineOptions options;
  options.memo = false;
  Engine engine(MakeRS(7, rows, KeyDomain(rows)), options);
  SessionPtr session = Unwrap(engine.CreateSession());
  HypoExprPtr eta = PathState(rows);
  uint64_t total = 0;
  for (auto _ : state) {
    HQL_CHECK(session->Derive("root", "eta", eta).ok());
    for (int i = 0; i < queries; ++i) {
      total += Unwrap(session->Query("eta", FamilyQuery(i, rows))).size();
    }
    HQL_CHECK(session->Drop("eta").ok());
  }
  state.counters["result_tuples"] = static_cast<double>(total);
  state.counters["per_query_us"] = benchmark::Counter(
      static_cast<double>(queries) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void Args(benchmark::internal::Benchmark* b) {
  for (int64_t rows : {1000, 10000}) {
    for (int64_t queries : {1, 4, 16, 64}) {
      b->Args({rows, queries});
    }
  }
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_Eager)->Apply(Args);
BENCHMARK(BM_Lazy)->Apply(Args);
BENCHMARK(BM_Hybrid)->Apply(Args);
BENCHMARK(BM_Session)->Apply(Args);

// The static analysis of Example 2.1(b): query (1) rewrites to the empty
// query without touching the database; this measures the analysis itself.
void BM_StaticAnalysisOfQuery1(benchmark::State& state) {
  Schema schema;
  HQL_CHECK(schema.AddRelation("R", 2).ok());
  HQL_CHECK(schema.AddRelation("S", 2).ok());
  QueryPtr rjoins = Join(Eq(Col(0), Col(2)), Rel("R"), Rel("S"));
  QueryPtr query1 = When(
      Diff(When(rjoins, Upd(Ins("R", Sel(Ge(Col(0), Int(30)), Rel("S"))))),
           When(rjoins, Upd(Ins("R", Sel(Gt(Col(0), Int(30)), Rel("S")))))),
      Upd(Del("S", Sel(Lt(Col(0), Int(60)), Rel("S")))));
  for (auto _ : state) {
    QueryPtr reduced = Unwrap(Reduce(query1, schema));
    QueryPtr simplified = Unwrap(SimplifyRa(reduced, schema));
    HQL_CHECK(simplified->kind() == QueryKind::kEmpty);
    benchmark::DoNotOptimize(simplified);
  }
}

BENCHMARK(BM_StaticAnalysisOfQuery1)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace hql

HQL_BENCH_MAIN(e1_alternatives)
