// E9 — Parallel evaluation of a family of hypothetical alternatives with a
// shared memoizing subplan cache.
//
// The workload is the Example 2.1 tree made wide: one expensive shared
// edge under the root (insert a self-join of S into R, trim S) and
// `alternatives` cheap leaf edges below it, each deleting a different key
// window from R. The state of leaf i is shared # leaf_i, so every
// alternative repeats the shared prefix — exactly the cross-alternative
// redundancy the memo cache exists to eliminate.
//
// Rows:
//   Serial/<rows>/<alts>       one Execute per alternative, no cache — the
//                              baseline an unbatched caller pays today.
//   Parallel/<rows>/<alts>     EvalAlternatives: thread-pool fan-out over a
//                              shared MemoCache (fresh per iteration, so
//                              every hit is genuine intra-family sharing).
//   ParallelNoMemo/<rows>/<alts>  fan-out without the cache (isolates the
//                              thread-pool contribution on this machine).
//
// Counters: cache_hit_rate / memo_hits / memo_misses on the Parallel rows.
// Run with --json to write BENCH_e9_parallel_alternatives.json.

#include <benchmark/benchmark.h>

#include <vector>

#include "ast/builders.h"
#include "bench/bench_util.h"
#include "eval/memo.h"
#include "opt/alternatives.h"
#include "opt/planner.h"
#include "workload/version_tree.h"

namespace hql {
namespace {

using namespace hql::dsl;  // NOLINT
using bench::MakeRS;
using bench::Unwrap;

int64_t KeyDomain(size_t rows) { return static_cast<int64_t>(rows) * 2; }

// The shared root edge, deliberately expensive (self-join of S).
HypoExprPtr SharedEdge(size_t rows) {
  int64_t cut = KeyDomain(rows) / 2;
  return Comp(
      Upd(Del("S", Sel(Lt(Col(0), Int(cut)), Rel("S")))),
      Upd(Ins("R", Proj({0, 1}, Join(Eq(Col(0), Col(2)), Rel("S"),
                                     Rel("S"))))));
}

// Leaf edge i: drop one key window from R — cheap, and different per
// alternative so the family members genuinely disagree.
HypoExprPtr LeafEdge(int i, size_t rows) {
  int64_t window = KeyDomain(rows) / 32;
  int64_t lo = (static_cast<int64_t>(i) * 101) % KeyDomain(rows);
  return Upd(Del("R", Sel(And(Ge(Col(0), Int(lo)), Lt(Col(0), Int(lo + window))),
                          Rel("R"))));
}

// The family's states: root paths of a two-level version tree.
std::vector<HypoExprPtr> FamilyStates(int alternatives, size_t rows) {
  VersionTree tree;
  VersionTree::NodeId shared =
      tree.AddChild(VersionTree::kRoot, "shared", SharedEdge(rows));
  std::vector<HypoExprPtr> states;
  states.reserve(static_cast<size_t>(alternatives));
  for (int i = 0; i < alternatives; ++i) {
    VersionTree::NodeId leaf =
        tree.AddChild(shared, "alt" + std::to_string(i), LeafEdge(i, rows));
    states.push_back(tree.PathState(leaf));
  }
  return states;
}

QueryPtr FamilyQuery(size_t rows) {
  int64_t mid = KeyDomain(rows) / 2;
  return Sel(Ge(Col(0), Int(mid)), Rel("R"));
}

void BM_Serial(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const int alts = static_cast<int>(state.range(1));
  Database db = MakeRS(7, rows, KeyDomain(rows));
  const Schema& schema = db.schema();
  std::vector<HypoExprPtr> states = FamilyStates(alts, rows);
  QueryPtr query = FamilyQuery(rows);
  PlannerOptions options;
  uint64_t total = 0;
  for (auto _ : state) {
    for (const HypoExprPtr& s : states) {
      Relation out = Unwrap(
          Execute(Query::When(query, s), db, schema, Strategy::kLazy,
                  options));
      total += out.size();
    }
  }
  state.counters["result_tuples"] = static_cast<double>(total);
}

void RunFanOut(benchmark::State& state, bool with_memo) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const int alts = static_cast<int>(state.range(1));
  Database db = MakeRS(7, rows, KeyDomain(rows));
  const Schema& schema = db.schema();
  std::vector<HypoExprPtr> states = FamilyStates(alts, rows);
  QueryPtr query = FamilyQuery(rows);
  uint64_t total = 0;
  uint64_t hits = 0, misses = 0;
  for (auto _ : state) {
    // A fresh cache per iteration: every hit below comes from sharing
    // *within* one family evaluation, not from earlier iterations.
    MemoCache cache;
    AlternativesOptions options;
    options.strategy = Strategy::kLazy;
    options.num_threads = 4;
    if (with_memo) options.planner.memo = &cache;
    std::vector<Relation> results =
        Unwrap(EvalAlternatives(query, states, db, schema, options));
    for (const Relation& r : results) total += r.size();
    MemoCache::Stats stats = cache.stats();
    hits += stats.hits;
    misses += stats.misses;
  }
  state.counters["result_tuples"] = static_cast<double>(total);
  state.counters["memo_hits"] = static_cast<double>(hits);
  state.counters["memo_misses"] = static_cast<double>(misses);
  state.counters["cache_hit_rate"] =
      hits + misses == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + misses);
}

void BM_Parallel(benchmark::State& state) { RunFanOut(state, true); }
void BM_ParallelNoMemo(benchmark::State& state) { RunFanOut(state, false); }

void Args(benchmark::internal::Benchmark* b) {
  for (int64_t rows : {1000, 10000}) {
    for (int64_t alts : {4, 8}) {
      b->Args({rows, alts});
    }
  }
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_Serial)->Apply(Args);
BENCHMARK(BM_Parallel)->Apply(Args);
BENCHMARK(BM_ParallelNoMemo)->Apply(Args);

}  // namespace
}  // namespace hql

HQL_BENCH_MAIN(e9_parallel_alternatives)
