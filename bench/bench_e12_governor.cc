// E12 — Governor overhead and cancellation latency.
//
// Two questions, answered on the E9 parallel-alternatives workload and a
// long chained scan:
//
//   1. What does an armed-but-untripped governor cost? The budget limits are
//      generous enough that nothing ever trips, so the measured delta over
//      the ungoverned row is pure accounting overhead (per-tuple atomic
//      charges plus the cooperative cadence check). Target: < 3%.
//   2. How long between CancelToken::Cancel() and the governed execution
//      returning kCancelled? Bounded by the cooperative check interval; the
//      manual-time row measures it directly for a 100k-row scan chain.
//
// Rows:
//   Ungoverned/<rows>/<alts>        E9 family fan-out, no governor at all.
//   Governed/<rows>/<alts>          same, with a generous budget + a live
//                                   (never-cancelled) token: the governor is
//                                   installed and charges every tuple.
//   GovernedArmedFailpoints/...     additionally arms every failpoint site
//                                   in fire-never mode, so the armed lookup
//                                   path runs on each hit. Under NDEBUG the
//                                   sites compile out and this row must
//                                   match Governed exactly.
//   TimeToCancel/<check_interval>   manual time = Cancel() -> return, for a
//                                   governed 100-stage chain of selections
//                                   over 100k rows, cancelled from another
//                                   thread 2 ms into the run.
//
// Run with --json to write BENCH_e12_governor.json.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "ast/builders.h"
#include "bench/bench_util.h"
#include "common/exec_context.h"
#include "common/failpoint.h"
#include "common/governor.h"
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

// The E9 family: one expensive shared edge (self-join of S inserted into R)
// with `alternatives` cheap leaf deletions below it.
HypoExprPtr SharedEdge(size_t rows) {
  int64_t cut = KeyDomain(rows) / 2;
  return Comp(
      Upd(Del("S", Sel(Lt(Col(0), Int(cut)), Rel("S")))),
      Upd(Ins("R", Proj({0, 1}, Join(Eq(Col(0), Col(2)), Rel("S"),
                                     Rel("S"))))));
}

HypoExprPtr LeafEdge(int i, size_t rows) {
  int64_t window = KeyDomain(rows) / 32;
  int64_t lo = (static_cast<int64_t>(i) * 101) % KeyDomain(rows);
  return Upd(Del("R", Sel(And(Ge(Col(0), Int(lo)), Lt(Col(0), Int(lo + window))),
                          Rel("R"))));
}

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

enum class Mode { kUngoverned, kGoverned, kGovernedArmedFailpoints };

// Limits chosen so no realistic run ever trips: the rows below measure the
// cost of *accounting*, not of tripping.
ExecBudget GenerousBudget() {
  ExecBudget budget;
  budget.deadline_ms = 60 * 60 * 1000;      // one hour
  budget.max_tuples = uint64_t{1} << 62;
  budget.max_rewrite_nodes = uint64_t{1} << 62;
  return budget;
}

void RunFamily(benchmark::State& state, Mode mode) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const int alts = static_cast<int>(state.range(1));
  Database db = MakeRS(7, rows, KeyDomain(rows));
  const Schema& schema = db.schema();
  std::vector<HypoExprPtr> states = FamilyStates(alts, rows);
  QueryPtr query = FamilyQuery(rows);

  if (mode == Mode::kGovernedArmedFailpoints) {
    // Fire-never arming: every hit pays the armed lookup, nothing trips.
    // (Compiled out under NDEBUG — the row then matches Governed.)
    for (const std::string& site : RegisteredFailPointSites()) {
      ArmFailPoint(site, FailPointSpec::AfterN(uint64_t{1} << 62));
    }
  }

  uint64_t total = 0;
  for (auto _ : state) {
    MemoCache cache;
    AlternativesOptions options;
    options.strategy = Strategy::kLazy;
    options.num_threads = 4;
    options.planner.memo = &cache;
    if (mode != Mode::kUngoverned) {
      options.planner.budget = GenerousBudget();
      options.planner.cancel_token = std::make_shared<CancelToken>();
    }
    std::vector<Relation> results =
        Unwrap(EvalAlternatives(query, states, db, schema, options));
    for (const Relation& r : results) total += r.size();
  }
  state.counters["result_tuples"] = static_cast<double>(total);

  if (mode == Mode::kGovernedArmedFailpoints) DisarmAllFailPoints();
}

void BM_Ungoverned(benchmark::State& state) {
  RunFamily(state, Mode::kUngoverned);
}
void BM_Governed(benchmark::State& state) {
  RunFamily(state, Mode::kGoverned);
}
void BM_GovernedArmedFailpoints(benchmark::State& state) {
  RunFamily(state, Mode::kGovernedArmedFailpoints);
}

void FamilyArgs(benchmark::internal::Benchmark* b) {
  for (int64_t rows : {1000, 10000}) {
    for (int64_t alts : {4, 8}) {
      b->Args({rows, alts});
    }
  }
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_Ungoverned)->Apply(FamilyArgs);
BENCHMARK(BM_Governed)->Apply(FamilyArgs);
BENCHMARK(BM_GovernedArmedFailpoints)->Apply(FamilyArgs);

// Tracing overhead on the same E9 family: a caller-installed ExecContext
// with spans off (counter charging only — the always-on cost) vs spans on
// (every kernel records an OperatorSpan: clock reads plus a locked append).
// The TracingOff -> TracingOn delta is the cost of arming per-operator
// tracing; target < 5%, mirroring the Ungoverned -> Governed gate above.
void RunTracedFamily(benchmark::State& state, bool tracing) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const int alts = static_cast<int>(state.range(1));
  Database db = MakeRS(7, rows, KeyDomain(rows));
  const Schema& schema = db.schema();
  std::vector<HypoExprPtr> states = FamilyStates(alts, rows);
  QueryPtr query = FamilyQuery(rows);

  uint64_t total = 0;
  uint64_t spans = 0;
  for (auto _ : state) {
    ExecContext ctx;
    ctx.set_tracing(tracing);
    ExecContextScope scope(&ctx);
    MemoCache cache;
    AlternativesOptions options;
    options.strategy = Strategy::kLazy;
    options.num_threads = 4;
    options.planner.memo = &cache;
    std::vector<Relation> results =
        Unwrap(EvalAlternatives(query, states, db, schema, options));
    for (const Relation& r : results) total += r.size();
    spans += ctx.Snapshot().spans.size();
  }
  state.counters["result_tuples"] = static_cast<double>(total);
  state.counters["spans"] = static_cast<double>(spans);
}

void BM_TracingOff(benchmark::State& state) { RunTracedFamily(state, false); }
void BM_TracingOn(benchmark::State& state) { RunTracedFamily(state, true); }

BENCHMARK(BM_TracingOff)->Apply(FamilyArgs);
BENCHMARK(BM_TracingOn)->Apply(FamilyArgs);

// Time-to-cancel: a 100-stage chain of all-pass selections over a 100k-row
// relation (each stage re-scans and re-materializes 100k rows, so the whole
// query runs for hundreds of milliseconds ungoverned — far past the 2 ms
// cancel point, with memory bounded by one stage). The iteration time
// recorded is Cancel() -> Execute() return, i.e. observation latency plus
// unwind, as a function of the cooperative check interval.
void BM_TimeToCancel(benchmark::State& state) {
  const size_t rows = 100000;
  Database db = MakeRS(17, rows, KeyDomain(rows));
  QueryPtr q = Rel("R");
  for (int i = 0; i < 100; ++i) q = Sel(Ge(Col(0), Int(0)), q);

  uint64_t clean_cancels = 0;
  for (auto _ : state) {
    auto token = std::make_shared<CancelToken>();
    PlannerOptions options;
    options.cancel_token = token;
    options.budget.check_interval = static_cast<uint32_t>(state.range(0));

    std::chrono::steady_clock::time_point finished;
    StatusCode code = StatusCode::kOk;
    std::thread worker([&] {
      Result<Relation> result =
          Execute(q, db, db.schema(), Strategy::kDirect, options);
      finished = std::chrono::steady_clock::now();
      if (!result.ok()) code = result.status().code();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    auto cancelled_at = std::chrono::steady_clock::now();
    token->Cancel();
    worker.join();

    if (code == StatusCode::kCancelled) ++clean_cancels;
    double latency =
        std::chrono::duration<double>(finished - cancelled_at).count();
    state.SetIterationTime(latency > 0 ? latency : 0.0);
  }
  state.counters["scan_rows"] = static_cast<double>(rows);
  state.counters["clean_cancels"] = static_cast<double>(clean_cancels);
}

BENCHMARK(BM_TimeToCancel)
    ->Arg(1024)   // the default cooperative cadence
    ->Arg(64)     // tighter cadence: lower latency, more frequent polls
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(25);

}  // namespace
}  // namespace hql

HQL_BENCH_MAIN(e12_governor)
