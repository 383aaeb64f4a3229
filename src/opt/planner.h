#ifndef HQL_OPT_PLANNER_H_
#define HQL_OPT_PLANNER_H_

// The evaluation-strategy spectrum of the paper made operational. A
// Strategy names one point on the lazy <-> eager axis; the hybrid planner
// walks the query and decides per `when` node whether to substitute it away
// (lazy) or keep it for materialization (eager), following the heuristics
// sketched in Examples 2.1(c) and 2.2(b): substitution wins when the
// affected names occur rarely in the scope and the rewritten query stays
// small; materialization wins when the state is reused often or the
// rewrite would blow up (Example 2.4).

#include <cstdint>
#include <string>

#include "ast/forward.h"
#include "common/governor.h"
#include "common/result.h"
#include "eval/physical_policy.h"
#include "opt/estimator.h"
#include "storage/database.h"
#include "storage/schema.h"
#include "storage/stats.h"

namespace hql {

class MemoCache;

enum class Strategy {
  kDirect,   // reference semantics: materialize whole hypothetical states
  kLazy,     // red(Q), RA-simplify, evaluate as pure RA (Theorem 4.1)
  kFilter1,  // ENF + Algorithm HQL-1 (eager xsub, node-at-a-time)
  kFilter2,  // ENF + collapse + Algorithm HQL-2 (eager xsub, clustered)
  kFilter3,  // mod-ENF + collapse + Algorithm HQL-3 (eager deltas)
  kHybrid,   // planner decides per `when` node
};

const char* StrategyName(Strategy s);

/// Every evaluation setting a front-end chooses, declared once: the
/// physical policy the kernels read (eval/physical_policy.h), the hybrid
/// planner's heuristics and the governor budget. PlannerOptions (what one
/// execution runs under) and EngineOptions (the validated, settable knob
/// surface in opt/engine.h) both derive from it.
struct EvalSettings : PhysicalPolicy {
  /// How many queries are expected to run against each hypothetical state
  /// (Example 2.2's "families of hypothetical queries"). Materialization
  /// cost is amortized over this count.
  double reuse_count = 1.0;

  /// Hard cap on the expanded tree size a lazy rewrite may reach; beyond
  /// it the planner forces materialization (Example 2.4's guard).
  double max_lazy_tree_size = 100000.0;

  /// Hybrid execution takes the delta route (Algorithm HQL-3) when the
  /// query has a mod-ENF form and the estimated state materialization is
  /// below this fraction of the affected base relations — the Section 5.5
  /// regime where join-when/select-when beat xsub materialization. Set to
  /// 0 to disable the delta route.
  double delta_fraction_threshold = 0.25;

  /// Resource limits for the execution (common/governor.h). When any limit
  /// is set (or PlannerOptions::cancel_token is non-null) and no governor
  /// is already installed on the thread, Execute installs one for the
  /// duration of the call; limit violations surface as kResourceExhausted,
  /// observed cancellation as kCancelled. A rewrite-node trip on the lazy
  /// route degrades gracefully instead: Execute retries along the fallback
  /// lattice lazy -> hybrid -> eager (recorded in
  /// ExecStats::governor_lazy_fallbacks).
  ExecBudget budget;

  /// The physical policy alone, as the kernels take it.
  const PhysicalPolicy& physical() const { return *this; }
};

struct PlannerOptions : EvalSettings {
  /// Run the RA simplifier over pure parts of the plan.
  bool simplify = true;

  /// Optional memoizing subplan cache (eval/memo.h). When set, Execute's
  /// pure-RA evaluation serves repeated subplans from the cache, and state
  /// materialization (sessions, EvalAlternatives) reuses shared sub-states.
  /// The cache may be shared across queries, sessions, and threads; the
  /// caller owns it and it must outlive the calls that use it.
  MemoCache* memo = nullptr;

  /// Optional cooperative cancellation for this execution; polled on the
  /// budget's check cadence.
  CancelTokenPtr cancel_token;
};

struct Plan {
  /// The planned query: `when` nodes that remain are to be materialized.
  QueryPtr query;
  /// Number of `when` nodes substituted away (lazy decisions).
  int lazy_decisions = 0;
  /// Number of `when` nodes kept for materialization (eager decisions).
  int eager_decisions = 0;
};

/// Hybrid planning: returns an equivalent query with per-`when` decisions
/// applied. The result is in ENF (remaining states are explicit
/// substitutions) and its pure parts are RA-simplified.
Result<Plan> PlanHybrid(const QueryPtr& query, const Schema& schema,
                        const StatsCatalog& stats,
                        const PlannerOptions& options = PlannerOptions());

/// Evaluates `query` in `db` under the given strategy. All strategies
/// compute the same value (Theorems 4.1 / Propositions 5.1, 5.3, 5.4).
Result<Relation> Execute(const QueryPtr& query, const Database& db,
                         const Schema& schema, Strategy strategy,
                         const PlannerOptions& options = PlannerOptions());

}  // namespace hql

#endif  // HQL_OPT_PLANNER_H_
