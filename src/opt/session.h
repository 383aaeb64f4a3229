#ifndef HQL_OPT_SESSION_H_
#define HQL_OPT_SESSION_H_

// A hypothetical session: the "many queries against a single hypothetical
// state" pattern of Examples 2.1/2.2 as a first-class object. Creating a
// session materializes the state once — as a delta value when the change
// is a small fraction of the data (the Section 5.5 regime), as an
// xsub-value otherwise — and every Evaluate() call filters one query
// through that materialization. Nothing ever touches the underlying
// database state.
//
//   HypotheticalSession session = *HypotheticalSession::Create(
//       ParseHypo("{ins(R, sigma[$0 > 30](S))}").value(), db, schema);
//   Relation a = *session.Evaluate(ParseQuery("sigma[$0 = 1](R)").value());
//   Relation b = *session.Evaluate(ParseQuery("R join[$0 = $2] S").value());
//
// The session holds references to `db` and `schema`; both must outlive it.

#include <memory>
#include <vector>

#include "ast/forward.h"
#include "common/exec_context.h"
#include "common/result.h"
#include "eval/delta.h"
#include "eval/xsub.h"
#include "opt/planner.h"
#include "storage/database.h"
#include "storage/schema.h"

namespace hql {

class HypotheticalSession {
 public:
  /// Materializes `state` over `db`. The representation (delta vs xsub) is
  /// chosen by comparing the materialized change against
  /// options.delta_fraction_threshold of the affected base relations.
  static Result<HypotheticalSession> Create(
      const HypoExprPtr& state, const Database& db, const Schema& schema,
      const PlannerOptions& options = PlannerOptions());

  /// The value `query` would have in the hypothetical state. `query` may
  /// itself contain further `when`s (nested what-ifs on top of the
  /// session's state).
  Result<Relation> Evaluate(const QueryPtr& query) const;

  /// True if the session holds a delta representation (Algorithm HQL-3
  /// route); false for a full xsub-value.
  bool uses_delta() const { return uses_delta_; }

  /// Materialized tuples held by the session (cost accounting).
  uint64_t materialized_tuples() const;

 private:
  HypotheticalSession(const Database& db, const Schema& schema)
      : db_(&db), schema_(&schema) {}

  const Database* db_;
  const Schema* schema_;
  bool uses_delta_ = false;
  PhysicalPolicy policy_;
  DeltaValue delta_;
  XsubValue xsub_;
};

/// Options for EvalAlternatives.
struct AlternativesOptions {
  /// Execution route for every alternative (all strategies agree on the
  /// value; see planner.h).
  Strategy strategy = Strategy::kHybrid;

  /// Worker threads fanning the alternatives out; 0 picks
  /// ThreadPool::DefaultThreads(). 1 runs the serial loop inline (no pool).
  size_t num_threads = 0;

  /// Per-alternative planner options. `planner.memo` (when set) is the
  /// shared subplan cache: alternatives that share path prefixes or state
  /// subqueries compute them once across the whole family, whichever
  /// worker gets there first.
  PlannerOptions planner;

  /// When non-null, receives each alternative's own ExecStats in input
  /// order (resized to states.size()): every alternative runs under its
  /// own ExecContext, so slot i holds exactly alternative i's work even
  /// under the thread pool. Tracing is inherited from the caller's ambient
  /// context. Caller-owned; must outlive the call.
  std::vector<ExecStats>* slot_stats = nullptr;

  /// When non-null, receives the family rollup: the slots merged in input
  /// order (deterministic regardless of which worker finished first; see
  /// ExecStats::MergeFrom). Caller-owned; must outlive the call.
  ExecStats* family_stats = nullptr;
};

/// The family primitive: evaluates `query` under every hypothetical state
/// in `states` — the "family of alternatives" workload of Example 2.1,
/// where states are the root paths of a version tree
/// (workload/version_tree.h) — and surfaces every alternative's outcome
/// separately: slot i holds alternative i's relation or its own error. A
/// null state evaluates `query` against the real database (the root
/// version). Alternatives that were never run (drained after a hard
/// failure, or cancelled via the caller's token) hold kCancelled. One
/// alternative blowing its budget thus costs exactly that alternative, not
/// the family.
///
/// Results arrive in input order and are identical to the serial loop
///   for (s : states) Execute(Query::When(query, s), db, schema, ...)
/// regardless of thread count or cache state.
///
/// Governance: `options.planner.budget` / `options.planner.cancel_token`
/// apply to each alternative separately (each gets its own governor, so one
/// alternative's deadline or tuple budget never eats a sibling's). A hard
/// failure (any code except kCancelled / kResourceExhausted) cancels every
/// alternative after it in input order, on the serial path and the pool
/// alike; budget trips do not.
///
/// Observability: each alternative runs under its own ExecContext; the
/// per-slot stats and their input-order rollup are available via
/// AlternativesOptions, and the rollup is also merged into the caller's
/// ambient context.
std::vector<Result<Relation>> EvalAlternativesPartial(
    const QueryPtr& query, const std::vector<HypoExprPtr>& states,
    const Database& db, const Schema& schema,
    const AlternativesOptions& options = AlternativesOptions());

/// Thin wrapper over EvalAlternativesPartial collapsing the per-slot
/// outcomes into all-or-nothing. Error selection (the single place this
/// rule lives): the first error by input order whose code is not
/// kCancelled wins — that is the root cause, not a ripple of the
/// cancellation it triggered; if every error is a cancellation, the first
/// one by input order wins.
Result<std::vector<Relation>> EvalAlternatives(
    const QueryPtr& query, const std::vector<HypoExprPtr>& states,
    const Database& db, const Schema& schema,
    const AlternativesOptions& options = AlternativesOptions());

}  // namespace hql

#endif  // HQL_OPT_SESSION_H_
