#include "opt/session.h"

#include <optional>
#include <utility>

#include "ast/hypo.h"
#include "ast/query.h"
#include "common/thread_pool.h"
#include "eval/filter1.h"
#include "eval/filter3.h"
#include "eval/materialize.h"
#include "hql/collapse.h"
#include "hql/enf.h"
#include "hql/free_dom.h"

namespace hql {

Result<HypotheticalSession> HypotheticalSession::Create(
    const HypoExprPtr& state, const Database& db, const Schema& schema,
    const PlannerOptions& options) {
  if (state == nullptr) {
    return Status::InvalidArgument("null hypothetical state");
  }
  HypotheticalSession session(db, schema);
  session.policy_ = options.physical();

  // Materialize the precise delta first; it is enough to decide the
  // representation (the xsub is recoverable from base + delta when the
  // decision goes the other way).
  HQL_ASSIGN_OR_RETURN(DeltaValue delta,
                       MaterializeDelta(state, db, schema, options.memo));
  double affected_base = 0;
  for (const auto& [name, pair] : delta.pairs()) {
    (void)pair;
    HQL_ASSIGN_OR_RETURN(RelationView base, db.GetView(name));
    affected_base += static_cast<double>(base.size());
  }
  double change = static_cast<double>(delta.TotalTuples());
  if (options.delta_fraction_threshold > 0 && affected_base > 0 &&
      change < options.delta_fraction_threshold * affected_base) {
    session.uses_delta_ = true;
    session.delta_ = std::move(delta);
    return session;
  }
  HQL_ASSIGN_OR_RETURN(session.xsub_,
                       MaterializeXsub(state, db, schema, options.memo));
  return session;
}

Result<Relation> HypotheticalSession::Evaluate(const QueryPtr& query) const {
  if (query == nullptr) return Status::InvalidArgument("null query");
  HQL_ASSIGN_OR_RETURN(QueryPtr enf, ToEnf(query, *schema_));
  if (uses_delta_) {
    HQL_ASSIGN_OR_RETURN(CollapsedPtr tree, Collapse(enf, *schema_));
    Filter3Options options;
    options.collapsed = tree;
    options.env = &delta_;
    options.policy = policy_;
    return RunFilter3(nullptr, *db_, db_->schema(), options);
  }
  Filter1Options options;
  options.env = &xsub_;
  return RunFilter1(enf, *db_, options);
}

uint64_t HypotheticalSession::materialized_tuples() const {
  return uses_delta_ ? delta_.TotalTuples() : xsub_.TotalTuples();
}

namespace {

// One alternative of the family: Q when s (or Q itself at the root),
// governed by its own ExecGovernor so one alternative's budget trip never
// eats a sibling's, and observed by its own ExecContext so `out_stats`
// holds exactly this alternative's work. `cancel` (null on the serial
// path) trips when an earlier alternative fails hard; `tracing` is
// inherited from the caller's ambient context.
Result<Relation> EvalOneAlternative(const QueryPtr& query,
                                    const HypoExprPtr& state,
                                    const Database& db, const Schema& schema,
                                    const AlternativesOptions& options,
                                    const CancelTokenPtr& cancel,
                                    bool tracing, ExecStats* out_stats) {
  QueryPtr q = state == nullptr ? query : Query::When(query, state);
  ExecContext ctx;
  ctx.set_tracing(tracing);
  Result<Relation> result = Status::Internal("alternative never ran");
  {
    // The governor lives inside the context scope: its destructor charges
    // the high-water marks to the ambient context, which must still be ctx.
    ExecContextScope ctx_scope(&ctx);
    ExecGovernor gov(options.planner.budget, options.planner.cancel_token,
                     cancel);
    GovernorScope scope(&gov);
    result = Execute(q, db, schema, options.strategy, options.planner);
  }
  *out_stats = ctx.Snapshot();
  return result;
}

// A failure that indicates something broke (as opposed to a budget trip or
// a cancellation, which are this alternative's own governed outcome).
bool IsHardFailure(const Status& s) {
  return !s.ok() && s.code() != StatusCode::kCancelled &&
         s.code() != StatusCode::kResourceExhausted;
}

Status NeverRan() {
  return Status::Cancelled("alternative cancelled before it ran");
}

}  // namespace

std::vector<Result<Relation>> EvalAlternativesPartial(
    const QueryPtr& query, const std::vector<HypoExprPtr>& states,
    const Database& db, const Schema& schema,
    const AlternativesOptions& options) {
  const size_t n = states.size();
  std::vector<std::optional<Result<Relation>>> slots(n);
  if (query == nullptr) {
    std::vector<Result<Relation>> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      out.push_back(Status::InvalidArgument("null query"));
    }
    return out;
  }

  size_t threads = options.num_threads == 0 ? ThreadPool::DefaultThreads()
                                            : options.num_threads;
  if (threads > n) threads = n;

  // Each slot gets its own ExecContext (built inside EvalOneAlternative);
  // tracing follows the caller's ambient context, and the input-order
  // rollup lands back on it below.
  ExecContext& parent = AmbientExecContext();
  const bool tracing = parent.tracing();
  std::vector<ExecStats> stats(n);

  if (threads <= 1) {
    // Serial loop with the same semantics as the pool: a hard failure
    // cancels (skips) everything after it, budget trips do not.
    bool hard_failed = false;
    for (size_t i = 0; i < n; ++i) {
      if (hard_failed) {
        slots[i] = NeverRan();
        continue;
      }
      Result<Relation> r = EvalOneAlternative(query, states[i], db, schema,
                                              options, nullptr, tracing,
                                              &stats[i]);
      hard_failed = IsHardFailure(r.status());
      slots[i] = std::move(r);
    }
  } else {
    // Fan one task per alternative out across the pool. Tasks only write
    // their own slot; the pool's Wait() provides the synchronization that
    // makes the slots safe to read afterwards. As in the serial loop, a
    // hard failure at alternative i cancels exactly the alternatives after
    // it: queued ones are skipped, running ones trip their governors.
    // Earlier alternatives run to completion, so the first hard failure by
    // input order always reports itself, whichever worker finishes first.
    std::vector<CancelTokenPtr> cancel(n);
    for (CancelTokenPtr& token : cancel) {
      token = std::make_shared<CancelToken>();
    }
    ThreadPool pool(threads);
    for (size_t i = 0; i < n; ++i) {
      pool.Submit([&, i] {
        if (cancel[i]->cancelled()) return;  // left empty: never ran
        Result<Relation> r = EvalOneAlternative(query, states[i], db, schema,
                                                options, cancel[i], tracing,
                                                &stats[i]);
        if (IsHardFailure(r.status())) {
          for (size_t j = i + 1; j < n; ++j) cancel[j]->Cancel();
        }
        slots[i] = std::move(r);
      });
    }
    pool.Wait();
    for (size_t i = 0; i < n; ++i) {
      if (!slots[i].has_value()) slots[i] = NeverRan();  // drained unrun
    }
  }

  // Deterministic family rollup: merge in input order, never in completion
  // order, so repeated runs report identically.
  ExecStats family;
  for (const ExecStats& s : stats) family.MergeFrom(s);
  parent.MergeFrom(family);
  if (options.slot_stats != nullptr) *options.slot_stats = std::move(stats);
  if (options.family_stats != nullptr) *options.family_stats = std::move(family);

  std::vector<Result<Relation>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(*std::move(slots[i]));
  return out;
}

Result<std::vector<Relation>> EvalAlternatives(
    const QueryPtr& query, const std::vector<HypoExprPtr>& states,
    const Database& db, const Schema& schema,
    const AlternativesOptions& options) {
  if (query == nullptr) return Status::InvalidArgument("null query");
  if (states.empty()) return std::vector<Relation>();

  std::vector<Result<Relation>> partial =
      EvalAlternativesPartial(query, states, db, schema, options);
  // Deterministic error selection regardless of which siblings a
  // cancellation reached: prefer the first non-cancellation error by
  // input order (the root cause), then the first error of any kind.
  for (const Result<Relation>& r : partial) {
    if (!r.ok() && r.status().code() != StatusCode::kCancelled) {
      return r.status();
    }
  }
  for (const Result<Relation>& r : partial) {
    if (!r.ok()) return r.status();
  }
  std::vector<Relation> results;
  results.reserve(partial.size());
  for (Result<Relation>& r : partial) results.push_back(std::move(r).value());
  return results;
}

}  // namespace hql
