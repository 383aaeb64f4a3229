#include "eval/materialize.h"

#include <utility>

#include "ast/hypo.h"
#include "ast/metrics.h"
#include "ast/query.h"
#include "ast/update.h"
#include "common/governor.h"
#include "eval/direct.h"
#include "eval/ra_eval.h"

namespace hql {

namespace {

// An update argument or guard: pure RA streams over the views through the
// policy's kernels; anything else takes the reference evaluator.
Result<Relation> EvalArgument(const QueryPtr& query, const Database& db,
                              const PhysicalPolicy& policy) {
  if (!IsPureRelAlg(query)) return EvalDirect(query, db);
  EvalMemo no_memo;
  no_memo.policy = policy;
  return EvalRa(query, DatabaseResolver(db), no_memo);
}

// ExecUpdate (eval/direct.cc) with its arguments evaluated by EvalArgument.
Result<Database> MaterializeUpdate(const UpdatePtr& update, const Database& db,
                                   const PhysicalPolicy& policy) {
  HQL_RETURN_IF_ERROR(GovernorCheck());
  switch (update->kind()) {
    case UpdateKind::kInsert:
    case UpdateKind::kDelete: {
      HQL_ASSIGN_OR_RETURN(Relation arg,
                           EvalArgument(update->query(), db, policy));
      HQL_ASSIGN_OR_RETURN(RelationView view, db.GetView(update->rel_name()));
      std::vector<Tuple> adds, dels;
      (update->kind() == UpdateKind::kInsert ? adds : dels) = arg.tuples();
      Database out = db;
      HQL_RETURN_IF_ERROR(out.SetView(
          update->rel_name(), view.ApplyDelta(std::move(adds), std::move(dels))));
      return out;
    }
    case UpdateKind::kSeq: {
      HQL_ASSIGN_OR_RETURN(Database mid,
                           MaterializeUpdate(update->first(), db, policy));
      return MaterializeUpdate(update->second(), mid, policy);
    }
    case UpdateKind::kCond: {
      HQL_ASSIGN_OR_RETURN(Relation guard,
                           EvalArgument(update->guard(), db, policy));
      return MaterializeUpdate(
          guard.empty() ? update->else_branch() : update->then_branch(), db,
          policy);
    }
  }
  return Status::Internal("unknown update kind in MaterializeUpdate");
}

}  // namespace

Result<Database> MaterializeState(const HypoExprPtr& state, const Database& db,
                                  const PhysicalPolicy& policy) {
  if (state == nullptr) {
    return Status::InvalidArgument("MaterializeState: state must not be null");
  }
  switch (state->kind()) {
    case HypoKind::kUpdateState:
      return MaterializeUpdate(state->update(), db, policy);
    case HypoKind::kCompose: {
      HQL_ASSIGN_OR_RETURN(Database mid,
                           MaterializeState(state->first(), db, policy));
      return MaterializeState(state->second(), mid, policy);
    }
    case HypoKind::kSubst:
    case HypoKind::kStateWhen:
      return EvalState(state, db);
  }
  return Status::Internal("unknown hypothetical-state kind in MaterializeState");
}

}  // namespace hql
