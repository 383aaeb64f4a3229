#include "eval/materialize.h"

#include <memory>
#include <utility>

#include "ast/hypo.h"
#include "ast/metrics.h"
#include "ast/query.h"
#include "ast/update.h"
#include "common/governor.h"
#include "common/strings.h"
#include "eval/direct.h"
#include "eval/ra_eval.h"
#include "hql/free_dom.h"

namespace hql {

namespace {

// Tag separating state-materialization entries from query-subplan entries
// in a shared MemoCache.
constexpr uint64_t kStateEntryTag = 0x1BD11BDAA9FC1A22ULL;

uint64_t StateEntryKey(uint64_t state_hash, uint64_t db_fingerprint,
                       const std::string& name) {
  return MemoKey(HashCombine(HashCombine(kStateEntryTag, state_hash),
                             HashString(name)),
                 db_fingerprint);
}

// Evaluates one non-compose state against `db`, serving the written
// relations from `memo` when the same (state, database-content) pair was
// evaluated before. Updates only write names in dom(state), so a database
// copy with the cached dom relations re-bound reconstructs the full result.
Result<Database> EvalAtomicStateMemo(const HypoExprPtr& state,
                                     const Database& db, MemoCache* memo) {
  const NameSet dom = DomNames(state);
  const uint64_t state_hash = state->Hash();
  const uint64_t db_fp = FingerprintState(db);

  Database out = db;
  bool all_cached = !dom.empty();
  for (const std::string& name : dom) {
    std::shared_ptr<const Relation> hit =
        memo->Lookup(StateEntryKey(state_hash, db_fp, name));
    if (hit == nullptr) {
      all_cached = false;
      break;
    }
    // A hit re-binds the cached relation by reference — no tuple copies.
    HQL_RETURN_IF_ERROR(out.SetShared(name, std::move(hit)));
  }
  if (all_cached) return out;

  HQL_ASSIGN_OR_RETURN(Database moved, EvalState(state, db));
  for (const std::string& name : dom) {
    // Shared() consolidates an overlay once into the view's flat cache (the
    // memo stores flat relations); the cache entry and `moved` share it.
    HQL_ASSIGN_OR_RETURN(RelationView value, moved.GetView(name));
    memo->Insert(StateEntryKey(state_hash, db_fp, name), value.Shared());
  }
  return moved;
}

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

Result<Database> EvalStateMemo(const HypoExprPtr& state, const Database& db,
                               MemoCache* memo) {
  HQL_RETURN_IF_ERROR(GovernorCheck());
  if (memo == nullptr) return EvalState(state, db);
  if (state->kind() == HypoKind::kCompose) {
    HQL_ASSIGN_OR_RETURN(Database mid,
                         EvalStateMemo(state->first(), db, memo));
    return EvalStateMemo(state->second(), mid, memo);
  }
  return EvalAtomicStateMemo(state, db, memo);
}

Result<XsubValue> MaterializeXsub(const HypoExprPtr& state,
                                  const Database& db, const Schema& schema,
                                  MemoCache* memo) {
  (void)schema;  // names are validated by evaluation itself
  HQL_ASSIGN_OR_RETURN(Database moved, EvalStateMemo(state, db, memo));
  XsubValue out;
  for (const std::string& name : DomNames(state)) {
    // Flat results bind by refcount bump; overlays consolidate once into
    // the view's shared flat cache.
    HQL_ASSIGN_OR_RETURN(RelationView value, moved.GetView(name));
    out.Bind(name, value.Shared());
  }
  return out;
}

Result<DeltaValue> MaterializeDelta(const HypoExprPtr& state,
                                    const Database& db,
                                    const Schema& schema,
                                    MemoCache* memo) {
  (void)schema;
  HQL_ASSIGN_OR_RETURN(Database moved, EvalStateMemo(state, db, memo));
  DeltaValue out;
  for (const std::string& name : DomNames(state)) {
    HQL_ASSIGN_OR_RETURN(RelationView after, moved.GetView(name));
    HQL_ASSIGN_OR_RETURN(RelationView before, db.GetView(name));
    if (before.is_flat() && after.base() == before.base()) {
      // The written relation is an overlay on the unchanged base, so its
      // canonical add/del vectors *are* the paper's precise deltas
      // R_D = DB(R) − V and R_I = V − DB(R) — extracted in O(|edge delta|)
      // without touching the base (even when the overlay is empty: the
      // state wrote the relation back unchanged).
      out.Bind(name,
               DeltaPair(Relation::FromSortedUnique(after.arity(),
                                                    after.dels()),
                         Relation::FromSortedUnique(after.arity(),
                                                    after.adds())));
    } else {
      // Representations diverged (consolidation, memo hit, substitution):
      // fall back to a streaming two-sided difference.
      out.Bind(name, DeltaPair(ViewDifference(before, after),
                               ViewDifference(after, before)));
    }
  }
  return out;
}

}  // namespace hql
