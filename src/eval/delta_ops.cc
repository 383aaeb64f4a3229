#include "eval/delta_ops.h"

#include <limits>
#include <optional>
#include <unordered_map>

#include "common/check.h"
#include "common/exec_context.h"
#include "common/governor.h"
#include "eval/index_exec.h"
#include "eval/ra_eval.h"
#include "eval/vector_exec.h"

namespace hql {

namespace {

const std::vector<Tuple> kNoTuples;

}  // namespace

DeltaScan::DeltaScan(const Relation& base, const DeltaPair* pair)
    : base_(&base.tuples()),
      del_(pair != nullptr ? &pair->del.tuples() : &kNoTuples),
      ins_(pair != nullptr ? &pair->ins.tuples() : &kNoTuples) {
  Settle();
}

const Tuple& DeltaScan::Current() const {
  HQL_CHECK(!Done());
  return source_ == 0 ? (*base_)[bi_] : (*ins_)[ii_];
}

bool DeltaScan::Done() const { return source_ == 2; }

void DeltaScan::Advance() {
  HQL_CHECK(!Done());
  if (source_ == 0) {
    ++bi_;
  } else {
    ++ii_;
  }
  Settle();
}

void DeltaScan::Settle() {
  // Skip base tuples that are deleted (and not re-inserted later in the
  // stream — re-insertions come from ins_, merged below).
  for (;;) {
    bool have_base = bi_ < base_->size();
    if (have_base) {
      // Advance the delete cursor to the first tuple >= base[bi_].
      while (di_ < del_->size() &&
             CompareTuples((*del_)[di_], (*base_)[bi_]) < 0) {
        ++di_;
      }
      if (di_ < del_->size() &&
          CompareTuples((*del_)[di_], (*base_)[bi_]) == 0) {
        // Deleted, unless the same tuple is also inserted; the insert
        // stream will still produce it, so just drop the base copy.
        ++bi_;
        continue;
      }
    }
    bool have_ins = ii_ < ins_->size();
    if (!have_base && !have_ins) {
      source_ = 2;
      return;
    }
    if (!have_ins) {
      source_ = 0;
      return;
    }
    if (!have_base) {
      source_ = 1;
      return;
    }
    int c = CompareTuples((*base_)[bi_], (*ins_)[ii_]);
    if (c < 0) {
      source_ = 0;
    } else if (c > 0) {
      source_ = 1;
    } else {
      // Same tuple present in base and inserts: emit once (from the insert
      // stream) and skip the base copy.
      ++bi_;
      continue;
    }
    return;
  }
}

Relation SelectWhen(const Relation& base, const DeltaPair* delta,
                    const ScalarExpr& predicate) {
  TraceSpan span("select-when",
                 base.size() + (delta != nullptr ? delta->del.size() +
                                                       delta->ins.size()
                                                 : 0));
  ExecGovernor* gov = CurrentGovernor();
  std::vector<Tuple> out;
  for (DeltaScan scan(base, delta); !scan.Done(); scan.Advance()) {
    if (gov != nullptr && !gov->Tick()) break;
    if (predicate.EvaluatesTrue(scan.Current())) {
      out.push_back(scan.Current());
      if (gov != nullptr && !gov->ChargeTuples(1)) break;
    }
  }
  span.set_rows_out(out.size());
  return Relation::FromSortedUnique(base.arity(), std::move(out));
}

namespace {

// Collects the run of tuples whose `col` value equals that of the current
// tuple; leaves the scan positioned at the first tuple past the run.
void CollectRun(DeltaScan* scan, size_t col, std::vector<Tuple>* run) {
  run->clear();
  run->push_back(scan->Current());
  const Value key = scan->Current()[col];
  scan->Advance();
  while (!scan->Done() && scan->Current()[col].Compare(key) == 0) {
    run->push_back(scan->Current());
    scan->Advance();
  }
}

}  // namespace

Relation JoinWhen(const Relation& base_l, const DeltaPair* delta_l,
                  const Relation& base_r, const DeltaPair* delta_r,
                  size_t lcol, size_t rcol, const ScalarExprPtr& residual) {
  TraceSpan span("join-when", base_l.size() + base_r.size());
  ExecGovernor* gov = CurrentGovernor();
  const size_t out_arity = base_l.arity() + base_r.arity();
  std::vector<Tuple> out;

  auto residual_ok = [&](const Tuple& combined) {
    return residual == nullptr || residual->EvaluatesTrue(combined);
  };

  if (lcol == 0 && rcol == 0) {
    // Pure sort-merge over the two delta streams: the sorted order of the
    // streams coincides with the join-key order.
    DeltaScan ls(base_l, delta_l);
    DeltaScan rs(base_r, delta_r);
    std::vector<Tuple> lrun, rrun;
    bool stop = false;
    while (!stop && !ls.Done() && !rs.Done()) {
      if (gov != nullptr && !gov->Tick()) break;
      int c = ls.Current()[0].Compare(rs.Current()[0]);
      if (c < 0) {
        ls.Advance();
      } else if (c > 0) {
        rs.Advance();
      } else {
        CollectRun(&ls, 0, &lrun);
        CollectRun(&rs, 0, &rrun);
        for (const Tuple& l : lrun) {
          if (stop) break;
          for (const Tuple& r : rrun) {
            Tuple combined = ConcatTuples(l, r);
            if (residual_ok(combined)) {
              out.push_back(std::move(combined));
              if (gov != nullptr && !gov->ChargeTuples(1)) {
                stop = true;
                break;
              }
            }
          }
        }
      }
    }
    span.set_rows_out(out.size());
    return Relation::FromTuples(out_arity, std::move(out));
  }

  // General columns: stream the right side into a hash table, probe with
  // the left stream. Still avoids materializing the hypothetical relations.
  std::unordered_map<Value, std::vector<Tuple>, ValueHash> table;
  table.reserve(base_r.size());
  for (DeltaScan rs(base_r, delta_r); !rs.Done(); rs.Advance()) {
    if (gov != nullptr && !gov->Tick()) break;
    table[rs.Current()[rcol]].push_back(rs.Current());
  }
  bool stop = false;
  for (DeltaScan ls(base_l, delta_l); !stop && !ls.Done(); ls.Advance()) {
    if (gov != nullptr && !gov->Tick()) break;
    auto it = table.find(ls.Current()[lcol]);
    if (it == table.end()) continue;
    for (const Tuple& r : it->second) {
      Tuple combined = ConcatTuples(ls.Current(), r);
      if (residual_ok(combined)) {
        out.push_back(std::move(combined));
        if (gov != nullptr && !gov->ChargeTuples(1)) {
          stop = true;
          break;
        }
      }
    }
  }
  span.set_rows_out(out.size());
  return Relation::FromTuples(out_arity, std::move(out));
}

namespace {

// Finds one `$i = $j` equi conjunct crossing the split (the first, by the
// shared conjunct splitter's left-to-right order); returns false if none
// exists.
bool FindEquiConjunct(const ScalarExprPtr& pred, size_t split, size_t* lcol,
                      size_t* rcol) {
  std::vector<std::pair<size_t, size_t>> equi;
  std::vector<ScalarExprPtr> residual;
  SplitJoinPredicate(pred, split, &equi, &residual);
  if (equi.empty()) return false;
  *lcol = equi.front().first;
  *rcol = equi.front().second;
  return true;
}

}  // namespace

namespace {

/// True when `q` is a stored-relation leaf the delta route can resolve
/// directly: a kRel naming a schema relation with no temp binding shadowing
/// it (temp bindings never take deltas; they go through the generic path).
bool IsStoredLeaf(const QueryPtr& q, const Database& db,
                  const std::map<std::string, RelationView>* temps) {
  if (q->kind() != QueryKind::kRel) return false;
  if (temps != nullptr && temps->find(q->rel_name()) != temps->end()) {
    return false;
  }
  return db.schema().HasRelation(q->rel_name());
}

/// The leaf's hypothetical state as an overlay that never consolidates
/// (infinite fraction forces stacking), so the stored base keeps its
/// identity and its cached column batch / index serve every hypothetical
/// state in the family. A delta that canonicalizes to nothing (inserts
/// already present, deletes already absent) leaves the view flat — the
/// caller can then take the same fast path as the no-delta case.
RelationView OverlayLeaf(const RelationView& stored, const DeltaPair* p) {
  if (p == nullptr) return stored;
  return stored.ApplyDelta(p->ins.tuples(), p->del.tuples(),
                           std::numeric_limits<double>::infinity());
}

Result<RelationView> EvalFilterDNode(
    const QueryPtr& query, const Database& db, const DeltaValue& delta,
    const std::map<std::string, RelationView>* temps,
    const PhysicalPolicy& policy) {
  if (query == nullptr) {
    return Status::InvalidArgument("EvalFilterD: query must not be null");
  }
  HQL_RETURN_IF_ERROR(GovernorCheck());
  switch (query->kind()) {
    case QueryKind::kRel: {
      if (temps != nullptr) {
        auto it = temps->find(query->rel_name());
        if (it != temps->end()) return it->second;
      }
      // The hypothetical relation (DB(R) - R_D) u R_I is an overlay on the
      // shared base: O(|delta|), and free when the delta leaves R alone.
      HQL_ASSIGN_OR_RETURN(RelationView base, db.GetView(query->rel_name()));
      const DeltaPair* p = delta.Get(query->rel_name());
      if (p == nullptr) return base;
      return base.ApplyDelta(p->ins.tuples(), p->del.tuples());
    }
    case QueryKind::kEmpty:
      return RelationView(query->empty_arity());
    case QueryKind::kSingleton:
      return RelationView(
          Relation::FromTuples(query->tuple().size(), {query->tuple()}));
    case QueryKind::kSelect: {
      // A selection over a stored leaf resolves the hypothetical state as
      // a never-consolidated overlay on the shared base, then routes index
      // probe -> vectorized batch scan (with the overlay patched in
      // row-wise) -> select-when row streaming. One index or batch built
      // on the base state serves every hypothetical state in the family;
      // only past the delta-fraction gate does the scan degrade to the
      // streaming when-kernel, which never materializes either.
      if (IsStoredLeaf(query->left(), db, temps)) {
        const std::string& name = query->left()->rel_name();
        HQL_ASSIGN_OR_RETURN(RelationView stored, db.GetView(name));
        const DeltaPair* p = delta.Get(name);
        RelationView in = OverlayLeaf(stored, p);
        std::optional<Relation> fast =
            TryIndexedFilter(in, query->predicate(), policy);
        if (fast.has_value()) return RelationView(*std::move(fast));
        std::optional<Relation> col =
            TryColumnarFilter(in, query->predicate(), policy);
        if (col.has_value()) {
          if (p != nullptr) AmbientExecContext().AddColumnarWhenRouted();
          return RelationView(*std::move(col));
        }
        if (policy.columnar_enabled()) {
          AmbientExecContext().AddColumnarRowsFallback(in.size());
        }
        if (stored.is_flat()) {
          // A delta that canonicalized to nothing streams the flat base
          // (nullptr delta), not the stale delta pair.
          return RelationView(SelectWhen(*stored.base(),
                                         in.is_flat() ? nullptr : p,
                                         *query->predicate()));
        }
        return RelationView(FilterRelation(in, *query->predicate()));
      }
      HQL_ASSIGN_OR_RETURN(
          RelationView in,
          EvalFilterDNode(query->left(), db, delta, temps, policy));
      return RelationView(
          VectorizedFilter(in, query->predicate(), policy));
    }
    case QueryKind::kProject: {
      HQL_ASSIGN_OR_RETURN(
          RelationView in,
          EvalFilterDNode(query->left(), db, delta, temps, policy));
      return RelationView(ProjectRelation(in, query->columns()));
    }
    case QueryKind::kAggregate: {
      HQL_ASSIGN_OR_RETURN(
          RelationView in,
          EvalFilterDNode(query->left(), db, delta, temps, policy));
      return RelationView(VectorizedAggregate(in, query->columns(),
                                              query->agg_func(),
                                              query->agg_column(), policy));
    }
    case QueryKind::kUnion: {
      HQL_ASSIGN_OR_RETURN(
          RelationView l,
          EvalFilterDNode(query->left(), db, delta, temps, policy));
      HQL_ASSIGN_OR_RETURN(
          RelationView r,
          EvalFilterDNode(query->right(), db, delta, temps, policy));
      return RelationView(ViewUnion(l, r));
    }
    case QueryKind::kIntersect: {
      HQL_ASSIGN_OR_RETURN(
          RelationView l,
          EvalFilterDNode(query->left(), db, delta, temps, policy));
      HQL_ASSIGN_OR_RETURN(
          RelationView r,
          EvalFilterDNode(query->right(), db, delta, temps, policy));
      return RelationView(ViewIntersect(l, r));
    }
    case QueryKind::kProduct: {
      HQL_ASSIGN_OR_RETURN(
          RelationView l,
          EvalFilterDNode(query->left(), db, delta, temps, policy));
      HQL_ASSIGN_OR_RETURN(
          RelationView r,
          EvalFilterDNode(query->right(), db, delta, temps, policy));
      return RelationView(ViewProduct(l, r));
    }
    case QueryKind::kJoin: {
      // An equi-join of two stored leaves resolves both hypothetical
      // states as never-consolidated overlays, probes the larger side's
      // base index when the policy grants one, then tries the vectorized
      // hash join over the larger base's batch (overlay patched in
      // row-wise); a miss falls through to the join-when row streaming.
      if (IsStoredLeaf(query->left(), db, temps) &&
          IsStoredLeaf(query->right(), db, temps)) {
        const std::string& lname = query->left()->rel_name();
        const std::string& rname = query->right()->rel_name();
        HQL_ASSIGN_OR_RETURN(RelationView lstored, db.GetView(lname));
        HQL_ASSIGN_OR_RETURN(RelationView rstored, db.GetView(rname));
        const DeltaPair* pl = delta.Get(lname);
        const DeltaPair* pr = delta.Get(rname);
        RelationView l = OverlayLeaf(lstored, pl);
        RelationView r = OverlayLeaf(rstored, pr);
        std::optional<Relation> fast =
            TryIndexedJoin(l, r, query->predicate(), policy);
        if (fast.has_value()) return RelationView(*std::move(fast));
        std::optional<Relation> col =
            TryColumnarJoin(l, r, query->predicate(), policy);
        if (col.has_value()) {
          if (pl != nullptr || pr != nullptr) {
            AmbientExecContext().AddColumnarWhenRouted();
          }
          return RelationView(*std::move(col));
        }
        if (policy.columnar_enabled()) {
          AmbientExecContext().AddColumnarRowsFallback(l.size() + r.size());
        }
        if (lstored.is_flat() && rstored.is_flat()) {
          size_t lcol = 0, rcol = 0;
          if (FindEquiConjunct(query->predicate(), lstored.arity(), &lcol,
                               &rcol)) {
            // Deltas that canonicalized to nothing stream the flat bases.
            return RelationView(JoinWhen(*lstored.base(),
                                         l.is_flat() ? nullptr : pl,
                                         *rstored.base(),
                                         r.is_flat() ? nullptr : pr, lcol,
                                         rcol, query->predicate()));
          }
        }
        return RelationView(JoinRelations(l, r, query->predicate()));
      }
      HQL_ASSIGN_OR_RETURN(
          RelationView l,
          EvalFilterDNode(query->left(), db, delta, temps, policy));
      HQL_ASSIGN_OR_RETURN(
          RelationView r,
          EvalFilterDNode(query->right(), db, delta, temps, policy));
      return RelationView(
          VectorizedJoin(l, r, query->predicate(), policy));
    }
    case QueryKind::kDifference: {
      HQL_ASSIGN_OR_RETURN(
          RelationView l,
          EvalFilterDNode(query->left(), db, delta, temps, policy));
      HQL_ASSIGN_OR_RETURN(
          RelationView r,
          EvalFilterDNode(query->right(), db, delta, temps, policy));
      return RelationView(ViewDifference(l, r));
    }
    case QueryKind::kWhen:
      return Status::InvalidArgument(
          "EvalFilterD evaluates pure RA queries; use RunFilter3 for "
          "hypothetical queries");
  }
  return Status::Internal("unknown query kind in EvalFilterD");
}

}  // namespace

Result<RelationView> EvalFilterDView(
    const QueryPtr& query, const Database& db, const DeltaValue& delta,
    const std::map<std::string, RelationView>* temps,
    const PhysicalPolicy& policy) {
  HQL_ASSIGN_OR_RETURN(
      RelationView out,
      EvalFilterDNode(query, db, delta, temps, policy));
  // Discard a root-operator kernel's truncated output on trip.
  HQL_RETURN_IF_ERROR(GovernorCheck());
  return out;
}

Result<Relation> EvalFilterD(const QueryPtr& query, const Database& db,
                             const DeltaValue& delta,
                             const std::map<std::string, RelationView>* temps,
                             const PhysicalPolicy& policy) {
  HQL_ASSIGN_OR_RETURN(
      RelationView out,
      EvalFilterDNode(query, db, delta, temps, policy));
  HQL_RETURN_IF_ERROR(GovernorCheck());
  return out.Materialize();
}

}  // namespace hql
