#include "eval/ra_eval.h"

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/exec_context.h"
#include "common/governor.h"
#include "eval/incremental.h"
#include "eval/index_exec.h"
#include "eval/memo.h"
#include "eval/vector_exec.h"

namespace hql {

namespace {

// The operator bodies are templated over the input kind (Relation or
// RelationView): both iterate tuples in sorted order and expose
// arity()/size(), so one implementation serves the flat and the
// merge-streaming form.
//
// Each kernel charges its *output* tuples against the ambient governor's
// tuple budget and ticks *processed* rows toward the cooperative-check
// cadence. On a trip the kernel breaks out and returns truncated data; the
// Status-returning caller (EvalRaNode) observes the trip via GovernorCheck
// and discards the partial result, so truncation never escapes.

template <typename Rel>
Relation FilterImpl(const Rel& input, const ScalarExpr& predicate) {
  TraceSpan span("select", input.size());
  ExecGovernor* gov = CurrentGovernor();
  std::vector<Tuple> out;
  for (const Tuple& t : input) {
    if (gov != nullptr && !gov->Tick()) break;
    if (predicate.EvaluatesTrue(t)) {
      out.push_back(t);
      if (gov != nullptr && !gov->ChargeTuples(1)) break;
    }
  }
  span.set_rows_out(out.size());
  // Filtering preserves order and uniqueness.
  return Relation::FromSortedUnique(input.arity(), std::move(out));
}

template <typename Rel>
Relation ProjectImpl(const Rel& input, const std::vector<size_t>& columns) {
  TraceSpan span("project", input.size());
  ExecGovernor* gov = CurrentGovernor();
  std::vector<Tuple> out;
  out.reserve(input.size());
  for (const Tuple& t : input) {
    Tuple p;
    p.reserve(columns.size());
    for (size_t c : columns) {
      HQL_CHECK(c < t.size());
      p.push_back(t[c]);
    }
    out.push_back(std::move(p));
    if (gov != nullptr && !gov->ChargeTuples(1)) break;
  }
  span.set_rows_out(out.size());
  return Relation::FromTuples(columns.size(), std::move(out));
}

// Equality-conjunct extraction lives in eval/index_exec.h
// (SplitJoinPredicate), shared with the index-nested-loop join.

template <typename Lhs, typename Rhs>
Relation JoinImpl(const Lhs& lhs, const Rhs& rhs,
                  const ScalarExprPtr& predicate) {
  TraceSpan span("join", lhs.size() + rhs.size());
  ExecGovernor* gov = CurrentGovernor();
  const size_t out_arity = lhs.arity() + rhs.arity();

  std::vector<std::pair<size_t, size_t>> equi;
  std::vector<ScalarExprPtr> residual;
  if (predicate != nullptr) {
    SplitJoinPredicate(predicate, lhs.arity(), &equi, &residual);
  }

  auto residual_ok = [&](const Tuple& combined) {
    for (const ScalarExprPtr& r : residual) {
      if (!r->EvaluatesTrue(combined)) return false;
    }
    return true;
  };

  std::vector<Tuple> out;
  if (!equi.empty()) {
    // Hash join, building on the smaller input and probing with the larger
    // one; the build side's key columns come from `equi`'s lhs or rhs slot
    // depending on which side we picked. Output tuples are always
    // (lhs, rhs) regardless of build side. Iteration references stay valid
    // for the inputs' lifetime (view iterators hand out references into the
    // base/overlay storage), so the table stores plain pointers.
    const bool build_rhs = rhs.size() <= lhs.size();

    auto key_of = [&equi](const Tuple& t, bool use_rhs_cols) {
      Tuple key;
      key.reserve(equi.size());
      for (const auto& [lc, rc] : equi) key.push_back(t[use_rhs_cols ? rc : lc]);
      return key;
    };

    std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHash> table;
    auto build_into = [&](const auto& build, bool keys_from_rhs) {
      table.reserve(build.size());
      for (const Tuple& b : build) {
        table[key_of(b, keys_from_rhs)].push_back(&b);
      }
    };
    auto probe_with = [&](const auto& probe, bool keys_from_rhs) {
      for (const Tuple& p : probe) {
        if (gov != nullptr && !gov->Tick()) return;
        auto it = table.find(key_of(p, keys_from_rhs));
        if (it == table.end()) continue;
        for (const Tuple* b : it->second) {
          Tuple combined =
              keys_from_rhs ? ConcatTuples(*b, p) : ConcatTuples(p, *b);
          if (residual_ok(combined)) {
            out.push_back(std::move(combined));
            if (gov != nullptr && !gov->ChargeTuples(1)) return;
          }
        }
      }
    };
    if (build_rhs) {
      build_into(rhs, /*keys_from_rhs=*/true);
      probe_with(lhs, /*keys_from_rhs=*/false);
    } else {
      build_into(lhs, /*keys_from_rhs=*/false);
      probe_with(rhs, /*keys_from_rhs=*/true);
    }
  } else {
    // Nested loop with the predicate applied inline (clustered sigma-x).
    bool stop = false;
    for (const Tuple& l : lhs) {
      if (stop) break;
      for (const Tuple& r : rhs) {
        if (gov != nullptr && !gov->Tick()) {
          stop = true;
          break;
        }
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
  span.set_rows_out(out.size());
  return Relation::FromTuples(out_arity, std::move(out));
}

template <typename Rel>
Relation AggregateImpl(const Rel& input,
                       const std::vector<size_t>& group_columns, AggFunc func,
                       size_t agg_column) {
  TraceSpan span("aggregate", input.size());
  struct Acc {
    int64_t count = 0;
    int64_t int_sum = 0;
    double dbl_sum = 0;
    bool any_double = false;
    bool any_number = false;
    Value min_v;
    Value max_v;
  };
  ExecGovernor* gov = CurrentGovernor();
  std::unordered_map<Tuple, Acc, TupleHash> groups;
  groups.reserve(input.size());
  for (const Tuple& t : input) {
    if (gov != nullptr && !gov->Tick()) break;
    Tuple key;
    key.reserve(group_columns.size());
    for (size_t c : group_columns) key.push_back(t[c]);
    Acc& acc = groups[std::move(key)];
    const Value& v = t[agg_column];
    if (acc.count == 0) {
      acc.min_v = v;
      acc.max_v = v;
    } else {
      if (v.Compare(acc.min_v) < 0) acc.min_v = v;
      if (v.Compare(acc.max_v) > 0) acc.max_v = v;
    }
    ++acc.count;
    if (v.is_int()) {
      acc.int_sum += v.AsInt();
      acc.dbl_sum += static_cast<double>(v.AsInt());
      acc.any_number = true;
    } else if (v.is_double()) {
      acc.dbl_sum += v.AsDouble();
      acc.any_double = true;
      acc.any_number = true;
    }
  }
  std::vector<Tuple> out;
  out.reserve(groups.size());
  for (auto& [key, acc] : groups) {
    if (gov != nullptr && !gov->ChargeTuples(1)) break;
    Value agg;
    switch (func) {
      case AggFunc::kCount:
        agg = Value::Int(acc.count);
        break;
      case AggFunc::kSum:
        if (!acc.any_number) {
          agg = Value::Nul();
        } else if (acc.any_double) {
          agg = Value::Double(acc.dbl_sum);
        } else {
          agg = Value::Int(acc.int_sum);
        }
        break;
      case AggFunc::kMin:
        agg = acc.min_v;
        break;
      case AggFunc::kMax:
        agg = acc.max_v;
        break;
    }
    Tuple row = key;
    row.push_back(std::move(agg));
    out.push_back(std::move(row));
  }
  span.set_rows_out(out.size());
  return Relation::FromTuples(group_columns.size() + 1, std::move(out));
}

}  // namespace

Relation FilterRelation(const Relation& input, const ScalarExpr& predicate) {
  return FilterImpl(input, predicate);
}

Relation FilterRelation(const RelationView& input,
                        const ScalarExpr& predicate) {
  return FilterImpl(input, predicate);
}

Relation ProjectRelation(const Relation& input,
                         const std::vector<size_t>& columns) {
  return ProjectImpl(input, columns);
}

Relation ProjectRelation(const RelationView& input,
                         const std::vector<size_t>& columns) {
  return ProjectImpl(input, columns);
}

Relation JoinRelations(const Relation& lhs, const Relation& rhs,
                       const ScalarExprPtr& predicate) {
  return JoinImpl(lhs, rhs, predicate);
}

Relation JoinRelations(const RelationView& lhs, const RelationView& rhs,
                       const ScalarExprPtr& predicate) {
  return JoinImpl(lhs, rhs, predicate);
}

Relation AggregateRelation(const Relation& input,
                           const std::vector<size_t>& group_columns,
                           AggFunc func, size_t agg_column) {
  return AggregateImpl(input, group_columns, func, agg_column);
}

Relation AggregateRelation(const RelationView& input,
                           const std::vector<size_t>& group_columns,
                           AggFunc func, size_t agg_column) {
  return AggregateImpl(input, group_columns, func, agg_column);
}

namespace {

// Subplan results flow through the recursion as copy-on-write views: a leaf
// resolve is a cheap view copy, a memo hit wraps the cached shared relation
// (refcount bump), and computed operator results ride in freshly wrapped
// flat views — no tuple copies move between nodes.
Result<RelationView> EvalRaNode(const QueryPtr& query,
                                const RelResolver& resolver,
                                const EvalMemo* memo);

// The operator switch; recursion goes through EvalRaNode so every subplan
// passes the memo check.
Result<RelationView> EvalRaCompute(const QueryPtr& query,
                                   const RelResolver& resolver,
                                   const EvalMemo* memo) {
  static const PhysicalPolicy kNoPolicy;
  const PhysicalPolicy& policy = memo != nullptr ? memo->policy : kNoPolicy;
  switch (query->kind()) {
    case QueryKind::kRel:
      return resolver.Resolve(query->rel_name());
    case QueryKind::kEmpty:
      return RelationView(query->empty_arity());
    case QueryKind::kSingleton:
      return RelationView(
          Relation::FromTuples(query->tuple().size(), {query->tuple()}));
    case QueryKind::kSelect: {
      // Cluster sigma over x / join into a theta join.
      const QueryPtr& child = query->left();
      if (child->kind() == QueryKind::kProduct ||
          child->kind() == QueryKind::kJoin) {
        HQL_ASSIGN_OR_RETURN(RelationView l,
                             EvalRaNode(child->left(), resolver, memo));
        HQL_ASSIGN_OR_RETURN(RelationView r,
                             EvalRaNode(child->right(), resolver, memo));
        ScalarExprPtr pred = query->predicate();
        if (child->kind() == QueryKind::kJoin) {
          pred = ScalarExpr::Binary(ScalarOp::kAnd, pred, child->predicate());
        }
        return RelationView(VectorizedJoin(l, r, pred, policy));
      }
      HQL_ASSIGN_OR_RETURN(RelationView in,
                           EvalRaNode(child, resolver, memo));
      return RelationView(
          VectorizedFilter(in, query->predicate(), policy));
    }
    case QueryKind::kProject: {
      HQL_ASSIGN_OR_RETURN(RelationView in,
                           EvalRaNode(query->left(), resolver, memo));
      return RelationView(ProjectRelation(in, query->columns()));
    }
    case QueryKind::kAggregate: {
      HQL_ASSIGN_OR_RETURN(RelationView in,
                           EvalRaNode(query->left(), resolver, memo));
      return RelationView(VectorizedAggregate(in, query->columns(),
                                              query->agg_func(),
                                              query->agg_column(), policy));
    }
    case QueryKind::kUnion: {
      HQL_ASSIGN_OR_RETURN(RelationView l,
                           EvalRaNode(query->left(), resolver, memo));
      HQL_ASSIGN_OR_RETURN(RelationView r,
                           EvalRaNode(query->right(), resolver, memo));
      return RelationView(ViewUnion(l, r));
    }
    case QueryKind::kIntersect: {
      HQL_ASSIGN_OR_RETURN(RelationView l,
                           EvalRaNode(query->left(), resolver, memo));
      HQL_ASSIGN_OR_RETURN(RelationView r,
                           EvalRaNode(query->right(), resolver, memo));
      return RelationView(ViewIntersect(l, r));
    }
    case QueryKind::kProduct: {
      HQL_ASSIGN_OR_RETURN(RelationView l,
                           EvalRaNode(query->left(), resolver, memo));
      HQL_ASSIGN_OR_RETURN(RelationView r,
                           EvalRaNode(query->right(), resolver, memo));
      return RelationView(ViewProduct(l, r));
    }
    case QueryKind::kJoin: {
      HQL_ASSIGN_OR_RETURN(RelationView l,
                           EvalRaNode(query->left(), resolver, memo));
      HQL_ASSIGN_OR_RETURN(RelationView r,
                           EvalRaNode(query->right(), resolver, memo));
      return RelationView(
          VectorizedJoin(l, r, query->predicate(), policy));
    }
    case QueryKind::kDifference: {
      HQL_ASSIGN_OR_RETURN(RelationView l,
                           EvalRaNode(query->left(), resolver, memo));
      HQL_ASSIGN_OR_RETURN(RelationView r,
                           EvalRaNode(query->right(), resolver, memo));
      return RelationView(ViewDifference(l, r));
    }
    case QueryKind::kWhen:
      return Status::InvalidArgument(
          "EvalRa evaluates pure RA queries only; use EvalDirect / RunFilter1 "
          "/ RunFilter2 for hypothetical queries");
  }
  return Status::Internal("unknown query kind in EvalRa");
}

Result<RelationView> EvalRaNode(const QueryPtr& query,
                                const RelResolver& resolver,
                                const EvalMemo* memo) {
  // Operator-boundary checkpoint: surfaces a kernel trip (the kernel broke
  // out with truncated data) before the partial result can propagate, and
  // bounds how long a deep plan runs past a deadline or cancellation.
  HQL_RETURN_IF_ERROR(GovernorCheck());
  const QueryKind kind = query->kind();
  const bool memoizable =
      memo != nullptr && memo->cache != nullptr &&
      kind != QueryKind::kRel && kind != QueryKind::kEmpty &&
      kind != QueryKind::kSingleton;
  uint64_t key = 0;
  if (memoizable) {
    key = MemoKey(query->Fingerprint(), memo->state_fingerprint);
    if (RelationPtr hit = memo->cache->Lookup(key)) {
      TraceSpan span("memo-hit", 0);
      span.set_rows_out(hit->size());
      RelationView view(std::move(hit));
      // A hit still contributes this node's output to the recording: the
      // incremental entry must cover every node of the plan.
      if (memo->recorder != nullptr) {
        memo->recorder->RecordNode(query->Fingerprint(), view);
      }
      return view;
    }
  }
  HQL_ASSIGN_OR_RETURN(RelationView result,
                       EvalRaCompute(query, resolver, memo));
  // A kernel that tripped mid-operator returned truncated data; re-check
  // here so the partial relation is discarded, not memoized or returned.
  HQL_RETURN_IF_ERROR(GovernorCheck());
  // Computed operator results are flat, so Shared() is a refcount bump; the
  // cache and the computation share one relation.
  if (memoizable) memo->cache->Insert(key, result.Shared());
  if (memo != nullptr && memo->recorder != nullptr) {
    if (kind == QueryKind::kRel) {
      memo->recorder->RecordInput(query->rel_name(), result);
    } else if (kind != QueryKind::kEmpty && kind != QueryKind::kSingleton) {
      memo->recorder->RecordNode(query->Fingerprint(), result);
    }
  }
  return result;
}

}  // namespace

Result<Relation> EvalRa(const QueryPtr& query, const RelResolver& resolver) {
  if (query == nullptr) {
    return Status::InvalidArgument("EvalRa: query must not be null");
  }
  HQL_ASSIGN_OR_RETURN(RelationView out, EvalRaNode(query, resolver, nullptr));
  return out.Materialize();
}

namespace {

// A memo with no cache and no physical-operator policy adds nothing;
// dropping it keeps the plain-evaluator fast path. A cacheless memo with
// indexes or columnar execution enabled must still flow down (the policy
// rides on it).
const EvalMemo* MemoOrNull(const EvalMemo& memo) {
  if (memo.cache == nullptr && !memo.policy.index_enabled() &&
      !memo.policy.columnar_enabled() && memo.recorder == nullptr) {
    return nullptr;
  }
  return &memo;
}

}  // namespace

Result<Relation> EvalRa(const QueryPtr& query, const RelResolver& resolver,
                        const EvalMemo& memo) {
  if (query == nullptr) {
    return Status::InvalidArgument("EvalRa: query must not be null");
  }
  HQL_ASSIGN_OR_RETURN(RelationView out,
                       EvalRaNode(query, resolver, MemoOrNull(memo)));
  return out.Materialize();
}

Result<RelationView> EvalRaView(const QueryPtr& query,
                                const RelResolver& resolver,
                                const EvalMemo& memo) {
  if (query == nullptr) {
    return Status::InvalidArgument("EvalRaView: query must not be null");
  }
  return EvalRaNode(query, resolver, MemoOrNull(memo));
}

}  // namespace hql
