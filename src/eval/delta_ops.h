#ifndef HQL_EVAL_DELTA_OPS_H_
#define HQL_EVAL_DELTA_OPS_H_

// Heraclitus-style "*-when" physical operators (paper Section 5.5): they
// combine delta application with relational algebra operators so that a
// query under a small delta costs only marginally more than the same query
// against the base state — the paper's rule of thumb is ~11% extra time per
// 1% of delta for the sort-merge join-when.
//
// The core piece is DeltaScan, a streaming merge of the three sorted inputs
// base / D / I that yields (base - D) u I in sorted order without
// materializing it. join-when then runs a sort-merge equi-join directly on
// two such streams (six physical operands in total, exactly the paper's
// join-when(DB(R), DB(S), R_D, R_I, S_D, S_I)).

#include <map>
#include <string>

#include "ast/query.h"
#include "common/result.h"
#include "eval/delta.h"
#include "eval/physical_policy.h"
#include "storage/database.h"

namespace hql {

/// Streaming iterator over (base - D) u I in tuple order. The three inputs
/// must share an arity; `pair` may be null (no delta for this relation).
class DeltaScan {
 public:
  DeltaScan(const Relation& base, const DeltaPair* pair);

  /// The current tuple; requires !Done().
  const Tuple& Current() const;
  bool Done() const;
  void Advance();

 private:
  void Settle();  // moves to the next tuple that survives D / merges I

  const std::vector<Tuple>* base_;
  const std::vector<Tuple>* del_;
  const std::vector<Tuple>* ins_;
  size_t bi_ = 0;
  size_t di_ = 0;
  size_t ii_ = 0;
  // Which stream provides Current(): 0 = base, 1 = ins, 2 = done.
  int source_ = 2;
};

/// join-when: [(baseL - D_L) u I_L] join_pred [(baseR - D_R) u I_R], merged
/// on the equality `$lcol = $(larity + rcol)`. When lcol == rcol == 0 the
/// join runs as a pure sort-merge over the delta streams; otherwise the
/// operands are streamed into a hash join (still without materializing the
/// hypothetical relations). `residual` (nullable) filters the concatenated
/// tuple.
Relation JoinWhen(const Relation& base_l, const DeltaPair* delta_l,
                  const Relation& base_r, const DeltaPair* delta_r,
                  size_t lcol, size_t rcol,
                  const ScalarExprPtr& residual);

/// select-when: sigma_p((base - D) u I), streamed.
Relation SelectWhen(const Relation& base, const DeltaPair* delta,
                    const ScalarExpr& predicate);

/// eval_filter_d: evaluates a pure RA query where every base relation R is
/// read as (DB(R) - R_D) u R_I. Leaf scans become delta overlays on the
/// shared base relation (never copied), selections and top-level equi-joins
/// of flat base relations use the streaming *-when operators, and every
/// other shape consumes copy-on-write views through the merge-aware
/// relational operators. `temps` (nullable) resolves collapse placeholders
/// ("#i") to already-computed views, which the delta does not filter.
/// `policy` (default: every accelerator off) lets equality selections and
/// equi-joins probe base-relation indexes, patched with the delta at probe
/// time, and large flat-base selections, equi-joins and aggregates run the
/// vectorized morsel kernels (eval/vector_exec.h), with the delta patched
/// in row-wise.
Result<Relation> EvalFilterD(const QueryPtr& query, const Database& db,
                             const DeltaValue& delta,
                             const std::map<std::string, RelationView>* temps =
                                 nullptr,
                             const PhysicalPolicy& policy = PhysicalPolicy());

/// EvalFilterD returning the result as a view: an untouched leaf scan is a
/// refcount bump and a delta'd leaf is an O(|delta|) overlay.
Result<RelationView> EvalFilterDView(
    const QueryPtr& query, const Database& db, const DeltaValue& delta,
    const std::map<std::string, RelationView>* temps = nullptr,
    const PhysicalPolicy& policy = PhysicalPolicy());

}  // namespace hql

#endif  // HQL_EVAL_DELTA_OPS_H_
