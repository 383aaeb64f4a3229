#ifndef HQL_EVAL_VECTOR_EXEC_H_
#define HQL_EVAL_VECTOR_EXEC_H_

// Vectorized columnar kernels with morsel-driven parallelism: selection and
// hash-join operators that run over a flat base's ColumnBatch (per-column
// contiguous arrays, storage/column_batch.h) in tight type-specialized
// loops instead of per-tuple expression-tree interpretation, splitting
// large scans into fixed-size morsels dispatched across a thread pool.
//
// Overlays stay row-oriented: the kernels vectorize the shared base and
// patch the answer with the delta exactly like the index kernels — base
// matches minus dels, merged with a row-wise filter of adds — so a
// hypothetical state scans the batch its base state built.
//
// All kernels are exact: they return nullopt (callers fall back to the row
// kernels) whenever the input is too small, the overlay too large, or the
// predicate not compilable to the conjunct-per-column form, and otherwise
// produce byte-identical results to the scan. A default PhysicalPolicy
// (columnar mode off) disables them entirely.

#include <cstdint>
#include <optional>
#include <vector>

#include "ast/query.h"
#include "ast/scalar_expr.h"
#include "eval/physical_policy.h"
#include "storage/column_batch.h"
#include "storage/relation.h"
#include "storage/view.h"

namespace hql {

// One compiled conjunct: a comparison of a column against a literal,
// lowered onto the batch's encoding for that column. Replicates
// ScalarExpr::Evaluate + Value::Compare semantics exactly, including the
// int-before-double tie-break on numerically equal cross-type operands.
struct VectorConjunct {
  enum class Kind : uint8_t {
    kConstTrue,   // conjunct holds for every row (e.g. literal true)
    kConstFalse,  // conjunct holds for no row (e.g. family mismatch)
    kIntInt,      // int64 column OP int literal, pure integer loop
    kNumDouble,   // numeric column OP numeric literal via double compare
    kGeneric,     // per-row Value::Compare against the literal
  };

  Kind kind = Kind::kConstTrue;
  ScalarOp op = ScalarOp::kEq;  // kEq..kGe, column on the left
  size_t column = 0;
  int64_t int_lit = 0;   // kIntInt
  double dbl_lit = 0.0;  // kNumDouble
  // Value::Compare's type tie-break when the doubles compare equal:
  // -1 int column vs double literal, +1 double column vs int literal,
  // 0 same types.
  int tie_cmp = 0;
  Value lit;  // kGeneric
};

/// A predicate compiled for one batch: an AND of per-column conjuncts.
struct VectorPredicate {
  std::vector<VectorConjunct> conjuncts;
};

/// Compiles `pred` for a batch of the given shape, or nullopt when any
/// conjunct is not a binary comparison of one column against one literal
/// (boolean literals pass as constants). `batch` supplies per-column
/// encodings; `arity` folds out-of-range columns into constants the way
/// row evaluation folds them to null.
std::optional<VectorPredicate> CompileVectorPredicate(
    const ScalarExprPtr& pred, const ColumnBatch& batch);

/// Appends to `sel` the row positions in [begin, end) satisfying every
/// conjunct, ascending. `sel` is cleared first.
void EvalPredicateBatch(const ColumnBatch& batch, const VectorPredicate& pred,
                        size_t begin, size_t end, std::vector<uint32_t>* sel);

/// sigma_pred(input) over the base's column batch, morsel-parallel, with
/// the overlay patched in row-wise. Returns nullopt when the policy, base
/// size, overlay size, or predicate shape rules vectorization out (callers
/// fall back to the row scan).
std::optional<Relation> TryColumnarFilter(const RelationView& input,
                                          const ScalarExprPtr& pred,
                                          const PhysicalPolicy& policy);

/// lhs join_pred rhs as a vectorized hash join: builds on the smaller
/// side, probes the larger side's column batch morsel-parallel. Returns
/// nullopt when no equality conjunct crosses the split or the probe side
/// does not qualify for vectorization.
std::optional<Relation> TryColumnarJoin(const RelationView& lhs,
                                        const RelationView& rhs,
                                        const ScalarExprPtr& pred,
                                        const PhysicalPolicy& policy);

/// gamma_{group_columns; func(agg_column)}(input) over the base's column
/// batch: group keys are extracted from the typed arrays into a flat
/// open-addressing table on int64/packed-int64 keys (generic tuple-keyed
/// fallback), with type-specialized count/sum/min/max accumulation loops,
/// morsel-driven partial aggregation, and a merge phase; overlay adds are
/// folded in row-wise after the base merge. Returns nullopt when the
/// policy, base size, or overlay size rules vectorization out, and also
/// when exactness would be at risk: float sums are order-sensitive, so
/// kSum only vectorizes int64-encoded columns whose overlay adds are all
/// ints (the row kernel's accumulation is then reproduced bit-for-bit),
/// and min/max over mixed-type columns (or off-family adds) falls back
/// whenever adds exist, because the row kernel's sorted interleaving can
/// seed a different Compare-equal representative (Int(2) vs Double(2.0)).
/// An empty group-column list is the global-aggregate fast path, reduced
/// with the SIMD kernels from eval/simd.h.
std::optional<Relation> TryColumnarAggregate(
    const RelationView& input, const std::vector<size_t>& group_columns,
    AggFunc func, size_t agg_column, const PhysicalPolicy& policy);

/// The routed aggregation kernel: columnar when it qualifies, then the row
/// kernel; always equals AggregateRelation(input, group_columns, func,
/// agg_column).
Relation VectorizedAggregate(const RelationView& input,
                             const std::vector<size_t>& group_columns,
                             AggFunc func, size_t agg_column,
                             const PhysicalPolicy& policy);

/// The routed selection kernel: index probe, then columnar scan, then the
/// row scan — first taker wins; always equals FilterRelation(input, *pred).
/// `pred` must be non-null.
Relation VectorizedFilter(const RelationView& input, const ScalarExprPtr& pred,
                          const PhysicalPolicy& policy);

/// The routed join kernel: index-nested-loop, then columnar hash join,
/// then the row hash join; always equals JoinRelations(lhs, rhs, pred).
Relation VectorizedJoin(const RelationView& lhs, const RelationView& rhs,
                        const ScalarExprPtr& pred,
                        const PhysicalPolicy& policy);

}  // namespace hql

#endif  // HQL_EVAL_VECTOR_EXEC_H_
