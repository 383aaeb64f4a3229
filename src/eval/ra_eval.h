#ifndef HQL_EVAL_RA_EVAL_H_
#define HQL_EVAL_RA_EVAL_H_

// Evaluation of pure relational algebra queries against a pluggable
// name-resolution environment. The resolver abstraction is what lets the
// same evaluator serve plain database states, xsub-filtered states
// (Algorithm HQL-2's eval_filter_x) and collapsed-tree placeholders.
//
// The evaluator clusters operators where a traditional engine would:
// selections over products/joins run as theta joins, equality conjuncts
// drive a hash join, and selections/projections stream over their input.
//
// Names resolve to copy-on-write RelationViews: a leaf scan of a
// hypothetical state streams (base ∖ dels) ∪ adds through the view's merge
// iterator instead of consolidating, so small-delta states are evaluated
// without materializing the state.

#include <map>
#include <string>

#include "ast/query.h"
#include "ast/scalar_expr.h"
#include "common/result.h"
#include "eval/physical_policy.h"
#include "storage/database.h"
#include "storage/relation.h"
#include "storage/view.h"

namespace hql {

/// Resolves base-relation names to relation values during evaluation.
class RelResolver {
 public:
  virtual ~RelResolver() = default;
  virtual Result<RelationView> Resolve(const std::string& name) const = 0;
};

/// Resolves directly against a database state.
class DatabaseResolver : public RelResolver {
 public:
  explicit DatabaseResolver(const Database& db) : db_(&db) {}
  Result<RelationView> Resolve(const std::string& name) const override {
    return db_->GetView(name);
  }

 private:
  const Database* db_;
};

/// Layers explicit name->relation overrides over another resolver
/// (xsub-value filtering and collapse placeholders).
class OverlayResolver : public RelResolver {
 public:
  explicit OverlayResolver(const RelResolver& base) : base_(&base) {}

  void Bind(const std::string& name, Relation value) {
    overrides_.insert_or_assign(name, RelationView(std::move(value)));
  }
  void Bind(const std::string& name, RelationView value) {
    overrides_.insert_or_assign(name, std::move(value));
  }

  Result<RelationView> Resolve(const std::string& name) const override {
    auto it = overrides_.find(name);
    if (it != overrides_.end()) return it->second;
    return base_->Resolve(name);
  }

 private:
  const RelResolver* base_;
  std::map<std::string, RelationView> overrides_;
};

/// Evaluates a pure RA query (InvalidArgument on `when` nodes).
Result<Relation> EvalRa(const QueryPtr& query, const RelResolver& resolver);

class MemoCache;
class IncrementalRecorder;

/// Memoization context for EvalRa. `state_fingerprint` must identify the
/// contents the resolver serves (FingerprintState in eval/memo.h); entries
/// are keyed by MemoKey(node->Fingerprint(), state_fingerprint), so a
/// caller that fingerprints its state correctly can share one cache across
/// resolvers, queries, and threads.
struct EvalMemo {
  MemoCache* cache = nullptr;
  uint64_t state_fingerprint = 0;
  /// Index and columnar policy for the physical operators
  /// (eval/index_exec.h, eval/vector_exec.h). The default (every mode off)
  /// reproduces the scan and row kernels exactly.
  PhysicalPolicy policy;
  /// When set, every evaluated node's output and every resolved leaf view
  /// are reported to the recorder (eval/incremental.h), capturing the
  /// execution for later incremental patching. Observation only — results
  /// are unchanged.
  IncrementalRecorder* recorder = nullptr;
};

/// EvalRa with subplan memoization: every operator node (leaves excepted —
/// resolving a name is already cheap) is served from `memo.cache` when a
/// structurally identical subplan was evaluated against the same state. A
/// null `memo.cache` degrades to the plain evaluator.
Result<Relation> EvalRa(const QueryPtr& query, const RelResolver& resolver,
                        const EvalMemo& memo);

/// EvalRa returning the result as a view: a memo hit or a bare leaf scan is
/// a refcount bump instead of a relation copy. `memo.cache` may be null.
Result<RelationView> EvalRaView(const QueryPtr& query,
                                const RelResolver& resolver,
                                const EvalMemo& memo);

// ---- shared physical operators (used by all evaluators) ----
// Each operator has a flat-Relation form and a RelationView form; the view
// forms stream through the merge iterator, so overlay inputs are consumed
// without consolidation.

/// sigma_p(input).
Relation FilterRelation(const Relation& input, const ScalarExpr& predicate);
Relation FilterRelation(const RelationView& input,
                        const ScalarExpr& predicate);

/// pi_X(input).
Relation ProjectRelation(const Relation& input,
                         const std::vector<size_t>& columns);
Relation ProjectRelation(const RelationView& input,
                         const std::vector<size_t>& columns);

/// Theta join with hash-join fast path on equality conjuncts
/// `$i = $j` linking the two sides; `predicate` may be null (product).
Relation JoinRelations(const Relation& lhs, const Relation& rhs,
                       const ScalarExprPtr& predicate);
Relation JoinRelations(const RelationView& lhs, const RelationView& rhs,
                       const ScalarExprPtr& predicate);

/// gamma[group_columns; func(agg_column)](input): hash aggregation. count
/// counts distinct tuples per group (set semantics); sum ignores non-number
/// values and returns int when every summand is an int; min/max use the
/// library-wide value order. An empty input yields an empty result even
/// with no grouping columns.
Relation AggregateRelation(const Relation& input,
                           const std::vector<size_t>& group_columns,
                           AggFunc func, size_t agg_column);
Relation AggregateRelation(const RelationView& input,
                           const std::vector<size_t>& group_columns,
                           AggFunc func, size_t agg_column);

}  // namespace hql

#endif  // HQL_EVAL_RA_EVAL_H_
