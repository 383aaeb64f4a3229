#ifndef HQL_EVAL_MATERIALIZE_H_
#define HQL_EVAL_MATERIALIZE_H_

// Materialization of hypothetical states for reuse across query families
// (Examples 2.2(a)/(b)): turn any hypothetical-state expression into a
// physical xsub-value or delta value once, then filter arbitrarily many
// queries through it with RunFilter1/2/3 and an explicit options env.
// This is the library-level form of what the E1/E2
// benchmarks and the version-tree example do by hand.

#include "ast/forward.h"
#include "common/result.h"
#include "eval/delta.h"
#include "eval/memo.h"
#include "eval/physical_policy.h"
#include "eval/xsub.h"
#include "storage/database.h"
#include "storage/schema.h"

namespace hql {

/// [eta]xval(DB): the xsub-value of `state` in `db` — one relation value
/// per name in dom(eta). Arbitrary states (updates, substitutions,
/// compositions, state-level when) are supported. A non-null `memo` caches
/// the written relations of every sub-state along composition chains, so
/// sibling alternatives of a version tree (state = shared-prefix #
/// leaf-edge) materialize the shared prefix once.
Result<XsubValue> MaterializeXsub(const HypoExprPtr& state,
                                  const Database& db, const Schema& schema,
                                  MemoCache* memo = nullptr);

/// The precise delta (Section 5.5) capturing `state` in `db`:
/// R_D = DB(R) − V, R_I = V − DB(R) for each written name. Satisfies
/// apply(DB, delta) == apply(DB, xsub) and is small when the state changes
/// little. `memo` as in MaterializeXsub.
Result<DeltaValue> MaterializeDelta(const HypoExprPtr& state,
                                    const Database& db,
                                    const Schema& schema,
                                    MemoCache* memo = nullptr);

/// [eta](DB) with per-sub-state memoization: composition chains evaluate
/// left to right (Lemma 3.6), and each non-compose sub-state's written
/// relations are cached under (sub-state hash, database fingerprint). With
/// a null `memo` this is exactly EvalState (eval/direct.h).
Result<Database> EvalStateMemo(const HypoExprPtr& state, const Database& db,
                               MemoCache* memo);

/// [eta](DB) as a reusable state: the copy-on-write database a scenario
/// node caches and serves every later query from (Example 2.2). Same
/// content as EvalState, built for small edges over large relations:
/// update arguments and conditional guards that are pure RA run through
/// EvalRa over `db`'s views, so a scan streams the overlay instead of
/// copying the relation and `policy`'s index and columnar kernels apply;
/// each written relation becomes an O(|argument|) overlay on its parent
/// view. Arguments with a nested `when`, substitutions and state-level
/// `when` fall back to EvalState. Kernels stop early when the ambient
/// governor trips, so callers that cache the result must GovernorCheck()
/// first.
Result<Database> MaterializeState(const HypoExprPtr& state, const Database& db,
                                  const PhysicalPolicy& policy);

}  // namespace hql

#endif  // HQL_EVAL_MATERIALIZE_H_
