#ifndef HQL_EVAL_MATERIALIZE_H_
#define HQL_EVAL_MATERIALIZE_H_

// The fast node-state builder behind opt/engine.h's Session (Example 2.2:
// materialize a hypothetical state once, answer many queries from it).

#include "ast/forward.h"
#include "common/result.h"
#include "eval/physical_policy.h"
#include "storage/database.h"

namespace hql {

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
