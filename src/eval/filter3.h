#ifndef HQL_EVAL_FILTER3_H_
#define HQL_EVAL_FILTER3_H_

// Algorithm HQL-3 (paper Section 5.5, Figure 4): evaluates a collapsed
// mod-ENF tree using delta values instead of xsub-values. Hypothetical
// states appear as chains of atomic inserts/deletes; each atom's argument
// is evaluated under the accumulated delta and contributes an (I, D)
// fragment, smashed left to right:
//
//   filter3({del(R,Q)}, D)  = {(filter3(Q, D), 0)/R}
//   filter3({ins(R,Q)}, D)  = {(0, filter3(Q, D))/R}
//   filter3({U; A}, D)      = filter3({U}, D) !
//                             filter3({A}, D ! filter3({U}, D))
//   filter3(Q when {U}, D)  = filter3(Q, D ! filter3({U}, D))
//
// Pure-RA blocks are evaluated with eval_filter_d, whose join-when /
// select-when operators stream the deltas instead of materializing
// hypothetical relations — the source of the Section 5.5 performance gain
// for small updates.

#include "ast/forward.h"
#include "common/result.h"
#include "eval/delta.h"
#include "eval/physical_policy.h"
#include "hql/collapse.h"
#include "storage/database.h"

namespace hql {

/// Options for RunFilter3 — the single HQL-3 entry point.
struct Filter3Options {
  /// Explicit delta environment (tests / recursive callers); null = empty.
  /// Caller-owned; must outlive the call.
  const DeltaValue* env = nullptr;
  /// Already collapsed mod-ENF tree. When set, `query` is ignored and the
  /// normalize + Collapse step is skipped.
  CollapsedPtr collapsed;
  /// Index and columnar policy for the RA blocks (default off).
  PhysicalPolicy policy;
};

/// Evaluates `query` in `db` with algorithm HQL-3: converts to mod-ENF
/// (preferred: atom arguments become the delta sets directly) or, when the
/// query contains explicit substitutions, to ENF — whose substitutions are
/// then captured by the *precise* deltas of Section 5.5 (R_D = base - V,
/// R_I = V - base); collapses and evaluates with delta-streaming operators.
/// Total over all of HQL.
Result<Relation> RunFilter3(const QueryPtr& query, const Database& db,
                            const Schema& schema,
                            const Filter3Options& options = {});

}  // namespace hql

#endif  // HQL_EVAL_FILTER3_H_
