#include "eval/filter3.h"

#include <map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/governor.h"
#include "eval/delta_ops.h"
#include "hql/enf.h"
#include "hql/ra_rewrite.h"

namespace hql {

namespace {

Result<RelationView> F3(const CollapsedPtr& node, const Database& db,
                        const DeltaValue& env, const PhysicalPolicy& policy) {
  HQL_RETURN_IF_ERROR(GovernorCheck());
  if (node->kind == CollapsedKind::kBlock) {
    std::map<std::string, RelationView> temps;
    for (size_t i = 0; i < node->holes.size(); ++i) {
      HQL_ASSIGN_OR_RETURN(RelationView hole,
                           F3(node->holes[i], db, env, policy));
      temps.emplace(PlaceholderName(i), std::move(hole));
    }
    return EvalFilterDView(node->block, db, env, &temps, policy);
  }
  // kWhen.
  if (!node->state_is_update) {
    // Explicit substitution: build the *precise* delta of Section 5.5 that
    // captures the substitution's xsub-value in the current hypothetical
    // state — R_D = base - V, R_I = V - base — and smash it on. Parallel
    // assignment: all binding values evaluate under the incoming delta.
    std::vector<std::pair<std::string, RelationView>> values;
    values.reserve(node->bindings.size());
    for (const CollapsedBinding& b : node->bindings) {
      HQL_ASSIGN_OR_RETURN(RelationView v,
                           F3(b.value, db, env, policy));
      values.emplace_back(b.rel_name, std::move(v));
    }
    DeltaValue precise;
    for (auto& [name, value] : values) {
      // The current hypothetical content of `name` as an overlay view —
      // the base is only probed, never copied.
      HQL_ASSIGN_OR_RETURN(RelationView stored, db.GetView(name));
      const DeltaPair* p = env.Get(name);
      RelationView cur = p == nullptr
                             ? stored
                             : stored.ApplyDelta(p->ins.tuples(),
                                                 p->del.tuples());
      precise.Bind(name, DeltaPair(ViewDifference(cur, value),
                                   ViewDifference(value, cur)));
    }
    return F3(node->input, db, env.SmashWith(precise), policy);
  }
  // Accumulate the atoms' delta left to right (Figure 4's smash chain).
  DeltaValue acc;
  for (const CollapsedAtom& atom : node->atoms) {
    DeltaValue current = env.SmashWith(acc);
    HQL_ASSIGN_OR_RETURN(RelationView value_view,
                         F3(atom.arg, db, current, policy));
    Relation value = value_view.Materialize();
    size_t arity = value.arity();
    DeltaValue atom_delta;
    if (atom.is_insert) {
      atom_delta.Bind(atom.rel_name,
                      DeltaPair(Relation(arity), std::move(value)));
    } else {
      atom_delta.Bind(atom.rel_name,
                      DeltaPair(std::move(value), Relation(arity)));
    }
    acc = acc.SmashWith(atom_delta);
  }
  return F3(node->input, db, env.SmashWith(acc), policy);
}

}  // namespace

Result<Relation> RunFilter3(const QueryPtr& query, const Database& db,
                            const Schema& schema,
                            const Filter3Options& options) {
  CollapsedPtr tree = options.collapsed;
  if (tree == nullptr) {
    if (query == nullptr) {
      return Status::InvalidArgument("Filter3: query must not be null");
    }
    // Prefer mod-ENF (states stay as atomic chains whose deltas are exactly
    // the inserted/deleted sets); fall back to ENF with precise deltas when
    // the query contains explicit substitutions or conditionals.
    QueryPtr normalized;
    auto mod = ToModEnf(query, schema);
    if (mod.ok()) {
      normalized = std::move(mod).value();
    } else if (mod.status().code() == StatusCode::kUnimplemented) {
      HQL_ASSIGN_OR_RETURN(normalized, ToEnf(query, schema));
    } else {
      return mod.status();
    }
    // Give the equational theory a shot at every pure region before
    // collapsing — in particular sigma[$i = $j](R x S) inside a block
    // becomes a join, so the delta kernels never materialize the cross
    // product (the same rewrite the lazy and hybrid routes already get).
    HQL_ASSIGN_OR_RETURN(normalized, SimplifyMixed(normalized, schema));
    HQL_ASSIGN_OR_RETURN(tree, Collapse(normalized, schema));
  }
  const DeltaValue empty;
  HQL_ASSIGN_OR_RETURN(
      RelationView out,
      F3(tree, db, options.env != nullptr ? *options.env : empty,
         options.policy));
  HQL_RETURN_IF_ERROR(GovernorCheck());
  return out.Materialize();
}

}  // namespace hql
