#include "workloads.h"

#include <algorithm>
#include <set>
#include <utility>

#include "ast/typecheck.h"
#include "common/rng.h"
#include "opt/planner.h"
#include "parser/parser.h"
#include "server/wire.h"
#include "storage/relation.h"

namespace wirebench {

namespace {

using hql::Rng;

std::string I(int64_t v) { return std::to_string(v); }

int64_t U(Rng* rng, int64_t lo, int64_t hi) { return rng->Uniform(lo, hi); }

// The base every workload queries, at a workload-specific size n:
//   R(k, f, v)  k = 0..n-1, f a zipf(0.8) foreign key into S.k,
//               v uniform in [0, 10000)
//   S(k, g, w)  k = 0..n-1, g a zipf(1.0) group key in [0, 1000),
//               w uniform in [0, 10000)
//   T(k, c)     k = 0..n-1, c uniform in [0, 1000)
// Unique keys keep R join S a foreign-key join (output <= |R|) while the
// zipf columns skew the join fan-in and the group sizes.
hql::Database MakeBase(Rng* rng, int64_t n) {
  hql::Schema schema;
  (void)schema.AddRelation("R", 3);
  (void)schema.AddRelation("S", 3);
  (void)schema.AddRelation("T", 2);
  hql::Database db(schema);
  auto Int = [](int64_t v) { return hql::Value::Int(v); };
  std::vector<hql::Tuple> r, s, t;
  for (int64_t k = 0; k < n; ++k) {
    r.push_back({Int(k), Int(rng->Zipf(n, 0.8)), Int(U(rng, 0, 9999))});
  }
  for (int64_t k = 0; k < n; ++k) {
    s.push_back({Int(k), Int(rng->Zipf(1000, 1.0)), Int(U(rng, 0, 9999))});
  }
  for (int64_t k = 0; k < n; ++k) t.push_back({Int(k), Int(U(rng, 0, 999))});
  (void)db.Set("R", hql::Relation::FromSortedUnique(3, std::move(r)));
  (void)db.Set("S", hql::Relation::FromSortedUnique(3, std::move(s)));
  (void)db.Set("T", hql::Relation::FromSortedUnique(2, std::move(t)));
  return db;
}

// A small scenario edge over a base of size n (n >= 21): 1-20 tuples of
// ins/del. Kind 2 is conditional, which has no mod-ENF form and so takes
// the planner off the delta route.
std::string SmallEdge(Rng* rng, int kind, int64_t n) {
  switch (kind % 3) {
    case 0: {
      int64_t a = U(rng, 0, n - 21);
      return "{del(R, sigma[$0 >= " + I(a) + " and $0 < " +
             I(a + U(rng, 1, 20)) + "](R))}";
    }
    case 1: {
      std::string edge = "{";
      int64_t count = U(rng, 1, 3);
      for (int64_t i = 0; i < count; ++i) {
        if (i > 0) edge += "; ";
        edge += "ins(R, {(" + I(n + U(rng, 0, 999999)) + ", " +
                I(U(rng, 0, n - 1)) + ", " + I(U(rng, 0, 9999)) + ")})";
      }
      return edge + "}";
    }
    default: {
      int64_t a = U(rng, 0, 2 * n);
      return "{if sigma[$0 = " + I(a) + "](S) then {del(S, sigma[$0 = " +
             I(a) + "](S))} else {ins(S, {(" + I(a) + ", " +
             I(U(rng, 0, 999)) + ", " + I(U(rng, 0, 9999)) + ")})}}";
    }
  }
}

// `sigma` over R's unique key: exactly `width` tuples (fewer under edits).
std::string KeyRange(Rng* rng, int64_t n, int64_t width) {
  int64_t a = U(rng, 0, n - width);
  return "sigma[$0 >= " + I(a) + " and $0 < " + I(a + width) + "](R)";
}

// Appends requests to one connection's script, mirroring the session's
// tree so that every line is valid and each read gets its class.
class ScriptBuilder {
 public:
  size_t size() const { return script_.size(); }
  const ScenarioTree& tree() const { return tree_; }
  Script Take() { return std::move(script_); }

  void Derive(const std::string& parent, const std::string& child,
              const std::string& edge) {
    (void)tree_.Derive(parent, child, edge);
    Add(ReqClass::kWrite, "derive " + parent + " " + child + " " + edge);
  }
  void Edit(const std::string& node, const std::string& edge) {
    (void)tree_.Edit(node, edge);
    for (const std::string& n : tree_.NonRoot()) {
      if (tree_.IsAncestorOrSelf(node, n)) dirty_.insert(n);
    }
    Add(ReqClass::kWrite, "edit " + node + " " + edge);
  }
  void Drop(const std::string& node) {
    std::vector<std::string> gone = tree_.Drop(node).value();
    for (const std::string& name : gone) dirty_.erase(name);
    Add(ReqClass::kWrite, "drop " + node);
  }
  void Query(const std::string& node, const std::string& query) {
    Add(Settle(node, node), "query " + node + " " + query);
  }
  void Compare(const std::string& a, const std::string& b,
               const std::string& query) {
    Add(Settle(a, b), "compare " + a + " " + b + " " + query);
  }
  void Fetch(const std::string& node, const std::string& query) {
    Add(ReqClass::kFetch, "fetch " + node + " " + query);
  }
  void Other(const std::string& request) { Add(ReqClass::kOther, request); }
  /// Drops every top-level node: the tree is back at the bare root.
  void Reset() {
    for (const std::string& child : tree_.Children("root")) Drop(child);
  }

 private:
  // A read at a node whose state an edit changed since it was last read
  // is a re-ask; reading settles it.
  ReqClass Settle(const std::string& a, const std::string& b) {
    bool reask = dirty_.erase(a) > 0;
    reask = dirty_.erase(b) > 0 || reask;
    return reask ? ReqClass::kReask : ReqClass::kRead;
  }
  void Add(ReqClass cls, std::string request) {
    script_.push_back(ScriptLine{cls, std::move(request)});
  }

  Script script_;
  ScenarioTree tree_;
  std::set<std::string> dirty_;
};

// `lo <= col < lo + width` over a column uniform in [0, 10000): the
// selectivity is fixed by `width`, the offset keeps the query text fresh.
std::string Band(Rng* rng, int col, int64_t width) {
  int64_t lo = U(rng, 0, 10000 - width);
  return "$" + I(col) + " >= " + I(lo) + " and $" + I(col) + " < " +
         I(lo + width);
}

// A query template: fresh literals, fixed selectivity.
using Template = std::string (*)(Rng*);

// scan_join: 3 x 200k tuples, 2 connections. Reads scan and join the
// whole base but keep 1-2% of it, so they cost milliseconds of kernel,
// storage and encoding work while parse, rewrite and plan are noise (and
// results stay small: the memo keeps every one). Each cycle holds 9 reads
// (8 at the root, one at a fixed, never-edited node; one repeats an
// earlier query, the others carry fresh literals) and one fetch of
// 100-10000 tuples; every third cycle also edits a scratch node and
// re-asks there. Writes stay rare because each new state of a 200k-tuple
// relation can cost the server a consolidated copy.
Generated GenScanJoin(uint64_t seed, bool tiny) {
  const int64_t n = tiny ? 2000 : 200000;
  const size_t min_lines = tiny ? 120 : 4000;
  Rng rng(seed);
  Generated gen{MakeBase(&rng, n), {}, {}};

  const std::vector<Template> templates = {
      [](Rng* r) { return "sigma[" + Band(r, 2, 100) + "](R)"; },
      [](Rng* r) { return "pi[1](sigma[" + Band(r, 2, 100) + "](R))"; },
      [](Rng* r) {
        return "sigma[" + Band(r, 2, 100) + "](R) join[$1 = $3] S";
      },
      [](Rng* r) {
        return "gamma[1; sum(2)](sigma[" + Band(r, 2, 200) + "](S))";
      },
      [](Rng* r) {
        return "gamma[4; count(0)](sigma[" + Band(r, 2, 100) +
               "](R) join[$1 = $3] S)";
      },
      [](Rng* r) {
        return "sigma[" + Band(r, 2, 100) + "](S) join[$1 = $3] T";
      },
      [](Rng* r) { return "pi[0, 2](sigma[" + Band(r, 2, 100) + "](R))"; },
  };
  for (Template t : templates) gen.checks.push_back(t(&rng));
  const int64_t fetch_widths[] = {100, 316, 1000, 3162, 10000};

  for (int c = 0; c < 2; ++c) {
    Rng crng(rng.Next());
    ScriptBuilder b;
    b.Derive("root", "n1", "{del(R, sigma[" + Band(&crng, 2, 40) + "](R))}");
    std::string ins = "{";
    for (int64_t i = 0; i < 5; ++i) {
      if (i > 0) ins += "; ";
      ins += "ins(S, {(" + I(n + i) + ", " + I(U(&crng, 0, 999)) + ", " +
             I(U(&crng, 0, 9999)) + ")})";
    }
    b.Derive("root", "n2", ins + "}");
    b.Derive("n1", "n3", "{del(S, sigma[" + Band(&crng, 2, 20) + "](S))}");
    b.Derive("root", "x", SmallEdge(&crng, 0, n));
    const std::vector<std::string> fixed = {"n1", "n2", "n3"};
    std::string previous = templates[0](&crng);
    for (int cycle = 0; b.size() < min_lines; ++cycle) {
      std::string first = templates[0](&crng);
      b.Query("root", first);
      b.Query("root", templates[2](&crng));
      b.Fetch("root",
              KeyRange(&crng, n, std::min(n / 5, fetch_widths[cycle % 5])));
      b.Query("root", templates[1](&crng));
      b.Query("root", previous);
      b.Query("root", templates[3](&crng));
      if (cycle % 3 == 0) {
        b.Edit("x", SmallEdge(&crng, 0, n));
        b.Query("x", templates[2](&crng));
      }
      b.Query("root", templates[4](&crng));
      b.Query(fixed[static_cast<size_t>(cycle) % 3], templates[0](&crng));
      b.Query("root", templates[5](&crng));
      b.Query("root", templates[6](&crng));
      previous = first;
    }
    b.Reset();
    gen.scripts.push_back(b.Take());
  }
  return gen;
}

// Hybrid evaluation under a path of conditional updates grows
// exponentially with their number and falls off a cliff at six (a
// gamma-join at such a node: 0.16 s under five, over 120 s under six,
// 20 ms under direct semantics). Until that is fixed, no path in the
// scripts holds more than this many; see README.md.
constexpr int kMaxConditionalsOnPath = 4;

bool IsConditional(const std::string& edge) { return edge.rfind("{if ", 0) == 0; }

// The SmallEdge kind for the edge of `node` (below `parent`) in loop
// `loop`: kind loop % 3, except that a conditional edge is replaced by a
// plain one when some path through `node` would exceed the cap.
int EdgeKind(const ScenarioTree& tree, const std::string& node,
             const std::string& parent, int loop) {
  if (loop % 3 != 2) return loop % 3;
  int above = 0;
  for (const std::string& e : tree.PathEdges(parent)) above += IsConditional(e);
  int below = 0;  // most conditionals strictly below `node` on one path
  if (tree.Has(node)) {
    const int at = static_cast<int>(tree.PathEdges(node).size());
    for (const std::string& x : tree.NonRoot()) {
      if (x == node || !tree.IsAncestorOrSelf(node, x)) continue;
      std::vector<std::string> path = tree.PathEdges(x);
      int count = 0;
      for (size_t i = static_cast<size_t>(at); i < path.size(); ++i) {
        count += IsConditional(path[i]);
      }
      below = std::max(below, count);
    }
  }
  return above + 1 + below <= kMaxConditionalsOnPath ? 2 : loop % 2;
}

// whatif_edit: 3 x 10k tuples, 4 connections. Connection c grows its own
// tree of 16 + 4c nodes — a spine of depth 7 with the other nodes hung
// round robin below it as leaves (depth <= 8) — and loops: derive the
// next missing node or edit one by a small edge, re-ask the connection's
// analysis query there, compare the node with a sibling (else its
// parent); every 4th loop fetches a key range there and every 16th drops
// a leaf, which a later loop derives again. Every read lands on a freshly
// changed state, which is what state materialization, the delta route,
// incremental patching and memo invalidation are for.
Generated GenWhatifEdit(uint64_t seed, bool tiny) {
  const int64_t n = tiny ? 500 : 10000;
  const size_t min_lines = tiny ? 150 : 8000;
  const int spine = tiny ? 3 : 7;
  Rng rng(seed);
  Generated gen{MakeBase(&rng, n), {}, {}};

  const std::vector<Template> templates = {
      [](Rng* r) {
        return "sigma[" + Band(r, 2, 400) + "](R) join[$1 = $3] S";
      },
      [](Rng* r) {
        return "gamma[4; count(0)](sigma[" + Band(r, 2, 600) +
               "](R) join[$1 = $3] S)";
      },
      [](Rng* r) { return "pi[1](sigma[" + Band(r, 2, 800) + "](R))"; },
      [](Rng* r) {
        return "gamma[1; sum(2)](sigma[" + Band(r, 2, 800) + "](S))";
      },
      [](Rng* r) {
        return "sigma[" + Band(r, 2, 500) + "](S) join[$1 = $3] T";
      },
  };
  for (Template t : templates) gen.checks.push_back(t(&rng));
  const int64_t fetch_widths[] = {50, 100, 200, 400, 800};

  for (int c = 0; c < 4; ++c) {
    Rng crng(rng.Next());
    ScriptBuilder b;
    const int size = tiny ? 6 + c : 16 + 4 * c;
    auto name = [c](int i) { return "c" + I(c) + "n" + I(i); };
    auto parent = [&](int i) {
      if (i == 0) return std::string("root");
      return name(i < spine ? i - 1 : (i - spine) % spine);
    };
    std::string focus;
    for (int loop = 0; b.size() < min_lines; ++loop) {
      if (loop % 8 == 0) {
        focus = templates[static_cast<size_t>(loop / 8 + c) % 5](&crng);
      }
      std::string node;
      int missing = 0;
      while (missing < size && b.tree().Has(name(missing))) ++missing;
      if (loop % 16 == 15 && missing == size) {
        const std::string leaf = name(spine + (loop / 16) % (size - spine));
        node = b.tree().Parent(leaf);
        b.Drop(leaf);
      } else if (missing < size) {
        node = name(missing);
        b.Derive(parent(missing), node,
                 SmallEdge(&crng, EdgeKind(b.tree(), node, parent(missing), loop), n));
      } else {
        node = name((loop * 11) % size);
        b.Edit(node, SmallEdge(&crng, EdgeKind(b.tree(), node, b.tree().Parent(node), loop), n));
      }
      b.Query(node, focus);
      std::vector<std::string> peers;
      if (node != "root") {
        for (const std::string& x : b.tree().Children(b.tree().Parent(node))) {
          if (x != node) peers.push_back(x);
        }
        if (peers.empty()) peers.push_back(b.tree().Parent(node));
      } else {
        peers = b.tree().Children("root");
      }
      if (!peers.empty()) b.Compare(node, peers.front(), focus);
      if (loop % 4 == 3) {
        b.Fetch(node, KeyRange(&crng, n,
                               std::min(n / 5, fetch_widths[(loop / 4) % 5])));
      }
    }
    b.Reset();
    gen.scripts.push_back(b.Take());
  }
  return gen;
}

// One atomic update inside a `when` chain or a composition.
std::string SmallAtom(Rng* rng, int kind, int64_t n) {
  switch (kind % 4) {
    case 0:
      return "ins(R, {(" + I(n + U(rng, 0, 999)) + ", " + I(U(rng, 0, n - 1)) +
             ", " + I(U(rng, 0, 9999)) + ")})";
    case 1:
      return "del(R, sigma[$0 = " + I(U(rng, 0, n - 1)) + "](R))";
    case 2:
      return "ins(S, {(" + I(n + U(rng, 0, 999)) + ", " + I(U(rng, 0, 999)) +
             ", " + I(U(rng, 0, 9999)) + ")})";
    default:
      return "del(S, sigma[" + Band(rng, 2, 150) + "](S))";
  }
}

// chatty_small: 3 x 400 tuples, 4 connections. Kernel work is
// negligible, so parsing, red/ENF/collapse rewriting, planning, dispatch,
// JSON encoding and the socket round trip set the latency. Queries come
// from a finite pool of when-chains of depth 1-8, #-compositions and
// Example 2.4 substitution chains (depth <= 5: a lazy blow-up of at most
// 32x, which the governor admits); sessions replay twelve fixed episodes
// each (derive a chain of depth 1-10, read along it, compare, list nodes,
// fetch, edit and re-ask, drop), round robin. Which pool entry lands in
// which slot is fixed; the seed only changes literals. Each episode has
// one re-ask and one fetch, whose costs depend on those literals, so the
// twelve episodes keep their medians from hanging on a few of them.
Generated GenChattySmall(uint64_t seed, bool tiny) {
  const int64_t n = tiny ? 60 : 400;
  const size_t min_lines = tiny ? 150 : 20000;
  Rng rng(seed);
  Generated gen{MakeBase(&rng, n), {}, {}};

  std::vector<std::string> bases = {
      "sigma[" + Band(&rng, 2, 3000) + "](R)",
      "pi[0](R) - pi[0](sigma[" + Band(&rng, 2, 5000) + "](S))",
      "sigma[" + Band(&rng, 2, 3000) + "](R) join[$1 = $3] S",
      "gamma[1; count(0)](S)",
      "pi[1](R) union pi[0](T)",
  };
  std::vector<std::string>& pool = gen.checks;
  for (const std::string& base : bases) pool.push_back(base);
  for (int depth = 1; depth <= 8; ++depth) {
    for (int variant = 0; variant < 2; ++variant) {
      std::string q = bases[static_cast<size_t>(depth + variant) % 5];
      for (int i = 0; i < depth; ++i) {
        q += " when {" + SmallAtom(&rng, i + variant, n) + "}";
      }
      pool.push_back(q);
    }
  }
  for (int depth = 2; depth <= 6; ++depth) {
    for (int variant = 0; variant < 2; ++variant) {
      std::string state;
      for (int i = 0; i < depth; ++i) {
        if (i > 0) state += " # ";
        state += "{" + SmallAtom(&rng, i + variant + 1, n) + "}";
      }
      pool.push_back(bases[static_cast<size_t>(depth + variant + 2) % 5] +
                     " when (" + state + ")");
    }
  }
  for (int depth = 1; depth <= 5; ++depth) {
    for (int variant = 0; variant < 2; ++variant) {
      int64_t lo = U(&rng, 0, n - n / 4);
      std::string q = "sigma[$0 >= " + I(lo) + " and $0 < " + I(lo + n / 4) +
                      "](R)";
      for (int i = 0; i < depth; ++i) {
        q += " when {sigma[" + Band(&rng, 2, 2500) + "](R) union sigma[" +
             Band(&rng, 2, 2500) + "](R)/R}";
      }
      pool.push_back(q);
    }
  }

  for (int c = 0; c < 4; ++c) {
    Rng crng(rng.Next());
    struct Episode {
      std::vector<std::string> edges;  // chain e1..eD
      std::vector<std::string> reads;  // 4 queries, the compare, the re-ask
      std::string fetch;
      std::string edit;
      size_t edited = 0;
    };
    std::vector<Episode> episodes;
    for (int v = 0; v < 12; ++v) {
      Episode e;
      const int depth = 1 + (v * 7 + c * 3) % 10;
      for (int i = 0; i < depth; ++i) e.edges.push_back(SmallEdge(&crng, i, n));
      for (int i = 0; i < 6; ++i) {
        e.reads.push_back(pool[static_cast<size_t>(v * 7 + c * 5 + i * 11) %
                               pool.size()]);
      }
      e.fetch = "sigma[" + Band(&crng, 2, 5000) + "](R)";
      e.edited = static_cast<size_t>(depth / 2);
      e.edit = SmallEdge(&crng, v, n);
      episodes.push_back(std::move(e));
    }
    ScriptBuilder b;
    for (size_t k = 0; b.size() < min_lines; ++k) {
      const Episode& e = episodes[k % episodes.size()];
      const size_t depth = e.edges.size();
      auto name = [](size_t i) { return "e" + I(static_cast<int64_t>(i + 1)); };
      for (size_t i = 0; i < depth; ++i) {
        b.Derive(i == 0 ? "root" : name(i - 1), name(i), e.edges[i]);
      }
      for (size_t i = 0; i < 4; ++i) b.Query(name(i * depth / 4), e.reads[i]);
      b.Compare(name(depth - 1), depth > 1 ? name(0) : "root", e.reads[4]);
      b.Other("nodes");
      b.Fetch(name(depth - 1), e.fetch);
      b.Edit(name(e.edited), e.edit);
      b.Query(name(depth - 1), e.reads[5]);
      b.Reset();
    }
    gen.scripts.push_back(b.Take());
  }
  return gen;
}

}  // namespace

const std::vector<WorkloadInfo>& Workloads() {
  static const std::vector<WorkloadInfo> kWorkloads = {
      {"scan_join",
       "3 relations x 200k tuples with zipf keys: every read scans or joins "
       "the whole base, milliseconds of kernel, storage and encoding work "
       "beside which parse, rewrite and plan are under 1%"},
      {"whatif_edit",
       "3 relations x 10k tuples: a state or a join costs milliseconds and "
       "every read lands on a freshly edited state; at 20k the memo's "
       "per-state copies take the server past 3.5 GB in one window"},
      {"chatty_small",
       "3 relations x 400 tuples: kernel work is negligible, so the fixed "
       "per-request costs (parse, rewrite, plan, dispatch, JSON, socket) "
       "set the latency"},
  };
  return kWorkloads;
}

const WorkloadInfo* FindWorkload(const std::string& name) {
  for (const WorkloadInfo& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

hql::Result<Generated> Generate(const std::string& workload, uint64_t seed,
                                bool tiny) {
  if (workload == "scan_join") return GenScanJoin(seed, tiny);
  if (workload == "whatif_edit") return GenWhatifEdit(seed, tiny);
  if (workload == "chatty_small") return GenChattySmall(seed, tiny);
  return hql::Status::InvalidArgument("unknown workload " + workload);
}

hql::Status CheckGenerated(const Generated& gen) {
  const hql::Schema& schema = gen.base.schema();
  std::set<std::string> checked;
  auto check_query = [&](const std::string& text) -> hql::Status {
    if (!checked.insert("q " + text).second) return hql::Status::OK();
    HQL_ASSIGN_OR_RETURN(hql::QueryPtr q, hql::ParseQuery(text));
    return hql::InferQueryArity(q, schema).status();
  };
  auto check_edge = [&](const std::string& text) -> hql::Status {
    if (!checked.insert("e " + text).second) return hql::Status::OK();
    HQL_ASSIGN_OR_RETURN(hql::HypoExprPtr edge, hql::ParseHypo(text));
    return hql::CheckHypo(edge, schema);
  };
  for (const Script& script : gen.scripts) {
    ScenarioTree tree;
    for (const ScriptLine& line : script) {
      HQL_ASSIGN_OR_RETURN(hql::WireRequest req,
                           hql::ParseWireRequest(line.request));
      hql::Status st;
      if (req.op == "derive" || req.op == "edit") {
        st = check_edge(req.tail);
      } else if (req.op == "query" || req.op == "fetch" ||
                 req.op == "compare") {
        st = check_query(req.tail);
        for (const std::string& node : req.args) {
          if (!tree.Has(node)) st = hql::Status::NotFound("no node " + node);
        }
      }
      if (st.ok()) st = ApplyWrite(line.request, &tree);
      if (!st.ok()) {
        return hql::Status::InvalidArgument("bad script line '" +
                                            line.request + "': " +
                                            st.ToString());
      }
    }
    if (!tree.NonRoot().empty()) {
      return hql::Status::InvalidArgument("script does not end at the root");
    }
  }
  for (const std::string& text : gen.checks) {
    HQL_ASSIGN_OR_RETURN(hql::QueryPtr q, hql::ParseQuery(text));
    hql::Result<hql::Relation> out =
        hql::Execute(q, gen.base, schema, hql::Strategy::kDirect);
    if (!out.ok()) {
      return hql::Status::InvalidArgument("pool query '" + text +
                                          "' fails on the base: " +
                                          out.status().ToString());
    }
  }
  return hql::Status::OK();
}

}  // namespace wirebench
