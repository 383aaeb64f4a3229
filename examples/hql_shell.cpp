// hql_shell: an interactive REPL over the hql::Engine / hql::Session
// facade — the same API the network server (hql_serve) and the stress
// driver's --connect mode sit on.
//
//   $ ./examples/hql_shell
//   hql> \schema emp 2
//   hql> \gen emp 1000 500
//   hql> \derive root layoffs {del(emp, sigma[$0 < 100](emp))}
//   hql> \at layoffs
//   hql> gamma[1; count(0)](emp)
//   ...
//
// Commands:
//   \schema NAME ARITY      declare a relation
//   \load NAME (v,..) ...   insert literal rows
//   \gen NAME ROWS DOMAIN   fill with random int rows (col 0 in [0,DOMAIN))
//   \apply UPDATE           commit an update to the real state
//   \derive PARENT CHILD {UPD; ...}   add a scenario below PARENT
//   \edit NODE {UPD; ...}   replace NODE's hypothetical edge
//   \drop NODE              drop NODE and its subtree
//   \nodes                  list the scenario tree
//   \at [NODE]              run subsequent queries at NODE (default root)
//   \compare A B QUERY      (QUERY at A) - (QUERY at B)
//   \set [KNOB VALUE]       engine knob by name (`\set profile fast`,
//                           `\set columnar auto`); bare \set lists them all
//   \explain QUERY          show the lazy rewrite and the hybrid plan
//   \analyze QUERY          EXPLAIN ANALYZE at the current node
//   \stats                  this session's accumulated ExecStats (JSON)
//   \db [NODE]              print the base (or NODE's hypothetical state)
//   \save FILE  \open FILE  persist / restore the database
//   \whatif STATE           open a what-if scenario (queries run there);
//                           \endwhatif returns to the previous node
//   \time on|off            toggle per-query timing
//   \help, \quit
// Anything else is parsed as an HQL query and evaluated at the current
// scenario node ("Q when {...}" still works anywhere).

#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ast/query.h"
#include "ast/typecheck.h"
#include "common/rng.h"
#include "eval/simd.h"
#include "opt/engine.h"
#include "opt/explain.h"
#include "parser/parser.h"
#include "storage/database.h"
#include "storage/io.h"
#include "workload/generators.h"

namespace {

using namespace hql;  // NOLINT

struct ShellState {
  Engine engine{Schema()};
  SessionPtr session;
  std::string current = "root";  // node queries run at (\at)
  std::string whatif_return;     // node to restore on \endwhatif
  bool timing = true;
  Rng rng{20260704};

  ShellState() { session = engine.CreateSession("shell").value(); }

  // The engine's base (or schema) changed: re-open the session so the
  // snapshot tracks the committed state, dropping any scenario tree.
  void ReopenSession() {
    session.reset();  // release the admission slot first
    session = engine.CreateSession("shell").value();
    current = "root";
    whatif_return.clear();
  }
};

void PrintRelation(const Relation& r, size_t limit = 20) {
  size_t shown = 0;
  for (const Tuple& t : r) {
    if (shown++ >= limit) {
      std::printf("  ... (%zu more)\n", r.size() - limit);
      break;
    }
    std::printf("  %s\n", TupleToString(t).c_str());
  }
  std::printf("(%zu tuple%s)\n", r.size(), r.size() == 1 ? "" : "s");
}

void Help() {
  std::printf(
      "commands:\n"
      "  \\schema NAME ARITY      declare a relation\n"
      "  \\load NAME (v,..) ...   insert literal rows\n"
      "  \\gen NAME ROWS DOMAIN   fill with random rows\n"
      "  \\apply UPDATE           commit an update\n"
      "  \\derive PARENT CHILD {UPD; ...}   add a scenario\n"
      "  \\edit NODE {UPD; ...}   replace a scenario's edge\n"
      "  \\drop NODE              drop a scenario subtree\n"
      "  \\nodes                  list the scenario tree\n"
      "  \\at [NODE]              query at NODE (default root)\n"
      "  \\compare A B QUERY      (QUERY at A) - (QUERY at B)\n"
      "  \\set [KNOB VALUE]       tune one engine knob; bare \\set lists\n"
      "                          them (profile, strategy, columnar, ...)\n"
      "  \\explain QUERY          show rewrites and plan\n"
      "  \\analyze QUERY          run traced at the current node\n"
      "  \\stats                  session ExecStats as JSON\n"
      "  \\db [NODE]              print the base or a scenario state\n"
      "  \\save FILE  \\open FILE  persist / restore the database\n"
      "  \\whatif STATE           what-if scenario; \\endwhatif to close\n"
      "  \\time on|off            toggle timing\n"
      "  \\help  \\quit\n"
      "anything else: an HQL query, e.g.\n"
      "  sigma[$0 > 3](R) when {ins(R, S); del(S, R)}\n");
}

/// Parses the trailing "{...}" of a scenario command as a hypothetical
/// state and type-checks it against the engine schema.
Result<HypoExprPtr> ParseEdge(const ShellState& st, const std::string& text) {
  auto edge = ParseHypo(text);
  if (!edge.ok()) return edge.status();
  Status check = CheckHypo(edge.value(), st.engine.schema());
  if (!check.ok()) return check;
  return edge;
}

void HandleCommand(ShellState* st, const std::string& line) {
  std::istringstream in(line);
  std::string cmd;
  in >> cmd;
  if (cmd == "\\help") {
    Help();
  } else if (cmd == "\\schema") {
    std::string name;
    size_t arity = 0;
    in >> name >> arity;
    if (name.empty() || arity == 0) {
      std::printf("usage: \\schema NAME ARITY\n");
      return;
    }
    Status declared = st->engine.DeclareRelation(name, arity);
    if (!declared.ok()) {
      std::printf("error: %s\n", declared.ToString().c_str());
      return;
    }
    st->ReopenSession();
    std::printf("ok: %s/%zu\n", name.c_str(), arity);
  } else if (cmd == "\\gen") {
    std::string name;
    size_t rows = 0;
    int64_t domain = 0;
    in >> name >> rows >> domain;
    auto arity = st->engine.schema().ArityOf(name);
    if (!arity.ok() || rows == 0 || domain <= 0) {
      std::printf("usage: \\gen NAME ROWS DOMAIN (declared relation)\n");
      return;
    }
    Status set = st->engine.SetRelation(
        name, GenRelation(&st->rng, rows, arity.value(), domain, domain));
    if (set.ok()) st->ReopenSession();
    std::printf("%s\n", set.ok() ? "ok" : set.ToString().c_str());
  } else if (cmd == "\\load") {
    std::string name;
    in >> name;
    std::string rest;
    std::getline(in, rest);
    // Reuse the query parser: each "(v, ..)" is a singleton.
    std::vector<std::string> tuples;
    std::string cur;
    for (char c : rest) {
      cur.push_back(c);
      if (c == ')') {
        tuples.push_back(cur);
        cur.clear();
      }
    }
    if (tuples.empty()) {
      std::printf("usage: \\load NAME (v, ..) (v, ..) ...\n");
      return;
    }
    auto base = st->engine.Snapshot().Get(name);
    if (!base.ok()) {
      std::printf("error: %s\n", base.status().ToString().c_str());
      return;
    }
    Relation rel = base.value();
    for (const std::string& text : tuples) {
      auto q = ParseQuery("{" + text + "}");
      if (!q.ok() || q.value()->kind() != QueryKind::kSingleton ||
          q.value()->tuple().size() != rel.arity()) {
        std::printf("bad tuple: %s\n", text.c_str());
        return;
      }
      rel.Insert(q.value()->tuple());
    }
    Status set = st->engine.SetRelation(name, std::move(rel));
    if (set.ok()) st->ReopenSession();
    std::printf("%s\n", set.ok() ? "ok" : set.ToString().c_str());
  } else if (cmd == "\\apply") {
    std::string rest;
    std::getline(in, rest);
    auto u = ParseUpdate(rest);
    if (!u.ok()) {
      std::printf("parse error: %s\n", u.status().ToString().c_str());
      return;
    }
    Status applied = st->engine.Apply(u.value());
    if (!applied.ok()) {
      std::printf("error: %s\n", applied.ToString().c_str());
      return;
    }
    st->ReopenSession();
    std::printf("ok\n");
  } else if (cmd == "\\derive") {
    std::string parent, child;
    in >> parent >> child;
    std::string rest;
    std::getline(in, rest);
    if (parent.empty() || child.empty()) {
      std::printf("usage: \\derive PARENT CHILD {UPD; ...}\n");
      return;
    }
    auto edge = ParseEdge(*st, rest);
    if (!edge.ok()) {
      std::printf("error: %s\n", edge.status().ToString().c_str());
      return;
    }
    Status derived = st->session->Derive(parent, child, edge.value());
    std::printf("%s\n", derived.ok() ? "ok" : derived.ToString().c_str());
  } else if (cmd == "\\edit") {
    std::string node;
    in >> node;
    std::string rest;
    std::getline(in, rest);
    if (node.empty()) {
      std::printf("usage: \\edit NODE {UPD; ...}\n");
      return;
    }
    auto edge = ParseEdge(*st, rest);
    if (!edge.ok()) {
      std::printf("error: %s\n", edge.status().ToString().c_str());
      return;
    }
    Status edited = st->session->Edit(node, edge.value());
    std::printf("%s\n", edited.ok() ? "ok" : edited.ToString().c_str());
  } else if (cmd == "\\drop") {
    std::string node;
    in >> node;
    Status dropped = st->session->Drop(node);
    if (dropped.ok() && st->current == node) st->current = "root";
    std::printf("%s\n", dropped.ok() ? "ok" : dropped.ToString().c_str());
  } else if (cmd == "\\nodes") {
    for (const ScenarioInfo& info : st->session->Nodes()) {
      std::printf("  %s%s%s%s%s\n", info.name.c_str(),
                  info.parent.empty() ? "" : " <- ", info.parent.c_str(),
                  info.materialized ? " [materialized]" : "",
                  info.name == st->current ? " *" : "");
    }
  } else if (cmd == "\\at") {
    std::string node;
    in >> node;
    if (node.empty()) node = "root";
    // Probe the node by materializing its state.
    auto state = st->session->StateAt(node);
    if (!state.ok()) {
      std::printf("error: %s\n", state.status().ToString().c_str());
      return;
    }
    st->current = node;
    std::printf("queries now run at '%s'\n", node.c_str());
  } else if (cmd == "\\compare") {
    std::string a, b;
    in >> a >> b;
    std::string rest;
    std::getline(in, rest);
    auto q = ParseQuery(rest);
    if (a.empty() || b.empty() || !q.ok()) {
      std::printf("usage: \\compare A B QUERY\n");
      return;
    }
    auto diff = st->session->Compare(a, b, q.value());
    if (!diff.ok()) {
      std::printf("error: %s\n", diff.status().ToString().c_str());
      return;
    }
    PrintRelation(diff.value());
  } else if (cmd == "\\set") {
    std::string knob, value;
    in >> knob >> value;
    if (knob.empty()) {
      std::printf("%s simd=%s\n", st->session->options().Describe().c_str(),
                  SimdIsaName());
      return;
    }
    Status set = st->session->Set(knob, value);
    std::printf("%s\n", set.ok() ? "ok" : set.ToString().c_str());
  } else if (cmd == "\\explain") {
    std::string rest;
    std::getline(in, rest);
    auto q = ParseQuery(rest);
    if (!q.ok()) {
      std::printf("parse error: %s\n", q.status().ToString().c_str());
      return;
    }
    StatsCatalog stats =
        StatsCatalog::FromDatabase(st->session->BaseSnapshot());
    PlannerOptions planner = st->session->PlannerConfig();
    auto report = Explain(q.value(), st->engine.schema(), stats, planner.memo);
    if (!report.ok()) {
      std::printf("error: %s\n", report.status().ToString().c_str());
      return;
    }
    std::printf("%s", FormatExplain(report.value()).c_str());
  } else if (cmd == "\\analyze") {
    std::string rest;
    std::getline(in, rest);
    auto q = ParseQuery(rest);
    if (!q.ok()) {
      std::printf("parse error: %s\n", q.status().ToString().c_str());
      return;
    }
    auto report = st->session->Analyze(st->current, q.value());
    if (!report.ok()) {
      std::printf("error: %s\n", report.status().ToString().c_str());
      return;
    }
    std::printf("%s", FormatExplainAnalyze(report.value()).c_str());
  } else if (cmd == "\\stats") {
    std::printf("%s\n", st->session->Stats().ToJson().c_str());
  } else if (cmd == "\\save") {
    std::string path;
    in >> path;
    Status saved = SaveDatabase(st->engine.Snapshot(), path);
    std::printf("%s\n", saved.ok() ? "ok" : saved.ToString().c_str());
  } else if (cmd == "\\open") {
    std::string path;
    in >> path;
    auto loaded = LoadDatabase(path);
    if (!loaded.ok()) {
      std::printf("error: %s\n", loaded.status().ToString().c_str());
      return;
    }
    st->engine.ResetDatabase(std::move(loaded).value());
    st->ReopenSession();
    std::printf("ok (%zu relations)\n", st->engine.schema().NumRelations());
  } else if (cmd == "\\whatif") {
    std::string rest;
    std::getline(in, rest);
    auto edge = ParseEdge(*st, rest);
    if (!edge.ok()) {
      std::printf("error: %s\n", edge.status().ToString().c_str());
      return;
    }
    st->session->Drop("whatif");  // stale one from a previous \whatif
    Status derived =
        st->session->Derive(st->current, "whatif", edge.value());
    if (!derived.ok()) {
      std::printf("error: %s\n", derived.ToString().c_str());
      return;
    }
    st->whatif_return = st->current;
    st->current = "whatif";
    std::printf("what-if scenario open below '%s'; queries now run there. "
                "\\endwhatif to close.\n",
                st->whatif_return.c_str());
  } else if (cmd == "\\endwhatif") {
    if (st->whatif_return.empty()) {
      std::printf("no what-if scenario open\n");
      return;
    }
    st->session->Drop("whatif");
    st->current = st->whatif_return;
    st->whatif_return.clear();
    std::printf("what-if closed; back at '%s'.\n", st->current.c_str());
  } else if (cmd == "\\db") {
    std::string node;
    in >> node;
    if (node.empty()) {
      std::printf("%s", st->engine.Snapshot().ToString().c_str());
      return;
    }
    auto state = st->session->StateAt(node);
    if (!state.ok()) {
      std::printf("error: %s\n", state.status().ToString().c_str());
      return;
    }
    std::printf("%s", state.value().ToString().c_str());
  } else if (cmd == "\\time") {
    std::string mode;
    in >> mode;
    st->timing = (mode != "off");
    std::printf("timing %s\n", st->timing ? "on" : "off");
  } else {
    std::printf("unknown command %s (try \\help)\n", cmd.c_str());
  }
}

void HandleQuery(ShellState* st, const std::string& line) {
  auto q = ParseQuery(line);
  if (!q.ok()) {
    std::printf("parse error: %s\n", q.status().ToString().c_str());
    return;
  }
  auto arity = InferQueryArity(q.value(), st->engine.schema());
  if (!arity.ok()) {
    std::printf("type error: %s\n", arity.status().ToString().c_str());
    return;
  }
  auto start = std::chrono::steady_clock::now();
  auto result = st->session->Query(st->current, q.value());
  auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return;
  }
  PrintRelation(result.value());
  if (st->timing) {
    std::printf("[at %s, %s, %lld us]\n", st->current.c_str(),
                StrategyName(st->session->options().strategy),
                static_cast<long long>(elapsed));
  }
}

}  // namespace

int main() {
  ShellState state;
  std::printf("hql shell — hypothetical queries (\\help for commands)\n");
  std::string line;
  for (;;) {
    std::printf("hql> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    // Trim.
    size_t b = line.find_first_not_of(" \t");
    if (b == std::string::npos) continue;
    size_t e = line.find_last_not_of(" \t");
    line = line.substr(b, e - b + 1);
    if (line == "\\quit" || line == "\\q") break;
    if (line[0] == '\\') {
      HandleCommand(&state, line);
    } else {
      HandleQuery(&state, line);
    }
  }
  std::printf("bye\n");
  return 0;
}
