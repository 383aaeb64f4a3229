#ifndef HQL_OPT_ENGINE_H_
#define HQL_OPT_ENGINE_H_

// The public facade of the library: one process-wide Engine and one
// Session per client.
//
// Before this facade every front-end (the REPL, the stress driver, each
// test) hand-wired its own stack of PlannerOptions, Filter3Options, memo
// caches and advisor pointers. The facade makes the composition the paper
// implies a first-class object:
//
//   * EngineOptions — the validated knob surface. It shares its
//     evaluation settings with PlannerOptions through one declaration
//     (EvalSettings, opt/planner.h); each is settable by name
//     (`Set("columnar", "auto")`) and bundled into named profiles
//     (`fast`, `safe`, `all-on`).
//   * Engine       — process-wide shared state: the schema, the base
//     database (the only committed state), the shared MemoCache /
//     IndexAdvisor / IncrementalCache, the default options, and session
//     admission.
//   * Session      — one client's private tree of named hypothetical
//     states over an immutable snapshot of the base. Deriving a child
//     scenario is O(delta) (CoW overlays), reads are snapshot-isolated
//     (nothing a sibling session does is observable), and every query
//     runs under the session's own ExecContext and governor budget.
//
//   Engine engine(schema, db);
//   auto session = engine.CreateSession("alice").value();
//   session->Derive("root", "layoffs", ParseHypo("{del(emp, ...)}").value());
//   Relation r = session->Query("layoffs", ParseQuery("...").value()).value();
//
// The REPL (examples/hql_shell.cpp), the network server (src/server) and
// the workload driver's --connect mode are all thin clients of this API.

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ast/forward.h"
#include "common/exec_context.h"
#include "common/governor.h"
#include "common/result.h"
#include "eval/memo.h"
#include "opt/explain.h"
#include "opt/planner.h"
#include "storage/database.h"
#include "storage/index.h"
#include "storage/schema.h"

namespace hql {

class Engine;
class Session;
using SessionPtr = std::unique_ptr<Session>;

/// The single validated knob surface. A front-end holds an EngineOptions
/// (usually from a profile), adjusts it with Set(), and lets the
/// Engine/Session layer turn it into PlannerOptions. The evaluation
/// settings (physical policy, planner heuristics, per-query governor
/// budget) are inherited from EvalSettings and copied across whole; the
/// session only wires in the shared caches and advisor the modes enable.
/// The inherited `index_advisor` and `incremental_cache` pointers are
/// ignored here: ToPlannerOptions always sets them.
struct EngineOptions : EvalSettings {
  Strategy strategy = Strategy::kHybrid;
  /// Serve repeated subplans from the engine's shared MemoCache.
  bool memo = true;

  /// Engine-level: CreateSession beyond this cap is rejected with
  /// kResourceExhausted. 0 = unlimited.
  size_t max_sessions = 64;

  /// The named profiles: "fast" (every performance feature on, no
  /// limits), "safe" (plain hybrid with a defensive governor budget),
  /// "all-on" (every feature on AND the defensive budget).
  static Result<EngineOptions> Profile(const std::string& name);
  static std::vector<std::string> ProfileNames();

  /// Sets one knob by name from its textual value — the single mapping
  /// behind the shell's \set command, the server's `set` op and
  /// hql_stress's --engine-* flags. Knobs: profile, strategy, memo,
  /// index, columnar, incremental, reuse_count, max_lazy_tree_size,
  /// delta_fraction, edit_fraction, index_min_rows, columnar_min_rows,
  /// morsel_rows, columnar_threads, deadline_ms, max_tuples,
  /// max_rewrite_nodes, max_sessions. InvalidArgument names the knob or
  /// the offending value.
  Status Set(const std::string& knob, const std::string& value);

  /// Structural validation (fractions in [0,1], positive sizes); Set()
  /// already validates per knob, Validate() re-checks a hand-built value.
  Status Validate() const;

  /// One-line `knob=value` listing (the shell's \set with no arguments).
  std::string Describe() const;

  /// The PlannerOptions these knobs denote. The shared resources are
  /// supplied by the caller (normally the Session): each is wired in only
  /// when its knob enables it (`memo`, index mode kAdvisor, incremental
  /// mode kAuto).
  PlannerOptions ToPlannerOptions(MemoCache* memo_cache,
                                  IndexAdvisor* advisor,
                                  IncrementalCache* incremental,
                                  CancelTokenPtr cancel_token) const;
};

/// Info row for Session::Nodes().
struct ScenarioInfo {
  std::string name;
  std::string parent;  // empty for the root
  bool materialized = false;
};

/// Process-wide shared state. Thread-safe: any number of sessions (and
/// the administrative entry points below) may run concurrently.
class Engine {
 public:
  /// An engine over an empty database of the given schema.
  explicit Engine(Schema schema, EngineOptions options = EngineOptions());
  /// An engine adopting an existing database (schema taken from it).
  explicit Engine(Database db, EngineOptions options = EngineOptions());
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Opens a session over a snapshot of the current base state.
  /// kResourceExhausted once `max_sessions` sessions are live. The session
  /// must not outlive the engine. `name` is informational (connection ids,
  /// logs); it need not be unique.
  Result<SessionPtr> CreateSession(std::string name = "");
  size_t live_sessions() const;

  // -- committed-state administration (REPL \schema/\gen/\apply, server
  //    admin ops). Open sessions keep their snapshots; they observe a new
  //    base only via Session::Refresh(). --

  /// Adds a relation to the schema (existing relations keep their data).
  Status DeclareRelation(const std::string& name, size_t arity);
  /// DB[name <- value]; arity must match the schema.
  Status SetRelation(const std::string& name, Relation value);
  /// Commits `update` to the base state.
  Status Apply(const UpdatePtr& update);
  /// Replaces schema and base wholesale (\open, seeding).
  void ResetDatabase(Database db);

  /// A snapshot of the base (CoW: refcount bumps, no tuple copies).
  Database Snapshot() const;
  Schema schema() const;
  /// Bumped by every successful DeclareRelation/SetRelation/Apply/Reset.
  uint64_t base_version() const;

  /// Engine-wide default options; sessions copy them at creation.
  EngineOptions options() const;
  Status SetOptions(const EngineOptions& options);

  // Shared caches (exposed for stats surfaces; sessions wire them
  // automatically).
  MemoCache& memo() { return memo_; }
  IndexAdvisor& advisor() { return advisor_; }
  IncrementalCache& incremental_cache() { return incremental_; }

 private:
  friend class Session;
  void ReleaseSession();

  mutable std::mutex mu_;
  Schema schema_;
  Database base_;
  uint64_t base_version_ = 0;
  EngineOptions options_;
  size_t live_sessions_ = 0;

  MemoCache memo_;
  IndexAdvisor advisor_;
  IncrementalCache incremental_;
};

/// One client's scenario tree. A session is owned by a single logical
/// client; its methods may be called from that client's thread while
/// Cancel() arrives from any other thread (the server uses this for
/// disconnect-mid-query cleanup).
class Session {
 public:
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const std::string& name() const { return name_; }

  // -- scenario-tree ops. Nodes are named; "root" is the base snapshot. --

  /// Adds scenario `child` below `parent`, reached by hypothetical update
  /// `edge`. AlreadyExists / NotFound on name clashes; the child state is
  /// materialized lazily, O(|edge delta|) from the parent's state.
  Status Derive(const std::string& parent, const std::string& child,
                const HypoExprPtr& edge);

  /// Replaces `node`'s edge. The node's and every descendant's
  /// materialized state is invalidated (recomputed on next use). The root
  /// cannot be edited.
  Status Edit(const std::string& node, const HypoExprPtr& edge);

  /// Drops `node` and its whole subtree. The root cannot be dropped.
  Status Drop(const std::string& node);

  /// The value `query` has at scenario `node`, under the session's
  /// options, context and governor budget.
  Result<Relation> Query(const std::string& node, const QueryPtr& query);

  /// The difference (Q at a) - (Q at b) of Example 2.1.
  Result<Relation> Compare(const std::string& a, const std::string& b,
                           const QueryPtr& query);

  /// EXPLAIN ANALYZE at a scenario node (the shell's \analyze).
  Result<AnalyzeReport> Analyze(const std::string& node,
                                const QueryPtr& query);

  /// All live scenarios, root first, then sorted by name.
  std::vector<ScenarioInfo> Nodes() const;
  size_t NumNodes() const;

  // -- options & observability --

  /// Session-local knob override (shell \set, wire `set`); same knob
  /// grammar as EngineOptions::Set. `max_sessions` is engine-level and
  /// rejected here.
  Status Set(const std::string& knob, const std::string& value);
  EngineOptions options() const;

  /// This session's accumulated execution stats.
  ExecStats Stats() const;
  /// The session's live context (the shell installs it around parsing /
  /// direct evaluation too).
  ExecContext& exec_context() { return exec_; }

  /// The PlannerOptions a query at this session runs under (shared caches
  /// wired in). Exposed so thin clients can run side computations — e.g.
  /// the shell's \explain — under the session's exact configuration.
  PlannerOptions PlannerConfig() const;

  /// Trips every in-flight and future query with kCancelled. Used by the
  /// server when a connection drops mid-query; a cancelled session is
  /// only good for destruction.
  void Cancel();
  bool cancelled() const { return cancel_->cancelled(); }

  /// Re-snapshots the base from the engine (drops every derived
  /// scenario's materialized state so the tree re-derives over the new
  /// base). Fails with kInvalidArgument when the schema changed while
  /// scenarios other than the root exist.
  Status Refresh();

  /// The base snapshot this session reads (for tests and the shell's \db).
  Database BaseSnapshot() const;
  /// The fully materialized hypothetical state at `node` (the shell's
  /// `\db <node>`): [path](base), computed O(delta) from the nearest
  /// materialized ancestor and cached until an Edit/Refresh invalidates it.
  Result<Database> StateAt(const std::string& node);
  /// Engine base version this session's snapshot was taken at.
  uint64_t snapshot_version() const { return snapshot_version_; }

 private:
  friend class Engine;
  Session(Engine* engine, std::string name, Database base,
          uint64_t base_version, EngineOptions options);

  struct Node {
    std::string name;
    int parent = -1;
    HypoExprPtr edge;                  // null for the root
    std::shared_ptr<Database> state;   // lazily materialized; root = base
  };

  int FindNode(const std::string& name) const;  // -1 when absent
  /// PlannerConfig() with mu_ already held.
  PlannerOptions PlannerConfigLocked() const;
  /// Materializes (and caches) the state of node `index`.
  Result<std::shared_ptr<Database>> StateOf(int index);
  void InvalidateSubtree(int index);
  /// Composition of the edges on the path root -> index (null at root).
  HypoExprPtr PathState(int index) const;
  Result<Relation> RunAt(int index, const QueryPtr& query);

  Engine* engine_;
  std::string name_;
  CancelTokenPtr cancel_;

  mutable std::mutex mu_;
  Database base_;
  uint64_t snapshot_version_ = 0;
  EngineOptions options_;
  std::vector<Node> nodes_;  // dropped nodes have empty names
  ExecContext exec_;
};

}  // namespace hql

#endif  // HQL_OPT_ENGINE_H_
