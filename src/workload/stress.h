#ifndef HQL_WORKLOAD_STRESS_H_
#define HQL_WORKLOAD_STRESS_H_

// Differential stress harness: the randomized op stream and the oracle
// that checks it.
//
// The paper's central claim is that every point on the lazy <-> eager
// spectrum computes the same answers. The per-feature property suites
// check that claim one feature at a time on fresh state; this harness
// checks it the way production would stress it — a sustained mixed stream
// of queries, scenario derivations, scenario edits with incremental
// re-asks, aggregates, deep `when`-nests, `eta1 # eta2` compositions,
// conditional updates, and adversarial Example-2.4 blowups, all running
// against shared caches (memo, incremental, index advisor) that persist
// across operations.
//
// Every sampled operation is a differential oracle: the reference value is
// the direct semantics with every optimization off, and all six strategies
// re-run it under a sampled mode combination (columnar / incremental /
// index / memo toggles). The invariant is *bit-identical-or-clean-error,
// never crash or corrupt*: a run either returns the reference relation
// exactly, or — only when chaos failpoints or a randomized governor budget
// are armed — a clean kCancelled / kResourceExhausted. Anything else is a
// StressFailure, which the driver (workload/driver.h) turns into a
// deterministic replay capsule.
//
// Determinism: op `i` draws from Rng(mix(config.seed, i)), so an op's
// generation depends only on the config and on the harness state left by
// previously executed ops. All oracle runs are single-threaded and budgets
// never include wall-clock deadlines, so a (config, executed-op-list) pair
// replays bit-identically.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "common/rng.h"
#include "eval/incremental.h"
#include "eval/memo.h"
#include "opt/planner.h"
#include "storage/database.h"
#include "storage/index.h"
#include "workload/generators.h"
#include "workload/version_tree.h"

namespace hql {

// ---------------------------------------------------------------------------
// Operation mix.
// ---------------------------------------------------------------------------

enum class StressOpKind {
  kQuery = 0,   // random RA_hyp query at a version-tree node or scenario
  kDerive,      // grow the scenario tree (derive + materialize a new state)
  kEdit,        // small update to a scenario DB + incremental re-ask
  kAggregate,   // gamma-rooted query, optionally under a `when`
  kDeepWhen,    // explicit when-tower several states deep
  kCompose,     // CompareAt over two nodes: path states composed with #
  kCondUpdate,  // state built from conditional updates (Section 6)
  kBlowup,      // Example 2.4 adversarial chain under a governor budget
};

inline constexpr int kNumStressOpKinds = 8;

const char* StressOpKindName(StressOpKind kind);

// ---------------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------------

/// One phase of the workload: genny-style op-mix / volume / fault knobs.
struct StressPhase {
  std::string label = "mixed";
  /// Operations this phase issues.
  int ops = 100;
  /// Sampling weight per StressOpKind (index = kind; 0 disables a kind).
  std::array<double, kNumStressOpKinds> weights = {4, 1, 1, 1, 1, 1, 1, 0};
  /// AST generator depth for this phase's queries and states.
  int max_depth = 3;
  bool allow_cond = true;
  bool allow_aggregate = true;
  /// Chaos mode: when > 0, every strategy run arms *all* registered
  /// failpoint sites with this per-hit fire probability (seeded per run).
  /// Sites compile out under NDEBUG, where chaos degenerates to the plain
  /// differential fuzzer — a valid, weaker pass.
  double chaos_probability = 0.0;
  /// Probability that an op's strategy runs carry a randomized governor
  /// budget (tuple + rewrite-node caps; never wall-clock — deadlines would
  /// break deterministic replay).
  double budget_probability = 0.0;
};

struct StressConfig {
  uint64_t seed = 1;
  /// Rows per relation in the base database (PropertySchema shape).
  size_t base_rows = 24;
  /// Key/value/literal domain for generated data and predicates.
  int64_t domain = 8;
  /// Test-only self-injection: after this many ops, the next oracle op
  /// corrupts one strategy's (otherwise correct) result, guaranteeing a
  /// differential failure. -1 = off. Exists so the capsule/replay/shrink
  /// pipeline is itself testable end to end.
  int inject_mismatch_after = -1;
  std::vector<StressPhase> phases;

  int TotalOps() const;
  /// The phase op `index` falls in (clamped to the last phase).
  const StressPhase& PhaseOf(int index) const;

  /// The default five-phase mixed profile: read-heavy warmup, scenario
  /// growth, edit/incremental soak, adversarial (blowups + budgets), and a
  /// chaos phase arming failpoints at `chaos_probability`.
  static StressConfig Mixed(uint64_t seed, int ops_per_phase,
                            double chaos_probability = 0.02);

  std::string ToJson() const;
  static Result<StressConfig> FromJson(const JsonValue& value);
};

// ---------------------------------------------------------------------------
// Outcomes.
// ---------------------------------------------------------------------------

/// One oracle violation. Equality is field-wise and the `detail` string
/// embeds result sizes and hashes, so two equal failures reproduced from
/// the same capsule are bit-identical observations, not just same-shaped.
struct StressFailure {
  int op_index = -1;
  std::string kind;      // StressOpKindName of the op, or "corruption"
  std::string strategy;  // the diverging run ("reference" = oracle baseline)
  std::string modes;     // sampled mode combo + chaos/budget arming
  std::string detail;    // query text + outcome comparison (hash, size)

  bool operator==(const StressFailure& other) const {
    return op_index == other.op_index && kind == other.kind &&
           strategy == other.strategy && modes == other.modes &&
           detail == other.detail;
  }
  bool operator!=(const StressFailure& other) const {
    return !(*this == other);
  }
  std::string ToString() const;
};

struct StressReport {
  int ops_run = 0;
  std::array<uint64_t, kNumStressOpKinds> ops_by_kind = {};
  /// Strategy executions checked against the reference.
  uint64_t oracle_runs = 0;
  uint64_t ok_runs = 0;
  /// Governed errors observed while chaos or a budget was armed (the
  /// expected failure mode, not a violation).
  uint64_t clean_errors = 0;
  std::vector<StressFailure> failures;
};

// ---------------------------------------------------------------------------
// Replay capsules.
// ---------------------------------------------------------------------------

/// A self-contained reproduction of one failure: the full config plus the
/// exact op indices to execute (in order). Serialized as JSON; u64 seeds
/// ride as strings so they survive the double-typed JSON number grammar.
struct ReplayCapsule {
  static constexpr int kVersion = 1;

  StressConfig config;
  std::vector<int> included_ops;
  StressFailure failure;

  std::string ToJson() const;
  static Result<ReplayCapsule> FromJsonText(const std::string& text);
};

// ---------------------------------------------------------------------------
// The harness.
// ---------------------------------------------------------------------------

/// Owns the evolving workload state — base database, scenario version
/// tree, materialized scenario databases with their standing queries and
/// per-strategy incremental caches, the shared memo cache and index
/// advisor — and executes one op at a time under the differential oracle.
class StressHarness {
 public:
  explicit StressHarness(const StressConfig& config);
  ~StressHarness();

  StressHarness(const StressHarness&) = delete;
  StressHarness& operator=(const StressHarness&) = delete;

  /// Executes global op `index` (generation is deterministic per index).
  /// Returns false if the op recorded at least one failure.
  bool RunOp(int index);

  const StressReport& report() const { return report_; }
  const StressConfig& config() const { return config_; }

  /// Number of live scenarios (root + derived); exposed for tests.
  size_t scenario_count() const;

 private:
  struct Scenario;
  struct RunSpec;
  struct Outcome;

  Rng OpRng(int index) const;
  Scenario& PickScenario(Rng* rng);
  AstGenOptions GenOptions(const StressPhase& phase) const;
  RunSpec SampleRunSpec(Rng* rng, const StressPhase& phase);
  Outcome RunOne(const QueryPtr& query, const Database& db,
                 const Schema& schema, Strategy strategy, const RunSpec& spec,
                 IncrementalCache* cache, uint64_t chaos_seed);
  /// The oracle: reference + 6 strategy runs; returns false on failure.
  bool RunOracle(Rng* rng, int index, StressOpKind kind,
                 const QueryPtr& query, const Database& db,
                 const Schema& schema, const RunSpec& spec,
                 Scenario* scenario);
  void AddFailure(int index, StressOpKind kind, const std::string& strategy,
                  const std::string& modes, std::string detail);

  void OpQuery(Rng* rng, int index, const StressPhase& phase);
  void OpDerive(Rng* rng, int index, const StressPhase& phase);
  void OpEdit(Rng* rng, int index, const StressPhase& phase);
  void OpAggregate(Rng* rng, int index, const StressPhase& phase);
  void OpDeepWhen(Rng* rng, int index, const StressPhase& phase);
  void OpCompose(Rng* rng, int index, const StressPhase& phase);
  void OpCondUpdate(Rng* rng, int index, const StressPhase& phase);
  void OpBlowup(Rng* rng, int index, const StressPhase& phase);

  StressConfig config_;
  Schema schema_;
  Database base_;
  uint64_t base_hash_ = 0;
  VersionTree tree_;
  std::vector<std::unique_ptr<Scenario>> scenarios_;
  MemoCache memo_;
  IndexAdvisor advisor_;
  StressReport report_;
  /// Self-injection arming (see StressConfig::inject_mismatch_after).
  bool inject_pending_ = false;
};

}  // namespace hql

#endif  // HQL_WORKLOAD_STRESS_H_
