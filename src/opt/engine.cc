#include "opt/engine.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "ast/hypo.h"
#include "ast/query.h"
#include "ast/typecheck.h"
#include "ast/update.h"
#include "common/strings.h"
#include "eval/direct.h"

namespace hql {

namespace {

Status BadKnob(const std::string& knob, const std::string& value,
               const char* expected) {
  return Status::InvalidArgument(StrFormat("bad value '%s' for %s (want %s)",
                                           value.c_str(), knob.c_str(),
                                           expected));
}

Result<bool> ParseBoolValue(const std::string& knob,
                            const std::string& value) {
  if (value == "on" || value == "true" || value == "1") return true;
  if (value == "off" || value == "false" || value == "0") return false;
  return BadKnob(knob, value, "on|off");
}

Result<double> ParseDoubleValue(const std::string& knob,
                                const std::string& value) {
  char* end = nullptr;
  double d = std::strtod(value.c_str(), &end);
  if (end == nullptr || *end != '\0' || value.empty()) {
    return BadKnob(knob, value, "a number");
  }
  return d;
}

Result<uint64_t> ParseCountValue(const std::string& knob,
                                 const std::string& value) {
  HQL_ASSIGN_OR_RETURN(double d, ParseDoubleValue(knob, value));
  if (d < 0 || d != static_cast<double>(static_cast<uint64_t>(d))) {
    return BadKnob(knob, value, "a non-negative integer");
  }
  return static_cast<uint64_t>(d);
}

Result<Strategy> ParseStrategyValue(const std::string& knob,
                                    const std::string& value) {
  for (Strategy s :
       {Strategy::kDirect, Strategy::kLazy, Strategy::kFilter1,
        Strategy::kFilter2, Strategy::kFilter3, Strategy::kHybrid}) {
    if (value == StrategyName(s)) return s;
  }
  return BadKnob(knob, value, "direct|lazy|filter1|filter2|filter3|hybrid");
}

/// The "safe"/"all-on" profiles' defensive governor budget: generous
/// enough that the test workloads never trip it by accident, tight enough
/// that an Example 2.4 blow-up or a runaway join dies as a clean
/// kResourceExhausted instead of taking the process down.
ExecBudget DefensiveBudget() {
  ExecBudget b;
  b.deadline_ms = 10000;
  b.max_tuples = 20u * 1000 * 1000;
  b.max_rewrite_nodes = 2u * 1000 * 1000;
  b.max_index_build_rows = 4u * 1000 * 1000;
  return b;
}

}  // namespace

Result<EngineOptions> EngineOptions::Profile(const std::string& name) {
  EngineOptions o;
  if (name == "default") return o;
  if (name == "fast" || name == "all-on") {
    o.strategy = Strategy::kHybrid;
    o.memo = true;
    o.index_mode = IndexMode::kAdvisor;
    o.columnar_mode = ColumnarMode::kAuto;
    o.incremental_mode = IncrementalMode::kAuto;
    if (name == "all-on") o.budget = DefensiveBudget();
    return o;
  }
  if (name == "safe") {
    o.strategy = Strategy::kHybrid;
    o.memo = true;
    o.budget = DefensiveBudget();
    return o;
  }
  return Status::InvalidArgument(
      StrFormat("unknown profile '%s' (want default|fast|safe|all-on)",
                name.c_str()));
}

std::vector<std::string> EngineOptions::ProfileNames() {
  return {"default", "fast", "safe", "all-on"};
}

Status EngineOptions::Set(const std::string& knob, const std::string& value) {
  if (knob == "profile") {
    // A profile resets every knob it defines; max_sessions is engine
    // deployment shape, not evaluation policy, so it survives.
    size_t keep_sessions = max_sessions;
    HQL_ASSIGN_OR_RETURN(*this, Profile(value));
    max_sessions = keep_sessions;
    return Status::OK();
  }
  if (knob == "strategy") {
    HQL_ASSIGN_OR_RETURN(strategy, ParseStrategyValue(knob, value));
    return Status::OK();
  }
  if (knob == "memo") {
    HQL_ASSIGN_OR_RETURN(memo, ParseBoolValue(knob, value));
    return Status::OK();
  }
  if (knob == "index") {
    if (value == IndexModeName(IndexMode::kOff)) {
      index_mode = IndexMode::kOff;
    } else if (value == IndexModeName(IndexMode::kManual)) {
      index_mode = IndexMode::kManual;
    } else if (value == IndexModeName(IndexMode::kAdvisor)) {
      index_mode = IndexMode::kAdvisor;
    } else {
      return BadKnob(knob, value, "off|manual|advisor");
    }
    return Status::OK();
  }
  if (knob == "columnar") {
    if (value == ColumnarModeName(ColumnarMode::kOff)) {
      columnar_mode = ColumnarMode::kOff;
    } else if (value == ColumnarModeName(ColumnarMode::kAuto)) {
      columnar_mode = ColumnarMode::kAuto;
    } else {
      return BadKnob(knob, value, "off|auto");
    }
    return Status::OK();
  }
  if (knob == "incremental") {
    if (value == IncrementalModeName(IncrementalMode::kOff)) {
      incremental_mode = IncrementalMode::kOff;
    } else if (value == IncrementalModeName(IncrementalMode::kAuto)) {
      incremental_mode = IncrementalMode::kAuto;
    } else {
      return BadKnob(knob, value, "off|auto");
    }
    return Status::OK();
  }
  if (knob == "reuse_count") {
    HQL_ASSIGN_OR_RETURN(double d, ParseDoubleValue(knob, value));
    if (d < 0) return BadKnob(knob, value, ">= 0");
    reuse_count = d;
    return Status::OK();
  }
  if (knob == "max_lazy_tree_size") {
    HQL_ASSIGN_OR_RETURN(double d, ParseDoubleValue(knob, value));
    if (d <= 0) return BadKnob(knob, value, "> 0");
    max_lazy_tree_size = d;
    return Status::OK();
  }
  if (knob == "delta_fraction") {
    HQL_ASSIGN_OR_RETURN(double d, ParseDoubleValue(knob, value));
    if (d < 0 || d > 1) return BadKnob(knob, value, "in [0,1]");
    delta_fraction_threshold = d;
    return Status::OK();
  }
  if (knob == "edit_fraction") {
    HQL_ASSIGN_OR_RETURN(double d, ParseDoubleValue(knob, value));
    if (d < 0 || d > 1) return BadKnob(knob, value, "in [0,1]");
    incremental_edit_fraction = d;
    return Status::OK();
  }
  if (knob == "index_min_rows") {
    HQL_ASSIGN_OR_RETURN(uint64_t n, ParseCountValue(knob, value));
    index_min_rows = static_cast<size_t>(n);
    return Status::OK();
  }
  if (knob == "columnar_min_rows") {
    HQL_ASSIGN_OR_RETURN(uint64_t n, ParseCountValue(knob, value));
    columnar_min_rows = static_cast<size_t>(n);
    return Status::OK();
  }
  if (knob == "morsel_rows") {
    HQL_ASSIGN_OR_RETURN(uint64_t n, ParseCountValue(knob, value));
    if (n == 0) return BadKnob(knob, value, "> 0");
    columnar_morsel_rows = static_cast<size_t>(n);
    return Status::OK();
  }
  if (knob == "columnar_threads") {
    HQL_ASSIGN_OR_RETURN(uint64_t n, ParseCountValue(knob, value));
    columnar_threads = static_cast<size_t>(n);
    return Status::OK();
  }
  if (knob == "deadline_ms") {
    HQL_ASSIGN_OR_RETURN(uint64_t n, ParseCountValue(knob, value));
    budget.deadline_ms = static_cast<int64_t>(n);
    return Status::OK();
  }
  if (knob == "max_tuples") {
    HQL_ASSIGN_OR_RETURN(budget.max_tuples, ParseCountValue(knob, value));
    return Status::OK();
  }
  if (knob == "max_rewrite_nodes") {
    HQL_ASSIGN_OR_RETURN(budget.max_rewrite_nodes,
                         ParseCountValue(knob, value));
    return Status::OK();
  }
  if (knob == "max_sessions") {
    HQL_ASSIGN_OR_RETURN(uint64_t n, ParseCountValue(knob, value));
    max_sessions = static_cast<size_t>(n);
    return Status::OK();
  }
  return Status::InvalidArgument(StrFormat("unknown knob '%s'", knob.c_str()));
}

Status EngineOptions::Validate() const {
  if (reuse_count < 0) {
    return Status::InvalidArgument("reuse_count must be >= 0");
  }
  if (max_lazy_tree_size <= 0) {
    return Status::InvalidArgument("max_lazy_tree_size must be > 0");
  }
  if (delta_fraction_threshold < 0 || delta_fraction_threshold > 1) {
    return Status::InvalidArgument("delta_fraction must be in [0,1]");
  }
  if (incremental_edit_fraction < 0 || incremental_edit_fraction > 1) {
    return Status::InvalidArgument("edit_fraction must be in [0,1]");
  }
  if (columnar_morsel_rows == 0) {
    return Status::InvalidArgument("morsel_rows must be > 0");
  }
  if (budget.deadline_ms < 0) {
    return Status::InvalidArgument("deadline_ms must be >= 0");
  }
  return Status::OK();
}

std::string EngineOptions::Describe() const {
  std::string out;
  out += StrFormat("strategy=%s memo=%s index=%s columnar=%s incremental=%s",
                   StrategyName(strategy), memo ? "on" : "off",
                   IndexModeName(index_mode), ColumnarModeName(columnar_mode),
                   IncrementalModeName(incremental_mode));
  out += StrFormat(
      " reuse_count=%g max_lazy_tree_size=%g delta_fraction=%g"
      " edit_fraction=%g",
      reuse_count, max_lazy_tree_size, delta_fraction_threshold,
      incremental_edit_fraction);
  out += StrFormat(
      " index_min_rows=%zu columnar_min_rows=%zu morsel_rows=%zu"
      " columnar_threads=%zu",
      index_min_rows, columnar_min_rows, columnar_morsel_rows,
      columnar_threads);
  out += StrFormat(
      " deadline_ms=%lld max_tuples=%llu max_rewrite_nodes=%llu"
      " max_sessions=%zu",
      static_cast<long long>(budget.deadline_ms),
      static_cast<unsigned long long>(budget.max_tuples),
      static_cast<unsigned long long>(budget.max_rewrite_nodes), max_sessions);
  return out;
}

PlannerOptions EngineOptions::ToPlannerOptions(
    MemoCache* memo_cache, IndexAdvisor* advisor,
    IncrementalCache* incremental, CancelTokenPtr cancel_token) const {
  PlannerOptions p;
  static_cast<EvalSettings&>(p) = *this;
  p.memo = memo ? memo_cache : nullptr;
  p.index_advisor = index_mode == IndexMode::kAdvisor ? advisor : nullptr;
  p.incremental_cache =
      incremental_mode == IncrementalMode::kAuto ? incremental : nullptr;
  p.cancel_token = std::move(cancel_token);
  return p;
}

// ---------------------------------------------------------------------------
// Engine

Engine::Engine(Schema schema, EngineOptions options)
    : schema_(schema), base_(Database(std::move(schema))),
      options_(std::move(options)) {}

Engine::Engine(Database db, EngineOptions options)
    : schema_(db.schema()), base_(std::move(db)),
      options_(std::move(options)) {}

Engine::~Engine() = default;

Result<SessionPtr> Engine::CreateSession(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.max_sessions > 0 && live_sessions_ >= options_.max_sessions) {
    return Status::ResourceExhausted(
        StrFormat("session limit reached (%zu live, max_sessions=%zu)",
                  live_sessions_, options_.max_sessions));
  }
  ++live_sessions_;
  return SessionPtr(
      new Session(this, std::move(name), base_, base_version_, options_));
}

void Engine::ReleaseSession() {
  std::lock_guard<std::mutex> lock(mu_);
  --live_sessions_;
}

size_t Engine::live_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_sessions_;
}

Status Engine::DeclareRelation(const std::string& name, size_t arity) {
  std::lock_guard<std::mutex> lock(mu_);
  HQL_RETURN_IF_ERROR(schema_.AddRelation(name, arity));
  // Rebuild the base over the widened schema; existing relations are moved
  // across as views (refcount bumps, no tuple copies).
  Database next(schema_);
  for (const auto& [rel, view] : base_.relations()) {
    HQL_RETURN_IF_ERROR(next.SetView(rel, view));
  }
  base_ = std::move(next);
  ++base_version_;
  return Status::OK();
}

Status Engine::SetRelation(const std::string& name, Relation value) {
  std::lock_guard<std::mutex> lock(mu_);
  HQL_RETURN_IF_ERROR(base_.Set(name, std::move(value)));
  ++base_version_;
  return Status::OK();
}

Status Engine::Apply(const UpdatePtr& update) {
  if (update == nullptr) {
    return Status::InvalidArgument("Apply: null update");
  }
  std::lock_guard<std::mutex> lock(mu_);
  HQL_RETURN_IF_ERROR(CheckUpdate(update, schema_));
  HQL_ASSIGN_OR_RETURN(Database next, ExecUpdate(update, base_));
  base_ = std::move(next);
  ++base_version_;
  return Status::OK();
}

void Engine::ResetDatabase(Database db) {
  std::lock_guard<std::mutex> lock(mu_);
  schema_ = db.schema();
  base_ = std::move(db);
  ++base_version_;
}

Database Engine::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_;
}

Schema Engine::schema() const {
  std::lock_guard<std::mutex> lock(mu_);
  return schema_;
}

uint64_t Engine::base_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_version_;
}

EngineOptions Engine::options() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_;
}

Status Engine::SetOptions(const EngineOptions& options) {
  HQL_RETURN_IF_ERROR(options.Validate());
  std::lock_guard<std::mutex> lock(mu_);
  options_ = options;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Session

Session::Session(Engine* engine, std::string name, Database base,
                 uint64_t base_version, EngineOptions options)
    : engine_(engine),
      name_(std::move(name)),
      cancel_(std::make_shared<CancelToken>()),
      base_(std::move(base)),
      snapshot_version_(base_version),
      options_(std::move(options)) {
  nodes_.push_back(Node{"root", -1, nullptr, nullptr});
}

Session::~Session() { engine_->ReleaseSession(); }

int Session::FindNode(const std::string& name) const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].name.empty() && nodes_[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

Status Session::Derive(const std::string& parent, const std::string& child,
                       const HypoExprPtr& edge) {
  if (edge == nullptr) return Status::InvalidArgument("derive: null edge");
  if (child.empty()) {
    return Status::InvalidArgument("derive: empty scenario name");
  }
  std::lock_guard<std::mutex> lock(mu_);
  HQL_RETURN_IF_ERROR(CheckHypo(edge, base_.schema()));
  int p = FindNode(parent);
  if (p < 0) {
    return Status::NotFound(StrFormat("no scenario '%s'", parent.c_str()));
  }
  if (FindNode(child) >= 0) {
    return Status::AlreadyExists(
        StrFormat("scenario '%s' already exists", child.c_str()));
  }
  nodes_.push_back(Node{child, p, edge, nullptr});
  return Status::OK();
}

Status Session::Edit(const std::string& node, const HypoExprPtr& edge) {
  if (edge == nullptr) return Status::InvalidArgument("edit: null edge");
  std::lock_guard<std::mutex> lock(mu_);
  HQL_RETURN_IF_ERROR(CheckHypo(edge, base_.schema()));
  int i = FindNode(node);
  if (i < 0) {
    return Status::NotFound(StrFormat("no scenario '%s'", node.c_str()));
  }
  if (i == 0) return Status::InvalidArgument("the root cannot be edited");
  nodes_[static_cast<size_t>(i)].edge = edge;
  InvalidateSubtree(i);
  return Status::OK();
}

Status Session::Drop(const std::string& node) {
  std::lock_guard<std::mutex> lock(mu_);
  int i = FindNode(node);
  if (i < 0) {
    return Status::NotFound(StrFormat("no scenario '%s'", node.c_str()));
  }
  if (i == 0) return Status::InvalidArgument("the root cannot be dropped");
  // Children are always appended after their parent, so one forward sweep
  // finds the whole subtree.
  std::vector<bool> doomed(nodes_.size(), false);
  doomed[static_cast<size_t>(i)] = true;
  for (size_t j = static_cast<size_t>(i) + 1; j < nodes_.size(); ++j) {
    if (nodes_[j].name.empty()) continue;
    if (nodes_[j].parent >= 0 &&
        doomed[static_cast<size_t>(nodes_[j].parent)]) {
      doomed[j] = true;
    }
  }
  for (size_t j = 0; j < nodes_.size(); ++j) {
    if (!doomed[j]) continue;
    nodes_[j] = Node{};  // empty name = dropped slot
  }
  return Status::OK();
}

void Session::InvalidateSubtree(int index) {
  std::vector<bool> stale(nodes_.size(), false);
  stale[static_cast<size_t>(index)] = true;
  nodes_[static_cast<size_t>(index)].state = nullptr;
  for (size_t j = static_cast<size_t>(index) + 1; j < nodes_.size(); ++j) {
    if (nodes_[j].name.empty()) continue;
    if (nodes_[j].parent >= 0 && stale[static_cast<size_t>(nodes_[j].parent)]) {
      stale[j] = true;
      nodes_[j].state = nullptr;
    }
  }
}

HypoExprPtr Session::PathState(int index) const {
  HypoExprPtr state = nullptr;
  for (int cur = index; nodes_[static_cast<size_t>(cur)].parent >= 0;
       cur = nodes_[static_cast<size_t>(cur)].parent) {
    const HypoExprPtr& edge = nodes_[static_cast<size_t>(cur)].edge;
    state = state == nullptr ? edge : HypoExpr::Compose(edge, state);
  }
  return state;
}

Result<std::shared_ptr<Database>> Session::StateOf(int index) {
  // Walk up to the nearest materialized ancestor, then materialize down —
  // each step is one EvalState over the parent's CoW state, so deriving a
  // new leaf touches only the edge's delta.
  std::vector<int> path;
  int cur = index;
  while (cur >= 0 && nodes_[static_cast<size_t>(cur)].state == nullptr) {
    path.push_back(cur);
    cur = nodes_[static_cast<size_t>(cur)].parent;
  }
  std::shared_ptr<Database> state =
      cur >= 0 ? nodes_[static_cast<size_t>(cur)].state
               : std::make_shared<Database>(base_);
  if (cur < 0 && !path.empty() && path.back() == 0) {
    nodes_[0].state = state;
    path.pop_back();
  }
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    Node& n = nodes_[static_cast<size_t>(*it)];
    HQL_ASSIGN_OR_RETURN(Database next, EvalState(n.edge, *state));
    state = std::make_shared<Database>(std::move(next));
    n.state = state;
  }
  return state;
}

Result<Relation> Session::RunAt(int index, const QueryPtr& query) {
  // Compose `Q when (path)` and hand the whole thing to the planner: which
  // point of the lazy<->eager spectrum evaluates the path is exactly the
  // session's strategy knob (every strategy computes the same value).
  QueryPtr composed;
  PlannerOptions planner;
  Strategy strategy;
  Database base{Schema()};
  {
    std::lock_guard<std::mutex> lock(mu_);
    HypoExprPtr state = PathState(index);
    composed = state == nullptr ? query : Query::When(query, state);
    planner = PlannerConfigLocked();
    strategy = options_.strategy;
    base = base_;
  }
  if (cancel_->cancelled()) {
    return Status::Cancelled("session cancelled");
  }
  HQL_RETURN_IF_ERROR(InferQueryArity(composed, base.schema()).status());
  ExecContextScope scope(&exec_);
  return Execute(composed, base, base.schema(), strategy, planner);
}

Result<Relation> Session::Query(const std::string& node,
                                const QueryPtr& query) {
  if (query == nullptr) return Status::InvalidArgument("query: null query");
  int i;
  {
    std::lock_guard<std::mutex> lock(mu_);
    i = FindNode(node);
  }
  if (i < 0) {
    return Status::NotFound(StrFormat("no scenario '%s'", node.c_str()));
  }
  return RunAt(i, query);
}

Result<Relation> Session::Compare(const std::string& a, const std::string& b,
                                  const QueryPtr& query) {
  if (query == nullptr) return Status::InvalidArgument("compare: null query");
  QueryPtr diff;
  {
    std::lock_guard<std::mutex> lock(mu_);
    int ia = FindNode(a);
    if (ia < 0) {
      return Status::NotFound(StrFormat("no scenario '%s'", a.c_str()));
    }
    int ib = FindNode(b);
    if (ib < 0) {
      return Status::NotFound(StrFormat("no scenario '%s'", b.c_str()));
    }
    HypoExprPtr sa = PathState(ia);
    HypoExprPtr sb = PathState(ib);
    diff = Query::Difference(
        sa == nullptr ? query : Query::When(query, sa),
        sb == nullptr ? query : Query::When(query, sb));
  }
  return RunAt(0, diff);
}

Result<AnalyzeReport> Session::Analyze(const std::string& node,
                                       const QueryPtr& query) {
  if (query == nullptr) return Status::InvalidArgument("analyze: null query");
  QueryPtr composed;
  AnalyzeOptions opts;
  Database base{Schema()};
  {
    std::lock_guard<std::mutex> lock(mu_);
    int i = FindNode(node);
    if (i < 0) {
      return Status::NotFound(StrFormat("no scenario '%s'", node.c_str()));
    }
    HypoExprPtr state = PathState(i);
    composed = state == nullptr ? query : Query::When(query, state);
    opts.strategy = options_.strategy;
    opts.planner = PlannerConfigLocked();
    base = base_;
  }
  if (cancel_->cancelled()) {
    return Status::Cancelled("session cancelled");
  }
  ExecContextScope scope(&exec_);
  return ExplainAnalyze(composed, base, base.schema(), opts);
}

std::vector<ScenarioInfo> Session::Nodes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ScenarioInfo> out;
  out.push_back(ScenarioInfo{"root", "", nodes_[0].state != nullptr});
  std::vector<ScenarioInfo> rest;
  for (size_t i = 1; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.name.empty()) continue;
    rest.push_back(ScenarioInfo{
        n.name, nodes_[static_cast<size_t>(n.parent)].name,
        n.state != nullptr});
  }
  std::sort(rest.begin(), rest.end(),
            [](const ScenarioInfo& x, const ScenarioInfo& y) {
              return x.name < y.name;
            });
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

size_t Session::NumNodes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t count = 0;
  for (const Node& n : nodes_) {
    if (!n.name.empty()) ++count;
  }
  return count;
}

Status Session::Set(const std::string& knob, const std::string& value) {
  if (knob == "max_sessions") {
    return Status::InvalidArgument(
        "max_sessions is engine-level; set it on the engine's options");
  }
  std::lock_guard<std::mutex> lock(mu_);
  EngineOptions next = options_;
  HQL_RETURN_IF_ERROR(next.Set(knob, value));
  HQL_RETURN_IF_ERROR(next.Validate());
  options_ = std::move(next);
  return Status::OK();
}

EngineOptions Session::options() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_;
}

ExecStats Session::Stats() const { return exec_.Snapshot(); }

PlannerOptions Session::PlannerConfig() const {
  std::lock_guard<std::mutex> lock(mu_);
  return PlannerConfigLocked();
}

PlannerOptions Session::PlannerConfigLocked() const {
  return options_.ToPlannerOptions(&engine_->memo_, &engine_->advisor_,
                                   &engine_->incremental_, cancel_);
}

void Session::Cancel() { cancel_->Cancel(); }

Status Session::Refresh() {
  Database next = engine_->Snapshot();
  uint64_t version = engine_->base_version();
  std::lock_guard<std::mutex> lock(mu_);
  if (!(next.schema().arities() == base_.schema().arities())) {
    size_t live = 0;
    for (const Node& n : nodes_) {
      if (!n.name.empty()) ++live;
    }
    if (live > 1) {
      return Status::InvalidArgument(
          "refresh: schema changed under a non-trivial scenario tree; "
          "drop derived scenarios first");
    }
  }
  base_ = std::move(next);
  snapshot_version_ = version;
  for (Node& n : nodes_) n.state = nullptr;
  return Status::OK();
}

Database Session::BaseSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_;
}

Result<Database> Session::StateAt(const std::string& node) {
  std::lock_guard<std::mutex> lock(mu_);
  int i = FindNode(node);
  if (i < 0) {
    return Status::NotFound(StrFormat("no scenario '%s'", node.c_str()));
  }
  HQL_ASSIGN_OR_RETURN(std::shared_ptr<Database> state, StateOf(i));
  return *state;
}

}  // namespace hql
