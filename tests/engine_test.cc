#include "opt/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "eval/direct.h"
#include "parser/parser.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace hql {
namespace {

using ::hql::testing::Ints;
using ::hql::testing::MakeSchema;

Schema SmallSchema() { return MakeSchema({{"emp", 2}, {"dept", 2}}); }

Database SmallDb() {
  Database db(SmallSchema());
  HQL_CHECK(db.Set("emp", Ints({{1, 10}, {2, 10}, {3, 20}})).ok());
  HQL_CHECK(db.Set("dept", Ints({{10, 100}, {20, 200}})).ok());
  return db;
}

QueryPtr Q(const std::string& text) {
  auto q = ParseQuery(text);
  HQL_CHECK_MSG(q.ok(), q.status().ToString().c_str());
  return q.value();
}

HypoExprPtr H(const std::string& text) {
  auto h = ParseHypo(text);
  HQL_CHECK_MSG(h.ok(), h.status().ToString().c_str());
  return h.value();
}

// ---------------------------------------------------------------------------
// EngineOptions

TEST(EngineOptionsTest, ProfilesAreValidAndDistinct) {
  for (const std::string& name : EngineOptions::ProfileNames()) {
    ASSERT_OK_AND_ASSIGN(EngineOptions o, EngineOptions::Profile(name));
    EXPECT_OK(o.Validate()) << name;
  }
  ASSERT_OK_AND_ASSIGN(EngineOptions fast, EngineOptions::Profile("fast"));
  EXPECT_EQ(fast.index_mode, IndexMode::kAdvisor);
  EXPECT_EQ(fast.columnar_mode, ColumnarMode::kAuto);
  EXPECT_EQ(fast.incremental_mode, IncrementalMode::kAuto);
  EXPECT_TRUE(fast.budget.unlimited());

  ASSERT_OK_AND_ASSIGN(EngineOptions safe, EngineOptions::Profile("safe"));
  EXPECT_EQ(safe.index_mode, IndexMode::kOff);
  EXPECT_FALSE(safe.budget.unlimited());

  ASSERT_OK_AND_ASSIGN(EngineOptions allon, EngineOptions::Profile("all-on"));
  EXPECT_EQ(allon.columnar_mode, ColumnarMode::kAuto);
  EXPECT_FALSE(allon.budget.unlimited());

  EXPECT_FALSE(EngineOptions::Profile("turbo").ok());
}

TEST(EngineOptionsTest, SetParsesEveryKnob) {
  EngineOptions o;
  EXPECT_OK(o.Set("strategy", "filter3"));
  EXPECT_EQ(o.strategy, Strategy::kFilter3);
  EXPECT_OK(o.Set("memo", "off"));
  EXPECT_FALSE(o.memo);
  EXPECT_OK(o.Set("index", "advisor"));
  EXPECT_EQ(o.index_mode, IndexMode::kAdvisor);
  EXPECT_OK(o.Set("columnar", "auto"));
  EXPECT_EQ(o.columnar_mode, ColumnarMode::kAuto);
  EXPECT_OK(o.Set("incremental", "auto"));
  EXPECT_EQ(o.incremental_mode, IncrementalMode::kAuto);
  EXPECT_OK(o.Set("reuse_count", "4"));
  EXPECT_EQ(o.reuse_count, 4.0);
  EXPECT_OK(o.Set("delta_fraction", "0.5"));
  EXPECT_EQ(o.delta_fraction_threshold, 0.5);
  EXPECT_OK(o.Set("edit_fraction", "0.25"));
  EXPECT_OK(o.Set("index_min_rows", "8"));
  EXPECT_EQ(o.index_min_rows, 8u);
  EXPECT_OK(o.Set("columnar_min_rows", "128"));
  EXPECT_OK(o.Set("morsel_rows", "1024"));
  EXPECT_OK(o.Set("columnar_threads", "1"));
  EXPECT_OK(o.Set("deadline_ms", "500"));
  EXPECT_EQ(o.budget.deadline_ms, 500);
  EXPECT_OK(o.Set("max_tuples", "1000"));
  EXPECT_EQ(o.budget.max_tuples, 1000u);
  EXPECT_OK(o.Set("max_rewrite_nodes", "2000"));
  EXPECT_OK(o.Set("max_sessions", "7"));
  EXPECT_EQ(o.max_sessions, 7u);
  EXPECT_OK(o.Validate());
}

TEST(EngineOptionsTest, SetRejectsBadInput) {
  EngineOptions o;
  EXPECT_FALSE(o.Set("strategy", "warp").ok());
  EXPECT_FALSE(o.Set("memo", "sideways").ok());
  EXPECT_FALSE(o.Set("delta_fraction", "1.5").ok());
  EXPECT_FALSE(o.Set("morsel_rows", "0").ok());
  EXPECT_FALSE(o.Set("max_tuples", "-3").ok());
  EXPECT_FALSE(o.Set("max_tuples", "many").ok());
  EXPECT_FALSE(o.Set("no_such_knob", "1").ok());
  // Failed sets leave the options untouched and valid.
  EXPECT_OK(o.Validate());
  EXPECT_EQ(o.strategy, Strategy::kHybrid);
}

TEST(EngineOptionsTest, ProfileKnobKeepsMaxSessions) {
  EngineOptions o;
  EXPECT_OK(o.Set("max_sessions", "3"));
  EXPECT_OK(o.Set("profile", "all-on"));
  EXPECT_EQ(o.max_sessions, 3u);
  EXPECT_EQ(o.columnar_mode, ColumnarMode::kAuto);
}

TEST(EngineOptionsTest, DescribeRoundTripsThroughSet) {
  ASSERT_OK_AND_ASSIGN(EngineOptions o, EngineOptions::Profile("all-on"));
  std::string desc = o.Describe();
  EXPECT_NE(desc.find("strategy=hybrid"), std::string::npos);
  EXPECT_NE(desc.find("index=advisor"), std::string::npos);
  // Every key=value token in Describe() parses back through Set (except
  // engine-composition keys Set also accepts).
  size_t pos = 0;
  EngineOptions parsed;
  while (pos < desc.size()) {
    size_t end = desc.find(' ', pos);
    if (end == std::string::npos) end = desc.size();
    std::string token = desc.substr(pos, end - pos);
    pos = end + 1;
    size_t eq = token.find('=');
    ASSERT_NE(eq, std::string::npos) << token;
    EXPECT_OK(parsed.Set(token.substr(0, eq), token.substr(eq + 1))) << token;
  }
  EXPECT_EQ(parsed.strategy, o.strategy);
  EXPECT_EQ(parsed.budget.max_tuples, o.budget.max_tuples);
}

TEST(EngineOptionsTest, ToPlannerOptionsWiresCachesOnlyWhenEnabled) {
  MemoCache memo(16);
  IndexAdvisor advisor;
  IncrementalCache inc(16);
  EngineOptions o;
  o.memo = false;
  PlannerOptions p = o.ToPlannerOptions(&memo, &advisor, &inc, nullptr);
  EXPECT_EQ(p.memo, nullptr);
  EXPECT_EQ(p.index_advisor, nullptr);
  EXPECT_EQ(p.incremental_cache, nullptr);

  o.memo = true;
  o.index_mode = IndexMode::kAdvisor;
  o.incremental_mode = IncrementalMode::kAuto;
  p = o.ToPlannerOptions(&memo, &advisor, &inc, nullptr);
  EXPECT_EQ(p.memo, &memo);
  EXPECT_EQ(p.index_advisor, &advisor);
  EXPECT_EQ(p.incremental_cache, &inc);
}

// The settings a session query actually runs under, field by field. The
// expected values pin each profile's effective configuration so a change
// to how the knob surface is declared cannot silently move one.
struct EffectiveSettings {
  std::string setup;  // profile, then optional knob=value pairs
  bool memo = true;
  IndexMode index_mode = IndexMode::kOff;
  bool advisor_wired = false;
  size_t index_min_rows = 64;
  ColumnarMode columnar_mode = ColumnarMode::kOff;
  size_t columnar_threads = 0;  // 0 = hardware concurrency
  size_t columnar_min_rows = 4096;
  size_t columnar_morsel_rows = 65536;
  double columnar_max_delta_fraction = 0.25;
  IncrementalMode incremental_mode = IncrementalMode::kOff;
  bool incremental_cache_wired = false;
  double incremental_edit_fraction = 0.10;
  double reuse_count = 1.0;
  double max_lazy_tree_size = 100000.0;
  double delta_fraction_threshold = 0.25;
  bool simplify = true;
  int64_t deadline_ms = 0;
  uint64_t max_tuples = 0;
  uint64_t max_rewrite_nodes = 0;
  uint64_t max_index_build_rows = 0;
  uint32_t check_interval = 1024;
};

std::vector<EffectiveSettings> ExpectedEffectiveSettings() {
  std::vector<EffectiveSettings> out;
  EffectiveSettings def;
  def.setup = "default";
  out.push_back(def);

  EffectiveSettings fast = def;
  fast.setup = "fast";
  fast.index_mode = IndexMode::kAdvisor;
  fast.advisor_wired = true;
  fast.columnar_mode = ColumnarMode::kAuto;
  fast.incremental_mode = IncrementalMode::kAuto;
  fast.incremental_cache_wired = true;
  out.push_back(fast);

  EffectiveSettings safe = def;
  safe.setup = "safe";
  safe.deadline_ms = 10000;
  safe.max_tuples = 20000000;
  safe.max_rewrite_nodes = 2000000;
  safe.max_index_build_rows = 4000000;
  out.push_back(safe);

  EffectiveSettings all_on = fast;
  all_on.setup = "all-on";
  all_on.deadline_ms = safe.deadline_ms;
  all_on.max_tuples = safe.max_tuples;
  all_on.max_rewrite_nodes = safe.max_rewrite_nodes;
  all_on.max_index_build_rows = safe.max_index_build_rows;
  out.push_back(all_on);

  // Manual indexes never wire the advisor; incremental alone wires the
  // cache; memo off drops the cache pointer.
  EffectiveSettings knobs = def;
  knobs.setup =
      "default memo=off index=manual incremental=auto edit_fraction=0.3"
      " index_min_rows=8 columnar_threads=2 columnar_min_rows=128"
      " morsel_rows=1024";
  knobs.memo = false;
  knobs.index_mode = IndexMode::kManual;
  knobs.incremental_mode = IncrementalMode::kAuto;
  knobs.incremental_cache_wired = true;
  knobs.incremental_edit_fraction = 0.3;
  knobs.index_min_rows = 8;
  knobs.columnar_threads = 2;
  knobs.columnar_min_rows = 128;
  knobs.columnar_morsel_rows = 1024;
  out.push_back(knobs);

  EffectiveSettings planner = all_on;
  planner.setup =
      "all-on columnar=off reuse_count=4 max_lazy_tree_size=500"
      " delta_fraction=0.5 deadline_ms=250 max_tuples=1000"
      " max_rewrite_nodes=2000";
  planner.columnar_mode = ColumnarMode::kOff;
  planner.reuse_count = 4;
  planner.max_lazy_tree_size = 500;
  planner.delta_fraction_threshold = 0.5;
  planner.deadline_ms = 250;
  planner.max_tuples = 1000;
  planner.max_rewrite_nodes = 2000;
  out.push_back(planner);
  return out;
}

TEST(EngineOptionsTest, SessionPassesPinnedEffectiveSettingsToPlanner) {
  Engine engine(SmallDb());
  for (const EffectiveSettings& want : ExpectedEffectiveSettings()) {
    SCOPED_TRACE(want.setup);
    ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
    std::istringstream setup(want.setup);
    std::string token;
    setup >> token;
    ASSERT_OK(s->Set("profile", token));
    while (setup >> token) {
      size_t eq = token.find('=');
      ASSERT_OK(s->Set(token.substr(0, eq), token.substr(eq + 1)));
    }
    const PlannerOptions p = s->PlannerConfig();
    EXPECT_EQ(p.memo, want.memo ? &engine.memo() : nullptr);
    EXPECT_EQ(p.index_mode, want.index_mode);
    EXPECT_EQ(p.index_advisor,
              want.advisor_wired ? &engine.advisor() : nullptr);
    EXPECT_EQ(p.index_min_rows, want.index_min_rows);
    EXPECT_EQ(p.columnar_mode, want.columnar_mode);
    EXPECT_EQ(p.columnar_threads, want.columnar_threads);
    EXPECT_EQ(p.columnar_min_rows, want.columnar_min_rows);
    EXPECT_EQ(p.columnar_morsel_rows, want.columnar_morsel_rows);
    EXPECT_EQ(p.columnar_max_delta_fraction,
              want.columnar_max_delta_fraction);
    EXPECT_EQ(p.incremental_mode, want.incremental_mode);
    EXPECT_EQ(p.incremental_cache, want.incremental_cache_wired
                                       ? &engine.incremental_cache()
                                       : nullptr);
    EXPECT_EQ(p.incremental_edit_fraction, want.incremental_edit_fraction);
    EXPECT_EQ(p.reuse_count, want.reuse_count);
    EXPECT_EQ(p.max_lazy_tree_size, want.max_lazy_tree_size);
    EXPECT_EQ(p.delta_fraction_threshold, want.delta_fraction_threshold);
    EXPECT_EQ(p.simplify, want.simplify);
    EXPECT_EQ(p.budget.deadline_ms, want.deadline_ms);
    EXPECT_EQ(p.budget.max_tuples, want.max_tuples);
    EXPECT_EQ(p.budget.max_rewrite_nodes, want.max_rewrite_nodes);
    EXPECT_EQ(p.budget.max_index_build_rows, want.max_index_build_rows);
    EXPECT_EQ(p.budget.check_interval, want.check_interval);
    EXPECT_NE(p.cancel_token, nullptr);
  }
}

// ---------------------------------------------------------------------------
// Engine administration

TEST(EngineTest, DeclareSetApplySnapshot) {
  Engine engine(SmallSchema());
  EXPECT_EQ(engine.base_version(), 0u);
  ASSERT_OK(engine.SetRelation("emp", Ints({{1, 10}, {2, 20}})));
  ASSERT_OK(engine.DeclareRelation("bonus", 1));
  EXPECT_TRUE(engine.schema().HasRelation("bonus"));
  // The widened schema kept the old contents.
  ASSERT_OK_AND_ASSIGN(Relation emp, engine.Snapshot().Get("emp"));
  EXPECT_EQ(emp.size(), 2u);

  ASSERT_OK_AND_ASSIGN(UpdatePtr upd, ParseUpdate("ins(bonus, {(7)})"));
  ASSERT_OK(engine.Apply(upd));
  ASSERT_OK_AND_ASSIGN(Relation bonus, engine.Snapshot().Get("bonus"));
  EXPECT_EQ(bonus.size(), 1u);
  EXPECT_EQ(engine.base_version(), 3u);

  EXPECT_FALSE(engine.DeclareRelation("emp", 3).ok());
  EXPECT_FALSE(engine.SetRelation("ghost", Ints({{1}})).ok());
}

TEST(EngineTest, SessionAdmissionCap) {
  EngineOptions opts;
  opts.max_sessions = 2;
  Engine engine(SmallDb(), opts);
  ASSERT_OK_AND_ASSIGN(SessionPtr a, engine.CreateSession("a"));
  ASSERT_OK_AND_ASSIGN(SessionPtr b, engine.CreateSession("b"));
  EXPECT_EQ(engine.live_sessions(), 2u);
  auto c = engine.CreateSession("c");
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  // Closing a session frees the slot.
  b.reset();
  EXPECT_EQ(engine.live_sessions(), 1u);
  EXPECT_OK(engine.CreateSession("c").status());
}

// ---------------------------------------------------------------------------
// Session scenario trees

TEST(SessionFacadeTest, DeriveQueryMatchesDirectSemantics) {
  Engine engine(SmallDb());
  ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
  ASSERT_OK(s->Derive("root", "hire", H("{ins(emp, {(4, 20)})}")));
  ASSERT_OK(s->Derive("hire", "fire", H("{del(emp, {(1, 10)})}")));

  QueryPtr q = Q("emp");
  ASSERT_OK_AND_ASSIGN(Relation at_root, s->Query("root", q));
  EXPECT_EQ(at_root.size(), 3u);
  ASSERT_OK_AND_ASSIGN(Relation at_hire, s->Query("hire", q));
  EXPECT_EQ(at_hire.size(), 4u);
  ASSERT_OK_AND_ASSIGN(Relation at_fire, s->Query("fire", q));
  EXPECT_EQ(at_fire.size(), 3u);

  // Reference: direct evaluation of the composed when-query.
  ASSERT_OK_AND_ASSIGN(
      Relation reference,
      EvalDirect(Q("emp when ({ins(emp, {(4, 20)})} # {del(emp, {(1, 10)})})"),
                 SmallDb()));
  EXPECT_EQ(at_fire, reference);
}

TEST(SessionFacadeTest, TreeOpsValidate) {
  Engine engine(SmallDb());
  ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
  HypoExprPtr edge = H("{ins(emp, {(9, 10)})}");
  ASSERT_OK(s->Derive("root", "a", edge));
  EXPECT_EQ(s->Derive("root", "a", edge).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(s->Derive("ghost", "b", edge).code(), StatusCode::kNotFound);
  EXPECT_FALSE(s->Derive("root", "", edge).ok());
  EXPECT_FALSE(s->Derive("root", "b", H("{ins(ghost, {(1)})}")).ok());
  EXPECT_FALSE(s->Edit("root", edge).ok());
  EXPECT_FALSE(s->Drop("root").ok());
  EXPECT_EQ(s->Drop("ghost").code(), StatusCode::kNotFound);
  EXPECT_EQ(s->Query("ghost", Q("emp")).status().code(), StatusCode::kNotFound);
}

TEST(SessionFacadeTest, EditInvalidatesDescendants) {
  Engine engine(SmallDb());
  ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
  ASSERT_OK(s->Derive("root", "a", H("{ins(emp, {(4, 20)})}")));
  ASSERT_OK(s->Derive("a", "b", H("{ins(emp, {(5, 20)})}")));
  ASSERT_OK_AND_ASSIGN(Database at_b, s->StateAt("b"));
  ASSERT_OK_AND_ASSIGN(Relation emp_b, at_b.Get("emp"));
  EXPECT_EQ(emp_b.size(), 5u);

  // Rewriting a's edge changes what b sees.
  ASSERT_OK(s->Edit("a", H("{del(emp, emp)}")));
  ASSERT_OK_AND_ASSIGN(Relation emp_b2, s->Query("b", Q("emp")));
  EXPECT_EQ(emp_b2.size(), 1u);
  ASSERT_OK_AND_ASSIGN(Database at_b2, s->StateAt("b"));
  ASSERT_OK_AND_ASSIGN(Relation state_b2, at_b2.Get("emp"));
  EXPECT_EQ(emp_b2, state_b2);
}

TEST(SessionFacadeTest, DropRemovesSubtree) {
  Engine engine(SmallDb());
  ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
  ASSERT_OK(s->Derive("root", "a", H("{ins(emp, {(4, 20)})}")));
  ASSERT_OK(s->Derive("a", "b", H("{ins(emp, {(5, 20)})}")));
  ASSERT_OK(s->Derive("root", "c", H("{del(emp, {(1, 10)})}")));
  EXPECT_EQ(s->NumNodes(), 4u);
  ASSERT_OK(s->Drop("a"));
  EXPECT_EQ(s->NumNodes(), 2u);
  EXPECT_EQ(s->Query("b", Q("emp")).status().code(), StatusCode::kNotFound);
  // The freed names are reusable.
  ASSERT_OK(s->Derive("c", "a", H("{ins(emp, {(6, 20)})}")));
  std::vector<ScenarioInfo> nodes = s->Nodes();
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[0].name, "root");
  EXPECT_EQ(nodes[1].name, "a");
  EXPECT_EQ(nodes[1].parent, "c");
}

TEST(SessionFacadeTest, CompareIsTheExampleDifference) {
  Engine engine(SmallDb());
  ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
  ASSERT_OK(s->Derive("root", "hire", H("{ins(emp, {(4, 20)})}")));
  ASSERT_OK_AND_ASSIGN(Relation diff, s->Compare("hire", "root", Q("emp")));
  EXPECT_EQ(diff, Ints({{4, 20}}));
  ASSERT_OK_AND_ASSIGN(Relation none, s->Compare("root", "hire", Q("emp")));
  EXPECT_TRUE(none.empty());
}

TEST(SessionFacadeTest, SnapshotIsolationFromEngineAndSiblings) {
  Engine engine(SmallDb());
  ASSERT_OK_AND_ASSIGN(SessionPtr a, engine.CreateSession("a"));
  ASSERT_OK_AND_ASSIGN(SessionPtr b, engine.CreateSession("b"));
  ASSERT_OK(a->Derive("root", "x", H("{del(emp, emp)}")));

  // A sibling's scenarios and a base commit are both invisible.
  ASSERT_OK_AND_ASSIGN(UpdatePtr upd, ParseUpdate("ins(emp, {(9, 90)})"));
  ASSERT_OK(engine.Apply(upd));
  ASSERT_OK_AND_ASSIGN(Relation b_emp, b->Query("root", Q("emp")));
  EXPECT_EQ(b_emp.size(), 3u);
  EXPECT_EQ(b->NumNodes(), 1u);

  // Refresh adopts the new base.
  ASSERT_OK(b->Refresh());
  ASSERT_OK_AND_ASSIGN(Relation b_emp2, b->Query("root", Q("emp")));
  EXPECT_EQ(b_emp2.size(), 4u);
  EXPECT_EQ(b->snapshot_version(), engine.base_version());

  // Session a still reads its original snapshot.
  ASSERT_OK_AND_ASSIGN(Relation a_emp, a->Query("root", Q("emp")));
  EXPECT_EQ(a_emp.size(), 3u);
}

TEST(SessionFacadeTest, RefreshWithSchemaChangeNeedsBareTree) {
  Engine engine(SmallDb());
  ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
  ASSERT_OK(s->Derive("root", "a", H("{ins(emp, {(4, 20)})}")));
  ASSERT_OK(engine.DeclareRelation("bonus", 1));
  EXPECT_FALSE(s->Refresh().ok());
  ASSERT_OK(s->Drop("a"));
  ASSERT_OK(s->Refresh());
  EXPECT_TRUE(s->BaseSnapshot().schema().HasRelation("bonus"));
}

TEST(SessionFacadeTest, AllStrategiesAgreeOnTheTree) {
  Rng rng(20260808);
  Schema schema = PropertySchema();
  Database db = RandomDatabase(&rng, schema, 8, 8);
  Engine engine(db);
  AstGenOptions gen;
  gen.max_depth = 3;

  ASSERT_OK_AND_ASSIGN(SessionPtr reference, engine.CreateSession());
  for (int trial = 0; trial < 10; ++trial) {
    ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
    std::vector<std::string> names = {"root"};
    for (int n = 0; n < 4; ++n) {
      std::string child = "n" + std::to_string(n);
      const std::string& parent =
          names[static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(names.size()) - 1))];
      ASSERT_OK(s->Derive(parent, child, RandomHypo(&rng, schema, gen)));
      names.push_back(child);
    }
    QueryPtr q = RandomQuery(&rng, schema, 2, gen);
    const std::string& at =
        names[static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(names.size()) - 1))];
    ASSERT_OK(s->Set("profile", "default"));
    ASSERT_OK(s->Set("strategy", "direct"));
    auto expect = s->Query(at, q);
    for (const char* strategy :
         {"lazy", "filter1", "filter2", "filter3", "hybrid"}) {
      ASSERT_OK(s->Set("strategy", strategy));
      auto got = s->Query(at, q);
      ASSERT_EQ(got.ok(), expect.ok()) << strategy;
      if (got.ok()) {
        ASSERT_EQ(got.value(), expect.value()) << strategy;
      }
    }
  }
}

TEST(SessionFacadeTest, GovernorBudgetRejectsBlowups) {
  Engine engine(SmallDb());
  ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
  ASSERT_OK(s->Set("max_tuples", "4"));
  // The selection emits 9 tuples > 4 (bare products are view-backed and
  // uncharged; selections charge every produced tuple).
  auto r = s->Query("root", Q("sigma[$0 >= 0](emp x emp)"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  // Recovery: lifting the budget makes the same query run.
  ASSERT_OK(s->Set("max_tuples", "0"));
  ASSERT_OK_AND_ASSIGN(Relation big,
                       s->Query("root", Q("sigma[$0 >= 0](emp x emp)")));
  EXPECT_EQ(big.size(), 9u);
  EXPECT_GE(s->Stats().governor_tuple_trips, 1u);
}

TEST(SessionFacadeTest, CancelTripsInFlightAndFutureQueries) {
  Engine engine(SmallDb());
  ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
  s->Cancel();
  EXPECT_TRUE(s->cancelled());
  auto r = s->Query("root", Q("emp"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST(SessionFacadeTest, AnalyzeReportsTheSessionConfig) {
  Engine engine(SmallDb());
  ASSERT_OK_AND_ASSIGN(SessionPtr s, engine.CreateSession());
  ASSERT_OK(s->Derive("root", "hire", H("{ins(emp, {(4, 20)})}")));
  ASSERT_OK_AND_ASSIGN(AnalyzeReport report, s->Analyze("hire", Q("emp")));
  EXPECT_EQ(report.actual_rows, 4u);
  EXPECT_FALSE(report.exec.route.empty());
  // The analyzed execution's charges roll up into the session stats.
  EXPECT_FALSE(s->Stats().route.empty());
}

TEST(SessionFacadeTest, ConcurrentSessionsShareNothingObservable) {
  Engine engine(SmallDb());
  constexpr int kThreads = 8;
  std::vector<SessionPtr> sessions;
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_OK_AND_ASSIGN(SessionPtr s,
                         engine.CreateSession("t" + std::to_string(i)));
    sessions.push_back(std::move(s));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      Session& s = *sessions[static_cast<size_t>(i)];
      std::string mine = "mine" + std::to_string(i);
      HypoExprPtr edge =
          H("{ins(emp, {(" + std::to_string(100 + i) + ", 10)})}");
      if (!s.Derive("root", mine, edge).ok()) ++failures;
      for (int round = 0; round < 20; ++round) {
        auto r = s.Query(mine, Q("emp"));
        if (!r.ok() || r.value().size() != 4u) ++failures;
        auto base = s.Query("root", Q("emp"));
        if (!base.ok() || base.value().size() != 3u) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace hql
