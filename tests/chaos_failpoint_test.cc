// Fault-injection chaos sweep: every strategy x every failpoint site x
// fire-after-K and seeded-probability arming. Each governed run must either
// return the bit-identical un-failpointed result or a clean kCancelled /
// kResourceExhausted — never a crash, a hang, or a silently corrupted
// relation. Armed runs are executed twice with identical arming to pin down
// determinism of the injection itself.
//
// Failpoints compile to no-ops under NDEBUG (the default Release build); in
// that configuration every armed run simply matches the reference and this
// sweep degenerates to a strategy-agreement test, which is still a valid
// (if weaker) pass. CI runs it in Debug where the sites actually fire.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ast/builders.h"
#include "common/failpoint.h"
#include "common/governor.h"
#include "common/rng.h"
#include "eval/direct.h"
#include "eval/memo.h"
#include "opt/alternatives.h"
#include "opt/planner.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace hql {
namespace {

using namespace hql::dsl;  // NOLINT

constexpr Strategy kAllStrategies[] = {
    Strategy::kDirect,  Strategy::kLazy,    Strategy::kFilter1,
    Strategy::kFilter2, Strategy::kFilter3, Strategy::kHybrid,
};

Database ChaosDb() {
  Rng rng(4241);
  Schema schema;
  HQL_CHECK(schema.AddRelation("R", 2).ok());
  HQL_CHECK(schema.AddRelation("S", 2).ok());
  Database db(schema);
  HQL_CHECK(db.Set("R", GenRelation(&rng, 200, 2, 150)).ok());
  HQL_CHECK(db.Set("S", GenRelation(&rng, 200, 2, 150)).ok());
  return db;
}

// A hypothetical query exercising deltas, joins and inserts; its state is a
// chain of atomic updates so every strategy (including HQL-3) can run it.
QueryPtr ChaosQuery() {
  HypoExprPtr state = Upd(Seq(
      Del("R", Sel(Lt(Col(0), Int(40)), Rel("R"))),
      Ins("R", Proj({0, 1}, Join(Eq(Col(0), Col(2)), Rel("S"), Rel("S"))))));
  return When(Sel(Ge(Col(0), Int(30)), Rel("R")), state);
}

// One governed execution's outcome: a relation or a status code.
struct Outcome {
  bool ok = false;
  Relation relation{0};
  StatusCode code = StatusCode::kOk;
  std::string message;

  bool SameAs(const Outcome& other) const {
    if (ok != other.ok) return false;
    return ok ? relation == other.relation : code == other.code;
  }
  std::string Describe() const {
    return ok ? "ok(" + std::to_string(relation.size()) + " tuples)"
              : std::string(StatusCodeName(code)) + ": " + message;
  }
};

Outcome RunGoverned(const QueryPtr& query, const Database& db,
                    Strategy strategy) {
  MemoCache memo;  // fresh per run: exercises the memo.insert site
  PlannerOptions options;
  options.memo = &memo;
  // A (never-cancelled) token forces governor installation so fired sites
  // surface as clean errors instead of silent counters.
  options.cancel_token = std::make_shared<CancelToken>();
  Result<Relation> result =
      Execute(query, db, db.schema(), strategy, options);
  Outcome out;
  out.ok = result.ok();
  if (result.ok()) {
    out.relation = std::move(result).value();
  } else {
    out.code = result.status().code();
    out.message = result.status().message();
  }
  return out;
}

TEST(ChaosFailPointTest, EveryStrategySurvivesEveryArmedSite) {
  DisarmAllFailPoints();
  Database db = ChaosDb();
  QueryPtr query = ChaosQuery();
  // The site matrix is derived from the registry, never hard-coded: a site
  // added to HQL_FAILPOINT_SITE_LIST enters this sweep automatically.
  std::vector<std::string> sites = RegisteredFailPointSites();
  ASSERT_GE(sites.size(), 7u);

  // Both trip codes, both arming modes, two seeds for the probability mode.
  const std::vector<FailPointSpec> specs = {
      FailPointSpec::AfterN(0, StatusCode::kResourceExhausted),
      FailPointSpec::AfterN(2, StatusCode::kCancelled),
      FailPointSpec::Probability(0.9, 7, StatusCode::kResourceExhausted),
      FailPointSpec::Probability(0.9, 1234, StatusCode::kCancelled),
  };

  for (Strategy strategy : kAllStrategies) {
    Outcome reference = RunGoverned(query, db, strategy);
    ASSERT_TRUE(reference.ok)
        << StrategyName(strategy) << ": " << reference.Describe();

    for (const std::string& site : sites) {
      for (size_t si = 0; si < specs.size(); ++si) {
        std::string label = std::string(StrategyName(strategy)) + "/" +
                            site + "/spec" + std::to_string(si);
        // Identical arming twice: the injection itself must be
        // deterministic on this single-threaded path.
        ArmFailPoint(site, specs[si]);
        Outcome first = RunGoverned(query, db, strategy);
        ArmFailPoint(site, specs[si]);
        Outcome second = RunGoverned(query, db, strategy);
        DisarmFailPoint(site);

        EXPECT_TRUE(first.SameAs(second))
            << label << ": " << first.Describe() << " vs "
            << second.Describe();
        for (const Outcome& out : {first, second}) {
          if (out.ok) {
            // Survived the injection: the result must be bit-identical,
            // never silently truncated or corrupted.
            EXPECT_EQ(out.relation, reference.relation) << label;
          } else {
            EXPECT_TRUE(out.code == StatusCode::kCancelled ||
                        out.code == StatusCode::kResourceExhausted)
                << label << ": " << out.Describe();
          }
        }
      }
    }
  }
  DisarmAllFailPoints();
}

// Columnar execution under injection: with the vectorized route enabled
// (thresholds forced down so it actually engages on the small chaos data),
// every strategy armed on the batch-build site must either degrade to the
// row kernels and return the bit-identical columnar-off result, or fail
// with a clean governed error — never a truncated or corrupted relation.
TEST(ChaosFailPointTest, ColumnarDegradesCleanlyUnderBatchBuildFailure) {
  DisarmAllFailPoints();
  Database db = ChaosDb();
  QueryPtr query = ChaosQuery();

  auto run = [&](Strategy strategy, ColumnarMode mode) {
    PlannerOptions options;
    options.columnar_mode = mode;
    options.columnar_min_rows = 1;
    options.columnar_morsel_rows = 64;
    options.columnar_threads = 1;
    options.cancel_token = std::make_shared<CancelToken>();
    Result<Relation> result =
        Execute(query, db, db.schema(), strategy, options);
    Outcome out;
    out.ok = result.ok();
    if (result.ok()) {
      out.relation = std::move(result).value();
    } else {
      out.code = result.status().code();
      out.message = result.status().message();
    }
    return out;
  };

  const std::vector<FailPointSpec> specs = {
      FailPointSpec::AfterN(0, StatusCode::kResourceExhausted),
      FailPointSpec::AfterN(1, StatusCode::kCancelled),
      FailPointSpec::Probability(0.9, 7, StatusCode::kResourceExhausted),
  };

  for (Strategy strategy : kAllStrategies) {
    Outcome reference = run(strategy, ColumnarMode::kOff);
    ASSERT_TRUE(reference.ok)
        << StrategyName(strategy) << ": " << reference.Describe();
    // Un-failpointed columnar-on agrees bit-identically with columnar-off.
    Outcome columnar = run(strategy, ColumnarMode::kAuto);
    ASSERT_TRUE(columnar.ok)
        << StrategyName(strategy) << ": " << columnar.Describe();
    EXPECT_EQ(columnar.relation, reference.relation)
        << StrategyName(strategy);

    for (size_t si = 0; si < specs.size(); ++si) {
      std::string label = std::string(StrategyName(strategy)) + "/spec" +
                          std::to_string(si);
      ArmFailPoint(kFailPointColumnBatchBuild, specs[si]);
      Outcome armed = run(strategy, ColumnarMode::kAuto);
      DisarmFailPoint(kFailPointColumnBatchBuild);
      if (armed.ok) {
        EXPECT_EQ(armed.relation, reference.relation) << label;
      } else {
        EXPECT_TRUE(armed.code == StatusCode::kCancelled ||
                    armed.code == StatusCode::kResourceExhausted)
            << label << ": " << armed.Describe();
      }
    }
  }
  DisarmAllFailPoints();
}

// Vectorized aggregation under injection: the same arming as above, but on
// an aggregate-over-when plan so the batch-build fire lands inside the
// columnar-aggregate route (TryColumnarAggregate). Degradation must reach
// the row aggregate bit-identically or fail with a clean governed error.
TEST(ChaosFailPointTest, ColumnarAggregateDegradesCleanlyUnderBatchBuildFailure) {
  DisarmAllFailPoints();
  Database db = ChaosDb();
  HypoExprPtr state =
      Upd(Seq(Del("R", Sel(Lt(Col(0), Int(40)), Rel("R"))),
              Ins("R", Single(hql::testing::IntRow({3, 9})))));
  QueryPtr query =
      When(Agg({0}, AggFunc::kSum, 1, Sel(Ge(Col(0), Int(2)), Rel("R"))),
           state);

  auto run = [&](Strategy strategy, ColumnarMode mode) {
    PlannerOptions options;
    options.columnar_mode = mode;
    options.columnar_min_rows = 1;
    options.columnar_morsel_rows = 64;
    options.columnar_threads = 1;
    options.cancel_token = std::make_shared<CancelToken>();
    Result<Relation> result =
        Execute(query, db, db.schema(), strategy, options);
    Outcome out;
    out.ok = result.ok();
    if (result.ok()) {
      out.relation = std::move(result).value();
    } else {
      out.code = result.status().code();
      out.message = result.status().message();
    }
    return out;
  };

  const std::vector<FailPointSpec> specs = {
      FailPointSpec::AfterN(0, StatusCode::kResourceExhausted),
      FailPointSpec::AfterN(1, StatusCode::kCancelled),
      FailPointSpec::Probability(0.9, 7, StatusCode::kResourceExhausted),
  };

  for (Strategy strategy : kAllStrategies) {
    Outcome reference = run(strategy, ColumnarMode::kOff);
    ASSERT_TRUE(reference.ok)
        << StrategyName(strategy) << ": " << reference.Describe();
    Outcome columnar = run(strategy, ColumnarMode::kAuto);
    ASSERT_TRUE(columnar.ok)
        << StrategyName(strategy) << ": " << columnar.Describe();
    EXPECT_EQ(columnar.relation, reference.relation)
        << StrategyName(strategy);

    for (size_t si = 0; si < specs.size(); ++si) {
      std::string label = std::string(StrategyName(strategy)) + "/spec" +
                          std::to_string(si);
      ArmFailPoint(kFailPointColumnBatchBuild, specs[si]);
      Outcome armed = run(strategy, ColumnarMode::kAuto);
      DisarmFailPoint(kFailPointColumnBatchBuild);
      if (armed.ok) {
        EXPECT_EQ(armed.relation, reference.relation) << label;
      } else {
        EXPECT_TRUE(armed.code == StatusCode::kCancelled ||
                    armed.code == StatusCode::kResourceExhausted)
            << label << ": " << armed.Describe();
      }
    }
  }
  DisarmAllFailPoints();
}

// Incremental patching under injection: warm the incremental cache on a
// base state, edit it by a small overlay delta, then arm the memo.patch
// site and re-execute. Every strategy must either return the bit-identical
// from-scratch result for the edited state (ungoverned fires, or the
// estimator choosing recompute) or fail with a clean governed error —
// never a half-patched relation.
TEST(ChaosFailPointTest, IncrementalPatchDegradesCleanlyUnderPatchFailure) {
  DisarmAllFailPoints();
  Database base = ChaosDb();
  QueryPtr query = ChaosQuery();
  // A small overlay edit: the second execution sees the same shared base
  // relations plus a few-tuple delta — exactly the regime the incremental
  // route patches.
  Result<Database> edited_or = ExecUpdate(
      Seq(Ins("R", Single(hql::testing::IntRow({7, 7}))),
          Del("S", Sel(Lt(Col(0), Int(3)), Rel("S")))),
      base);
  ASSERT_OK(edited_or.status());
  Database edited = std::move(edited_or).value();

  auto run = [&](const Database& db, IncrementalCache* cache,
                 Strategy strategy) {
    PlannerOptions options;
    if (cache != nullptr) {
      options.incremental_mode = IncrementalMode::kAuto;
      options.incremental_cache = cache;
    }
    options.cancel_token = std::make_shared<CancelToken>();
    Result<Relation> result =
        Execute(query, db, db.schema(), strategy, options);
    Outcome out;
    out.ok = result.ok();
    if (result.ok()) {
      out.relation = std::move(result).value();
    } else {
      out.code = result.status().code();
      out.message = result.status().message();
    }
    return out;
  };

  const std::vector<FailPointSpec> specs = {
      FailPointSpec::AfterN(0, StatusCode::kResourceExhausted),
      FailPointSpec::AfterN(0, StatusCode::kCancelled),
      FailPointSpec::Probability(0.9, 7, StatusCode::kResourceExhausted),
  };

  for (Strategy strategy : kAllStrategies) {
    Outcome reference = run(edited, nullptr, strategy);
    ASSERT_TRUE(reference.ok)
        << StrategyName(strategy) << ": " << reference.Describe();

    for (size_t si = 0; si < specs.size(); ++si) {
      std::string label = std::string(StrategyName(strategy)) + "/spec" +
                          std::to_string(si);
      IncrementalCache cache;
      // Warm: record the pre-edit execution into the incremental cache.
      Outcome warm = run(base, &cache, strategy);
      ASSERT_TRUE(warm.ok) << label << ": " << warm.Describe();

      ArmFailPoint(kFailPointMemoPatch, specs[si]);
      Outcome armed = run(edited, &cache, strategy);
      DisarmFailPoint(kFailPointMemoPatch);
      if (armed.ok) {
        EXPECT_EQ(armed.relation, reference.relation) << label;
      } else {
        EXPECT_TRUE(armed.code == StatusCode::kCancelled ||
                    armed.code == StatusCode::kResourceExhausted)
            << label << ": " << armed.Describe();
      }
    }
  }
  DisarmAllFailPoints();
}

// The thread-pool fan-out under injection: slots either match the family's
// un-failpointed values or carry a clean governed error; the pool itself
// must neither crash nor hang. (No pairwise determinism assertion here —
// hit interleaving across workers is scheduling-dependent.)
TEST(ChaosFailPointTest, AlternativesFamilySurvivesArmedSites) {
  DisarmAllFailPoints();
  Database db = ChaosDb();
  QueryPtr query = Sel(Ge(Col(0), Int(30)), Rel("R"));
  std::vector<HypoExprPtr> states;
  states.push_back(nullptr);
  for (int i = 0; i < 3; ++i) {
    int64_t lo = 20 + 30 * i;
    states.push_back(Upd(Del(
        "R", Sel(And(Ge(Col(0), Int(lo)), Lt(Col(0), Int(lo + 25))),
                 Rel("R")))));
  }

  AlternativesOptions options;
  options.num_threads = 4;
  std::vector<Result<Relation>> reference =
      EvalAlternativesPartial(query, states, db, db.schema(), options);
  ASSERT_EQ(reference.size(), states.size());
  for (const Result<Relation>& r : reference) ASSERT_OK(r.status());

  for (const std::string& site : RegisteredFailPointSites()) {
    for (uint64_t seed : {uint64_t{11}, uint64_t{97}}) {
      ArmFailPoint(site, FailPointSpec::Probability(
                             0.5, seed, StatusCode::kResourceExhausted));
      std::vector<Result<Relation>> armed =
          EvalAlternativesPartial(query, states, db, db.schema(), options);
      DisarmFailPoint(site);
      ASSERT_EQ(armed.size(), states.size());
      for (size_t i = 0; i < armed.size(); ++i) {
        std::string label = site + "/seed" + std::to_string(seed) +
                            "/alt" + std::to_string(i);
        if (armed[i].ok()) {
          EXPECT_EQ(armed[i].value(), reference[i].value()) << label;
        } else {
          StatusCode code = armed[i].status().code();
          EXPECT_TRUE(code == StatusCode::kCancelled ||
                      code == StatusCode::kResourceExhausted)
              << label << ": " << armed[i].status().ToString();
        }
      }
    }
  }
  DisarmAllFailPoints();
}

// ---------------------------------------------------------------------------
// Failpoint mechanics (deterministic only where the sites are compiled in).
// ---------------------------------------------------------------------------

// The enumeration must cover exactly the declared catalog: every constant
// generated from HQL_FAILPOINT_SITE_LIST appears once, with no duplicates
// and no extras — so a site added to the list can never be silently absent
// from registry-derived sweeps, and a removed site cannot linger.
TEST(FailPointMechanicsTest, RegistryEnumeratesEveryDeclaredSite) {
  std::vector<std::string> sites = RegisteredFailPointSites();
  std::set<std::string> unique(sites.begin(), sites.end());
  EXPECT_EQ(unique.size(), sites.size()) << "duplicate site names";

  size_t declared = 0;
#define HQL_EXPECT_SITE_LISTED(ident, name)             \
  EXPECT_EQ(unique.count(ident), 1u) << #ident << " (" << ident \
                                     << ") missing from registry";   \
  ++declared;
  HQL_FAILPOINT_SITE_LIST(HQL_EXPECT_SITE_LISTED)
#undef HQL_EXPECT_SITE_LISTED
  EXPECT_EQ(sites.size(), declared);
}

#ifndef NDEBUG

TEST(FailPointMechanicsTest, AfterNSkipsThenFiresEveryLaterHit) {
  DisarmAllFailPoints();
  ArmFailPoint(kFailPointTupleAppend, FailPointSpec::AfterN(2));
  ExecGovernor gov;
  GovernorScope scope(&gov);
  for (int i = 0; i < 5; ++i) {
    (void)Relation::FromTuples(1, {hql::testing::IntRow({i})});
  }
  // Hits 1 and 2 skip; hits 3, 4, 5 fire.
  EXPECT_EQ(FailPointFireCount(kFailPointTupleAppend), 3u);
  EXPECT_TRUE(gov.tripped());
  EXPECT_EQ(gov.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(gov.status().message().find(kFailPointTupleAppend),
            std::string::npos);
  DisarmAllFailPoints();
}

TEST(FailPointMechanicsTest, ProbabilityIsDeterministicPerSeed) {
  DisarmAllFailPoints();
  auto run = [] {
    ArmFailPoint(kFailPointTupleAppend, FailPointSpec::Probability(0.5, 42));
    // No ambient governor: fires only count, nothing trips.
    for (int i = 0; i < 200; ++i) {
      (void)Relation::FromTuples(1, {hql::testing::IntRow({i})});
    }
    return FailPointFireCount(kFailPointTupleAppend);
  };
  uint64_t first = run();
  uint64_t second = run();
  EXPECT_EQ(first, second);
  EXPECT_GT(first, 40u);   // p=0.5 over 200 hits
  EXPECT_LT(first, 160u);
  DisarmAllFailPoints();
}

TEST(FailPointMechanicsTest, DisarmedSitesNeverFire) {
  DisarmAllFailPoints();
  ExecGovernor gov;
  GovernorScope scope(&gov);
  (void)Relation::FromTuples(1, {hql::testing::IntRow({1})});
  EXPECT_FALSE(gov.tripped());
}

#else  // NDEBUG: the macro compiles to nothing, armed or not.

TEST(FailPointMechanicsTest, SitesAreCompiledOutInRelease) {
  DisarmAllFailPoints();
  ArmFailPoint(kFailPointTupleAppend, FailPointSpec::AfterN(0));
  ExecGovernor gov;
  GovernorScope scope(&gov);
  (void)Relation::FromTuples(1, {hql::testing::IntRow({1})});
  EXPECT_EQ(FailPointFireCount(kFailPointTupleAppend), 0u);
  EXPECT_FALSE(gov.tripped());
  DisarmAllFailPoints();
}

#endif

}  // namespace
}  // namespace hql
