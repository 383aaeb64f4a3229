// Per-execution observability: ExecContext scoping, charge routing, the
// deterministic family rollup, JSON round-tripping, and — the property the
// whole redesign exists for — two concurrent families each reporting
// exactly their own work (run under TSan in CI).

#include "common/exec_context.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "ast/builders.h"
#include "common/check.h"
#include "common/json.h"
#include "common/rng.h"
#include "opt/explain.h"
#include "opt/session.h"
#include "storage/view.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace hql {
namespace {

using namespace hql::dsl;  // NOLINT
using ::hql::testing::Ints;
using ::hql::testing::MakeSchema;

TEST(ExecContextTest, ScopesNestAndRestore) {
  EXPECT_EQ(CurrentExecContext(), nullptr);
  ExecContext outer;
  {
    ExecContextScope outer_scope(&outer);
    EXPECT_EQ(CurrentExecContext(), &outer);
    ExecContext inner;
    {
      ExecContextScope inner_scope(&inner);
      EXPECT_EQ(CurrentExecContext(), &inner);
      // nullptr shields: charges fall through to the process default.
      ExecContextScope shield(nullptr);
      EXPECT_EQ(CurrentExecContext(), nullptr);
      EXPECT_EQ(&AmbientExecContext(), &ProcessDefaultExecContext());
    }
    EXPECT_EQ(CurrentExecContext(), &outer);
  }
  EXPECT_EQ(CurrentExecContext(), nullptr);
}

TEST(ExecContextTest, ChargesLandOnInstalledContextNotProcessDefault) {
  ExecStats before = ProcessDefaultExecContext().Snapshot();
  ExecContext ctx;
  {
    ExecContextScope scope(&ctx);
    AmbientExecContext().AddViewCreated();
    AmbientExecContext().AddViewTuplesShared(7);
    AmbientExecContext().AddIndexProbe();
    AmbientExecContext().AddMemoHit();
    AmbientExecContext().AddGovernorTrip(GovernorTripKind::kDeadline);
  }
  ExecStats got = ctx.Snapshot();
  EXPECT_EQ(got.views_created, 1u);
  EXPECT_EQ(got.view_tuples_shared, 7u);
  EXPECT_EQ(got.index_probes, 1u);
  EXPECT_EQ(got.memo_hits, 1u);
  EXPECT_EQ(got.governor_deadline_trips, 1u);

  ExecStats after = ProcessDefaultExecContext().Snapshot();
  EXPECT_EQ(after.views_created, before.views_created);
  EXPECT_EQ(after.index_probes, before.index_probes);
  EXPECT_EQ(after.memo_hits, before.memo_hits);
}

TEST(ExecContextTest, ViewLayerChargesAmbientContext) {
  ExecContext ctx;
  ExecContextScope scope(&ctx);
  Relation base = Ints({{1, 2}, {3, 4}, {5, 6}});
  RelationView view(std::make_shared<Relation>(base));
  EXPECT_EQ(view.size(), 3u);
  ExecStats stats = ctx.Snapshot();
  EXPECT_GE(stats.views_created, 1u);
  EXPECT_GE(stats.view_tuples_shared, 3u);
}

TEST(ExecContextTest, MergeFromAddsCountersMaxesHighWatersKeepsFirstRoute) {
  ExecStats a;
  a.views_created = 2;
  a.governor_max_tuples_charged = 10;
  a.route = "lazy";
  a.spans.push_back({"select", "lazy", 5, 3, 11});
  ExecStats b;
  b.views_created = 3;
  b.governor_max_tuples_charged = 7;
  b.route = "eager";
  b.spans.push_back({"join", "eager", 9, 2, 13});

  ExecStats merged;
  merged.MergeFrom(a);
  merged.MergeFrom(b);
  EXPECT_EQ(merged.views_created, 5u);
  EXPECT_EQ(merged.governor_max_tuples_charged, 10u);
  EXPECT_EQ(merged.route, "lazy");  // first non-empty route wins
  ASSERT_EQ(merged.spans.size(), 2u);
  EXPECT_EQ(merged.spans[0].op, "select");
  EXPECT_EQ(merged.spans[1].op, "join");

  // Same inputs, same order: identical rollup.
  ExecStats again;
  again.MergeFrom(a);
  again.MergeFrom(b);
  EXPECT_EQ(again.views_created, merged.views_created);
  EXPECT_EQ(again.route, merged.route);
  EXPECT_EQ(again.spans.size(), merged.spans.size());
}

TEST(ExecContextTest, ToJsonParsesBackWithAllCounters) {
  ExecStats stats;
  stats.memo_hits = 3;
  stats.views_created = 4;
  stats.index_probes = 5;
  stats.governor_max_rewrite_nodes_charged = 6;
  stats.route = "hybrid-delta";
  stats.spans.push_back({"select-when", "delta", 100, 42, 17});

  ASSERT_OK_AND_ASSIGN(JsonPtr root, ParseJson(stats.ToJson()));
  ASSERT_TRUE(root->is_object());
  EXPECT_EQ(root->Get("schema")->string_value(), "hql-exec-stats/v1");
  EXPECT_EQ(root->Get("memo_hits")->number(), 3.0);
  EXPECT_EQ(root->Get("views_created")->number(), 4.0);
  EXPECT_EQ(root->Get("index_probes")->number(), 5.0);
  EXPECT_EQ(root->Get("governor_max_rewrite_nodes_charged")->number(), 6.0);
  EXPECT_EQ(root->Get("route")->string_value(), "hybrid-delta");
  const auto& spans = root->Get("spans")->items();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0]->Get("op")->string_value(), "select-when");
  EXPECT_EQ(spans[0]->Get("route")->string_value(), "delta");
  EXPECT_EQ(spans[0]->Get("rows_in")->number(), 100.0);
  EXPECT_EQ(spans[0]->Get("rows_out")->number(), 42.0);
}

TEST(ExecContextTest, TraceSpanRecordsOnlyWhenTracingIsOn) {
  ExecContext ctx;
  ExecContextScope scope(&ctx);
  {
    TraceSpan span("select", 10);
    EXPECT_FALSE(span.active());
    span.set_rows_out(4);
  }
  EXPECT_TRUE(ctx.Snapshot().spans.empty());

  ctx.set_tracing(true);
  {
    ExecRouteScope route("lazy");
    TraceSpan span("select", 10);
    EXPECT_TRUE(span.active());
    span.set_rows_out(4);
  }
  ExecStats stats = ctx.Snapshot();
  ASSERT_EQ(stats.spans.size(), 1u);
  EXPECT_EQ(stats.spans[0].op, "select");
  EXPECT_EQ(stats.spans[0].route, "lazy");
  EXPECT_EQ(stats.spans[0].rows_in, 10u);
  EXPECT_EQ(stats.spans[0].rows_out, 4u);
}

TEST(ExecContextTest, ResetZeroesEveryCounterRouteAndSpan) {
  ExecContext ctx;
  ctx.set_tracing(true);
  ctx.AddMemoHit();
  ctx.AddViewCreated();
  ctx.AddIndexProbe();
  ctx.AddColumnarMorselsDispatched(3);
  ctx.AddIncrementalFallback();
  ctx.AddLazyFallback();
  ctx.NoteRoute("lazy");
  ctx.RecordSpan(OperatorSpan{});
  ASSERT_NE(ctx.Snapshot().ToJson(), ExecContext().Snapshot().ToJson());
  ctx.Reset();
  EXPECT_EQ(ctx.Snapshot().ToJson(), ExecContext().Snapshot().ToJson());
}

// ---------------------------------------------------------------------------
// Family-level accounting.

class FamilyStatsTest : public ::testing::Test {
 protected:
  // A deterministic E9-style family: `alts` leaf deletions over R.
  std::vector<HypoExprPtr> FamilyStates(int alts, int64_t offset) {
    std::vector<HypoExprPtr> states;
    for (int i = 0; i < alts; ++i) {
      int64_t lo = offset + i * 10;
      states.push_back(Upd(Del(
          "R", Sel(And(Ge(Col(0), Int(lo)), Lt(Col(0), Int(lo + 10))),
                   Rel("R")))));
    }
    return states;
  }

  Database MakeDb(uint64_t seed, size_t rows) {
    Schema schema = MakeSchema({{"R", 2}, {"S", 2}});
    Rng rng(seed);
    Database db(schema);
    HQL_CHECK(db.Set("R", GenRelation(&rng, rows, 2, 200)).ok());
    HQL_CHECK(db.Set("S", GenRelation(&rng, rows, 2, 200)).ok());
    return db;
  }

  QueryPtr FamilyQuery() { return Sel(Ge(Col(0), Int(100)), Rel("R")); }
};

TEST_F(FamilyStatsTest, SlotAndFamilyStatsAreDeterministicAcrossThreadCounts) {
  Database db = MakeDb(11, 400);
  std::vector<HypoExprPtr> states = FamilyStates(6, 0);
  QueryPtr query = FamilyQuery();

  auto run = [&](size_t threads, std::vector<ExecStats>* slots,
                 ExecStats* family) {
    ExecContext ctx;
    ExecContextScope scope(&ctx);
    AlternativesOptions options;
    options.strategy = Strategy::kFilter2;
    options.num_threads = threads;
    options.slot_stats = slots;
    options.family_stats = family;
    std::vector<Result<Relation>> out =
        EvalAlternativesPartial(query, states, db, db.schema(), options);
    for (const auto& r : out) EXPECT_OK(r.status());
  };

  std::vector<ExecStats> serial_slots, pooled_slots;
  ExecStats serial_family, pooled_family;
  run(1, &serial_slots, &serial_family);
  run(4, &pooled_slots, &pooled_family);

  ASSERT_EQ(serial_slots.size(), states.size());
  ASSERT_EQ(pooled_slots.size(), states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    EXPECT_EQ(serial_slots[i].views_created, pooled_slots[i].views_created)
        << "slot " << i;
    EXPECT_EQ(serial_slots[i].view_tuples_shared,
              pooled_slots[i].view_tuples_shared)
        << "slot " << i;
  }
  EXPECT_EQ(serial_family.views_created, pooled_family.views_created);
  EXPECT_EQ(serial_family.view_tuples_shared,
            pooled_family.view_tuples_shared);
}

TEST_F(FamilyStatsTest, FamilyRollupMergesIntoCallersAmbientContext) {
  Database db = MakeDb(13, 200);
  std::vector<HypoExprPtr> states = FamilyStates(3, 0);

  ExecContext ctx;
  ExecStats family;
  {
    ExecContextScope scope(&ctx);
    AlternativesOptions options;
    options.strategy = Strategy::kFilter2;
    options.num_threads = 2;
    options.family_stats = &family;
    std::vector<Result<Relation>> out = EvalAlternativesPartial(
        FamilyQuery(), states, db, db.schema(), options);
    for (const auto& r : out) EXPECT_OK(r.status());
  }
  EXPECT_GT(family.views_created, 0u);
  ExecStats ambient = ctx.Snapshot();
  EXPECT_GE(ambient.views_created, family.views_created);
  EXPECT_GE(ambient.view_tuples_shared, family.view_tuples_shared);
}

// The tentpole property: two families running concurrently on separate
// threads, each under its own caller-installed ExecContext, report exactly
// the stats of their own (disjoint) workload — verified by comparing
// against the same workloads run serially. Under TSan this also proves the
// charge paths race-free.
TEST_F(FamilyStatsTest, ConcurrentFamiliesAreIsolated) {
  Database small_db = MakeDb(17, 120);
  Database big_db = MakeDb(19, 900);
  QueryPtr query = FamilyQuery();
  std::vector<HypoExprPtr> small_states = FamilyStates(3, 0);
  std::vector<HypoExprPtr> big_states = FamilyStates(8, 40);

  auto run_family = [&](const Database& db,
                        const std::vector<HypoExprPtr>& states) {
    ExecContext ctx;
    ExecContextScope scope(&ctx);
    AlternativesOptions options;
    options.strategy = Strategy::kFilter2;
    options.num_threads = 2;
    std::vector<Result<Relation>> out =
        EvalAlternativesPartial(query, states, db, db.schema(), options);
    for (const auto& r : out) EXPECT_OK(r.status());
    return ctx.Snapshot();
  };

  // Serial baselines.
  ExecStats small_base = run_family(small_db, small_states);
  ExecStats big_base = run_family(big_db, big_states);
  // Disjoint workloads really differ — otherwise isolation is vacuous.
  ASSERT_NE(small_base.view_tuples_shared, big_base.view_tuples_shared);

  // The same two workloads, concurrently.
  ExecStats small_run, big_run;
  std::thread small_thread(
      [&] { small_run = run_family(small_db, small_states); });
  std::thread big_thread([&] { big_run = run_family(big_db, big_states); });
  small_thread.join();
  big_thread.join();

  EXPECT_EQ(small_run.views_created, small_base.views_created);
  EXPECT_EQ(small_run.view_tuples_shared, small_base.view_tuples_shared);
  EXPECT_EQ(small_run.view_tuples_copied, small_base.view_tuples_copied);
  EXPECT_EQ(big_run.views_created, big_base.views_created);
  EXPECT_EQ(big_run.view_tuples_shared, big_base.view_tuples_shared);
  EXPECT_EQ(big_run.view_tuples_copied, big_base.view_tuples_copied);
}

}  // namespace
}  // namespace hql
