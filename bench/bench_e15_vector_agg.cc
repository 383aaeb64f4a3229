// E15 — Vectorized aggregation and columnar-aware when kernels.
//
// The aggregation kernel's target workload: gamma over a 1M-row flat base,
// the row kernel's Value-hashed std::unordered_map against the flat
// packed-int64 group table with type-specialized accumulation loops
// (eval/vector_exec.h TryColumnarAggregate), plus the global-aggregate
// SIMD reduction and the columnar-when routing of a small scenario delta.
//
// Rows (1M-row base, ~65k groups):
//   AggRow             gamma[$0; sum($1)](R), row kernel (Tuple-keyed hash,
//                      boxed Value accumulation).
//   AggColumnar        the same through the flat group table, inline
//                      morsels (threads=1; speedup is typed loops, not
//                      parallelism).
//   AggColumnarMorsel  the same, morsel-parallel across the pool.
//   AggCount/Min       count and min through the same table.
//   GlobalSumRow       gamma[; sum($1)](R), row kernel.
//   GlobalSumSimd      the same, del-free segments reduced at vector width
//                      (SimdSumInt64; "simd" counter reports the tier).
//   WhenAggRow         the aggregate under a small overlay delta, row path.
//   WhenAggColumnar    the same routed through the batch with the overlay
//                      patched in row-wise (tentpole (b)).
//
// Setup asserts bit-identical results between the vectorized and row routes
// before timing anything, so the speedup is never purchased with a wrong
// answer. Run with --json to write BENCH_e15_vector_agg.json plus the
// ExecStats sidecar (columnar_agg_* counters included).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "ast/builders.h"
#include "bench/bench_util.h"
#include "common/check.h"
#include "common/exec_context.h"
#include "eval/ra_eval.h"
#include "eval/simd.h"
#include "eval/vector_exec.h"
#include "storage/relation.h"
#include "storage/view.h"
#include "workload/generators.h"

namespace hql {
namespace {

using namespace hql::dsl;  // NOLINT

constexpr size_t kBaseRows = 1000000;
constexpr int64_t kKeyDomain = 65536;  // ~65k groups over 1M rows

struct Fixture {
  RelationPtr base;
  RelationView base_view;
  RelationView overlay_view{0};

  Fixture()
      : base(std::make_shared<Relation>([] {
          Rng rng(23);
          return GenRelation(&rng, kBaseRows, 2, kKeyDomain);
        }())),
        base_view(base) {
    // A small scenario delta (~0.5% of the base): the when-kernel regime.
    Rng rng(29);
    Relation dels = SampleFraction(&rng, *base, 0.003);
    Relation adds = GenRelation(&rng, 2000, 2, kKeyDomain);
    overlay_view =
        RelationView::Overlay(base, adds.tuples(), dels.tuples());
  }
};

Fixture& SharedFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

PhysicalPolicy Config(size_t threads) {
  PhysicalPolicy config;
  config.columnar_mode = ColumnarMode::kAuto;
  config.columnar_threads = threads;
  return config;
}

const std::vector<size_t> kGroupCols = {0};
constexpr size_t kAggCol = 1;

// Asserted once per benchmark family: the vectorized route engages on this
// shape and returns the bit-identical relation the row kernel computes.
void CheckAggIdentity(const RelationView& view, AggFunc func,
                      const std::vector<size_t>& cols,
                      const PhysicalPolicy& config) {
  auto columnar = TryColumnarAggregate(view, cols, func, kAggCol, config);
  HQL_CHECK_MSG(columnar.has_value(),
                "columnar aggregate must engage on the 1M-row base");
  Relation row = AggregateRelation(view, cols, func, kAggCol);
  HQL_CHECK_MSG(*columnar == row,
                "columnar and row aggregates must agree bit-identically");
  HQL_CHECK_MSG(!row.empty(), "the workload must be non-trivial");
}

void ExportAggCounters(benchmark::State& state, const ExecStats& before) {
  ExecStats after = AmbientExecContext().Snapshot();
  state.counters["morsels"] = static_cast<double>(
      after.columnar_morsels_dispatched - before.columnar_morsels_dispatched);
  state.counters["agg_rows_vectorized"] = static_cast<double>(
      after.columnar_agg_rows_vectorized - before.columnar_agg_rows_vectorized);
  state.counters["agg_groups"] = static_cast<double>(
      after.columnar_agg_groups - before.columnar_agg_groups);
  state.counters["rows_fallback"] = static_cast<double>(
      after.columnar_rows_fallback - before.columnar_rows_fallback);
  // 2 = avx2, 1 = sse4, 0 = scalar (the forced-scalar CI gate sees 0).
  const char* isa = SimdIsaName();
  state.counters["simd"] = isa[0] == 'a' ? 2 : (isa[0] == 's' && isa[1] == 's'
                                                    ? 1
                                                    : 0);
}

void BM_AggRow(benchmark::State& state) {
  Fixture& fx = SharedFixture();
  uint64_t total = 0;
  for (auto _ : state) {
    total +=
        AggregateRelation(fx.base_view, kGroupCols, AggFunc::kSum, kAggCol)
            .size();
  }
  state.counters["result_tuples"] = static_cast<double>(total);
}

void RunAggColumnar(benchmark::State& state, AggFunc func, size_t threads) {
  PhysicalPolicy config = Config(threads);
  Fixture& fx = SharedFixture();
  CheckAggIdentity(fx.base_view, func, kGroupCols, config);
  ExecStats before = AmbientExecContext().Snapshot();
  uint64_t total = 0;
  for (auto _ : state) {
    total += VectorizedAggregate(fx.base_view, kGroupCols, func, kAggCol,
                                 config)
                 .size();
  }
  state.counters["result_tuples"] = static_cast<double>(total);
  ExportAggCounters(state, before);
}

void BM_AggColumnar(benchmark::State& state) {
  RunAggColumnar(state, AggFunc::kSum, /*threads=*/1);
}
void BM_AggColumnarMorsel(benchmark::State& state) {
  RunAggColumnar(state, AggFunc::kSum, /*threads=*/0);
}
void BM_AggCountColumnar(benchmark::State& state) {
  RunAggColumnar(state, AggFunc::kCount, /*threads=*/1);
}
void BM_AggMinColumnar(benchmark::State& state) {
  RunAggColumnar(state, AggFunc::kMin, /*threads=*/1);
}

void BM_GlobalSumRow(benchmark::State& state) {
  Fixture& fx = SharedFixture();
  uint64_t total = 0;
  for (auto _ : state) {
    total += AggregateRelation(fx.base_view, {}, AggFunc::kSum, kAggCol)
                 .size();
  }
  state.counters["result_tuples"] = static_cast<double>(total);
}

void BM_GlobalSumSimd(benchmark::State& state) {
  PhysicalPolicy config = Config(/*threads=*/1);
  Fixture& fx = SharedFixture();
  CheckAggIdentity(fx.base_view, AggFunc::kSum, {}, config);
  ExecStats before = AmbientExecContext().Snapshot();
  uint64_t total = 0;
  for (auto _ : state) {
    total += VectorizedAggregate(fx.base_view, {}, AggFunc::kSum, kAggCol,
                                 config)
                 .size();
  }
  state.counters["result_tuples"] = static_cast<double>(total);
  ExportAggCounters(state, before);
}

// The when-kernel regime: the same aggregate under a small scenario delta.
// The row path streams (base - D) u I per tuple; the columnar path scans
// the cached batch and patches the overlay in row-wise.
void BM_WhenAggRow(benchmark::State& state) {
  Fixture& fx = SharedFixture();
  uint64_t total = 0;
  for (auto _ : state) {
    total += AggregateRelation(fx.overlay_view, kGroupCols, AggFunc::kSum,
                               kAggCol)
                 .size();
  }
  state.counters["result_tuples"] = static_cast<double>(total);
}

void BM_WhenAggColumnar(benchmark::State& state) {
  PhysicalPolicy config = Config(/*threads=*/1);
  Fixture& fx = SharedFixture();
  CheckAggIdentity(fx.overlay_view, AggFunc::kSum, kGroupCols, config);
  ExecStats before = AmbientExecContext().Snapshot();
  uint64_t total = 0;
  for (auto _ : state) {
    total += VectorizedAggregate(fx.overlay_view, kGroupCols, AggFunc::kSum,
                                 kAggCol, config)
                 .size();
  }
  state.counters["result_tuples"] = static_cast<double>(total);
  ExportAggCounters(state, before);
}

BENCHMARK(BM_AggRow)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AggColumnar)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AggColumnarMorsel)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AggCountColumnar)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AggMinColumnar)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GlobalSumRow)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GlobalSumSimd)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WhenAggRow)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WhenAggColumnar)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hql

HQL_BENCH_MAIN(e15_vector_agg)
