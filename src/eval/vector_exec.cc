#include "eval/vector_exec.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/exec_context.h"
#include "common/governor.h"
#include "common/thread_pool.h"
#include "eval/index_exec.h"
#include "eval/ra_eval.h"
#include "eval/simd.h"

namespace hql {

namespace {

// ---------------------------------------------------------------------------
// Predicate compilation
// ---------------------------------------------------------------------------

bool IsComparison(ScalarOp op) {
  switch (op) {
    case ScalarOp::kEq:
    case ScalarOp::kNe:
    case ScalarOp::kLt:
    case ScalarOp::kLe:
    case ScalarOp::kGt:
    case ScalarOp::kGe:
      return true;
    default:
      return false;
  }
}

// `lit OP col` rewritten as `col OP' lit`.
ScalarOp FlipComparison(ScalarOp op) {
  switch (op) {
    case ScalarOp::kLt:
      return ScalarOp::kGt;
    case ScalarOp::kLe:
      return ScalarOp::kGe;
    case ScalarOp::kGt:
      return ScalarOp::kLt;
    case ScalarOp::kGe:
      return ScalarOp::kLe;
    default:
      return op;  // kEq, kNe are symmetric
  }
}

bool OpHolds(ScalarOp op, int cmp) {
  switch (op) {
    case ScalarOp::kEq:
      return cmp == 0;
    case ScalarOp::kNe:
      return cmp != 0;
    case ScalarOp::kLt:
      return cmp < 0;
    case ScalarOp::kLe:
      return cmp <= 0;
    case ScalarOp::kGt:
      return cmp > 0;
    case ScalarOp::kGe:
      return cmp >= 0;
    default:
      return false;
  }
}

bool TruthyLiteral(const Value& v) { return v.is_bool() && v.AsBool(); }

VectorConjunct ConstConjunct(bool holds) {
  VectorConjunct c;
  c.kind = holds ? VectorConjunct::Kind::kConstTrue
                 : VectorConjunct::Kind::kConstFalse;
  return c;
}

/// Structural pre-check mirroring CompileVectorPredicate's acceptance, so
/// callers can rule vectorization out before paying for a batch build.
bool HasCompilableShape(const ScalarExprPtr& pred) {
  std::vector<ScalarExprPtr> conjuncts;
  FlattenConjuncts(pred, &conjuncts);
  if (conjuncts.empty()) return false;
  for (const ScalarExprPtr& c : conjuncts) {
    if (c->kind() == ScalarKind::kLiteral) continue;
    if (c->kind() != ScalarKind::kBinary || !IsComparison(c->op())) {
      return false;
    }
    const bool col_lit = c->lhs()->kind() == ScalarKind::kColumn &&
                         c->rhs()->kind() == ScalarKind::kLiteral;
    const bool lit_col = c->lhs()->kind() == ScalarKind::kLiteral &&
                         c->rhs()->kind() == ScalarKind::kColumn;
    if (!col_lit && !lit_col) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Batch predicate evaluation
// ---------------------------------------------------------------------------

// The typed scans lower (op, tie-break) onto a plain CmpRel *before* any
// lane math, so the SIMD kernels in eval/simd.h never see cross-type
// semantics. The resolution is exact: with cmp(a) = (a == lit ? tie :
// a < lit ? -1 : 1), OpHolds(op, cmp(a)) reduces to a single relation on
// the raw operands, e.g. tie = -1 (int column vs equal double literal)
// turns kLt into "a <= lit" and kEq into constant-false.
CmpRel ResolveRel(ScalarOp op, int tie) {
  if (tie < 0) {
    switch (op) {
      case ScalarOp::kEq:
        return CmpRel::kNever;
      case ScalarOp::kNe:
        return CmpRel::kAlways;
      case ScalarOp::kLt:
      case ScalarOp::kLe:
        return CmpRel::kLe;
      case ScalarOp::kGt:
      case ScalarOp::kGe:
        return CmpRel::kGt;
      default:
        return CmpRel::kNever;
    }
  }
  if (tie > 0) {
    switch (op) {
      case ScalarOp::kEq:
        return CmpRel::kNever;
      case ScalarOp::kNe:
        return CmpRel::kAlways;
      case ScalarOp::kLt:
      case ScalarOp::kLe:
        return CmpRel::kLt;
      case ScalarOp::kGt:
      case ScalarOp::kGe:
        return CmpRel::kGe;
      default:
        return CmpRel::kNever;
    }
  }
  switch (op) {
    case ScalarOp::kEq:
      return CmpRel::kEq;
    case ScalarOp::kNe:
      return CmpRel::kNe;
    case ScalarOp::kLt:
      return CmpRel::kLt;
    case ScalarOp::kLe:
      return CmpRel::kLe;
    case ScalarOp::kGt:
      return CmpRel::kGt;
    case ScalarOp::kGe:
      return CmpRel::kGe;
    default:
      return CmpRel::kNever;
  }
}

void ScanIntInt(const int64_t* v, size_t begin, size_t end, ScalarOp op,
                int64_t k, std::vector<uint32_t>* sel) {
  SimdScanInt64(v, begin, end, ResolveRel(op, 0), k, sel);
}

// Cross-type numeric compare replicating Value::Compare exactly: compare
// as doubles, break exact ties by the type index (int before double).
// The int64-source instantiation stays scalar (there is no cheap packed
// epi64 -> pd conversion pre-AVX-512); the double source rides the SIMD
// scan.
template <typename SrcT>
void ScanNumDouble(const SrcT* v, size_t begin, size_t end, ScalarOp op,
                   double d, int tie, std::vector<uint32_t>* sel) {
  const CmpRel rel = ResolveRel(op, tie);
  if constexpr (std::is_same_v<SrcT, double>) {
    SimdScanFloat64(v, begin, end, rel, d, sel);
  } else {
    if (rel == CmpRel::kNever) return;
    for (size_t i = begin; i < end; ++i) {
      if (RelHoldsFloat64(rel, static_cast<double>(v[i]), d)) {
        sel->push_back(static_cast<uint32_t>(i));
      }
    }
  }
}

void ScanConjunct(const ColumnBatch& batch, const VectorConjunct& c,
                  size_t begin, size_t end, std::vector<uint32_t>* sel) {
  switch (c.kind) {
    case VectorConjunct::Kind::kIntInt:
      return ScanIntInt(batch.ints(c.column), begin, end, c.op, c.int_lit,
                        sel);
    case VectorConjunct::Kind::kNumDouble:
      if (batch.encoding(c.column) == ColumnEncoding::kInt64) {
        return ScanNumDouble(batch.ints(c.column), begin, end, c.op, c.dbl_lit,
                             c.tie_cmp, sel);
      }
      return ScanNumDouble(batch.doubles(c.column), begin, end, c.op,
                           c.dbl_lit, c.tie_cmp, sel);
    case VectorConjunct::Kind::kGeneric: {
      const Value* v = batch.generic(c.column);
      for (size_t i = begin; i < end; ++i) {
        if (OpHolds(c.op, v[i].Compare(c.lit))) {
          sel->push_back(static_cast<uint32_t>(i));
        }
      }
      return;
    }
    default:
      return;
  }
}

bool RowPasses(const ColumnBatch& batch, const VectorConjunct& c, size_t row) {
  switch (c.kind) {
    case VectorConjunct::Kind::kIntInt:
      return OpHolds(c.op, [&] {
        const int64_t a = batch.ints(c.column)[row];
        return a == c.int_lit ? 0 : (a < c.int_lit ? -1 : 1);
      }());
    case VectorConjunct::Kind::kNumDouble: {
      const double a =
          batch.encoding(c.column) == ColumnEncoding::kInt64
              ? static_cast<double>(batch.ints(c.column)[row])
              : batch.doubles(c.column)[row];
      const int cmp = a == c.dbl_lit ? c.tie_cmp : (a < c.dbl_lit ? -1 : 1);
      return OpHolds(c.op, cmp);
    }
    case VectorConjunct::Kind::kGeneric:
      return OpHolds(c.op, batch.generic(c.column)[row].Compare(c.lit));
    case VectorConjunct::Kind::kConstTrue:
      return true;
    case VectorConjunct::Kind::kConstFalse:
      return false;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Morsel dispatch
// ---------------------------------------------------------------------------

// A dedicated pool for morsel tasks, separate from the alternatives pool
// (opt/session.h): columnar kernels run *inside* tasks of that pool, and
// submitting nested work to it could fill every worker with parents
// waiting on children. The calling thread always participates in its own
// parallel-for, so progress never depends on this pool's availability.
ThreadPool& MorselPool() {
  static ThreadPool* pool = new ThreadPool(ThreadPool::DefaultThreads());
  return *pool;
}

struct MorselRun {
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  size_t total = 0;
  std::function<void(size_t)> body;
  std::mutex mu;
  std::condition_variable cv;
};

void DrainMorsels(const std::shared_ptr<MorselRun>& run) {
  for (;;) {
    const size_t m = run->next.fetch_add(1, std::memory_order_relaxed);
    if (m >= run->total) return;
    run->body(m);
    if (run->done.fetch_add(1, std::memory_order_acq_rel) + 1 == run->total) {
      std::lock_guard<std::mutex> lock(run->mu);
      run->cv.notify_all();
    }
  }
}

/// Runs body(0..num_morsels) with up to `threads` workers (0 = hardware
/// concurrency), the caller participating; returns when every morsel
/// finished. Helpers beyond the morsel count are never enqueued.
void MorselParallelFor(size_t num_morsels, size_t threads,
                       std::function<void(size_t)> body) {
  if (num_morsels == 0) return;
  if (threads == 0) threads = ThreadPool::DefaultThreads();
  if (threads <= 1 || num_morsels <= 1) {
    for (size_t m = 0; m < num_morsels; ++m) body(m);
    return;
  }
  auto run = std::make_shared<MorselRun>();
  run->total = num_morsels;
  run->body = std::move(body);
  const size_t helpers = std::min(threads - 1, num_morsels - 1);
  for (size_t i = 0; i < helpers; ++i) {
    MorselPool().Submit(std::function<void()>([run] { DrainMorsels(run); }));
  }
  DrainMorsels(run);
  std::unique_lock<std::mutex> lock(run->mu);
  run->cv.wait(lock, [&run] {
    return run->done.load(std::memory_order_acquire) >= run->total;
  });
}

// Positions (into the base's tuple vector) of the overlay's deletions,
// ascending. Dels are a subset of the base (canonical overlay), so every
// lower_bound lands exactly on its tuple.
std::vector<uint32_t> DelPositions(const Relation& base,
                                   const std::vector<Tuple>& dels) {
  std::vector<uint32_t> out;
  out.reserve(dels.size());
  const std::vector<Tuple>& tuples = base.tuples();
  for (const Tuple& d : dels) {
    auto it = std::lower_bound(tuples.begin(), tuples.end(), d, TupleLess());
    out.push_back(static_cast<uint32_t>(it - tuples.begin()));
  }
  return out;
}

bool OverlayTooLarge(const RelationView& view, const PhysicalPolicy& policy) {
  return static_cast<double>(view.delta_size()) >
         policy.columnar_max_delta_fraction *
             static_cast<double>(view.base()->size());
}

}  // namespace

std::optional<VectorPredicate> CompileVectorPredicate(const ScalarExprPtr& pred,
                                                      const ColumnBatch& batch) {
  std::vector<ScalarExprPtr> conjuncts;
  FlattenConjuncts(pred, &conjuncts);
  if (conjuncts.empty()) return std::nullopt;
  VectorPredicate out;
  out.conjuncts.reserve(conjuncts.size());
  for (const ScalarExprPtr& e : conjuncts) {
    if (e->kind() == ScalarKind::kLiteral) {
      // A bare literal conjunct contributes Truthy(literal) to the AND.
      out.conjuncts.push_back(ConstConjunct(TruthyLiteral(e->literal())));
      continue;
    }
    if (e->kind() != ScalarKind::kBinary || !IsComparison(e->op())) {
      return std::nullopt;
    }
    const ScalarExpr* col = nullptr;
    const ScalarExpr* lit = nullptr;
    ScalarOp op = e->op();
    if (e->lhs()->kind() == ScalarKind::kColumn &&
        e->rhs()->kind() == ScalarKind::kLiteral) {
      col = e->lhs().get();
      lit = e->rhs().get();
    } else if (e->lhs()->kind() == ScalarKind::kLiteral &&
               e->rhs()->kind() == ScalarKind::kColumn) {
      col = e->rhs().get();
      lit = e->lhs().get();
      op = FlipComparison(op);
    } else {
      return std::nullopt;
    }
    const Value& k = lit->literal();
    if (col->column() >= batch.arity()) {
      // Row evaluation folds an out-of-range column to null; the whole
      // conjunct is a constant comparison of null against the literal.
      out.conjuncts.push_back(
          ConstConjunct(OpHolds(op, Value::Nul().Compare(k))));
      continue;
    }
    VectorConjunct c;
    c.op = op;
    c.column = col->column();
    switch (batch.encoding(c.column)) {
      case ColumnEncoding::kInt64:
        if (k.is_int()) {
          c.kind = VectorConjunct::Kind::kIntInt;
          c.int_lit = k.AsInt();
        } else if (k.is_double()) {
          c.kind = VectorConjunct::Kind::kNumDouble;
          c.dbl_lit = k.AsDouble();
          c.tie_cmp = -1;  // int column sorts before an equal double literal
        } else {
          // Family mismatch: every int compares the same way against the
          // literal, so the conjunct is a constant.
          out.conjuncts.push_back(
              ConstConjunct(OpHolds(op, Value::Int(0).Compare(k))));
          continue;
        }
        break;
      case ColumnEncoding::kFloat64:
        if (k.is_number()) {
          c.kind = VectorConjunct::Kind::kNumDouble;
          c.dbl_lit = k.AsDouble();
          c.tie_cmp = k.is_int() ? 1 : 0;
        } else {
          out.conjuncts.push_back(
              ConstConjunct(OpHolds(op, Value::Double(0).Compare(k))));
          continue;
        }
        break;
      case ColumnEncoding::kGeneric:
        c.kind = VectorConjunct::Kind::kGeneric;
        c.lit = k;
        break;
    }
    out.conjuncts.push_back(std::move(c));
  }
  return out;
}

void EvalPredicateBatch(const ColumnBatch& batch, const VectorPredicate& pred,
                        size_t begin, size_t end, std::vector<uint32_t>* sel) {
  sel->clear();
  bool seeded = false;
  for (const VectorConjunct& c : pred.conjuncts) {
    if (c.kind == VectorConjunct::Kind::kConstTrue) continue;
    if (c.kind == VectorConjunct::Kind::kConstFalse) {
      sel->clear();
      return;
    }
    if (!seeded) {
      ScanConjunct(batch, c, begin, end, sel);
      seeded = true;
    } else {
      size_t w = 0;
      for (uint32_t pos : *sel) {
        if (RowPasses(batch, c, pos)) (*sel)[w++] = pos;
      }
      sel->resize(w);
    }
    if (sel->empty()) return;
  }
  if (!seeded) {
    // Every conjunct was constant-true: the whole range qualifies.
    sel->reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      sel->push_back(static_cast<uint32_t>(i));
    }
  }
}

std::optional<Relation> TryColumnarFilter(const RelationView& input,
                                          const ScalarExprPtr& pred,
                                          const PhysicalPolicy& policy) {
  if (!policy.columnar_enabled() || pred == nullptr) return std::nullopt;
  const RelationPtr& base = input.base();
  const size_t base_rows = base->size();
  if (base_rows < policy.columnar_min_rows) return std::nullopt;
  if (OverlayTooLarge(input, policy)) return std::nullopt;
  if (!HasCompilableShape(pred)) return std::nullopt;

  ExecGovernor* gov = CurrentGovernor();
  ColumnBatchPtr batch = base->ColumnarBatch();
  // A failpoint firing inside the batch build trips the governor; degrade
  // to the row scan, whose own cooperative checks surface the error.
  if (gov != nullptr && gov->tripped()) return std::nullopt;
  std::optional<VectorPredicate> vpred = CompileVectorPredicate(pred, *batch);
  if (!vpred.has_value()) return std::nullopt;

  TraceSpan span("columnar-select", input.size());
  const std::vector<Tuple>& tuples = base->tuples();
  const std::vector<uint32_t> del_pos = DelPositions(*base, input.dels());

  const size_t morsel_rows = std::max<size_t>(policy.columnar_morsel_rows, 1);
  const size_t num_morsels = (base_rows + morsel_rows - 1) / morsel_rows;
  std::vector<std::vector<Tuple>> slots(num_morsels);
  std::atomic<bool> stop{false};
  MorselParallelFor(num_morsels, policy.columnar_threads, [&](size_t m) {
    if (stop.load(std::memory_order_relaxed)) return;
    const size_t mb = m * morsel_rows;
    const size_t me = std::min(base_rows, mb + morsel_rows);
    if (gov != nullptr && !gov->Tick(me - mb)) {
      stop.store(true, std::memory_order_relaxed);
      return;
    }
    std::vector<uint32_t> sel;
    EvalPredicateBatch(*batch, *vpred, mb, me, &sel);
    auto dp = std::lower_bound(del_pos.begin(), del_pos.end(),
                               static_cast<uint32_t>(mb));
    std::vector<Tuple>& out = slots[m];
    out.reserve(sel.size());
    for (uint32_t pos : sel) {
      while (dp != del_pos.end() && *dp < pos) ++dp;
      if (dp != del_pos.end() && *dp == pos) {
        ++dp;
        continue;
      }
      if (gov != nullptr && !gov->ChargeTuples(1)) {
        stop.store(true, std::memory_order_relaxed);
        return;
      }
      out.push_back(tuples[pos]);
    }
  });

  // Morsels partition the sorted base in order and emit ascending runs, so
  // their concatenation is sorted and unique even when a trip truncated it.
  std::vector<Tuple> matched;
  size_t total = 0;
  for (const std::vector<Tuple>& s : slots) total += s.size();
  matched.reserve(total);
  for (std::vector<Tuple>& s : slots) {
    matched.insert(matched.end(), std::make_move_iterator(s.begin()),
                   std::make_move_iterator(s.end()));
  }
  std::vector<Tuple> added;
  for (const Tuple& a : input.adds()) {
    if (pred->EvaluatesTrue(a)) {
      if (gov != nullptr && !gov->ChargeTuples(1)) break;
      added.push_back(a);
    }
  }
  std::vector<Tuple> out;
  out.reserve(matched.size() + added.size());
  std::set_union(matched.begin(), matched.end(), added.begin(), added.end(),
                 std::back_inserter(out), TupleLess());
  ExecContext& ctx = AmbientExecContext();
  ctx.AddColumnarMorselsDispatched(num_morsels);
  ctx.AddColumnarRowsVectorized(base_rows);
  span.set_rows_out(out.size());
  return Relation::FromSortedUnique(input.arity(), std::move(out));
}

std::optional<Relation> TryColumnarJoin(const RelationView& lhs,
                                        const RelationView& rhs,
                                        const ScalarExprPtr& pred,
                                        const PhysicalPolicy& policy) {
  if (!policy.columnar_enabled() || pred == nullptr) return std::nullopt;
  std::vector<std::pair<size_t, size_t>> equi;
  std::vector<ScalarExprPtr> residual;
  SplitJoinPredicate(pred, lhs.arity(), &equi, &residual);
  if (equi.empty()) return std::nullopt;

  // Probe the side with the larger base through its batch; build a hash
  // table over the smaller side's full content.
  const bool probe_lhs = lhs.base()->size() >= rhs.base()->size();
  const RelationView& probe = probe_lhs ? lhs : rhs;
  const RelationView& build = probe_lhs ? rhs : lhs;
  const RelationPtr& probe_base = probe.base();
  const size_t probe_rows = probe_base->size();
  if (probe_rows < policy.columnar_min_rows) return std::nullopt;
  if (OverlayTooLarge(probe, policy)) return std::nullopt;

  std::vector<size_t> probe_cols;
  std::vector<size_t> build_cols;
  probe_cols.reserve(equi.size());
  build_cols.reserve(equi.size());
  for (const auto& [lc, rc] : equi) {
    probe_cols.push_back(probe_lhs ? lc : rc);
    build_cols.push_back(probe_lhs ? rc : lc);
  }
  for (size_t c : probe_cols) {
    if (c >= probe.arity()) return std::nullopt;
  }
  for (size_t c : build_cols) {
    if (c >= build.arity()) return std::nullopt;
  }

  ExecGovernor* gov = CurrentGovernor();
  ColumnBatchPtr batch = probe_base->ColumnarBatch();
  if (gov != nullptr && gov->tripped()) return std::nullopt;

  TraceSpan span("columnar-join", lhs.size() + rhs.size());
  auto key_of = [](const Tuple& t, const std::vector<size_t>& cols) {
    Tuple key;
    key.reserve(cols.size());
    for (size_t c : cols) key.push_back(t[c]);
    return key;
  };
  // View iterators hand out references into base/overlay storage, stable
  // for the view's lifetime, so the table stores plain pointers (the same
  // contract the row hash join relies on).
  std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHash> table;
  table.reserve(build.size());
  for (const Tuple& b : build) {
    table[key_of(b, build_cols)].push_back(&b);
  }

  // Int fast path: a single join column, int64-encoded on the probe side.
  // Only integer build keys can match an integer probe column (Value's
  // order keeps int 1 and double 1.0 distinct), so the typed table drops
  // the rest; probe adds go through the generic table.
  const bool int_path =
      probe_cols.size() == 1 &&
      batch->encoding(probe_cols[0]) == ColumnEncoding::kInt64;
  std::unordered_map<int64_t, const std::vector<const Tuple*>*> int_table;
  if (int_path) {
    int_table.reserve(table.size());
    for (const auto& [key, run] : table) {
      if (key[0].is_int()) int_table.emplace(key[0].AsInt(), &run);
    }
  }

  const std::vector<Tuple>& probe_tuples = probe_base->tuples();
  const std::vector<uint32_t> del_pos = DelPositions(*probe_base, probe.dels());
  const size_t morsel_rows = std::max<size_t>(policy.columnar_morsel_rows, 1);
  const size_t num_morsels = (probe_rows + morsel_rows - 1) / morsel_rows;
  std::vector<std::vector<Tuple>> slots(num_morsels);
  std::atomic<bool> stop{false};

  auto emit = [&](const Tuple& p, const Tuple& b,
                  std::vector<Tuple>* out) -> bool {
    Tuple combined = probe_lhs ? ConcatTuples(p, b) : ConcatTuples(b, p);
    for (const ScalarExprPtr& r : residual) {
      if (!r->EvaluatesTrue(combined)) return true;
    }
    if (gov != nullptr && !gov->ChargeTuples(1)) return false;
    out->push_back(std::move(combined));
    return true;
  };

  MorselParallelFor(num_morsels, policy.columnar_threads, [&](size_t m) {
    if (stop.load(std::memory_order_relaxed)) return;
    const size_t mb = m * morsel_rows;
    const size_t me = std::min(probe_rows, mb + morsel_rows);
    if (gov != nullptr && !gov->Tick(me - mb)) {
      stop.store(true, std::memory_order_relaxed);
      return;
    }
    auto dp = std::lower_bound(del_pos.begin(), del_pos.end(),
                               static_cast<uint32_t>(mb));
    std::vector<Tuple>& out = slots[m];
    auto deleted = [&dp, &del_pos](size_t i) {
      while (dp != del_pos.end() && *dp < i) ++dp;
      if (dp != del_pos.end() && *dp == i) {
        ++dp;
        return true;
      }
      return false;
    };
    if (int_path) {
      const int64_t* keys = batch->ints(probe_cols[0]);
      for (size_t i = mb; i < me; ++i) {
        if (deleted(i)) continue;
        auto it = int_table.find(keys[i]);
        if (it == int_table.end()) continue;
        const Tuple& p = probe_tuples[i];
        for (const Tuple* b : *it->second) {
          if (!emit(p, *b, &out)) {
            stop.store(true, std::memory_order_relaxed);
            return;
          }
        }
      }
    } else {
      for (size_t i = mb; i < me; ++i) {
        if (deleted(i)) continue;
        const Tuple& p = probe_tuples[i];
        auto it = table.find(key_of(p, probe_cols));
        if (it == table.end()) continue;
        for (const Tuple* b : it->second) {
          if (!emit(p, *b, &out)) {
            stop.store(true, std::memory_order_relaxed);
            return;
          }
        }
      }
    }
  });

  std::vector<Tuple> out;
  size_t total = 0;
  for (const std::vector<Tuple>& s : slots) total += s.size();
  out.reserve(total + probe.adds().size());
  for (std::vector<Tuple>& s : slots) {
    out.insert(out.end(), std::make_move_iterator(s.begin()),
               std::make_move_iterator(s.end()));
  }
  // The probe side's adds are not in its base: patch them in row-wise.
  if (!stop.load(std::memory_order_relaxed)) {
    for (const Tuple& a : probe.adds()) {
      auto it = table.find(key_of(a, probe_cols));
      if (it == table.end()) continue;
      bool keep_going = true;
      for (const Tuple* b : it->second) {
        if (!emit(a, *b, &out)) {
          keep_going = false;
          break;
        }
      }
      if (!keep_going) break;
    }
  }
  ExecContext& ctx = AmbientExecContext();
  ctx.AddColumnarMorselsDispatched(num_morsels);
  ctx.AddColumnarRowsVectorized(probe_rows);
  span.set_rows_out(out.size());
  // FromTuples canonicalizes (sort + dedup), so any production order across
  // morsels yields the same relation the row join builds.
  return Relation::FromTuples(lhs.arity() + rhs.arity(), std::move(out));
}

namespace {

// ---------------------------------------------------------------------------
// Vectorized aggregation
// ---------------------------------------------------------------------------

// How the accumulation loop is specialized. Only modes that reproduce the
// row kernel bit-for-bit are ever selected: float sums are excluded
// outright (their accumulation order is observable), integer sums wrap in
// uint64 exactly like the scalar kernel, and min/max are associative
// under Value's total order, so morsel partials merge exactly.
enum class AggAccMode : uint8_t {
  kCount,         // only group membership matters
  kSumInt,        // int64-encoded column, wrap-exact uint64 accumulation
  kMinMaxInt,     // int64-encoded column extrema
  kMinMaxDouble,  // float64-encoded column extrema
  kMinMaxValue,   // Value::Compare extrema via base row positions
                  // (generic column; never runs with overlay adds)
};

// One group's partial state — a 24-byte POD so a 100k-group table stays
// cache-resident (an earlier layout carried two boxed Values per slot and
// the probe loop drowned in misses). Which union arm is live depends on
// the mode; count doubles as the min/max seed flag, mirroring the row
// kernel's Acc (the group's first tuple seeds, later tuples update
// strictly). kMinMaxValue tracks the extremum as a *base row position*
// rather than a Value — sound because that mode never runs with overlay
// adds, so every candidate lives in the base tuple vector.
struct GroupAcc {
  int64_t count = 0;
  union {
    uint64_t sum = 0;
    struct {
      int64_t min_i, max_i;
    } i;
    struct {
      double min_d, max_d;
    } d;
    struct {
      uint32_t min_row, max_row;
    } r;
  } u;
};

inline void AccInt(GroupAcc* a, AggAccMode mode, int64_t v) {
  if (mode == AggAccMode::kSumInt) {
    a->u.sum += static_cast<uint64_t>(v);
  } else if (a->count == 0) {
    a->u.i.min_i = v;
    a->u.i.max_i = v;
  } else {
    if (v < a->u.i.min_i) a->u.i.min_i = v;
    if (v > a->u.i.max_i) a->u.i.max_i = v;
  }
  ++a->count;
}

inline void AccDouble(GroupAcc* a, double v) {
  if (a->count == 0) {
    a->u.d.min_d = v;
    a->u.d.max_d = v;
  } else {
    if (v < a->u.d.min_d) a->u.d.min_d = v;
    if (v > a->u.d.max_d) a->u.d.max_d = v;
  }
  ++a->count;
}

inline void AccValueRow(GroupAcc* a, const std::vector<Tuple>& tuples,
                        size_t agg_column, size_t row) {
  if (a->count == 0) {
    a->u.r.min_row = static_cast<uint32_t>(row);
    a->u.r.max_row = static_cast<uint32_t>(row);
  } else {
    const Value& v = tuples[row][agg_column];
    if (v.Compare(tuples[a->u.r.min_row][agg_column]) < 0) {
      a->u.r.min_row = static_cast<uint32_t>(row);
    }
    if (v.Compare(tuples[a->u.r.max_row][agg_column]) > 0) {
      a->u.r.max_row = static_cast<uint32_t>(row);
    }
  }
  ++a->count;
}

/// Folds one row into `a` for the given mode, reading the agg column from
/// the typed batch arrays (or the base tuple for the generic mode).
inline void AccRow(GroupAcc* a, AggAccMode mode, const ColumnBatch& batch,
                   const std::vector<Tuple>& tuples, size_t agg_column,
                   size_t row) {
  switch (mode) {
    case AggAccMode::kCount:
      ++a->count;
      return;
    case AggAccMode::kSumInt:
    case AggAccMode::kMinMaxInt:
      AccInt(a, mode, batch.ints(agg_column)[row]);
      return;
    case AggAccMode::kMinMaxDouble:
      AccDouble(a, batch.doubles(agg_column)[row]);
      return;
    case AggAccMode::kMinMaxValue:
      AccValueRow(a, tuples, agg_column, row);
      return;
  }
}

/// Folds one overlay-add value into `a`. The engagement gates guarantee
/// the value's family matches the mode (kSumInt/kMinMaxInt see ints,
/// kMinMaxDouble sees doubles, kMinMaxValue never sees adds at all —
/// its accumulators hold base row positions, which adds don't have).
inline void AccAddValue(GroupAcc* a, AggAccMode mode, const Value& v) {
  switch (mode) {
    case AggAccMode::kCount:
      ++a->count;
      return;
    case AggAccMode::kSumInt:
    case AggAccMode::kMinMaxInt:
      AccInt(a, mode, v.AsInt());
      return;
    case AggAccMode::kMinMaxDouble:
      AccDouble(a, v.AsDouble());
      return;
    case AggAccMode::kMinMaxValue:
      return;  // unreachable: gated out before the scan
  }
}

/// Merges a later partial into an earlier one. Partials are merged in
/// morsel (= base position) order, so strict min/max updates keep the
/// earliest representative exactly like the row kernel's seeded strict
/// compares.
void MergeAcc(GroupAcc* dst, const GroupAcc& src, AggAccMode mode,
              const std::vector<Tuple>& tuples, size_t agg_column) {
  if (src.count == 0) return;
  if (dst->count == 0) {
    *dst = src;
    return;
  }
  dst->count += src.count;
  switch (mode) {
    case AggAccMode::kCount:
      return;
    case AggAccMode::kSumInt:
      dst->u.sum += src.u.sum;
      return;
    case AggAccMode::kMinMaxInt:
      if (src.u.i.min_i < dst->u.i.min_i) dst->u.i.min_i = src.u.i.min_i;
      if (src.u.i.max_i > dst->u.i.max_i) dst->u.i.max_i = src.u.i.max_i;
      return;
    case AggAccMode::kMinMaxDouble:
      if (src.u.d.min_d < dst->u.d.min_d) dst->u.d.min_d = src.u.d.min_d;
      if (src.u.d.max_d > dst->u.d.max_d) dst->u.d.max_d = src.u.d.max_d;
      return;
    case AggAccMode::kMinMaxValue:
      if (tuples[src.u.r.min_row][agg_column].Compare(
              tuples[dst->u.r.min_row][agg_column]) < 0) {
        dst->u.r.min_row = src.u.r.min_row;
      }
      if (tuples[src.u.r.max_row][agg_column].Compare(
              tuples[dst->u.r.max_row][agg_column]) > 0) {
        dst->u.r.max_row = src.u.r.max_row;
      }
      return;
  }
}

Value FinalizeAcc(const GroupAcc& a, AggFunc func, AggAccMode mode,
                  const std::vector<Tuple>& tuples, size_t agg_column) {
  switch (func) {
    case AggFunc::kCount:
      return Value::Int(a.count);
    case AggFunc::kSum:
      // kSumInt is the only sum mode, and its gates guarantee every
      // summand was an int, so the row kernel's any_number/any_double
      // branches collapse to the int case.
      return Value::Int(static_cast<int64_t>(a.u.sum));
    case AggFunc::kMin:
      switch (mode) {
        case AggAccMode::kMinMaxInt:
          return Value::Int(a.u.i.min_i);
        case AggAccMode::kMinMaxDouble:
          return Value::Double(a.u.d.min_d);
        default:
          return tuples[a.u.r.min_row][agg_column];
      }
    case AggFunc::kMax:
      switch (mode) {
        case AggAccMode::kMinMaxInt:
          return Value::Int(a.u.i.max_i);
        case AggAccMode::kMinMaxDouble:
          return Value::Double(a.u.d.max_d);
        default:
          return tuples[a.u.r.max_row][agg_column];
      }
  }
  return Value::Nul();
}

// Group keys wider than this go through the generic tuple-keyed table.
constexpr size_t kMaxTypedKeyWidth = 4;

/// Open-addressing hash table on packed int64 group keys: keys live in one
/// contiguous array (key_width words per slot), linear probing, grow at
/// 70% load. This is the flat group table of the typed aggregation path —
/// no per-key allocation, no Value boxing on the probe loop.
class FlatGroupTable {
 public:
  explicit FlatGroupTable(size_t key_width)
      : k_(key_width == 0 ? 1 : key_width) {}

  GroupAcc* FindOrInsert(const int64_t* key) {
    if (size_ * 10 >= cap_ * 7) Grow();
    size_t slot = static_cast<size_t>(Hash(key)) & mask_;
    for (;;) {
      if (used_[slot] == 0) {
        used_[slot] = 1;
        std::copy(key, key + k_, keys_.begin() + slot * k_);
        ++size_;
        return &accs_[slot];
      }
      if (std::equal(key, key + k_, keys_.begin() + slot * k_)) {
        return &accs_[slot];
      }
      slot = (slot + 1) & mask_;
    }
  }

  template <typename Fn>
  void ForEach(Fn fn) {
    for (size_t s = 0; s < cap_; ++s) {
      if (used_[s] != 0) fn(&keys_[s * k_], &accs_[s]);
    }
  }

  size_t size() const { return size_; }

 private:
  // splitmix64 finalizer, word-combined across the packed key.
  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  uint64_t Hash(const int64_t* key) const {
    uint64_t h = 0;
    for (size_t i = 0; i < k_; ++i) h = Mix(h ^ static_cast<uint64_t>(key[i]));
    return h;
  }

  void Grow() {
    const size_t ncap = cap_ == 0 ? 64 : cap_ * 2;
    std::vector<int64_t> old_keys = std::move(keys_);
    std::vector<uint8_t> old_used = std::move(used_);
    std::vector<GroupAcc> old_accs = std::move(accs_);
    const size_t old_cap = cap_;
    cap_ = ncap;
    mask_ = ncap - 1;
    keys_.assign(ncap * k_, 0);
    used_.assign(ncap, 0);
    accs_.assign(ncap, GroupAcc());
    size_ = 0;
    for (size_t s = 0; s < old_cap; ++s) {
      if (old_used[s] == 0) continue;
      GroupAcc* a = FindOrInsert(&old_keys[s * k_]);
      *a = std::move(old_accs[s]);
    }
  }

  size_t k_;
  size_t cap_ = 0;
  size_t size_ = 0;
  size_t mask_ = 0;
  std::vector<int64_t> keys_;
  std::vector<uint8_t> used_;
  std::vector<GroupAcc> accs_;
};

/// The global-aggregate (no group columns) morsel body: reduces the
/// del-free segments of [mb, me) with the SIMD kernels where the mode is
/// typed, so a whole segment folds at vector width instead of per row.
void ReduceGlobalMorsel(const ColumnBatch& batch,
                        const std::vector<Tuple>& tuples, size_t agg_column,
                        AggAccMode mode, size_t mb, size_t me,
                        const std::vector<uint32_t>& del_pos, GroupAcc* acc) {
  auto seg_begin = std::lower_bound(del_pos.begin(), del_pos.end(),
                                    static_cast<uint32_t>(mb));
  size_t b = mb;
  auto reduce = [&](size_t sb, size_t se) {
    if (se <= sb) return;
    const size_t n = se - sb;
    switch (mode) {
      case AggAccMode::kCount:
        acc->count += static_cast<int64_t>(n);
        return;
      case AggAccMode::kSumInt: {
        const int64_t* v = batch.ints(agg_column) + sb;
        acc->u.sum += static_cast<uint64_t>(SimdSumInt64(v, n));
        acc->count += static_cast<int64_t>(n);
        return;
      }
      case AggAccMode::kMinMaxInt: {
        const int64_t* v = batch.ints(agg_column) + sb;
        if (acc->count == 0) {
          acc->u.i.min_i = v[0];
          acc->u.i.max_i = v[0];
        }
        SimdMinMaxInt64(v, n, &acc->u.i.min_i, &acc->u.i.max_i);
        acc->count += static_cast<int64_t>(n);
        return;
      }
      case AggAccMode::kMinMaxDouble: {
        const double* v = batch.doubles(agg_column) + sb;
        if (acc->count == 0) {
          acc->u.d.min_d = v[0];
          acc->u.d.max_d = v[0];
        }
        SimdMinMaxFloat64(v, n, &acc->u.d.min_d, &acc->u.d.max_d);
        acc->count += static_cast<int64_t>(n);
        return;
      }
      case AggAccMode::kMinMaxValue:
        for (size_t i = sb; i < se; ++i) {
          AccValueRow(acc, tuples, agg_column, i);
        }
        return;
    }
  };
  for (auto dp = seg_begin; dp != del_pos.end() && *dp < me; ++dp) {
    reduce(b, *dp);
    b = *dp + 1;
  }
  reduce(b, me);
}

}  // namespace

std::optional<Relation> TryColumnarAggregate(
    const RelationView& input, const std::vector<size_t>& group_columns,
    AggFunc func, size_t agg_column, const PhysicalPolicy& policy) {
  if (!policy.columnar_enabled()) return std::nullopt;
  const size_t arity = input.arity();
  if (agg_column >= arity) return std::nullopt;
  for (size_t c : group_columns) {
    if (c >= arity) return std::nullopt;
  }
  const RelationPtr& base = input.base();
  const size_t base_rows = base->size();
  if (base_rows < policy.columnar_min_rows) return std::nullopt;
  if (OverlayTooLarge(input, policy)) return std::nullopt;

  ExecGovernor* gov = CurrentGovernor();
  ColumnBatchPtr batch = base->ColumnarBatch();
  if (gov != nullptr && gov->tripped()) return std::nullopt;

  // Pick the accumulation mode from the column encoding, then let the
  // overlay adds veto it: a non-int summand rules out the wrap-exact
  // integer sum, and min/max in the boxed Value mode never run with adds
  // at all — the row kernel interleaves adds in sorted order, so a
  // Compare-equal-but-distinct pair (Int(2) vs Double(2.0)) could seed a
  // different representative than folding adds after the base.
  AggAccMode mode;
  switch (func) {
    case AggFunc::kCount:
      mode = AggAccMode::kCount;
      break;
    case AggFunc::kSum:
      if (batch->encoding(agg_column) != ColumnEncoding::kInt64) {
        return std::nullopt;
      }
      mode = AggAccMode::kSumInt;
      break;
    case AggFunc::kMin:
    case AggFunc::kMax:
      switch (batch->encoding(agg_column)) {
        case ColumnEncoding::kInt64:
          mode = AggAccMode::kMinMaxInt;
          break;
        case ColumnEncoding::kFloat64:
          mode = AggAccMode::kMinMaxDouble;
          break;
        default:
          mode = AggAccMode::kMinMaxValue;
          break;
      }
      break;
    default:
      return std::nullopt;
  }
  const size_t key_width = group_columns.size();
  bool typed_keys = key_width >= 1 && key_width <= kMaxTypedKeyWidth;
  if (typed_keys) {
    for (size_t c : group_columns) {
      typed_keys = typed_keys && batch->encoding(c) == ColumnEncoding::kInt64;
    }
  }
  if (mode == AggAccMode::kMinMaxValue && !input.adds().empty()) {
    return std::nullopt;
  }
  for (const Tuple& a : input.adds()) {
    if (typed_keys) {
      for (size_t c : group_columns) {
        if (!a[c].is_int()) {
          typed_keys = false;
          break;
        }
      }
    }
    const Value& v = a[agg_column];
    switch (mode) {
      case AggAccMode::kSumInt:
        if (!v.is_int()) return std::nullopt;
        break;
      case AggAccMode::kMinMaxInt:
        if (!v.is_int()) return std::nullopt;
        break;
      case AggAccMode::kMinMaxDouble:
        if (!v.is_double()) return std::nullopt;
        break;
      default:
        break;
    }
  }

  TraceSpan span("columnar-aggregate", input.size());
  const std::vector<Tuple>& tuples = base->tuples();
  const std::vector<uint32_t> del_pos = DelPositions(*base, input.dels());
  const size_t morsel_rows = std::max<size_t>(policy.columnar_morsel_rows, 1);
  const size_t num_morsels = (base_rows + morsel_rows - 1) / morsel_rows;
  std::atomic<bool> stop{false};
  const bool global = group_columns.empty();

  // Dense direct-index fast path: a single int64 group key whose observed
  // range (base plus adds) is small indexes an accumulator array directly
  // — no hashing, no per-morsel partials, and groups emit already in
  // canonical key order. This is the high-cardinality regime where the
  // hash table's random probes dominate the scan.
  size_t dense_range = 0;
  int64_t dense_min = 0;
  if (!global && typed_keys && key_width == 1) {
    const int64_t* keys = batch->ints(group_columns[0]);
    int64_t kmin = keys[0];
    int64_t kmax = keys[0];
    SimdMinMaxInt64(keys, base_rows, &kmin, &kmax);
    for (const Tuple& a : input.adds()) {
      const int64_t k = a[group_columns[0]].AsInt();
      if (k < kmin) kmin = k;
      if (k > kmax) kmax = k;
    }
    const uint64_t span_words =
        static_cast<uint64_t>(kmax) - static_cast<uint64_t>(kmin);
    if (span_words < (1u << 20) &&
        span_words < 4 * static_cast<uint64_t>(base_rows)) {
      dense_range = static_cast<size_t>(span_words) + 1;
      dense_min = kmin;
    }
  }

  std::vector<Tuple> out;
  ExecContext& ctx = AmbientExecContext();
  auto emit = [&](Tuple&& key, const GroupAcc& acc) -> bool {
    if (gov != nullptr && !gov->ChargeTuples(1)) return false;
    key.push_back(FinalizeAcc(acc, func, mode, tuples, agg_column));
    out.push_back(std::move(key));
    return true;
  };

  if (dense_range != 0) {
    const int64_t* keys = batch->ints(group_columns[0]);
    std::vector<GroupAcc> accs(dense_range);
    auto dp = del_pos.begin();
    for (size_t m = 0; m < num_morsels; ++m) {
      const size_t mb = m * morsel_rows;
      const size_t me = std::min(base_rows, mb + morsel_rows);
      if (gov != nullptr && !gov->Tick(me - mb)) break;
      for (size_t i = mb; i < me; ++i) {
        if (dp != del_pos.end() && *dp == i) {
          ++dp;
          continue;
        }
        const size_t slot = static_cast<size_t>(
            static_cast<uint64_t>(keys[i]) - static_cast<uint64_t>(dense_min));
        AccRow(&accs[slot], mode, *batch, tuples, agg_column, i);
      }
    }
    for (const Tuple& a : input.adds()) {
      const size_t slot =
          static_cast<size_t>(static_cast<uint64_t>(a[group_columns[0]].AsInt()) -
                              static_cast<uint64_t>(dense_min));
      AccAddValue(&accs[slot], mode, a[agg_column]);
    }
    for (size_t s = 0; s < dense_range; ++s) {
      if (accs[s].count == 0) continue;
      Tuple row;
      row.reserve(2);
      row.push_back(Value::Int(dense_min + static_cast<int64_t>(s)));
      if (!emit(std::move(row), accs[s])) break;
    }
    ctx.AddColumnarMorselsDispatched(num_morsels);
    ctx.AddColumnarAggRowsVectorized(base_rows);
    ctx.AddColumnarAggGroups(out.size());
    span.set_rows_out(out.size());
    // Ascending dense slots are already canonical order; FromTuples just
    // verifies it (group keys are unique, so the dedup is a no-op).
    return Relation::FromTuples(group_columns.size() + 1, std::move(out));
  }

  // Per-morsel partial tables, merged below in morsel order so strict
  // min/max updates see base rows in position order.
  std::vector<FlatGroupTable> typed_partials;
  std::vector<std::unordered_map<Tuple, GroupAcc, TupleHash>> generic_partials;
  std::vector<GroupAcc> global_partials;
  if (global) {
    global_partials.resize(num_morsels);
  } else if (typed_keys) {
    typed_partials.assign(num_morsels, FlatGroupTable(key_width));
  } else {
    generic_partials.resize(num_morsels);
  }

  MorselParallelFor(num_morsels, policy.columnar_threads, [&](size_t m) {
    if (stop.load(std::memory_order_relaxed)) return;
    const size_t mb = m * morsel_rows;
    const size_t me = std::min(base_rows, mb + morsel_rows);
    if (gov != nullptr && !gov->Tick(me - mb)) {
      stop.store(true, std::memory_order_relaxed);
      return;
    }
    if (global) {
      ReduceGlobalMorsel(*batch, tuples, agg_column, mode, mb, me, del_pos,
                         &global_partials[m]);
      return;
    }
    auto dp = std::lower_bound(del_pos.begin(), del_pos.end(),
                               static_cast<uint32_t>(mb));
    auto deleted = [&dp, &del_pos](size_t i) {
      while (dp != del_pos.end() && *dp < i) ++dp;
      if (dp != del_pos.end() && *dp == i) {
        ++dp;
        return true;
      }
      return false;
    };
    if (typed_keys) {
      const int64_t* key_cols[kMaxTypedKeyWidth] = {nullptr};
      for (size_t k = 0; k < key_width; ++k) {
        key_cols[k] = batch->ints(group_columns[k]);
      }
      FlatGroupTable& table = typed_partials[m];
      int64_t key[kMaxTypedKeyWidth];
      for (size_t i = mb; i < me; ++i) {
        if (deleted(i)) continue;
        for (size_t k = 0; k < key_width; ++k) key[k] = key_cols[k][i];
        AccRow(table.FindOrInsert(key), mode, *batch, tuples, agg_column, i);
      }
    } else {
      std::unordered_map<Tuple, GroupAcc, TupleHash>& table =
          generic_partials[m];
      for (size_t i = mb; i < me; ++i) {
        if (deleted(i)) continue;
        const Tuple& t = tuples[i];
        Tuple key;
        key.reserve(key_width);
        for (size_t c : group_columns) key.push_back(t[c]);
        AccRow(&table[std::move(key)], mode, *batch, tuples, agg_column, i);
      }
    }
  });

  // Merge phase: fold partials in morsel order, then the overlay adds
  // (sorted, disjoint from the base) row-wise.
  if (global) {
    GroupAcc total;
    for (GroupAcc& p : global_partials) {
      MergeAcc(&total, p, mode, tuples, agg_column);
    }
    for (const Tuple& a : input.adds()) {
      AccAddValue(&total, mode, a[agg_column]);
    }
    if (total.count > 0) emit(Tuple(), total);
  } else if (typed_keys) {
    FlatGroupTable merged(key_width);
    for (FlatGroupTable& p : typed_partials) {
      p.ForEach([&](const int64_t* key, GroupAcc* acc) {
        MergeAcc(merged.FindOrInsert(key), *acc, mode, tuples, agg_column);
      });
    }
    for (const Tuple& a : input.adds()) {
      int64_t key[kMaxTypedKeyWidth];
      for (size_t k = 0; k < key_width; ++k) key[k] = a[group_columns[k]].AsInt();
      AccAddValue(merged.FindOrInsert(key), mode, a[agg_column]);
    }
    out.reserve(merged.size());
    bool keep_going = true;
    merged.ForEach([&](const int64_t* key, GroupAcc* acc) {
      if (!keep_going) return;
      Tuple row;
      row.reserve(key_width + 1);
      for (size_t k = 0; k < key_width; ++k) row.push_back(Value::Int(key[k]));
      keep_going = emit(std::move(row), *acc);
    });
  } else {
    std::unordered_map<Tuple, GroupAcc, TupleHash> merged;
    for (auto& p : generic_partials) {
      for (auto& [key, acc] : p) {
        MergeAcc(&merged[key], acc, mode, tuples, agg_column);
      }
    }
    for (const Tuple& a : input.adds()) {
      Tuple key;
      key.reserve(key_width);
      for (size_t c : group_columns) key.push_back(a[c]);
      AccAddValue(&merged[std::move(key)], mode, a[agg_column]);
    }
    out.reserve(merged.size());
    for (auto& [key, acc] : merged) {
      Tuple row = key;
      if (!emit(std::move(row), acc)) break;
    }
  }
  ctx.AddColumnarMorselsDispatched(num_morsels);
  ctx.AddColumnarAggRowsVectorized(base_rows);
  ctx.AddColumnarAggGroups(out.size());
  span.set_rows_out(out.size());
  // FromTuples canonicalizes (sort + dedup; group keys are unique, so the
  // dedup is a no-op), matching the row kernel's output order exactly.
  return Relation::FromTuples(group_columns.size() + 1, std::move(out));
}

Relation VectorizedAggregate(const RelationView& input,
                             const std::vector<size_t>& group_columns,
                             AggFunc func, size_t agg_column,
                             const PhysicalPolicy& policy) {
  std::optional<Relation> col =
      TryColumnarAggregate(input, group_columns, func, agg_column, policy);
  if (col.has_value()) return *std::move(col);
  if (policy.columnar_enabled()) {
    AmbientExecContext().AddColumnarRowsFallback(input.size());
  }
  return AggregateRelation(input, group_columns, func, agg_column);
}

Relation VectorizedFilter(const RelationView& input, const ScalarExprPtr& pred,
                          const PhysicalPolicy& policy) {
  HQL_CHECK(pred != nullptr);
  std::optional<Relation> fast = TryIndexedFilter(input, pred, policy);
  if (fast.has_value()) return *std::move(fast);
  std::optional<Relation> col = TryColumnarFilter(input, pred, policy);
  if (col.has_value()) return *std::move(col);
  if (policy.columnar_enabled()) {
    AmbientExecContext().AddColumnarRowsFallback(input.size());
  }
  return FilterRelation(input, *pred);
}

Relation VectorizedJoin(const RelationView& lhs, const RelationView& rhs,
                        const ScalarExprPtr& pred,
                        const PhysicalPolicy& policy) {
  std::optional<Relation> fast = TryIndexedJoin(lhs, rhs, pred, policy);
  if (fast.has_value()) return *std::move(fast);
  std::optional<Relation> col = TryColumnarJoin(lhs, rhs, pred, policy);
  if (col.has_value()) return *std::move(col);
  if (policy.columnar_enabled()) {
    AmbientExecContext().AddColumnarRowsFallback(lhs.size() + rhs.size());
  }
  return JoinRelations(lhs, rhs, pred);
}

}  // namespace hql
