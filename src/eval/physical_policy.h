#ifndef HQL_EVAL_PHYSICAL_POLICY_H_
#define HQL_EVAL_PHYSICAL_POLICY_H_

// The physical execution policy: which of this library's own accelerators
// (secondary indexes, columnar kernels, incremental patching) the
// evaluators may use, and their thresholds. None of them changes a result;
// each only changes how a result is computed. The default-constructed
// policy turns every accelerator off, which reproduces the plain row and
// scan kernels exactly.
//
// The policy is declared once, here. PlannerOptions and EngineOptions
// inherit it through EvalSettings (opt/planner.h), and it reaches the
// kernels (eval/index_exec.h, eval/vector_exec.h, eval/delta_ops.h) as an
// explicit argument, via EvalMemo and Filter3Options.

#include <cstddef>

namespace hql {

class IndexAdvisor;
class IncrementalCache;

/// Secondary-index routing.
enum class IndexMode {
  kOff,      // never probe: plans and evaluation match the pre-index code
  kManual,   // probe indexes previously built (Database::BuildIndex)
  kAdvisor,  // record predicate columns; auto-build past a threshold
};

/// Vectorized execution routing.
enum class ColumnarMode {
  kOff,   // never vectorize; row kernels only
  kAuto,  // vectorize flat bases that clear the thresholds, else fall back
};

/// Incremental re-evaluation routing.
enum class IncrementalMode {
  kOff,   // recompute every execution
  kAuto,  // patch a cached execution when it qualifies and is cheaper
};

const char* IndexModeName(IndexMode mode);              // off|manual|advisor
const char* ColumnarModeName(ColumnarMode mode);        // off|auto
const char* IncrementalModeName(IncrementalMode mode);  // off|auto

struct PhysicalPolicy {
  /// kManual probes only indexes already built via Database::BuildIndex;
  /// kAdvisor additionally lets `index_advisor` build indexes for
  /// frequently probed column sets.
  IndexMode index_mode = IndexMode::kOff;
  /// Consulted in kAdvisor mode; caller-owned and shared across queries and
  /// threads so its access counts span a whole family of alternatives.
  /// Null degrades kAdvisor to kManual.
  IndexAdvisor* index_advisor = nullptr;
  /// Bases smaller than this are never probed: a scan already beats the
  /// probe bookkeeping.
  size_t index_min_rows = 64;

  /// kAuto lets large flat-base selections, equi-joins and aggregates run
  /// the vectorized morsel kernels (eval/vector_exec.h), falling back to
  /// the row kernels for small bases, overlay-heavy views and
  /// non-vectorizable predicates.
  ColumnarMode columnar_mode = ColumnarMode::kOff;
  /// Bases smaller than this stay on the row kernels (batch construction
  /// and morsel dispatch do not amortize on tiny inputs).
  size_t columnar_min_rows = 4096;
  /// Rows per morsel task.
  size_t columnar_morsel_rows = 65536;
  /// Worker threads for morsel dispatch: 0 = hardware concurrency,
  /// 1 = run morsels inline on the calling thread.
  size_t columnar_threads = 0;
  /// An overlay whose delta exceeds this fraction of its base falls back
  /// to the row kernels (patching dominates the vectorized scan).
  double columnar_max_delta_fraction = 0.25;

  /// kAuto lets the lazy and hybrid-lazy routes patch a cached result of
  /// the same plan when the database differs from the recorded execution
  /// only by a small overlay edit and the estimator prices the patch below
  /// a recompute (eval/incremental.h).
  IncrementalMode incremental_mode = IncrementalMode::kOff;
  /// Entry store for incremental execution; caller-owned, must outlive the
  /// calls that use it. Null disables patching even in kAuto mode.
  IncrementalCache* incremental_cache = nullptr;
  /// Edits larger than this fraction of the changed relations' current
  /// cardinality are recomputed rather than patched.
  double incremental_edit_fraction = 0.10;

  bool index_enabled() const { return index_mode != IndexMode::kOff; }
  bool columnar_enabled() const { return columnar_mode != ColumnarMode::kOff; }
  bool incremental_enabled() const {
    return incremental_mode != IncrementalMode::kOff &&
           incremental_cache != nullptr;
  }
};

}  // namespace hql

#endif  // HQL_EVAL_PHYSICAL_POLICY_H_
