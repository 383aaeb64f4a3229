#ifndef HQL_STORAGE_COLUMN_BATCH_H_
#define HQL_STORAGE_COLUMN_BATCH_H_

// Columnar image of a flat relation base: one contiguous array per column,
// plus typed fast-path arrays when every value in a column shares one
// numeric type. The batch is a read-only cache derived from the sorted
// tuple vector — row order in the batch IS the sorted relation order, so
// position i always refers to base.tuples()[i] and results reassembled
// from positions stay bit-identical to the row-at-a-time kernels.
//
// Batches are built lazily on first request (Relation::ColumnarBatch) and
// cached install-once on the relation, exactly like the secondary-index
// cache: concurrent first requests wait on one transposition and then
// share it; copies drop the cache, moves carry it, Insert/Erase reset it.
// Copy-on-write overlays never get a batch of their own — their base does,
// and the delta stays row-oriented (eval/vector_exec.h patches it in).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "storage/relation.h"
#include "storage/value.h"

namespace hql {

enum class ColumnEncoding : uint8_t {
  kInt64,    // every value in the column is an int
  kFloat64,  // every value in the column is a double
  kGeneric,  // mixed or non-numeric: per-row Values
};

/// The transposed, optionally type-specialized image of one relation's
/// tuples. Immutable after construction; shared by pointer.
class ColumnBatch {
 public:
  /// Transposes `base`. Fail-point site "column_batch.build" fires here.
  explicit ColumnBatch(const Relation& base);

  size_t rows() const { return rows_; }
  size_t arity() const { return columns_.size(); }

  ColumnEncoding encoding(size_t c) const { return columns_[c].encoding; }

  /// Typed views; each requires the matching encoding.
  const int64_t* ints(size_t c) const { return columns_[c].i64.data(); }
  const double* doubles(size_t c) const { return columns_[c].f64.data(); }
  /// Boxed view; valid only for kGeneric columns.
  const Value* generic(size_t c) const { return columns_[c].vals.data(); }

  /// Reboxes one cell (any encoding); for residual predicates and tests.
  Value ValueAt(size_t row, size_t c) const;

 private:
  struct Column {
    ColumnEncoding encoding = ColumnEncoding::kGeneric;
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<Value> vals;
  };

  size_t rows_ = 0;
  std::vector<Column> columns_;
};

using ColumnBatchPtr = std::shared_ptr<const ColumnBatch>;

}  // namespace hql

#endif  // HQL_STORAGE_COLUMN_BATCH_H_
