#include "storage/index.h"

#include <cstdint>
#include <limits>

#include "common/check.h"
#include "common/exec_context.h"
#include "common/failpoint.h"

namespace hql {

namespace {

// Guards lazy allocation of a Relation's index_cache_ pointer. A global
// mutex keeps the hot Relation object one pointer wider instead of one
// mutex wider; contention is bounded by index lookups, which are rare next
// to tuple work.
std::mutex& CacheAllocMutex() {
  static std::mutex mu;
  return mu;
}

}  // namespace

void AddIndexTuplesSkipped(uint64_t n) {
  AmbientExecContext().AddIndexTuplesSkipped(n);
}

RelationIndex::RelationIndex(const Relation& base,
                             std::vector<size_t> columns)
    : columns_(std::move(columns)) {
  HQL_FAIL_POINT(kFailPointIndexBuild);
  HQL_CHECK_MSG(!columns_.empty(), "index needs at least one column");
  for (size_t i = 0; i < columns_.size(); ++i) {
    HQL_CHECK_MSG(columns_[i] < base.arity(), "index column out of range");
    if (i > 0) {
      HQL_CHECK_MSG(columns_[i - 1] < columns_[i],
                    "index columns must be strictly ascending");
    }
  }
  const std::vector<Tuple>& tuples = base.tuples();
  HQL_CHECK(tuples.size() <=
            static_cast<size_t>(std::numeric_limits<uint32_t>::max()));
  // Group positions by key, then flatten into one contiguous array of
  // per-key runs. Positions within a run are ascending because the scan
  // visits the sorted base in order.
  std::unordered_map<Tuple, std::vector<uint32_t>, TupleHash> groups;
  groups.reserve(tuples.size());
  for (uint32_t i = 0; i < tuples.size(); ++i) {
    groups[KeyOf(tuples[i])].push_back(i);
  }
  positions_.reserve(tuples.size());
  buckets_.reserve(groups.size());
  for (auto& [key, run] : groups) {
    buckets_.emplace(key,
                     std::make_pair(static_cast<uint32_t>(positions_.size()),
                                    static_cast<uint32_t>(run.size())));
    positions_.insert(positions_.end(), run.begin(), run.end());
  }
}

RelationIndex::PosSpan RelationIndex::Probe(const Tuple& key) const {
  AmbientExecContext().AddIndexProbe();
  auto it = buckets_.find(key);
  if (it == buckets_.end()) return PosSpan{};
  return PosSpan{positions_.data() + it->second.first, it->second.second};
}

Tuple RelationIndex::KeyOf(const Tuple& t) const {
  Tuple key;
  key.reserve(columns_.size());
  for (size_t c : columns_) key.push_back(t[c]);
  return key;
}

struct Relation::IndexCache {
  std::mutex mu;
  std::map<std::vector<size_t>, RelationIndexPtr> by_columns;
};

std::shared_ptr<const RelationIndex> Relation::IndexOn(
    const std::vector<size_t>& columns) const {
  std::shared_ptr<IndexCache> cache;
  {
    std::lock_guard<std::mutex> lock(CacheAllocMutex());
    if (index_cache_ == nullptr) index_cache_ = std::make_shared<IndexCache>();
    cache = index_cache_;
  }
  // Build under the per-relation lock: concurrent requests for the same
  // (base, columns) wait on the first build and then share it, so a family
  // of alternatives racing here still funds exactly one construction.
  std::lock_guard<std::mutex> lock(cache->mu);
  auto it = cache->by_columns.find(columns);
  if (it != cache->by_columns.end()) {
    AmbientExecContext().AddIndexShared();
    return it->second;
  }
  auto index = std::make_shared<const RelationIndex>(*this, columns);
  cache->by_columns.emplace(columns, index);
  AmbientExecContext().AddIndexBuilt();
  return index;
}

std::shared_ptr<const RelationIndex> Relation::ExistingIndex(
    const std::vector<size_t>& columns) const {
  std::shared_ptr<IndexCache> cache;
  {
    std::lock_guard<std::mutex> lock(CacheAllocMutex());
    cache = index_cache_;
  }
  if (cache == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(cache->mu);
  auto it = cache->by_columns.find(columns);
  if (it == cache->by_columns.end()) return nullptr;
  AmbientExecContext().AddIndexShared();
  return it->second;
}

RelationIndexPtr IndexAdvisor::Advise(const RelationPtr& base,
                                      const std::vector<size_t>& columns) {
  if (base == nullptr) return nullptr;
  bool build = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++accesses_;
    size_t& count = counts_[{static_cast<const void*>(base.get()), columns}];
    ++count;
    if (count == threshold_) {
      build = true;
      ++builds_;
    } else {
      build = count > threshold_;
    }
  }
  // IndexOn outside the advisor lock: the build may be slow, and the
  // relation cache's own locking already serializes duplicate builds.
  if (build) return base->IndexOn(columns);
  return base->ExistingIndex(columns);
}

IndexAdvisor::Stats IndexAdvisor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Stats{accesses_, builds_};
}

}  // namespace hql
