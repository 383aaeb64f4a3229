#ifndef WIREBENCH_WORKLOADS_H_
#define WIREBENCH_WORKLOADS_H_

// The benchmark's workloads: seeded generation of each one's base
// database and per-connection request scripts. The same (workload, seed,
// size) always yields byte-identical files.

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "script.h"
#include "storage/database.h"

namespace wirebench {

struct WorkloadInfo {
  std::string name;
  /// Why the workload exists and why it is sized the way it is.
  std::string why;
};

/// scan_join, whatif_edit, chatty_small.
const std::vector<WorkloadInfo>& Workloads();
const WorkloadInfo* FindWorkload(const std::string& name);

struct Generated {
  hql::Database base;
  std::vector<Script> scripts;  // one per connection
  /// One instance of every query template (or the whole finite pool):
  /// each must parse and succeed at the root of `base`.
  std::vector<std::string> checks;
};

/// Builds a workload's base and scripts. `tiny` shrinks the base and the
/// scripts so the whole workload runs in seconds (the self-check).
hql::Result<Generated> Generate(const std::string& workload, uint64_t seed,
                                bool tiny);

/// Checks a generation before anything is measured: every request line
/// parses, every query type-checks against the base schema, every
/// `checks` query succeeds at the root under direct evaluation, and every
/// script is a valid tree walk that ends back at the bare root.
hql::Status CheckGenerated(const Generated& gen);

}  // namespace wirebench

#endif  // WIREBENCH_WORKLOADS_H_
