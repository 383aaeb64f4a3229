#ifndef HQL_SERVER_SOAK_H_
#define HQL_SERVER_SOAK_H_

// Network soak: replays the workload driver's phased mix over N concurrent
// wire sessions against a running hql_serve, with the same differential
// oracle as the local stress harness — every server answer is checked
// bit-identically (row count + relation hash) against a local mirror
// engine evaluating the identical scenario tree with Strategy::kDirect.
//
// The mirror rebuilds the server's base from (seed, gen_rows, gen_domain),
// so the soak only makes sense against a server started with the matching
// --gen-* flags (hql_stress --connect passes its own through).

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "workload/driver.h"

namespace hql {

/// The soak's fixed query pool over PropertySchema (A1..B3). Kept small and
/// cheap: the soak's job is concurrency + isolation coverage, not operator
/// coverage (the local property suites own that).
std::vector<std::string> DefaultSoakQueries();

struct NetSoakConfig {
  /// Loopback port of the hql_serve instance to drive.
  uint16_t port = 0;
  /// Concurrent wire sessions (each owns a private scenario tree).
  int sessions = 8;
  /// Scenario nodes each session derives in the grow phase (>= 1).
  int nodes_per_session = 8;
  /// Oracle-checked ops per session in each of the query/edit/churn phases.
  int ops_per_phase = 25;
  /// Seed for the op mix AND the server's base database. Must match the
  /// server's --gen-seed for the oracle to be meaningful.
  uint64_t seed = 1;
  /// The server's --gen-rows / --gen-domain, mirrored locally.
  size_t gen_rows = 64;
  int64_t gen_domain = 64;
  /// Queries the oracle draws from. An entry that does not parse is a
  /// soak failure (counted in NetSoakReport::mismatches).
  std::vector<std::string> queries = DefaultSoakQueries();
};

struct NetSoakReport {
  /// One entry per phase: connect, grow, query, edit, churn.
  std::vector<PhaseMetrics> phases;
  uint64_t requests = 0;
  /// Server answers that differed from the local kDirect mirror, or
  /// ok/error disagreements between server and mirror.
  uint64_t mismatches = 0;
  /// Requests that failed at the transport layer (connection lost, bad
  /// JSON) — distinct from clean protocol errors, which the oracle checks.
  uint64_t transport_errors = 0;
  double seconds = 0.0;

  bool ok() const { return mismatches == 0 && transport_errors == 0; }
  std::string Summary() const;
};

/// Runs the soak against 127.0.0.1:port. Fails (non-OK status) only on
/// setup errors — oracle violations are reported in the result so the
/// caller can print per-phase context before exiting non-zero.
Result<NetSoakReport> RunNetSoak(const NetSoakConfig& config);

}  // namespace hql

#endif  // HQL_SERVER_SOAK_H_
