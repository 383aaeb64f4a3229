#ifndef WIREBENCH_REPLAY_H_
#define WIREBENCH_REPLAY_H_

// In-process replays of a finished wire run, after its timed window:
//
//   * Verify — the answer check. Every connection's sent stream is
//     replayed against a Strategy::kDirect engine (direct semantics, no
//     caches, no planner), and each distinct (path, query) pair is
//     evaluated once and compared with every wire answer for it on ok,
//     rows and hash.
//   * Trace — the per-layer run. A prefix of each stream is replayed
//     through the library's public calls under the same profile as the
//     server: once timing only the server's own path (the untraced
//     baseline), once with a span around every layer call, made from this
//     benchmark's code, and the session's ExecContext operator spans
//     switched on and nested under each request's opt.execute. Spans stay
//     in memory and are written out at the end.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "drive.h"
#include "script.h"
#include "storage/database.h"

namespace wirebench {

/// Median of `samples` (0 when empty).
double Median(std::vector<double> samples);

struct VerifyResult {
  uint64_t pairs = 0;       // distinct (path, query) pairs evaluated
  /// Wire answers that disagree with the oracle (a failed write or other
  /// request counts too: every scripted request is meant to succeed).
  std::set<const Sent*> bad;
  std::vector<std::string> examples;  // the first few, for the log
};

VerifyResult Verify(const hql::Database& base,
                    const std::vector<Script>& scripts, const WireRun& run,
                    int threads);

struct TraceResult {
  std::map<std::string, double> metrics;  // per-layer metric name -> value
  std::vector<std::string> notes;         // human-readable findings
};

/// Replays the requests each connection started in the first `fraction`
/// of the window, with `profile` engines over the base in `db_path`;
/// writes the spans to `spans_path` as tab-separated values.
hql::Result<TraceResult> Trace(const std::string& db_path,
                               const std::vector<Script>& scripts,
                               const WireRun& run, const std::string& profile,
                               double fraction, const std::string& spans_path);

}  // namespace wirebench

#endif  // WIREBENCH_REPLAY_H_
