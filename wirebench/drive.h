#ifndef WIREBENCH_DRIVE_H_
#define WIREBENCH_DRIVE_H_

// The timed, closed-loop wire run: one thread and one connection per
// script, each sending its next request only when the previous response
// has arrived. Responses are kept raw during the window and parsed after
// it, so the client adds no JSON work to the measured round trips.

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "script.h"

namespace wirebench {

/// One response, as parsed after the window.
struct Response {
  bool ok = false;
  double rows = -1;
  std::string hash;
  double tuples = -1;  // length of "tuples" (fetch only)
  size_t bytes = 0;    // the response line, newline included
};

struct Sent {
  uint64_t ordinal = 0;   // position in the stream; line = ordinal % size
  int64_t start_ns = 0;   // from the window start
  int64_t latency_ns = 0;
  Response response;
};

struct ConnRun {
  std::vector<Sent> sent;
  /// Set when the connection broke; the request that hit it is not in
  /// `sent` but counts as attempted and failed.
  std::string transport_error;
  std::vector<int64_t> ping_ns;  // after the window
  hql::JsonPtr stats;            // the session's `stats` after the window
};

struct WireRun {
  std::vector<ConnRun> conns;
  double window_s = 0;  // window start to the last response in it
};

/// Runs every script against the server on `port` for `seconds`, then
/// takes `pings` ping round trips and one `stats` per connection.
hql::Result<WireRun> DriveWire(uint16_t port, const std::vector<Script>& scripts,
                               double seconds, int pings);

}  // namespace wirebench

#endif  // WIREBENCH_DRIVE_H_
