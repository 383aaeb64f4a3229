#include "drive.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>

namespace wirebench {

namespace {

using Clock = std::chrono::steady_clock;

int64_t NanosSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

// A blocking line-in/line-out connection that hands back the raw response
// text (hql::WireClient parses every response, which would put client
// JSON work inside the timed round trip).
class LineConn {
 public:
  LineConn() = default;
  ~LineConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  hql::Status Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return hql::Status::Internal(std::strerror(errno));
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      return hql::Status::Internal(std::string("connect: ") +
                                   std::strerror(errno));
    }
    return hql::Status::OK();
  }

  /// Sends `line` plus a newline and reads one response line into *out
  /// (without its newline).
  hql::Status Call(const std::string& line, std::string* out) {
    std::string msg = line + "\n";
    for (size_t off = 0; off < msg.size();) {
      ssize_t n = ::send(fd_, msg.data() + off, msg.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return hql::Status::Internal("send failed");
      off += static_cast<size_t>(n);
    }
    for (;;) {
      size_t nl = buffer_.find('\n', scanned_);
      if (nl != std::string::npos) {
        out->assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        scanned_ = 0;
        return hql::Status::OK();
      }
      scanned_ = buffer_.size();
      char chunk[65536];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return hql::Status::Internal("connection closed");
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  size_t scanned_ = 0;
};

Response ParseResponse(const std::string& line) {
  Response r;
  r.bytes = line.size() + 1;
  hql::Result<hql::JsonPtr> doc = hql::ParseJson(line);
  if (!doc.ok()) return r;
  const hql::JsonValue& v = *doc.value();
  if (hql::JsonPtr ok = v.Get("ok")) r.ok = ok->is_bool() && ok->bool_value();
  if (hql::JsonPtr rows = v.Get("rows")) r.rows = rows->number();
  if (hql::JsonPtr hash = v.Get("hash")) r.hash = hash->string_value();
  if (hql::JsonPtr tuples = v.Get("tuples")) {
    r.tuples = static_cast<double>(tuples->items().size());
  }
  return r;
}

}  // namespace

hql::Result<WireRun> DriveWire(uint16_t port, const std::vector<Script>& scripts,
                               double seconds, int pings) {
  const size_t n = scripts.size();
  std::vector<std::unique_ptr<LineConn>> conns;
  std::string reply;
  for (size_t c = 0; c < n; ++c) {
    conns.push_back(std::make_unique<LineConn>());
    HQL_RETURN_IF_ERROR(conns.back()->Connect(port));
    HQL_RETURN_IF_ERROR(conns.back()->Call("ping", &reply));
    if (!ParseResponse(reply).ok) {
      return hql::Status::Internal("handshake refused: " + reply);
    }
  }

  WireRun run;
  run.conns.resize(n);
  std::vector<std::vector<std::string>> raw(n);
  std::vector<int64_t> last_end(n, 0);
  const Clock::time_point t0 = Clock::now();
  const int64_t deadline_ns = static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      const Script& script = scripts[c];
      ConnRun& out = run.conns[c];
      for (uint64_t i = 0;; ++i) {
        int64_t start = NanosSince(t0);
        if (start >= deadline_ns) break;
        std::string line;
        hql::Status st = conns[c]->Call(script[i % script.size()].request, &line);
        int64_t end = NanosSince(t0);
        if (!st.ok()) {
          out.transport_error = st.ToString();
          break;
        }
        out.sent.push_back(Sent{i, start, end - start, Response{}});
        raw[c].push_back(std::move(line));
        last_end[c] = end;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  int64_t window_end = 0;
  for (int64_t e : last_end) window_end = std::max(window_end, e);
  run.window_s = static_cast<double>(window_end) / 1e9;

  // The transport floor, measured one connection at a time on an idle
  // server, then each session's counters.
  for (size_t c = 0; c < n; ++c) {
    ConnRun& out = run.conns[c];
    for (size_t k = 0; k < out.sent.size(); ++k) {
      out.sent[k].response = ParseResponse(raw[c][k]);
    }
    raw[c].clear();
    if (!out.transport_error.empty()) continue;
    for (int p = 0; p < pings; ++p) {
      Clock::time_point s = Clock::now();
      if (!conns[c]->Call("ping", &reply).ok()) break;
      out.ping_ns.push_back(NanosSince(s));
    }
    if (conns[c]->Call("stats", &reply).ok()) {
      hql::Result<hql::JsonPtr> doc = hql::ParseJson(reply);
      if (doc.ok()) out.stats = doc.value()->Get("stats");
    }
    (void)conns[c]->Call("quit", &reply);
  }
  return run;
}

}  // namespace wirebench
