#include "server/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <utility>

#include "common/strings.h"
#include "opt/explain.h"
#include "parser/parser.h"
#include "server/wire.h"

namespace hql {

namespace {

/// Sends the whole buffer; false on a dead peer. MSG_NOSIGNAL keeps a
/// disconnected client from killing the process with SIGPIPE.
bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

struct HqlServer::Conn {
  int fd = -1;
  /// Set and cleared only by the handler thread, which alone dereferences
  /// it without `session_mu`; Stop() and the monitor cancel through
  /// CancelSession(), so the session is never destroyed under them.
  SessionPtr session;
  std::mutex session_mu;
  std::thread thread;
  /// True while a request is executing — the monitor polls only these.
  std::atomic<bool> busy{false};
  std::atomic<bool> finished{false};

  void CancelSession() {
    std::lock_guard<std::mutex> lock(session_mu);
    if (session != nullptr) session->Cancel();
  }
};

HqlServer::HqlServer(Engine* engine, ServerOptions options)
    : engine_(engine), options_(options) {}

HqlServer::~HqlServer() { Stop(); }

Status HqlServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already running");
  }
  stopping_.store(false, std::memory_order_release);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(StrFormat("socket: %s", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status st = Status::Internal(StrFormat("bind: %s", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 64) < 0) {
    Status st = Status::Internal(StrFormat("listen: %s", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    Status st =
        Status::Internal(StrFormat("getsockname: %s", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  port_ = ntohs(addr.sin_port);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  monitor_thread_ = std::thread([this] { MonitorLoop(); });
  return Status::OK();
}

void HqlServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  // Unblock accept(). The descriptor is closed only once the accept thread
  // has exited, so it is never read while written or reused while blocked.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (monitor_thread_.joinable()) monitor_thread_.join();
  // Cancel in-flight work, then unblock every handler's read.
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    conn->CancelSession();
    ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
    ::close(conn->fd);
  }
}

size_t HqlServer::active_connections() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t live = 0;
  for (const auto& conn : conns_) {
    if (!conn->finished.load(std::memory_order_acquire)) ++live;
  }
  return live;
}

void HqlServer::ReapFinished() {
  std::vector<std::shared_ptr<Conn>> done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->finished.load(std::memory_order_acquire)) {
        done.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& conn : done) {
    if (conn->thread.joinable()) conn->thread.join();
    ::close(conn->fd);
  }
}

void HqlServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by Stop()
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    total_connections_.fetch_add(1, std::memory_order_relaxed);
    ReapFinished();
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(mu_);
      conns_.push_back(conn);
    }
    conn->thread = std::thread([this, conn] { HandleConnection(conn); });
  }
}

void HqlServer::MonitorLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    std::vector<std::shared_ptr<Conn>> busy;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& conn : conns_) {
        if (conn->busy.load(std::memory_order_acquire) &&
            !conn->finished.load(std::memory_order_acquire)) {
          busy.push_back(conn);
        }
      }
    }
    for (const auto& conn : busy) {
      pollfd pfd;
      pfd.fd = conn->fd;
      pfd.events = POLLRDHUP;
      pfd.revents = 0;
      if (::poll(&pfd, 1, 0) > 0 &&
          (pfd.revents & (POLLRDHUP | POLLHUP | POLLERR | POLLNVAL)) != 0) {
        conn->CancelSession();
      }
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.monitor_interval_ms));
  }
}

void HqlServer::HandleConnection(std::shared_ptr<Conn> conn) {
  auto created = engine_->CreateSession(StrFormat("conn-%d", conn->fd));
  if (!created.ok()) {
    // Admission failure: one error line, then a clean close.
    WriteAll(conn->fd, WireResponse::Error(created.status()) + "\n");
    ::shutdown(conn->fd, SHUT_RDWR);
    conn->finished.store(true, std::memory_order_release);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(conn->session_mu);
    conn->session = std::move(created).value();
  }

  std::string buffer;
  char chunk[4096];
  bool close_after = false;
  while (!close_after && !stopping_.load(std::memory_order_acquire)) {
    // Serve every complete line already buffered.
    size_t nl;
    while (!close_after && (nl = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      std::string response = Dispatch(*conn, line, &close_after);
      if (!WriteAll(conn->fd, response + "\n")) {
        // Peer vanished while we were replying: drop the connection.
        close_after = true;
      }
    }
    if (close_after) break;
    if (buffer.size() > options_.max_line_bytes) {
      WriteAll(conn->fd,
               WireResponse::Error(Status::InvalidArgument(
                   "request line too long")) +
                   "\n");
      break;
    }
    ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // disconnect (or Stop's shutdown)
    buffer.append(chunk, static_cast<size_t>(n));
  }
  // Whatever happens next (a half-written query, Stop racing us), this
  // session must not keep any engine slot or run any more work.
  SessionPtr done;
  {
    std::lock_guard<std::mutex> lock(conn->session_mu);
    done = std::move(conn->session);
  }
  done->Cancel();
  done.reset();
  ::shutdown(conn->fd, SHUT_RDWR);
  conn->finished.store(true, std::memory_order_release);
}

std::string HqlServer::Dispatch(Conn& conn, const std::string& line,
                                bool* close_after) {
  total_requests_.fetch_add(1, std::memory_order_relaxed);
  auto parsed = ParseWireRequest(line);
  if (!parsed.ok()) return WireResponse::Error(parsed.status());
  const WireRequest& req = parsed.value();
  Session& session = *conn.session;

  if (req.op == "ping") {
    return std::move(WireResponse(true)
                         .AddString("server", "hql")
                         .AddNumber("protocol", 1)
                         .AddNumber("sessions",
                                    static_cast<double>(
                                        engine_->live_sessions())))
        .Finish();
  }
  if (req.op == "options") {
    return std::move(
               WireResponse(true).AddString("options",
                                            session.options().Describe()))
        .Finish();
  }
  if (req.op == "profile") {
    Status st = session.Set("profile", req.args[0]);
    if (!st.ok()) return WireResponse::Error(st);
    return std::move(WireResponse(true)).Finish();
  }
  if (req.op == "set") {
    Status st = session.Set(req.args[0], req.args[1]);
    if (!st.ok()) return WireResponse::Error(st);
    return std::move(WireResponse(true)).Finish();
  }
  if (req.op == "derive") {
    auto edge = ParseHypo(req.tail);
    if (!edge.ok()) return WireResponse::Error(edge.status());
    Status st = session.Derive(req.args[0], req.args[1], edge.value());
    if (!st.ok()) return WireResponse::Error(st);
    return std::move(WireResponse(true).AddNumber(
                         "nodes", static_cast<double>(session.NumNodes())))
        .Finish();
  }
  if (req.op == "edit") {
    auto edge = ParseHypo(req.tail);
    if (!edge.ok()) return WireResponse::Error(edge.status());
    Status st = session.Edit(req.args[0], edge.value());
    if (!st.ok()) return WireResponse::Error(st);
    return std::move(WireResponse(true)).Finish();
  }
  if (req.op == "drop") {
    Status st = session.Drop(req.args[0]);
    if (!st.ok()) return WireResponse::Error(st);
    return std::move(WireResponse(true).AddNumber(
                         "nodes", static_cast<double>(session.NumNodes())))
        .Finish();
  }
  if (req.op == "nodes") {
    std::string arr = "[";
    bool first = true;
    for (const ScenarioInfo& info : session.Nodes()) {
      if (!first) arr += ',';
      first = false;
      arr += std::move(WireResponse(true)
                           .AddString("name", info.name)
                           .AddString("parent", info.parent)
                           .AddBool("materialized", info.materialized))
                 .Finish();
    }
    arr += ']';
    // The per-node objects reuse the response builder, so each carries an
    // "ok":true field; readers key on "name".
    return std::move(WireResponse(true).AddRaw("nodes", arr)).Finish();
  }
  if (req.op == "query" || req.op == "fetch" || req.op == "compare") {
    auto query = ParseQuery(req.tail);
    if (!query.ok()) return WireResponse::Error(query.status());
    conn.busy.store(true, std::memory_order_release);
    Result<Relation> out =
        req.op == "compare"
            ? session.Compare(req.args[0], req.args[1], query.value())
            : session.Query(req.args[0], query.value());
    conn.busy.store(false, std::memory_order_release);
    if (!out.ok()) return WireResponse::Error(out.status());
    WireResponse r(true);
    r.AddRelationSummary(out.value());
    if (req.op == "fetch") r.AddTuples(out.value());
    return std::move(r).Finish();
  }
  if (req.op == "analyze") {
    auto query = ParseQuery(req.tail);
    if (!query.ok()) return WireResponse::Error(query.status());
    conn.busy.store(true, std::memory_order_release);
    Result<AnalyzeReport> report = session.Analyze(req.args[0], query.value());
    conn.busy.store(false, std::memory_order_release);
    if (!report.ok()) return WireResponse::Error(report.status());
    return std::move(
               WireResponse(true)
                   .AddNumber("rows",
                              static_cast<double>(report->actual_rows))
                   .AddNumber("wall_micros",
                              static_cast<double>(report->wall_micros))
                   .AddString("route", report->exec.route)
                   .AddString("report", FormatExplainAnalyze(report.value())))
        .Finish();
  }
  if (req.op == "stats") {
    return std::move(
               WireResponse(true).AddRaw("stats", session.Stats().ToJson()))
        .Finish();
  }
  if (req.op == "refresh") {
    Status st = session.Refresh();
    if (!st.ok()) return WireResponse::Error(st);
    return std::move(WireResponse(true).AddNumber(
                         "version",
                         static_cast<double>(session.snapshot_version())))
        .Finish();
  }
  if (req.op == "base") {
    Database snapshot = session.BaseSnapshot();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(snapshot.Hash()));
    return std::move(
               WireResponse(true)
                   .AddNumber("version",
                              static_cast<double>(session.snapshot_version()))
                   .AddString("hash", buf)
                   .AddNumber("relations",
                              static_cast<double>(
                                  snapshot.schema().NumRelations())))
        .Finish();
  }
  if (req.op == "quit") {
    *close_after = true;
    return std::move(WireResponse(true).AddBool("bye", true)).Finish();
  }
  return WireResponse::Error(
      Status::Internal(StrFormat("unhandled op '%s'", req.op.c_str())));
}

}  // namespace hql
