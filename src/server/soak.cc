#include "server/soak.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/rng.h"
#include "opt/engine.h"
#include "parser/parser.h"
#include "server/client.h"
#include "workload/generators.h"

namespace hql {

namespace {

std::string RandomEdgeText(Rng* rng, int64_t domain) {
  int64_t v = rng->Uniform(0, domain > 1 ? domain - 1 : 0);
  int64_t w = rng->Uniform(0, domain > 1 ? domain - 1 : 0);
  switch (rng->Uniform(0, 4)) {
    case 0:
      return "{ins(A1, {(" + std::to_string(v) + ")})}";
    case 1:
      return "{del(A1, {(" + std::to_string(v) + ")})}";
    case 2:
      return "{ins(A2, {(" + std::to_string(v) + ", " + std::to_string(w) +
             ")})}";
    case 3:
      return "{del(B2, sigma[$0 >= " + std::to_string(v) + "](B2))}";
    default:
      return "{ins(B1, pi[0](A2))}";
  }
}

// One wire session plus its local kDirect mirror and private op stream.
struct Soaker {
  const std::vector<std::string>* queries = nullptr;
  std::unique_ptr<WireClient> wire;
  SessionPtr local;
  std::vector<std::string> nodes;  // live scenario names, nodes[0] = root
  Rng rng;
  int id = 0;
  int64_t domain = 64;
  uint64_t requests = 0;
  uint64_t mismatches = 0;
  uint64_t transport_errors = 0;
  std::vector<double> latencies_ms;

  explicit Soaker(uint64_t seed) : rng(seed) {}

  std::string FreshName() {
    return "s" + std::to_string(id) + "n" + std::to_string(requests);
  }

  const std::string& RandomNode() {
    return nodes[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(nodes.size()) - 1))];
  }

  const std::string& RandomQuery() {
    return (*queries)[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(queries->size()) - 1))];
  }

  Result<JsonPtr> Timed(const std::string& line) {
    auto start = std::chrono::steady_clock::now();
    Result<JsonPtr> out = wire->Call(line);
    latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count());
    ++requests;
    return out;
  }

  /// The differential oracle: asks the server, asks the local kDirect
  /// mirror, and requires both to agree — on success/failure, and on row
  /// count + relation hash when both succeed. A query that does not parse
  /// checks nothing (both sides would fail alike), so it counts as a
  /// mismatch: the pool itself is broken.
  void OracleQuery(const std::string& node, const std::string& qtext) {
    Result<JsonPtr> resp = Timed("query " + node + " " + qtext);
    if (!resp.ok()) {
      ++transport_errors;
      return;
    }
    Result<QueryPtr> q = ParseQuery(qtext);
    if (!q.ok()) {
      ++mismatches;
      return;
    }
    Result<Relation> expected = local->Query(node, q.value());
    bool server_ok = (*resp)->Get("ok")->bool_value();
    if (server_ok != expected.ok()) {
      ++mismatches;
      return;
    }
    if (!server_ok) return;  // both failed cleanly: agreement
    if ((*resp)->Get("rows")->number() !=
            static_cast<double>(expected->size()) ||
        (*resp)->Get("hash")->string_value() !=
            std::to_string(expected->Hash())) {
      ++mismatches;
    }
  }

  /// Derives a fresh child of a random live node on both sides.
  void Grow() {
    std::string parent = RandomNode();
    std::string child = FreshName();
    std::string edge = RandomEdgeText(&rng, domain);
    Result<JsonPtr> resp = Timed("derive " + parent + " " + child + " " + edge);
    if (!resp.ok()) {
      ++transport_errors;
      return;
    }
    Status mirrored = [&]() -> Status {
      HQL_ASSIGN_OR_RETURN(HypoExprPtr e, ParseHypo(edge));
      return local->Derive(parent, child, e);
    }();
    if ((*resp)->Get("ok")->bool_value() != mirrored.ok()) {
      ++mismatches;
      return;
    }
    if (mirrored.ok()) nodes.push_back(child);
  }

  /// Rewrites a random non-root node's edge on both sides, then
  /// oracle-checks a query at that node (the invalidated subtree must
  /// re-derive consistently).
  void Edit() {
    if (nodes.size() < 2) {
      Grow();
      return;
    }
    const std::string& node = nodes[static_cast<size_t>(
        rng.Uniform(1, static_cast<int64_t>(nodes.size()) - 1))];
    std::string edge = RandomEdgeText(&rng, domain);
    Result<JsonPtr> resp = Timed("edit " + node + " " + edge);
    if (!resp.ok()) {
      ++transport_errors;
      return;
    }
    Status mirrored = [&]() -> Status {
      HQL_ASSIGN_OR_RETURN(HypoExprPtr e, ParseHypo(edge));
      return local->Edit(node, e);
    }();
    if ((*resp)->Get("ok")->bool_value() != mirrored.ok()) {
      ++mismatches;
      return;
    }
    OracleQuery(node, RandomQuery());
  }

  /// Drops a random non-root subtree on both sides, then re-grows one
  /// node so the tree never collapses to the root.
  void Churn() {
    if (nodes.size() >= 2) {
      size_t pick = static_cast<size_t>(
          rng.Uniform(1, static_cast<int64_t>(nodes.size()) - 1));
      std::string victim = nodes[pick];
      Result<JsonPtr> resp = Timed("drop " + victim);
      if (!resp.ok()) {
        ++transport_errors;
        return;
      }
      Status mirrored = local->Drop(victim);
      if ((*resp)->Get("ok")->bool_value() != mirrored.ok()) {
        ++mismatches;
        return;
      }
      // The drop may have taken descendants with it: resync the live list
      // from the mirror (both sides dropped the same subtree).
      nodes.clear();
      for (const ScenarioInfo& info : local->Nodes()) {
        nodes.push_back(info.name);
      }
    }
    Grow();
    OracleQuery(RandomNode(), RandomQuery());
  }
};

/// Runs `op` concurrently on every soaker and folds the per-session
/// latencies/counters into one PhaseMetrics.
template <typename Op>
PhaseMetrics RunPhase(const std::string& label,
                      std::vector<std::unique_ptr<Soaker>>& soakers, Op op) {
  for (auto& s : soakers) s->latencies_ms.clear();
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(soakers.size());
  for (auto& s : soakers) {
    threads.emplace_back([&op, &s] { op(*s); });
  }
  for (auto& t : threads) t.join();

  PhaseMetrics m;
  m.label = label;
  m.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  for (auto& s : soakers) {
    m.ops += static_cast<int>(s->latencies_ms.size());
    m.latencies_ms.insert(m.latencies_ms.end(), s->latencies_ms.begin(),
                          s->latencies_ms.end());
  }
  m.oracle_runs = static_cast<uint64_t>(m.ops);
  std::sort(m.latencies_ms.begin(), m.latencies_ms.end());
  return m;
}

}  // namespace

std::vector<std::string> DefaultSoakQueries() {
  return {
      "A1",
      "B1",
      "sigma[$0 >= 1](A2)",
      "pi[0](B2)",
      "A1 union B1",
      "A2 join[$0 = $2] B2",
      "pi[0](A3)",
      "sigma[$0 >= 2](B3)",
  };
}

std::string NetSoakReport::Summary() const {
  std::ostringstream os;
  os << "net soak: " << requests << " requests in " << seconds << "s, "
     << mismatches << " oracle mismatch(es), " << transport_errors
     << " transport error(s)";
  for (const PhaseMetrics& m : phases) {
    os << "\n  [" << m.label << "] " << m.ops << " ops, "
       << m.OpsPerSec() << " ops/s, p50 " << m.LatencyMs(50) << "ms, p99 "
       << m.LatencyMs(99) << "ms";
  }
  return os.str();
}

Result<NetSoakReport> RunNetSoak(const NetSoakConfig& config) {
  if (config.sessions < 1 || config.nodes_per_session < 1 ||
      config.queries.empty()) {
    return Status::InvalidArgument(
        "net soak needs >= 1 session, node and query");
  }

  // The local mirror: same base the server generated from the same flags.
  Rng base_rng(config.seed);
  Database base = RandomDatabase(&base_rng, PropertySchema(), config.gen_rows,
                                 config.gen_domain);
  EngineOptions options;
  options.strategy = Strategy::kDirect;
  options.max_sessions = static_cast<size_t>(config.sessions);
  Engine mirror(std::move(base), options);

  auto soak_start = std::chrono::steady_clock::now();
  NetSoakReport report;
  std::vector<std::unique_ptr<Soaker>> soakers;

  // Phase 1: connect. Session setup is itself measured — a server that
  // serializes handshakes shows up here.
  {
    auto start = std::chrono::steady_clock::now();
    PhaseMetrics m;
    m.label = "connect";
    for (int i = 0; i < config.sessions; ++i) {
      auto op_start = std::chrono::steady_clock::now();
      auto soaker =
          std::make_unique<Soaker>(config.seed ^ (0x9e3779b97f4a7c15ull *
                                                  static_cast<uint64_t>(i + 1)));
      soaker->id = i;
      soaker->queries = &config.queries;
      soaker->domain = config.gen_domain;
      soaker->nodes.push_back("root");
      HQL_ASSIGN_OR_RETURN(WireClient wire, WireClient::Connect(config.port));
      soaker->wire = std::make_unique<WireClient>(std::move(wire));
      HQL_ASSIGN_OR_RETURN(soaker->local, mirror.CreateSession(
                                              "mirror-" + std::to_string(i)));
      Result<JsonPtr> pong = soaker->wire->CallOk("ping");
      if (!pong.ok()) {
        return Status::Internal("session " + std::to_string(i) +
                                " handshake failed: " +
                                pong.status().ToString());
      }
      m.latencies_ms.push_back(
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - op_start)
              .count());
      ++m.ops;
      soakers.push_back(std::move(soaker));
    }
    m.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    std::sort(m.latencies_ms.begin(), m.latencies_ms.end());
    report.phases.push_back(std::move(m));
  }

  // Phase 2: grow — every session derives its private tree, verifying
  // each fresh node immediately.
  const int nodes = config.nodes_per_session;
  report.phases.push_back(RunPhase("grow", soakers, [nodes](Soaker& s) {
    for (int i = 0; i < nodes; ++i) {
      s.Grow();
      s.OracleQuery(s.nodes.back(), s.RandomQuery());
    }
  }));

  // Phase 3: query — read-heavy, random (node, query) pairs.
  const int ops = config.ops_per_phase;
  report.phases.push_back(RunPhase("query", soakers, [ops](Soaker& s) {
    for (int i = 0; i < ops; ++i) {
      s.OracleQuery(s.RandomNode(), s.RandomQuery());
    }
  }));

  // Phase 4: edit — subtree invalidation under concurrency.
  report.phases.push_back(RunPhase("edit", soakers, [ops](Soaker& s) {
    for (int i = 0; i < ops; ++i) s.Edit();
  }));

  // Phase 5: churn — drops, re-derives, and queries interleaved.
  report.phases.push_back(RunPhase("churn", soakers, [ops](Soaker& s) {
    for (int i = 0; i < ops; ++i) s.Churn();
  }));

  for (auto& s : soakers) {
    report.requests += s->requests;
    report.mismatches += s->mismatches;
    report.transport_errors += s->transport_errors;
    s->wire->Quit();
  }
  report.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - soak_start)
                       .count();
  return report;
}

}  // namespace hql
