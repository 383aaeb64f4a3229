#include "replay.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <malloc.h>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "ast/hypo.h"
#include "ast/metrics.h"
#include "ast/query.h"
#include "common/exec_context.h"
#include "hql/collapse.h"
#include "hql/enf.h"
#include "hql/ra_rewrite.h"
#include "hql/reduce.h"
#include "opt/engine.h"
#include "opt/planner.h"
#include "parser/parser.h"
#include "server/wire.h"
#include "storage/io.h"
#include "storage/stats.h"

namespace wirebench {

namespace {

using Clock = std::chrono::steady_clock;

bool IsRead(const std::string& op) {
  return op == "query" || op == "fetch" || op == "compare";
}

bool IsWrite(const std::string& op) {
  return op == "derive" || op == "edit" || op == "drop";
}

// Applies a parsed write to a session.
hql::Status ApplyToSession(const hql::WireRequest& req, hql::Session* s) {
  if (req.op == "drop") return s->Drop(req.args[0]);
  HQL_ASSIGN_OR_RETURN(hql::HypoExprPtr edge, hql::ParseHypo(req.tail));
  if (req.op == "derive") return s->Derive(req.args[0], req.args[1], edge);
  return s->Edit(req.args[0], edge);
}

// Derives `edges` as a fresh chain prefix1, prefix2, ... below the root;
// returns the chain's last node ("root" for an empty path).
hql::Result<std::string> DeriveChain(hql::Session* s, const std::string& prefix,
                                     const std::vector<std::string>& edges) {
  std::string node = "root";
  for (size_t i = 0; i < edges.size(); ++i) {
    HQL_ASSIGN_OR_RETURN(hql::HypoExprPtr edge, hql::ParseHypo(edges[i]));
    std::string child = prefix + std::to_string(i + 1);
    HQL_RETURN_IF_ERROR(s->Derive(node, child, edge));
    node = child;
  }
  return node;
}

std::string HashText(const hql::Relation& r) { return std::to_string(r.Hash()); }

}  // namespace

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t m = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[m]
                                 : (samples[m - 1] + samples[m]) / 2;
}

VerifyResult Verify(const hql::Database& base,
                    const std::vector<Script>& scripts, const WireRun& run,
                    int threads) {
  hql::EngineOptions options;
  options.strategy = hql::Strategy::kDirect;
  options.memo = false;
  options.max_sessions = 0;
  hql::Engine engine(base, options);

  struct Pair {
    std::string op;
    std::vector<std::string> path_a, path_b;
    std::string query;
    std::vector<const Sent*> uses;
  };
  std::map<std::string, size_t> index;
  std::vector<Pair> pairs;
  VerifyResult result;
  std::mutex mu;
  auto mismatch = [&](const Sent* sent, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    result.bad.insert(sent);
    if (result.examples.size() < 5) result.examples.push_back(what);
  };

  // Writes replay in order on one oracle session per connection (their
  // ok must agree too); reads are collected into distinct pairs.
  for (size_t c = 0; c < scripts.size(); ++c) {
    hql::SessionPtr session = engine.CreateSession("oracle").value();
    ScenarioTree tree;
    for (const Sent& sent : run.conns[c].sent) {
      const std::string& line =
          scripts[c][sent.ordinal % scripts[c].size()].request;
      hql::Result<hql::WireRequest> req = hql::ParseWireRequest(line);
      if (!req.ok()) {
        mismatch(&sent, "unparsable script line: " + line);
        continue;
      }
      const std::string& op = req->op;
      if (IsWrite(op)) {
        hql::Status st = ApplyToSession(req.value(), session.get());
        if (st.ok()) (void)ApplyWrite(line, &tree);
        if (st.ok() != sent.response.ok) mismatch(&sent, "write: " + line);
      } else if (IsRead(op)) {
        const std::string& b = op == "compare" ? req->args[1] : req->args[0];
        std::string key = (op == "compare" ? "C|" : "Q|") +
                          tree.PathKey(req->args[0]) + "|" + tree.PathKey(b) +
                          "|" + req->tail;
        auto [it, fresh] = index.emplace(key, pairs.size());
        if (fresh) {
          pairs.push_back(Pair{op == "compare" ? op : "query",
                               tree.PathEdges(req->args[0]),
                               tree.PathEdges(b), req->tail, {}});
        }
        pairs[it->second].uses.push_back(&sent);
      } else if (!sent.response.ok) {
        mismatch(&sent, "request failed: " + line);
      }
    }
  }

  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i; (i = next.fetch_add(1)) < pairs.size();) {
      const Pair& p = pairs[i];
      hql::SessionPtr s = engine.CreateSession("oracle-pair").value();
      hql::Result<hql::Relation> out = hql::Relation(0);
      hql::Result<std::string> a = DeriveChain(s.get(), "a", p.path_a);
      hql::Result<std::string> b = DeriveChain(s.get(), "b", p.path_b);
      hql::Result<hql::QueryPtr> q = hql::ParseQuery(p.query);
      if (!a.ok() || !b.ok() || !q.ok()) {
        out = !a.ok() ? a.status() : !b.ok() ? b.status() : q.status();
      } else if (p.op == "compare") {
        out = s->Compare(a.value(), b.value(), q.value());
      } else {
        out = s->Query(a.value(), q.value());
      }
      std::string hash = out.ok() ? HashText(out.value()) : "";
      double rows = out.ok() ? static_cast<double>(out->size()) : -1;
      for (const Sent* sent : p.uses) {
        const Response& r = sent->response;
        bool agree = r.ok == out.ok() &&
                     (!out.ok() || (r.rows == rows && r.hash == hash &&
                                    (r.tuples < 0 || r.tuples == rows)));
        if (!agree) mismatch(sent, p.op + " " + p.query);
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  result.pairs = pairs.size();
  return result;
}

namespace {

// One span on one request: a layer call timed from the benchmark, or an
// operator span the session's ExecContext recorded inside opt.execute.
// The context keeps only an operator's length, so those have no start or
// end (-1).
struct Span {
  uint32_t request = 0;
  int32_t parent = -1;
  std::string layer;
  int64_t start_ns = -1;
  int64_t end_ns = -1;
  int64_t dur_ns = 0;
};

// What the traced pass learns about one request besides its spans.
struct RequestInfo {
  const Sent* sent = nullptr;
  std::string op;
  int32_t root = -1;     // the server's path: parse, execute, encode
  int32_t execute = -1;  // its opt.execute span
  double untraced_ns = 0;  // the server path in the untraced pass
  double traced_path_ns = 0;
  int lazy = 0, eager = 0;
  double size_before = 0, size_after = 0;
};

// Spans of one connection, in start order (operator spans follow their
// opt.execute). Not thread-safe: one per replay thread.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point t0) : t0_(t0) {}

  int32_t Begin(const char* layer, int32_t parent, uint32_t request) {
    Span span;
    span.request = request;
    span.parent = parent;
    span.layer = layer;
    span.start_ns = Now();
    spans_.push_back(std::move(span));
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) {
    Span& span = spans_[static_cast<size_t>(id)];
    span.end_ns = Now();
    span.dur_ns = span.end_ns - span.start_ns;
  }
  void AddOperator(const hql::OperatorSpan& op, int32_t parent,
                   uint32_t request) {
    Span span;
    span.request = request;
    span.parent = parent;
    span.layer = "eval." + op.op;
    span.dur_ns = static_cast<int64_t>(op.micros) * 1000;
    spans_.push_back(std::move(span));
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0_)
        .count();
  }
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

class Scoped {
 public:
  Scoped(SpanLog* log, const char* layer, int32_t parent, uint32_t request)
      : log_(log), id_(log->Begin(layer, parent, request)) {}
  ~Scoped() { log_->End(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  int32_t id_;
};

// The response line the server would send for a finished request.
std::string Encode(const hql::WireRequest& req,
                   const hql::Result<hql::Relation>& out,
                   const hql::Session& session) {
  if (!out.ok()) return hql::WireResponse::Error(out.status());
  hql::WireResponse r(true);
  if (IsRead(req.op)) {
    r.AddRelationSummary(out.value());
    if (req.op == "fetch") r.AddTuples(out.value());
  } else if (req.op == "derive" || req.op == "drop") {
    r.AddNumber("nodes", static_cast<double>(session.NumNodes()));
  }
  return std::move(r).Finish();
}

// The server's own work for one request: parse, execute, encode.
hql::Result<hql::Relation> Execute(const hql::WireRequest& req,
                                   hql::Session* s) {
  if (IsWrite(req.op)) {
    HQL_RETURN_IF_ERROR(ApplyToSession(req, s));
    return hql::Relation(0);
  }
  if (!IsRead(req.op)) {
    (void)s->Nodes();
    return hql::Relation(0);
  }
  HQL_ASSIGN_OR_RETURN(hql::QueryPtr q, hql::ParseQuery(req.tail));
  return req.op == "compare" ? s->Compare(req.args[0], req.args[1], q)
                             : s->Query(req.args[0], q);
}

// Session::RunAt's composition of `Q when path`, rebuilt from the
// mirrored tree: edges compose root-first, right-nested.
hql::HypoExprPtr PathState(const ScenarioTree& tree, const std::string& node) {
  std::vector<std::string> edges = tree.PathEdges(node);
  hql::HypoExprPtr state = nullptr;
  for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
    hql::HypoExprPtr edge = hql::ParseHypo(*it).value();
    state = state == nullptr ? edge : hql::HypoExpr::Compose(edge, state);
  }
  return state;
}

hql::QueryPtr Composed(const hql::WireRequest& req, const hql::QueryPtr& q,
                       const ScenarioTree& tree) {
  auto at = [&](const std::string& node) {
    hql::HypoExprPtr state = PathState(tree, node);
    return state == nullptr ? q : hql::Query::When(q, state);
  };
  if (req.op == "compare") {
    return hql::Query::Difference(at(req.args[0]), at(req.args[1]));
  }
  return at(req.args[0]);
}

}  // namespace

hql::Result<TraceResult> Trace(const std::string& db_path,
                               const std::vector<Script>& scripts,
                               const WireRun& run, const std::string& profile,
                               double fraction, const std::string& spans_path) {
  HQL_ASSIGN_OR_RETURN(hql::EngineOptions options,
                       hql::EngineOptions::Profile(profile));
  options.max_sessions = 0;
  const int64_t cutoff_ns =
      static_cast<int64_t>(run.window_s * fraction * 1e9);
  const size_t n = scripts.size();
  std::vector<std::vector<RequestInfo>> infos(n);
  for (size_t c = 0; c < n; ++c) {
    for (const Sent& sent : run.conns[c].sent) {
      if (sent.start_ns >= cutoff_ns) break;
      const std::string& line =
          scripts[c][sent.ordinal % scripts[c].size()].request;
      RequestInfo info;
      info.sent = &sent;
      info.op = hql::ParseWireRequest(line).value().op;
      infos[c].push_back(std::move(info));
    }
  }
  auto line_of = [&](size_t c, const RequestInfo& info) -> const std::string& {
    return scripts[c][info.sent->ordinal % scripts[c].size()].request;
  };
  std::atomic<uint64_t> replay_errors{0};

  // Untraced passes: only the server's path, timed as one interval. Each
  // pass loads its own copy of the base (relations cache column batches
  // and indexes on themselves), and a first, discarded pass warms the
  // process (allocator, thread pools) so that neither measured pass pays
  // for it.
  auto untraced_pass = [&]() -> hql::Status {
    HQL_ASSIGN_OR_RETURN(hql::Database base, hql::LoadDatabase(db_path));
    hql::Engine engine(base, options);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < n; ++c) {
      threads.emplace_back([&, c] {
        hql::SessionPtr s = engine.CreateSession("untraced").value();
        for (RequestInfo& info : infos[c]) {
          Clock::time_point t0 = Clock::now();
          hql::WireRequest req = hql::ParseWireRequest(line_of(c, info)).value();
          hql::Result<hql::Relation> out = Execute(req, s.get());
          std::string line = Encode(req, out, *s);
          info.untraced_ns = static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - t0)
                  .count());
        }
      });
    }
    for (std::thread& t : threads) t.join();
    return hql::Status::OK();
  };
  // Hands each pass's freed heap back to the system, so the passes' peak
  // memory does not add up.
  auto release = [] { malloc_trim(0); };
  HQL_RETURN_IF_ERROR(untraced_pass());
  release();
  HQL_RETURN_IF_ERROR(untraced_pass());
  release();

  // The traced pass. Each request gets two root spans: "request" holds
  // the server's own path (parse, execute, encode), with the operator
  // spans that the session's ExecContext records switched on and nested
  // under opt.execute; "analysis" holds the benchmark's separate runs of
  // the layer calls Session::Query makes internally (rewrite, plan), the
  // scenario-tree mirror and StateAt, which are not on the server path.
  std::vector<std::unique_ptr<SpanLog>> logs;
  {
    HQL_ASSIGN_OR_RETURN(hql::Database base, hql::LoadDatabase(db_path));
    hql::Engine engine(base, options);
    const hql::StatsCatalog catalog = hql::StatsCatalog::FromDatabase(base);
    const hql::Schema& schema = base.schema();
    const double max_lazy = options.max_lazy_tree_size;
    const Clock::time_point t0 = Clock::now();
    for (size_t c = 0; c < n; ++c) logs.push_back(std::make_unique<SpanLog>(t0));
    std::vector<std::thread> threads;
    for (size_t c = 0; c < n; ++c) {
      threads.emplace_back([&, c] {
        SpanLog& log = *logs[c];
        hql::SessionPtr s = engine.CreateSession("traced").value();
        hql::ExecContext& exec = s->exec_context();
        exec.set_tracing(true);
        ScenarioTree tree;
        for (uint32_t r = 0; r < infos[c].size(); ++r) {
          RequestInfo& info = infos[c][r];
          const std::string& line = line_of(c, info);
          hql::WireRequest req = hql::ParseWireRequest(line).value();
          auto timed = [&](const char* layer, int32_t parent, auto&& fn) {
            Scoped span(&log, layer, parent, r);
            fn();
            return span.id();
          };
          auto took = [&](int32_t id) {
            return log.spans()[static_cast<size_t>(id)].dur_ns;
          };

          if (IsRead(req.op)) {
            Scoped analysis(&log, "analysis", -1, r);
            const hql::QueryPtr q = hql::ParseQuery(req.tail).value();
            hql::QueryPtr composed;
            timed("bench.compose", analysis.id(),
                  [&] { composed = Composed(req, q, tree); });
            timed("hql.rewrite", analysis.id(), [&] {
              const int32_t parent = static_cast<int32_t>(log.spans().size() - 1);
              hql::Result<hql::QueryPtr> reduced = hql::QueryPtr();
              timed("hql.reduce", parent,
                    [&] { reduced = hql::Reduce(composed, schema); });
              hql::Result<hql::QueryPtr> enf = hql::QueryPtr();
              timed("hql.mod_enf", parent,
                    [&] { enf = hql::ToModEnf(composed, schema); });
              if (!enf.ok()) {
                timed("hql.enf", parent,
                      [&] { enf = hql::ToEnf(composed, schema); });
              }
              if (enf.ok()) {
                timed("hql.collapse", parent,
                      [&] { (void)hql::Collapse(enf.value(), schema); });
              }
              info.size_before = hql::TreeSize(composed);
              if (reduced.ok()) {
                info.size_after = hql::TreeSize(reduced.value());
                // The planner's own guard on lazy rewriting (Ex. 2.4).
                if (info.size_after <= max_lazy) {
                  timed("hql.simplify", parent, [&] {
                    (void)hql::SimplifyRa(reduced.value(), schema);
                  });
                }
              } else {
                info.size_after = info.size_before;
              }
            });
            timed("opt.plan", analysis.id(), [&] {
              hql::Result<hql::Plan> plan =
                  hql::PlanHybrid(composed, schema, catalog, s->PlannerConfig());
              if (plan.ok()) {
                info.lazy = plan->lazy_decisions;
                info.eager = plan->eager_decisions;
              }
            });
          }

          hql::QueryPtr q;
          hql::HypoExprPtr edge;
          hql::Result<hql::Relation> out = hql::Relation(0);
          int64_t path_ns = 0;
          {
            Scoped root(&log, "request", -1, r);
            info.root = root.id();
            path_ns += took(timed("parser.parse", root.id(), [&] {
              req = hql::ParseWireRequest(line).value();
              if (IsRead(req.op)) {
                q = hql::ParseQuery(req.tail).value();
              } else if (req.op == "derive" || req.op == "edit") {
                edge = hql::ParseHypo(req.tail).value();
              }
            }));
            // Clears the previous request's operator spans (and counters,
            // which only the wire stats are read for).
            exec.Reset();
            info.execute = timed("opt.execute", root.id(), [&] {
              if (IsRead(req.op)) {
                out = req.op == "compare"
                          ? s->Compare(req.args[0], req.args[1], q)
                          : s->Query(req.args[0], q);
                return;
              }
              hql::Status st = hql::Status::OK();
              if (req.op == "derive") {
                st = s->Derive(req.args[0], req.args[1], edge);
              } else if (req.op == "edit") {
                st = s->Edit(req.args[0], edge);
              } else if (req.op == "drop") {
                st = s->Drop(req.args[0]);
              } else {
                (void)s->Nodes();
              }
              if (!st.ok()) out = st;
            });
            path_ns += took(info.execute);
            path_ns += took(timed("server.encode", root.id(),
                                  [&] { (void)Encode(req, out, *s); }));
          }
          // Read after the root closed, so that copying them out is not
          // charged to the request.
          for (const hql::OperatorSpan& op : exec.Snapshot().spans) {
            log.AddOperator(op, info.execute, r);
          }
          info.traced_path_ns = static_cast<double>(path_ns);
          if (!out.ok()) replay_errors.fetch_add(1);

          if (out.ok() && IsWrite(req.op)) {
            Scoped analysis(&log, "analysis", -1, r);
            timed("bench.mirror", analysis.id(),
                  [&] { (void)ApplyWrite(line, &tree); });
            if (req.op != "drop") {
              const std::string& node =
                  req.op == "derive" ? req.args[1] : req.args[0];
              timed("eval.materialize", analysis.id(),
                    [&] { (void)s->StateAt(node); });
            }
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  // Span post-processing. A span's self time is its duration minus what
  // its children cover (children of one span do not overlap, so that is a
  // plain sum); the uncovered part of a request is the self time of its
  // "request" root and of its opt.execute, which no layer span accounts
  // for (rewrite, plan and state assembly inside the session among it).
  TraceResult result;
  std::vector<double> parse, rewrite, plan, execute, self, materialize,
      encode, overhead;
  double uncovered = 0, total = 0, traced = 0, untraced = 0;
  double before = 0, after = 0;
  int64_t lazy = 0, eager = 0;
  uint64_t overlapping = 0;  // requests whose operator spans outlast execute
  std::map<std::string, double> operator_ns;
  std::ofstream out(spans_path, std::ios::binary);
  out << "conn\trequest\tspan\tparent\tlayer\tstart_ns\tend_ns\tdur_ns\n";
  for (size_t c = 0; c < n; ++c) {
    const std::vector<Span>& spans = logs[c]->spans();
    std::vector<double> child_ns(spans.size(), 0);
    // Inclusive time per (request, layer).
    std::vector<std::map<std::string, double>> layer_ns(infos[c].size());
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& sp = spans[i];
      out << c << '\t' << sp.request << '\t' << i << '\t' << sp.parent << '\t'
          << sp.layer << '\t' << sp.start_ns << '\t' << sp.end_ns << '\t'
          << sp.dur_ns << '\n';
      const double dur = static_cast<double>(sp.dur_ns);
      if (sp.parent >= 0) child_ns[static_cast<size_t>(sp.parent)] += dur;
      layer_ns[sp.request][sp.layer] += dur;
      if (sp.start_ns < 0) operator_ns[sp.layer] += dur;
    }
    for (size_t r = 0; r < infos[c].size(); ++r) {
      const RequestInfo& info = infos[c][r];
      std::map<std::string, double>& l = layer_ns[r];
      const size_t root = static_cast<size_t>(info.root);
      const size_t exec = static_cast<size_t>(info.execute);
      const double exec_ns = static_cast<double>(spans[exec].dur_ns);
      const double eval_ns = std::min(child_ns[exec], exec_ns);
      if (child_ns[exec] > exec_ns) ++overlapping;
      total += static_cast<double>(spans[root].dur_ns);
      uncovered += std::max(0.0, spans[root].dur_ns - child_ns[root]) +
                   (exec_ns - eval_ns);
      traced += info.traced_path_ns;
      untraced += info.untraced_ns;
      parse.push_back(l["parser.parse"] / 1e3);
      if (l.count("eval.materialize")) {
        materialize.push_back(l["eval.materialize"] / 1e3);
      }
      if (!IsRead(info.op)) continue;
      rewrite.push_back(l["hql.rewrite"] / 1e3);
      plan.push_back(l["opt.plan"] / 1e3);
      execute.push_back(exec_ns / 1e3);
      self.push_back(eval_ns / 1e3);
      encode.push_back(l["server.encode"] / 1e3);
      overhead.push_back(
          (static_cast<double>(info.sent->latency_ns) - info.untraced_ns) / 1e3);
      before += info.size_before;
      after += info.size_after;
      lazy += info.lazy;
      eager += info.eager;
    }
  }
  std::map<std::string, double>& m = result.metrics;
  m["parser.parse_us"] = Median(parse);
  m["hql.rewrite_us"] = Median(rewrite);
  m["hql.rewrite_growth"] = before > 0 ? after / before : 0;
  m["opt.plan_us"] = Median(plan);
  m["opt.eager_share"] =
      lazy + eager > 0 ? static_cast<double>(eager) / static_cast<double>(lazy + eager) : 0;
  m["opt.when_decisions"] = static_cast<double>(lazy + eager);
  m["opt.execute_us"] = Median(execute);
  m["eval.self_us"] = Median(self);
  m["eval.materialize_us"] = Median(materialize);
  m["server.encode_us"] = Median(encode);
  m["server.overhead_us"] = Median(overhead);
  m["trace.uncovered_share"] = total > 0 ? uncovered / total : 0;
  m["trace.overhead_pct"] = untraced > 0 ? 100.0 * (traced / untraced - 1) : 0;
  m["trace.requests"] = static_cast<double>(parse.size());
  if (replay_errors.load() > 0) {
    result.notes.push_back(std::to_string(replay_errors.load()) +
                           " replayed request(s) failed in-process");
  }
  if (overlapping > 0) {
    result.notes.push_back(std::to_string(overlapping) +
                           " request(s) whose operator spans add up to more "
                           "than their opt.execute (nested operators); "
                           "eval time capped at execute");
  }
  std::vector<std::pair<double, std::string>> ops;
  for (const auto& [layer, ns] : operator_ns) ops.emplace_back(ns, layer);
  std::sort(ops.rbegin(), ops.rend());
  std::string top = "operator time inside opt.execute:";
  for (size_t i = 0; i < ops.size() && i < 6; ++i) {
    top += " " + ops[i].second + " " +
           std::to_string(static_cast<int64_t>(ops[i].first / 1e6)) + " ms";
  }
  if (!ops.empty()) result.notes.push_back(top);
  return result;
}

}  // namespace wirebench
