// hqlbench: the wire-level benchmark's input generator and load client.
//
//   hqlbench gen   --workload=W --seed=N --out=DIR [--tiny]
//       Writes DIR/base.db (storage/io.h text), DIR/conn<i>.script and
//       DIR/manifest.json, after checking every script line and pool query.
//   hqlbench drive --dir=DIR --port=P --seconds=S [--trace]
//       Runs DIR's scripts against the hql_serve on port P for S seconds
//       (closed loop, one thread per connection), then, outside the timed
//       window, verifies every answer against a direct-semantics replay
//       and, with --trace, replays a prefix in-process with per-layer
//       spans (DIR/spans.tsv). Prints one JSON object of metrics.
//
// run.py drives both; see README.md.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "common/json.h"
#include "drive.h"
#include "replay.h"
#include "script.h"
#include "storage/io.h"
#include "workloads.h"

namespace wirebench {

namespace {

constexpr const char* kProfile = "fast";

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags["?"] = arg;
      continue;
    }
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags[arg.substr(2)] = "1";
    } else {
      flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  return flags;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "hqlbench: %s\n", message.c_str());
  return 1;
}

std::string ScriptPath(const std::string& dir, size_t c) {
  return dir + "/conn" + std::to_string(c) + ".script";
}

// Renders a metric map as a JSON object with stable key order.
std::string JsonObject(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ",";
    hql::AppendJsonString(&out, name);
    out += ":" + hql::FormatJsonNumber(value);
  }
  return out + "}";
}

int Gen(std::map<std::string, std::string>& flags) {
  const WorkloadInfo* info = FindWorkload(flags["workload"]);
  if (info == nullptr || flags["seed"].empty() || flags["out"].empty()) {
    return Fail("gen needs --workload=<scan_join|whatif_edit|chatty_small> "
                "--seed=N --out=DIR");
  }
  const uint64_t seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  const bool tiny = flags.count("tiny") > 0;
  const std::string& dir = flags["out"];
  hql::Result<Generated> gen = Generate(info->name, seed, tiny);
  if (!gen.ok()) return Fail(gen.status().ToString());
  hql::Status st = CheckGenerated(gen.value());
  if (!st.ok()) return Fail("generation check: " + st.ToString());

  std::filesystem::create_directories(dir);
  const std::string db_path = dir + "/base.db";
  st = hql::SaveDatabase(gen->base, db_path);
  if (!st.ok()) return Fail(st.ToString());
  std::string relations = "{";
  for (const auto& [name, arity] : gen->base.schema().arities()) {
    if (relations.size() > 1) relations += ",";
    hql::AppendJsonString(&relations, name);
    relations += ":" + std::to_string(gen->base.GetRef(name).size());
  }
  relations += "}";
  std::string lines = "[";
  for (size_t c = 0; c < gen->scripts.size(); ++c) {
    st = WriteScript(ScriptPath(dir, c), gen->scripts[c]);
    if (!st.ok()) return Fail(st.ToString());
    if (c > 0) lines += ",";
    lines += std::to_string(gen->scripts[c].size());
  }
  lines += "]";
  std::string manifest = "{\"workload\":";
  hql::AppendJsonString(&manifest, info->name);
  manifest += ",\"seed\":" + std::to_string(seed) +
              ",\"size\":\"" + (tiny ? "tiny" : "full") + "\"" +
              ",\"connections\":" + std::to_string(gen->scripts.size()) +
              ",\"profile\":\"" + kProfile + "\"" +
              ",\"tuples\":" + relations + ",\"db_bytes\":" +
              std::to_string(std::filesystem::file_size(db_path)) +
              ",\"script_lines\":" + lines + ",\"checked_pool_queries\":" +
              std::to_string(gen->checks.size()) + ",\"why\":";
  hql::AppendJsonString(&manifest, info->why);
  manifest += "}";
  std::ofstream(dir + "/manifest.json") << manifest << "\n";
  std::printf("%s\n", manifest.c_str());
  return 0;
}

// Percentile by nearest rank over sorted samples.
double Percentile(const std::vector<double>& sorted, double p) {
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * sorted.size()));
  return sorted[std::max<size_t>(rank, 1) - 1];
}

int Drive(std::map<std::string, std::string>& flags) {
  const std::string& dir = flags["dir"];
  const int port = std::atoi(flags["port"].c_str());
  const double seconds = std::atof(flags["seconds"].c_str());
  const bool trace = flags.count("trace") > 0;
  if (dir.empty() || port <= 0 || port > 65535 || seconds <= 0) {
    return Fail("drive needs --dir=DIR --port=P --seconds=S [--trace]");
  }
  std::ifstream manifest_in(dir + "/manifest.json");
  std::stringstream manifest_text;
  manifest_text << manifest_in.rdbuf();
  hql::Result<hql::JsonPtr> manifest = hql::ParseJson(manifest_text.str());
  if (!manifest.ok() || manifest.value()->Get("connections") == nullptr) {
    return Fail("no manifest in " + dir);
  }
  const size_t conns =
      static_cast<size_t>(manifest.value()->Get("connections")->number());
  std::vector<Script> scripts;
  for (size_t c = 0; c < conns; ++c) {
    hql::Result<Script> s = ReadScript(ScriptPath(dir, c));
    if (!s.ok()) return Fail(s.status().ToString());
    scripts.push_back(std::move(s).value());
  }

  hql::Result<WireRun> wire =
      DriveWire(static_cast<uint16_t>(port), scripts, seconds, 200);
  if (!wire.ok()) return Fail("wire run: " + wire.status().ToString());
  const WireRun& run = wire.value();

  // Everything below is outside the timed window. Tell the caller, so it
  // can stop the server (and read its peak memory) before the replays
  // below allocate their own engines, and wait for its go-ahead.
  std::printf("window done\n");
  std::fflush(stdout);
  char go[16];
  if (std::fgets(go, sizeof(go), stdin) == nullptr) {
    return Fail("no go-ahead after the window");
  }

  std::map<std::string, double> m;
  std::vector<double> lat[kNumClasses];
  uint64_t attempted = 0, transport = 0, not_ok = 0, bytes = 0;
  std::vector<double> pings;
  std::map<std::string, double> stats;
  for (size_t c = 0; c < conns; ++c) {
    const ConnRun& cr = run.conns[c];
    for (const Sent& s : cr.sent) {
      ReqClass cls = scripts[c][s.ordinal % scripts[c].size()].cls;
      lat[static_cast<int>(cls)].push_back(static_cast<double>(s.latency_ns) / 1e6);
      if (!s.response.ok) ++not_ok;
      bytes += s.response.bytes;
    }
    attempted += cr.sent.size();
    if (!cr.transport_error.empty()) {
      ++attempted;
      ++transport;
      std::fprintf(stderr, "hqlbench: connection %zu: %s\n", c,
                   cr.transport_error.c_str());
    }
    for (int64_t p : cr.ping_ns) pings.push_back(static_cast<double>(p) / 1e3);
    if (cr.stats != nullptr) {
      for (const auto& [key, value] : cr.stats->fields()) {
        if (value->is_number()) stats[key] += value->number();
      }
    }
  }
  uint64_t completed = attempted - transport;
  for (int c = 0; c < kNumClasses; ++c) {
    std::vector<double>& v = lat[c];
    const std::string name = ClassName(static_cast<ReqClass>(c));
    m[name + "_n"] = static_cast<double>(v.size());
    if (v.empty() || c == static_cast<int>(ReqClass::kOther)) continue;
    std::sort(v.begin(), v.end());
    m[name + "_p50_ms"] = Median(v);
    // p99 only where at least ten samples lie beyond it.
    if (v.size() >= 1000) m[name + "_p99_ms"] = Percentile(v, 99);
  }
  m["throughput_rps"] =
      run.window_s > 0 ? static_cast<double>(completed) / run.window_s : 0;
  m["window_s"] = run.window_s;

  auto load_start = std::chrono::steady_clock::now();
  hql::Result<hql::Database> base = hql::LoadDatabase(dir + "/base.db");
  if (!base.ok()) return Fail(base.status().ToString());
  m["storage.load_s"] = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - load_start)
                            .count();

  const int threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  auto verify_start = std::chrono::steady_clock::now();
  VerifyResult verify = Verify(base.value(), scripts, run, threads);
  std::fprintf(stderr, "hqlbench: verified %llu distinct (path, query) pairs in %.1f s\n",
               static_cast<unsigned long long>(verify.pairs),
               std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             verify_start)
                   .count());
  std::set<const Sent*> failed = verify.bad;
  for (const ConnRun& cr : run.conns) {
    for (const Sent& s : cr.sent) {
      if (!s.response.ok) failed.insert(&s);
    }
  }
  const uint64_t failures = failed.size() + transport;
  m["fail_ratio"] = attempted > 0 ? static_cast<double>(failures) /
                                        static_cast<double>(attempted)
                                  : 1;
  m["verify.pairs"] = static_cast<double>(verify.pairs);
  for (const std::string& e : verify.examples) {
    std::fprintf(stderr, "hqlbench: MISMATCH %s\n", e.c_str());
  }

  // Per-layer figures the wire run itself yields (the session counters
  // come from each connection's `stats` after the window).
  auto ratio = [&](const std::string& name, const std::string& base_name,
                   double num, double den) {
    m[name] = den > 0 ? num / den : 0;
    m[base_name] = den;
  };
  const double reads = static_cast<double>(
      lat[static_cast<int>(ReqClass::kRead)].size() +
      lat[static_cast<int>(ReqClass::kReask)].size() +
      lat[static_cast<int>(ReqClass::kFetch)].size());
  ratio("eval.memo_hit_ratio", "eval.memo_lookups", stats["memo_hits"],
        stats["memo_hits"] + stats["memo_misses"]);
  ratio("eval.incremental_patch_ratio", "eval.incremental_attempts",
        stats["incremental_results_patched"],
        stats["incremental_results_patched"] + stats["incremental_fallbacks"]);
  ratio("eval.columnar_share", "eval.columnar_rows",
        stats["columnar_rows_vectorized"],
        stats["columnar_rows_vectorized"] + stats["columnar_rows_fallback"]);
  ratio("eval.index_probes_per_read", "eval.reads", stats["index_probes"],
        reads);
  ratio("storage.view_copy_share", "storage.view_tuples",
        stats["view_tuples_copied"],
        stats["view_tuples_copied"] + stats["view_tuples_shared"]);
  m["common.governor_trips"] =
      stats["governor_deadline_trips"] + stats["governor_tuple_trips"] +
      stats["governor_rewrite_trips"] + stats["governor_cancellations"];
  m["server.response_bytes"] =
      completed > 0 ? static_cast<double>(bytes) / static_cast<double>(completed) : 0;
  if (!pings.empty()) m["server.ping_rtt_us"] = Median(pings);

  std::string notes = "[";
  if (trace) {
    hql::Result<TraceResult> traced =
        Trace(dir + "/base.db", scripts, run, kProfile, 0.25, dir + "/spans.tsv");
    if (!traced.ok()) return Fail("trace: " + traced.status().ToString());
    for (const auto& [name, value] : traced->metrics) m[name] = value;
    for (const std::string& note : traced->notes) {
      if (notes.size() > 1) notes += ",";
      hql::AppendJsonString(&notes, note);
    }
  }
  notes += "]";
  std::printf(
      "{\"attempted\":%llu,\"failed\":%llu,\"transport_errors\":%llu,"
      "\"not_ok\":%llu,\"mismatches\":%zu,\"notes\":%s,\"metrics\":%s}\n",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failures),
      static_cast<unsigned long long>(transport),
      static_cast<unsigned long long>(not_ok), verify.bad.size(),
      notes.c_str(), JsonObject(m).c_str());
  return 0;
}

}  // namespace

}  // namespace wirebench

int main(int argc, char** argv) {
  if (argc < 2) {
    return wirebench::Fail("usage: hqlbench gen|drive [--flag=value]...");
  }
  std::map<std::string, std::string> flags = wirebench::ParseFlags(argc, argv);
  if (flags.count("?") > 0) return wirebench::Fail("unexpected " + flags["?"]);
  std::string cmd = argv[1];
  if (cmd == "gen") return wirebench::Gen(flags);
  if (cmd == "drive") return wirebench::Drive(flags);
  return wirebench::Fail("unknown command " + cmd);
}
