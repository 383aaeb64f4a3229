#include "server/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "parser/parser.h"
#include "server/client.h"
#include "server/soak.h"
#include "server/wire.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace hql {
namespace {

using ::hql::testing::Ints;
using ::hql::testing::MakeSchema;

// ---------------------------------------------------------------------------
// Wire grammar & responses (no sockets)

TEST(WireTest, ParsesEveryShape) {
  ASSERT_OK_AND_ASSIGN(WireRequest r, ParseWireRequest("ping"));
  EXPECT_EQ(r.op, "ping");
  EXPECT_TRUE(r.args.empty());

  ASSERT_OK_AND_ASSIGN(r, ParseWireRequest("set strategy filter3"));
  EXPECT_EQ(r.args, (std::vector<std::string>{"strategy", "filter3"}));

  ASSERT_OK_AND_ASSIGN(
      r, ParseWireRequest("derive root hire {ins(emp, {(1, 2)})}"));
  EXPECT_EQ(r.args, (std::vector<std::string>{"root", "hire"}));
  EXPECT_EQ(r.tail, "{ins(emp, {(1, 2)})}");

  ASSERT_OK_AND_ASSIGN(r, ParseWireRequest("query n1 sigma[$0 > 3](emp)"));
  EXPECT_EQ(r.tail, "sigma[$0 > 3](emp)");

  ASSERT_OK_AND_ASSIGN(r, ParseWireRequest("compare a b emp x dept"));
  EXPECT_EQ(r.args, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(r.tail, "emp x dept");

  // Extra spaces and CR are tolerated.
  ASSERT_OK_AND_ASSIGN(r, ParseWireRequest("  drop   n1 \r"));
  EXPECT_EQ(r.args[0], "n1");
}

TEST(WireTest, RejectsMalformedRequests) {
  EXPECT_FALSE(ParseWireRequest("").ok());
  EXPECT_FALSE(ParseWireRequest("   ").ok());
  EXPECT_FALSE(ParseWireRequest("launch missiles").ok());
  EXPECT_FALSE(ParseWireRequest("derive onlyparent").ok());
  EXPECT_FALSE(ParseWireRequest("query n1").ok());     // missing tail
  EXPECT_FALSE(ParseWireRequest("ping extra").ok());   // no-arg op with junk
  EXPECT_FALSE(ParseWireRequest("set onlyknob").ok());
  EXPECT_TRUE(IsWireOp("fetch"));
  EXPECT_FALSE(IsWireOp("exec"));
}

TEST(WireTest, ResponsesAreValidJson) {
  Relation rel = Ints({{1, 2}, {3, 4}});
  std::string ok = std::move(WireResponse(true)
                                 .AddString("name", "a \"b\"\nc")
                                 .AddNumber("rows", 2)
                                 .AddBool("done", true))
                       .Finish();
  ASSERT_OK_AND_ASSIGN(JsonPtr doc, ParseJson(ok));
  EXPECT_TRUE(doc->Get("ok")->bool_value());
  EXPECT_EQ(doc->Get("name")->string_value(), "a \"b\"\nc");
  EXPECT_EQ(doc->Get("rows")->number(), 2);

  std::string with_rel =
      std::move(WireResponse(true).AddRelationSummary(rel).AddTuples(rel))
          .Finish();
  ASSERT_OK_AND_ASSIGN(doc, ParseJson(with_rel));
  EXPECT_EQ(doc->Get("rows")->number(), 2);
  EXPECT_EQ(doc->Get("arity")->number(), 2);
  EXPECT_TRUE(doc->Get("hash")->is_string());
  ASSERT_EQ(doc->Get("tuples")->items().size(), 2u);
  EXPECT_EQ(doc->Get("tuples")->items()[0]->string_value(), "(1, 2)");

  std::string err = WireResponse::Error(Status::NotFound("no scenario 'x'"));
  ASSERT_OK_AND_ASSIGN(doc, ParseJson(err));
  EXPECT_FALSE(doc->Get("ok")->bool_value());
  EXPECT_EQ(doc->Get("code")->string_value(), "NotFound");
}

// ---------------------------------------------------------------------------
// A live server over a small fixed database

class ServerTest : public ::testing::Test {
 protected:
  ServerTest()
      : engine_(SmallDb()), server_(&engine_, ServerOptions()) {}

  static Database SmallDb() {
    Database db(MakeSchema({{"emp", 2}, {"dept", 2}}));
    HQL_CHECK(db.Set("emp", Ints({{1, 10}, {2, 10}, {3, 20}})).ok());
    HQL_CHECK(db.Set("dept", Ints({{10, 100}, {20, 200}})).ok());
    return db;
  }

  void SetUp() override { ASSERT_OK(server_.Start()); }
  void TearDown() override { server_.Stop(); }

  Result<WireClient> Connect() { return WireClient::Connect(server_.port()); }

  /// Waits until the server has no live handler threads.
  bool DrainConnections(int timeout_ms = 10000) {
    for (int waited = 0; waited < timeout_ms; waited += 10) {
      if (server_.active_connections() == 0) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  Engine engine_;
  HqlServer server_;
};

TEST_F(ServerTest, ScriptedExchange) {
  ASSERT_OK_AND_ASSIGN(WireClient client, Connect());
  ASSERT_OK_AND_ASSIGN(JsonPtr pong, client.CallOk("ping"));
  EXPECT_EQ(pong->Get("server")->string_value(), "hql");

  ASSERT_OK(client.CallOk("derive root hire {ins(emp, {(4, 20)})}").status());
  ASSERT_OK(client.CallOk("derive hire fire {del(emp, {(1, 10)})}").status());
  ASSERT_OK_AND_ASSIGN(JsonPtr q, client.CallOk("query fire emp"));
  EXPECT_EQ(q->Get("rows")->number(), 3);

  ASSERT_OK_AND_ASSIGN(JsonPtr f, client.CallOk("fetch hire emp"));
  ASSERT_EQ(f->Get("tuples")->items().size(), 4u);

  ASSERT_OK_AND_ASSIGN(JsonPtr cmp, client.CallOk("compare hire root emp"));
  EXPECT_EQ(cmp->Get("rows")->number(), 1);

  ASSERT_OK_AND_ASSIGN(JsonPtr nodes, client.CallOk("nodes"));
  EXPECT_EQ(nodes->Get("nodes")->items().size(), 3u);

  ASSERT_OK_AND_ASSIGN(JsonPtr an, client.CallOk("analyze hire emp"));
  EXPECT_EQ(an->Get("rows")->number(), 4);
  EXPECT_TRUE(an->Get("route")->is_string());

  ASSERT_OK_AND_ASSIGN(JsonPtr st, client.CallOk("stats"));
  EXPECT_EQ(st->Get("stats")->Get("schema")->string_value(),
            "hql-exec-stats/v1");

  // Errors are responses, not disconnects.
  ASSERT_OK_AND_ASSIGN(JsonPtr err, client.Call("query ghost emp"));
  EXPECT_FALSE(err->Get("ok")->bool_value());
  EXPECT_EQ(err->Get("code")->string_value(), "NotFound");
  ASSERT_OK_AND_ASSIGN(err, client.Call("query root emp when"));
  EXPECT_EQ(err->Get("code")->string_value(), "InvalidArgument");

  ASSERT_OK_AND_ASSIGN(JsonPtr bye, client.CallOk("quit"));
  EXPECT_TRUE(bye->Get("bye")->bool_value());
  EXPECT_TRUE(DrainConnections());
  EXPECT_EQ(engine_.live_sessions(), 0u);
}

TEST_F(ServerTest, SetProfileAndGovernorRejection) {
  ASSERT_OK_AND_ASSIGN(WireClient client, Connect());
  ASSERT_OK(client.CallOk("profile safe").status());
  ASSERT_OK_AND_ASSIGN(JsonPtr opts, client.CallOk("options"));
  EXPECT_NE(opts->Get("options")->string_value().find("deadline_ms=10000"),
            std::string::npos);

  ASSERT_OK(client.CallOk("set max_tuples 4").status());
  ASSERT_OK_AND_ASSIGN(JsonPtr err,
                       client.Call("query root sigma[$0 >= 0](emp x emp)"));
  EXPECT_FALSE(err->Get("ok")->bool_value());
  EXPECT_EQ(err->Get("code")->string_value(), "ResourceExhausted");

  // The connection survives a governor rejection, and lifting the budget
  // makes the same query run.
  ASSERT_OK(client.CallOk("set max_tuples 0").status());
  ASSERT_OK_AND_ASSIGN(JsonPtr q,
                       client.CallOk("query root sigma[$0 >= 0](emp x emp)"));
  EXPECT_EQ(q->Get("rows")->number(), 9);

  EXPECT_FALSE(client.CallOk("set max_sessions 10").ok());
  EXPECT_FALSE(client.CallOk("profile turbo").ok());
  client.Quit();
}

TEST_F(ServerTest, SessionsAreSnapshotIsolated) {
  ASSERT_OK_AND_ASSIGN(WireClient a, Connect());
  ASSERT_OK_AND_ASSIGN(WireClient b, Connect());
  ASSERT_OK(a.CallOk("derive root drop_all {del(emp, emp)}").status());

  // b neither sees a's scenarios nor a's names.
  ASSERT_OK_AND_ASSIGN(JsonPtr nodes, b.CallOk("nodes"));
  EXPECT_EQ(nodes->Get("nodes")->items().size(), 1u);
  ASSERT_OK_AND_ASSIGN(JsonPtr err, b.Call("query drop_all emp"));
  EXPECT_EQ(err->Get("code")->string_value(), "NotFound");

  // A base commit is invisible until an explicit refresh.
  ASSERT_OK_AND_ASSIGN(UpdatePtr upd, ParseUpdate("ins(emp, {(9, 90)})"));
  ASSERT_OK(engine_.Apply(upd));
  ASSERT_OK_AND_ASSIGN(JsonPtr q, b.CallOk("query root emp"));
  EXPECT_EQ(q->Get("rows")->number(), 3);
  ASSERT_OK(b.CallOk("refresh").status());
  ASSERT_OK_AND_ASSIGN(q, b.CallOk("query root emp"));
  EXPECT_EQ(q->Get("rows")->number(), 4);

  // a still reads its original snapshot.
  ASSERT_OK_AND_ASSIGN(q, a.CallOk("query root emp"));
  EXPECT_EQ(q->Get("rows")->number(), 3);
  a.Quit();
  b.Quit();
}

TEST_F(ServerTest, AdmissionCapSendsErrorAndCloses) {
  EngineOptions opts = engine_.options();
  opts.max_sessions = 2;
  ASSERT_OK(engine_.SetOptions(opts));
  ASSERT_OK_AND_ASSIGN(WireClient a, Connect());
  ASSERT_OK(a.CallOk("ping").status());
  ASSERT_OK_AND_ASSIGN(WireClient b, Connect());
  ASSERT_OK(b.CallOk("ping").status());

  ASSERT_OK_AND_ASSIGN(WireClient c, Connect());
  // The rejected connection gets one unsolicited error line, then EOF.
  ASSERT_OK_AND_ASSIGN(JsonPtr rejected, c.Call("ping"));
  EXPECT_FALSE(rejected->Get("ok")->bool_value());
  EXPECT_EQ(rejected->Get("code")->string_value(), "ResourceExhausted");

  // Freeing a slot lets the next connection in.
  a.Quit();
  for (int waited = 0; waited < 5000 && engine_.live_sessions() >= 2;
       waited += 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_OK_AND_ASSIGN(WireClient d, Connect());
  ASSERT_OK(d.CallOk("ping").status());
  d.Quit();
  b.Quit();
}

TEST_F(ServerTest, ConcurrentSessionsZeroInterference) {
  constexpr int kClients = 8;
  constexpr int kRounds = 15;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      auto client = WireClient::Connect(server_.port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      std::string mine = "mine" + std::to_string(i);
      std::string value = std::to_string(100 + i);
      if (!client->CallOk("derive root " + mine + " {ins(emp, {(" + value +
                          ", 10)})}")
               .ok()) {
        ++failures;
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        auto q = client->CallOk("query " + mine + " emp");
        if (!q.ok() || (*q)->Get("rows")->number() != 4) ++failures;
        auto base = client->CallOk("query root emp");
        if (!base.ok() || (*base)->Get("rows")->number() != 3) ++failures;
        // Another client's scenario name must never resolve here.
        std::string theirs = "mine" + std::to_string((i + 1) % kClients);
        auto err = client->Call("query " + theirs + " emp");
        if (!err.ok() ||
            (*err)->Get("code")->string_value() != "NotFound") {
          ++failures;
        }
      }
      client->Quit();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(DrainConnections());
  EXPECT_EQ(engine_.live_sessions(), 0u);
}

TEST_F(ServerTest, StopWithLiveConnectionsIsClean) {
  ASSERT_OK_AND_ASSIGN(WireClient a, Connect());
  ASSERT_OK_AND_ASSIGN(WireClient b, Connect());
  ASSERT_OK(a.CallOk("ping").status());
  ASSERT_OK(b.CallOk("derive root x {ins(emp, {(8, 10)})}").status());
  server_.Stop();
  EXPECT_EQ(engine_.live_sessions(), 0u);
  // The clients observe EOF, not a hang.
  EXPECT_FALSE(a.Call("ping").ok());
  // And the server can be started again on a fresh port.
  ASSERT_OK(server_.Start());
  ASSERT_OK_AND_ASSIGN(WireClient c, Connect());
  ASSERT_OK(c.CallOk("ping").status());
  c.Quit();
}

// Clients hang up while Stop() cancels and tears their sessions down: a
// handler releasing its session must not race Stop() cancelling it.
TEST_F(ServerTest, ClientsDisconnectWhileStopRuns) {
  constexpr int kClients = 8;
  for (int round = 0; round < 5; ++round) {
    if (round > 0) {
      ASSERT_OK(server_.Start());
    }
    std::atomic<int> connected{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        auto client = WireClient::Connect(server_.port());
        if (!client.ok()) {
          ADD_FAILURE() << client.status().ToString();
          connected.fetch_add(1);
          return;
        }
        (void)client->Call("derive root n" + std::to_string(c) +
                           " {ins(emp, {(9, 10)})}");
        connected.fetch_add(1);
        while (!go.load()) std::this_thread::yield();
        // Keep traffic flowing for a few requests, then vanish.
        for (int i = 0; i < c % 4; ++i) {
          if (!client->Call("query root emp join[$1 = $2] dept").ok()) break;
        }
        client->Close();
      });
    }
    while (connected.load() < kClients) std::this_thread::yield();
    go.store(true);
    server_.Stop();
    for (auto& t : threads) t.join();
    EXPECT_EQ(engine_.live_sessions(), 0u) << "round " << round;
    EXPECT_EQ(server_.active_connections(), 0u) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Network soak against an in-process server

class NetSoakTest : public ::testing::Test {
 protected:
  NetSoakTest() : engine_(GenBase()), server_(&engine_, ServerOptions()) {}

  // The base hql_serve --gen-rows/--gen-seed/--gen-domain would build,
  // which is what the soak's local mirror rebuilds.
  static Database GenBase() {
    Rng rng(kSeed);
    return RandomDatabase(&rng, PropertySchema(), kRows, kDomain);
  }

  void SetUp() override { ASSERT_OK(server_.Start()); }
  void TearDown() override { server_.Stop(); }

  NetSoakConfig Config() const {
    NetSoakConfig config;
    config.port = server_.port();
    config.sessions = 2;
    config.nodes_per_session = 3;
    config.ops_per_phase = 6;
    config.seed = kSeed;
    config.gen_rows = kRows;
    config.gen_domain = kDomain;
    return config;
  }

  static constexpr uint64_t kSeed = 5;
  static constexpr size_t kRows = 24;
  static constexpr int64_t kDomain = 16;
  Engine engine_;
  HqlServer server_;
};

TEST_F(NetSoakTest, DefaultPoolAgreesWithMirror) {
  for (const std::string& q : DefaultSoakQueries()) {
    EXPECT_OK(ParseQuery(q).status()) << q;
  }
  ASSERT_OK_AND_ASSIGN(NetSoakReport report, RunNetSoak(Config()));
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.mismatches, 0u);
  EXPECT_GT(report.requests, 0u);
}

TEST_F(NetSoakTest, UnparsablePoolQueryIsAFailure) {
  // Server and mirror both reject it, which used to pass as agreement.
  NetSoakConfig config = Config();
  config.queries = {"A1 u B1"};
  ASSERT_OK_AND_ASSIGN(NetSoakReport report, RunNetSoak(config));
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.mismatches, 0u);
}

// ---------------------------------------------------------------------------
// Disconnect-mid-query cleanup (the monitor thread's job)

TEST(ServerDisconnectTest, MidQueryDisconnectCancelsAndCleansUp) {
  // A base big enough that the governed selection over the self-product
  // (16M charged output tuples) takes far longer than the monitor's poll
  // interval.
  Rng rng(7);
  Schema schema = MakeSchema({{"R", 2}});
  Database db(schema);
  HQL_CHECK(db.Set("R", GenRelation(&rng, 4000, 2, 1 << 20)).ok());
  Engine engine(std::move(db));
  HqlServer server(&engine, ServerOptions());
  ASSERT_OK(server.Start());

  ASSERT_OK_AND_ASSIGN(WireClient client, WireClient::Connect(server.port()));
  ASSERT_OK(client.CallOk("ping").status());
  ASSERT_OK(client.Send("query root sigma[$0 >= 0](R x R)"));
  // Vanish without reading the response.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  client.Close();

  // The monitor must notice the hang-up, cancel the in-flight query, and
  // the handler must release the session — long before the query could
  // finish.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (engine.live_sessions() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(engine.live_sessions(), 0u);

  // The server is still healthy for new clients.
  ASSERT_OK_AND_ASSIGN(WireClient again, WireClient::Connect(server.port()));
  ASSERT_OK_AND_ASSIGN(JsonPtr q, again.CallOk("query root sigma[$0 < 0](R)"));
  EXPECT_EQ(q->Get("rows")->number(), 0);
  again.Quit();
  server.Stop();
}

}  // namespace
}  // namespace hql
