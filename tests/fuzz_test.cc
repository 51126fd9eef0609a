// Differential fuzzer suite (ctest label `fuzz`, DESIGN.md §12): generator
// determinism and acceptance rate, the fixed-seed 500-query smoke campaign
// across every registered dialect (zero mismatches is the tier-1 bar), the
// delta-debugging reducer on a planted mismatch, golden-corpus append
// mechanics, and the 22 TPC-H shapes executing equivalently on all
// dialects.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/auditor.h"
#include "fuzz/campaign.h"
#include "fuzz/differential.h"
#include "fuzz/query_gen.h"
#include "fuzz/reducer.h"
#include "protocol/client.h"
#include "protocol/server.h"
#include "protocol/socket.h"
#include "protocol/tdwp.h"
#include "serializer/dialect.h"
#include "service/hyperq_service.h"
#include "vdb/engine.h"
#include "workload/tpch.h"

namespace hyperq {
namespace {

constexpr uint64_t kSmokeSeed = 20260809;

TEST(QueryGenTest, SameSeedSameQueries) {
  for (uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(fuzz::GenerateQuery(kSmokeSeed, i).ToSql(),
              fuzz::GenerateQuery(kSmokeSeed, i).ToSql());
  }
}

TEST(QueryGenTest, DifferentSeedsDiverge) {
  int distinct = 0;
  for (uint64_t i = 0; i < 20; ++i) {
    if (fuzz::GenerateQuery(1, i).ToSql() != fuzz::GenerateQuery(2, i).ToSql())
      ++distinct;
  }
  EXPECT_GE(distinct, 15);
}

TEST(QueryGenTest, StreamHasVariety) {
  std::set<std::string> texts;
  bool saw_join = false, saw_group = false, saw_setop = false,
       saw_subq = false, saw_top = false;
  for (uint64_t i = 0; i < 200; ++i) {
    fuzz::QuerySpec q = fuzz::GenerateQuery(3, i);
    std::string sql = q.ToSql();
    texts.insert(sql);
    saw_join = saw_join || !q.joins.empty();
    saw_group = saw_group || !q.group_by.empty();
    saw_setop = saw_setop || q.setop_right != nullptr;
    saw_subq = saw_subq || sql.find("(SEL ") != std::string::npos;
    saw_top = saw_top || q.top >= 0;
  }
  EXPECT_GE(texts.size(), 195u);  // near-zero duplicate shapes
  EXPECT_TRUE(saw_join);
  EXPECT_TRUE(saw_group);
  EXPECT_TRUE(saw_setop);
  EXPECT_TRUE(saw_subq);
  EXPECT_TRUE(saw_top);
}

TEST(QueryGenTest, CloneIsDeepAndCountsClauses) {
  for (uint64_t i = 0; i < 100; ++i) {
    fuzz::QuerySpec q = fuzz::GenerateQuery(4, i);
    fuzz::QuerySpec c = q.Clone();
    EXPECT_EQ(q.ToSql(), c.ToSql());
    EXPECT_EQ(q.ClauseCount(), c.ClauseCount());
    if (c.setop_right != nullptr) {
      EXPECT_NE(c.setop_right.get(), q.setop_right.get());
      c.setop_right->where.push_back("(1 = 0)");
      EXPECT_NE(q.ToSql(), c.ToSql()) << "clone shares setop_right";
    }
  }
}

TEST(DifferentialTest, CanonicalRowsNormalizeDoublesAndNulls) {
  vdb::QueryResult r;
  r.columns = {{"a", SqlType::Int()}, {"b", SqlType::Varchar(10)}};
  std::vector<vdb::Row> input = {
      {Datum::MakeDouble(1.0000000001), Datum::Null()},
      {Datum::Int(2), Datum::String("x")}};
  r.chunks.push_back(vdb::BatchFromRows({SqlType::Int(), SqlType::Varchar(10)},
                                        input, 0, input.size()));
  auto rows = fuzz::CanonicalRows(r);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], "1|<null>");
  EXPECT_EQ(rows[1], "2|x");
}

// The tier-1 smoke bar: 500 fixed-seed queries, every registered dialect,
// zero findings of any class and a high accept rate.
TEST(FuzzSmokeTest, FixedSeed500QueriesZeroMismatches) {
  fuzz::CampaignOptions opts;
  opts.seed = kSmokeSeed;
  opts.count = 500;
  opts.dialects = serializer::DialectNames();
  ASSERT_GE(opts.dialects.size(), 3u);
  fuzz::CampaignSummary s = fuzz::RunCampaign(opts);
  EXPECT_EQ(s.generated, 500);
  EXPECT_EQ(s.mismatched, 0) << s.ToJson();
  EXPECT_EQ(s.unreduced(), 0);
  // The grammar is weighted toward binder-accepted shapes: nearly every
  // query must survive translation AND execution on every dialect.
  EXPECT_GE(s.translated, 475) << s.ToJson();
  EXPECT_GE(s.executed, 475) << s.ToJson();
  // TLP is on: every query without grouping, TOP or a set operation had
  // its WHERE p / NOT p / p IS UNKNOWN partitions compared.
  EXPECT_GE(s.tlp_checked, 200) << s.ToJson();
}

// Ternary Logic Partitioning on a hand-built LEFT JOIN whose predicate is
// UNKNOWN on the padded rows: the three partitions add up on every dialect,
// with and without DISTINCT; a grouped query is not partitioned.
TEST(TlpTest, PartitionsAddUpOnEveryDialect) {
  fuzz::HarnessOptions hopts;
  hopts.dialects = serializer::DialectNames();
  fuzz::DifferentialHarness harness(hopts);
  fuzz::QuerySpec spec;
  spec.table = "FZ_T0";
  spec.alias = "A0";
  spec.joins.push_back({"LEFT JOIN", "FZ_T1", "A1", "A0.ID = A1.REF"});
  spec.select_items = {"A0.GRP", "A1.NAME"};
  const std::string p = "(A1.PRICE > 20.00)";
  auto plain = harness.RunTlp(spec, p);
  EXPECT_EQ(plain.cls, fuzz::OutcomeClass::kOk) << plain.detail;
  EXPECT_TRUE(plain.tlp_checked);
  spec.distinct = true;
  auto distinct = harness.RunTlp(spec, p);
  EXPECT_EQ(distinct.cls, fuzz::OutcomeClass::kOk) << distinct.detail;
  EXPECT_TRUE(distinct.tlp_checked);
  spec.distinct = false;
  spec.group_by = {"A0.GRP"};
  spec.select_items = {"A0.GRP", "COUNT(*)"};
  EXPECT_FALSE(fuzz::TlpApplies(spec));
  EXPECT_FALSE(harness.RunTlp(spec, p).tlp_checked);
}

// A planted engine-side three-valued-logic bug that every dialect shares
// (NOT dropped from the SQL-B) is invisible to the cross-dialect
// comparison but breaks the partitioning.
TEST(TlpTest, SharedNegationBugIsATlpMismatch) {
  fuzz::HarnessOptions hopts;
  hopts.dialects = serializer::DialectNames();
  hopts.sql_b_override = [](const std::string&, const std::string& sql_b) {
    std::string out = sql_b;
    for (size_t at = out.find("NOT ("); at != std::string::npos;
         at = out.find("NOT (", at)) {
      out.erase(at, 4);
    }
    return out;
  };
  fuzz::DifferentialHarness harness(hopts);
  fuzz::QuerySpec spec;
  spec.table = "FZ_T0";
  spec.alias = "A0";
  spec.select_items = {"A0.ID"};
  auto out = harness.RunTlp(spec, "(A0.QTY > 3)");
  EXPECT_EQ(out.cls, fuzz::OutcomeClass::kTlpMismatch) << out.detail;
  EXPECT_TRUE(out.IsFinding());
  EXPECT_NE(out.detail.find("A0.QTY > 3"), std::string::npos) << out.detail;
}

// A hand-built wide query with a mismatch planted into one dialect's SQL-B
// (an appended row limit): the reducer must strip the noise — joins, WHERE
// conjuncts, ORDER BY, surplus select items — down to a ≤3-clause repro
// that still mismatches.
TEST(ReducerTest, PlantedMismatchShrinksToMinimalRepro) {
  fuzz::HarnessOptions hopts;
  hopts.dialects = serializer::DialectNames();
  hopts.sql_b_override = [](const std::string& dialect,
                            const std::string& sql_b) {
    if (dialect == "sierra" && sql_b.rfind("SELECT", 0) == 0) {
      return sql_b + " LIMIT 1";
    }
    return sql_b;
  };
  fuzz::DifferentialHarness harness(hopts);

  fuzz::QuerySpec spec;
  spec.table = "FZ_T0";
  spec.alias = "A0";
  spec.joins.push_back({"LEFT JOIN", "FZ_T1", "A1", "A0.ID = A1.REF"});
  spec.select_items = {"A0.ID", "A0.GRP", "A1.NAME"};
  spec.where = {"(A0.ID >= 0)", "(A0.ID <= 1000)"};
  spec.order_by = {"A0.ID ASC"};
  const int initial = spec.ClauseCount();
  ASSERT_GE(initial, 6);

  auto outcome = harness.Run(spec.ToSql());
  ASSERT_EQ(outcome.cls, fuzz::OutcomeClass::kResultMismatch)
      << outcome.detail;

  fuzz::ReductionResult red =
      fuzz::ReduceQuery(spec, [&harness](const fuzz::QuerySpec& q) {
        return harness.Run(q.ToSql()).IsFinding();
      });
  EXPECT_TRUE(red.converged);
  EXPECT_EQ(red.initial_clauses, initial);
  EXPECT_LE(red.final_clauses, 3) << red.minimal.ToSql();
  EXPECT_TRUE(harness.Run(red.minimal.ToSql()).IsFinding())
      << "minimal repro no longer fails: " << red.minimal.ToSql();
}

// End-to-end campaign against a planted fault: findings are detected,
// reduced, and appended to a golden corpus directory with per-dialect
// .expected translations alongside the minimal .sql.
TEST(CampaignTest, PlantedFaultIsReducedAndAppendedToGolden) {
  namespace fs = std::filesystem;
  std::string dir = ::testing::TempDir() + "/fuzz_golden_append";
  fs::remove_all(dir);

  fuzz::CampaignOptions opts;
  opts.seed = 17;
  opts.count = 20;
  opts.dialects = serializer::DialectNames();
  opts.golden_append_dir = dir;
  opts.sql_b_override = [](const std::string& dialect,
                           const std::string& sql_b) {
    if (dialect == "granite" && sql_b.rfind("SELECT", 0) == 0 &&
        sql_b.find("FETCH FIRST") == std::string::npos) {
      return sql_b + " FETCH FIRST 1 ROWS ONLY";
    }
    return sql_b;
  };
  fuzz::CampaignSummary s = fuzz::RunCampaign(opts);
  ASSERT_GT(s.mismatched, 0);
  EXPECT_EQ(s.unreduced(), 0) << s.ToJson();
  for (const auto& m : s.mismatches) {
    EXPECT_TRUE(m.reduced);
    EXPECT_LE(m.reduced_clauses, 3) << m.reduced_sql;
    EXPECT_LE(m.reduced_clauses, m.original_clauses);
    ASSERT_FALSE(m.golden_path.empty());
    EXPECT_TRUE(fs::exists(m.golden_path)) << m.golden_path;
    // The per-dialect expected translations ride along.
    std::string base = fs::path(m.golden_path).stem().string();
    EXPECT_TRUE(fs::exists(dir + "/" + base + ".expected"));
    EXPECT_TRUE(fs::exists(dir + "/granite/" + base + ".expected"));
    EXPECT_TRUE(fs::exists(dir + "/sierra/" + base + ".expected"));
  }
  // The JSON summary round-trips the headline counters for
  // scripts/fuzz_nightly.sh.
  std::string json = s.ToJson();
  EXPECT_NE(json.find("\"mismatched\":" + std::to_string(s.mismatched)),
            std::string::npos);
  EXPECT_NE(json.find("\"unreduced\":0"), std::string::npos);
}

// A campaign against healthy dialects must be silent even with the
// override hook installed as identity.
TEST(CampaignTest, IdentityOverrideFindsNothing) {
  fuzz::CampaignOptions opts;
  opts.seed = 5;
  opts.count = 50;
  opts.sql_b_override = [](const std::string&, const std::string& sql_b) {
    return sql_b;
  };
  fuzz::CampaignSummary s = fuzz::RunCampaign(opts);
  EXPECT_EQ(s.mismatched, 0) << s.ToJson();
}

// Acceptance bar: all 22 TPC-H shapes translate and execute equivalently
// (canonical multiset) on every registered dialect.
// IN, NOT IN and NOT (... IN ...) against subqueries holding NULLs (and a
// NULL probe) must give the same rows on every dialect, including those
// whose targets lower IN subqueries to EXISTS. The expected rows are the
// SQL three-valued answers.
TEST(DifferentialTest, InSubqueryWithNullsAgreesAcrossDialects) {
  const std::vector<std::string> ddl = {
      "CREATE TABLE T (A INTEGER)", "INS INTO T VALUES (1)",
      "INS INTO T VALUES (2)",      "INS INTO T VALUES (NULL)",
      "CREATE TABLE S (B INTEGER)", "INS INTO S VALUES (1)",
      "INS INTO S VALUES (NULL)",   "CREATE TABLE U (B INTEGER)",
      "INS INTO U VALUES (1)",      "CREATE TABLE E (B INTEGER)",
  };
  const std::vector<std::pair<std::string, std::vector<std::string>>> cases =
      {
          {"SEL A FROM T WHERE A IN (SEL B FROM S)", {"1"}},
          {"SEL A FROM T WHERE A NOT IN (SEL B FROM S)", {}},
          {"SEL A FROM T WHERE NOT (A IN (SEL B FROM S))", {}},
          {"SEL A FROM T WHERE A NOT IN (SEL B FROM U)", {"2"}},
          {"SEL A FROM T WHERE NOT (A IN (SEL B FROM U))", {"2"}},
          {"SEL A FROM T WHERE A NOT IN (SEL B FROM E)",
           {"1", "2", "<null>"}},
          {"SEL A FROM T WHERE A IN (SEL B FROM E)", {}},
      };
  for (const auto& name : serializer::DialectNames()) {
    vdb::Engine engine;
    service::ServiceOptions opts;
    opts.profile = serializer::FindDialect(name)->Profile();
    service::HyperQService service(&engine, opts);
    auto sid = service.OpenSession("in");
    ASSERT_TRUE(sid.ok()) << sid.status();
    for (const auto& stmt : ddl) {
      ASSERT_TRUE(service.Submit(*sid, stmt).ok()) << name << ": " << stmt;
    }
    for (const auto& [sql, expected] : cases) {
      auto outcome = service.Submit(*sid, sql);
      ASSERT_TRUE(outcome.ok()) << name << ": " << sql << "\n"
                                << outcome.status();
      auto rows = outcome->result.DecodeRows();
      ASSERT_TRUE(rows.ok()) << rows.status();
      vdb::QueryResult decoded;
      decoded.chunks.push_back(
          vdb::BatchFromRows({SqlType::Int()}, *rows, 0, rows->size()));
      EXPECT_EQ(fuzz::CanonicalRows(decoded), expected) << name << ": "
                                                        << sql;
    }
    service.CloseSession(*sid);
  }
}

TEST(FuzzTpchTest, All22QueriesEquivalentOnEveryDialect) {
  struct Target {
    std::string dialect;
    std::unique_ptr<vdb::Engine> engine;
    std::unique_ptr<service::HyperQService> service;
    uint32_t session;
  };
  std::vector<Target> targets;
  workload::TpchOptions load;
  load.scale_factor = 0.005;
  for (const auto& name : serializer::DialectNames()) {
    Target t;
    t.dialect = name;
    t.engine = std::make_unique<vdb::Engine>();
    service::ServiceOptions opts;
    opts.profile = serializer::FindDialect(name)->Profile();
    opts.tracing = false;
    t.service =
        std::make_unique<service::HyperQService>(t.engine.get(), opts);
    auto sid = t.service->OpenSession("tpch");
    ASSERT_TRUE(sid.ok()) << sid.status();
    t.session = *sid;
    ASSERT_TRUE(
        workload::LoadTpch(t.service.get(), t.session, t.engine.get(), load)
            .ok());
    targets.push_back(std::move(t));
  }

  const auto& queries = workload::TpchQueries();
  ASSERT_EQ(queries.size(), 22u);
  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<std::string> baseline;
    for (auto& t : targets) {
      auto sql_b = t.service->Translate(queries[q], nullptr);
      ASSERT_TRUE(sql_b.ok())
          << "Q" << q + 1 << " on " << t.dialect << ": " << sql_b.status();
      vdb::QueryResult last;
      for (const auto& stmt : *sql_b) {
        auto r = t.engine->Execute(stmt);
        ASSERT_TRUE(r.ok())
            << "Q" << q + 1 << " on " << t.dialect << ": " << r.status()
            << "\n" << stmt;
        last = std::move(r).value();
      }
      auto rows = fuzz::CanonicalRows(last);
      if (&t == &targets[0]) {
        baseline = rows;
        EXPECT_FALSE(baseline.empty() && q == 0) << "Q1 returned no rows";
      } else {
        EXPECT_EQ(rows, baseline)
            << "Q" << q + 1 << ": " << t.dialect << " diverges from "
            << targets[0].dialect;
      }
    }
  }
}

// --- Wire-frame robustness (DESIGN.md §13) -----------------------------------
// Malformed, truncated, and oversized frames thrown at a live server: every
// byte pattern must yield either a typed error frame or a clean close —
// never a crash, a wedged worker, or a leaked fd. Run under ASan by
// scripts/tier1.sh, so "no crash" includes "no heap error".

class WireFuzzFixture {
 public:
  WireFuzzFixture() : service_(&engine_, ServiceOpts()) {
    server_options_.frame_read_timeout_ms = 500;
    server_ = std::make_unique<protocol::TdwpServer>(&service_,
                                                     server_options_);
    start_ok_ = server_->Start(0).ok();
  }
  ~WireFuzzFixture() { server_->Stop(); }

  bool ok() const { return start_ok_; }
  uint16_t port() const { return server_->port(); }
  protocol::TdwpServer& server() { return *server_; }

  /// The liveness probe: after any garbage, a well-formed session must
  /// still work end to end.
  ::testing::AssertionResult StillServes() {
    protocol::TdwpClient client;
    if (!client.Connect(server_->port()).ok()) {
      return ::testing::AssertionFailure() << "connect failed";
    }
    if (!client.Logon("alice", "pw").ok()) {
      return ::testing::AssertionFailure() << "logon failed";
    }
    auto out = client.Run("SELECT 1");
    client.Goodbye();
    if (!out.ok()) {
      return ::testing::AssertionFailure() << out.status();
    }
    return ::testing::AssertionSuccess();
  }

 private:
  static service::ServiceOptions ServiceOpts() { return {}; }
  vdb::Engine engine_;
  service::HyperQService service_;
  protocol::TdwpServerOptions server_options_;
  std::unique_ptr<protocol::TdwpServer> server_;
  bool start_ok_ = false;
};

uint64_t FuzzMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

TEST(WireFuzzTest, GarbageBytesNeverCrashTheServer) {
  WireFuzzFixture fx;
  ASSERT_TRUE(fx.ok());
  uint64_t rng = kSmokeSeed;
  for (int round = 0; round < 24; ++round) {
    auto conn = protocol::Socket::ConnectLocal(fx.port());
    ASSERT_TRUE(conn.ok());
    uint8_t garbage[64];
    for (auto& b : garbage) {
      rng = FuzzMix(rng);
      b = static_cast<uint8_t>(rng);
    }
    // The write may legitimately fail (the server can close first).
    (void)conn->WriteAll(garbage, sizeof(garbage));
    // Drain whatever the server answers (error frame or EOF), then drop.
    uint8_t sink[256];
    (void)conn->SetRecvTimeoutMs(1000);
    (void)conn->ReadExactly(sink, 1);
  }
  EXPECT_TRUE(fx.StillServes());
}

TEST(WireFuzzTest, OversizedLengthPrefixGetsTypedErrorFrame) {
  WireFuzzFixture fx;
  ASSERT_TRUE(fx.ok());
  auto conn = protocol::Socket::ConnectLocal(fx.port());
  ASSERT_TRUE(conn.ok());
  // Valid kind, absurd length: claims a 1 GiB payload.
  uint8_t header[8] = {static_cast<uint8_t>(protocol::MessageKind::kRunRequest),
                       0, 0, 0, 0x00, 0x00, 0x00, 0x40};
  ASSERT_TRUE(conn->WriteAll(header, sizeof(header)).ok());
  auto reply = conn->ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->kind, protocol::MessageKind::kError);
  auto err = protocol::DecodeError(reply->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->code, static_cast<uint32_t>(StatusCode::kProtocolError));
  EXPECT_TRUE(fx.StillServes());
}

TEST(WireFuzzTest, TruncatedFramesAndMidFrameClosesLeakNothing) {
  WireFuzzFixture fx;
  ASSERT_TRUE(fx.ok());
  int baseline_fds = chaos::InvariantAuditor::CountOpenFds();
  uint64_t rng = kSmokeSeed + 1;
  for (int round = 0; round < 24; ++round) {
    auto conn = protocol::Socket::ConnectLocal(fx.port());
    ASSERT_TRUE(conn.ok());
    // A header promising more payload than we ever send...
    rng = FuzzMix(rng);
    uint32_t claimed = 32 + static_cast<uint32_t>(rng % 512);
    uint8_t header[8] = {
        static_cast<uint8_t>(protocol::MessageKind::kRunRequest), 0, 0, 0,
        static_cast<uint8_t>(claimed), static_cast<uint8_t>(claimed >> 8),
        0, 0};
    (void)conn->WriteAll(header, sizeof(header));
    uint8_t partial[16] = {0};
    (void)conn->WriteAll(partial, sizeof(partial));
    // ...then vanish mid-frame. The frame guard reaps the worker.
  }
  EXPECT_TRUE(fx.StillServes());
  // Every fuzz connection's fd must be released once workers are reaped.
  bool settled = false;
  for (int i = 0; i < 4000 && !settled; ++i) {
    fx.server().ReapWorkers();
    settled = fx.server().active_connections() == 0 &&
              chaos::InvariantAuditor::CountOpenFds() <= baseline_fds + 2;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(settled) << "fds: " << chaos::InvariantAuditor::CountOpenFds()
                       << " vs baseline " << baseline_fds << ", active: "
                       << fx.server().active_connections();
}

TEST(WireFuzzTest, UnknownMessageKindsGetErrorsNotCrashes) {
  WireFuzzFixture fx;
  ASSERT_TRUE(fx.ok());
  for (uint8_t kind : {0, 42, 99, 200, 255}) {
    auto conn = protocol::Socket::ConnectLocal(fx.port());
    ASSERT_TRUE(conn.ok());
    protocol::Frame f;
    f.kind = static_cast<protocol::MessageKind>(kind);
    f.payload = {1, 2, 3};
    ASSERT_TRUE(conn->WriteFrame(f).ok());
    (void)conn->SetRecvTimeoutMs(2000);
    auto reply = conn->ReadFrame();
    // Either a typed error frame or a clean close; never silence.
    if (reply.ok()) {
      EXPECT_EQ(reply->kind, protocol::MessageKind::kError)
          << "kind " << int(kind);
    } else {
      EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable)
          << "kind " << int(kind) << ": " << reply.status();
    }
  }
  EXPECT_TRUE(fx.StillServes());
}

}  // namespace
}  // namespace hyperq
