// Shared types of the wire-level benchmark (see README.md in this
// directory): the statements a workload plays, the answers they must
// produce, and the per-statement samples the load generator records.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "protocol/client.h"
#include "report.h"
#include "service/hyperq_service.h"
#include "vdb/engine.h"
#include "workload/customer.h"

namespace perfbench {

/// What a correct answer to one statement looks like. Taken at set-up
/// from a reference that does not go through the wire.
struct Expect {
  bool rowset = true;
  int64_t rows = -1;      // result rows; -1 = rows and checksum unchecked
  uint64_t checksum = 0;  // order-insensitive row checksum (RowHash sum)
  int64_t affected = -1;      // activity count of DML; -1 = not checked
};

struct Stmt {
  std::string sql;  // SQL-A, sent over the wire
  Expect expect;
  bool write = false;     // DML
  bool emulated = false;  // the service classifies it as emulation
  /// Signed contribution of the activity count to `ledger_table`'s row
  /// count (+1 INSERT, -1 DELETE, 0 otherwise).
  int ledger_sign = 0;
  std::string ledger_table;
};

/// One client session's statement stream, played in order and wrapped
/// around. A session stops only after a whole number of `unit`
/// statements, so every run measures the same mix whatever the seed.
struct SessionScript {
  std::vector<Stmt> stmts;
  size_t unit = 1;
  size_t warmup = 0;  // leading statements played before timing starts
};

/// A table whose final row count the writers imply.
struct LedgerTable {
  std::string name;
  int64_t base_rows = 0;
};

struct Workload {
  std::vector<SessionScript> sessions;
  std::vector<LedgerTable> ledgers;
  double repeat_share = 0;  // share of replayed statements that repeat
};

/// One engine behind one service: the program under test.
struct Fixture {
  std::unique_ptr<hyperq::vdb::Engine> engine;
  std::unique_ptr<hyperq::service::HyperQService> service;
  uint32_t admin_session = 0;
  bool has_tpch = false;
  bool has_health = false;
  bool has_staging = false;
};

std::unique_ptr<Fixture> NewFixture(
    hyperq::service::ServiceOptions options = {});

// Data sets. All are fixed; the seed only shapes the statement streams.
constexpr double kTpchScale = 0.01;
// Health: the replayed literals run from 1 to ~4800 while scores and claim
// amounts stay below 1000, so most range predicates select few rows and
// execution stays small next to translation and the wire.
constexpr int64_t kHealthPatients = 2000;
constexpr int64_t kHealthClaims = 2000;
constexpr int64_t kStagingBaseOrders = 2000;  // ORDERS_STG keys 1..2000

hyperq::Status LoadTpchData(Fixture* fx);
hyperq::Status LoadHealthData(Fixture* fx);
hyperq::Status CreateStaging(Fixture* fx);

/// Runs the workload's set-up on a fresh fixture: schema, load.
hyperq::Result<std::unique_ptr<Fixture>> SetUpFor(const std::string& workload);

/// Order-insensitive checksum over rows of datums.
uint64_t RowHash(const std::vector<hyperq::Datum>& row);

/// Builds the workload's statement streams from `seed` and fills every
/// Expect from `reference`, a fixture with the same data that is queried
/// directly (SQL-B on its engine, or its service without the wire).
hyperq::Result<Workload> BuildWorkload(const std::string& name, uint64_t seed,
                                       Fixture* reference);

/// Row count of `table` read directly from the engine.
hyperq::Result<int64_t> CountRows(hyperq::vdb::Engine* engine,
                                  const std::string& table);

/// One `bulk_extract` ladder: every projection over every range width
/// once, with ranges placed by `seed` (SQL-A).
std::vector<std::string> BulkLadderSql(uint64_t seed);

/// The Health (Customer 1) population `replay_health` replays. Its literals
/// are fixed: the seed only orders the replay, so result sizes do not
/// depend on it.
std::vector<hyperq::workload::WorkloadQuery> HealthPopulation();

/// The `tpch_rw4` writer: units of INSERT...SELECT, UPDATE and DELETE of
/// one block of ORDERS keys on ORDERS_STG, which no reader reads.
SessionScript ChurnWriter(uint64_t seed);

/// The 10 TPC-H queries (0-based) the stress test and `tpch_rw4` read.
const std::vector<int>& ReadMixQueries();

/// Returns "" when `got` satisfies `want`, else a description.
std::string CheckAnswer(const Expect& want,
                        const hyperq::protocol::ClientResult& got);

/// One timed statement of the measured window.
struct Sample {
  double micros = 0;  // client: TdwpClient::Run entry to last row decoded
  double server_micros = -1;  // traced runs: HyperQService::Run
  int64_t wire_bytes = -1;    // traced runs: encoded record batches
  int64_t rows = 0;
  const Stmt* stmt = nullptr;
};

struct RunStats {
  std::vector<Sample> samples;  // statements of the window that passed
  double elapsed_s = 0;
  int64_t attempted = 0;  // warm-up and window
  int64_t failed = 0;     // errors and wrong answers
  std::vector<std::string> failures;  // the first few, for the report
  double peak_rss_mb = 0;  // sampled over warm-up and window
  /// Translation-cache activity over the window (StatsSnapshot delta).
  int64_t translated = 0;
  int64_t cache_hits = 0;
  /// Traced runs: the program's own per-request span self-times, by span
  /// name, as delivered to RequestHandler::OnQueryTraceFinished.
  std::map<std::string, std::vector<double>> span_self_us;
};

/// Serves `fx` over tdwp on localhost and plays every session of `w` from
/// its own client thread, closed loop: warm-up, then `seconds` of timed
/// statements, each session stopping at its next unit boundary. Ends with
/// the final row-count checks of `w.ledgers`. `traced` puts a timing
/// RequestHandler in front of the service.
RunStats RunClosedLoop(Fixture* fx, const Workload& w, double seconds,
                       bool traced);

/// Resident set size of this process, in MB.
double CurrentRssMb();

/// Per-layer probes of the traced run (probes.cc), added to `m`.
hyperq::Status RunProbes(Fixture* fx, const Workload& w, uint64_t seed,
                         Metrics* m);

}  // namespace perfbench
