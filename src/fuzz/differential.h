// Differential execution harness: one SQL-A statement is translated to
// every registered SQL-B dialect, each translation is executed against its
// own embedded vdb instance (identical schema + data), and the result sets
// are compared as canonical multisets. Any divergence — translation,
// execution, or results — is a finding the reducer (fuzz/reducer.h)
// shrinks to a minimal repro. All dialects share one binder and executor,
// so a metamorphic oracle, Ternary Logic Partitioning (RunTlp), checks
// those within each target. See DESIGN.md §12.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fuzz/query_gen.h"
#include "service/hyperq_service.h"
#include "vdb/engine.h"

namespace hyperq::fuzz {

/// \brief How a differential run of one query ended.
enum class OutcomeClass {
  kOk,                  // every dialect agreed
  kRejected,            // every dialect rejected it identically-shaped
                        // (frontend or engine) — not a finding
  kTranslateDivergence, // some dialects translated, others refused
  kExecuteDivergence,   // some executions succeeded, others errored
  kResultMismatch,      // executions succeeded with different multisets
  kTlpMismatch,         // a target's WHERE p / NOT p / p IS UNKNOWN
                        // partitions do not add up to the query's rows
};

const char* OutcomeClassName(OutcomeClass cls);

/// \brief One dialect's leg of a differential run.
struct DialectRun {
  std::string dialect;
  bool translated = false;
  bool executed = false;
  std::string error;                  // translate/execute failure message
  std::vector<std::string> sql_b;     // statements sent to the engine
  std::vector<std::string> rows;      // canonical sorted row strings
};

struct DifferentialOutcome {
  OutcomeClass cls = OutcomeClass::kOk;
  std::string detail;  // human-readable divergence description
  std::vector<DialectRun> runs;
  bool tlp_checked = false;  // RunTlp compared the three partitions

  /// True for the divergence classes and TLP mismatches — the fuzzer's
  /// findings.
  bool IsFinding() const {
    return cls == OutcomeClass::kTranslateDivergence ||
           cls == OutcomeClass::kExecuteDivergence ||
           cls == OutcomeClass::kResultMismatch ||
           cls == OutcomeClass::kTlpMismatch;
  }
};

struct HarnessOptions {
  /// Dialects under test; every name must resolve via serializer
  /// FindDialect(). Order is preserved in DifferentialOutcome::runs.
  std::vector<std::string> dialects = {"ansi", "sierra", "granite"};
  /// Seed/shape of the deterministic fuzz data set (query_gen DataDml).
  uint64_t data_seed = 42;
  int rows0 = 24;
  int rows1 = 18;
  /// Test hook: rewrites the SQL-B text of one dialect before execution,
  /// used to plant a known mismatch and exercise the reducer end to end.
  /// Called as (dialect, sql_b) -> sql_b'. null = identity.
  std::function<std::string(const std::string&, const std::string&)>
      sql_b_override;
};

/// \brief Owns one {engine, service, session} per dialect, all loaded with
/// the same deterministic data set, and runs one query differentially.
class DifferentialHarness {
 public:
  /// Builds all targets and applies SchemaDdl()/DataDml() through each
  /// service (via SQL-A, so the data path is the product path too).
  /// Dies via Status-check on setup failure — setup uses fixed statements.
  explicit DifferentialHarness(HarnessOptions options = {});
  ~DifferentialHarness();

  DifferentialHarness(const DifferentialHarness&) = delete;
  DifferentialHarness& operator=(const DifferentialHarness&) = delete;

  /// Translates + executes `sql_a` on every dialect and classifies.
  DifferentialOutcome Run(const std::string& sql_a);

  /// Runs `spec` like Run(), then applies Ternary Logic Partitioning when
  /// TlpApplies(spec): on every target, the rows of `spec` must equal the
  /// multiset union of `spec WHERE p`, `spec WHERE NOT p` and
  /// `spec WHERE p IS UNKNOWN` (deduplicated when `spec` is DISTINCT). A
  /// difference is a kTlpMismatch; a divergence among the partition runs
  /// is reported as that run's finding.
  DifferentialOutcome RunTlp(const QuerySpec& spec, const std::string& p);

  const std::vector<std::string>& dialects() const {
    return options_.dialects;
  }

 private:
  struct Target {
    std::string dialect;
    std::unique_ptr<vdb::Engine> engine;
    std::unique_ptr<service::HyperQService> service;
    uint32_t session = 0;
  };

  HarnessOptions options_;
  std::vector<Target> targets_;
};

/// \brief True when WHERE partitions `spec`'s rows: no GROUP BY, HAVING
/// (so no aggregate), TOP or set operation.
bool TlpApplies(const QuerySpec& spec);

/// \brief Canonical multiset rendering of a vdb result: one string per row
/// (columns '|'-joined, doubles normalized to %.6g, NULL as "<null>"),
/// sorted. Two dialects agree iff their canonical vectors are equal.
std::vector<std::string> CanonicalRows(const vdb::QueryResult& result);

}  // namespace hyperq::fuzz
