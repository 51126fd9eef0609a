// Fuzz campaign driver: generate → translate-to-every-dialect → execute →
// compare (across dialects, and against the query's TLP partitions) →
// reduce, in a loop bounded by query count and/or wall clock.
// Every finding is minimized by the delta-debugging reducer and (in golden
// append mode) written into the golden corpus as a permanent regression
// anchor. Summaries serialize to JSON for scripts/fuzz_nightly.sh.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fuzz/differential.h"

namespace hyperq::fuzz {

struct CampaignOptions {
  uint64_t seed = 1;
  /// Queries to generate; <= 0 means unbounded (use max_seconds).
  int count = 500;
  /// Wall-clock bound in seconds; <= 0 means unbounded (use count).
  double max_seconds = 0;
  std::vector<std::string> dialects = {"ansi", "sierra", "granite"};
  /// When non-empty, each reduced repro is appended to this golden corpus
  /// directory: `fz_<seed>_<index>.sql` (the minimal SQL-A) next to its
  /// per-dialect `.expected` translations (root file = first dialect,
  /// `<dialect>/` subdirectories for the rest).
  std::string golden_append_dir;
  /// Forwarded to the harness; plants a mismatch for reducer tests.
  std::function<std::string(const std::string&, const std::string&)>
      sql_b_override;
};

/// \brief One finding, original and minimized.
struct MismatchReport {
  uint64_t index = 0;              // query index within the seed stream
  std::string classification;      // OutcomeClassName of the finding
  std::string detail;
  std::string original_sql;
  std::string reduced_sql;
  int original_clauses = 0;
  int reduced_clauses = 0;
  bool reduced = false;            // reducer converged on a stable repro
  std::string golden_path;         // .sql path written, when appending
};

struct CampaignSummary {
  uint64_t seed = 0;
  int generated = 0;   // queries drawn from the generator
  int translated = 0;  // queries every dialect translated
  int executed = 0;    // queries every dialect executed
  int rejected = 0;    // uniform frontend/engine rejections (fuzz noise)
  int tlp_checked = 0; // queries whose TLP partitions were compared
  int mismatched = 0;  // findings (any divergence class)
  int reduced = 0;     // findings the reducer minimized
  double seconds = 0;
  std::vector<MismatchReport> mismatches;

  /// Findings without a stable minimal repro — the campaign's failure
  /// signal (scripts/fuzz_nightly.sh exits non-zero when > 0... as does
  /// any mismatch at all; unreduced ones additionally mean the reducer
  /// could not pin the repro down).
  int unreduced() const { return mismatched - reduced; }

  std::string ToJson() const;
};

/// \brief Runs one campaign. Deterministic for a fixed (seed, count,
/// dialects) triple when max_seconds is unset.
CampaignSummary RunCampaign(const CampaignOptions& options);

}  // namespace hyperq::fuzz
