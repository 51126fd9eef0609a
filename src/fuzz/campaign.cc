#include "fuzz/campaign.h"

#include <chrono>
#include <filesystem>
#include <fstream>

#include "fuzz/query_gen.h"
#include "fuzz/reducer.h"

namespace hyperq::fuzz {

namespace {

void AppendJson(std::string* out, const std::string& s) {
  *out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
      case '\r':
      case '\t':
        *out += ' ';
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += ' ';
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

// Writes the minimal repro into the golden corpus layout: the SQL-A text
// at <dir>/<name>.sql, the first dialect's translation at
// <dir>/<name>.expected, the other dialects' at <dir>/<dialect>/<name>.expected
// — matching what tests/golden_test.cc regenerates, so the appended case is
// green immediately, not only after a HQ_REGEN_GOLDEN pass.
std::string AppendGolden(const std::string& dir, const std::string& name,
                         const std::string& sql_a,
                         const DifferentialOutcome& outcome) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  std::string sql_path = dir + "/" + name + ".sql";
  WriteFile(sql_path, sql_a + "\n");
  for (size_t i = 0; i < outcome.runs.size(); ++i) {
    const DialectRun& run = outcome.runs[i];
    if (!run.translated) continue;
    std::string joined;
    for (const auto& s : run.sql_b) {
      joined += s;
      joined += '\n';
    }
    std::string expected_path;
    if (i == 0) {
      expected_path = dir + "/" + name + ".expected";
    } else {
      fs::create_directories(dir + "/" + run.dialect, ec);
      expected_path = dir + "/" + run.dialect + "/" + name + ".expected";
    }
    WriteFile(expected_path, joined);
  }
  return sql_path;
}

}  // namespace

std::string CampaignSummary::ToJson() const {
  std::string out = "{";
  out += "\"seed\":" + std::to_string(seed);
  out += ",\"generated\":" + std::to_string(generated);
  out += ",\"translated\":" + std::to_string(translated);
  out += ",\"executed\":" + std::to_string(executed);
  out += ",\"rejected\":" + std::to_string(rejected);
  out += ",\"tlp_checked\":" + std::to_string(tlp_checked);
  out += ",\"mismatched\":" + std::to_string(mismatched);
  out += ",\"reduced\":" + std::to_string(reduced);
  out += ",\"unreduced\":" + std::to_string(unreduced());
  char secs[32];
  std::snprintf(secs, sizeof(secs), "%.3f", seconds);
  out += ",\"seconds\":" + std::string(secs);
  out += ",\"mismatches\":[";
  for (size_t i = 0; i < mismatches.size(); ++i) {
    const MismatchReport& m = mismatches[i];
    if (i > 0) out += ',';
    out += "{\"index\":" + std::to_string(m.index);
    out += ",\"class\":";
    AppendJson(&out, m.classification);
    out += ",\"detail\":";
    AppendJson(&out, m.detail);
    out += ",\"original_clauses\":" + std::to_string(m.original_clauses);
    out += ",\"reduced_clauses\":" + std::to_string(m.reduced_clauses);
    out += ",\"reduced\":" + std::string(m.reduced ? "true" : "false");
    out += ",\"original_sql\":";
    AppendJson(&out, m.original_sql);
    out += ",\"reduced_sql\":";
    AppendJson(&out, m.reduced_sql);
    out += ",\"golden_path\":";
    AppendJson(&out, m.golden_path);
    out += '}';
  }
  out += "]}";
  return out;
}

CampaignSummary RunCampaign(const CampaignOptions& options) {
  auto start = std::chrono::steady_clock::now();
  auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  CampaignSummary summary;
  summary.seed = options.seed;

  HarnessOptions hopts;
  hopts.dialects = options.dialects;
  hopts.sql_b_override = options.sql_b_override;
  DifferentialHarness harness(hopts);

  for (uint64_t i = 0;; ++i) {
    if (options.count > 0 && i >= static_cast<uint64_t>(options.count)) break;
    if (options.max_seconds > 0 && elapsed() >= options.max_seconds) break;
    if (options.count <= 0 && options.max_seconds <= 0) break;  // no bound

    QuerySpec spec = GenerateQuery(options.seed, i);
    const std::string tlp_pred = GeneratePredicate(spec, options.seed, i);
    ++summary.generated;
    DifferentialOutcome outcome = harness.RunTlp(spec, tlp_pred);
    if (outcome.tlp_checked) ++summary.tlp_checked;
    if (outcome.cls == OutcomeClass::kRejected) {
      ++summary.rejected;
      continue;
    }
    bool all_translated = true;
    bool all_executed = true;
    for (const auto& r : outcome.runs) {
      all_translated = all_translated && r.translated;
      all_executed = all_executed && r.executed;
    }
    if (all_translated) ++summary.translated;
    if (all_executed) ++summary.executed;
    if (!outcome.IsFinding()) continue;

    // A finding: minimize it. "Still fails" means *any* divergence class —
    // a mismatch that simplifies into an execute divergence is still the
    // same bug surfacing earlier, and the smaller repro wins.
    ++summary.mismatched;
    MismatchReport report;
    report.index = i;
    report.classification = OutcomeClassName(outcome.cls);
    report.detail = outcome.detail;
    report.original_sql = spec.ToSql();
    report.original_clauses = spec.ClauseCount();

    ReductionResult reduction =
        ReduceQuery(spec, [&](const QuerySpec& candidate) {
          return harness.RunTlp(candidate, tlp_pred).IsFinding();
        });
    report.reduced = reduction.converged;
    report.reduced_sql = reduction.minimal.ToSql();
    report.reduced_clauses = reduction.final_clauses;
    if (reduction.converged) ++summary.reduced;

    if (!options.golden_append_dir.empty() && reduction.converged) {
      DifferentialOutcome minimal_outcome = harness.Run(report.reduced_sql);
      std::string name = "fz_" + std::to_string(options.seed) + "_" +
                         std::to_string(i);
      report.golden_path = AppendGolden(options.golden_append_dir, name,
                                        report.reduced_sql, minimal_outcome);
    }
    summary.mismatches.push_back(std::move(report));
  }

  summary.seconds = elapsed();
  return summary;
}

}  // namespace hyperq::fuzz
