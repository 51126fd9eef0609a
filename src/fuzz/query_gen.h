// Seeded random query generation over the SQL-A (Teradata) frontend
// grammar — the RISE-style generation half of the differential fuzzer
// (ROADMAP item 3, DESIGN.md §12).
//
// Queries are generated as a *clause-structured* QuerySpec rather than flat
// text: joins, WHERE conjuncts, grouping, ordering, row limits, and set
// operations are separate lists, so the delta-debugging reducer
// (fuzz/reducer.h) can drop clauses one at a time and re-render. The
// grammar is deliberately weighted toward shapes the binder accepts —
// every construct drawn is one the frontend supports — so nearly all
// generated queries survive to differential execution.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace hyperq::fuzz {

/// \brief Deterministic splitmix64 stream; identical sequences across
/// platforms (std:: distributions are not portable, so they are not used).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed + 0x9E3779B97F4A7C15ULL) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int Int(int lo, int hi) {
    return lo + static_cast<int>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

  /// True with probability pct/100.
  bool Chance(int pct) { return Int(1, 100) <= pct; }

 private:
  uint64_t state_;
};

/// \brief A generated query in clause-list form. ToSql() renders SQL-A;
/// the reducer clones the spec and drops clauses.
struct QuerySpec {
  struct Join {
    std::string kind;   // "INNER JOIN" | "LEFT JOIN"
    std::string table;
    std::string alias;
    std::string on;     // predicate text
  };

  std::string table;   // base FROM table
  std::string alias;   // its alias (A0, ...)
  std::vector<Join> joins;
  bool distinct = false;
  int64_t top = -1;    // SQL-A `TOP n` row limit; -1 = none
  std::vector<std::string> select_items;  // expr texts (aliased C1.. on render)
  std::vector<std::string> where;         // AND-joined conjunct texts
  std::vector<std::string> group_by;      // group expr texts
  std::string having;                     // "" = none
  std::vector<std::string> order_by;      // full item texts ("expr DESC NULLS LAST")
  std::string setop_kw;                   // "" = none; "UNION" | "UNION ALL" | ...
  std::unique_ptr<QuerySpec> setop_right; // second operand (same output types)

  /// Renders the spec as one SQL-A statement.
  std::string ToSql() const;

  /// Number of droppable clauses — the reducer's progress metric and the
  /// "minimal repro has ≤ N clauses" acceptance measure. The mandatory
  /// FROM table and the first select item are structural, not clauses.
  int ClauseCount() const;

  QuerySpec Clone() const;
};

/// \brief The fuzz schema: two tables with nullable columns of every
/// frontend-relevant type. The differential harness creates them in every
/// target, and tests/golden/_schema.sql carries the same definitions so
/// reduced repros appended to the golden corpus bind there too.
std::vector<std::string> SchemaDdl();

/// \brief Deterministic data population (INSERT statements) with NULLs
/// scattered through every nullable column; `rows0`/`rows1` rows for the
/// two tables.
std::vector<std::string> DataDml(uint64_t seed, int rows0 = 24, int rows1 = 18);

/// \brief Generates the `index`-th query of stream `seed`. The same
/// (seed, index) pair always yields the same QuerySpec.
QuerySpec GenerateQuery(uint64_t seed, uint64_t index);

/// \brief A predicate over the tables `spec`'s FROM clause brings into
/// scope, drawn from the WHERE-conjunct grammar (the partitioning
/// predicate of the TLP oracle, fuzz/differential.h). Deterministic in
/// (spec, seed, index).
std::string GeneratePredicate(const QuerySpec& spec, uint64_t seed,
                              uint64_t index);

}  // namespace hyperq::fuzz
