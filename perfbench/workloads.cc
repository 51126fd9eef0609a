// Fixtures, statement streams and reference answers of the four workloads.

#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "common/features.h"
#include "types/date.h"
#include "types/decimal.h"
#include "workload/customer.h"
#include "workload/tpch.h"

namespace perfbench {

using hyperq::Datum;
using hyperq::Result;
using hyperq::Status;

namespace {

uint64_t Mix(uint64_t x) {  // splitmix64 finaliser
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic generator: the same seed gives the same streams on every
/// platform (no std::*_distribution, whose output is implementation-defined).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(Mix(seed)) {}
  uint64_t Next() { return state_ = Mix(state_); }
  int64_t Uniform(int64_t lo, int64_t hi) {  // inclusive
    uint64_t span = static_cast<uint64_t>(hi - lo + 1);
    return lo + static_cast<int64_t>(Next() % span);
  }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Next() % i]);
    }
  }

 private:
  uint64_t state_;
};

Status Submit(Fixture* fx, const std::string& sql) {
  return fx->service->Submit(fx->admin_session, sql).status();
}

std::string Replace(std::string s, const std::string& from,
                    const std::string& to) {
  size_t pos = s.find(from);
  if (pos != std::string::npos) s.replace(pos, from.size(), to);
  return s;
}

/// Answer of `sql_a` taken without the wire: translate on the reference
/// service, run the SQL-B directly on the reference engine.
Result<Expect> ReferenceAnswer(Fixture* ref, const std::string& sql_a) {
  HQ_ASSIGN_OR_RETURN(std::vector<std::string> sql_b,
                      ref->service->Translate(sql_a, nullptr));
  if (sql_b.empty()) {
    return Status::InvalidArgument("no SQL-B for: " + sql_a);
  }
  hyperq::vdb::QueryResult result;
  for (const std::string& s : sql_b) {
    HQ_ASSIGN_OR_RETURN(result, ref->engine->Execute(s));
  }
  Expect e;
  e.rowset = result.is_rowset();
  if (!e.rowset) {
    e.affected = result.affected_rows;
    return e;
  }
  result.EnsureRows();
  e.rows = static_cast<int64_t>(result.rows.size());
  for (const auto& row : result.rows) e.checksum += RowHash(row);
  return e;
}

bool IsDml(const std::string& sql) {
  for (const char* kw : {"INS ", "INSERT ", "UPD ", "UPDATE ", "DEL ",
                         "DELETE ", "MERGE "}) {
    if (sql.rfind(kw, 0) == 0) return true;
  }
  return false;
}

// --- tpch_serial / tpch_rw4 ------------------------------------------------

Result<std::vector<Expect>> TpchReferences(Fixture* ref) {
  std::vector<Expect> out;
  const auto& queries = hyperq::workload::TpchQueries();
  for (size_t q = 0; q < queries.size(); ++q) {
    auto e = ReferenceAnswer(ref, queries[q]);
    if (!e.ok()) {
      return Status::InvalidArgument("Q" + std::to_string(q + 1) +
                                     " reference: " + e.status().ToString());
    }
    out.push_back(*e);
  }
  return out;
}

Stmt TpchStmt(int q, const std::vector<Expect>& refs) {
  Stmt s;
  s.sql = hyperq::workload::TpchQueries()[q];
  s.expect = refs[q];
  return s;
}

/// `cycles` seeded permutations of `queries`, one unit each.
SessionScript TpchReader(const std::vector<int>& queries,
                         const std::vector<Expect>& refs, Rng* rng,
                         int cycles) {
  SessionScript script;
  script.unit = queries.size();
  script.warmup = queries.size();
  for (int c = 0; c < cycles; ++c) {
    std::vector<int> order = queries;
    rng->Shuffle(&order);
    for (int q : order) script.stmts.push_back(TpchStmt(q, refs));
  }
  return script;
}

Result<Workload> BuildTpchSerial(uint64_t seed, Fixture* ref) {
  HQ_ASSIGN_OR_RETURN(std::vector<Expect> refs, TpchReferences(ref));
  Rng rng(seed);
  std::vector<int> all(22);
  for (int q = 0; q < 22; ++q) all[q] = q;
  Workload w;
  w.sessions.push_back(TpchReader(all, refs, &rng, 16));
  return w;
}

/// The writer's churn on ORDERS_STG: copy a block of ORDERS in, touch it,
/// delete it again, so the staging table returns to its base size after
/// every unit.
constexpr int64_t kChurnBlock = 100;

}  // namespace

SessionScript ChurnWriter(uint64_t seed) {
  Rng rng(seed);
  auto orders = hyperq::workload::CardinalitiesFor(kTpchScale).orders;
  SessionScript writer;
  writer.unit = 3;
  writer.warmup = 3;
  for (int c = 0; c < 64; ++c) {
    int64_t lo = rng.Uniform(kStagingBaseOrders + 1, orders - kChurnBlock + 1);
    std::string range = " BETWEEN " + std::to_string(lo) + " AND " +
                        std::to_string(lo + kChurnBlock - 1);
    Stmt ins, upd, del;
    ins.sql = "INSERT INTO ORDERS_STG SELECT * FROM ORDERS WHERE O_ORDERKEY" +
              range;
    ins.ledger_sign = 1;
    upd.sql = "UPD ORDERS_STG SET O_TOTALPRICE = O_TOTALPRICE + 1, "
              "O_COMMENT = 'churn " + std::to_string(c) +
              "' WHERE O_ORDERKEY" + range;
    del.sql = "DEL FROM ORDERS_STG WHERE O_ORDERKEY" + range;
    del.ledger_sign = -1;
    for (Stmt* s : {&ins, &upd, &del}) {
      s->write = true;
      s->expect.rowset = false;
      s->expect.affected = kChurnBlock;  // O_ORDERKEY is dense 1..orders
      s->ledger_table = "ORDERS_STG";
      writer.stmts.push_back(*s);
    }
  }
  return writer;
}

namespace {

Result<Workload> BuildTpchRw4(uint64_t seed, Fixture* ref) {
  HQ_ASSIGN_OR_RETURN(std::vector<Expect> refs, TpchReferences(ref));
  Rng rng(seed);
  Workload w;
  for (int r = 0; r < 3; ++r) {
    w.sessions.push_back(TpchReader(ReadMixQueries(), refs, &rng, 16));
  }
  SessionScript writer = ChurnWriter(Mix(seed));
  w.sessions.push_back(std::move(writer));
  w.ledgers.push_back({"ORDERS_STG", kStagingBaseOrders});
  // Readers never touch the staging table, so their answers are fixed.
  HQ_ASSIGN_OR_RETURN(int64_t orders_now,
                      CountRows(ref->engine.get(), "ORDERS"));
  w.ledgers.push_back({"ORDERS", orders_now});
  return w;
}

// --- replay_health ----------------------------------------------------------

/// The replayed INS statements add one T_CLAIM row each; this statement,
/// issued by the same session right after, removes it again (no seeded
/// claim is dated 2014-01-02), so T_CLAIM stays at its base size.
const char* kClaimCompensation =
    "DEL FROM T_CLAIM WHERE CLAIM_DATE = DATE '2014-01-02'";

Result<Workload> BuildReplayHealth(uint64_t seed, Fixture* ref) {
  auto population = HealthPopulation();
  std::vector<Stmt> distinct;
  int64_t total = 0;
  for (size_t i = 0; i < population.size(); ++i) {
    Stmt s;
    s.sql = population[i].sql;
    hyperq::FeatureSet fs;
    auto sql_b = ref->service->Translate(s.sql, &fs);
    if (!sql_b.ok()) {
      return Status::InvalidArgument("replay statement does not translate: " +
                                     s.sql + ": " + sql_b.status().ToString());
    }
    s.emulated = fs.HasClass(hyperq::RewriteClass::kEmulation);
    s.write = IsDml(s.sql);
    s.expect.rowset = !s.write;
    if (s.sql.rfind("INS INTO T_CLAIM", 0) == 0) {
      s.expect.affected = 1;
      s.ledger_sign = 1;
      s.ledger_table = "T_CLAIM";
    }
    distinct.push_back(std::move(s));
    total += population[i].replay_count;
  }
  Stmt comp;
  comp.sql = kClaimCompensation;
  comp.write = true;
  comp.expect.rowset = false;
  comp.ledger_sign = -1;
  comp.ledger_table = "T_CLAIM";

  std::vector<int> replay;
  for (size_t i = 0; i < population.size(); ++i) {
    for (int64_t k = 0; k < population[i].replay_count; ++k) {
      replay.push_back(static_cast<int>(i));
    }
  }
  Rng rng(seed);
  rng.Shuffle(&replay);

  Workload w;
  w.repeat_share = 1.0 - static_cast<double>(population.size()) / total;
  w.sessions.resize(2);
  auto append = [&](SessionScript* s, int idx) {
    s->stmts.push_back(distinct[idx]);
    if (distinct[idx].ledger_sign > 0) s->stmts.push_back(comp);
  };
  // Warm-up: every distinct statement once, so the translation cache holds
  // every template before timing starts.
  for (size_t i = 0; i < distinct.size(); ++i) {
    append(&w.sessions[i % 2], static_cast<int>(i));
  }
  for (auto& s : w.sessions) s.warmup = s.stmts.size();
  for (size_t i = 0; i < replay.size(); ++i) {
    append(&w.sessions[i % 2], replay[i]);
  }
  w.ledgers.push_back({"T_CLAIM", kHealthClaims});
  w.ledgers.push_back({"T_PAT", kHealthPatients});
  return w;
}

// --- bulk_extract -----------------------------------------------------------

struct Projection {
  const char* table;
  const char* key;
  const char* columns;
};

// Mixed types: integers, decimals, dates, fixed and variable strings.
const Projection kProjections[] = {
    {"LINEITEM", "L_ORDERKEY", "*"},
    {"LINEITEM", "L_ORDERKEY",
     "L_ORDERKEY, L_LINENUMBER, L_QUANTITY, L_EXTENDEDPRICE, L_DISCOUNT, "
     "L_SHIPDATE"},
    {"LINEITEM", "L_ORDERKEY",
     "L_ORDERKEY, L_SHIPINSTRUCT, L_SHIPMODE, L_RECEIPTDATE, L_COMMENT"},
    {"ORDERS", "O_ORDERKEY", "*"},
    {"ORDERS", "O_ORDERKEY",
     "O_ORDERKEY, O_CUSTKEY, O_TOTALPRICE, O_ORDERDATE, O_ORDERPRIORITY"},
};

// Order-key widths of the ranges. LINEITEM has ~4 lines per order, so the
// LINEITEM ladder returns ~1k to ~60k rows and the ORDERS ladder 1k to 15k.
const int64_t kLineitemWidths[] = {250, 500, 1000, 2000, 4000, 8000, 15000};
const int64_t kOrdersWidths[] = {1000, 2000, 4000, 8000, 15000};

Result<Workload> BuildBulkExtract(uint64_t seed, Fixture* ref) {
  // Two variants of the ladder with different seeded ranges; every unit
  // holds every (projection, width) pair once, in a seeded order.
  std::vector<std::vector<Stmt>> variants;
  for (uint64_t v : {seed, Mix(seed)}) {
    std::vector<Stmt> variant;
    for (const std::string& sql : BulkLadderSql(v)) {
      Stmt s;
      s.sql = sql;
      HQ_ASSIGN_OR_RETURN(s.expect, ReferenceAnswer(ref, s.sql));
      variant.push_back(std::move(s));
    }
    variants.push_back(std::move(variant));
  }
  Rng rng(seed);
  SessionScript script;
  script.unit = variants[0].size();
  script.warmup = script.unit;
  for (int c = 0; c < 16; ++c) {
    std::vector<Stmt> unit = variants[c % 2];
    rng.Shuffle(&unit);
    for (auto& s : unit) script.stmts.push_back(std::move(s));
  }
  Workload w;
  w.sessions.push_back(std::move(script));
  return w;
}

}  // namespace

std::vector<std::string> BulkLadderSql(uint64_t seed) {
  Rng rng(seed);
  int64_t orders = hyperq::workload::CardinalitiesFor(kTpchScale).orders;
  std::vector<std::string> out;
  for (const Projection& proj : kProjections) {
    bool lineitem = std::string(proj.table) == "LINEITEM";
    std::vector<int64_t> widths =
        lineitem ? std::vector<int64_t>(std::begin(kLineitemWidths),
                                        std::end(kLineitemWidths))
                 : std::vector<int64_t>(std::begin(kOrdersWidths),
                                        std::end(kOrdersWidths));
    for (int64_t width : widths) {
      int64_t lo = rng.Uniform(1, orders - width + 1);
      out.push_back(std::string("SEL ") + proj.columns + " FROM " +
                    proj.table + " WHERE " + proj.key + " BETWEEN " +
                    std::to_string(lo) + " AND " +
                    std::to_string(lo + width - 1));
    }
  }
  return out;
}

std::vector<hyperq::workload::WorkloadQuery> HealthPopulation() {
  return hyperq::workload::SynthesizeWorkload(
      hyperq::workload::CustomerProfile::Customer1Health());
}

const std::vector<int>& ReadMixQueries() {
  static const std::vector<int> kMix = {0, 2, 3, 4, 5, 9, 11, 13, 18, 21};
  return kMix;
}

uint64_t RowHash(const std::vector<Datum>& row) {
  uint64_t h = 0x243f6a8885a308d3ULL;
  for (const Datum& d : row) h = Mix(h ^ d.Hash());
  return h;
}

std::string CheckAnswer(const Expect& want,
                        const hyperq::protocol::ClientResult& got) {
  bool rowset = !got.columns.empty();
  if (rowset != want.rowset) {
    return std::string("expected a ") + (want.rowset ? "rowset" : "command") +
           " result";
  }
  if (!rowset) {
    if (want.affected >= 0 &&
        static_cast<int64_t>(got.activity_count) != want.affected) {
      return "activity count " + std::to_string(got.activity_count) +
             ", expected " + std::to_string(want.affected);
    }
    return "";
  }
  if (want.rows < 0) return "";
  if (static_cast<int64_t>(got.rows.size()) != want.rows) {
    return "rows " + std::to_string(got.rows.size()) + ", expected " +
           std::to_string(want.rows);
  }
  uint64_t sum = 0;
  for (const auto& row : got.rows) sum += RowHash(row);
  if (sum != want.checksum) return "row checksum differs from reference";
  return "";
}

std::unique_ptr<Fixture> NewFixture(hyperq::service::ServiceOptions options) {
  auto fx = std::make_unique<Fixture>();
  fx->engine = std::make_unique<hyperq::vdb::Engine>();
  fx->service = std::make_unique<hyperq::service::HyperQService>(
      fx->engine.get(), std::move(options));
  auto sid = fx->service->OpenSession("perfbench");
  if (!sid.ok()) return nullptr;
  fx->admin_session = *sid;
  return fx;
}

Status LoadTpchData(Fixture* fx) {
  if (fx->has_tpch) return Status::OK();
  HQ_RETURN_IF_ERROR(hyperq::workload::LoadTpch(
      fx->service.get(), fx->admin_session, fx->engine.get(),
      {kTpchScale, 19620718}));
  fx->has_tpch = true;
  return Status::OK();
}

Status CreateStaging(Fixture* fx) {
  if (fx->has_staging) return Status::OK();
  HQ_RETURN_IF_ERROR(LoadTpchData(fx));
  for (const std::string& ddl : hyperq::workload::TpchSchemaSqlA()) {
    if (ddl.rfind("CREATE TABLE ORDERS ", 0) == 0) {
      HQ_RETURN_IF_ERROR(
          Submit(fx, Replace(ddl, "TABLE ORDERS ", "TABLE ORDERS_STG ")));
    }
  }
  HQ_RETURN_IF_ERROR(Submit(
      fx, "INSERT INTO ORDERS_STG SELECT * FROM ORDERS WHERE O_ORDERKEY <= " +
              std::to_string(kStagingBaseOrders)));
  fx->has_staging = true;
  return Status::OK();
}

Status LoadHealthData(Fixture* fx) {
  if (fx->has_health) return Status::OK();
  HQ_RETURN_IF_ERROR(hyperq::workload::SetUpCustomerSchema(
      fx->service.get(), fx->admin_session));
  // Bulk load straight into the target's storage, as LoadTpch does.
  Rng rng(20180610);
  auto* storage = fx->engine->storage();
  int32_t day0 = hyperq::DaysFromCivil(2014, 1, 1);
  int32_t claim_day0 = hyperq::DaysFromCivil(2015, 1, 1);
  HQ_ASSIGN_OR_RETURN(hyperq::vdb::Table * pat, storage->GetTable("T_PAT"));
  for (int64_t id = 1; id <= kHealthPatients; ++id) {
    std::string name = (id % 2 ? "Case" : "CASE") + std::to_string(id);
    pat->rows.push_back({Datum::Int(id), Datum::String(name),
                         Datum::Int(rng.Uniform(0, 999)),
                         Datum::Date(day0 + static_cast<int32_t>(
                                                rng.Uniform(0, 700))),
                         Datum::Int(rng.Uniform(0, 49))});
  }
  ++pat->version;
  HQ_ASSIGN_OR_RETURN(hyperq::vdb::Table * claim, storage->GetTable("T_CLAIM"));
  for (int64_t id = 1; id <= kHealthClaims; ++id) {
    int64_t cents = rng.Uniform(0, 99999);
    claim->rows.push_back(
        {Datum::Int(id), Datum::Int(rng.Uniform(1, kHealthPatients)),
         Datum::MakeDecimal(hyperq::Decimal{cents, 2}),
         Datum::MakeDecimal(hyperq::Decimal{cents * 9 / 10, 2}),
         Datum::Date(claim_day0 + static_cast<int32_t>(rng.Uniform(0, 700)))});
  }
  ++claim->version;
  fx->has_health = true;
  return Status::OK();
}

Result<std::unique_ptr<Fixture>> SetUpFor(const std::string& workload) {
  auto fx = NewFixture();
  if (fx == nullptr) return Status::InvalidArgument("cannot open a session");
  if (workload == "replay_health") {
    HQ_RETURN_IF_ERROR(LoadHealthData(fx.get()));
  } else {
    HQ_RETURN_IF_ERROR(LoadTpchData(fx.get()));
    if (workload == "tpch_rw4") HQ_RETURN_IF_ERROR(CreateStaging(fx.get()));
  }
  return fx;
}

Result<int64_t> CountRows(hyperq::vdb::Engine* engine,
                          const std::string& table) {
  HQ_ASSIGN_OR_RETURN(auto result,
                      engine->Execute("SELECT COUNT(*) FROM " + table));
  result.EnsureRows();
  if (result.rows.size() != 1 || result.rows[0].size() != 1) {
    return Status::InvalidArgument("COUNT(*) returned no single value");
  }
  return result.rows[0][0].AsInt();
}

Result<Workload> BuildWorkload(const std::string& name, uint64_t seed,
                               Fixture* reference) {
  Result<Workload> w = Status::InvalidArgument("unknown workload: " + name);
  if (name == "tpch_serial") w = BuildTpchSerial(seed, reference);
  if (name == "tpch_rw4") w = BuildTpchRw4(seed, reference);
  if (name == "replay_health") w = BuildReplayHealth(seed, reference);
  if (name == "bulk_extract") w = BuildBulkExtract(seed, reference);
  return w;
}

}  // namespace perfbench
