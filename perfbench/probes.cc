// Per-layer probes of the traced run. Each times calls into one module's
// public functions from outside the program:
//   - over the workload's own statements: sql, binder, transform,
//     serializer and the service's Translate (hit and cold);
//   - over fixed inputs that are the same on every workload: vdb (TPC-H
//     SQL-B, the tpch_rw4 read mix and writer), backend and convert (one
//     bulk_extract ladder), emulation (the Health population's emulated
//     statements).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>
#include <thread>

#include "bench.h"
#include "binder/binder.h"
#include "common/features.h"
#include "common/stopwatch.h"
#include "convert/result_converter.h"
#include "report.h"
#include "serializer/serializer.h"
#include "sql/normalizer.h"
#include "sql/parser.h"
#include "transform/transformer.h"
#include "workload/customer.h"
#include "workload/tpch.h"

namespace perfbench {

using hyperq::Result;
using hyperq::Status;
using hyperq::Stopwatch;

namespace {

constexpr int kRounds = 3;             // repetitions of every timed call
constexpr size_t kMaxTranslate = 300;  // statements of the translation probes

/// The workload's distinct statements, thinned evenly to at most `cap`.
std::vector<std::string> DistinctSql(const Workload& w, size_t cap) {
  std::set<std::string> seen;
  std::vector<std::string> all;
  for (const auto& session : w.sessions) {
    for (const auto& s : session.stmts) {
      if (seen.insert(s.sql).second) all.push_back(s.sql);
    }
  }
  if (all.size() <= cap) return all;
  std::vector<std::string> out;
  for (size_t i = 0; i < cap; ++i) out.push_back(all[i * all.size() / cap]);
  return out;
}

/// sql, binder, transform and serializer stages, driven the way the
/// service's pipeline drives them.
void ProbeTranslationStages(Fixture* fx, const std::vector<std::string>& sqls,
                            Metrics* m) {
  const auto dialect = hyperq::sql::Dialect::Teradata();
  const auto& profile = fx->service->profile();
  hyperq::transform::Transformer transformer(profile);
  hyperq::serializer::Serializer serializer(profile);
  std::vector<double> norm, parse, bind, transform, serialize;
  for (const std::string& sql : sqls) {
    for (int r = 0; r < kRounds; ++r) {
      Stopwatch sw;
      if (!hyperq::sql::NormalizeStatement(sql).ok()) break;
      norm.push_back(sw.ElapsedMicros());
      sw.Restart();
      auto stmt = hyperq::sql::ParseStatement(sql, dialect);
      if (!stmt.ok()) break;
      parse.push_back(sw.ElapsedMicros());
      auto kind = (*stmt)->kind;
      using hyperq::sql::StmtKind;
      if (kind != StmtKind::kSelect && kind != StmtKind::kInsert &&
          kind != StmtKind::kUpdate && kind != StmtKind::kDelete) {
        break;
      }
      hyperq::binder::Binder binder(fx->service->catalog(), dialect);
      sw.Restart();
      auto plan = binder.BindStatement(**stmt);
      if (!plan.ok()) break;
      bind.push_back(sw.ElapsedMicros());
      hyperq::FeatureSet fs = binder.features();
      hyperq::binder::ColIdGenerator ids;
      for (int i = 0; i < 1000000; ++i) ids.Next();  // as the service does
      hyperq::xtra::OpPtr op = std::move(*plan);
      sw.Restart();
      if (!transformer.Run(hyperq::transform::Stage::kBinding, &op, &ids, &fs,
                           fx->service->catalog()).ok() ||
          !transformer.Run(hyperq::transform::Stage::kSerialization, &op, &ids,
                           &fs, fx->service->catalog()).ok()) {
        break;
      }
      transform.push_back(sw.ElapsedMicros());
      if (op->kind == hyperq::xtra::OpKind::kRecursiveCte) break;
      sw.Restart();
      if (!serializer.Serialize(*op).ok()) break;
      serialize.push_back(sw.ElapsedMicros());
    }
  }
  m->Add("sql.normalize_us.p50", Quantile(norm, 0.5), "us", norm.size());
  m->Add("sql.parse_us.p50", Quantile(parse, 0.5), "us", parse.size());
  m->Add("binder.bind_us.p50", Quantile(bind, 0.5), "us", bind.size());
  m->Add("transform.run_us.p50", Quantile(transform, 0.5), "us",
         transform.size());
  m->Add("serializer.serialize_us.p50", Quantile(serialize, 0.5), "us",
         serialize.size());
}

/// HyperQService::Translate on the warm service (cache hits) and on a
/// service with the cache off (every call runs the whole pipeline).
Status ProbeTranslate(Fixture* fx, const std::vector<std::string>& sqls,
                      Metrics* m) {
  hyperq::service::ServiceOptions off;
  off.translation_cache.enabled = false;
  auto cold = NewFixture(off);
  if (cold == nullptr) return Status::Internal("cold fixture");
  HQ_RETURN_IF_ERROR(LoadTpchData(cold.get()));
  HQ_RETURN_IF_ERROR(CreateStaging(cold.get()));
  HQ_RETURN_IF_ERROR(LoadHealthData(cold.get()));
  std::vector<double> hit, miss;
  for (const std::string& sql : sqls) {
    if (!fx->service->Translate(sql, nullptr).ok()) continue;  // seeds
    for (int r = 0; r < kRounds; ++r) {
      Stopwatch sw;
      if (!fx->service->Translate(sql, nullptr).ok()) break;
      hit.push_back(sw.ElapsedMicros());
      sw.Restart();
      if (!cold->service->Translate(sql, nullptr).ok()) break;
      miss.push_back(sw.ElapsedMicros());
    }
  }
  m->Add("service.translate_us.hit.p50", Quantile(hit, 0.5), "us", hit.size());
  m->Add("service.translate_us.cold.p50", Quantile(miss, 0.5), "us",
         miss.size());
  return Status::OK();
}

Result<std::string> SingleSqlB(Fixture* fx, const std::string& sql_a) {
  HQ_ASSIGN_OR_RETURN(auto sql_b, fx->service->Translate(sql_a, nullptr));
  if (sql_b.size() != 1) {
    return Status::NotSupported("not one SQL-B statement: " + sql_a);
  }
  return sql_b[0];
}

Status ProbeVdb(Fixture* fx, uint64_t seed, Metrics* m) {
  auto* engine = fx->engine.get();
  const auto& queries = hyperq::workload::TpchQueries();
  std::vector<std::string> tpch_b;
  for (const auto& q : queries) {
    HQ_ASSIGN_OR_RETURN(std::string b, SingleSqlB(fx, q));
    tpch_b.push_back(b);
  }
  std::vector<std::vector<double>> ms(queries.size());
  for (int r = 0; r < kRounds; ++r) {
    for (size_t q = 0; q < queries.size(); ++q) {
      Stopwatch sw;
      HQ_RETURN_IF_ERROR(engine->Execute(tpch_b[q]).status());
      ms[q].push_back(sw.ElapsedMillis());
    }
  }
  double sum = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    char name[48];
    std::snprintf(name, sizeof(name), "vdb.execute_ms.q%02zu", q + 1);
    double med = Quantile(ms[q], 0.5);
    sum += med;
    m->Add(name, med, "ms", ms[q].size());
  }
  m->Add("vdb.execute_ms.sum", sum, "ms", queries.size());

  // Engine::Execute throughput from 4 threads over 1 thread, read mix.
  std::vector<std::string> mix;
  for (int q : ReadMixQueries()) mix.push_back(tpch_b[q]);
  std::atomic<bool> mix_ok{true};
  auto throughput = [&](int threads) -> double {
    constexpr double kSeconds = 1.5;
    std::atomic<int64_t> done{0};
    Stopwatch wall;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        // Whole passes over the mix, each thread from its own offset.
        while (wall.ElapsedSeconds() < kSeconds) {
          for (size_t i = 0; i < mix.size(); ++i) {
            if (!engine->Execute(mix[(i + t * 3) % mix.size()]).ok()) {
              mix_ok = false;
            }
            ++done;
          }
        }
      });
    }
    for (auto& th : pool) th.join();
    return done.load() / wall.ElapsedSeconds();
  };
  // ABBA order, so a drift in machine speed cancels out of the ratio.
  double one = throughput(1), four = throughput(4);
  four += throughput(4);
  one += throughput(1);
  if (!mix_ok) return Status::ExecutionError("read mix failed");
  m->Add("vdb.scaling_4t", four / one, "ratio", 4);

  // The tpch_rw4 writer's statements, SQL-B straight on the engine.
  std::vector<double> write_ms;
  int units = 0;
  for (const auto& s : ChurnWriter(seed).stmts) {
    HQ_ASSIGN_OR_RETURN(std::string b, SingleSqlB(fx, s.sql));
    Stopwatch sw;
    HQ_ASSIGN_OR_RETURN(auto r, engine->Execute(b));
    write_ms.push_back(sw.ElapsedMillis());
    if (r.affected_rows != s.expect.affected) {
      return Status::ExecutionError("writer probe: wrong activity count");
    }
    if (s.ledger_sign < 0 && ++units == 20) break;
  }
  m->Add("vdb.write_ms.p50", Quantile(write_ms, 0.5), "ms", write_ms.size());
  return Status::OK();
}

/// BackendConnector::Execute and ResultConverter::Convert over one ladder.
Status ProbeBackendConvert(Fixture* fx, uint64_t seed, Metrics* m) {
  auto* engine = fx->engine.get();
  hyperq::backend::BackendConnector connector(engine);
  hyperq::convert::ConverterOptions conv_opts;
  conv_opts.parallelism = hyperq::service::ServiceOptions().convert_parallelism;
  hyperq::convert::ResultConverter converter(conv_opts);
  double package_us = 0, convert_us = 0, tdf_bytes = 0, wire_bytes = 0;
  int64_t rows = 0, attempts = 0, useful = 0;
  for (const std::string& sql_a : BulkLadderSql(seed)) {
    HQ_ASSIGN_OR_RETURN(std::string b, SingleSqlB(fx, sql_a));
    double best_engine = 1e300, best_connector = 1e300, best_convert = 1e300;
    for (int r = 0; r < kRounds; ++r) {
      Stopwatch sw;
      HQ_RETURN_IF_ERROR(engine->Execute(b).status());
      best_engine = std::min(best_engine, sw.ElapsedMicros());
      sw.Restart();
      auto result = connector.Execute(b);
      best_connector = std::min(best_connector, sw.ElapsedMicros());
      if (!result.ok()) return result.status();
      ++useful;
      attempts += result->attempts;
      sw.Restart();
      HQ_ASSIGN_OR_RETURN(auto converted, converter.Convert(*result));
      best_convert = std::min(best_convert, sw.ElapsedMicros());
      if (r == 0) {
        rows += result->store->total_rows();
        tdf_bytes += static_cast<double>(result->store->memory_bytes() +
                                         result->store->spilled_bytes());
        for (const auto& batch : converted.batches) wire_bytes += batch.size();
      }
    }
    package_us += best_connector - best_engine;
    convert_us += best_convert;
  }
  double krows = rows / 1000.0;
  m->Add("backend.package_us_per_krow", package_us / krows, "us", rows);
  m->Add("backend.tdf_bytes_per_row", tdf_bytes / rows, "B", rows);
  m->Add("backend.attempts_per_query",
         static_cast<double>(useful) / static_cast<double>(attempts), "ratio",
         attempts);
  m->Add("convert.us_per_krow", convert_us / krows, "us", rows);
  m->Add("convert.wire_bytes_per_row", wire_bytes / rows, "B", rows);
  return Status::OK();
}

/// Library Submit of the Health population's emulated statements; the
/// engine's statement counter gives the backend statements each issues.
Status ProbeEmulation(Fixture* fx, Metrics* m) {
  auto population = HealthPopulation();
  std::vector<double> submit_us;
  int64_t queries = 0, backend_stmts = 0;
  for (const auto& q : population) {
    hyperq::FeatureSet fs;
    if (!fx->service->Translate(q.sql, &fs).ok() ||
        !fs.HasClass(hyperq::RewriteClass::kEmulation)) {
      continue;
    }
    for (int r = 0; r < kRounds; ++r) {
      int64_t before = fx->engine->statements_executed();
      Stopwatch sw;
      HQ_RETURN_IF_ERROR(
          fx->service->Submit(fx->admin_session, q.sql).status());
      submit_us.push_back(sw.ElapsedMicros());
      backend_stmts += fx->engine->statements_executed() - before;
      ++queries;
    }
  }
  m->Add("emulation.submit_us.p50", Quantile(submit_us, 0.5), "us",
         submit_us.size());
  m->Add("emulation.backend_stmts_per_query",
         queries ? static_cast<double>(backend_stmts) / queries : 0, "count",
         queries);
  return Status::OK();
}

}  // namespace

Status RunProbes(Fixture* fx, const Workload& w, uint64_t seed, Metrics* m) {
  // The fixed probes need every data set in the live fixture.
  HQ_RETURN_IF_ERROR(LoadTpchData(fx));
  HQ_RETURN_IF_ERROR(CreateStaging(fx));
  HQ_RETURN_IF_ERROR(LoadHealthData(fx));
  auto sqls = DistinctSql(w, kMaxTranslate);
  ProbeTranslationStages(fx, sqls, m);
  HQ_RETURN_IF_ERROR(ProbeTranslate(fx, sqls, m));
  HQ_RETURN_IF_ERROR(ProbeVdb(fx, seed, m));
  HQ_RETURN_IF_ERROR(ProbeBackendConvert(fx, seed, m));
  HQ_RETURN_IF_ERROR(ProbeEmulation(fx, m));
  return Status::OK();
}

}  // namespace perfbench
