// Ablation: the result data pipeline (paper §4.5/§4.6).
//
// Sweeps result-set sizes through TDF packaging (ODBC-Server analog) and
// the Result Converter, in both buffered-in-memory and spill-to-disk
// regimes, and across converter parallelism — the design choices DESIGN.md
// calls out for the Result Store / Result Converter components. Both run on
// the result plane the service uses: executor chunks canonicalized once,
// held in the ResultStore as batch spans (TDF2 only when spilled), and
// encoded to the wire straight from the column vectors.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "backend/connector.h"
#include "backend/result_store.h"
#include "backend/tdf.h"
#include "convert/result_converter.h"
#include "protocol/tdwp.h"
#include "vdb/column_batch.h"

using namespace hyperq;

namespace {

/// Rows per executor chunk (the connector's default span size divides it).
constexpr size_t kChunkRows = 2048;

struct ChunkedResult {
  std::vector<backend::TdfColumn> columns;
  std::vector<std::shared_ptr<const vdb::ColumnBatch>> chunks;
};

// A 4-column result as the executor hands it over: typed chunks. Building
// them is not part of the pipeline under test.
ChunkedResult MakeResult(int64_t rows) {
  ChunkedResult result;
  result.columns = {{"ID", SqlType::Int()},
                    {"NAME", SqlType::Varchar(32)},
                    {"AMOUNT", SqlType::Decimal(12, 2)},
                    {"WHEN_D", SqlType::Date()}};
  std::vector<SqlType> types;
  for (const auto& col : result.columns) types.push_back(col.type);
  for (int64_t begin = 0; begin < rows;
       begin += static_cast<int64_t>(kChunkRows)) {
    int64_t end = std::min(rows, begin + static_cast<int64_t>(kChunkRows));
    vdb::BatchBuilder builder(types);
    for (int64_t i = begin; i < end; ++i) {
      Status st = builder.AppendRow(
          {Datum::Int(i), Datum::String("row_" + std::to_string(i % 997)),
           Datum::MakeDecimal(Decimal{i * 37, 2}),
           Datum::Date(static_cast<int32_t>(8000 + i % 365))});
      if (!st.ok()) std::abort();
    }
    result.chunks.push_back(builder.Finish());
  }
  return result;
}

// The BackendConnector's packaging step: canonicalize each chunk once, then
// append spans of `batch_rows` rows to the store.
Result<backend::BackendResult> Package(const ChunkedResult& result,
                                       const backend::ConnectorOptions& opts) {
  backend::BackendResult out;
  out.columns = result.columns;
  out.store = std::make_shared<backend::ResultStore>(opts.store_memory_budget,
                                                     opts.spill_dir);
  out.store->set_schema(out.columns);
  for (const auto& chunk : result.chunks) {
    HQ_ASSIGN_OR_RETURN(std::shared_ptr<const vdb::ColumnBatch> canon,
                        backend::CanonicalizeBatch(out.columns, chunk));
    for (size_t i = 0; i < canon->rows; i += opts.batch_rows) {
      size_t n = std::min(opts.batch_rows, canon->rows - i);
      HQ_RETURN_IF_ERROR(out.store->AppendBatch(canon, i, n));
    }
  }
  return out;
}

// TDF packaging: chunks -> spans in the ResultStore, optionally spilling
// (memory budget = 64KiB forces spill for larger results).
void BM_TdfPackage(benchmark::State& state) {
  int64_t rows = state.range(0);
  bool spill = state.range(1) != 0;
  ChunkedResult result = MakeResult(rows);
  backend::ConnectorOptions opts;
  opts.store_memory_budget = spill ? (64 << 10) : (256 << 20);
  int64_t spilled = 0;
  for (auto _ : state) {
    auto packaged = Package(result, opts);
    if (!packaged.ok()) {
      state.SkipWithError(packaged.status().ToString().c_str());
      return;
    }
    spilled = static_cast<int64_t>(packaged->store->spilled_batches());
    benchmark::DoNotOptimize(packaged);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["spilled_batches"] = static_cast<double>(spilled);
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_TdfPackage)
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({20000, 0})
    ->Args({20000, 1})
    ->Args({100000, 0})
    ->Args({100000, 1});

// Result conversion: store spans -> frontend binary records across
// parallelism.
void BM_ResultConvert(benchmark::State& state) {
  int64_t rows = state.range(0);
  auto packaged = Package(MakeResult(rows), backend::ConnectorOptions{});
  if (!packaged.ok()) {
    state.SkipWithError(packaged.status().ToString().c_str());
    return;
  }
  convert::ConverterOptions conv_opts;
  conv_opts.parallelism = static_cast<int>(state.range(1));
  convert::ResultConverter converter(conv_opts);
  for (auto _ : state) {
    auto converted = converter.Convert(*packaged);
    if (!converted.ok()) {
      state.SkipWithError(converted.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(converted);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_ResultConvert)
    ->Args({20000, 1})
    ->Args({20000, 2})
    ->Args({20000, 4})
    ->Args({100000, 1})
    ->Args({100000, 4});

// Round trip including the client-side decode (bit-identical check path).
void BM_RecordRoundTrip(benchmark::State& state) {
  std::vector<protocol::WireColumn> schema;
  auto c1 = protocol::ToWireColumn("ID", SqlType::Int());
  auto c2 = protocol::ToWireColumn("D", SqlType::Date());
  auto c3 = protocol::ToWireColumn("S", SqlType::Varchar(32));
  if (!c1.ok() || !c2.ok() || !c3.ok()) {
    state.SkipWithError("schema");
    return;
  }
  schema = {*c1, *c2, *c3};
  std::vector<Datum> row = {Datum::Int(42), Datum::Date(16071),
                            Datum::String("hello world")};
  for (auto _ : state) {
    BufferWriter w;
    if (!protocol::EncodeRecord(schema, row, &w).ok()) {
      state.SkipWithError("encode");
      return;
    }
    BufferReader r(w.data(), w.size());
    auto decoded = protocol::DecodeRecord(schema, &r);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordRoundTrip);

}  // namespace

BENCHMARK_MAIN();
