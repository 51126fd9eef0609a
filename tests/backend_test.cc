// TDF codec, ResultStore spill behaviour, and the backend connector.

#include <gtest/gtest.h>

#include "backend/connector.h"
#include "backend/result_store.h"
#include "backend/tdf.h"
#include "common/buffer.h"
#include "vdb/column_batch.h"
#include "vdb/engine.h"

namespace hyperq::backend {
namespace {

std::vector<SqlType> Types(const std::vector<TdfColumn>& schema) {
  std::vector<SqlType> types;
  for (const auto& c : schema) types.push_back(c.type);
  return types;
}

// Encodes `rows` as one canonical TDF2 frame, the form a spill file holds.
std::vector<uint8_t> EncodeRows(const std::vector<TdfColumn>& schema,
                                const std::vector<vdb::Row>& rows) {
  vdb::BatchBuilder builder(Types(schema));
  for (const auto& row : rows) EXPECT_TRUE(builder.AppendRow(row).ok());
  auto canon = CanonicalizeBatch(schema, builder.Finish());
  EXPECT_TRUE(canon.ok()) << canon.status();
  return EncodeTdfBatch(schema, **canon, 0, (*canon)->rows);
}

TEST(TdfTest, RoundTripAllKinds) {
  std::vector<TdfColumn> schema = {
      {"I", SqlType::Int()},          {"D", SqlType::Decimal(10, 2)},
      {"F", SqlType::Double()},       {"S", SqlType::Varchar(20)},
      {"DT", SqlType::Date()},        {"TS", SqlType::Timestamp()},
      {"B", SqlType::Bool()},         {"P", SqlType::PeriodDate()},
  };
  std::vector<Datum> row1 = {
      Datum::Int(42),         Datum::MakeDecimal(Decimal{1250, 2}),
      Datum::MakeDouble(2.5), Datum::String("hello"),
      Datum::Date(16071),     Datum::Timestamp(123456789),
      Datum::Bool(true),      Datum::Period(100, 200)};
  std::vector<Datum> row2(8, Datum::Null());
  auto bytes = EncodeRows(schema, {row1, row2});

  auto reader = TdfReader::Open(std::move(bytes));
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->schema().size(), 8u);
  EXPECT_EQ(reader->row_count(), 2u);
  auto batch = reader->ReadBatch();
  ASSERT_TRUE(batch.ok()) << batch.status();
  std::vector<vdb::Row> rows;
  vdb::AppendRowsFromBatch(**batch, 0, (*batch)->rows, &rows);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].int_val(), 42);
  EXPECT_EQ(rows[0][1].decimal_val().ToString(), "12.50");
  EXPECT_EQ(rows[0][3].string_val(), "hello");
  EXPECT_EQ(rows[0][7].period_val().end_days, 200);
  for (const auto& v : rows[1]) EXPECT_TRUE(v.is_null());
}

TEST(TdfTest, CoercesRuntimeKindToSchema) {
  // An integer datum in a DECIMAL column canonicalizes to a decimal.
  std::vector<TdfColumn> schema = {{"D", SqlType::Decimal(10, 2)}};
  vdb::BatchBuilder builder({SqlType::Int()});
  ASSERT_TRUE(builder.AppendRow({Datum::Int(3)}).ok());
  auto canon = CanonicalizeBatch(schema, builder.Finish());
  ASSERT_TRUE(canon.ok()) << canon.status();
  EXPECT_EQ((*canon)->columns[0]->kind, vdb::PhysKind::kDecimal);
  EXPECT_EQ((*canon)->RowAt(0)[0].decimal_val().ToString(), "3.00");
}

TEST(TdfTest, ArityMismatchRejected) {
  vdb::BatchBuilder builder({SqlType::Int(), SqlType::Int()});
  ASSERT_TRUE(builder.AppendRow({Datum::Int(1), Datum::Int(2)}).ok());
  EXPECT_FALSE(
      CanonicalizeBatch({{"A", SqlType::Int()}}, builder.Finish()).ok());
}

TEST(TdfTest, MalformedBytesRejected) {
  EXPECT_FALSE(TdfReader::Open({1, 2, 3, 4}).ok());
  std::vector<uint8_t> truncated = {0x54, 0x44, 0x46, 0x32, 0xFF, 0xFF};
  EXPECT_FALSE(TdfReader::Open(std::move(truncated)).ok());
}

TEST(TdfTest, RejectsTdf1Header) {
  // A well-formed header of the TDF1 row format (one INTEGER column, zero
  // rows) is refused by its magic alone.
  BufferWriter w;
  w.PutU32(0x31464454);  // "TDF1"
  w.PutU32(1);
  w.PutU8(static_cast<uint8_t>(TypeKind::kInt));
  w.PutI32(0);
  w.PutI32(0);
  w.PutI32(0);
  w.PutLenBytes("A");
  w.PutU32(0);
  auto reader = TdfReader::Open(w.Take());
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("bad TDF magic"),
            std::string::npos);
}

// A store of ten-row INTEGER spans whose values encode (span, row).
std::shared_ptr<const vdb::ColumnBatch> TenRowSpan(int span) {
  vdb::BatchBuilder builder({SqlType::Int()});
  for (int r = 0; r < 10; ++r) {
    EXPECT_TRUE(builder.AppendRow({Datum::Int(span * 100 + r)}).ok());
  }
  return builder.Finish();
}

std::vector<int64_t> SpanValues(const BatchSpan& span) {
  std::vector<int64_t> out;
  for (size_t r = 0; r < span.rows; ++r) {
    out.push_back(span.batch->RowAt(span.offset + r)[0].int_val());
  }
  return out;
}

TEST(ResultStoreTest, KeepsSmallResultsInMemory) {
  ResultStore store(1 << 20);
  store.set_schema({{"A", SqlType::Int()}});
  auto first = TenRowSpan(0);
  ASSERT_TRUE(store.AppendBatch(first, 0, 10).ok());
  ASSERT_TRUE(store.AppendBatch(TenRowSpan(1), 0, 10).ok());
  EXPECT_EQ(store.total_rows(), 20);
  EXPECT_EQ(store.spilled_batches(), 0u);
  int seen = 0;
  ASSERT_TRUE(store
                  .ScanSpans([&](const BatchSpan& span) {
                    EXPECT_EQ(span.rows, 10u);
                    // In memory the span shares the appended batch.
                    if (seen == 0) {
                      EXPECT_EQ(span.batch, first);
                    }
                    ++seen;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(seen, 2);
}

TEST(ResultStoreTest, SpillsPastBudgetAndReadsBack) {
  ResultStore store(/*memory_budget_bytes=*/256);
  store.set_schema({{"A", SqlType::Int()}});
  std::vector<std::vector<int64_t>> appended;
  for (int i = 0; i < 5; ++i) {
    auto batch = TenRowSpan(i);
    appended.push_back(SpanValues(BatchSpan{batch, 0, 10}));
    ASSERT_TRUE(store.AppendBatch(batch, 0, 10).ok());
  }
  EXPECT_GT(store.spilled_batches(), 0u);
  EXPECT_LE(store.memory_bytes(), 256u);
  // Scan preserves append order and exact values, spilled or not — twice.
  for (int pass = 0; pass < 2; ++pass) {
    size_t i = 0;
    ASSERT_TRUE(store
                    .ScanSpans([&](const BatchSpan& span) {
                      EXPECT_EQ(SpanValues(span), appended[i]);
                      ++i;
                      return Status::OK();
                    })
                    .ok());
    EXPECT_EQ(i, appended.size());
  }
  EXPECT_EQ(store.total_rows(), 50);
}

TEST(ConnectorTest, PackagesRowsetsIntoBatches) {
  vdb::Engine engine;
  ASSERT_TRUE(engine.ExecuteScript("CREATE TABLE t (a INTEGER)").ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine
                    .Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                             ")")
                    .ok());
  }
  ConnectorOptions opts;
  opts.batch_rows = 2;  // force multiple TDF batches
  BackendConnector connector(&engine, opts);
  auto result = connector.Execute("SELECT a FROM t ORDER BY a");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->is_rowset());
  EXPECT_EQ(result->store->total_rows(), 5);
  EXPECT_EQ(result->store->batch_count(), 3u);  // 2 + 2 + 1
  auto rows = result->DecodeRows();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 5u);
  EXPECT_EQ((*rows)[4][0].int_val(), 4);
}

TEST(ConnectorTest, CommandResultsHaveNoStore) {
  vdb::Engine engine;
  BackendConnector connector(&engine);
  auto result = connector.Execute("CREATE TABLE t (a INTEGER)");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->is_rowset());
  EXPECT_EQ(result->command_tag, "CREATE TABLE");
  auto dml = connector.Execute("INSERT INTO t VALUES (1), (2)");
  ASSERT_TRUE(dml.ok());
  EXPECT_EQ(dml->affected_rows, 2);
}

TEST(ConnectorTest, ErrorsPropagate) {
  vdb::Engine engine;
  BackendConnector connector(&engine);
  EXPECT_FALSE(connector.Execute("SELECT * FROM missing").ok());
  EXPECT_FALSE(connector.Execute("NOT SQL AT ALL").ok());
}

}  // namespace
}  // namespace hyperq::backend
