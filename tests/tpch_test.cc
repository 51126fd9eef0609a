// TPC-H end-to-end validation: all 22 Teradata-dialect queries must
// translate, execute on vdb at a small scale factor, and return the pinned
// answer (row count plus an order-insensitive checksum).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "fuzz/differential.h"
#include "service/hyperq_service.h"
#include "vdb/engine.h"
#include "workload/tpch.h"

namespace hyperq {
namespace {

class TpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    engine_ = new vdb::Engine();
    service_ = new service::HyperQService(engine_);
    auto sid = service_->OpenSession("tpch");
    ASSERT_TRUE(sid.ok());
    sid_ = *sid;
    Status load = workload::LoadTpch(service_, sid_, engine_,
                                     {/*scale_factor=*/0.002, 42});
    ASSERT_TRUE(load.ok()) << load;
  }
  static void TearDownTestSuite() {
    delete service_;
    delete engine_;
    service_ = nullptr;
    engine_ = nullptr;
  }

  static vdb::Engine* engine_;
  static service::HyperQService* service_;
  static uint32_t sid_;
};

vdb::Engine* TpchTest::engine_ = nullptr;
service::HyperQService* TpchTest::service_ = nullptr;
uint32_t TpchTest::sid_ = 0;

class TpchQueryTest : public TpchTest,
                      public ::testing::WithParamInterface<int> {};

// One query's answer at SF 0.002, seed 42: the row count and FNV-1a 64 over
// the sorted canonical rows (fuzz::CanonicalRows: doubles at 6 significant
// digits, NULL as "<null>"), each line '\n'-terminated.
struct PinnedAnswer {
  size_t rows;
  uint64_t checksum;
};

constexpr PinnedAnswer kPinned[22] = {
    {4, 0xeb4af9f59aa27ecaull},  // Q1
    {1, 0x78f12bc5958c683aull},  // Q2
    {10, 0x730aa3f61ecdeb18ull},  // Q3
    {5, 0xd1a50d8e716d44e0ull},  // Q4
    {3, 0x98eb1ef285d010ecull},  // Q5
    {1, 0x2f8d371a526d4968ull},  // Q6
    {2, 0xb1fb84ae62e3de9eull},  // Q7
    {2, 0x83a405f52e0116ccull},  // Q8
    {70, 0x2491b8fdf00016f5ull},  // Q9
    {20, 0xe72c391e4ce8cb6bull},  // Q10
    {0, 0x14650fb0739d0383ull},  // Q11
    {2, 0xa299deaf70a82e8aull},  // Q12
    {20, 0x150320d18b573851ull},  // Q13
    {1, 0x525f70287bd90ce2ull},  // Q14
    {1, 0xb4ecc5628253b6a6ull},  // Q15
    {61, 0x6a5bb2455abbe742ull},  // Q16
    {1, 0x29be199de5ff86beull},  // Q17
    {100, 0xc0100f54abf9dbccull},  // Q18
    {1, 0x60f5c1c7e4ef7064ull},  // Q19
    {1, 0x8c36b9d6007a0d2cull},  // Q20
    {0, 0x14650fb0739d0383ull},  // Q21
    {0, 0x14650fb0739d0383ull},  // Q22
};

uint64_t AnswerChecksum(const std::vector<std::string>& canonical) {
  uint64_t h = 1469598103934665603ull;
  for (const auto& line : canonical) {
    for (unsigned char c : line) h = (h ^ c) * 1099511628211ull;
    h = (h ^ '\n') * 1099511628211ull;
  }
  return h;
}

TEST_P(TpchQueryTest, TranslatesAndExecutes) {
  int q = GetParam();
  const std::string& sql = workload::TpchQueries()[q];
  auto outcome = service_->Submit(sid_, sql);
  ASSERT_TRUE(outcome.ok()) << "Q" << (q + 1) << ": " << outcome.status();
  ASSERT_TRUE(outcome->result.is_rowset()) << "Q" << (q + 1);
  auto rows = outcome->result.DecodeRows();
  ASSERT_TRUE(rows.ok());
  // Queries with aggregates over the whole table always return rows; the
  // highly selective ones may legitimately return zero at tiny scale.
  if (q == 0 || q == 5 || q == 13) {
    EXPECT_FALSE(rows->empty()) << "Q" << (q + 1);
  }
  vdb::QueryResult decoded;
  std::vector<SqlType> types;
  for (const auto& col : outcome->result.columns) types.push_back(col.type);
  decoded.chunks.push_back(vdb::BatchFromRows(types, *rows, 0, rows->size()));
  uint64_t checksum = AnswerChecksum(fuzz::CanonicalRows(decoded));
  char got[64];
  std::snprintf(got, sizeof(got), " got {%zu, 0x%016llxull}", rows->size(),
                static_cast<unsigned long long>(checksum));
  EXPECT_EQ(rows->size(), kPinned[q].rows) << "Q" << (q + 1) << got;
  EXPECT_EQ(checksum, kPinned[q].checksum) << "Q" << (q + 1) << got;
}

INSTANTIATE_TEST_SUITE_P(All22, TpchQueryTest, ::testing::Range(0, 22),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Q" + std::to_string(info.param + 1);
                         });

TEST_F(TpchTest, Q1AggregatesAreConsistent) {
  auto outcome = service_->Submit(sid_, workload::TpchQueries()[0]);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  auto rows = outcome->result.DecodeRows();
  ASSERT_TRUE(rows.ok());
  ASSERT_FALSE(rows->empty());
  int64_t total_count = 0;
  for (const auto& row : *rows) {
    // count_order is the last column; avg_qty * count ~= sum_qty.
    const Datum& count = row.back();
    ASSERT_TRUE(count.is_int());
    total_count += count.int_val();
    double sum_qty = row[2].AsDouble();
    double avg_qty = row[6].AsDouble();
    EXPECT_NEAR(avg_qty * count.int_val(), sum_qty, 1.0);
  }
  EXPECT_GT(total_count, 0);
}

}  // namespace
}  // namespace hyperq
