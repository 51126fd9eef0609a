// Result Converter (paper §4.6): unwraps TDF batches and converts them into
// the original database's binary record format. Conversion fans out over a
// configurable number of worker threads, each handling a subset of the
// rows, exactly as the paper describes.
//
// The converter consumes the ResultStore's batch spans directly (DESIGN.md
// §15): wire records are encoded straight from the typed column vectors —
// bitmap transpose plus bulk field writes — without materializing a Datum
// row per record. Every span is canonical for the result schema
// (backend::CanonicalizeBatch), so each column's physical form matches its
// wire type; a column that does not is an internal error, never silently
// re-encoded. protocol::EncodeRecord remains the byte-identity oracle the
// tests compare against.
//
// tdwp requires the total row count before the first record (see
// protocol/tdwp.h), so conversion is a buffered operation: the full TDF
// result (possibly spilled to disk by the ResultStore) is consumed before
// the first wire batch is released.

#pragma once

#include <cstdint>
#include <vector>

#include "backend/connector.h"
#include "common/result.h"
#include "observability/metrics.h"
#include "protocol/tdwp.h"

namespace hyperq::convert {

struct ConversionResult {
  std::vector<protocol::WireColumn> columns;
  /// RecordBatch frame payloads: u32 row count + encoded records.
  std::vector<std::vector<uint8_t>> batches;
  uint64_t total_rows = 0;
};

struct ConverterOptions {
  /// Worker threads for record encoding (>= 1).
  int parallelism = 2;
  /// Records per wire batch.
  size_t rows_per_batch = 2048;
  /// When set, per-wire-batch size distributions are recorded as
  /// hyperq.convert.batch.rows / hyperq.convert.batch.bytes. Batches are
  /// observed exactly once, after the whole conversion succeeds, so a
  /// retried attempt never double-counts.
  observability::MetricsRegistry* metrics = nullptr;
};

class ResultConverter {
 public:
  explicit ResultConverter(ConverterOptions options);

  /// \brief Converts a backend (TDF) result into wire batches. `ctx`
  /// (optional) is polled at every batch boundary by each encode worker,
  /// so a cancellation stops conversion within one batch.
  Result<ConversionResult> Convert(const backend::BackendResult& result,
                                   QueryContext* ctx = nullptr) const;

 private:
  ConverterOptions options_;
};

}  // namespace hyperq::convert
