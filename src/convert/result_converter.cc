#include "convert/result_converter.h"

#include <algorithm>
#include <thread>

#include "common/fault.h"
#include "observability/metric_names.h"
#include "types/date.h"
#include "vdb/column_batch.h"

namespace hyperq::convert {

namespace {

using backend::BatchSpan;
using protocol::WireColumn;
using protocol::WireType;
using vdb::ColumnVec;
using vdb::PhysKind;

/// Physical column form the typed wire encoder reads for a wire type: the
/// canonical form CanonicalizeBatch gives the column's SQL type.
bool ColumnMatchesWire(const ColumnVec& col, const WireColumn& wc) {
  switch (wc.type) {
    case WireType::kSmallInt:  // also carries BOOL as 0/1
      return col.kind == PhysKind::kI64 || col.kind == PhysKind::kBool;
    case WireType::kInteger:
    case WireType::kBigInt:
      return col.kind == PhysKind::kI64;
    case WireType::kDecimal:
      return col.kind == PhysKind::kDecimal;
    case WireType::kFloat:
      return col.kind == PhysKind::kF64;
    case WireType::kChar:
    case WireType::kVarchar:
      return col.kind == PhysKind::kString;
    case WireType::kDate:
      return col.kind == PhysKind::kDate;
    case WireType::kTime:
      return col.kind == PhysKind::kTime;
    case WireType::kTimestamp:
      return col.kind == PhysKind::kTimestamp;
    case WireType::kPeriodDate:
      return col.kind == PhysKind::kPeriod;
  }
  return false;
}

/// Encoded payload bytes of one non-NULL field.
size_t FieldWidth(const ColumnVec& col, size_t r, const WireColumn& wc) {
  switch (wc.type) {
    case WireType::kSmallInt:
      return 2;
    case WireType::kInteger:
    case WireType::kDate:
      return 4;
    case WireType::kBigInt:
    case WireType::kDecimal:
    case WireType::kFloat:
    case WireType::kTime:
    case WireType::kTimestamp:
    case WireType::kPeriodDate:
      return 8;
    case WireType::kChar:
      return static_cast<size_t>(wc.length);
    case WireType::kVarchar: {
      size_t len = col.offsets[r + 1] - col.offsets[r];
      return 2 + std::min<size_t>(len, 0xFFFF);
    }
  }
  return 0;
}

void EncodeField(const ColumnVec& col, size_t r, const WireColumn& wc,
                 BufferWriter* rec) {
  switch (wc.type) {
    case WireType::kSmallInt:
      rec->PutI16(static_cast<int16_t>(col.kind == PhysKind::kBool
                                           ? (col.b8[r] != 0 ? 1 : 0)
                                           : col.i64[r]));
      break;
    case WireType::kInteger:
      rec->PutI32(static_cast<int32_t>(col.i64[r]));
      break;
    case WireType::kBigInt:
      rec->PutI64(col.i64[r]);
      break;
    case WireType::kDecimal: {
      // Canonical batches already carry the schema scale; rescale defends
      // against hand-built batches without changing the wire bytes.
      if (col.i32b[r] == wc.scale) {
        rec->PutI64(col.i64[r]);
      } else {
        rec->PutI64(Decimal{col.i64[r], col.i32b[r]}.Rescale(wc.scale).value);
      }
      break;
    }
    case WireType::kFloat:
      rec->PutF64(col.f64[r]);
      break;
    case WireType::kChar: {
      // Fixed width, blank padded; over-long values truncate — exactly
      // std::string::resize(length, ' ') in the record oracle.
      std::string_view s = col.StringAt(r);
      size_t wire_len = static_cast<size_t>(wc.length);
      size_t copy = std::min(s.size(), wire_len);
      rec->PutBytes(s.data(), copy);
      for (size_t p = copy; p < wire_len; ++p) rec->PutU8(' ');
      break;
    }
    case WireType::kVarchar: {
      std::string_view s = col.StringAt(r);
      if (s.size() > 0xFFFF) s = s.substr(0, 0xFFFF);
      rec->PutU16(static_cast<uint16_t>(s.size()));
      rec->PutBytes(s.data(), s.size());
      break;
    }
    case WireType::kDate:
      rec->PutI32(static_cast<int32_t>(DateToTeradataInt(col.i32[r])));
      break;
    case WireType::kTime:
    case WireType::kTimestamp:
      rec->PutI64(col.i64[r]);
      break;
    case WireType::kPeriodDate:
      rec->PutI32(static_cast<int32_t>(DateToTeradataInt(col.i32[r])));
      rec->PutI32(static_cast<int32_t>(DateToTeradataInt(col.i32b[r])));
      break;
  }
}

}  // namespace

ResultConverter::ResultConverter(ConverterOptions options)
    : options_(options) {
  options_.parallelism = std::max(1, options_.parallelism);
  options_.rows_per_batch = std::max<size_t>(1, options_.rows_per_batch);
}

Result<ConversionResult> ResultConverter::Convert(
    const backend::BackendResult& result, QueryContext* ctx) const {
  ConversionResult out;
  if (!result.is_rowset()) return out;

  for (const auto& col : result.columns) {
    HQ_ASSIGN_OR_RETURN(protocol::WireColumn wc,
                        protocol::ToWireColumn(col.name, col.type));
    out.columns.push_back(std::move(wc));
  }

  // Collect the store's spans (buffered: the header must announce the full row
  // count). Spans share their batches with the store — no row copy here.
  std::vector<BatchSpan> spans;
  std::vector<size_t> span_start;  // global row index of each span
  size_t total = 0;
  if (result.store) {
    HQ_RETURN_IF_ERROR(result.store->ScanSpans([&](const BatchSpan& span) {
      span_start.push_back(total);
      spans.push_back(span);
      total += span.rows;
      return Status::OK();
    }));
  }
  out.total_rows = total;

  // Carve the global row range into wire batches (batch b covers rows
  // [b*N, (b+1)*N), however the spans landed), then encode batches in
  // parallel. A wire batch may straddle span boundaries.
  const size_t rows_per_batch = options_.rows_per_batch;
  size_t nbatches = (total + rows_per_batch - 1) / rows_per_batch;
  out.batches.resize(nbatches);
  if (nbatches == 0) return out;

  const size_t ncols = out.columns.size();
  const size_t bitmap_bytes = (ncols + 7) / 8;

  // Per-record encode straight from the columns. A column whose physical
  // form is not the canonical one for its wire type (all-NULL columns
  // aside) means a producer skipped CanonicalizeBatch: fail typed rather
  // than write bytes the client would misread.
  auto encode_span_rows = [&](const BatchSpan& span, size_t begin, size_t end,
                              BufferWriter* w) -> Status {
    const auto& cols = span.batch->columns;
    for (size_t c = 0; c < ncols; ++c) {
      if (!ColumnMatchesWire(*cols[c], out.columns[c]) &&
          cols[c]->nulls != cols[c]->size) {
        return Status::Internal("result column ", out.columns[c].name,
                                " is not canonical for its wire type");
      }
    }
    std::vector<uint8_t> bitmap(bitmap_bytes);
    for (size_t r = begin; r < end; ++r) {
      HQ_RETURN_IF_ERROR(
          FaultInjector::Global().Check(faultpoints::kConvertEncodeRow));
      size_t row = span.offset + r;
      std::fill(bitmap.begin(), bitmap.end(), 0);
      size_t rec_len = bitmap_bytes;
      for (size_t c = 0; c < ncols; ++c) {
        if (cols[c]->IsNull(row)) continue;
        bitmap[c / 8] |= (1u << (c % 8));
        rec_len += FieldWidth(*cols[c], row, out.columns[c]);
      }
      if (rec_len > 0xFFFF) {
        return Status::ProtocolError("record exceeds the 64KiB tdwp row "
                                     "limit");
      }
      w->PutU16(static_cast<uint16_t>(rec_len));
      w->PutBytes(bitmap.data(), bitmap.size());
      for (size_t c = 0; c < ncols; ++c) {
        if (cols[c]->IsNull(row)) continue;
        EncodeField(*cols[c], row, out.columns[c], w);
      }
    }
    return Status::OK();
  };

  std::vector<Status> statuses(nbatches);
  auto encode_range = [&](size_t begin_batch, size_t end_batch) {
    for (size_t b = begin_batch; b < end_batch; ++b) {
      // CheckAlive is safe from parallel workers: concurrent callers skip
      // the client probe instead of contending on the socket.
      if (ctx != nullptr) {
        Status alive = ctx->CheckAlive();
        if (!alive.ok()) {
          statuses[b] = std::move(alive);
          return;
        }
      }
      size_t row_begin = b * rows_per_batch;
      size_t row_end = std::min(total, row_begin + rows_per_batch);
      BufferWriter w;
      w.PutU32(static_cast<uint32_t>(row_end - row_begin));
      // Walk the spans overlapping this wire batch.
      size_t s = static_cast<size_t>(
          std::upper_bound(span_start.begin(), span_start.end(), row_begin) -
          span_start.begin() - 1);
      size_t row = row_begin;
      while (row < row_end) {
        const BatchSpan& span = spans[s];
        size_t local_begin = row - span_start[s];
        size_t local_end = std::min(span.rows, row_end - span_start[s]);
        Status st = encode_span_rows(span, local_begin, local_end, &w);
        if (!st.ok()) {
          statuses[b] = std::move(st);
          return;
        }
        row = span_start[s] + local_end;
        ++s;
      }
      out.batches[b] = w.Take();
    }
  };

  int workers = std::min<int>(options_.parallelism, static_cast<int>(nbatches));
  if (workers <= 1) {
    encode_range(0, nbatches);
  } else {
    std::vector<std::thread> threads;
    size_t per = (nbatches + workers - 1) / workers;
    for (int t = 0; t < workers; ++t) {
      size_t begin = t * per;
      size_t end = std::min(nbatches, begin + per);
      if (begin >= end) break;
      threads.emplace_back(encode_range, begin, end);
    }
    for (auto& th : threads) th.join();
  }
  for (const Status& s : statuses) {
    HQ_RETURN_IF_ERROR(s);
  }
  // Batch-size distributions are recorded only after the whole conversion
  // succeeded: a failed or cancelled attempt contributes nothing, so a
  // retried query attributes each produced batch exactly once.
  if (options_.metrics != nullptr) {
    auto* rows_hist = options_.metrics->histogram(
        observability::names::kConvertBatchRows);
    auto* bytes_hist = options_.metrics->histogram(
        observability::names::kConvertBatchBytes);
    for (size_t b = 0; b < nbatches; ++b) {
      size_t row_begin = b * rows_per_batch;
      size_t row_end = std::min(total, row_begin + rows_per_batch);
      rows_hist->Observe(static_cast<double>(row_end - row_begin));
      bytes_hist->Observe(static_cast<double>(out.batches[b].size()));
    }
  }
  return out;
}

}  // namespace hyperq::convert
