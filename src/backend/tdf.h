// TDF — Tabular Data Format (paper §4.5): Hyper-Q's binary batch
// representation for query results pulled from the target database.
//
// A TDF2 frame is self-describing and columnar (DESIGN.md §15): a header
// with the column schema, then the payload column-at-a-time, mirroring
// vdb::ColumnBatch so whole batches serialize with bulk copies. The result
// plane keeps batches in memory as shared spans; a frame is only written
// when the ResultStore spills. All integers are little-endian.
//
// Layout:
//   magic      u32   'T''D''F''2'
//   ncols      u32
//   per column: kind u8, length i32, precision i32, scale i32,
//               name (u32 length + bytes)
//   nrows      u32
//   per column: phys u8 (vdb::PhysKind)
//               valid bitmap (ceil(nrows/8) bytes; bit set = non-NULL)
//               payload by phys kind (NULL slots keep zero placeholders):
//                 i64 kinds          8*nrows
//                 f64                8*nrows
//                 bool               nrows
//                 decimal            8*nrows unscaled + 4*nrows scales
//                 date               4*nrows
//                 period             4*nrows begin + 4*nrows end
//                 string             4*nrows lengths + arena bytes
//                 datum (boxed)      per non-NULL value: kind u8 + payload

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/result.h"
#include "types/datum.h"
#include "types/type.h"
#include "vdb/column_batch.h"

namespace hyperq::backend {

struct TdfColumn {
  std::string name;
  SqlType type;
};

/// \brief Decodes one TDF2 frame.
class TdfReader {
 public:
  /// \brief Parses the frame header; fails on malformed input or any magic
  /// other than TDF2.
  static Result<TdfReader> Open(std::vector<uint8_t> bytes);

  const std::vector<TdfColumn>& schema() const { return schema_; }
  size_t row_count() const { return nrows_; }

  /// \brief Decodes the payload into a ColumnBatch.
  Result<std::shared_ptr<const vdb::ColumnBatch>> ReadBatch() const;

 private:
  TdfReader() = default;
  std::vector<uint8_t> bytes_;
  std::vector<TdfColumn> schema_;
  size_t nrows_ = 0;
  size_t rows_offset_ = 0;
};

/// \brief Serializes rows [offset, offset+rows) of `batch` as one TDF2
/// batch. The batch should be canonical for `schema` (see
/// CanonicalizeBatch); kDatum columns are encoded boxed.
std::vector<uint8_t> EncodeTdfBatch(const std::vector<TdfColumn>& schema,
                                    const vdb::ColumnBatch& batch,
                                    size_t offset, size_t rows);

/// \brief Coerces a batch to the declared schema types (Datum::CastTo per
/// value, column-at-a-time): the canonical form every ResultStore span is
/// held in. Returns the input pointer unchanged when every column already
/// stores exactly the schema's physical form (the common zero-copy case);
/// otherwise rebuilds only the non-conforming columns. Fails when the
/// batch's column count differs from the schema's.
Result<std::shared_ptr<const vdb::ColumnBatch>> CanonicalizeBatch(
    const std::vector<TdfColumn>& schema,
    std::shared_ptr<const vdb::ColumnBatch> chunk);

constexpr uint32_t kTdfMagic2 = 0x32464454;  // "TDF2"

}  // namespace hyperq::backend
