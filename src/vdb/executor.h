// Volcano-ish interpreter executing XTRA plans against vdb storage.
//
// Every operator consumes and emits ColumnBatch chunks and materializes its
// result (the evaluation workloads fit in memory at benchmark scale).
// Expressions are evaluated column-at-a-time, falling back per expression to
// a tree-walking interpreter over Datum with SQL three-valued logic.
// Correlated subqueries execute their subplans per outer row through an
// outer-scope chain; inside a subplan an outer reference is a broadcast
// constant.

#pragma once

#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "vdb/exec_util.h"
#include "vdb/storage.h"
#include "xtra/xtra.h"

namespace hyperq::vdb {

/// \brief A materialized intermediate result: shared, immutable ColumnBatch
/// chunks (DESIGN.md §15). Operators alias chunks instead of copying them.
struct Relation {
  std::vector<xtra::ColumnInfo> cols;
  std::map<int, int> layout;  // col id -> slot index
  std::vector<std::shared_ptr<const ColumnBatch>> chunks;

  void BuildLayout() {
    layout.clear();
    for (size_t i = 0; i < cols.size(); ++i) {
      layout[cols[i].id] = static_cast<int>(i);
    }
  }

  size_t RowCount() const;
  /// \brief Concatenates `chunks` to a single batch (one column vector per
  /// slot even when there are no rows).
  std::shared_ptr<const ColumnBatch> SingleChunk() const;
};

/// \brief Executes plans; holds the storage reference and the correlation
/// stack for subquery evaluation.
class Executor {
 public:
  explicit Executor(Storage* storage) : storage_(storage) {}

  /// \brief Runs a query plan and returns the result relation.
  Result<Relation> Execute(const xtra::Op& op);

  /// \brief Runs a DML plan; returns the number of affected rows.
  Result<int64_t> ExecuteDml(const xtra::Op& op);

  /// One evaluated expression over a chunk: either a column of the chunk's
  /// row count or a broadcast scalar constant. Public so executor_vec.cc's
  /// file-local kernels can operate on it; not part of the stable API.
  struct VecVal {
    std::shared_ptr<const ColumnVec> col;
    bool is_const = false;
    Datum scalar;
  };

 private:
  /// One row of an enclosing query, visible to a subplan's outer
  /// references while the subplan runs.
  struct OuterScope {
    const std::map<int, int>* layout;
    const Row* row;
  };

  Result<Relation> Exec(const xtra::Op& op);
  Result<Relation> ExecDispatch(const xtra::Op& op);
  Result<Relation> ExecGet(const xtra::Op& op);
  Result<Relation> ExecValues(const xtra::Op& op);
  Result<Relation> ExecSelect(const xtra::Op& op);
  Result<Relation> ExecProject(const xtra::Op& op);
  Result<Relation> ExecWindow(const xtra::Op& op);
  Result<Relation> ExecAggregate(const xtra::Op& op);
  Result<Relation> ExecJoin(const xtra::Op& op);
  Result<Relation> ExecSetOp(const xtra::Op& op);
  Result<Relation> ExecSort(const xtra::Op& op);
  Result<Relation> ExecLimit(const xtra::Op& op);

  /// Keeps the rows of `child` for which `predicate` is true.
  Result<Relation> Filter(const xtra::Expr& predicate, Relation child);
  /// Indices of the rows of `batch` for which `predicate` is true.
  Result<std::vector<uint32_t>> SelectRows(const xtra::Expr& predicate,
                                           const ColumnBatch& batch,
                                           const std::map<int, int>& layout);

  // --- Vector expression evaluation (executor_vec.cc) --------------------

  /// Evaluation context for one chunk; caches lazily materialized rows for
  /// expression shapes that fall back to the tree-walking interpreter. Rows
  /// are filled slot by slot: only the columns a fallback expression reads
  /// are boxed into Datums (`slot_ready` tracks which), unless an expression
  /// contains a subquery — then the whole row is materialized because the
  /// subplan can read any column through the outer-scope chain.
  struct VecCtx {
    const ColumnBatch* batch = nullptr;
    const std::map<int, int>* layout = nullptr;
    std::vector<Row> lazy_rows;
    std::vector<uint8_t> slot_ready;  // per-slot fill flag
    bool rows_ready = false;          // every slot filled
  };

  Result<VecVal> EvalExprVec(const xtra::Expr& e, VecCtx& ctx);
  Result<VecVal> EvalExprVecFallback(const xtra::Expr& e, VecCtx& ctx);
  Result<std::shared_ptr<const ColumnVec>> MaterializeVec(const VecVal& v,
                                                          size_t n);

  // --- Row-at-a-time scalar evaluation (executor.cc) ---------------------
  // Used for expression shapes the vector evaluator does not cover, for
  // UPDATE/DELETE over row-major storage, and for outer references.

  Result<Datum> EvalExpr(const xtra::Expr& e, const std::map<int, int>& layout,
                         const Row& row);
  Result<Datum> EvalFunc(const xtra::Expr& e, const std::map<int, int>& layout,
                         const Row& row);
  Result<Datum> EvalArith(const xtra::Expr& e,
                          const std::map<int, int>& layout, const Row& row);
  /// One executed subquery result, reusable across probe values. For IN
  /// subqueries an exact-match hash index over the first output column is
  /// built when every non-null value is one of the exact kinds (int64,
  /// string) — for those a hit/miss is equivalent to the Compare loop, so
  /// the index can never change the answer; mixed or approximate kinds
  /// keep the loop.
  struct PreparedSubq {
    std::shared_ptr<const ColumnBatch> batch;  // the subplan's rows
    bool saw_null = false;  // NULL among the first-column values
    enum class Index { kNone, kI64, kStr } index = Index::kNone;
    std::unordered_set<int64_t> i64s;
    std::unordered_set<std::string> strs;
  };

  Result<Datum> EvalSubquery(const xtra::Expr& e,
                             const std::map<int, int>& layout, const Row& row);
  Result<PreparedSubq> PrepareSubquery(const xtra::Expr& e,
                                       const std::map<int, int>& layout,
                                       const Row& row, bool build_index);
  Result<Datum> EvalSubqueryOverPrepared(const xtra::Expr& e,
                                         const PreparedSubq& prep,
                                         const std::map<int, int>& layout,
                                         const Row& row);
  /// `v` [NOT] IN the first column of a prepared subplan result.
  Result<Datum> InSubquery(const xtra::Expr& e, const PreparedSubq& prep,
                           const Datum& v);

  /// Truth test for predicates: NULL counts as false.
  Result<bool> EvalPredicate(const xtra::Expr& e,
                             const std::map<int, int>& layout, const Row& row);

  /// Resolves `col_id` against `layout`/`row`, then the outer scopes
  /// innermost-first.
  Result<Datum> ResolveColRef(int col_id, const std::map<int, int>& layout,
                              const Row& row, const std::string& name);

  /// True when every column reference below `op` is produced inside it
  /// (no correlation) — such subtrees can be cached across re-executions.
  static bool IsCorrelationFree(const xtra::Op& op);

  Storage* storage_;
  std::vector<OuterScope> outer_;

  // --- Subquery acceleration -------------------------------------------
  // Correlated subqueries re-execute per outer row; three caches keep that
  // tractable: (1) whole-result memoization keyed on the referenced outer
  // values, (2) relation caching for correlation-free subtrees, and
  // (3) hash indexes for Select-over-Get with an equality against an outer
  // value.
  struct SubqInfo {
    std::vector<int> outer_ids;  // outer column ids the subplan reads
    std::unordered_map<Row, Datum, exec::RowHash, exec::RowEq> memo;
    // Subplan results memoized by the outer values alone: an IN/quantified
    // subquery is keyed on (outer values, probe value) in `memo`, so
    // without this every distinct probe value would re-execute the whole
    // subplan instead of re-probing one prepared result.
    std::unordered_map<Row, PreparedSubq, exec::RowHash, exec::RowEq> rel_memo;
  };
  struct SelectIndex {
    int key_slot = -1;                      // slot in the Get output
    const xtra::Expr* outer_key = nullptr;  // outer-only key expression
    /// Row indices into `snapshot`, bucketed by the key column's value.
    std::unordered_map<Datum, std::vector<uint32_t>, exec::DatumHash,
                       exec::DatumEq>
        buckets;
    Relation base;  // schema (cols + layout) only
    /// The table's columnar snapshot, shared and immutable (DML changes
    /// the table only after its statement's subqueries have run).
    std::shared_ptr<const ColumnBatch> snapshot;
    /// Snapshot slots the predicate reads, and their col id -> position
    /// layout: a bucket is filtered on those columns alone, and only the
    /// rows that pass are gathered whole.
    std::vector<int> pred_slots;
    std::map<int, int> pred_layout;
  };

  /// The subquery's SubqInfo, created (outer ids collected) on first use.
  SubqInfo& InfoFor(const xtra::Expr& e);

  std::map<const xtra::Expr*, std::unique_ptr<SubqInfo>> subq_info_;
  std::map<const xtra::Op*, std::unique_ptr<SelectIndex>> select_indexes_;
  std::map<const xtra::Op*, std::shared_ptr<const Relation>> relation_cache_;
  std::map<const xtra::Op*, bool> correlation_free_;
};

/// \brief Ordering comparator used by Sort, Window and merge logic.
/// Returns <0, 0, >0 in final output order; `nulls_first` follows SQL
/// NULLS FIRST/LAST semantics (vdb default: NULLs sort high).
int CompareForSort(const Datum& a, const Datum& b, bool descending,
                   bool nulls_first);

}  // namespace hyperq::vdb
