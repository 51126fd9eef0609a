#include "vdb/engine.h"

#include "binder/binder.h"
#include "vdb/optimizer.h"
#include "common/str_util.h"

namespace hyperq::vdb {

void QueryResult::EnsureRows() {
  if (chunks.empty()) return;
  rows.clear();
  rows.reserve(row_count());
  for (const auto& chunk : chunks) {
    AppendRowsFromBatch(*chunk, 0, chunk->rows, &rows);
  }
  chunks.clear();
}

Engine::Engine() : dialect_(sql::Dialect::Ansi()) {}

Result<QueryResult> Engine::Execute(const std::string& sql) {
  HQ_ASSIGN_OR_RETURN(sql::StatementPtr stmt,
                      sql::ParseStatement(sql, dialect_));
  std::lock_guard<std::mutex> lock(mutex_);
  ++statements_;
  return ExecuteParsed(*stmt);
}

Result<QueryResult> Engine::ExecuteScript(const std::string& script) {
  HQ_ASSIGN_OR_RETURN(std::vector<sql::StatementPtr> stmts,
                      sql::ParseScript(script, dialect_));
  QueryResult last;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& stmt : stmts) {
    ++statements_;
    HQ_ASSIGN_OR_RETURN(last, ExecuteParsed(*stmt));
  }
  return last;
}

Result<QueryResult> Engine::ExecuteParsed(const sql::Statement& stmt) {
  QueryResult result;
  switch (stmt.kind) {
    case sql::StmtKind::kCreateTable: {
      const auto* ct = stmt.As<sql::CreateTableStatement>();
      if (ct->as_select) {
        return Status::NotSupported("vdb: CREATE TABLE AS is not supported");
      }
      std::vector<TableColumn> cols;
      TableDef def;
      def.name = Catalog::NormalizeName(ct->table);
      for (const auto& c : ct->columns) {
        TableColumn tc;
        tc.name = ToUpper(c.name);
        tc.type = c.type;
        tc.not_null = c.not_null;
        cols.push_back(tc);
        ColumnDef cd;
        cd.name = tc.name;
        cd.type = c.type;
        cd.nullable = !c.not_null;
        def.columns.push_back(std::move(cd));
      }
      HQ_RETURN_IF_ERROR(storage_.CreateTable(ct->table, std::move(cols)));
      HQ_RETURN_IF_ERROR(catalog_.CreateTable(std::move(def)));
      result.command_tag = "CREATE TABLE";
      return result;
    }
    case sql::StmtKind::kDropTable: {
      const auto* dt = stmt.As<sql::DropTableStatement>();
      HQ_RETURN_IF_ERROR(storage_.DropTable(dt->table, dt->if_exists));
      if (catalog_.HasTable(dt->table)) {
        HQ_RETURN_IF_ERROR(catalog_.DropTable(dt->table));
      }
      result.command_tag = "DROP TABLE";
      return result;
    }
    case sql::StmtKind::kSelect:
    case sql::StmtKind::kInsert:
    case sql::StmtKind::kUpdate:
    case sql::StmtKind::kDelete: {
      binder::Binder binder(&catalog_, dialect_);
      HQ_ASSIGN_OR_RETURN(xtra::OpPtr plan, binder.BindStatement(stmt));
      OptimizePlan(&plan);
      Executor exec(&storage_);
      if (stmt.kind == sql::StmtKind::kSelect) {
        HQ_ASSIGN_OR_RETURN(Relation rel, exec.Execute(*plan));
        for (const auto& col : rel.cols) {
          result.columns.push_back({col.name, col.type});
        }
        result.chunks = std::move(rel.chunks);
        result.command_tag = "SELECT";
        return result;
      }
      HQ_ASSIGN_OR_RETURN(result.affected_rows, exec.ExecuteDml(*plan));
      result.command_tag = stmt.kind == sql::StmtKind::kInsert   ? "INSERT"
                           : stmt.kind == sql::StmtKind::kUpdate ? "UPDATE"
                                                                 : "DELETE";
      return result;
    }
    case sql::StmtKind::kCommit:
    case sql::StmtKind::kRollback:
      // vdb auto-commits; transaction statements are accepted as no-ops.
      result.command_tag = "OK";
      return result;
    default:
      return Status::NotSupported(
          "vdb: unsupported statement kind for the target dialect");
  }
}

}  // namespace hyperq::vdb
