#include "fuzz/query_gen.h"

namespace hyperq::fuzz {

namespace {

// Column model of the fuzz schema. Type tags: i = integer, s = string,
// d = decimal, t = date.
struct Col {
  const char* name;
  char type;
};

constexpr Col kT0Cols[] = {
    {"ID", 'i'}, {"GRP", 's'}, {"AMT", 'd'}, {"QTY", 'i'}, {"D", 't'}};
constexpr Col kT1Cols[] = {
    {"ID", 'i'}, {"REF", 'i'}, {"NAME", 's'}, {"PRICE", 'd'}, {"D", 't'}};

struct TableModel {
  const char* name;
  const Col* cols;
  int ncols;
};

constexpr TableModel kTables[] = {
    {"FZ_T0", kT0Cols, 5},
    {"FZ_T1", kT1Cols, 5},
};

// A table reference in scope: alias + its column model.
struct ScopeRef {
  std::string alias;
  const TableModel* model;
};

// Expression generation context: tables in scope (outer scopes included for
// correlated subqueries) and a recursion budget.
struct GenCtx {
  Rng* rng;
  std::vector<ScopeRef> scope;
  int depth = 0;        // expression nesting depth
  int subq_budget = 1;  // nested subqueries remaining
};

std::string ColOfType(GenCtx* ctx, char type) {
  // Collect matching columns across the scope; fall back to a literal when
  // none (cannot happen with the current schema, every table has all types).
  std::vector<std::string> cands;
  for (const auto& ref : ctx->scope) {
    for (int i = 0; i < ref.model->ncols; ++i) {
      if (ref.model->cols[i].type == type) {
        cands.push_back(ref.alias + "." + ref.model->cols[i].name);
      }
    }
  }
  if (cands.empty()) return "0";
  return cands[ctx->rng->Int(0, static_cast<int>(cands.size()) - 1)];
}

std::string IntLit(Rng* rng) { return std::to_string(rng->Int(0, 9)); }

std::string DecLit(Rng* rng) {
  return std::to_string(rng->Int(1, 40)) + "." +
         std::to_string(rng->Int(0, 9)) + "0";
}

std::string DateLit(Rng* rng) {
  int m = rng->Int(1, 3);
  int d = rng->Int(1, 28);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "2024-%02d-%02d", m, d);
  return std::string("DATE '") + buf + "'";
}

std::string StrLit(Rng* rng) {
  static const char* kVals[] = {"'ALPHA'", "'BETA'", "'GAMMA'", "'A'", "'B'"};
  return kVals[rng->Int(0, 4)];
}

std::string NumExpr(GenCtx* ctx);
std::string Pred(GenCtx* ctx);

std::string DateExpr(GenCtx* ctx) {
  Rng* rng = ctx->rng;
  int pick = rng->Int(0, 9);
  if (pick < 5 || ctx->depth > 2) return ColOfType(ctx, 't');
  if (pick < 7) return DateLit(rng);
  ++ctx->depth;
  std::string col = ColOfType(ctx, 't');
  std::string out;
  if (pick == 7) {
    out = "(" + col + " + INTERVAL '" + std::to_string(rng->Int(1, 30)) +
          "' DAY)";
  } else if (pick == 8) {
    out = "(" + col + " - INTERVAL '" + std::to_string(rng->Int(1, 30)) +
          "' DAY)";
  } else {
    // Native Teradata day arithmetic: DATE + n.
    out = "(" + col + " + " + std::to_string(rng->Int(1, 30)) + ")";
  }
  --ctx->depth;
  return out;
}

std::string StrExpr(GenCtx* ctx) {
  Rng* rng = ctx->rng;
  int pick = rng->Int(0, 9);
  if (pick < 6 || ctx->depth > 2) return ColOfType(ctx, 's');
  if (pick < 8) return StrLit(rng);
  return "UPPER(" + ColOfType(ctx, 's') + ")";
}

// An uncorrelated single-row scalar subquery (aggregate over one table).
std::string ScalarSubq(GenCtx* ctx) {
  Rng* rng = ctx->rng;
  const TableModel& t = kTables[rng->Int(0, 1)];
  std::string alias = "S" + std::to_string(rng->Int(0, 99));
  static const char* kAggs[] = {"MIN", "MAX", "SUM", "COUNT"};
  const char* agg = kAggs[rng->Int(0, 3)];
  // Aggregate an int column for a stable integer-ish result.
  std::string col;
  for (int i = 0; i < t.ncols; ++i) {
    if (t.cols[i].type == 'i') col = alias + "." + t.cols[i].name;
  }
  return std::string("(SEL ") + agg + "(" + col + ") FROM " + t.name + " " +
         alias + ")";
}

std::string NumExpr(GenCtx* ctx) {
  Rng* rng = ctx->rng;
  int pick = rng->Int(0, 19);
  if (pick < 8 || ctx->depth > 2) {
    return ColOfType(ctx, rng->Chance(60) ? 'i' : 'd');
  }
  if (pick < 10) return IntLit(rng);
  if (pick < 11) return DecLit(rng);
  ++ctx->depth;
  std::string out;
  if (pick < 13) {
    out = "(" + NumExpr(ctx) + " + " + NumExpr(ctx) + ")";
  } else if (pick < 14) {
    out = "(" + NumExpr(ctx) + " - " + NumExpr(ctx) + ")";
  } else if (pick < 15) {
    out = "(" + ColOfType(ctx, rng->Chance(50) ? 'i' : 'd') + " * " +
          IntLit(rng) + ")";
  } else if (pick < 16) {
    out = "MOD(" + ColOfType(ctx, 'i') + ", " +
          std::to_string(rng->Int(2, 7)) + ")";
  } else if (pick < 17) {
    out = "EXTRACT(YEAR FROM " + ColOfType(ctx, 't') + ")";
  } else if (pick < 19) {
    out = "CASE WHEN " + Pred(ctx) + " THEN " + NumExpr(ctx) + " ELSE " +
          NumExpr(ctx) + " END";
  } else if (ctx->subq_budget > 0) {
    --ctx->subq_budget;
    out = ScalarSubq(ctx);
  } else {
    out = ColOfType(ctx, 'i');
  }
  --ctx->depth;
  return out;
}

const char* CompOp(Rng* rng) {
  static const char* kOps[] = {"=", "<>", "<", "<=", ">", ">="};
  return kOps[rng->Int(0, 5)];
}

// A correlated or membership subquery predicate. Negation is deliberately
// never generated around these: NOT IN / NOT(ANY) with NULLs in the
// subquery is a three-valued-logic minefield whose Teradata-vs-rewrite
// semantics deserve a dedicated (non-smoke) campaign.
std::string SubqPred(GenCtx* ctx) {
  Rng* rng = ctx->rng;
  const TableModel& t = kTables[rng->Int(0, 1)];
  std::string alias = "Q" + std::to_string(rng->Int(0, 99));
  std::string inner_int = alias + ".ID";
  std::string corr;
  if (!ctx->scope.empty()) {
    GenCtx inner = *ctx;
    corr = inner_int + " " + CompOp(rng) + " " + ColOfType(&inner, 'i');
  } else {
    corr = inner_int + " > " + IntLit(rng);
  }
  int pick = rng->Int(0, 3);
  if (pick == 0) {
    return "EXISTS (SEL " + alias + ".ID FROM " + t.name + " " + alias +
           " WHERE " + corr + ")";
  }
  std::string outer_col = ColOfType(ctx, 'i');
  if (pick == 1) {
    return outer_col + " IN (SEL " + inner_int + " FROM " + t.name + " " +
           alias + " WHERE " + corr + ")";
  }
  const char* quant = rng->Chance(50) ? "ANY" : "ALL";
  return outer_col + " " + std::string(CompOp(rng)) + " " + quant + " (SEL " +
         inner_int + " FROM " + t.name + " " + alias + " WHERE " + corr + ")";
}

std::string Pred(GenCtx* ctx) {
  Rng* rng = ctx->rng;
  int pick = rng->Int(0, 19);
  if (ctx->depth > 2) pick = rng->Int(0, 9);
  ++ctx->depth;
  std::string out;
  if (pick < 5) {
    out = "(" + NumExpr(ctx) + " " + CompOp(rng) + " " +
          (rng->Chance(60) ? NumExpr(ctx) : IntLit(rng)) + ")";
  } else if (pick < 7) {
    out = "(" + DateExpr(ctx) + " " + CompOp(rng) + " " + DateExpr(ctx) + ")";
  } else if (pick < 8) {
    out = "(" + StrExpr(ctx) + " " + (rng->Chance(70) ? "=" : "<>") + " " +
          StrLit(rng) + ")";
  } else if (pick < 9) {
    out = "(" + ColOfType(ctx, rng->Chance(50) ? 'i' : 's') +
          (rng->Chance(50) ? " IS NULL)" : " IS NOT NULL)");
  } else if (pick < 10) {
    std::string lo = IntLit(rng);
    std::string hi = std::to_string(rng->Int(5, 15));
    out = "(" + ColOfType(ctx, 'i') + " BETWEEN " + lo + " AND " + hi + ")";
  } else if (pick < 11) {
    out = "(" + ColOfType(ctx, 's') + " LIKE " +
          (rng->Chance(50) ? "'A%'" : "'%A%'") + ")";
  } else if (pick < 12) {
    out = "(" + ColOfType(ctx, 'i') + " IN (" + IntLit(rng) + ", " +
          IntLit(rng) + ", " + IntLit(rng) + "))";
  } else if (pick < 13) {
    out = "(NOT (" + NumExpr(ctx) + " " + CompOp(rng) + " " + IntLit(rng) +
          "))";
  } else if (pick < 15) {
    out = "(" + Pred(ctx) + (rng->Chance(60) ? " AND " : " OR ") + Pred(ctx) +
          ")";
  } else if (pick < 17 && ctx->subq_budget > 0) {
    --ctx->subq_budget;
    out = SubqPred(ctx);
  } else {
    out = "(" + ColOfType(ctx, 'd') + " > " + DecLit(rng) + ")";
  }
  --ctx->depth;
  return out;
}

std::string AggCall(GenCtx* ctx) {
  Rng* rng = ctx->rng;
  int pick = rng->Int(0, 5);
  if (pick == 0) return "COUNT(*)";
  char type = rng->Chance(50) ? 'i' : 'd';
  std::string col = ColOfType(ctx, type);
  switch (pick) {
    case 1:
      return "SUM(" + col + ")";
    case 2:
      return "MIN(" + col + ")";
    case 3:
      return "MAX(" + col + ")";
    case 4:
      return "COUNT(" + col + ")";
    default:
      return "COUNT(DISTINCT " + col + ")";
  }
}

// Generates one SELECT block (no set operation); `sig` is the output type
// signature to honor (empty = free choice, filled with the choice made).
void GenBlock(GenCtx* ctx, QuerySpec* spec, std::vector<char>* sig,
              int table_pick, int alias_base) {
  Rng* rng = ctx->rng;
  const TableModel& base = kTables[table_pick];
  spec->table = base.name;
  spec->alias = "A" + std::to_string(alias_base);
  ctx->scope.push_back({spec->alias, &base});

  // Joins (0-2). LEFT joins introduce NULLs on the right side, which is
  // exactly the sort-order/three-valued-logic surface the dialects differ
  // on — keep them common.
  int njoins = rng->Chance(55) ? rng->Int(1, 2) : 0;
  for (int j = 0; j < njoins; ++j) {
    QuerySpec::Join join;
    const TableModel& jt = kTables[rng->Int(0, 1)];
    join.kind = rng->Chance(50) ? "INNER JOIN" : "LEFT JOIN";
    join.table = jt.name;
    join.alias = "A" + std::to_string(alias_base + j + 1);
    // Equi-join on int columns keeps result sizes civilized.
    std::string left_col = ColOfType(ctx, 'i');
    ctx->scope.push_back({join.alias, &jt});
    std::string right_col;
    for (int i = 0; i < jt.ncols; ++i) {
      if (jt.cols[i].type == 'i') right_col = join.alias + "." + jt.cols[i].name;
    }
    join.on = left_col + " = " + right_col;
    spec->joins.push_back(std::move(join));
  }

  bool grouped = rng->Chance(30);
  if (grouped && !sig->empty()) {
    // Right operand of a set operation under a fixed output signature:
    // group keys supply the typed slots, aggregates the numeric ones.
    for (char t : *sig) {
      if (t == 'n') {
        spec->select_items.push_back(AggCall(ctx));
        continue;
      }
      char want = (t == 's') ? 's' : (t == 't') ? 't' : 'i';
      std::string expr = ColOfType(ctx, want);
      bool dup = false;
      for (const auto& e : spec->group_by) dup = dup || e == expr;
      if (!dup) spec->group_by.push_back(expr);
      spec->select_items.push_back(expr);
    }
    if (rng->Chance(35)) {
      spec->having = "(" + AggCall(ctx) + " " + CompOp(rng) + " " +
                     std::to_string(rng->Int(0, 20)) + ")";
    }
  } else if (grouped) {
    int ngroups = rng->Int(1, 2);
    for (int g = 0; g < ngroups; ++g) {
      char t = rng->Chance(60) ? 's' : 'i';
      std::string expr = ColOfType(ctx, t);
      // Distinct group exprs only; duplicates confuse nothing but waste.
      bool dup = false;
      for (const auto& e : spec->group_by) dup = dup || e == expr;
      if (dup) continue;
      spec->group_by.push_back(expr);
      spec->select_items.push_back(expr);
      sig->push_back(t);
    }
    int naggs = rng->Int(1, 2);
    for (int a = 0; a < naggs; ++a) {
      spec->select_items.push_back(AggCall(ctx));
      sig->push_back('n');
    }
    if (rng->Chance(35)) {
      spec->having = "(" + AggCall(ctx) + " " + CompOp(rng) + " " +
                     std::to_string(rng->Int(0, 20)) + ")";
    }
  } else {
    spec->distinct = rng->Chance(20);
    if (!sig->empty()) {
      // Honor the set-operation signature of the left operand.
      for (char t : *sig) {
        switch (t) {
          case 'i':
          case 'n':
            spec->select_items.push_back(NumExpr(ctx));
            break;
          case 's':
            spec->select_items.push_back(StrExpr(ctx));
            break;
          case 't':
            spec->select_items.push_back(DateExpr(ctx));
            break;
          default:
            spec->select_items.push_back(ColOfType(ctx, 'd'));
        }
      }
    } else {
      int nitems = rng->Int(1, 4);
      for (int i = 0; i < nitems; ++i) {
        int tp = rng->Int(0, 9);
        if (tp < 5) {
          spec->select_items.push_back(NumExpr(ctx));
          sig->push_back('n');
        } else if (tp < 7) {
          spec->select_items.push_back(StrExpr(ctx));
          sig->push_back('s');
        } else if (tp < 9) {
          spec->select_items.push_back(DateExpr(ctx));
          sig->push_back('t');
        } else {
          spec->select_items.push_back(
              "CASE WHEN " + Pred(ctx) + " THEN " + StrLit(rng) +
              " ELSE " + StrLit(rng) + " END");
          sig->push_back('s');
        }
      }
    }
  }

  int nwhere = rng->Chance(75) ? rng->Int(1, 3) : 0;
  for (int w = 0; w < nwhere; ++w) spec->where.push_back(Pred(ctx));
}

}  // namespace

std::string QuerySpec::ToSql() const {
  std::string sql = "SEL ";
  if (distinct) sql += "DISTINCT ";
  if (top >= 0) sql += "TOP " + std::to_string(top) + " ";
  for (size_t i = 0; i < select_items.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += select_items[i] + " AS C" + std::to_string(i + 1);
  }
  sql += " FROM " + table + " " + alias;
  for (const auto& j : joins) {
    sql += " " + j.kind + " " + j.table + " " + j.alias + " ON " + j.on;
  }
  if (!where.empty()) {
    sql += " WHERE ";
    for (size_t i = 0; i < where.size(); ++i) {
      if (i > 0) sql += " AND ";
      sql += where[i];
    }
  }
  if (!group_by.empty()) {
    sql += " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += group_by[i];
    }
  }
  if (!having.empty()) sql += " HAVING " + having;
  if (!setop_kw.empty() && setop_right != nullptr) {
    sql += " " + setop_kw + " " + setop_right->ToSql();
  }
  if (!order_by.empty()) {
    sql += " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += order_by[i];
    }
  }
  return sql;
}

int QuerySpec::ClauseCount() const {
  int n = static_cast<int>(joins.size() + where.size() + group_by.size() +
                           order_by.size());
  n += static_cast<int>(select_items.size()) - 1;
  if (!having.empty()) ++n;
  if (top >= 0) ++n;
  if (setop_right != nullptr) n += 1 + setop_right->ClauseCount();
  return n;
}

QuerySpec QuerySpec::Clone() const {
  QuerySpec out;
  out.table = table;
  out.alias = alias;
  out.joins = joins;
  out.distinct = distinct;
  out.top = top;
  out.select_items = select_items;
  out.where = where;
  out.group_by = group_by;
  out.having = having;
  out.order_by = order_by;
  out.setop_kw = setop_kw;
  if (setop_right != nullptr) {
    out.setop_right = std::make_unique<QuerySpec>(setop_right->Clone());
  }
  return out;
}

std::vector<std::string> SchemaDdl() {
  return {
      "CREATE TABLE FZ_T0 (ID INTEGER, GRP VARCHAR(10), AMT DECIMAL(12,2), "
      "QTY INTEGER, D DATE)",
      "CREATE TABLE FZ_T1 (ID INTEGER, REF INTEGER, NAME VARCHAR(20), "
      "PRICE DECIMAL(10,2), D DATE)",
  };
}

std::vector<std::string> DataDml(uint64_t seed, int rows0, int rows1) {
  Rng rng(seed * 0xD1B54A32D192ED03ULL + 17);
  std::vector<std::string> out;
  auto maybe_null = [&](const std::string& v, int null_pct) {
    return rng.Chance(null_pct) ? std::string("NULL") : v;
  };
  static const char* kGroups[] = {"'ALPHA'", "'BETA'", "'GAMMA'", "'A'"};
  for (int i = 0; i < rows0; ++i) {
    std::string grp = maybe_null(kGroups[rng.Int(0, 3)], 20);
    std::string amt = maybe_null(
        std::to_string(rng.Int(1, 40)) + "." + std::to_string(rng.Int(0, 9)) +
            "5",
        20);
    std::string qty = maybe_null(std::to_string(rng.Int(0, 9)), 20);
    char d[16];
    std::snprintf(d, sizeof(d), "2024-%02d-%02d", rng.Int(1, 3),
                  rng.Int(1, 28));
    std::string date = maybe_null(std::string("DATE '") + d + "'", 15);
    out.push_back("INS INTO FZ_T0 VALUES (" + std::to_string(i + 1) + ", " +
                  grp + ", " + amt + ", " + qty + ", " + date + ")");
  }
  static const char* kNames[] = {"'ALPHA'", "'DELTA'", "'OMEGA'", "'B'"};
  for (int i = 0; i < rows1; ++i) {
    std::string ref = maybe_null(std::to_string(rng.Int(1, 10)), 25);
    std::string name = maybe_null(kNames[rng.Int(0, 3)], 20);
    std::string price = maybe_null(
        std::to_string(rng.Int(1, 90)) + "." + std::to_string(rng.Int(0, 9)) +
            "0",
        20);
    char d[16];
    std::snprintf(d, sizeof(d), "2024-%02d-%02d", rng.Int(1, 3),
                  rng.Int(1, 28));
    std::string date = maybe_null(std::string("DATE '") + d + "'", 15);
    out.push_back("INS INTO FZ_T1 VALUES (" + std::to_string(i + 1) + ", " +
                  ref + ", " + name + ", " + price + ", " + date + ")");
  }
  return out;
}

QuerySpec GenerateQuery(uint64_t seed, uint64_t index) {
  // Decorrelate the (seed, index) pair into one stream position.
  Rng rng(seed ^ (index * 0xBF58476D1CE4E5B9ULL + 0x94D049BB133111EBULL));
  QuerySpec spec;
  GenCtx ctx;
  ctx.rng = &rng;
  std::vector<char> sig;
  GenBlock(&ctx, &spec, &sig, rng.Int(0, 1), 0);

  // Set operation (both operands share the output type signature). TOP and
  // ORDER BY stay off set-operation queries: their binding scope over the
  // combined output is target-specific, and multiset comparison does not
  // need them.
  if (spec.group_by.empty() && rng.Chance(18)) {
    static const char* kOps[] = {"UNION", "UNION ALL", "INTERSECT", "MINUS"};
    spec.setop_kw = kOps[rng.Int(0, 3)];
    auto right = std::make_unique<QuerySpec>();
    GenCtx rctx;
    rctx.rng = &rng;
    std::vector<char> rsig = sig;
    GenBlock(&rctx, right.get(), &rsig, rng.Int(0, 1), 10);
    spec.setop_right = std::move(right);
    return spec;
  }

  // ORDER BY over select-item expressions (valid under DISTINCT too).
  if (rng.Chance(45)) {
    int nord = rng.Int(1, static_cast<int>(spec.select_items.size()));
    bool limited = spec.group_by.empty() && rng.Chance(30);
    if (limited) {
      // A row limit needs a total order to stay deterministic across
      // dialects: order by EVERY select item with explicit NULLS placement
      // (the NULL-ordering defaults are exactly where dialects diverge).
      nord = static_cast<int>(spec.select_items.size());
      spec.top = rng.Int(1, 12);
    }
    for (int i = 0; i < nord; ++i) {
      const std::string& e = spec.select_items[i];
      if (e.rfind("COUNT", 0) == 0 || e.rfind("SUM", 0) == 0 ||
          e.rfind("MIN", 0) == 0 || e.rfind("MAX", 0) == 0) {
        continue;  // order by group keys only in aggregate queries
      }
      // A bare integer literal in ORDER BY is an *ordinal*, not the
      // constant expression — skip those items (a constant cannot affect
      // the ordering anyway, so a TOP total order survives the skip).
      if (e.find_first_not_of("0123456789") == std::string::npos) continue;
      std::string item = e;
      item += rng.Chance(40) ? " DESC" : " ASC";
      if (spec.top >= 0) {
        item += rng.Chance(50) ? " NULLS FIRST" : " NULLS LAST";
      }
      spec.order_by.push_back(std::move(item));
    }
    if (spec.order_by.empty()) spec.top = -1;
  }
  return spec;
}

std::string GeneratePredicate(const QuerySpec& spec, uint64_t seed,
                              uint64_t index) {
  Rng rng(seed ^ (index * 0x94D049BB133111EBULL + 0x2545F4914F6CDD1DULL));
  GenCtx ctx;
  ctx.rng = &rng;
  // TLP negates p, and negated subquery predicates stay out of the smoke
  // grammar (see SubqPred): a rewrite of IN/ANY into EXISTS is only valid
  // in a positive context.
  ctx.subq_budget = 0;
  auto add_scope = [&ctx](const std::string& table, const std::string& alias) {
    for (const TableModel& t : kTables) {
      if (table == t.name) ctx.scope.push_back({alias, &t});
    }
  };
  add_scope(spec.table, spec.alias);
  for (const auto& j : spec.joins) add_scope(j.table, j.alias);
  return Pred(&ctx);
}

}  // namespace hyperq::fuzz
