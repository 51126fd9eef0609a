#include "vdb/optimizer.h"

#include <unordered_set>

#include "transform/transformer.h"

namespace hyperq::vdb {

using xtra::Expr;
using xtra::ExprKind;
using xtra::ExprPtr;
using xtra::Op;
using xtra::OpKind;
using xtra::OpPtr;

namespace {

void FlattenCrossJoins(OpPtr tree, std::vector<OpPtr>* leaves) {
  if (tree->kind == OpKind::kJoin &&
      tree->join_kind == xtra::JoinKind::kCross) {
    FlattenCrossJoins(std::move(tree->children[0]), leaves);
    FlattenCrossJoins(std::move(tree->children[1]), leaves);
    return;
  }
  leaves->push_back(std::move(tree));
}

void SplitAnd(ExprPtr e, std::vector<ExprPtr>* out) {
  if (e->kind == ExprKind::kBool && e->boolk == xtra::BoolKind::kAnd) {
    for (auto& c : e->children) SplitAnd(std::move(c), out);
    return;
  }
  out->push_back(std::move(e));
}

// Flattens a (possibly left-nested binary) OR tree into its disjuncts.
void SplitOr(ExprPtr e, std::vector<ExprPtr>* out) {
  if (e->kind == ExprKind::kBool && e->boolk == xtra::BoolKind::kOr) {
    for (auto& c : e->children) SplitOr(std::move(c), out);
    return;
  }
  out->push_back(std::move(e));
}

// (a AND x) OR (a AND y)  ==>  a AND (x OR y): hoists conjuncts common to
// every OR branch so they can participate in join ordering (TPC-H Q19).
void FactorOrCommon(std::vector<ExprPtr>* conjuncts) {
  std::vector<ExprPtr> extracted;
  for (auto& c : *conjuncts) {
    if (c->kind != ExprKind::kBool || c->boolk != xtra::BoolKind::kOr) {
      continue;
    }
    std::vector<ExprPtr> disjuncts;
    SplitOr(std::move(c), &disjuncts);
    std::vector<std::vector<ExprPtr>> branches;
    for (auto& b : disjuncts) {
      std::vector<ExprPtr> parts;
      SplitAnd(std::move(b), &parts);
      branches.push_back(std::move(parts));
    }
    // Common = conjuncts of branch 0 present (structurally) in all others.
    std::vector<ExprPtr> common;
    for (auto& candidate : branches[0]) {
      if (!candidate) continue;
      bool everywhere = true;
      for (size_t bi = 1; bi < branches.size() && everywhere; ++bi) {
        bool found = false;
        for (const auto& other : branches[bi]) {
          if (other && xtra::ExprEquals(*candidate, *other)) found = true;
        }
        everywhere = found;
      }
      if (everywhere) common.push_back(candidate->Clone());
    }
    if (common.empty()) {
      // Rebuild the OR unchanged.
      std::vector<ExprPtr> rebuilt;
      for (auto& parts : branches) {
        rebuilt.push_back(xtra::Conjoin(std::move(parts)));
      }
      c = xtra::BoolOp(xtra::BoolKind::kOr, std::move(rebuilt));
      continue;
    }
    // Remove the common conjuncts from each branch and rebuild.
    std::vector<ExprPtr> rebuilt;
    for (auto& parts : branches) {
      std::vector<ExprPtr> rest;
      for (auto& p : parts) {
        bool is_common = false;
        for (const auto& cm : common) {
          if (xtra::ExprEquals(*p, *cm)) is_common = true;
        }
        if (!is_common) rest.push_back(std::move(p));
      }
      if (rest.empty()) rest.push_back(xtra::Const(Datum::Bool(true),
                                                   SqlType::Bool()));
      rebuilt.push_back(xtra::Conjoin(std::move(rest)));
    }
    c = xtra::BoolOp(xtra::BoolKind::kOr, std::move(rebuilt));
    for (auto& cm : common) extracted.push_back(std::move(cm));
  }
  for (auto& e : extracted) conjuncts->push_back(std::move(e));
}

bool HasSubquery(const Expr& e) {
  if (e.subplan) return true;
  for (const auto& c : e.children) {
    if (c && HasSubquery(*c)) return true;
  }
  for (const auto& [w, t] : e.when_then) {
    if (HasSubquery(*w) || HasSubquery(*t)) return true;
  }
  if (e.else_expr && HasSubquery(*e.else_expr)) return true;
  return false;
}

void CollectRefs(const Expr& e, std::unordered_set<int>* out) {
  if (e.kind == ExprKind::kColRef) out->insert(e.col_id);
  for (const auto& c : e.children) {
    if (c) CollectRefs(*c, out);
  }
  for (const auto& [w, t] : e.when_then) {
    CollectRefs(*w, out);
    CollectRefs(*t, out);
  }
  if (e.else_expr) CollectRefs(*e.else_expr, out);
  // Not descending into subplans: conjuncts with subqueries are pinned to
  // the top filter anyway.
}

std::unordered_set<int> OutputIds(const Op& op) {
  std::unordered_set<int> ids;
  for (const auto& c : op.output) ids.insert(c.id);
  return ids;
}

OpPtr MakeInnerJoin(OpPtr left, OpPtr right, std::vector<ExprPtr> conds) {
  auto join = std::make_unique<Op>(OpKind::kJoin);
  join->join_kind =
      conds.empty() ? xtra::JoinKind::kCross : xtra::JoinKind::kInner;
  join->output = left->output;
  join->output.insert(join->output.end(), right->output.begin(),
                      right->output.end());
  join->children.push_back(std::move(left));
  join->children.push_back(std::move(right));
  join->predicate = xtra::Conjoin(std::move(conds));
  return join;
}

// Rewrites Select over a cross-join tree.
OpPtr NormalizeSelectOverJoin(OpPtr select) {
  OpPtr join_tree = std::move(select->children[0]);
  ExprPtr predicate = std::move(select->predicate);
  std::vector<xtra::ColumnInfo> select_output = std::move(select->output);

  std::vector<OpPtr> leaves;
  FlattenCrossJoins(std::move(join_tree), &leaves);
  std::vector<ExprPtr> conjuncts;
  SplitAnd(std::move(predicate), &conjuncts);
  FactorOrCommon(&conjuncts);

  // Ids local to this tree.
  std::unordered_set<int> all_local;
  std::vector<std::unordered_set<int>> leaf_ids;
  for (const auto& leaf : leaves) {
    leaf_ids.push_back(OutputIds(*leaf));
    for (int id : leaf_ids.back()) all_local.insert(id);
  }

  // Classify conjuncts.
  struct Pending {
    ExprPtr expr;
    std::unordered_set<int> local_refs;  // refs ∩ all_local
  };
  std::vector<ExprPtr> top;       // stay above the joins
  std::vector<Pending> pending;   // join/leaf candidates
  for (auto& c : conjuncts) {
    if (HasSubquery(*c)) {
      top.push_back(std::move(c));
      continue;
    }
    std::unordered_set<int> refs;
    CollectRefs(*c, &refs);
    Pending p;
    p.expr = std::move(c);
    for (int id : refs) {
      if (all_local.count(id)) p.local_refs.insert(id);
    }
    pending.push_back(std::move(p));
  }

  auto covered_by = [](const std::unordered_set<int>& refs,
                       const std::unordered_set<int>& ids) {
    for (int r : refs) {
      if (!ids.count(r)) return false;
    }
    return true;
  };

  // 1. Push single-leaf conjuncts onto their leaves.
  for (size_t li = 0; li < leaves.size(); ++li) {
    std::vector<ExprPtr> mine;
    for (auto& p : pending) {
      if (p.expr && covered_by(p.local_refs, leaf_ids[li])) {
        mine.push_back(std::move(p.expr));
      }
    }
    if (!mine.empty()) {
      leaves[li] = xtra::Select(std::move(leaves[li]),
                                xtra::Conjoin(std::move(mine)));
    }
  }

  // 2. Greedy join ordering by connectivity.
  std::vector<bool> used(leaves.size(), false);
  OpPtr current = std::move(leaves[0]);
  std::unordered_set<int> current_ids = leaf_ids[0];
  used[0] = true;
  size_t joined = 1;
  while (joined < leaves.size()) {
    // Prefer a leaf connected to the current set via a pending conjunct.
    int pick = -1;
    for (size_t li = 0; li < leaves.size() && pick < 0; ++li) {
      if (used[li]) continue;
      std::unordered_set<int> combined = current_ids;
      for (int id : leaf_ids[li]) combined.insert(id);
      for (const auto& p : pending) {
        if (!p.expr) continue;
        if (covered_by(p.local_refs, combined) &&
            !covered_by(p.local_refs, current_ids) &&
            !covered_by(p.local_refs, leaf_ids[li])) {
          pick = static_cast<int>(li);
          break;
        }
      }
    }
    if (pick < 0) {
      for (size_t li = 0; li < leaves.size(); ++li) {
        if (!used[li]) {
          pick = static_cast<int>(li);
          break;
        }
      }
    }
    std::unordered_set<int> combined = current_ids;
    for (int id : leaf_ids[pick]) combined.insert(id);
    std::vector<ExprPtr> conds;
    for (auto& p : pending) {
      if (p.expr && covered_by(p.local_refs, combined)) {
        conds.push_back(std::move(p.expr));
      }
    }
    current = MakeInnerJoin(std::move(current), std::move(leaves[pick]),
                            std::move(conds));
    current_ids = std::move(combined);
    used[pick] = true;
    ++joined;
  }

  // 3. Residuals above the join tree.
  for (auto& p : pending) {
    if (p.expr) top.push_back(std::move(p.expr));
  }
  if (!top.empty()) {
    current = xtra::Select(std::move(current), xtra::Conjoin(std::move(top)));
    // A Select's output is cosmetic for the executor (it passes its child's
    // layout through); restore the original shape for parents.
    current->output = std::move(select_output);
  }
  // Without a residual filter the top is a Join whose output MUST stay in
  // left++right row order; parents reference columns by id, not position.
  return current;
}

// A filter whose conjuncts hold subqueries becomes a cascade: the other
// conjuncts first, as one filter (keeping an indexed Select-over-Get
// intact), then each subquery conjunct in order as its own filter. A
// subquery is then evaluated only for the rows the earlier filters kept, as
// a short-circuiting row-at-a-time AND would, instead of for every row of a
// vectorized AND.
OpPtr CascadeSubqueryConjuncts(OpPtr select) {
  std::vector<ExprPtr> conjuncts, plain;
  SplitAnd(std::move(select->predicate), &conjuncts);
  for (auto& c : conjuncts) {
    if (!HasSubquery(*c)) plain.push_back(std::move(c));
  }
  OpPtr current = std::move(select->children[0]);
  if (!plain.empty()) {
    current = xtra::Select(std::move(current), xtra::Conjoin(std::move(plain)));
  }
  for (auto& c : conjuncts) {
    if (c) current = xtra::Select(std::move(current), std::move(c));
  }
  current->output = std::move(select->output);
  return current;
}

bool IsCrossTree(const Op& op) {
  if (op.kind != OpKind::kJoin) return false;
  if (op.join_kind != xtra::JoinKind::kCross) return false;
  return true;
}

// Counts the conjuncts of `e` and notes whether any holds a subquery.
void ScanConjuncts(const Expr& e, size_t* count, bool* subquery) {
  if (e.kind == ExprKind::kBool && e.boolk == xtra::BoolKind::kAnd) {
    for (const auto& c : e.children) ScanConjuncts(*c, count, subquery);
    return;
  }
  ++*count;
  *subquery = *subquery || HasSubquery(e);
}

bool NeedsCascade(const Op& select) {
  size_t count = 0;
  bool subquery = false;
  ScanConjuncts(*select.predicate, &count, &subquery);
  return subquery && count > 1;
}

void OptimizeInPlace(OpPtr* op) {
  for (auto& child : (*op)->children) OptimizeInPlace(&child);
  transform::MutateExprs(op->get(), [&](ExprPtr* e) {
    if ((*e)->subplan) OptimizeInPlace(&(*e)->subplan);
  });
  if ((*op)->kind == OpKind::kSelect && !(*op)->post_window_filter &&
      (*op)->predicate != nullptr && IsCrossTree(*(*op)->children[0])) {
    *op = NormalizeSelectOverJoin(std::move(*op));
  }
  if ((*op)->kind == OpKind::kSelect &&
      !(*op)->post_window_filter && (*op)->predicate != nullptr &&
      NeedsCascade(**op)) {
    *op = CascadeSubqueryConjuncts(std::move(*op));
  }
}

}  // namespace

void OptimizePlan(OpPtr* plan) { OptimizeInPlace(plan); }

}  // namespace hyperq::vdb
