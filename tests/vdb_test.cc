// Target-engine (vdb) semantics tests: the ANSI surface Hyper-Q's
// serializer emits must behave like a real warehouse.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

#include "vdb/engine.h"

namespace hyperq::vdb {
namespace {

class VdbTest : public ::testing::Test {
 protected:
  QueryResult Must(const std::string& sql) {
    auto r = engine_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status();
    QueryResult result = r.ok() ? std::move(r).value() : QueryResult{};
    // These tests assert on datum rows; rowsets now arrive as columnar
    // chunks (DESIGN.md §15), so materialize via the row shim.
    result.EnsureRows();
    return result;
  }
  Status Fails(const std::string& sql) {
    auto r = engine_.Execute(sql);
    EXPECT_FALSE(r.ok()) << sql;
    return r.ok() ? Status::OK() : r.status();
  }
  Engine engine_;
};

TEST_F(VdbTest, CreateInsertSelect) {
  Must("CREATE TABLE t (a INTEGER, b VARCHAR(10))");
  Must("INSERT INTO t VALUES (1, 'x'), (2, 'y')");
  auto r = Must("SELECT a, b FROM t ORDER BY a DESC");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].int_val(), 2);
  EXPECT_EQ(r.columns[0].name, "A");  // vdb folds names to upper
}

TEST_F(VdbTest, DuplicateTableRejected) {
  Must("CREATE TABLE t (a INTEGER)");
  Fails("CREATE TABLE t (a INTEGER)");
}

TEST_F(VdbTest, NotNullEnforced) {
  Must("CREATE TABLE t (a INTEGER NOT NULL)");
  Fails("INSERT INTO t VALUES (NULL)");
}

TEST_F(VdbTest, UpdateAndDelete) {
  Must("CREATE TABLE t (a INTEGER, b INTEGER)");
  Must("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)");
  auto u = Must("UPDATE t SET b = b + 1 WHERE a >= 2");
  EXPECT_EQ(u.affected_rows, 2);
  auto d = Must("DELETE FROM t WHERE b = 21");
  EXPECT_EQ(d.affected_rows, 1);
  EXPECT_EQ(Must("SELECT COUNT(*) FROM t").rows[0][0].int_val(), 2);
}

TEST_F(VdbTest, ThreeValuedLogic) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("INSERT INTO t VALUES (1), (NULL), (3)");
  // NULL comparisons drop rows in WHERE.
  EXPECT_EQ(Must("SELECT a FROM t WHERE a > 0").rows.size(), 2u);
  EXPECT_EQ(Must("SELECT a FROM t WHERE NOT (a > 0)").rows.size(), 0u);
  EXPECT_EQ(Must("SELECT a FROM t WHERE a IS NULL").rows.size(), 1u);
  // Aggregates skip NULLs; COUNT(*) does not.
  auto r = Must("SELECT COUNT(*), COUNT(a), SUM(a) FROM t");
  EXPECT_EQ(r.rows[0][0].int_val(), 3);
  EXPECT_EQ(r.rows[0][1].int_val(), 2);
  EXPECT_EQ(r.rows[0][2].int_val(), 4);
}

TEST_F(VdbTest, GlobalAggregateOverEmptyInput) {
  Must("CREATE TABLE t (a INTEGER)");
  auto r = Must("SELECT COUNT(*), SUM(a), MIN(a) FROM t");
  EXPECT_EQ(r.rows[0][0].int_val(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_TRUE(r.rows[0][2].is_null());
  // Grouped aggregate over empty input returns no rows.
  EXPECT_EQ(Must("SELECT a, COUNT(*) FROM t GROUP BY a").rows.size(), 0u);
}

TEST_F(VdbTest, GroupByWithHaving) {
  Must("CREATE TABLE t (g INTEGER, v INTEGER)");
  Must("INSERT INTO t VALUES (1, 5), (1, 7), (2, 1), (2, 2), (3, 100)");
  auto r = Must(
      "SELECT g, SUM(v) AS total FROM t GROUP BY g HAVING SUM(v) > 3 "
      "ORDER BY total DESC");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].int_val(), 3);
  EXPECT_EQ(r.rows[1][1].int_val(), 12);
}

TEST_F(VdbTest, DistinctAggregates) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("INSERT INTO t VALUES (1), (1), (2), (2), (3)");
  auto r = Must("SELECT COUNT(DISTINCT a), SUM(DISTINCT a) FROM t");
  EXPECT_EQ(r.rows[0][0].int_val(), 3);
  EXPECT_EQ(r.rows[0][1].int_val(), 6);
}

TEST_F(VdbTest, JoinFamily) {
  Must("CREATE TABLE l (k INTEGER, lv VARCHAR(4))");
  Must("CREATE TABLE r (k INTEGER, rv VARCHAR(4))");
  Must("INSERT INTO l VALUES (1, 'a'), (2, 'b'), (3, 'c')");
  Must("INSERT INTO r VALUES (2, 'x'), (3, 'y'), (4, 'z')");
  EXPECT_EQ(Must("SELECT * FROM l INNER JOIN r ON l.k = r.k").rows.size(),
            2u);
  auto left = Must(
      "SELECT l.k, rv FROM l LEFT JOIN r ON l.k = r.k ORDER BY l.k");
  ASSERT_EQ(left.rows.size(), 3u);
  EXPECT_TRUE(left.rows[0][1].is_null());  // k=1 unmatched
  auto right = Must(
      "SELECT lv, r.k FROM l RIGHT JOIN r ON l.k = r.k ORDER BY r.k");
  ASSERT_EQ(right.rows.size(), 3u);
  EXPECT_TRUE(right.rows[2][0].is_null());  // k=4 unmatched
  EXPECT_EQ(Must("SELECT * FROM l FULL JOIN r ON l.k = r.k").rows.size(),
            4u);
  EXPECT_EQ(Must("SELECT * FROM l CROSS JOIN r").rows.size(), 9u);
}

TEST_F(VdbTest, NullJoinKeysNeverMatch) {
  Must("CREATE TABLE l (k INTEGER)");
  Must("CREATE TABLE r (k INTEGER)");
  Must("INSERT INTO l VALUES (NULL), (1)");
  Must("INSERT INTO r VALUES (NULL), (1)");
  EXPECT_EQ(Must("SELECT * FROM l INNER JOIN r ON l.k = r.k").rows.size(),
            1u);
  // FULL JOIN keeps both null-key rows unmatched.
  EXPECT_EQ(Must("SELECT * FROM l FULL JOIN r ON l.k = r.k").rows.size(),
            3u);
}

TEST_F(VdbTest, SetOperations) {
  Must("CREATE TABLE a (x INTEGER)");
  Must("CREATE TABLE b (x INTEGER)");
  Must("INSERT INTO a VALUES (1), (2), (2), (3)");
  Must("INSERT INTO b VALUES (2), (3), (4)");
  EXPECT_EQ(Must("(SELECT x FROM a) UNION ALL (SELECT x FROM b)")
                .rows.size(),
            7u);
  EXPECT_EQ(Must("(SELECT x FROM a) UNION (SELECT x FROM b)").rows.size(),
            4u);
  EXPECT_EQ(Must("(SELECT x FROM a) INTERSECT (SELECT x FROM b)")
                .rows.size(),
            2u);
  EXPECT_EQ(Must("(SELECT x FROM a) EXCEPT (SELECT x FROM b)").rows.size(),
            1u);
}

// UNION ALL keeps each operand's chunks, so one column can arrive in
// different physical kinds; sorting concatenates them.
TEST_F(VdbTest, UnionAllOfMixedTypesSorts) {
  Must("CREATE TABLE x (i INTEGER)");
  Must("CREATE TABLE d (v DECIMAL(6,2))");
  Must("INSERT INTO x VALUES (2), (NULL), (1)");
  Must("INSERT INTO d VALUES (1.50)");
  auto r = Must(
      "SELECT w FROM (SELECT i AS w FROM x UNION ALL SELECT v AS w FROM d) q "
      "ORDER BY w");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0][0].ToString(), "1");
  EXPECT_EQ(r.rows[1][0].ToString(), "1.50");
  EXPECT_EQ(r.rows[2][0].ToString(), "2");
  EXPECT_TRUE(r.rows[3][0].is_null());
}

TEST_F(VdbTest, OrderByNullsPlacement) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("INSERT INTO t VALUES (2), (NULL), (1)");
  // vdb default: NULLs sort high (last ascending).
  auto dflt = Must("SELECT a FROM t ORDER BY a");
  EXPECT_TRUE(dflt.rows[2][0].is_null());
  auto first = Must("SELECT a FROM t ORDER BY a NULLS FIRST");
  EXPECT_TRUE(first.rows[0][0].is_null());
  auto desc_last = Must("SELECT a FROM t ORDER BY a DESC NULLS LAST");
  EXPECT_TRUE(desc_last.rows[2][0].is_null());
  EXPECT_EQ(desc_last.rows[0][0].int_val(), 2);
}

TEST_F(VdbTest, WindowFunctions) {
  Must("CREATE TABLE t (g INTEGER, v INTEGER)");
  Must("INSERT INTO t VALUES (1, 10), (1, 20), (1, 20), (2, 5)");
  auto r = Must(
      "SELECT g, v, RANK() OVER (PARTITION BY g ORDER BY v DESC) AS rnk, "
      "ROW_NUMBER() OVER (PARTITION BY g ORDER BY v DESC) AS rn, "
      "SUM(v) OVER (PARTITION BY g) AS total FROM t ORDER BY g, v DESC, rn");
  ASSERT_EQ(r.rows.size(), 4u);
  // Group 1: ties at v=20 share rank 1; next rank is 3.
  EXPECT_EQ(r.rows[0][2].int_val(), 1);
  EXPECT_EQ(r.rows[1][2].int_val(), 1);
  EXPECT_EQ(r.rows[2][2].int_val(), 3);
  EXPECT_EQ(r.rows[0][4].int_val(), 50);
  EXPECT_EQ(r.rows[3][4].int_val(), 5);
  // Row numbers are unique within the partition.
  EXPECT_NE(r.rows[0][3].int_val(), r.rows[1][3].int_val());
}

TEST_F(VdbTest, RunningWindowAggregate) {
  Must("CREATE TABLE t (v INTEGER)");
  Must("INSERT INTO t VALUES (1), (2), (3)");
  auto r = Must(
      "SELECT v, SUM(v) OVER (ORDER BY v) AS run FROM t ORDER BY v");
  EXPECT_EQ(r.rows[0][1].int_val(), 1);
  EXPECT_EQ(r.rows[1][1].int_val(), 3);
  EXPECT_EQ(r.rows[2][1].int_val(), 6);
}

TEST_F(VdbTest, CorrelatedSubqueries) {
  Must("CREATE TABLE emp (id INTEGER, dept INTEGER, sal INTEGER)");
  Must("INSERT INTO emp VALUES (1, 10, 100), (2, 10, 200), (3, 20, 50)");
  auto r = Must(
      "SELECT id FROM emp e WHERE sal = (SELECT MAX(sal) FROM emp e2 "
      "WHERE e2.dept = e.dept) ORDER BY id");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].int_val(), 2);
  EXPECT_EQ(r.rows[1][0].int_val(), 3);
  EXPECT_EQ(Must("SELECT id FROM emp WHERE EXISTS (SELECT 1 FROM emp e2 "
                 "WHERE e2.sal > emp.sal)")
                .rows.size(),
            2u);
  EXPECT_EQ(Must("SELECT id FROM emp WHERE dept IN (SELECT dept FROM emp "
                 "WHERE sal > 150)")
                .rows.size(),
            2u);
}

// Aggregate output is a batch like any other operator's: sorting, joining
// and windowing over a GROUP BY must see the grouped rows.
TEST_F(VdbTest, GroupedOutputFeedsSortJoinAndWindow) {
  Must("CREATE TABLE s (g INTEGER, v INTEGER)");
  Must("CREATE TABLE names (g INTEGER, name VARCHAR(8))");
  Must("INSERT INTO s VALUES (1, 5), (1, 7), (2, 1), (3, 4), (3, 4), "
       "(NULL, 9)");
  Must("INSERT INTO names VALUES (1, 'one'), (2, 'two'), (3, 'three')");
  auto sorted = Must(
      "SELECT g, SUM(v) AS total FROM s GROUP BY g ORDER BY total DESC");
  ASSERT_EQ(sorted.rows.size(), 4u);
  EXPECT_EQ(sorted.rows[0][1].int_val(), 12);
  EXPECT_TRUE(sorted.rows[1][0].is_null());
  EXPECT_EQ(sorted.rows[2][0].int_val(), 3);
  EXPECT_EQ(sorted.rows[3][1].int_val(), 1);

  auto joined = Must(
      "SELECT n.name, a.total FROM (SELECT g, SUM(v) AS total FROM s "
      "GROUP BY g) a JOIN names n ON a.g = n.g ORDER BY n.name");
  ASSERT_EQ(joined.rows.size(), 3u);
  EXPECT_EQ(joined.rows[0][0].string_val(), "one");
  EXPECT_EQ(joined.rows[0][1].int_val(), 12);
  EXPECT_EQ(joined.rows[1][0].string_val(), "three");
  EXPECT_EQ(joined.rows[1][1].int_val(), 8);
  EXPECT_EQ(joined.rows[2][1].int_val(), 1);

  auto windowed = Must(
      "SELECT g, total, RANK() OVER (ORDER BY total DESC) AS rnk FROM "
      "(SELECT g, SUM(v) AS total FROM s GROUP BY g) a "
      "ORDER BY g NULLS FIRST");
  ASSERT_EQ(windowed.rows.size(), 4u);
  EXPECT_TRUE(windowed.rows[0][0].is_null());
  EXPECT_EQ(windowed.rows[0][2].int_val(), 2);  // total 9
  EXPECT_EQ(windowed.rows[1][2].int_val(), 1);  // g 1, total 12
  EXPECT_EQ(windowed.rows[2][2].int_val(), 4);  // g 2, total 1
  EXPECT_EQ(windowed.rows[3][2].int_val(), 3);  // g 3, total 8
}

// Correlated subplans run on the same batch operators as top-level plans,
// with outer references broadcast as constants per outer row.
class VdbCorrelatedTest : public VdbTest {
 protected:
  void SetUp() override {
    Must("CREATE TABLE o (id INTEGER, g INTEGER)");
    Must("CREATE TABLE i (g INTEGER, v INTEGER)");
    Must("INSERT INTO o VALUES (1, 1), (2, 2), (3, 3), (4, NULL)");
    Must("INSERT INTO i VALUES (1, 10), (1, 10), (1, 20), (2, 5), (3, 7), "
         "(3, 7)");
  }

  // Renders column 1 of an `id, value` result ordered by id.
  std::string Column1(const std::string& sql) {
    std::string out;
    for (const auto& row : Must(sql).rows) {
      if (!out.empty()) out += ',';
      out += row[1].ToString();
    }
    return out;
  }
};

TEST_F(VdbCorrelatedTest, SubplanWithDistinct) {
  EXPECT_EQ(Column1("SELECT id, (SELECT DISTINCT v FROM i WHERE i.g = o.g "
                    "AND i.v < 15) AS x FROM o ORDER BY id"),
            "10,5,7,NULL");
}

TEST_F(VdbCorrelatedTest, SubplanWithNonEquiJoin) {
  EXPECT_EQ(Column1("SELECT id, (SELECT COUNT(*) FROM i a JOIN i b "
                    "ON a.v < b.v WHERE a.g = o.g AND b.g = o.g) AS n "
                    "FROM o ORDER BY id"),
            "2,0,0,0");
}

TEST_F(VdbCorrelatedTest, SubplanWithIntersectAndExcept) {
  auto intersect = Must(
      "SELECT id FROM o WHERE EXISTS (SELECT v FROM i WHERE i.g = o.g "
      "INTERSECT SELECT v FROM i WHERE i.v < 10) ORDER BY id");
  ASSERT_EQ(intersect.rows.size(), 2u);
  EXPECT_EQ(intersect.rows[0][0].int_val(), 2);
  EXPECT_EQ(intersect.rows[1][0].int_val(), 3);
  auto except = Must(
      "SELECT id FROM o WHERE EXISTS (SELECT v FROM i WHERE i.g = o.g "
      "EXCEPT SELECT v FROM i WHERE i.v < 10) ORDER BY id");
  ASSERT_EQ(except.rows.size(), 1u);
  EXPECT_EQ(except.rows[0][0].int_val(), 1);
}

TEST_F(VdbCorrelatedTest, SubplanWithGroupBy) {
  EXPECT_EQ(Column1("SELECT id, (SELECT SUM(v) FROM i WHERE i.g = o.g "
                    "GROUP BY i.g) AS s FROM o ORDER BY id"),
            "40,5,14,NULL");
}

TEST_F(VdbCorrelatedTest, SubplanWithOrderByAndLimit) {
  EXPECT_EQ(Column1("SELECT id, (SELECT v FROM i WHERE i.g = o.g "
                    "ORDER BY v DESC LIMIT 1) AS top_v FROM o ORDER BY id"),
            "20,5,7,NULL");
}

TEST_F(VdbCorrelatedTest, ScalarCardinalityErrorUnderCorrelation) {
  // Group 1 has three rows, so the per-row subplan must fail the query.
  Status s = Fails("SELECT id, (SELECT v FROM i WHERE i.g = o.g) FROM o");
  EXPECT_NE(s.message().find("more than one row"), std::string::npos) << s;
}

// The Q18 shape: an uncorrelated IN whose subplan is a grouped aggregate.
TEST_F(VdbCorrelatedTest, UncorrelatedInOverAggregate) {
  auto in = Must(
      "SELECT id FROM o WHERE g IN (SELECT g FROM i GROUP BY g "
      "HAVING SUM(v) > 10) ORDER BY id");
  ASSERT_EQ(in.rows.size(), 2u);
  EXPECT_EQ(in.rows[0][0].int_val(), 1);
  EXPECT_EQ(in.rows[1][0].int_val(), 3);
  // NOT IN: the NULL-keyed outer row is UNKNOWN, not true.
  auto not_in = Must(
      "SELECT id FROM o WHERE g NOT IN (SELECT g FROM i GROUP BY g "
      "HAVING SUM(v) > 10) ORDER BY id");
  ASSERT_EQ(not_in.rows.size(), 1u);
  EXPECT_EQ(not_in.rows[0][0].int_val(), 2);
}

TEST_F(VdbCorrelatedTest, InsertSelectFromAggregate) {
  Must("CREATE TABLE agg (g INTEGER, total INTEGER, n INTEGER)");
  EXPECT_EQ(Must("INSERT INTO agg SELECT g, SUM(v), COUNT(*) FROM i "
                 "GROUP BY g")
                .affected_rows,
            3);
  // A global aggregate over no rows still inserts its one neutral row.
  EXPECT_EQ(Must("INSERT INTO agg SELECT MAX(g), SUM(v), COUNT(*) FROM i "
                 "WHERE v > 100")
                .affected_rows,
            1);
  auto r = Must("SELECT g, total, n FROM agg ORDER BY g");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0][1].int_val(), 40);
  EXPECT_EQ(r.rows[0][2].int_val(), 3);
  EXPECT_EQ(r.rows[2][1].int_val(), 14);
  EXPECT_TRUE(r.rows[3][0].is_null());
  EXPECT_TRUE(r.rows[3][1].is_null());
  EXPECT_EQ(r.rows[3][2].int_val(), 0);
}

TEST_F(VdbTest, ScalarSubqueryCardinalityError) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("INSERT INTO t VALUES (1), (2)");
  Fails("SELECT (SELECT a FROM t) FROM t");
}

TEST_F(VdbTest, InSubqueryOverEmptySetIsFalseEvenForNull) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("CREATE TABLE u (b INTEGER)");
  Must("INSERT INTO t VALUES (1), (NULL)");
  Must("INSERT INTO u VALUES (1)");
  // The correlated subplan is empty for every row (b < NULL is UNKNOWN for
  // the NULL row), and x IN (empty) is false, so NOT IN keeps both rows.
  EXPECT_EQ(Must("SELECT a FROM t WHERE a NOT IN (SELECT b FROM u "
                 "WHERE b < t.a)")
                .rows.size(),
            2u);
  EXPECT_EQ(Must("SELECT a FROM t WHERE a IN (SELECT b FROM u WHERE b > 5)")
                .rows.size(),
            0u);
  EXPECT_EQ(Must("SELECT a FROM t WHERE a NOT IN (SELECT b FROM u "
                 "WHERE b > 5)")
                .rows.size(),
            2u);
  // A non-empty set keeps NULL IN (...) UNKNOWN.
  EXPECT_EQ(Must("SELECT a FROM t WHERE a NOT IN (SELECT b FROM u)")
                .rows.size(),
            0u);
}

// Strings compare blank-padded everywhere, including an IN over a subquery
// (whose exact-match index must agree with `=`).
TEST_F(VdbTest, InSubqueryStringsCompareBlankPadded) {
  Must("CREATE TABLE t (a VARCHAR(5))");
  Must("CREATE TABLE u (c VARCHAR(5))");
  Must("INSERT INTO t VALUES ('ab')");
  Must("INSERT INTO u VALUES ('ab  ')");
  EXPECT_EQ(Must("SELECT a FROM t WHERE a = (SELECT c FROM u)").rows.size(),
            1u);
  EXPECT_EQ(Must("SELECT a FROM t WHERE a IN (SELECT c FROM u)").rows.size(),
            1u);
  EXPECT_EQ(Must("SELECT a FROM t WHERE a NOT IN (SELECT c FROM u)")
                .rows.size(),
            0u);
}

TEST_F(VdbTest, InListNullSemantics) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("INSERT INTO t VALUES (1), (4)");
  // 4 NOT IN (1, NULL) is UNKNOWN, so only... nothing passes for 4.
  auto r = Must("SELECT a FROM t WHERE a NOT IN (1, NULL)");
  EXPECT_EQ(r.rows.size(), 0u);
  EXPECT_EQ(Must("SELECT a FROM t WHERE a IN (1, NULL)").rows.size(), 1u);
}

TEST_F(VdbTest, LikePatterns) {
  Must("CREATE TABLE t (s VARCHAR(20))");
  Must("INSERT INTO t VALUES ('hello'), ('help'), ('shell'), ('h_llo')");
  EXPECT_EQ(Must("SELECT s FROM t WHERE s LIKE 'hel%'").rows.size(), 2u);
  EXPECT_EQ(Must("SELECT s FROM t WHERE s LIKE '%ell%'").rows.size(), 2u);
  EXPECT_EQ(Must("SELECT s FROM t WHERE s LIKE 'h_llo'").rows.size(), 2u);
  EXPECT_EQ(Must("SELECT s FROM t WHERE s LIKE 'h!_llo' ESCAPE '!'")
                .rows.size(),
            1u);
  EXPECT_EQ(Must("SELECT s FROM t WHERE s NOT LIKE '%l%'").rows.size(), 0u);
}

TEST_F(VdbTest, StringFunctions) {
  auto r = Must(
      "SELECT LENGTH('abc  '), UPPER('mIx'), LOWER('mIx'), "
      "SUBSTR('abcdef', 2, 3), POSITION('cd', 'abcdef'), "
      "TRIM('  pad  '), COALESCE(NULL, 'x'), NULLIF(1, 1)");
  EXPECT_EQ(r.rows[0][0].int_val(), 3);  // CHAR semantics: blanks ignored
  EXPECT_EQ(r.rows[0][1].string_val(), "MIX");
  EXPECT_EQ(r.rows[0][2].string_val(), "mix");
  EXPECT_EQ(r.rows[0][3].string_val(), "bcd");
  EXPECT_EQ(r.rows[0][4].int_val(), 3);
  EXPECT_EQ(r.rows[0][5].string_val(), "pad");
  EXPECT_EQ(r.rows[0][6].string_val(), "x");
  EXPECT_TRUE(r.rows[0][7].is_null());
}

TEST_F(VdbTest, DateFunctions) {
  auto r = Must(
      "SELECT EXTRACT(YEAR FROM DATE '2014-06-15'), "
      "DATE_ADD_DAYS(DATE '2014-01-01', 31), "
      "DATE_DIFF_DAYS(DATE '2014-02-01', DATE '2014-01-01'), "
      "ADD_MONTHS(DATE '2014-01-31', 1)");
  EXPECT_EQ(r.rows[0][0].int_val(), 2014);
  EXPECT_EQ(r.rows[0][1].ToString(), "2014-02-01");
  EXPECT_EQ(r.rows[0][2].int_val(), 31);
  EXPECT_EQ(r.rows[0][3].ToString(), "2014-02-28");
}

TEST_F(VdbTest, ArithmeticErrors) {
  Fails("SELECT 1 / 0");
  Fails("SELECT MOD(5, 0)");
  Fails("SELECT LN(0.0)");
}

TEST_F(VdbTest, DecimalAggregationStaysExact) {
  Must("CREATE TABLE t (v DECIMAL(10,2))");
  Must("INSERT INTO t VALUES (0.10), (0.20), (0.30)");
  auto r = Must("SELECT SUM(v) FROM t");
  EXPECT_EQ(r.rows[0][0].decimal_val().ToString(), "0.60");
}

TEST_F(VdbTest, CaseExpression) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("INSERT INTO t VALUES (1), (5), (NULL)");
  auto r = Must(
      "SELECT CASE WHEN a < 3 THEN 'small' WHEN a IS NULL THEN 'none' "
      "ELSE 'big' END FROM t ORDER BY a NULLS LAST");
  EXPECT_EQ(r.rows[0][0].string_val(), "small");
  EXPECT_EQ(r.rows[1][0].string_val(), "big");
  EXPECT_EQ(r.rows[2][0].string_val(), "none");
}

TEST_F(VdbTest, DistinctSelect) {
  Must("CREATE TABLE t (a INTEGER, b INTEGER)");
  Must("INSERT INTO t VALUES (1, 1), (1, 1), (1, 2)");
  EXPECT_EQ(Must("SELECT DISTINCT a, b FROM t").rows.size(), 2u);
  EXPECT_EQ(Must("SELECT DISTINCT a FROM t").rows.size(), 1u);
}

TEST_F(VdbTest, LimitAndDerivedTables) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("INSERT INTO t VALUES (5), (3), (9), (1)");
  auto r = Must(
      "SELECT a FROM (SELECT a FROM t ORDER BY a DESC LIMIT 2) d ORDER BY "
      "a");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].int_val(), 5);
}

TEST_F(VdbTest, InsertSelectAndSelfRead) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("INSERT INTO t VALUES (1), (2)");
  // Self-referential INSERT ... SELECT reads a snapshot.
  auto r = Must("INSERT INTO t SELECT a + 10 FROM t");
  EXPECT_EQ(r.affected_rows, 2);
  EXPECT_EQ(Must("SELECT COUNT(*) FROM t").rows[0][0].int_val(), 4);
}

// A subquery over the DML target table sees the statement's starting
// state, even when it first runs after earlier rows were decided.
TEST_F(VdbTest, DmlSubqueriesSeeStatementStartState) {
  Must("CREATE TABLE t (a INTEGER, b INTEGER)");
  Must("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)");
  // Row 1 fails `a > 1`, so the subquery first runs for row 2.
  EXPECT_EQ(Must("DELETE FROM t WHERE a > 1 AND b < (SELECT MAX(t2.b) "
                 "FROM t t2 WHERE t2.a > t.a)")
                .affected_rows,
            1);
  Must("INSERT INTO t VALUES (4, 5)");
  // Row 1 is rewritten before the subquery first runs for row 3.
  EXPECT_EQ(Must("UPDATE t SET b = CASE WHEN a = 1 THEN 99 ELSE "
                 "(SELECT MAX(t2.b) FROM t t2 WHERE t2.a < t.a) END")
                .affected_rows,
            3);
  auto r = Must("SELECT a, b FROM t ORDER BY a");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][1].int_val(), 99);
  EXPECT_EQ(r.rows[1][1].int_val(), 10);  // MAX over a < 3 before the update
  EXPECT_EQ(r.rows[2][1].int_val(), 30);  // MAX over a < 4 before the update
}

TEST_F(VdbTest, RecursionRejectedNatively) {
  Must("CREATE TABLE t (a INTEGER)");
  Status s = Fails(
      "WITH RECURSIVE r (a) AS (SELECT a FROM t UNION ALL SELECT a FROM r) "
      "SELECT * FROM r");
  // The ANSI dialect parser refuses RECURSIVE — that is exactly the gap
  // Hyper-Q's emulation closes.
  EXPECT_TRUE(s.IsSyntaxError()) << s;
}

TEST_F(VdbTest, UnknownColumnAndTableErrors) {
  Must("CREATE TABLE t (a INTEGER)");
  EXPECT_TRUE(Fails("SELECT nope FROM t").IsBindError());
  EXPECT_TRUE(Fails("SELECT a FROM missing").IsCatalogError());
  EXPECT_TRUE(Fails("SELECT a FROM t WHERE FROB(a) = 1").IsBindError());
}

TEST_F(VdbTest, AmbiguousColumnRejected) {
  Must("CREATE TABLE x (k INTEGER)");
  Must("CREATE TABLE y (k INTEGER)");
  EXPECT_TRUE(Fails("SELECT k FROM x, y WHERE x.k = y.k").IsBindError());
}

// Parameterized sweep: ORDER BY direction x NULLS placement over the same
// data must produce the expected first element.
struct OrderCase {
  const char* order;
  const char* first;  // expected first value rendered
};

// Prints the ORDER BY suffix as one token ("DESC_NULLS_FIRST", "default")
// so the discovered ctest names do not carry the literals' addresses.
void PrintTo(const OrderCase& c, std::ostream* os) {
  std::string token = *c.order ? c.order : "default";
  std::replace(token.begin(), token.end(), ' ', '_');
  *os << token;
}

class VdbOrderSweep : public VdbTest,
                      public ::testing::WithParamInterface<OrderCase> {};

TEST_P(VdbOrderSweep, FirstRow) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("INSERT INTO t VALUES (2), (NULL), (1), (3)");
  auto r = Must(std::string("SELECT a FROM t ORDER BY a ") +
                GetParam().order);
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0][0].ToString(), GetParam().first);
}

INSTANTIATE_TEST_SUITE_P(
    Orders, VdbOrderSweep,
    ::testing::Values(OrderCase{"", "1"},
                      // NULLs sort high by default: DESC puts them first.
                      OrderCase{"DESC", "NULL"},
                      OrderCase{"NULLS FIRST", "NULL"},
                      OrderCase{"DESC NULLS FIRST", "NULL"},
                      OrderCase{"DESC NULLS LAST", "3"},
                      OrderCase{"NULLS LAST", "1"}));

}  // namespace
}  // namespace hyperq::vdb
