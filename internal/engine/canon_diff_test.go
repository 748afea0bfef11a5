package engine

import (
	"testing"

	"repro/internal/mview"
	"repro/internal/plan"
	"repro/internal/queries"
	"repro/internal/ref"
	"repro/internal/sqlparse"
)

// TestServiceMatchesRawText is the differential oracle for statement
// canonicalization. The service executes the canonical form — lifted,
// desugared, conjunct-sorted, possibly rewritten onto a view — while the
// reference executor runs the plan of the raw text as written. A
// canonicalization bug that changes a predicate (such as binding
// `a + b BETWEEN ...` to b alone) changes the rows the service returns
// and fails here, where a check on the canonical plan would share the
// bug.
func TestServiceMatchesRawText(t *testing.T) {
	cat := testCatalog(t)
	svc := NewService(cat, DefaultOptions(), 0)
	if _, err := svc.CreateView("rev", "select id, sum(price), count(*) from sales group by id", mview.RefreshIncremental); err != nil {
		t.Fatal(err)
	}
	var stmts []string
	for _, w := range queries.SQLSuite() {
		stmts = append(stmts, w.SQL)
	}
	stmts = append(stmts,
		// BETWEEN and IN, simple and compound operands, and the
		// comparison pairs a mis-binding rewrite would produce.
		"select count(*), sum(l_extendedprice) from lineitem where l_quantity between 5 and 20",
		"select count(*), sum(l_extendedprice) from lineitem where l_quantity + l_tax between 8 and 12",
		"select count(*), sum(l_extendedprice) from lineitem where l_quantity + l_tax >= 8 and l_tax <= 12",
		"select count(*) from lineitem where l_quantity * 2 between 10 and 30 and l_tax = 1",
		"select l_returnflag, count(*) from lineitem where l_quantity % 10 in (1, 2, 1) group by l_returnflag order by l_returnflag",
		"select count(*) from lineitem where l_quantity + l_tax in (10, 12, 10)",
		"select count(*), sum(l_quantity) from lineitem where l_returnflag in ('R', 'N', 'R') and l_linestatus in ('F')",
		// Negative literals and the unary-minus form.
		"select l_orderkey, sum(l_quantity) from lineitem where l_quantity - 30 > -5 and -l_tax < -2 group by l_orderkey order by l_orderkey limit 20",
		"select sum(-(l_quantity - -3)), count(*) from lineitem where 0 - l_discount > -4",
		// Parentheses the precedence needs; each pair must not share a
		// cache entry.
		"select count(*) from lineitem where l_quantity - (l_tax - 3) > 10",
		"select count(*) from lineitem where l_quantity - l_tax - 3 > 10",
		"select count(*) from lineitem where l_quantity * 12 / (2 * 3) < 20",
		"select count(*) from lineitem where l_quantity * 12 / 2 * 3 < 20",
		// Reordered and regrouped conjuncts.
		"select o_orderkey, sum(l_extendedprice) from lineitem, orders where o_orderdate < '1995-04-01' and o_orderkey = l_orderkey group by o_orderkey",
		"select count(*) from lineitem where (l_tax < 5 and l_quantity < 20) and (l_discount = 1 or l_discount = 2)",
		// View-served reads: range spellings and a duplicate-IN list.
		"select id, sum(price) as rev, count(*) as n from sales where id between 12 and 40 group by id order by id",
		"select id, sum(price) as rev, count(*) as n from sales where id <= 40 and id >= 12 group by id order by id",
		"select id, sum(price) as rev from sales where id in (3, 5, 3) group by id order by id",
	)
	rewrites := 0
	for _, workers := range []int{0, 4} {
		se := svc.NewSession()
		se.SetWorkers(workers)
		for _, sql := range stmts {
			p, res, err := se.Execute(sql, nil)
			if err != nil {
				t.Fatalf("workers=%d %q: %v", workers, sql, err)
			}
			if p.Rewrite != nil {
				rewrites++
			}
			q, err := sqlparse.Parse(sql)
			if err != nil {
				t.Fatalf("parse %q: %v", sql, err)
			}
			pl, err := plan.Plan(cat, q)
			if err != nil {
				t.Fatalf("plan %q: %v", sql, err)
			}
			want, err := ref.Execute(pl)
			if err != nil {
				t.Fatalf("reference %q: %v", sql, err)
			}
			if !sameRows(res.Rows, want, len(pl.OrderBy) > 0) {
				t.Errorf("workers=%d %q (canon %q): service rows differ from the raw text's\n got %v\nwant %v",
					workers, sql, p.Canon, res.Rows, want)
			}
		}
	}
	if rewrites == 0 {
		t.Fatal("no statement was served by the view; the rewrite path went untested")
	}
}
