package sqlparse

import "testing"

func norm(t *testing.T, src string) *Fingerprint {
	t.Helper()
	fp, err := Normalize(src)
	if err != nil {
		t.Fatalf("Normalize(%q): %v", src, err)
	}
	return fp
}

// TestNormalizeCollidesLiterals is the cache's core property: two
// statements that differ only in literal values (and in whitespace,
// identifier case, or a trailing semicolon) must share one fingerprint.
func TestNormalizeCollidesLiterals(t *testing.T) {
	a := norm(t, "select count(*) from lineitem where l_quantity < 24")
	variants := []string{
		"select count(*) from lineitem where l_quantity < 7",
		"SELECT   COUNT(*)  FROM  LINEITEM\nWHERE  L_QUANTITY < 99 ;",
		"select count ( * ) from lineitem where l_quantity < 0",
	}
	for _, v := range variants {
		b := norm(t, v)
		if b.Canon != a.Canon || b.Hash != a.Hash {
			t.Errorf("fingerprints differ:\n  %q -> %q (%x)\n  %q -> %q (%x)",
				"...24", a.Canon, a.Hash, v, b.Canon, b.Hash)
		}
	}
	if len(a.Args) != 1 || a.Args[0].Kind != LitNum || a.Args[0].Num != 24 {
		t.Errorf("args = %+v, want one numeric 24", a.Args)
	}
	c := norm(t, "select count(*) from lineitem where l_quantity < 7")
	if c.Args[0].Num != 7 {
		t.Errorf("variant args = %+v, want 7", c.Args)
	}
}

// TestNormalizeStructureStillMatters: different shapes must not collide.
func TestNormalizeStructureStillMatters(t *testing.T) {
	a := norm(t, "select count(*) from lineitem where l_quantity < 24")
	b := norm(t, "select count(*) from lineitem where l_quantity > 24")
	if a.Hash == b.Hash {
		t.Fatalf("different operators collided: %q vs %q", a.Canon, b.Canon)
	}
}

// TestNumericDedup: every occurrence of the same number maps to the same
// parameter, so GROUP BY's textual match against the select list survives
// normalization; distinct numbers get distinct parameters.
func TestNumericDedup(t *testing.T) {
	fp := norm(t, "select l_orderkey, sum(l_extendedprice * (100 - l_discount)) from lineitem where l_quantity < 100 and l_tax < 30 group by l_orderkey")
	if len(fp.Args) != 2 {
		t.Fatalf("args = %+v, want [100 30]", fp.Args)
	}
	if fp.Args[0].Num != 100 || fp.Args[1].Num != 30 {
		t.Fatalf("args = %+v, want [100 30]", fp.Args)
	}
	// 100 occurs twice; both occurrences must render as $0.
	if got := countSub(fp.Canon, "$0"); got != 2 {
		t.Fatalf("canon %q: $0 appears %d times, want 2", fp.Canon, got)
	}
}

// TestStringsNotDeduped: each string occurrence takes its own parameter —
// two occurrences of the same text may face different dictionaries.
func TestStringsNotDeduped(t *testing.T) {
	fp := norm(t, "select count(*) from lineitem where l_returnflag = 'R' and l_linestatus = 'R'")
	if len(fp.Args) != 2 {
		t.Fatalf("args = %+v, want two string params", fp.Args)
	}
	for i, a := range fp.Args {
		if a.Kind != LitStr || a.Str != "R" {
			t.Fatalf("arg %d = %+v, want LitStr 'R'", i, a)
		}
	}
}

// TestTailNotLifted: ORDER BY ordinals and LIMIT arguments are structure,
// not values — they stay in the canonical text, so different top-k sizes
// are different cache entries.
func TestTailNotLifted(t *testing.T) {
	a := norm(t, "select l_orderkey, sum(l_quantity) as qty from lineitem where l_quantity < 5 group by l_orderkey order by 2 desc limit 10")
	if len(a.Args) != 1 || a.Args[0].Num != 5 {
		t.Fatalf("args = %+v, want just the filter literal 5", a.Args)
	}
	b := norm(t, "select l_orderkey, sum(l_quantity) as qty from lineitem where l_quantity < 5 group by l_orderkey order by 2 desc limit 20")
	if a.Hash == b.Hash {
		t.Fatalf("LIMIT 10 and LIMIT 20 collided: %q", a.Canon)
	}
}

// TestExplicitParamsDisableLifting: a statement that already carries $N is
// someone else's prepared form and passes through verbatim.
func TestExplicitParamsDisableLifting(t *testing.T) {
	fp := norm(t, "select count(*) from lineitem where l_quantity < $0 and l_tax < 5 and l_returnflag = 'R'")
	if len(fp.Args) != 0 {
		t.Fatalf("args = %+v, want none (lifting disabled)", fp.Args)
	}
	for _, want := range []string{"$0", "5", "'R'"} {
		if countSub(fp.Canon, want) == 0 {
			t.Errorf("canon %q: missing %q", fp.Canon, want)
		}
	}
}

// TestStringRequoting: string literals kept in the canonical text are
// re-quoted with ” escaping so the canon re-lexes identically.
func TestStringRequoting(t *testing.T) {
	fp := norm(t, "select count(*) from products where name = 'it''s' and id < $1")
	if countSub(fp.Canon, "'it''s'") != 1 {
		t.Fatalf("canon %q: want escaped literal 'it''s'", fp.Canon)
	}
	// The canon must re-lex to the same fingerprint (idempotence).
	fp2 := norm(t, fp.Canon)
	if fp2.Canon != fp.Canon || fp2.Hash != fp.Hash {
		t.Fatalf("normalization not idempotent: %q -> %q", fp.Canon, fp2.Canon)
	}
}

// TestNormalizeIdempotent: normalizing a canon is the identity for the
// whole lifted suite shape.
func TestNormalizeIdempotent(t *testing.T) {
	srcs := []string{
		"select l_orderkey, l_quantity from lineitem where l_quantity < 4 order by l_orderkey, l_quantity limit 50",
		"select count(*), sum(l_extendedprice) from lineitem where l_returnflag = 'R'",
		"select o_orderkey, sum(l_extendedprice) from lineitem, orders where o_orderkey = l_orderkey and o_orderdate < '1995-04-01' group by o_orderkey",
	}
	for _, src := range srcs {
		fp := norm(t, src)
		fp2 := norm(t, fp.Canon)
		if fp2.Canon != fp.Canon {
			t.Errorf("not idempotent:\n  src   %q\n  canon %q\n  again %q", src, fp.Canon, fp2.Canon)
		}
	}
}

// TestCanonReparses: the canonical text must parse, and the parse must
// report exactly len(Args) parameters.
func TestCanonReparses(t *testing.T) {
	fp := norm(t, "select l_orderkey, sum(l_extendedprice * (100 - l_discount)) from lineitem where l_quantity < 30 group by l_orderkey")
	q, err := Parse(fp.Canon)
	if err != nil {
		t.Fatalf("canon %q does not parse: %v", fp.Canon, err)
	}
	if q.NumParams != len(fp.Args) {
		t.Fatalf("canon parses with %d params, fingerprint lifted %d", q.NumParams, len(fp.Args))
	}
}

func countSub(s, sub string) int {
	n := 0
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			// count token-ish occurrences only: require a non-digit after
			// (so "$1" does not match inside "$10").
			if i+len(sub) < len(s) && s[i+len(sub)] >= '0' && s[i+len(sub)] <= '9' {
				continue
			}
			n++
		}
	}
	return n
}

// TestBetweenCollidesWithPairedComparisons: the rewriter treats `x
// BETWEEN a AND b` and `x >= a AND x <= b` as one statement; the
// fingerprint must agree, including the argument order.
func TestBetweenCollidesWithPairedComparisons(t *testing.T) {
	a := norm(t, "select count(*) from lineitem where l_quantity between 5 and 20")
	b := norm(t, "select count(*) from lineitem where l_quantity >= 5 and l_quantity <= 20")
	if a.Canon != b.Canon || a.Hash != b.Hash {
		t.Fatalf("BETWEEN did not collide with paired comparisons:\n  %q\n  %q", a.Canon, b.Canon)
	}
	// Conjunct sorting puts "<=" before ">=" (byte order of the masked
	// text), so the canonical argument order is [hi lo] for both spellings.
	if len(a.Args) != 2 || a.Args[0].Num != 20 || a.Args[1].Num != 5 {
		t.Fatalf("args = %+v, want [20 5]", a.Args)
	}
	// Qualified columns desugar too.
	c := norm(t, "select count(*) from lineitem l where l.l_tax between 1 and 3")
	d := norm(t, "select count(*) from lineitem l where l.l_tax >= 1 and l.l_tax <= 3")
	if c.Canon != d.Canon {
		t.Fatalf("qualified BETWEEN did not collide:\n  %q\n  %q", c.Canon, d.Canon)
	}
}

// TestBetweenCompoundOperandBacksOff: BETWEEN and IN bind to their
// WHOLE left operand. With a compound operand (`a + b BETWEEN lo AND
// hi`) a rewrite that bound the range to `b` alone would silently change
// the predicate; the canon must collide with the comparison form over
// the whole operand and never with the mis-bound one.
func TestBetweenCompoundOperandBacksOff(t *testing.T) {
	cases := []string{
		"select count(*) from lineitem where l_quantity + l_tax between 2 and 3",
		"select count(*) from lineitem where l_quantity + 1 between 5 and 20",
		"select count(*) from lineitem where l_quantity + l_tax between 2 and 3 and l_tax = 1",
	}
	for _, sql := range cases {
		fp := norm(t, sql)
		if _, err := Parse(fp.Canon); err != nil {
			t.Errorf("canon of %q does not parse: %v\n  canon %q", sql, err, fp.Canon)
		}
	}
	a := norm(t, "select count(*) from lineitem where l_quantity + l_tax between 2 and 3")
	paired := norm(t, "select count(*) from lineitem where l_quantity + l_tax >= 2 and l_quantity + l_tax <= 3")
	if a.Canon != paired.Canon {
		t.Fatalf("compound BETWEEN did not collide with its comparison pair:\n  %q\n  %q", a.Canon, paired.Canon)
	}
	// The compound spelling must NOT collide with the single-column one
	// a mis-binding rewrite would have produced.
	b := norm(t, "select count(*) from lineitem where l_quantity + l_tax >= 2 and l_tax <= 3")
	if a.Canon == b.Canon {
		t.Fatalf("compound BETWEEN collided with mis-bound comparison pair: %q", a.Canon)
	}
	// Same for IN: `a + b IN (...)` is the OR-chain over the whole operand.
	c := norm(t, "select count(*) from lineitem where l_quantity + l_tax in (2, 3)")
	chain := norm(t, "select count(*) from lineitem where l_quantity + l_tax = 2 or l_quantity + l_tax = 3")
	misbound := norm(t, "select count(*) from lineitem where l_quantity + l_tax = 2 or l_tax = 3")
	if c.Canon != chain.Canon || c.Canon == misbound.Canon {
		t.Fatalf("compound IN canon %q: want %q, never %q", c.Canon, chain.Canon, misbound.Canon)
	}
	// Redundant parentheses do not change the canon.
	d := norm(t, "select count(*) from lineitem where (l_quantity between 5 and 20)")
	e := norm(t, "select count(*) from lineitem where (l_quantity >= 5 and l_quantity <= 20)")
	if d.Canon != e.Canon {
		t.Fatalf("parenthesized BETWEEN did not desugar:\n  %q\n  %q", d.Canon, e.Canon)
	}
}

// TestBetweenParses: the parser's own desugaring — BETWEEN statements
// must parse even when Normalize left them alone.
func TestBetweenParses(t *testing.T) {
	q, err := Parse("select count(*) from lineitem where l_quantity + 1 between 5 and 20")
	if err != nil {
		t.Fatalf("BETWEEN with compound operand does not parse: %v", err)
	}
	if len(q.Where) != 1 {
		t.Fatalf("want one WHERE conjunct, got %d", len(q.Where))
	}
}

// TestInListDedupAndCollision: IN lists desugar into equality OR-chains
// with duplicate items dropped, so `IN (3, 5, 3)` and `IN (3, 5)` and the
// hand-written OR-chain all share one fingerprint.
func TestInListDedupAndCollision(t *testing.T) {
	a := norm(t, "select count(*) from lineitem where l_quantity in (3, 5, 3)")
	b := norm(t, "select count(*) from lineitem where l_quantity in (3, 5)")
	c := norm(t, "select count(*) from lineitem where (l_quantity = 3 or l_quantity = 5)")
	if a.Canon != b.Canon {
		t.Fatalf("IN-list dup not deduplicated:\n  %q\n  %q", a.Canon, b.Canon)
	}
	if a.Canon != c.Canon {
		t.Fatalf("IN did not collide with OR-chain:\n  %q\n  %q", a.Canon, c.Canon)
	}
	if len(a.Args) != 2 || a.Args[0].Num != 3 || a.Args[1].Num != 5 {
		t.Fatalf("args = %+v, want [3 5]", a.Args)
	}
	// Single-item lists collapse to a bare equality.
	d := norm(t, "select count(*) from lineitem where l_quantity in (7)")
	e := norm(t, "select count(*) from lineitem where l_quantity = 7")
	if d.Canon != e.Canon {
		t.Fatalf("single-item IN did not collapse:\n  %q\n  %q", d.Canon, e.Canon)
	}
	// String lists keep per-occurrence parameters (no cross-string dedup
	// by value — each faces its own dictionary) but drop exact dup items.
	f := norm(t, "select count(*) from products where category in ('Chip', 'Board', 'Chip')")
	if len(f.Args) != 2 {
		t.Fatalf("string IN args = %+v, want two", f.Args)
	}
}

// TestInParses: parser-level IN desugaring for operands Normalize's
// token pass does not touch.
func TestInParses(t *testing.T) {
	q, err := Parse("select count(*) from lineitem where l_quantity % 10 in (1, 2)")
	if err != nil {
		t.Fatalf("IN with compound operand does not parse: %v", err)
	}
	if len(q.Where) != 1 {
		t.Fatalf("want one WHERE conjunct, got %d", len(q.Where))
	}
}

// TestPredicateOrderInsensitive: top-level WHERE conjunct order must not
// change the fingerprint; parameter indices follow the sorted text, so
// the argument vectors line up positionally across spellings.
func TestPredicateOrderInsensitive(t *testing.T) {
	a := norm(t, "select count(*) from lineitem where l_quantity < 24 and l_tax > 2 and l_returnflag = 'R'")
	b := norm(t, "select count(*) from lineitem where l_returnflag = 'R' and l_quantity < 24 and l_tax > 2")
	c := norm(t, "select count(*) from lineitem where l_tax > 2 and l_returnflag = 'R' and l_quantity < 24")
	if a.Canon != b.Canon || a.Canon != c.Canon {
		t.Fatalf("conjunct order changed the canon:\n  %q\n  %q\n  %q", a.Canon, b.Canon, c.Canon)
	}
	if a.Hash != b.Hash || a.Hash != c.Hash {
		t.Fatalf("conjunct order changed the hash")
	}
	// Same structure, different values: same canon, args in canon order.
	d := norm(t, "select count(*) from lineitem where l_tax > 9 and l_returnflag = 'N' and l_quantity < 11")
	if d.Canon != a.Canon {
		t.Fatalf("value change altered the canon:\n  %q\n  %q", a.Canon, d.Canon)
	}
	if len(a.Args) != len(d.Args) {
		t.Fatalf("arg counts differ: %d vs %d", len(a.Args), len(d.Args))
	}
	for i := range a.Args {
		if a.Args[i].Kind != d.Args[i].Kind {
			t.Fatalf("arg %d kinds differ across spellings", i)
		}
	}
}

// TestPredicateOrderBacksOffUnderOr: a top-level OR makes AND-splitting
// unsound; the sort pass must leave the clause alone (both spellings
// still normalize and parse, they just need not collide).
func TestPredicateOrderBacksOffUnderOr(t *testing.T) {
	fp := norm(t, "select count(*) from lineitem where l_quantity < 24 and l_tax > 2 or l_returnflag = 'R'")
	if _, err := Parse(fp.Canon); err != nil {
		t.Fatalf("canon with top-level OR does not parse: %v", err)
	}
	// Parenthesized OR groups are fine to sort around.
	a := norm(t, "select count(*) from lineitem where (l_tax = 1 or l_tax = 2) and l_quantity < 24")
	b := norm(t, "select count(*) from lineitem where l_quantity < 24 and (l_tax = 1 or l_tax = 2)")
	if a.Canon != b.Canon {
		t.Fatalf("parenthesized OR group broke order insensitivity:\n  %q\n  %q", a.Canon, b.Canon)
	}
}

// TestDesugaredCanonReparses: desugared canons re-lex, re-normalize
// (idempotence) and re-parse with matching parameter counts.
func TestDesugaredCanonReparses(t *testing.T) {
	srcs := []string{
		"select count(*) from lineitem where l_quantity between 5 and 20",
		"select count(*) from lineitem where l_quantity in (3, 5, 3) and l_tax > 1",
		"select sum(l_extendedprice) from lineitem where l_returnflag in ('R', 'N') and l_quantity between 1 and 40",
	}
	for _, src := range srcs {
		fp := norm(t, src)
		fp2 := norm(t, fp.Canon)
		if fp2.Canon != fp.Canon {
			t.Errorf("not idempotent:\n  src   %q\n  canon %q\n  again %q", src, fp.Canon, fp2.Canon)
			continue
		}
		q, err := Parse(fp.Canon)
		if err != nil {
			t.Errorf("canon %q does not parse: %v", fp.Canon, err)
			continue
		}
		if q.NumParams != len(fp.Args) {
			t.Errorf("canon %q parses with %d params, lifted %d", fp.Canon, q.NumParams, len(fp.Args))
		}
	}
}
