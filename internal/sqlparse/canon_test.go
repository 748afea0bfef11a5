package sqlparse

import (
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/queries"
)

// TestCanonGolden: Normalize reproduces testdata/canon.golden byte for
// byte, so cache keys and conjunct orders stay put.
func TestCanonGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/canon.golden")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	var srcs []string
	for i, line := range lines {
		quoted, ok := strings.CutPrefix(line, "src: ")
		if !ok {
			continue
		}
		src, err := strconv.Unquote(quoted)
		if err != nil || i+2 >= len(lines) {
			t.Fatalf("line %d: malformed entry", i+1)
		}
		srcs = append(srcs, src)
		fp, err := Normalize(src)
		if err != nil {
			t.Errorf("Normalize(%q): %v", src, err)
			continue
		}
		got := "canon: " + fp.Canon + "\nargs: " + formatArgs(fp.Args)
		if want := lines[i+1] + "\n" + lines[i+2]; got != want {
			t.Errorf("%q:\n got %s\nwant %s", src, got, want)
		}
	}
	for _, w := range queries.SQLSuite() {
		if !slices.Contains(srcs, w.SQL) {
			t.Errorf("SQLSuite statement %s missing from the golden", w.Name)
		}
	}
}

func formatArgs(args []Literal) string {
	parts := make([]string, len(args))
	for i, a := range args {
		if a.Kind == LitNum {
			parts[i] = strconv.FormatInt(a.Num, 10)
		} else {
			parts[i] = strconv.Quote(a.Str)
		}
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// TestLexerASCIIOnly: identifiers and whitespace are ASCII. A non-ASCII
// byte outside a string literal or comment is a lexical error for Parse
// and Normalize alike — it once lexed into an identifier whose canon
// (with the orphan byte lower-cased to U+FFFD) no longer parsed.
func TestLexerASCIIOnly(t *testing.T) {
	for _, src := range []string{
		"select là from t",
		"select a\u00a0from t",
		"select a from t where b = 1\u2028",
	} {
		_, perr := Parse(src)
		_, nerr := Normalize(src)
		for _, err := range []error{perr, nerr} {
			if err == nil || !strings.Contains(err.Error(), "unexpected character") {
				t.Errorf("%q: err = %v, want an unexpected-character error", src, err)
			}
		}
	}
	fp := norm(t, "SeLeCt a FROM t WHERE b = 'là' -- là\n")
	if len(fp.Args) != 1 || fp.Args[0].Str != "là" {
		t.Fatalf("args = %+v, want the literal 'là'", fp.Args)
	}
	if want := "SELECT a FROM t WHERE b = $0"; fp.Canon != want {
		t.Fatalf("canon = %q, want %q", fp.Canon, want)
	}
}

// TestHash64IsFNV1a: Hash64 is the standard 64-bit FNV-1a.
func TestHash64IsFNV1a(t *testing.T) {
	for _, s := range []string{"", "a", "SELECT count ( * ) FROM lineitem WHERE l_quantity < $0"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := Hash64(s), h.Sum64(); got != want {
			t.Errorf("Hash64(%q) = %x, want %x", s, got, want)
		}
	}
}

// FuzzNormalize: every statement Parse accepts normalizes; its canon
// parses back into the canonical tree, with exactly len(Args) parameters,
// and is its own canon; and the fingerprint ignores whitespace, keyword
// and identifier case, and top-level conjunct order.
func FuzzNormalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		explicit := q.NumParams > 0
		fp, err := Normalize(src)
		if err != nil {
			t.Fatalf("Parse accepts %q, Normalize fails: %v", src, err)
		}
		cq, err := Parse(fp.Canon)
		if err != nil {
			t.Fatalf("canon %q of %q does not parse: %v", fp.Canon, src, err)
		}
		if !explicit && cq.NumParams != len(fp.Args) {
			t.Fatalf("canon %q parses with %d params, %d lifted", fp.Canon, cq.NumParams, len(fp.Args))
		}
		if !reflect.DeepEqual(cq, fp.Query) {
			t.Fatalf("canon %q of %q does not parse back into the tree it was printed from", fp.Canon, src)
		}
		if again, err := Normalize(fp.Canon); err != nil || again.Canon != fp.Canon {
			t.Fatalf("canon not idempotent: %q -> %+v (%v)", fp.Canon, again, err)
		}
		sameFingerprint(t, src, fp, respell(src))
		if !explicit && reverseConjuncts(q) {
			var p printer
			p.query(q)
			sameFingerprint(t, src, fp, p.b.String())
		}
	})
}

// sameFingerprint checks that variant normalizes to fp.
func sameFingerprint(t *testing.T, src string, fp *Fingerprint, variant string) {
	t.Helper()
	got, err := Normalize(variant)
	if err != nil {
		t.Fatalf("variant %q of %q: %v", variant, src, err)
	}
	if got.Canon != fp.Canon || fmt.Sprint(got.Args) != fmt.Sprint(fp.Args) {
		t.Fatalf("variant %q of %q:\n got %q %v\nwant %q %v", variant, src, got.Canon, got.Args, fp.Canon, fp.Args)
	}
}

// respell re-spells a lexable statement token by token: other
// whitespace, lower-case keywords, upper-case identifiers, no comments.
func respell(src string) string {
	toks, err := lex(src)
	if err != nil {
		return src
	}
	var b strings.Builder
	for _, tk := range toks {
		switch tk.kind {
		case tkKeyword:
			b.WriteString(strings.ToLower(tk.text))
		case tkIdent:
			b.WriteString(strings.ToUpper(tk.text))
		case tkString:
			b.WriteString("'" + strings.ReplaceAll(tk.text, "'", "''") + "'")
		case tkParam:
			b.WriteString("$" + tk.text)
		default:
			b.WriteString(tk.text)
		}
		b.WriteString("\n\t ")
	}
	return b.String()
}

// reverseConjuncts reverses the order of the top-level WHERE conjuncts;
// false if there are fewer than two.
func reverseConjuncts(q *plan.Query) bool {
	cs := plan.Conjuncts(q.Where)
	if len(q.Where) != 1 || len(cs) < 2 {
		return false
	}
	w := cs[len(cs)-1]
	for i := len(cs) - 2; i >= 0; i-- {
		w = &plan.Bin{Op: plan.OpAnd, L: w, R: cs[i]}
	}
	q.Where[0] = w
	return true
}
