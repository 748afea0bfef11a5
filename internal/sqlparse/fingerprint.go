package sqlparse

// Query fingerprinting: the front door of the compiled-query cache.
//
// Normalize parses a statement, canonicalizes the parsed tree, and prints
// the tree back as the statement's canonical text, so textually different
// but structurally identical queries collide. The canon is one derived
// level below the parse, never a parallel reconstruction of the source:
// whitespace, comments, keyword and identifier case, redundant
// parentheses, and the BETWEEN/IN spellings the parser desugars all
// disappear because the tree does not record them.
//
// Canonicalization:
//
//   - identifiers are folded to lower case;
//   - the top-level WHERE AND tree is flattened and its conjuncts sorted
//     by their printed text with literals and parameters masked (ties by
//     the text with literals shown), so predicate order does not change
//     the fingerprint — the collisions the materialized-view rewriter
//     (package mview) relies on. The sorted conjuncts are rebuilt into
//     the left-deep AND chain the parser produces;
//   - IN-list items whose printed text repeats are dropped by the parser
//     itself, so Parse and Normalize agree.
//
// Printing writes space-separated tokens with upper-case keywords and the
// fewest parentheses the parser's precedence needs; the parser's unary
// minus form (0 - x) prints as "- x". Literals are lifted out into bound
// parameters, written $N, in print order. Their values travel alongside
// as Args, to be encoded and staged into the compiled artifact's
// parameter region at execution time. The lifting grammar keeps the
// canonical text plannable by the planner, which matches GROUP BY and
// ORDER BY items against the select list *textually*:
//
//   - numeric literals are lifted and deduplicated by value: every
//     occurrence of the same number maps to the same $N, so an expression
//     repeated across SELECT and GROUP BY keeps its textual identity;
//   - string literals are lifted one parameter per occurrence: each
//     occurrence takes its encoding (dictionary, date format) from the
//     column it is compared with, and two occurrences of the same text
//     may face different dictionaries;
//   - nothing in ORDER BY or LIMIT is lifted: ORDER BY ordinals
//     ("ORDER BY 2") are positional, not values, and the parser requires
//     LIMIT's argument to be a literal.
//
// A statement that already contains $N placeholders gets no lifting: it
// is somebody else's prepared form, and lifted indices would collide with
// the explicit ones.

import (
	"strconv"
	"strings"

	"repro/internal/plan"
)

// LitKind distinguishes lifted literal kinds.
type LitKind uint8

const (
	// LitNum is an integer literal.
	LitNum LitKind = iota
	// LitStr is a string literal (dates included; the encoding context
	// is decided by the column the parameter is compared with).
	LitStr
)

// Literal is one literal value lifted out of a statement.
type Literal struct {
	Kind LitKind
	Num  int64
	Str  string
}

// Fingerprint is the normalized identity of a statement.
type Fingerprint struct {
	// Canon is the canonical parameterized text ($N placeholders); it
	// reparses through Parse into a plan with NumParams parameters.
	Canon string
	// Hash is the 64-bit FNV-1a hash of Canon.
	Hash uint64
	// Args holds the lifted literal values, indexed by parameter.
	Args []Literal
	// Query is the canonical tree Canon was printed from: the tree
	// Parse(Canon) returns. Each Normalize call builds a fresh one. The
	// planner records parameter encodings in its Params (see plan.Param),
	// so plan it only on the goroutine that called Normalize.
	Query *plan.Query
}

// Normalize computes a statement's fingerprint. Its errors are Parse's.
func Normalize(src string) (*Fingerprint, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	sortConjuncts(q)
	lift := q.NumParams == 0
	p := printer{canon: true, lift: lift}
	p.b.Grow(len(src) + len(src)/4)
	p.query(q)
	if lift {
		q.NumParams = len(p.args)
	}
	canon := p.b.String()
	return &Fingerprint{Canon: canon, Hash: Hash64(canon), Args: p.args, Query: q}, nil
}

// Hash64 is the 64-bit FNV-1a hash of a canonical text. Normalize uses
// it for statement fingerprints; the cardinality-history cache (package
// cost) uses it to key observations by canonical plan-expression text, so
// both identity domains share one hash function and one collision story.
func Hash64(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// sortConjuncts flattens the top-level WHERE AND tree, sorts its
// conjuncts by masked text (ties by literal text; the sort is stable),
// and rebuilds the left-deep chain. Conjunction is commutative, so the
// reorder is sound. The tie key masks parameters too, so a canon, whose
// literals are all parameters, re-sorts into its own order.
func sortConjuncts(q *plan.Query) {
	if len(q.Where) != 1 {
		return
	}
	if b, ok := q.Where[0].(*plan.Bin); !ok || b.Op != plan.OpAnd {
		return
	}
	type conjunct struct {
		e         plan.Expr
		key, text string
	}
	var cs []conjunct
	for _, e := range plan.Conjuncts(q.Where) {
		p := printer{mask: maskAll}
		p.expr(e, precAnd)
		cs = append(cs, conjunct{e: e, key: p.b.String()})
	}
	// text is printed only for conjuncts whose keys tie.
	tieText := func(c *conjunct) string {
		if c.text == "" {
			p := printer{mask: maskParams}
			p.expr(c.e, precAnd)
			c.text = p.b.String()
		}
		return c.text
	}
	less := func(a, b *conjunct) bool {
		if a.key != b.key {
			return a.key < b.key
		}
		return tieText(a) < tieText(b)
	}
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && less(&cs[j], &cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
	w := cs[0].e
	for _, c := range cs[1:] {
		w = &plan.Bin{Op: plan.OpAnd, L: w, R: c.e}
	}
	q.Where[0] = w
}

// exprText prints an expression as written, literals included.
func exprText(e plan.Expr) string {
	var p printer
	p.expr(e, precOr)
	return p.b.String()
}

// Operator precedence, loosest to tightest, as the parser's grammar
// nests it (see parseExpr).
const (
	precOr = iota + 1
	precAnd
	precCmp
	precAdd
	precMul
	precUnary
	precPrimary
)

func binPrec(op plan.BinOp) int {
	switch {
	case op == plan.OpOr:
		return precOr
	case op == plan.OpAnd:
		return precAnd
	case op.IsComparison():
		return precCmp
	case op == plan.OpAdd || op == plan.OpSub:
		return precAdd
	}
	return precMul
}

var opText = [...]string{
	plan.OpAdd: "+", plan.OpSub: "-", plan.OpMul: "*", plan.OpDiv: "/", plan.OpMod: "%",
	plan.OpEq: "=", plan.OpNe: "<>", plan.OpLt: "<", plan.OpLe: "<=", plan.OpGt: ">", plan.OpGe: ">=",
	plan.OpAnd: "AND", plan.OpOr: "OR",
}

// Literal masks for conjunct sort keys.
const (
	maskNone   = iota
	maskParams // parameters print as #
	maskAll    // literals and parameters print as #
)

// printer writes a statement tree as canonical text.
type printer struct {
	b    strings.Builder
	mask int
	// canon writes the printed form back into the tree: lower-cased
	// identifiers and, under lift, literals replaced by parameters.
	canon bool
	lift  bool
	args  []Literal // lifted values, by parameter index
}

func (p *printer) query(q *plan.Query) {
	for i := range q.Select {
		p.list(i, "SELECT ")
		it := &q.Select[i]
		it.Expr = p.expr(it.Expr, precOr)
		if it.Alias != "" {
			p.b.WriteString(" AS ")
			p.ident(&it.Alias)
		}
	}
	for i := range q.Tables {
		p.list(i, " FROM ")
		t := &q.Tables[i]
		p.ident(&t.Name)
		if t.Alias != "" {
			p.b.WriteString(" AS ")
			p.ident(&t.Alias)
		}
	}
	if len(q.Where) > 0 { // Parse leaves the whole clause in Where[0]
		p.b.WriteString(" WHERE ")
		q.Where[0] = p.expr(q.Where[0], precOr)
	}
	for i := range q.GroupBy {
		p.list(i, " GROUP BY ")
		q.GroupBy[i] = p.expr(q.GroupBy[i], precOr)
	}
	p.lift = false // ORDER BY and LIMIT are structure, not values
	for i := range q.OrderBy {
		p.list(i, " ORDER BY ")
		o := &q.OrderBy[i]
		o.Expr = p.expr(o.Expr, precOr)
		if o.Desc {
			p.b.WriteString(" DESC")
		}
	}
	if q.Limit >= 0 {
		p.b.WriteString(" LIMIT ")
		p.num(int64(q.Limit))
	}
}

// expr prints e in a position whose grammar admits operators binding at
// least as tightly as prec, and returns e with its literals lifted.
func (p *printer) expr(e plan.Expr, prec int) plan.Expr {
	switch x := e.(type) {
	case *plan.ColRef:
		if x.Qual != "" {
			p.ident(&x.Qual)
			p.b.WriteString(" . ")
		}
		p.ident(&x.Name)
	case *plan.Const:
		return p.literal(e, Literal{Kind: LitNum, Num: x.Val})
	case *plan.StrConst:
		return p.literal(e, Literal{Kind: LitStr, Str: x.S})
	case *plan.Param:
		if p.mask != maskNone {
			p.b.WriteByte('#')
		} else {
			p.param(x.Idx)
		}
	case *plan.Agg:
		p.b.WriteString(x.Fn.String())
		p.b.WriteString(" ( ")
		if x.Arg == nil {
			p.b.WriteByte('*')
		} else {
			x.Arg = p.expr(x.Arg, precOr)
		}
		p.b.WriteString(" )")
	case *plan.Bin:
		if zero, ok := x.L.(*plan.Const); ok && zero.Val == 0 && x.Op == plan.OpSub {
			// The parser's unary minus: - primary.
			p.open(prec > precUnary)
			p.b.WriteString("- ")
			x.R = p.expr(x.R, precPrimary)
			p.close(prec > precUnary)
			break
		}
		bp := binPrec(x.Op)
		lp := bp // left-associative chains
		if bp == precCmp {
			lp = precAdd // comparisons do not chain
		}
		p.open(bp < prec)
		x.L = p.expr(x.L, lp)
		p.b.WriteByte(' ')
		p.b.WriteString(opText[x.Op])
		p.b.WriteByte(' ')
		x.R = p.expr(x.R, bp+1)
		p.close(bp < prec)
	}
	return e
}

// list starts item i of a comma-separated clause introduced by head.
func (p *printer) list(i int, head string) {
	if i == 0 {
		p.b.WriteString(head)
	} else {
		p.b.WriteString(" , ")
	}
}

func (p *printer) open(paren bool) {
	if paren {
		p.b.WriteString("( ")
	}
}

func (p *printer) close(paren bool) {
	if paren {
		p.b.WriteString(" )")
	}
}

// ident prints an identifier in lower case.
func (p *printer) ident(s *string) {
	low := strings.ToLower(*s)
	p.b.WriteString(low)
	if p.canon {
		*s = low
	}
}

// literal prints a literal — masked, lifted, or as written — and returns
// the node that stands for it in the canonical tree.
func (p *printer) literal(e plan.Expr, v Literal) plan.Expr {
	switch {
	case p.mask == maskAll:
		p.b.WriteByte('#')
	case p.lift:
		idx := len(p.args)
		if v.Kind == LitNum {
			for i, a := range p.args {
				if a.Kind == LitNum && a.Num == v.Num {
					idx = i
					break
				}
			}
		}
		if idx == len(p.args) {
			p.args = append(p.args, v)
		}
		p.param(idx)
		return &plan.Param{Idx: idx}
	case v.Kind == LitNum:
		p.num(v.Num)
	default:
		p.b.WriteByte('\'')
		p.b.WriteString(strings.ReplaceAll(v.Str, "'", "''"))
		p.b.WriteByte('\'')
	}
	return e
}

func (p *printer) param(idx int) {
	p.b.WriteByte('$')
	p.num(int64(idx))
}

func (p *printer) num(v int64) {
	var buf [20]byte
	p.b.Write(strconv.AppendInt(buf[:0], v, 10))
}
