// Package plan defines query expressions, the dataflow-graph operators
// (the paper's topmost abstraction level), and the planner that turns a
// parsed query into an optimized operator tree — including the dataflow-
// graph operator fusion of group-by and join into a groupjoin (§5.4).
package plan

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
)

// BinOp enumerates binary operators in expressions.
type BinOp uint8

const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var binOpNames = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "and", OpOr: "or",
}

func (o BinOp) String() string { return binOpNames[o] }

// IsComparison reports whether the operator yields a boolean.
func (o BinOp) IsComparison() bool { return o >= OpEq && o <= OpGe }

// AggFn enumerates aggregate functions.
type AggFn uint8

const (
	AggSum AggFn = iota
	AggCount
	AggAvg
	AggMin
	AggMax
)

var aggNames = [...]string{AggSum: "sum", AggCount: "count", AggAvg: "avg", AggMin: "min", AggMax: "max"}

func (f AggFn) String() string { return aggNames[f] }

// Expr is an unresolved expression over qualified column names, as the
// parser produces.
type Expr interface{ String() string }

// ColRef names a column, optionally qualified by a table alias.
type ColRef struct{ Qual, Name string }

func (c *ColRef) String() string {
	if c.Qual == "" {
		return c.Name
	}
	return c.Qual + "." + c.Name
}

// Const is an integer literal (dates are pre-encoded day numbers).
type Const struct{ Val int64 }

func (c *Const) String() string { return fmt.Sprintf("%d", c.Val) }

// StrConst is a string literal, resolved against a dictionary at binding.
type StrConst struct{ S string }

func (c *StrConst) String() string { return "'" + c.S + "'" }

// Param is a bound-parameter placeholder $N, produced by the parser for
// explicit placeholders and by query normalization for lifted literals.
// During binding the planner records the encoding context (type and
// dictionary of the column the parameter is compared with) in place, so
// session-time argument encoding matches what a direct literal would have
// compiled to. Because of that mutation, a Query containing Params must
// not be planned concurrently — the cache's single-flight path plans the
// fresh Query sqlparse.Normalize built on the compiling goroutine, which
// satisfies this.
type Param struct {
	Idx  int
	Typ  catalog.Type  // encoding context, recorded at bind time
	Dict *catalog.Dict // for TStr comparisons
}

func (p *Param) String() string { return fmt.Sprintf("$%d", p.Idx) }

// Bin is a binary expression.
type Bin struct {
	Op   BinOp
	L, R Expr
}

func (b *Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Agg is an aggregate call; Arg is nil for count(*).
type Agg struct {
	Fn  AggFn
	Arg Expr
}

func (a *Agg) String() string {
	if a.Arg == nil {
		return a.Fn.String() + "(*)"
	}
	return fmt.Sprintf("%s(%s)", a.Fn, a.Arg)
}

// Col is a convenience constructor for column references: Col("s.id") or
// Col("price").
func Col(name string) Expr {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return &ColRef{Qual: name[:i], Name: name[i+1:]}
	}
	return &ColRef{Name: name}
}

// Num is a convenience constructor for integer literals.
func Num(v int64) Expr { return &Const{Val: v} }

// Str is a convenience constructor for string literals.
func Str(s string) Expr { return &StrConst{S: s} }

// Eq builds l = r; And builds conjunctions; helpers for programmatic plans.
func Eq(l, r Expr) Expr  { return &Bin{Op: OpEq, L: l, R: r} }
func Lt(l, r Expr) Expr  { return &Bin{Op: OpLt, L: l, R: r} }
func And(l, r Expr) Expr { return &Bin{Op: OpAnd, L: l, R: r} }

// --- Resolved (physical) expressions: positional over an input row ---

// PExpr is an expression resolved to positional column references.
type PExpr interface{ pstring() string }

// PCol reads position Pos of the operator's input row.
type PCol struct{ Pos int }

func (p *PCol) pstring() string { return fmt.Sprintf("$%d", p.Pos) }

// PConst is a literal.
type PConst struct{ Val int64 }

func (p *PConst) pstring() string { return fmt.Sprintf("%d", p.Val) }

// PParam reads bound parameter Idx from the artifact's parameter region
// (staged per run; see Layout.ParamBase).
type PParam struct{ Idx int }

func (p *PParam) pstring() string { return fmt.Sprintf("?%d", p.Idx) }

// PBin is a resolved binary expression.
type PBin struct {
	Op   BinOp
	L, R PExpr
}

func (p *PBin) pstring() string {
	return fmt.Sprintf("(%s %s %s)", p.L.pstring(), p.Op, p.R.pstring())
}

// PString renders a resolved expression (for EXPLAIN output).
func PString(p PExpr) string {
	if p == nil {
		return "<nil>"
	}
	return p.pstring()
}

// ColsUsed collects the input positions a resolved expression reads.
func ColsUsed(p PExpr, into map[int]bool) {
	switch e := p.(type) {
	case *PCol:
		into[e.Pos] = true
	case *PBin:
		ColsUsed(e.L, into)
		ColsUsed(e.R, into)
	}
}
