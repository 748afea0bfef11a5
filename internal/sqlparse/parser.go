package sqlparse

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/plan"
)

// Parse turns a SQL statement into a plan.Query ready for the optimizer.
func Parse(src string) (*plan.Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, maxParam: -1}
	q, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	p.accept(tkSymbol, ";")
	if !p.at(tkEOF, "") {
		return nil, p.errf("trailing input %q", p.cur().text)
	}
	q.NumParams = p.maxParam + 1
	return q, nil
}

type parser struct {
	toks     []token
	i        int
	maxParam int // highest $N placeholder index seen (-1: none)
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) at(k tokKind, text string) bool {
	t := p.cur()
	return t.kind == k && (text == "" || t.text == text)
}

func (p *parser) accept(k tokKind, text string) bool {
	if p.at(k, text) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(k tokKind, text string) (token, error) {
	if p.at(k, text) {
		return p.next(), nil
	}
	return token{}, p.errf("expected %q, found %q", text, p.cur().text)
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sql: position %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) parseSelect() (*plan.Query, error) {
	if _, err := p.expect(tkKeyword, "SELECT"); err != nil {
		return nil, err
	}
	q := &plan.Query{Limit: -1}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		q.Select = append(q.Select, item)
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tkKeyword, "FROM"); err != nil {
		return nil, err
	}
	for {
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		q.Tables = append(q.Tables, tr)
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	if p.accept(tkKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		q.Where = append(q.Where, e)
	}
	if p.accept(tkKeyword, "GROUP") {
		if _, err := p.expect(tkKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, e)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tkKeyword, "ORDER") {
		if _, err := p.expect(tkKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := plan.OrderItem{Expr: e}
			if p.accept(tkKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(tkKeyword, "ASC")
			}
			q.OrderBy = append(q.OrderBy, item)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tkKeyword, "LIMIT") {
		t, err := p.expect(tkNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		q.Limit = n
	}
	return q, nil
}

func (p *parser) parseSelectItem() (plan.SelectItem, error) {
	e, err := p.parseExpr()
	if err != nil {
		return plan.SelectItem{}, err
	}
	item := plan.SelectItem{Expr: e}
	if p.accept(tkKeyword, "AS") {
		t, err := p.expect(tkIdent, "")
		if err != nil {
			return plan.SelectItem{}, err
		}
		item.Alias = t.text
	} else if p.at(tkIdent, "") {
		item.Alias = p.next().text
	}
	return item, nil
}

func (p *parser) parseTableRef() (plan.TableRef, error) {
	t, err := p.expect(tkIdent, "")
	if err != nil {
		return plan.TableRef{}, err
	}
	tr := plan.TableRef{Name: t.text}
	if p.accept(tkKeyword, "AS") {
		a, err := p.expect(tkIdent, "")
		if err != nil {
			return plan.TableRef{}, err
		}
		tr.Alias = a.text
	} else if p.at(tkIdent, "") {
		tr.Alias = p.next().text
	}
	return tr, nil
}

// Expression grammar (loosest to tightest):
//
//	or:   and (OR and)*
//	and:  cmp (AND cmp)*
//	cmp:  add ((=|<>|!=|<|<=|>|>=) add)?
//	add:  mul ((+|-) mul)*
//	mul:  unary ((*|/|%) unary)*
//	unary: [-] primary
//	primary: number | string | ident[.ident] | agg(expr) | count(*) | (or)
func (p *parser) parseExpr() (plan.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (plan.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tkKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &plan.Bin{Op: plan.OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (plan.Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.accept(tkKeyword, "AND") {
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = &plan.Bin{Op: plan.OpAnd, L: l, R: r}
	}
	return l, nil
}

var cmpOps = map[string]plan.BinOp{
	"=": plan.OpEq, "<>": plan.OpNe, "!=": plan.OpNe,
	"<": plan.OpLt, "<=": plan.OpLe, ">": plan.OpGt, ">=": plan.OpGe,
}

func (p *parser) parseCmp() (plan.Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tkSymbol {
		if op, ok := cmpOps[p.cur().text]; ok {
			p.next()
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &plan.Bin{Op: op, L: l, R: r}, nil
		}
	}
	// BETWEEN and IN desugar here, into the comparison form the planner
	// handles: `x BETWEEN lo AND hi` into `x >= lo AND x <= hi`, and
	// `x IN (a, b)` into `(x = a OR x = b)` with items whose printed text
	// repeats dropped. Normalize prints its canon from this tree, so
	// these spellings and their comparison forms share one fingerprint.
	if p.accept(tkKeyword, "BETWEEN") {
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &plan.Bin{Op: plan.OpAnd,
			L: &plan.Bin{Op: plan.OpGe, L: l, R: lo},
			R: &plan.Bin{Op: plan.OpLe, L: cloneExpr(l), R: hi}}, nil
	}
	if p.accept(tkKeyword, "IN") {
		if _, err := p.expect(tkSymbol, "("); err != nil {
			return nil, err
		}
		var chain plan.Expr
		var seen []string // printed text of the items kept so far
		for {
			item, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			if text := exprText(item); !slices.Contains(seen, text) {
				seen = append(seen, text)
				var operand plan.Expr = l
				if chain != nil {
					operand = cloneExpr(l)
				}
				eq := &plan.Bin{Op: plan.OpEq, L: operand, R: item}
				if chain == nil {
					chain = eq
				} else {
					chain = &plan.Bin{Op: plan.OpOr, L: chain, R: eq}
				}
			}
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		return chain, nil
	}
	return l, nil
}

// cloneExpr deep-copies an expression so BETWEEN/IN desugaring never
// shares AST nodes between the branches it synthesizes.
func cloneExpr(e plan.Expr) plan.Expr {
	switch x := e.(type) {
	case *plan.ColRef:
		c := *x
		return &c
	case *plan.Const:
		c := *x
		return &c
	case *plan.StrConst:
		c := *x
		return &c
	case *plan.Param:
		c := *x
		return &c
	case *plan.Bin:
		return &plan.Bin{Op: x.Op, L: cloneExpr(x.L), R: cloneExpr(x.R)}
	case *plan.Agg:
		c := &plan.Agg{Fn: x.Fn}
		if x.Arg != nil {
			c.Arg = cloneExpr(x.Arg)
		}
		return c
	default:
		return e
	}
}

func (p *parser) parseAdd() (plan.Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		var op plan.BinOp
		switch {
		case p.accept(tkSymbol, "+"):
			op = plan.OpAdd
		case p.accept(tkSymbol, "-"):
			op = plan.OpSub
		default:
			return l, nil
		}
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &plan.Bin{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMul() (plan.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op plan.BinOp
		switch {
		case p.accept(tkSymbol, "*"):
			op = plan.OpMul
		case p.accept(tkSymbol, "/"):
			op = plan.OpDiv
		case p.accept(tkSymbol, "%"):
			op = plan.OpMod
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &plan.Bin{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (plan.Expr, error) {
	if p.accept(tkSymbol, "-") {
		e, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return &plan.Bin{Op: plan.OpSub, L: plan.Num(0), R: e}, nil
	}
	return p.parsePrimary()
}

var aggFns = map[string]plan.AggFn{
	"sum": plan.AggSum, "count": plan.AggCount, "avg": plan.AggAvg,
	"min": plan.AggMin, "max": plan.AggMax,
}

func (p *parser) parsePrimary() (plan.Expr, error) {
	t := p.cur()
	switch t.kind {
	case tkNumber:
		p.next()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return plan.Num(v), nil
	case tkString:
		p.next()
		return plan.Str(t.text), nil
	case tkParam:
		p.next()
		idx, err := strconv.Atoi(t.text)
		if err != nil {
			return nil, p.errf("bad parameter $%s", t.text)
		}
		if idx > p.maxParam {
			p.maxParam = idx
		}
		return &plan.Param{Idx: idx}, nil
	case tkSymbol:
		if t.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tkSymbol, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tkIdent:
		p.next()
		// Aggregate call?
		if fn, ok := aggFns[strings.ToLower(t.text)]; ok && p.at(tkSymbol, "(") {
			p.next()
			if p.accept(tkSymbol, "*") {
				if fn != plan.AggCount {
					return nil, p.errf("%s(*) is not valid", t.text)
				}
				if _, err := p.expect(tkSymbol, ")"); err != nil {
					return nil, err
				}
				return &plan.Agg{Fn: plan.AggCount}, nil
			}
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tkSymbol, ")"); err != nil {
				return nil, err
			}
			return &plan.Agg{Fn: fn, Arg: arg}, nil
		}
		// Qualified or bare column.
		if p.accept(tkSymbol, ".") {
			c, err := p.expect(tkIdent, "")
			if err != nil {
				return nil, err
			}
			return &plan.ColRef{Qual: t.text, Name: c.text}, nil
		}
		return &plan.ColRef{Name: t.text}, nil
	}
	return nil, p.errf("unexpected token %q", t.text)
}
