package plan

import (
	"fmt"
	"sort"

	"repro/internal/catalog"
)

// TableRef names a table in the FROM clause.
type TableRef struct{ Name, Alias string }

// SelectItem is one projection.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// OrderItem is one ORDER BY entry (bound against the select list).
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Hints let experiments force specific physical plans (the optimizer
// use case of Fig. 10 compares two hand-picked join orders).
type Hints struct {
	// ProbeBase forces the alias driving the probe pipeline.
	ProbeBase string
	// ProbeOrder forces the sequence of build-side aliases (probed in
	// this order along the pipeline).
	ProbeOrder []string
	// NoGroupJoin disables group-join fusion.
	NoGroupJoin bool
}

// Query is the bound-but-unplanned query form produced by the SQL parser
// (or constructed programmatically by benchmarks).
type Query struct {
	Tables  []TableRef
	Where   []Expr // conjuncts
	Select  []SelectItem
	GroupBy []Expr
	OrderBy []OrderItem
	Limit   int // <0: none
	Hints   Hints

	// NumParams is the number of bound parameters ($0..$N-1) the query
	// expects at execution time; the parser sets it from the highest
	// placeholder index seen.
	NumParams int
}

// schema tracks qualified column names → positions during planning.
type schema struct {
	cols []ColMeta
}

func (s *schema) find(qual, name string) (int, error) {
	found := -1
	for i, c := range s.cols {
		if c.Name != name {
			continue
		}
		if qual != "" && c.Qual != qual {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("plan: ambiguous column %q", name)
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("plan: unknown column %s.%s", qual, name)
	}
	return found, nil
}

// bind resolves an expression against a schema.
func bind(e Expr, s *schema) (PExpr, error) {
	switch x := e.(type) {
	case *Const:
		return &PConst{Val: x.Val}, nil
	case *Param:
		return &PParam{Idx: x.Idx}, nil
	case *ColRef:
		pos, err := s.find(x.Qual, x.Name)
		if err != nil {
			return nil, err
		}
		return &PCol{Pos: pos}, nil
	case *StrConst:
		return nil, fmt.Errorf("plan: string literal %q outside comparison", x.S)
	case *Bin:
		// String and date literals take their encoding from the column
		// they are compared with.
		if x.Op.IsComparison() {
			if lit, col, flip, ok := litCmp(x); ok {
				pcol, err := bind(col, s)
				if err != nil {
					return nil, err
				}
				pc, ok2 := pcol.(*PCol)
				if !ok2 {
					return nil, fmt.Errorf("plan: literal compared with non-column")
				}
				v, err := encodeLiteral(lit, s.cols[pc.Pos])
				if err != nil {
					return nil, err
				}
				l, r := PExpr(pcol), PExpr(&PConst{Val: v})
				if flip {
					l, r = r, l
				}
				return &PBin{Op: x.Op, L: l, R: r}, nil
			}
		}
		l, err := bind(x.L, s)
		if err != nil {
			return nil, err
		}
		r, err := bind(x.R, s)
		if err != nil {
			return nil, err
		}
		if x.Op.IsComparison() {
			// Parameters compared with a column take that column's
			// encoding (dictionary, date format) — same rule as string
			// literals, but resolved at execution time.
			noteParamMeta(x.L, r, s)
			noteParamMeta(x.R, l, s)
		}
		return &PBin{Op: x.Op, L: l, R: r}, nil
	case *Agg:
		return nil, fmt.Errorf("plan: aggregate %s in scalar context", x)
	}
	return nil, fmt.Errorf("plan: cannot bind %T", e)
}

// noteParamMeta records a parameter's encoding context when its
// comparison partner bound to a plain column reference.
func noteParamMeta(e Expr, other PExpr, s *schema) {
	pa, ok := e.(*Param)
	if !ok {
		return
	}
	if pc, ok := other.(*PCol); ok {
		pa.Typ = s.cols[pc.Pos].Type
		pa.Dict = s.cols[pc.Pos].Dict
	}
}

// litCmp detects comparisons between a column and a string literal.
func litCmp(b *Bin) (lit *StrConst, col Expr, flip, ok bool) {
	if s, o := b.L.(*StrConst); o {
		return s, b.R, true, true
	}
	if s, o := b.R.(*StrConst); o {
		return s, b.L, false, true
	}
	return nil, nil, false, false
}

func encodeLiteral(lit *StrConst, meta ColMeta) (int64, error) {
	switch meta.Type {
	case catalog.TDate:
		return catalog.ParseDate(lit.S)
	case catalog.TStr:
		if meta.Dict == nil {
			return -1, nil
		}
		if id, ok := meta.Dict.Lookup(lit.S); ok {
			return id, nil
		}
		return -1, nil // no row can match
	default:
		return 0, fmt.Errorf("plan: string literal %q compared with %s column", lit.S, meta.Type)
	}
}

// exprCols collects all column references in an expression.
func exprCols(e Expr, into *[]*ColRef) {
	switch x := e.(type) {
	case *ColRef:
		*into = append(*into, x)
	case *Bin:
		exprCols(x.L, into)
		exprCols(x.R, into)
	case *Agg:
		if x.Arg != nil {
			exprCols(x.Arg, into)
		}
	}
}

// Estimator hooks external cardinality knowledge into planning. The
// planner's own heuristics stay the backbone; an estimator can swap the
// statistics they read (stats-health experiments), refine a predicate's
// selectivity (histograms), or correct a whole plan expression's output
// estimate (the observed-cardinality history, keyed by Canon). Every
// method may decline (ok=false) to fall back to the built-in behavior.
//
// Corrected estimates feed the same decisions the heuristic ones do:
// probe-base and greedy build-order selection in joinTree, group-join
// fusion by way of the shapes those choices produce, and the engine's
// physical knobs (bloom filters, partition counts) via the cost model.
type Estimator interface {
	// ColStats overrides the statistics the planner reads for a
	// base-table column; ok=false uses the table's own (fresh) stats.
	ColStats(t *catalog.Table, col string) (catalog.Stats, bool)
	// Selectivity overrides one pushed-down predicate's estimated pass
	// fraction; heuristic is the stats-based estimate already computed.
	Selectivity(t *catalog.Table, col string, op BinOp, val int64, heuristic float64) (float64, bool)
	// Rows corrects a plan expression's estimated output cardinality;
	// canon is the node's canonical expression text (Canon).
	Rows(canon string, est float64) (float64, bool)
}

// planner carries binding state.
type planner struct {
	cat     *catalog.Catalog
	q       *Query
	tables  map[string]*catalog.Table // by alias
	aliases []string
	est     Estimator // nil: pure heuristics
}

// Plan turns a query into an optimized operator tree.
func Plan(cat *catalog.Catalog, q *Query) (*Output, error) {
	return PlanWith(cat, q, nil)
}

// PlanWith plans under an estimator hook (nil behaves like Plan).
func PlanWith(cat *catalog.Catalog, q *Query, est Estimator) (*Output, error) {
	p := &planner{cat: cat, q: q, tables: map[string]*catalog.Table{}, est: est}
	for _, tr := range q.Tables {
		t, err := cat.Table(tr.Name)
		if err != nil {
			return nil, err
		}
		alias := tr.Alias
		if alias == "" {
			alias = tr.Name
		}
		if _, dup := p.tables[alias]; dup {
			return nil, fmt.Errorf("plan: duplicate alias %q", alias)
		}
		p.tables[alias] = t
		p.aliases = append(p.aliases, alias)
	}
	return p.plan()
}

// conjunct classification.
type joinEdge struct {
	aliasA, colA string
	aliasB, colB string
}

func (p *planner) qualify(c *ColRef) (string, error) {
	if c.Qual != "" {
		if _, ok := p.tables[c.Qual]; !ok {
			return "", fmt.Errorf("plan: unknown alias %q", c.Qual)
		}
		return c.Qual, nil
	}
	owner := ""
	for _, a := range p.aliases {
		if p.tables[a].Col(c.Name) != nil {
			if owner != "" {
				return "", fmt.Errorf("plan: ambiguous column %q", c.Name)
			}
			owner = a
		}
	}
	if owner == "" {
		return "", fmt.Errorf("plan: unknown column %q", c.Name)
	}
	return owner, nil
}

func (p *planner) plan() (*Output, error) {
	// 1. Classify WHERE conjuncts into per-table filters and join edges.
	filters := map[string][]Expr{}
	var edges []joinEdge
	for _, conj := range Conjuncts(p.q.Where) {
		var refs []*ColRef
		exprCols(conj, &refs)
		seen := map[string]bool{}
		for _, r := range refs {
			a, err := p.qualify(r)
			if err != nil {
				return nil, err
			}
			seen[a] = true
		}
		switch len(seen) {
		case 0:
			return nil, fmt.Errorf("plan: constant predicate unsupported: %s", conj)
		case 1:
			for a := range seen {
				filters[a] = append(filters[a], conj)
			}
		case 2:
			b, ok := conj.(*Bin)
			if !ok || b.Op != OpEq {
				return nil, fmt.Errorf("plan: only equi-join predicates supported: %s", conj)
			}
			lc, lok := b.L.(*ColRef)
			rc, rok := b.R.(*ColRef)
			if !lok || !rok {
				return nil, fmt.Errorf("plan: join predicate must compare columns: %s", conj)
			}
			la, _ := p.qualify(lc)
			ra, _ := p.qualify(rc)
			edges = append(edges, joinEdge{la, lc.Name, ra, rc.Name})
		default:
			return nil, fmt.Errorf("plan: predicate spans >2 tables: %s", conj)
		}
	}

	// 2. Column requirements per alias.
	req := p.requiredColumns()

	// 3. Build scans.
	scans := map[string]*Scan{}
	for _, a := range p.aliases {
		s, err := p.buildScan(a, req[a], filters[a])
		if err != nil {
			return nil, err
		}
		scans[a] = s
	}

	// 4. Join ordering.
	cur, curSchema, err := p.joinTree(scans, edges)
	if err != nil {
		return nil, err
	}

	// 5. Aggregation.
	top, topSchema, err := p.aggregate(cur, curSchema)
	if err != nil {
		return nil, err
	}

	// 6. Output projections + ORDER BY/LIMIT.
	out, err := p.output(top, topSchema)
	if err != nil {
		return nil, err
	}

	// 7. Parameter manifest: binding recorded each parameter's encoding
	// context in the Query's Param nodes; collect it onto the plan root so
	// the executor can encode session arguments without the source query.
	out.Params, err = p.paramInfos()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// paramInfos walks the query's expression trees and assembles the
// per-parameter encoding manifest.
func (p *planner) paramInfos() ([]ParamInfo, error) {
	var params []*Param
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *Param:
			params = append(params, x)
		case *Bin:
			walk(x.L)
			walk(x.R)
		case *Agg:
			if x.Arg != nil {
				walk(x.Arg)
			}
		}
	}
	for _, c := range p.q.Where {
		walk(c)
	}
	for _, s := range p.q.Select {
		walk(s.Expr)
	}
	for _, g := range p.q.GroupBy {
		walk(g)
	}
	for _, o := range p.q.OrderBy {
		walk(o.Expr)
	}
	n := p.q.NumParams
	for _, pa := range params {
		if pa.Idx < 0 {
			return nil, fmt.Errorf("plan: negative parameter index $%d", pa.Idx)
		}
		if pa.Idx >= n {
			n = pa.Idx + 1 // programmatic queries may leave NumParams unset
		}
	}
	if n == 0 {
		return nil, nil
	}
	infos := make([]ParamInfo, n)
	for _, pa := range params {
		infos[pa.Idx] = ParamInfo{Type: pa.Typ, Dict: pa.Dict}
	}
	return infos, nil
}

// Conjuncts splits a WHERE clause's nested AND trees into its conjunct
// list, left to right.
func Conjuncts(conjs []Expr) []Expr {
	var out []Expr
	var rec func(e Expr)
	rec = func(e Expr) {
		if b, ok := e.(*Bin); ok && b.Op == OpAnd {
			rec(b.L)
			rec(b.R)
			return
		}
		out = append(out, e)
	}
	for _, c := range conjs {
		rec(c)
	}
	return out
}

// requiredColumns finds, per alias, the set of column names referenced
// anywhere in the query.
func (p *planner) requiredColumns() map[string]map[string]bool {
	req := map[string]map[string]bool{}
	for _, a := range p.aliases {
		req[a] = map[string]bool{}
	}
	collect := func(e Expr) {
		var refs []*ColRef
		exprCols(e, &refs)
		for _, r := range refs {
			if a, err := p.qualify(r); err == nil {
				req[a][r.Name] = true
			}
		}
	}
	for _, c := range p.q.Where {
		collect(c)
	}
	for _, s := range p.q.Select {
		collect(s.Expr)
	}
	for _, g := range p.q.GroupBy {
		collect(g)
	}
	for _, o := range p.q.OrderBy {
		collect(o.Expr)
	}
	return req
}

func (p *planner) buildScan(alias string, cols map[string]bool, filterExprs []Expr) (*Scan, error) {
	t := p.tables[alias]
	var idxs []int
	for name := range cols {
		ci := t.ColIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("plan: table %s has no column %s", t.Name, name)
		}
		idxs = append(idxs, ci)
	}
	sort.Ints(idxs)
	if len(idxs) == 0 {
		idxs = []int{0} // degenerate count(*)-style scan
	}
	s := &Scan{Table: t, Alias: alias, Cols: idxs}
	sch := &schema{cols: s.Out()}
	sel := 1.0
	var filter PExpr
	for _, fe := range filterExprs {
		pf, err := bind(fe, sch)
		if err != nil {
			return nil, err
		}
		if filter == nil {
			filter = pf
		} else {
			filter = &PBin{Op: OpAnd, L: filter, R: pf}
		}
		sel *= p.selectivity(s, pf)
	}
	s.Filter = filter
	s.Est = float64(t.Rows()) * sel
	if s.Est < 1 {
		s.Est = 1
	}
	p.correctRows(s)
	return s, nil
}

// colStats reads a column's statistics through the estimator hook.
func (p *planner) colStats(t *catalog.Table, col string) catalog.Stats {
	if p.est != nil {
		if st, ok := p.est.ColStats(t, col); ok {
			return st
		}
	}
	return t.ColStats(col)
}

// correctRows lets the estimator replace a freshly-estimated node's
// output cardinality (history-corrected re-planning).
func (p *planner) correctRows(n Node) {
	if p.est == nil {
		return
	}
	r, ok := p.est.Rows(Canon(n), n.EstRows())
	if !ok {
		return
	}
	if r < 1 {
		r = 1
	}
	switch x := n.(type) {
	case *Scan:
		x.Est = r
	case *Join:
		x.Est = r
	case *GroupBy:
		x.Est = r
	case *GroupJoin:
		x.Est = r
	}
}

// selectivity estimates a predicate's pass fraction from column stats.
func (p *planner) selectivity(s *Scan, f PExpr) float64 {
	b, ok := f.(*PBin)
	if !ok {
		return 0.33
	}
	col, okc := b.L.(*PCol)
	c, okv := b.R.(*PConst)
	if !okc || !okv {
		return 0.33
	}
	name := s.Out()[col.Pos].Name
	st := p.colStats(s.Table, name)
	var sel float64
	switch b.Op {
	case OpEq:
		if st.Distinct > 0 {
			sel = 1.0 / float64(st.Distinct)
		} else {
			sel = 0.1
		}
	case OpLt, OpLe:
		sel = rangeFraction(st, c.Val, true)
	case OpGt, OpGe:
		sel = rangeFraction(st, c.Val, false)
	case OpNe:
		sel = 0.9
	default:
		sel = 0.33
	}
	if p.est != nil {
		if s2, ok := p.est.Selectivity(s.Table, name, b.Op, c.Val, sel); ok {
			return s2
		}
	}
	return sel
}

func rangeFraction(st catalog.Stats, v int64, below bool) float64 {
	if st.Max <= st.Min {
		return 0.5
	}
	f := float64(v-st.Min) / float64(st.Max-st.Min)
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	if below {
		return f
	}
	return 1 - f
}
