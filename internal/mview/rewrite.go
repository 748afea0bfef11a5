package mview

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// The semantic rewriter: decide whether a normalized statement is
// subsumed by a registered view and, if so, re-emit it as SQL text over
// the view's partial-aggregate table. The rewritten text then flows
// through the ordinary Normalize → plan → compile → cache stack, so
// every textual variant of a dashboard query family converges onto ONE
// rewritten canonical form and ONE cached artifact.
//
// Soundness ladder (every rung must hold before a rewrite is served):
//
//  1. same base table, and the query is summarizable (Summarize);
//  2. per-column predicate containment: I_Q(c) ⊆ I_V(c) for every
//     column, with strict containment only allowed on view group-key
//     columns (the residual predicate re-filters partial rows by key —
//     on a non-key column the partials have already mixed rows the
//     query wants with rows it does not);
//  3. group-key subset: Q's keys ⊆ V's keys, so re-grouping the
//     partials by Q's keys is a pure rollup;
//  4. aggregate derivability: SUM→SUM of partial sums, COUNT→SUM of
//     partial counts, MIN→MIN of partial mins, MAX→MAX of partial maxes
//     (AVG is never derivable here — integer division does not commute
//     with rollup);
//  5. output-order totality: Q orders by all its group keys (or is a
//     scalar aggregate), so base and rewritten executions emit rows in
//     the same order and the rewrite is byte-identical, LIMIT included;
//  6. aggregate select items carry aliases, so the output header is
//     also preserved verbatim;
//  7. the cost gate: the rewritten plan must actually be cheaper under
//     the cycle model (a view as large as its base table wins nothing).
//
// Freshness is NOT decided here — prepare-time has no snapshot. The
// engine checks ConsistentUnder against the bound snapshot at run time
// and transparently falls back to the base-table statement when the
// snapshot has no consistent view prefix.

// Rewrite is a successful subsumption decision.
type Rewrite struct {
	SQL  string // rewritten statement over the view table
	View string // view name (for ConsistentUnder and attribution)
	Base string // base table name
}

// Rewrite tries to rewrite a normalized statement onto a registered
// view. With no views registered this is one atomic load — the zero
// rewrite tax for services that never created a view.
func (m *Manager) Rewrite(fp *sqlparse.Fingerprint) (*Rewrite, bool) {
	if m.nviews.Load() == 0 {
		return nil, false
	}
	qs, ok := Summarize(fp, m.cat)
	if !ok {
		return nil, false
	}
	if len(qs.Aggs) == 0 && len(qs.Keys) == 0 {
		return nil, false
	}
	if !qs.totalOrder() {
		return nil, false // rung 5: row order would be engine-chosen
	}
	for _, it := range qs.Select {
		if it.Kind == SelAgg && it.Alias == "" {
			return nil, false // rung 6: header must survive the rewrite
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	for _, name := range m.order {
		v := m.views[name]
		aggMap, ok := subsume(qs, v)
		if !ok {
			continue
		}
		// Freshness policy. Incremental views catch up right here (an
		// append-only delta re-aggregation); lazy views simply stop
		// matching while stale.
		if bt, err := m.cat.Table(v.def.Table); err == nil {
			last := v.states[len(v.states)-1]
			if int64(bt.Rows()) > last.Covered {
				if v.Policy != RefreshIncremental {
					continue
				}
				if err := m.refreshLocked(v); err != nil {
					continue
				}
			}
		}
		sql := emit(qs, v, aggMap)
		if !m.costGateOK(fp, v, sql) {
			continue
		}
		v.hits++
		return &Rewrite{SQL: sql, View: v.Name, Base: v.def.Table}, true
	}
	return nil, false
}

// subsume checks rungs 1–4 and returns, per query aggregate index, the
// view's stored-aggregate index it rolls up from.
func subsume(q *Summary, v *View) ([]int, bool) {
	d := v.def
	if q.Table != d.Table {
		return nil, false
	}
	// Rung 3: group-key subset.
	for _, k := range q.Keys {
		if !d.hasKey(k) {
			return nil, false
		}
	}
	// Rung 2: predicate containment. Every view predicate must be
	// matched by a query predicate at least as strict (else the view
	// dropped rows the query wants), and every query predicate must be
	// contained in the view's, strictly only on view key columns.
	for col, vi := range d.Preds {
		qi, ok := q.Preds[col]
		if !ok || !vi.Contains(qi) {
			return nil, false
		}
	}
	for col, qi := range q.Preds {
		vi, ok := d.Preds[col]
		if !ok {
			vi = Universe
		}
		if !vi.Contains(qi) {
			return nil, false
		}
		if qi != vi && !d.hasKey(col) {
			return nil, false
		}
	}
	// Rung 4: aggregate derivability.
	aggMap := make([]int, len(q.Aggs))
	for i, qa := range q.Aggs {
		switch qa.Fn {
		case plan.AggCount:
			aggMap[i] = v.cntIdx
		case plan.AggSum, plan.AggMin, plan.AggMax:
			j := -1
			for vi, va := range v.aggs {
				if va.Key == qa.Key {
					j = vi
					break
				}
			}
			if j < 0 {
				return nil, false
			}
			aggMap[i] = j
		default:
			return nil, false
		}
	}
	return aggMap, true
}

// emit re-emits the query as SQL over the view table: rolled-up
// aggregates, residual key predicates as raw encoded integer literals
// (the planner accepts plain numerics against any column type — they
// are already in encoded value space), Q's own group keys, ordinals for
// ORDER BY, and the original LIMIT.
func emit(q *Summary, v *View, aggMap []int) string {
	var b strings.Builder
	b.WriteString("select ")
	for i, it := range q.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		switch it.Kind {
		case SelKey:
			b.WriteString(it.Key)
		case SelAgg:
			fn := q.Aggs[it.AggIdx].Fn
			roll := "sum" // SUM of sums, SUM of counts
			if fn == plan.AggMin {
				roll = "min"
			} else if fn == plan.AggMax {
				roll = "max"
			}
			fmt.Fprintf(&b, "%s(%s)", roll, aggCol(aggMap[it.AggIdx]))
		}
		if it.Alias != "" {
			b.WriteString(" as ")
			b.WriteString(it.Alias)
		}
	}
	b.WriteString(" from ")
	b.WriteString(v.TableName)

	var residuals []string
	cols := make([]string, 0, len(q.Preds))
	for c := range q.Preds {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	for _, c := range cols {
		qi := q.Preds[c]
		if !v.def.hasKey(c) {
			continue // equal to the view's predicate; already applied
		}
		if qi.Lo == qi.Hi {
			residuals = append(residuals, fmt.Sprintf("%s = %s", c, numLit(qi.Lo)))
			continue
		}
		if qi.Lo != math.MinInt64 {
			residuals = append(residuals, fmt.Sprintf("%s >= %s", c, numLit(qi.Lo)))
		}
		if qi.Hi != math.MaxInt64 {
			residuals = append(residuals, fmt.Sprintf("%s <= %s", c, numLit(qi.Hi)))
		}
	}
	if len(residuals) > 0 {
		b.WriteString(" where ")
		b.WriteString(strings.Join(residuals, " and "))
	}
	if len(q.Keys) > 0 {
		b.WriteString(" group by ")
		b.WriteString(strings.Join(q.Keys, ", "))
	}
	if len(q.OrderBy) > 0 {
		b.WriteString(" order by ")
		for i, oi := range q.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(strconv.Itoa(oi + 1))
			if q.Desc[i] {
				b.WriteString(" desc")
			}
		}
	}
	if q.Limit >= 0 {
		fmt.Fprintf(&b, " limit %d", q.Limit)
	}
	return b.String()
}

// numLit renders an encoded value as a SQL integer literal.
func numLit(v int64) string { return strconv.FormatInt(v, 10) }

// CostModel prices a physical plan; the engine installs its cycle cost
// model (cost.Annotate) here. The indirection keeps mview free of a
// package-cost dependency so verify can import mview without a cycle.
type CostModel func(pl *plan.Output) float64

// SetCostModel installs the plan-pricing function the cost gate uses
// and clears previously cached verdicts.
func (m *Manager) SetCostModel(f CostModel) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.costFn = f
	m.costGate = map[[2]uint64]bool{}
}

// costGateOK plans both forms and serves the rewrite only if the cost
// model prices it strictly cheaper. The verdict is cached per
// (statement canon, view) for the current catalog state: the cycle
// model prices plans from catalog cardinalities, which move as base
// and view tables grow, so the cache is cleared whenever the catalog
// version (DDL, over-capacity growth) or epoch (in-capacity appends,
// refreshes) has advanced — a verdict computed on a tiny table must
// not outlive the sizes it was priced on. Drop and SetCostModel clear
// it too. The rewritten text must plan in any case — an emission the
// planner rejects is never served. Without an installed model only
// that plannability check gates.
func (m *Manager) costGateOK(fp *sqlparse.Fingerprint, v *View, rewritten string) bool {
	if ver, ep := m.cat.Version(), m.cat.Epoch(); ver != m.costVer || ep != m.costEpoch {
		m.costGate = map[[2]uint64]bool{}
		m.costVer, m.costEpoch = ver, ep
	}
	key := [2]uint64{fp.Hash, sqlparse.Hash64(v.Name)}
	if verdict, ok := m.costGate[key]; ok {
		return verdict
	}
	verdict := func() bool {
		rfp, err := sqlparse.Normalize(rewritten)
		if err != nil {
			return false
		}
		viewPlan, err := plan.Plan(m.cat, rfp.Query)
		if err != nil {
			return false
		}
		if m.costFn == nil {
			return true
		}
		basePlan, err := plan.Plan(m.cat, fp.Query)
		if err != nil {
			return false
		}
		return m.costFn(viewPlan) < m.costFn(basePlan)
	}()
	m.costGate[key] = verdict
	return verdict
}

// AutoEnabled reports whether heat-based admission is on — the engine's
// cheap guard before computing the plan-canon heat signal.
func (m *Manager) AutoEnabled() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.autoThreshold > 0 && m.autoBudget > 0
}

// NoteHeat records a rewriter miss for a summarizable statement, folds
// in the cardinality-history touch count for its plan (the cost.History
// heat signal), and auto-admits a generalizing view once the combined
// heat crosses the threshold. The admitted view drops the statement's
// predicates and instead promotes the predicated columns to group keys,
// so the whole query family (same shape, different constants) lands on
// it via residual predicates.
func (m *Manager) NoteHeat(fp *sqlparse.Fingerprint, histTouches uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.autoThreshold == 0 || m.autoBudget <= 0 {
		return
	}
	m.heat[fp.Hash]++
	if m.heat[fp.Hash]+histTouches < m.autoThreshold {
		return
	}
	qs, ok := Summarize(fp, m.cat)
	if !ok || (len(qs.Aggs) == 0 && len(qs.Keys) == 0) {
		delete(m.heat, fp.Hash) // never admittable; stop counting
		return
	}
	defSQL, ok := generalize(qs)
	if !ok {
		delete(m.heat, fp.Hash)
		return
	}
	name := fmt.Sprintf("auto_%x", fp.Hash)
	if _, dup := m.views[name]; dup {
		delete(m.heat, fp.Hash)
		return
	}
	// Create takes the manager lock itself; release around it.
	m.autoBudget--
	delete(m.heat, fp.Hash)
	m.mu.Unlock()
	_, cerr := m.Create(name, defSQL, RefreshIncremental)
	m.mu.Lock()
	if cerr != nil {
		m.autoBudget++
	}
}

// generalize renders the admitted view definition for a hot statement:
// group keys = the statement's keys plus its predicated columns (sorted
// for determinism), no predicates, the statement's aggregates.
func generalize(qs *Summary) (string, bool) {
	keys := append([]string(nil), qs.Keys...)
	var predCols []string
	for c := range qs.Preds {
		if !qs.hasKey(c) {
			predCols = append(predCols, c)
		}
	}
	sort.Strings(predCols)
	keys = append(keys, predCols...)
	if len(keys) == 0 && len(qs.Aggs) == 0 {
		return "", false
	}
	var b strings.Builder
	b.WriteString("select ")
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(k)
	}
	for i, a := range qs.Aggs {
		if i > 0 || len(keys) > 0 {
			b.WriteString(", ")
		}
		if a.Fn == plan.AggCount {
			b.WriteString("count(*)")
		} else {
			fmt.Fprintf(&b, "%s(%s)", a.Fn.String(), exprKey(a.Arg))
		}
	}
	b.WriteString(" from ")
	b.WriteString(qs.Table)
	if len(keys) > 0 {
		b.WriteString(" group by ")
		b.WriteString(strings.Join(keys, ", "))
	}
	return b.String(), true
}
