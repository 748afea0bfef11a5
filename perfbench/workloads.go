package main

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/queries"
	"repro/internal/xrand"
)

// An op is one client request: a read (statement text) or a write (one
// append batch to the ingest table followed by a refresh of its view).
type op struct {
	write bool
	sql   string // read: statement text
	batch uint64 // write: datagen.AppendBatch seed
}

// A workload is a closed loop of one client session against one
// engine.Service. It runs in episodes: each episode sets the service up
// anew and then issues a fixed number of ops, so every op sees a
// state that depends only on the seed and its position in the episode,
// never on how fast earlier episodes ran.
type workload struct {
	name       string
	sf         float64 // datagen scale factor
	workers    int     // session worker count (0 = single-CPU path)
	profiled   bool    // sample every read (Event cycles, period 5000, IP+time+regs)
	episodeOps int     // ops per episode
	// views are (name, definition) pairs registered during set-up, with
	// incremental refresh.
	views [][2]string
	// warm lists the statements prepared during set-up.
	warm func(seed uint64) []string
	// ops returns one episode's op stream: a pure function of its
	// arguments.
	ops func(seed uint64, episode, n int) []op
}

// workloads are the benchmark's workloads, by name.
var workloads = map[string]*workload{
	"adhoc":         adhoc,
	"warm-profiled": warmProfiled,
	"ingest-views":  ingestViews,
}

// episodeRand derives the generator of one episode's op stream.
func episodeRand(seed uint64, episode int, salt uint64) *xrand.Rand {
	return xrand.New(seed*0x9e3779b97f4a7c15 ^ uint64(episode+1)*0xbf58476d1ce4e5b9 ^ salt)
}

// --- adhoc ----------------------------------------------------------------

// adhocCacheShapes is the number of distinct statement shapes the adhoc
// pool must exceed several times over: the service's compiled-query
// cache capacity (engine.DefaultCacheEntries).
const adhocCacheShapes = 128

// adhocSkew is the Zipf exponent of shape popularity. With the pool
// below it gives a hit share near 30%: misses, hits and evictions all
// occur, and compile stays a large share of read time.
const adhocSkew = 0.4

// A family is one FROM clause of the adhoc grammar with the group keys,
// aggregates and filters that apply to it.
type family struct {
	from    string
	join    string // join predicate, "" for single-table families
	keys    []string
	aggs    []string
	filters []filter
}

// A filter is one comparison whose literal is drawn per statement.
type filter struct {
	col, cmp string
	lit      func(r *xrand.Rand) string
}

func numLit(lo, hi int64) func(r *xrand.Rand) string {
	return func(r *xrand.Rand) string { return strconv.FormatInt(r.Int64Range(lo, hi), 10) }
}

func dateLit(r *xrand.Rand) string {
	lo, hi := catalog.DateOf(1992, 6, 1), catalog.DateOf(1998, 6, 1)
	return "'" + catalog.FormatDate(r.Int64Range(lo, hi)) + "'"
}

var adhocFamilies = []family{
	{
		from: "lineitem",
		keys: []string{"l_partkey", "l_suppkey", "l_returnflag", "l_linestatus", "l_tax"},
		aggs: []string{"sum(l_quantity)", "sum(l_extendedprice)", "count(*)", "min(l_discount)", "max(l_extendedprice)", "avg(l_quantity)"},
		filters: []filter{
			{"l_quantity", "<", numLit(5, 45)},
			{"l_discount", ">", numLit(0, 8)},
			{"l_shipdate", "<", dateLit},
			{"l_tax", "<=", numLit(1, 7)},
			{"l_extendedprice", ">=", numLit(1000, 40000)},
		},
	},
	{
		from: "lineitem, orders",
		join: "o_orderkey = l_orderkey",
		keys: []string{"o_custkey", "l_returnflag", "l_suppkey"},
		aggs: []string{"sum(l_extendedprice)", "count(*)", "max(o_totalprice)", "sum(l_quantity)"},
		filters: []filter{
			{"o_orderdate", "<", dateLit},
			{"o_totalprice", ">", numLit(10000, 400000)},
			{"l_quantity", "<", numLit(5, 45)},
			{"l_shipdate", ">=", dateLit},
		},
	},
	{
		from: "lineitem, part",
		join: "p_partkey = l_partkey",
		keys: []string{"p_size", "p_brand", "p_category"},
		aggs: []string{"sum(l_extendedprice)", "count(*)", "min(p_retailprice)", "sum(l_quantity)"},
		filters: []filter{
			{"p_size", "<", numLit(5, 45)},
			{"p_retailprice", ">", numLit(500, 9000)},
			{"l_discount", "<=", numLit(1, 9)},
		},
	},
	{
		from: "orders",
		keys: []string{"o_custkey", "o_orderdate"},
		aggs: []string{"sum(o_totalprice)", "count(*)", "max(o_totalprice)", "min(o_orderkey)"},
		filters: []filter{
			{"o_orderdate", ">=", dateLit},
			{"o_totalprice", "<", numLit(50000, 450000)},
			{"o_orderkey", ">", numLit(1, 250)},
		},
	},
	{
		from: "orders, customer",
		join: "c_custkey = o_custkey",
		keys: []string{"c_nationkey", "c_mktsegment"},
		aggs: []string{"sum(o_totalprice)", "count(*)", "max(c_acctbal)"},
		filters: []filter{
			{"o_orderdate", "<", dateLit},
			{"c_acctbal", ">", numLit(-500, 8000)},
			{"o_totalprice", ">=", numLit(10000, 400000)},
		},
	},
}

// A shape is one statement template of the adhoc pool; statements of one
// shape differ only in their filter literal and share one fingerprint.
type shape struct {
	fam          *family
	key, agg     string
	filt         filter
	orderedLimit bool // add "order by <key> limit 20" (a total order: keys are unique per group)
}

func (s shape) text(r *xrand.Rand) string {
	var b strings.Builder
	b.WriteString("select " + s.key + ", " + s.agg + " from " + s.fam.from + " where ")
	if s.fam.join != "" {
		b.WriteString(s.fam.join + " and ")
	}
	b.WriteString(s.filt.col + " " + s.filt.cmp + " " + s.filt.lit(r))
	b.WriteString(" group by " + s.key)
	if s.orderedLimit {
		b.WriteString(" order by " + s.key + " limit 20")
	}
	return b.String()
}

// adhocPool enumerates every shape of the grammar in a fixed,
// seed-independent popularity order. The order is a fixed shuffle so
// that single-table and join shapes interleave across ranks.
func adhocPool() []shape {
	var pool []shape
	for i := range adhocFamilies {
		f := &adhocFamilies[i]
		for _, k := range f.keys {
			for _, a := range f.aggs {
				for _, fl := range f.filters {
					for _, ol := range []bool{false, true} {
						pool = append(pool, shape{fam: f, key: k, agg: a, filt: fl, orderedLimit: ol})
					}
				}
			}
		}
	}
	perm := xrand.New(0xad0c).Perm(len(pool))
	out := make([]shape, len(pool))
	for i, j := range perm {
		out[i] = pool[j]
	}
	return out
}

// adhocStream draws n adhoc statements: the shape sequence from
// shapeSeed alone, the literals from lits. Timed episodes share one shape
// sequence, so every run sees the same mix of shapes, hits and misses,
// and runs differ only in what the statements select. That keeps the
// differences between runs down to the system's.
func adhocStream(shapeSeed uint64, lits *xrand.Rand, n int) []string {
	shapes := xrand.New(shapeSeed)
	out := make([]string, n)
	for i := range out {
		out[i] = adhocShapes[shapes.Zipf(adhocZipf)].text(lits)
	}
	return out
}

var (
	adhocShapes = adhocPool()
	adhocZipf   = xrand.NewZipf(len(adhocShapes), adhocSkew)
)

var adhoc = &workload{
	name:       "adhoc",
	sf:         0.02,
	episodeOps: 800,
	// Warm-up prepares twice the cache capacity in statements drawn like
	// the timed ones (another shape sequence), so an episode starts with a
	// full, skewed cache.
	warm: func(seed uint64) []string {
		return adhocStream(0x3a2e, episodeRand(seed, -1, 0x11ad), 2*adhocCacheShapes)
	},
	ops: func(seed uint64, episode, n int) []op {
		out := make([]op, n)
		for i, sql := range adhocStream(0xad0c, episodeRand(seed, episode, 0x11ad), n) {
			out[i] = op{sql: sql}
		}
		return out
	},
}

// --- warm-profiled ----------------------------------------------------------

// literalRE matches a comparison against a literal: the positions where
// warm-profiled draws a fresh value. ORDER BY/LIMIT tails and arithmetic
// constants are not comparisons and stay as written.
var literalRE = regexp.MustCompile(`(<=|>=|<>|<|>|=)\s*('[^']*'|\d+)`)

// redraw replaces every compared literal of a template with a value drawn
// near the original: numbers in [n/2, 3n/2], dates within half a year,
// single-letter flags among the return flags. Equal literals get equal
// values: the fingerprint lifts equal numbers into one parameter, so this
// keeps every redrawn statement on its template's cached artifact.
func redraw(tmpl string, r *xrand.Rand) string {
	drawn := map[string]string{}
	return literalRE.ReplaceAllStringFunc(tmpl, func(m string) string {
		sub := literalRE.FindStringSubmatch(m)
		cmp, lit := sub[1], sub[2]
		v, ok := drawn[lit]
		if !ok {
			v = drawNear(lit, r)
			drawn[lit] = v
		}
		return cmp + " " + v
	})
}

// drawNear draws a literal of the same kind near lit.
func drawNear(lit string, r *xrand.Rand) string {
	if strings.HasPrefix(lit, "'") && len(lit) == 3 {
		return "'" + []string{"A", "R", "N"}[r.Intn(3)] + "'"
	}
	if strings.HasPrefix(lit, "'") {
		if d, err := catalog.ParseDate(strings.Trim(lit, "'")); err == nil {
			return "'" + catalog.FormatDate(d+r.Int64Range(-182, 182)) + "'"
		}
		return lit
	}
	if n, err := strconv.ParseInt(lit, 10, 64); err == nil {
		return strconv.FormatInt(n/2+r.Int64Range(0, n), 10)
	}
	return lit
}

var warmProfiled = &workload{
	name:       "warm-profiled",
	sf:         0.2,
	workers:    2,
	profiled:   true,
	episodeOps: 90,
	warm: func(uint64) []string {
		var out []string
		for _, w := range queries.SQLSuite() {
			out = append(out, w.SQL)
		}
		return out
	},
	ops: func(seed uint64, episode, n int) []op {
		suite := queries.SQLSuite()
		r := episodeRand(seed, episode, 0x3a7d)
		out := make([]op, 0, n)
		// Every block of len(suite) reads is a permutation of the
		// templates, so the template mix is exact in every episode.
		for len(out) < n {
			for _, i := range r.Perm(len(suite)) {
				if len(out) < n {
					out = append(out, op{sql: redraw(suite[i].SQL, r)})
				}
			}
		}
		return out
	},
}

// --- ingest-views -----------------------------------------------------------

// The ingest-views view: the dashboard family's per-product revenue.
const (
	ingestTable = "sales"
	ingestView  = "rev_by_prod"
	ingestDef   = "select id, sum(price), count(*) from sales group by id"
	ingestBatch = 256 // rows per append
)

// dashboardRead is a view-served read: per-product revenue over an id
// range, totally ordered by the group key.
func dashboardRead(r *xrand.Rand) string {
	lo := r.Int64Range(1, 180)
	hi := lo + r.Int64Range(5, 40)
	return fmt.Sprintf("select id, sum(price) as rev, count(*) as n from sales where id >= %d and id <= %d group by id order by id", lo, hi)
}

// ordersRead matches no view: it always runs on its base table.
func ordersRead(r *xrand.Rand) string {
	return fmt.Sprintf("select o_custkey, sum(o_totalprice) as t from orders where o_orderkey >= %d group by o_custkey order by o_custkey",
		r.Int64Range(1, 2500))
}

// ingestBlock is the op mix of ingest-views per block of ten ops: two
// writes, six view-served reads and two no-match reads.
var ingestBlock = []byte("wwddddddoo")

var ingestViews = &workload{
	name:       "ingest-views",
	sf:         0.2,
	episodeOps: 400,
	views:      [][2]string{{ingestView, ingestDef}},
	warm: func(seed uint64) []string {
		r := episodeRand(seed, -1, 0x1e57)
		return []string{dashboardRead(r), ordersRead(r)}
	},
	ops: func(seed uint64, episode, n int) []op {
		r := episodeRand(seed, episode, 0x1e57)
		out := make([]op, 0, n)
		for len(out) < n {
			for _, i := range r.Perm(len(ingestBlock)) {
				if len(out) == n {
					break
				}
				switch ingestBlock[i] {
				case 'w':
					out = append(out, op{write: true, batch: r.Uint64()})
				case 'd':
					out = append(out, op{sql: dashboardRead(r)})
				default:
					out = append(out, op{sql: ordersRead(r)})
				}
			}
		}
		return out
	},
}
