package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/queries"
	"repro/internal/sqlparse"
)

// counts are the deterministic figures of a run: everything but host
// time and host allocation.
type counts struct {
	Reads, Failed                          int
	SimCycles, Hits, Misses, Evictions     uint64
	Rewrites                               int
	Instrs, NativeInstrs, ViewRows, IRInst float64
}

func shortRun(t *testing.T, w *workload, seed uint64) counts {
	t.Helper()
	m, err := run(w, config{seed: seed, episodes: 1, episodeOps: 30, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range m.failures {
		t.Errorf("%s: %s", w.name, f)
	}
	return counts{
		Reads: m.reads, Failed: m.failed,
		SimCycles: m.simCycles, Hits: m.hits, Misses: m.misses, Evictions: m.evictions,
		Rewrites:     m.rewrites,
		Instrs:       mean(m.tr.vals["vm.instrs_per_read"]),
		NativeInstrs: mean(m.tr.vals["codegen.native_instrs"]),
		ViewRows:     mean(m.tr.vals["mview.view_rows"]),
		IRInst:       mean(m.tr.vals["pipeline.ir_instrs"]),
	}
}

// TestDeterministicCounts runs every workload twice on one seed: every
// count must repeat exactly and no op may fail. Another seed must give
// another op stream.
func TestDeterministicCounts(t *testing.T) {
	for name, w := range workloads {
		a, b := shortRun(t, w, 7), shortRun(t, w, 7)
		if a != b {
			t.Errorf("%s: counts differ between two runs on one seed:\n%+v\n%+v", name, a, b)
		}
		if a.Failed != 0 || a.Reads == 0 || a.SimCycles == 0 || a.NativeInstrs == 0 {
			t.Errorf("%s: implausible counts %+v", name, a)
		}
		if reflect.DeepEqual(w.ops(7, 0, 50), w.ops(8, 0, 50)) {
			t.Errorf("%s: seeds 7 and 8 give the same op stream", name)
		}
		if reflect.DeepEqual(w.ops(7, 0, 50), w.ops(7, 1, 50)) {
			t.Errorf("%s: episodes 0 and 1 give the same op stream", name)
		}
	}
}

// TestAdhocStatementsCompile prepares every shape of the adhoc pool and a
// seeded stream of drawn statements: each must plan and take the cached
// (parameterized) path, so adhoc failures measure the system, not the
// generator.
func TestAdhocStatementsCompile(t *testing.T) {
	cat := datagen.Generate(datagen.Config{ScaleFactor: adhoc.sf, Seed: dataSeed})
	svc := engine.NewService(cat, engine.DefaultOptions(), 0)
	se := svc.NewSession()
	var stmts []string
	for _, s := range adhocShapes {
		stmts = append(stmts, s.text(episodeRand(3, 0, 1)))
	}
	for _, o := range adhoc.ops(3, 0, 500) {
		stmts = append(stmts, o.sql)
	}
	for _, sql := range stmts {
		q, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if _, err := plan.Plan(cat, q); err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		p, err := se.Prepare(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if p.Fallback {
			t.Errorf("%q: took the uncached fallback compile", sql)
		}
	}
}

// TestAdhocPoolExceedsCache checks that the adhoc shapes are distinct
// fingerprints, several times more than the compiled-query cache holds.
func TestAdhocPoolExceedsCache(t *testing.T) {
	if adhocCacheShapes != engine.DefaultCacheEntries {
		t.Fatalf("adhocCacheShapes = %d, cache capacity is %d", adhocCacheShapes, engine.DefaultCacheEntries)
	}
	fps := map[uint64]bool{}
	r := episodeRand(1, 0, 1)
	for _, s := range adhocShapes {
		fp, err := sqlparse.Normalize(s.text(r))
		if err != nil {
			t.Fatal(err)
		}
		fps[fp.Hash] = true
	}
	if len(fps) < 4*adhocCacheShapes {
		t.Fatalf("%d distinct shapes, want at least %d", len(fps), 4*adhocCacheShapes)
	}
}

// TestIngestViewsMix checks the ingest-views op mix (20% writes, 60%
// dashboard reads, 20% reads over orders) and that dashboard reads, and
// only they, are served by the view.
func TestIngestViewsMix(t *testing.T) {
	ops := ingestViews.ops(5, 0, 1000)
	var writes, dash, other int
	for _, o := range ops {
		switch {
		case o.write:
			writes++
		case strings.Contains(o.sql, "from sales"):
			dash++
		default:
			other++
		}
	}
	if writes != 200 || dash != 600 || other != 200 {
		t.Fatalf("mix: %d writes, %d dashboard, %d orders reads; want 200/600/200", writes, dash, other)
	}
	e, err := setup(ingestViews, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range ops[:100] {
		if o.write {
			continue
		}
		p, err := e.se.Prepare(o.sql)
		if err != nil {
			t.Fatal(err)
		}
		if served := p.Rewrite != nil; served != strings.Contains(o.sql, "from sales") {
			t.Errorf("%q: view-served = %v", o.sql, served)
		}
	}
}

// TestRedrawKeepsFingerprint checks that warm-profiled's redrawn
// statements keep their template's canonical form, so warm-up leaves
// every timed prepare a cache hit.
func TestRedrawKeepsFingerprint(t *testing.T) {
	r := episodeRand(9, 0, 1)
	for _, w := range queries.SQLSuite() {
		want, err := sqlparse.Normalize(w.SQL)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			sql := redraw(w.SQL, r)
			got, err := sqlparse.Normalize(sql)
			if err != nil {
				t.Fatalf("%q: %v", sql, err)
			}
			if got.Canon != want.Canon {
				t.Fatalf("%s: redrawn %q normalizes to %q, template to %q", w.Name, sql, got.Canon, want.Canon)
			}
		}
	}
}

// TestSameResult pins the row comparison's SQL semantics.
func TestSameResult(t *testing.T) {
	ordered := &plan.Output{OrderBy: []int{1}, Desc: []bool{true}, Limit: 2}
	unordered := &plan.Output{Limit: -1}
	cases := []struct {
		name      string
		got, want [][]int64
		pl        *plan.Output
		same      bool
	}{
		{"multiset", [][]int64{{1, 2}, {3, 4}}, [][]int64{{3, 4}, {1, 2}}, unordered, true},
		{"multiset differs", [][]int64{{1, 2}, {1, 2}}, [][]int64{{1, 2}, {3, 4}}, unordered, false},
		{"tie cut by limit", [][]int64{{1, 9}, {2, 5}}, [][]int64{{1, 9}, {3, 5}}, ordered, true},
		{"order differs", [][]int64{{2, 5}, {1, 9}}, [][]int64{{1, 9}, {2, 5}}, ordered, false},
		{"tie inside result", [][]int64{{1, 9}, {2, 9}}, [][]int64{{2, 9}, {1, 9}}, ordered, true},
		{"tie inside result differs", [][]int64{{1, 9}, {1, 9}}, [][]int64{{2, 9}, {1, 9}}, &plan.Output{OrderBy: []int{1}, Desc: []bool{true}, Limit: 3}, false},
		{"lengths", [][]int64{{1, 9}}, [][]int64{{1, 9}, {2, 5}}, ordered, false},
	}
	for _, c := range cases {
		if got := sameResult(c.got, c.want, c.pl); got != c.same {
			t.Errorf("%s: sameResult = %v, want %v", c.name, got, c.same)
		}
	}
}

// TestCalibrateMeasuresTime checks that every calibration kernel run
// reads a positive CPU time, so the host scale of a run is finite.
func TestCalibrateMeasuresTime(t *testing.T) {
	for i := 0; i < 20; i++ {
		if d := calibrate(); d <= 0 {
			t.Fatalf("calibration run %d read %v ms", i, d)
		}
	}
}
