package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/iropt"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// The engine lays out the VM's low memory as a call-staging area at 256
// followed by a 64 KiB spill area at 512 (unexported constants of
// internal/engine). The decomposed compile below mirrors them; comparing
// its instruction count with the service's artifact catches any drift.
const (
	stagingAddr = 256
	spillBase   = 512
	spillCap    = 64 << 10
)

// tracer collects per-layer samples of a traced run. Layers are timed
// from the benchmark's side: calls made inside Service.Prepare or
// Session.Run are repeated as shadow calls on the same inputs after the
// op's clock has stopped, and an enclosing call's residual is reported
// as its self time.
type tracer struct {
	vals map[string][]float64
	// Sums over timed reads: latency, Run time, and Prepare time and
	// count of the cache misses.
	readNS, runNS, missNS int64
	misses                int
}

// compileShare is the share of timed read latency spent compiling: each
// miss's Prepare time beyond the median hit's.
func (t *tracer) compileShare() float64 {
	hit := quantile(t.vals["engine.prepare_hit_us"], 0.5) * 1e3
	return ratio(float64(t.missNS)-float64(t.misses)*hit, float64(t.readNS))
}

func newTracer() *tracer { return &tracer{vals: map[string][]float64{}} }

func (t *tracer) add(name string, v float64) { t.vals[name] = append(t.vals[name], v) }

// read records one timed read's layers.
func (t *tracer) read(e *env, sql string, p *engine.Prepared, res *engine.Result, lat, runT time.Duration) error {
	t.readNS += lat.Nanoseconds()
	t.runNS += runT.Nanoseconds()
	t.add("engine.run_ms", ms(runT))
	if n := res.Stats.Instructions; n > 0 {
		t.add("vm.ns_per_instr", float64(runT.Nanoseconds())/float64(n))
	}
	t.add("vm.instrs_per_read", float64(res.Stats.Instructions))
	if e.pmu != nil {
		t.add("pmu.samples_per_read", float64(len(res.Samples)))
		t0 := time.Now()
		core.BuildProfile(core.NewAttributor(p.Compiled.Pipe.Dict, p.Compiled.Code.NMap), res.Samples)
		t.add("core.profile_us", us(time.Since(t0)))
		plain, err := e.se.Run(p, nil)
		if err != nil {
			return fmt.Errorf("unprofiled shadow run: %w", err)
		}
		if plain.WallCycles > 0 {
			t.add("pmu.overhead_cycles_pct", 100*(float64(res.WallCycles)-float64(plain.WallCycles))/float64(plain.WallCycles))
		}
	}
	return t.prepared(e, sql, p, true)
}

// prepared records the prepare-side layers of one statement; on a cache
// miss it decomposes the compile through the public stage functions.
func (t *tracer) prepared(e *env, sql string, p *engine.Prepared, timed bool) error {
	t0 := time.Now()
	fp, err := sqlparse.Normalize(sql)
	t.add("sqlparse.normalize_us", us(time.Since(t0)))
	if err != nil {
		return fmt.Errorf("normalize shadow: %w", err)
	}
	t0 = time.Now()
	e.svc.Views().Rewrite(fp)
	t.add("mview.rewrite_us", us(time.Since(t0)))
	if p.CacheHit {
		t.add("engine.prepare_hit_us", us(p.PrepareTime))
		return nil
	}
	t.add("engine.prepare_miss_ms", ms(p.PrepareTime))
	if timed {
		t.missNS += p.PrepareTime.Nanoseconds()
		t.misses++
	}
	return t.decompose(e, sql, p)
}

// stageTimes is one replay of a compile, stage by stage.
type stageTimes struct {
	parse, plan, annotate, compile, pipeline, optimize, verify, codegen time.Duration
	passes                                                              map[string]time.Duration
}

// minStages keeps, per stage, the faster of two replays: a stage's
// duration is the replay's work plus whatever the host added (a GC
// cycle, a preemption), and the minimum drops most of the latter.
func minStages(a, b stageTimes) stageTimes {
	out := stageTimes{
		parse: min(a.parse, b.parse), plan: min(a.plan, b.plan), annotate: min(a.annotate, b.annotate),
		compile: min(a.compile, b.compile), pipeline: min(a.pipeline, b.pipeline),
		optimize: min(a.optimize, b.optimize), verify: min(a.verify, b.verify), codegen: min(a.codegen, b.codegen),
		passes: map[string]time.Duration{},
	}
	for k, v := range a.passes {
		out.passes[k] = min(v, b.passes[k])
	}
	return out
}

// decompose replays one miss's compile stage by stage, twice, keeping
// each stage's faster time. The stages run on the artifact's own plan and
// layout; the resulting program must match the artifact's instruction
// count.
func (t *tracer) decompose(e *env, sql string, p *engine.Prepared) error {
	var reps [2]stageTimes
	var r replay
	for i := range reps {
		var err error
		if reps[i], r, err = replayCompile(e, sql, p); err != nil {
			return err
		}
	}
	st := minStages(reps[0], reps[1])
	t.add("sqlparse.parse_us", us(st.parse))
	t.add("plan.plan_us", us(st.plan))
	t.add("cost.annotate_us", us(st.annotate))
	t.add("engine.compile_ms", ms(st.compile))
	t.add("engine.compile_allocs", float64(r.allocs))
	t.add("pipeline.compile_us", us(st.pipeline))
	t.add("pipeline.ir_instrs", float64(r.irInstrs))
	t.add("iropt.optimize_us", us(st.optimize))
	t.add("iropt.fold_us", us(st.passes["fold"]))
	t.add("iropt.cse_us", us(st.passes["cse"]))
	t.add("iropt.dce_us", us(st.passes["dce"]))
	t.add("iropt.rounds", float64(r.rounds))
	t.add("ir.verify_us", us(st.verify))
	t.add("codegen.compile_us", us(st.codegen))
	t.add("codegen.native_instrs", float64(r.nativeInstrs))
	t.add("codegen.spills", float64(r.spills))
	t.add("engine.layout_us", us(st.compile-st.pipeline-st.optimize-st.verify-st.codegen))
	return nil
}

// replay holds the counts of one compile replay.
type replay struct {
	allocs                                 uint64
	irInstrs, rounds, nativeInstrs, spills int
}

// replayCompile times one replay of the compile behind p: the front half
// (parse, plan, annotate), the engine compile as a whole, and its stages
// through the public stage functions.
func replayCompile(e *env, sql string, p *engine.Prepared) (stageTimes, replay, error) {
	var st stageTimes
	var r replay
	cq := p.Compiled
	text := p.Canon
	if p.Fallback {
		text = sql
	}
	t0 := time.Now()
	q, err := sqlparse.Parse(text)
	st.parse = time.Since(t0)
	if err != nil {
		return st, r, fmt.Errorf("parse shadow: %w", err)
	}
	est := &cost.HistoryCorrected{Base: &cost.Naive{Stats: cost.FreshStats{}}, H: e.svc.History()}
	t0 = time.Now()
	if _, err := plan.PlanWith(e.cat, q, est); err != nil {
		return st, r, fmt.Errorf("plan shadow: %w", err)
	}
	st.plan = time.Since(t0)
	t0 = time.Now()
	model := cost.Annotate(cq.Plan)
	st.annotate = time.Since(t0)

	opts := e.svc.Options()
	if !p.Fallback {
		opts.BloomFilters, opts.Partitions = cost.Decide(model, opts.BloomFilters, opts.Partitions)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 = time.Now()
	whole, err := (&engine.Compiler{Cat: e.cat, Opts: opts}).CompilePlan(cq.Plan)
	st.compile = time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return st, r, fmt.Errorf("engine compile shadow: %w", err)
	}
	r.allocs = m1.Mallocs - m0.Mallocs

	t0 = time.Now()
	pc, err := pipeline.Compile(cq.Plan, cq.Layout, pipeline.Options{
		RegisterTagging:  opts.RegisterTagging,
		TagEverything:    opts.TagEverything,
		EagerColumnLoads: opts.EagerColumnLoads,
		TupleCounters:    opts.TupleCounters,
	})
	st.pipeline = time.Since(t0)
	if err != nil {
		return st, r, fmt.Errorf("pipeline shadow: %w", err)
	}
	r.irInstrs = pc.Module.InstrCount()

	st.passes = map[string]time.Duration{}
	oo := opts.Optimize
	last := time.Now()
	oo.AfterPass = func(pass string) error {
		now := time.Now()
		st.passes[pass] += now.Sub(last)
		last = now
		if pass == "dce" {
			r.rounds++
		}
		return nil
	}
	t0 = last
	if _, err := iropt.Optimize(pc.Module, pc.Dict, oo); err != nil {
		return st, r, fmt.Errorf("iropt shadow: %w", err)
	}
	st.optimize = time.Since(t0)

	t0 = time.Now()
	if err := pc.Module.Verify(); err != nil {
		return st, r, fmt.Errorf("ir verify shadow: %w", err)
	}
	st.verify = time.Since(t0)

	ccfg := codegen.DefaultConfig(stagingAddr, spillBase, spillCap)
	ccfg.RegisterTagging = opts.RegisterTagging
	ccfg.FuseCmpBranch = opts.FuseCmpBranch
	t0 = time.Now()
	code, err := codegen.Compile(pc.Module, ccfg)
	st.codegen = time.Since(t0)
	if err != nil {
		return st, r, fmt.Errorf("codegen shadow: %w", err)
	}
	want := len(cq.Code.Program.Code)
	if got := len(code.Program.Code); got != want {
		return st, r, fmt.Errorf("decomposed compile emitted %d instructions, artifact has %d", got, want)
	}
	if got := len(whole.Code.Program.Code); got != want {
		return st, r, fmt.Errorf("engine compile shadow emitted %d instructions, artifact has %d", got, want)
	}
	r.nativeInstrs, r.spills = want, code.Spills
	return st, r, nil
}
