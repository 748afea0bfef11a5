package engine

// The query service: the multi-session, cache-fronted face of the engine.
//
// A Service owns one catalog, one compiler configuration and one
// compiled-query cache; Sessions are cheap per-client handles that share
// all of it. Prepare normalizes a statement (sqlparse.Normalize), looks
// the fingerprint up in the cache — compiling under single-flight on a
// miss — and encodes the statement's lifted literals against the plan's
// parameter manifest. The artifact that comes back is immutable and
// shared; everything a run mutates lives in the per-call RunState and the
// per-run VM, so any number of sessions can execute one artifact
// concurrently.
//
// Verification (Options.VerifyArtifacts) runs inside the compile path,
// i.e. exactly once per cache insert: an artifact that was verified when
// it entered the cache cannot become invalid later, because it is never
// mutated — re-verifying per hit would only re-check the same bytes.
//
// Adaptive execution (Session.Adapt) ties the PGO loop into the cache:
// when a profile-guided recompile beats the baseline, the profile is
// promoted to a new generation (pgo.Generations), the tuned artifact is
// cached under the new generation's key, and older generations of the
// fingerprint are invalidated — so the next Prepare from any session
// returns the faster binary.

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/mview"
	"repro/internal/pgo"
	"repro/internal/plan"
	"repro/internal/pmu"
	"repro/internal/qcache"
	"repro/internal/sqlparse"
)

// DefaultCacheEntries is the compiled-query cache capacity when
// NewService is given no explicit size.
const DefaultCacheEntries = 128

// Service is a shared, concurrency-safe query service: catalog +
// compiler options + compiled-query cache + PGO generation table.
type Service struct {
	cat       *catalog.Catalog
	opts      Options
	optDigest uint64
	cache     *qcache.Cache[*Compiled]
	gens      *pgo.Generations
	history   *cost.History
	views     *mview.Manager
	nextID    atomic.Int64
	fallbacks atomic.Uint64
}

// NewService creates a service. cacheEntries <= 0 selects
// DefaultCacheEntries.
func NewService(cat *catalog.Catalog, opts Options, cacheEntries int) *Service {
	if cacheEntries <= 0 {
		cacheEntries = DefaultCacheEntries
	}
	s := &Service{
		cat:       cat,
		opts:      opts,
		optDigest: opts.Digest(),
		cache:     qcache.New[*Compiled](cacheEntries),
		gens:      pgo.NewGenerations(),
		history:   cost.NewHistory(),
		views:     mview.NewManager(cat),
	}
	// The view rewriter's cost gate prices candidate plans with the same
	// cycle model the compiler's knob decisions use.
	s.views.SetCostModel(func(pl *plan.Output) float64 { return cost.Annotate(pl).TotalCycles })
	return s
}

// Views exposes the service's materialized-view manager.
func (s *Service) Views() *mview.Manager { return s.views }

// CreateView registers and builds a materialized view; every session's
// subsequent prepares consider it for subsumption rewriting. The view
// generation in the cache key changes, so previously cached artifacts
// (compiled under the old rewrite decision space) are re-decided.
func (s *Service) CreateView(name, defSQL string, policy mview.RefreshPolicy) (*mview.View, error) {
	return s.views.Create(name, defSQL, policy)
}

// DropView unregisters a view and removes its backing table.
func (s *Service) DropView(name string) error { return s.views.Drop(name) }

// RefreshView catches a view up to the base table's current prefix.
func (s *Service) RefreshView(name string) error { return s.views.Refresh(name) }

func (s *Service) compiler() *Compiler { return &Compiler{Cat: s.cat, Opts: s.opts} }

// History exposes the service's observed-cardinality cache (shared by
// all sessions; Adapt is its writer).
func (s *Service) History() *cost.History { return s.history }

// estimator is the planner hook every service compile runs under:
// heuristics over fresh statistics, corrected by whatever true
// cardinalities the history has accumulated. With an empty history it is
// exactly the classic planner.
func (s *Service) estimator() plan.Estimator {
	return &cost.HistoryCorrected{Base: &cost.Naive{Stats: cost.FreshStats{}}, H: s.history}
}

// Options returns the service's compiler configuration.
func (s *Service) Options() Options { return s.opts }

// Catalog returns the service's catalog.
func (s *Service) Catalog() *catalog.Catalog { return s.cat }

// Append ingests row tuples into a table (see catalog.Append): the storage
// epoch advances, the window is journaled, and — within the table's frozen
// capacity — the catalog version does not change, so every cached artifact
// stays valid and every in-flight execution keeps reading its pinned
// snapshot while the rows land in the tail.
func (s *Service) Append(table string, rows [][]int64) (catalog.AppendResult, error) {
	return s.cat.Append(table, rows)
}

// AppendCols is Append in columnar form (see catalog.AppendCols).
func (s *Service) AppendCols(table string, cols [][]int64) (catalog.AppendResult, error) {
	return s.cat.AppendCols(table, cols)
}

// Snapshot captures the catalog's current epoch: an immutable view every
// table, suitable for pinning to a RunState or a Session.
func (s *Service) Snapshot() *catalog.Snapshot { return s.cat.Snapshot() }

// Epoch returns the catalog's current storage epoch.
func (s *Service) Epoch() uint64 { return s.cat.Epoch() }

// CacheStats snapshots the compiled-query cache's traffic counters.
func (s *Service) CacheStats() qcache.Stats { return s.cache.Stats() }

// CacheLen returns the number of cached artifacts.
func (s *Service) CacheLen() int { return s.cache.Len() }

// Fallbacks counts statements served by a direct, uncached compile
// because their parameterized form did not plan (see prepare).
func (s *Service) Fallbacks() uint64 { return s.fallbacks.Load() }

// SessionStats accumulates one session's traffic and its compile-vs-
// execute time split.
type SessionStats struct {
	Queries   int
	CacheHits int
	Fallbacks int
	// Rewrites counts prepares served by a materialized-view rewrite;
	// RewriteFallbacks counts runs of rewritten statements that fell
	// back to base-table execution because the bound snapshot had no
	// consistent view prefix (the zero-stale-read guard).
	Rewrites         int
	RewriteFallbacks int
	// Prepare is wall time spent in Prepare (cache lookups, compiles,
	// argument encoding); Execute is wall time spent running artifacts.
	Prepare time.Duration
	Execute time.Duration
}

// Session is one client's handle on the service. A session is not
// goroutine-safe (each concurrent client takes its own), but any number
// of sessions may share the Service and its cached artifacts.
type Session struct {
	ID    int64
	svc   *Service
	exec  Executor
	stats SessionStats
	snap  *catalog.Snapshot
}

// NewSession opens a session. Run knobs (worker count, morsel size) are
// per-session and do not affect the cache key — the same artifact serves
// every execution configuration.
func (s *Service) NewSession() *Session {
	return &Session{ID: s.nextID.Add(1), svc: s, exec: Executor{Opts: s.opts}}
}

// SetWorkers selects this session's morsel-parallel worker count
// (0 = legacy single-CPU path).
func (se *Session) SetWorkers(n int) { se.exec.Opts.Workers = n }

// SetMorselRows selects this session's morsel size (0 = default).
func (se *Session) SetMorselRows(n int) { se.exec.Opts.MorselRows = n }

// SetShards selects this session's shard count for artifacts compiled
// without a per-statement decision; service-cached artifacts carry their
// own cost-model decision (cost.DecideShards), which wins.
func (se *Session) SetShards(n int) { se.exec.Opts.Shards = n }

// SetShardPruning toggles zone pruning for this session's sharded runs
// (same per-statement-decision precedence as SetShards).
func (se *Session) SetShardPruning(on bool) { se.exec.Opts.ShardPruning = on }

// Stats returns the session's accumulated counters.
func (se *Session) Stats() SessionStats { return se.stats }

// Append ingests row tuples through the session's service. The session's
// own pinned snapshot (if any) is unaffected: the new rows become visible
// to it only after the next PinSnapshot (or immediately to unpinned runs,
// which bind the current epoch per execution).
func (se *Session) Append(table string, rows [][]int64) (catalog.AppendResult, error) {
	return se.svc.Append(table, rows)
}

// PinSnapshot pins the catalog's current epoch to this session: every
// subsequent Run binds against it — repeatable reads under concurrent
// ingest — until the next PinSnapshot or Unpin. Returns the pinned
// snapshot.
func (se *Session) PinSnapshot() *catalog.Snapshot {
	se.snap = se.svc.Snapshot()
	return se.snap
}

// Pinned returns the session's pinned snapshot, nil if unpinned.
func (se *Session) Pinned() *catalog.Snapshot { return se.snap }

// Unpin releases the session's pinned snapshot; subsequent runs bind the
// catalog's current epoch at execute time.
func (se *Session) Unpin() { se.snap = nil }

// Prepared is a statement readied for execution: a shared compiled
// artifact plus this statement's private run state.
type Prepared struct {
	Compiled *Compiled
	// State carries the statement's encoded literal bindings; nil for
	// parameterless artifacts.
	State *RunState
	// CacheHit reports that Prepare found the artifact already resolved
	// in the cache (joining an in-flight compile does not count).
	CacheHit bool
	// Fallback reports a direct, uncached compile of the original text.
	Fallback bool
	// Canon and Fingerprint identify the normalized statement — the
	// *rewritten* one when Rewrite is set.
	Canon       string
	Fingerprint uint64
	// Rewrite records a materialized-view rewrite applied at prepare
	// time; nil when the statement runs against its base tables.
	Rewrite *RewriteInfo
	// PrepareTime is the wall time Prepare took for this statement.
	PrepareTime time.Duration

	key qcache.Key
}

// RewriteInfo describes a subsumption rewrite riding on a Prepared.
type RewriteInfo struct {
	View string // serving view
	Base string // base table the original statement scanned
	SQL  string // rewritten statement text (what was compiled)
	Orig string // original statement text (the run-time fallback path)
}

// Prepare normalizes, caches/compiles and binds one statement.
func (se *Session) Prepare(sql string) (*Prepared, error) {
	p, err := se.svc.prepare(sql)
	if err != nil {
		return nil, err
	}
	se.stats.Queries++
	if p.CacheHit {
		se.stats.CacheHits++
	}
	if p.Fallback {
		se.stats.Fallbacks++
	}
	if p.Rewrite != nil {
		se.stats.Rewrites++
	}
	se.stats.Prepare += p.PrepareTime
	return p, nil
}

// Run executes a prepared statement under this session's run options,
// bound to the session's pinned snapshot when one is set.
//
// Rewritten statements carry the zero-stale-read guard: the bound
// snapshot's (base rows, view rows) pair must appear in the view's
// refresh ledger — exact prefix agreement on both sides — or the run
// transparently falls back to the original statement under the very
// same snapshot. A refreshed view can therefore never serve rows a
// snapshot should not see, and a snapshot taken mid-append can never
// read half-covered partials.
func (se *Session) Run(p *Prepared, cfg *pmu.Config) (*Result, error) {
	t0 := time.Now()
	if p.Rewrite != nil {
		// Rewritten artifacts always bind an explicit snapshot: the one
		// the consistency guard approved (pinned, or captured here).
		snap := se.snap
		if snap == nil {
			snap = se.svc.Snapshot()
		}
		run := p
		if !se.svc.views.ConsistentUnder(snap, p.Rewrite.View) {
			se.svc.views.NoteFallback()
			se.stats.RewriteFallbacks++
			base, err := se.svc.prepareOpt(p.Rewrite.Orig, false)
			if err != nil {
				return nil, err
			}
			run = base
		}
		bound := RunState{Snap: snap}
		if run.State != nil {
			bound.Params = run.State.Params
		}
		res, err := se.exec.Run(run.Compiled, &bound, cfg)
		se.stats.Execute += time.Since(t0)
		return res, err
	}
	rs := p.State
	if se.snap != nil {
		bound := RunState{Snap: se.snap}
		if rs != nil {
			bound.Params = rs.Params
		}
		rs = &bound
	}
	res, err := se.exec.Run(p.Compiled, rs, cfg)
	se.stats.Execute += time.Since(t0)
	return res, err
}

// Execute prepares and runs a statement in one call.
func (se *Session) Execute(sql string, cfg *pmu.Config) (*Prepared, *Result, error) {
	p, err := se.Prepare(sql)
	if err != nil {
		return nil, nil, err
	}
	res, err := se.Run(p, cfg)
	return p, res, err
}

// prepare is the service-side statement path: normalize → subsumption
// rewrite → cache lookup (single-flight compile on miss) → argument
// encoding.
func (s *Service) prepare(sql string) (*Prepared, error) {
	return s.prepareOpt(sql, true)
}

// prepareOpt is prepare with the rewrite hook gated: the run-time
// consistency fallback re-prepares the *original* text with the
// rewriter off, so a stale view can never bounce a statement back to
// itself.
func (s *Service) prepareOpt(sql string, allowRewrite bool) (*Prepared, error) {
	t0 := time.Now()
	fp, err := sqlparse.Normalize(sql)
	if err != nil {
		return nil, err
	}
	// Subsumption rewrite (internal/mview): with no views registered
	// this is one atomic load. On a match the rewritten text replaces
	// the statement and flows through the same normalize → cache →
	// compile path, so every textual variant of a query family lands on
	// ONE rewritten canonical form and ONE cached artifact. The view
	// generation and catalog version are captured BEFORE the rewrite
	// decision: a concurrent CreateView/DropView between the decision
	// and the key read would otherwise cache a decision made under the
	// old generation against the new generation's key, pinning it past
	// the bump.
	viewGen := s.views.Generation()
	catVer := s.cat.Version()
	var rw *mview.Rewrite
	if allowRewrite {
		if r, ok := s.views.Rewrite(fp); ok {
			if rfp, rerr := sqlparse.Normalize(r.SQL); rerr == nil {
				rw = r
				fp = rfp
			}
		}
	}
	key := qcache.Key{
		Fingerprint: fp.Hash,
		Canon:       fp.Canon,
		Options:     s.optDigest,
		Catalog:     catVer,
		Generation:  s.gens.Current(fp.Hash),
		View:        viewGen,
	}
	comp := s.compiler()
	cq, hit, err := s.cache.GetOrCompute(key, func() (*Compiled, error) {
		// Plan the canonical tree Normalize built on this goroutine
		// under the history-corrected estimator and let the cost model
		// pick the physical knobs (bloom filters, partition count) for
		// this statement. All of this happens inside the compute
		// function only: the cache key is untouched, so the hit path
		// stays a pure lookup, and staleness is routed through PGO
		// generations — Adapt bumps the generation when observed
		// cardinalities shift materially, which changes the key and
		// forces this compute to run again under the updated history.
		pl, err := plan.PlanWith(s.cat, fp.Query, s.estimator())
		if err != nil {
			return nil, err
		}
		eff := s.opts
		model := cost.Annotate(pl)
		eff.BloomFilters, eff.Partitions = cost.Decide(model, eff.BloomFilters, eff.Partitions)
		var hot *pgo.Hotness
		if key.Generation > 0 {
			hot = s.gens.Hotness(fp.Hash)
		}
		cq, err := (&Compiler{Cat: s.cat, Opts: eff}).CompilePlanGuided(pl, hot)
		if err != nil {
			return nil, err
		}
		if s.opts.Shards >= 1 {
			// Per-statement shard knobs ride on the artifact: decided
			// once per compile from the history-corrected model, read by
			// every executing session (warm prepares stay a pure lookup).
			sh, prune := cost.DecideShards(model, s.opts.Shards, s.opts.ShardPruning)
			cq.Shard = &ShardDecision{Shards: sh, Pruning: prune}
		}
		return cq, nil
	})
	if err != nil {
		// The parameterized form didn't compile — typically a literal in
		// a position the planner must see at plan time. Recompile the
		// original text directly (uncached) so semantics and error
		// messages match the classic path exactly; if that also fails,
		// the direct error is the one the user should see (it names the
		// original literals, not $N placeholders).
		direct, derr := comp.CompileSQL(sql)
		if derr != nil {
			return nil, derr
		}
		s.fallbacks.Add(1)
		return &Prepared{Compiled: direct, Fallback: true, PrepareTime: time.Since(t0)}, nil
	}
	p := &Prepared{Compiled: cq, CacheHit: hit, Canon: fp.Canon, Fingerprint: fp.Hash, key: key}
	if rw != nil {
		p.Rewrite = &RewriteInfo{View: rw.View, Base: rw.Base, SQL: rw.SQL, Orig: sql}
	} else if allowRewrite && s.views.AutoEnabled() {
		// Heat-based admission: a summarizable statement that missed the
		// rewriter accumulates heat — its own miss count plus the
		// cardinality history's touch count for its plan (the profile
		// signal Adapt feeds). Crossing the threshold admits a
		// generalizing view automatically.
		s.views.NoteHeat(fp, s.history.Touches(plan.Canon(cq.Plan)))
	}
	if len(cq.Plan.Params) > 0 || len(fp.Args) > 0 {
		vals, err := EncodeParams(cq.Plan.Params, fp.Args)
		if err != nil {
			return nil, err
		}
		p.State = &RunState{Params: vals}
	}
	p.PrepareTime = time.Since(t0)
	return p, nil
}

// EncodeParams encodes literal argument values against a plan's
// parameter manifest, applying exactly the encoding a directly-compiled
// literal would have received: numbers stay raw (dates and dictionary
// codes compare as their int64 encodings), string arguments resolve
// through the compared column's date format or dictionary, and a
// dictionary miss encodes as -1 — an ID no row carries.
func EncodeParams(infos []plan.ParamInfo, args []sqlparse.Literal) ([]int64, error) {
	if len(args) != len(infos) {
		return nil, fmt.Errorf("engine: query expects %d bound parameters, %d supplied", len(infos), len(args))
	}
	vals := make([]int64, len(args))
	for i, a := range args {
		switch a.Kind {
		case sqlparse.LitNum:
			vals[i] = a.Num
		case sqlparse.LitStr:
			switch infos[i].Type {
			case catalog.TDate:
				v, err := catalog.ParseDate(a.Str)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			case catalog.TStr:
				if infos[i].Dict == nil {
					vals[i] = -1
					break
				}
				if id, ok := infos[i].Dict.Lookup(a.Str); ok {
					vals[i] = id
				} else {
					vals[i] = -1 // no row can match
				}
			default:
				return nil, fmt.Errorf("engine: string literal %q compared with %s column", a.Str, infos[i].Type)
			}
		default:
			return nil, fmt.Errorf("engine: unknown literal kind %d", a.Kind)
		}
	}
	return vals, nil
}

// Adapt runs one adaptive profile → recompile → re-run cycle for a
// statement through this session. When the tuned binary wins, its
// guiding profile is promoted to a new PGO generation: the tuned
// artifact is cached under the new generation's key and every older
// generation of the fingerprint is invalidated, so the next Prepare —
// from any session — serves the faster binary.
func (se *Session) Adapt(sql string, cfg *pmu.Config) (*AdaptiveResult, error) {
	p, err := se.Prepare(sql)
	if err != nil {
		return nil, err
	}
	ar, err := runAdaptive(se.svc.compiler(), &se.exec, p.Compiled, p.State, cfg)
	if err != nil {
		return nil, err
	}
	if !p.Fallback && ar.Speedup() > 1 {
		hot := pgo.FromProfile(ar.ProfileRun.Profile, p.Compiled.Code.NMap)
		gen := se.svc.gens.Promote(p.Fingerprint, hot)
		nk := p.key
		nk.Generation = gen
		se.svc.cache.Put(nk, ar.Recompiled)
		se.svc.cache.Invalidate(func(k qcache.Key) bool {
			return k.Fingerprint == nk.Fingerprint && k.Canon == nk.Canon &&
				k.Options == nk.Options && k.Catalog == nk.Catalog &&
				k.Generation < gen
		})
	}
	// Close the cardinality loop: feed this run's observed per-operator
	// row counts into the shared history. When the corrected estimates
	// would actually change the served artifact — a different physical
	// plan shape or different bloom/partition decisions — the
	// fingerprint's generation is bumped (after any promotion above, so
	// a tuned artifact cannot pin a plan shape the history now
	// contradicts) and the next Prepare re-plans under the history.
	// Materially shifted observations that change nothing physical leave
	// the generation alone: the cached artifact is still the plan the
	// history would pick.
	//
	// Epoch staleness rides the same path: when streaming appends have
	// drifted any scanned table's visible rows past the threshold relative
	// to what the artifact's planner saw, the generation is bumped
	// unconditionally — the recompile re-plans over the current epoch's
	// statistics (ColStats are per-row-count) and re-freezes the planned
	// row counts, resetting the drift baseline.
	if !p.Fallback {
		material, err := se.observeTrue(p, ar)
		if err != nil {
			return nil, err
		}
		drifted := staleByDrift(p.Compiled, se.svc.cat.Snapshot())
		if drifted || (material && se.svc.replanChanges(p)) {
			gen := se.svc.gens.Bump(p.Fingerprint)
			se.svc.cache.Invalidate(func(k qcache.Key) bool {
				return k.Fingerprint == p.key.Fingerprint && k.Canon == p.key.Canon &&
					k.Options == p.key.Options && k.Generation < gen
			})
		}
	}
	return ar, nil
}

// StalenessDriftThreshold is the relative row-count drift — per scanned
// table, |visible − planned| / planned — past which Session.Adapt declares
// an artifact stale and bumps its PGO generation.
const StalenessDriftThreshold = 0.3

// staleByDrift reports whether any table an artifact scans has drifted
// past StalenessDriftThreshold relative to the row count its planner saw.
func staleByDrift(cq *Compiled, snap *catalog.Snapshot) bool {
	for _, tb := range cq.tables {
		v := snap.View(tb.table)
		if v == nil {
			continue
		}
		rows := int64(v.Rows)
		if tb.planned == 0 {
			if rows > 0 {
				return true
			}
			continue
		}
		d := rows - tb.planned
		if d < 0 {
			d = -d
		}
		if float64(d) >= StalenessDriftThreshold*float64(tb.planned) {
			return true
		}
	}
	return false
}

// replanChanges re-plans a prepared statement's canon under the current
// history and reports whether the result differs physically from the
// cached artifact: a different plan.Shape (join order, build sides,
// group-join fusion) or different cost-model knob decisions. The cached
// plan's own frozen estimates reproduce its original knob decision, so
// no extra state needs to ride in the cache.
func (s *Service) replanChanges(p *Prepared) bool {
	q, err := sqlparse.Parse(p.Canon)
	if err != nil {
		return false
	}
	pl, err := plan.PlanWith(s.cat, q, s.estimator())
	if err != nil {
		return false
	}
	if plan.Shape(pl) != plan.Shape(p.Compiled.Plan) {
		return true
	}
	om, nm := cost.Annotate(p.Compiled.Plan), cost.Annotate(pl)
	ob, op := cost.Decide(om, s.opts.BloomFilters, s.opts.Partitions)
	nb, np := cost.Decide(nm, s.opts.BloomFilters, s.opts.Partitions)
	os, oprune := cost.DecideShards(om, s.opts.Shards, s.opts.ShardPruning)
	ns, nprune := cost.DecideShards(nm, s.opts.Shards, s.opts.ShardPruning)
	return ob != nb || op != np || os != ns || oprune != nprune
}

// observeTrue collects a prepared statement's true per-operator
// cardinalities and feeds them into the service history. When the service
// already compiles with TupleCounters the adaptive baseline run carried
// the counts; otherwise a counter-instrumented twin of the same plan is
// compiled and run once under this session's options. Counter folding
// makes the counts worker-count-invariant either way.
func (se *Session) observeTrue(p *Prepared, ar *AdaptiveResult) (bool, error) {
	cq, counts := p.Compiled, ar.Baseline.TupleCounts
	if len(counts) == 0 {
		opts := se.svc.opts
		opts.TupleCounters = true
		twin, err := (&Compiler{Cat: se.svc.cat, Opts: opts}).CompilePlanGuided(p.Compiled.Plan, nil)
		if err != nil {
			return false, err
		}
		// The twin observes *full* cardinalities: pin it unsharded so
		// semi-join pruning cannot shrink a scan's observed row count
		// below what the planner should estimate for it.
		twin.Shard = &ShardDecision{}
		res, err := se.exec.Run(twin, p.State, nil)
		if err != nil {
			return false, err
		}
		cq, counts = twin, res.TupleCounts
	}
	return cost.ObserveTrueRows(se.svc.history, cq.Plan, cq.Pipe, counts), nil
}
