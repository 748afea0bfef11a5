package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/mview"
	"repro/internal/plan"
	"repro/internal/pmu"
	"repro/internal/ref"
	"repro/internal/sqlparse"
	"repro/internal/vm"
)

// config selects how long a run measures and whether it is traced.
type config struct {
	seed uint64
	// seconds > 0 runs whole episodes until that much wall time has
	// passed; otherwise exactly `episodes` episodes run.
	seconds  float64
	episodes int
	// episodeOps overrides the workload's ops per episode when > 0.
	episodeOps int
	trace      bool
}

// run measures one workload.
func run(w *workload, cfg config) (*measurements, error) {
	m := &measurements{}
	if cfg.trace {
		m.tr = newTracer()
	}
	n := w.episodeOps
	if cfg.episodeOps > 0 {
		n = cfg.episodeOps
	}
	start := time.Now()
	for ep := 0; ; ep++ {
		if cfg.seconds > 0 && ep > 0 && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		if cfg.seconds <= 0 && ep >= cfg.episodes {
			break
		}
		if err := runEpisode(w, cfg.seed, ep, n, m); err != nil {
			return nil, fmt.Errorf("%s episode %d: %w", w.name, ep, err)
		}
	}
	return m, nil
}

// env is one episode's service under test and its client session.
type env struct {
	cat *catalog.Catalog
	svc *engine.Service
	se  *engine.Session
	pmu *pmu.Config // non-nil when every read is sampled
	tr  *tracer     // non-nil in a traced run
}

// dataSeed is the datagen seed of every run, the repository tools'
// default. The workload seed draws the op stream, not the database: with
// the database drawn from it too, the simulated cycles per adhoc read
// moved by 13% from one seed to another with the small tables' value
// distributions, more than the changes the benchmark must resolve.
const dataSeed = 42

// setup builds an episode's service: datagen, service construction,
// view creation and cache warm-up.
func setup(w *workload, seed uint64, tr *tracer) (*env, error) {
	cat := datagen.Generate(datagen.Config{ScaleFactor: w.sf, Seed: dataSeed})
	opts := engine.DefaultOptions()
	opts.Workers = w.workers
	svc := engine.NewService(cat, opts, 0)
	e := &env{cat: cat, svc: svc, se: svc.NewSession(), tr: tr}
	if w.profiled {
		e.pmu = &pmu.Config{Event: vm.EvCycles, Period: 5000, Format: pmu.FormatIPTimeRegs}
	}
	for _, v := range w.views {
		if _, err := svc.CreateView(v[0], v[1], mview.RefreshIncremental); err != nil {
			return nil, fmt.Errorf("create view %s: %w", v[0], err)
		}
	}
	for _, sql := range w.warm(seed) {
		p, err := e.se.Prepare(sql)
		if err != nil {
			return nil, fmt.Errorf("warm-up %q: %w", sql, err)
		}
		if tr != nil {
			if err := tr.prepared(e, sql, p, false); err != nil {
				return nil, err
			}
		}
	}
	return e, nil
}

// runEpisode sets up one episode and issues its ops.
func runEpisode(w *workload, seed uint64, episode, n int, m *measurements) error {
	runtime.GC()
	m.calibrate()
	c0 := cpuTime()
	e, err := setup(w, seed, m.tr)
	if err != nil {
		return err
	}
	m.setup = append(m.setup, (cpuTime() - c0).Seconds())
	ops := w.ops(seed, episode, n)
	runtime.GC()

	st0 := e.svc.CacheStats()
	for _, o := range ops {
		if o.write {
			m.write(e, o)
		} else {
			m.read(e, o.sql)
		}
		m.calibrate()
	}
	st1 := e.svc.CacheStats()
	m.hits += st1.Hits - st0.Hits
	m.misses += st1.Misses - st0.Misses
	m.evictions += st1.Evictions - st0.Evictions
	if m.tr != nil {
		for _, v := range e.svc.Views().List() {
			m.tr.add("mview.view_rows", float64(v.ViewRows))
		}
	}
	return nil
}

// measurements accumulates one run's end-to-end figures, the
// deterministic counts the self-test compares and, in a traced run, the
// per-layer samples.
type measurements struct {
	setup     []float64     // CPU seconds per episode set-up
	readMS    []float64     // wall latency per read
	readCPU   []float64     // CPU milliseconds per read
	writeMS   []float64     // wall latency per write
	busy      time.Duration // summed op latency
	busyCPU   time.Duration // summed op CPU time
	allocB    uint64        // heap bytes allocated inside ops
	attempted int
	failed    int
	failures  []string // first few failure messages

	reads     int
	simCycles uint64 // simulated wall cycles over successful reads
	hits      uint64
	misses    uint64
	evictions uint64
	rewrites  int
	tr        *tracer // non-nil in a traced run

	calib     []float64 // CPU milliseconds per calibration kernel run
	lastCalib time.Time
}

// calibrate runs the calibration kernel when calibEvery has passed since
// its last run.
func (m *measurements) calibrate() {
	if time.Since(m.lastCalib) >= calibEvery {
		m.calib = append(m.calib, calibrate())
		m.lastCalib = time.Now()
	}
}

// hostScale converts the run's host CPU time to CPU time on the
// reference host.
func (m *measurements) hostScale() float64 {
	return ratio(calibRefMS, quantile(m.calib, 0.5))
}

// opsPerSecond is the closed loop's throughput: completed ops per second
// of op latency.
func (m *measurements) opsPerSecond() float64 {
	return ratio(float64(len(m.readMS)+len(m.writeMS)), m.busy.Seconds())
}

// opsPerCPUSecond is completed ops per second of host CPU time spent in
// ops.
func (m *measurements) opsPerCPUSecond() float64 {
	return ratio(float64(len(m.readMS)+len(m.writeMS)), m.busyCPU.Seconds())
}

func (m *measurements) fail(format string, args ...any) {
	m.failed++
	if len(m.failures) < 5 {
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
}

// read is one timed read: Prepare plus Run (which builds the profile on
// sampled workloads). The reference check and any traced shadow calls
// run after the clock stops.
func (m *measurements) read(e *env, sql string) {
	m.attempted++
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := cpuTime()
	t0 := time.Now()
	p, err := e.se.Prepare(sql)
	var res *engine.Result
	var runT time.Duration
	if err == nil {
		var a0 uint64
		if e.tr != nil {
			a0 = heapAllocs()
		}
		t1 := time.Now()
		res, err = e.se.Run(p, e.pmu)
		runT = time.Since(t1)
		if e.tr != nil && err == nil {
			e.tr.add("engine.run_alloc_kb", float64(heapAllocs()-a0)/1024)
		}
	}
	lat := time.Since(t0)
	cpu := cpuTime() - c0
	runtime.ReadMemStats(&ms1)
	m.busy += lat
	m.busyCPU += cpu
	m.allocB += ms1.TotalAlloc - ms0.TotalAlloc
	if err != nil {
		m.fail("read %q: %v", sql, err)
		return
	}
	m.reads++
	m.readMS = append(m.readMS, ms(lat))
	m.readCPU = append(m.readCPU, ms(cpu))
	m.simCycles += res.WallCycles
	if p.Rewrite != nil {
		m.rewrites++
	}
	if err := check(e.cat, sql, res.Rows); err != nil {
		m.fail("read %q: %v", sql, err)
	}
	if e.tr != nil {
		if err := e.tr.read(e, sql, p, res, lat, runT); err != nil {
			m.fail("trace %q: %v", sql, err)
		}
	}
}

// write is one timed write: an append batch to the ingest table followed
// by a refresh of its view. The batch is generated before the clock
// starts.
func (m *measurements) write(e *env, o op) {
	m.attempted++
	tb, err := e.cat.Table(ingestTable)
	if err != nil {
		m.fail("write: %v", err)
		return
	}
	cols := datagen.AppendBatch(tb, ingestBatch, o.batch)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := cpuTime()
	t0 := time.Now()
	r, err := e.svc.AppendCols(ingestTable, cols)
	appendT := time.Since(t0)
	if err == nil {
		err = e.svc.RefreshView(ingestView)
	}
	lat := time.Since(t0)
	m.busyCPU += cpuTime() - c0
	runtime.ReadMemStats(&ms1)
	m.busy += lat
	m.allocB += ms1.TotalAlloc - ms0.TotalAlloc
	if err != nil {
		m.fail("write: %v", err)
		return
	}
	if r.Hi-r.Lo != ingestBatch {
		m.fail("write: appended window [%d, %d), want %d rows", r.Lo, r.Hi, ingestBatch)
		return
	}
	m.writeMS = append(m.writeMS, ms(lat))
	if e.tr != nil {
		e.tr.add("catalog.append_us", us(appendT))
		e.tr.add("mview.refresh_us", us(lat-appendT))
	}
}

// check compares a read's rows with the reference executor run on the
// plan of the statement's original text at the current epoch. A
// view-served read is thereby checked against its base-table statement.
// The loop is closed, so nothing appends between the read and the check.
func check(cat *catalog.Catalog, sql string, got [][]int64) error {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return fmt.Errorf("reference parse: %w", err)
	}
	pl, err := plan.Plan(cat, q)
	if err != nil {
		return fmt.Errorf("reference plan: %w", err)
	}
	want, err := ref.Execute(pl)
	if err != nil {
		return fmt.Errorf("reference executor: %w", err)
	}
	if !sameResult(got, want, pl) {
		return fmt.Errorf("rows differ from the reference executor (%d rows, want %d)", len(got), len(want))
	}
	return nil
}

// sameResult compares result rows under SQL semantics: as multisets
// without ORDER BY; with ORDER BY, position by position on the ordering
// columns and as multisets within each run of tied rows. When LIMIT cut
// the result, the last tied run may hold any of the tied rows.
func sameResult(got, want [][]int64, pl *plan.Output) bool {
	if len(got) != len(want) {
		return false
	}
	if len(pl.OrderBy) == 0 {
		return sameMultiset(got, want)
	}
	key := func(r []int64) string {
		k := make([]int64, len(pl.OrderBy))
		for i, c := range pl.OrderBy {
			k[i] = r[c]
		}
		return fmt.Sprint(k)
	}
	truncated := pl.Limit >= 0 && len(want) == pl.Limit
	for i := 0; i < len(got); {
		k := key(got[i])
		j := i
		for j < len(got) && key(got[j]) == k {
			if key(want[j]) != k {
				return false
			}
			j++
		}
		if (j < len(got) || !truncated) && !sameMultiset(got[i:j], want[i:j]) {
			return false
		}
		i = j
	}
	return true
}

func sameMultiset(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[string]int{}
	for _, r := range a {
		count[fmt.Sprint(r)]++
	}
	for _, r := range b {
		k := fmt.Sprint(r)
		if count[k] == 0 {
			return false
		}
		count[k]--
	}
	return true
}

// cpuTime is the host CPU time the process has used, user and system,
// over all its threads (the service's workers and the garbage collector
// included). Unlike wall time it leaves out time the process spent
// waiting for a CPU, such as a hypervisor's steal time.
func cpuTime() time.Duration { return cpuClock(clockProcessCPUTime) }

// The kernel's CPU-time clocks. They count in nanoseconds; getrusage
// derives its user and system times from the scheduler's ticks, and on
// one thread it read 2 µs for 1.2 ms of work.
const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuClock reads one of the kernel's CPU-time clocks.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		// Both clocks exist on every Linux kernel Go supports.
		panic(fmt.Sprintf("clock_gettime(%d): %v", id, errno))
	}
	return time.Duration(ts.Nano())
}

// heapAllocs reads the cumulative bytes allocated on the heap (the
// figure MemStats.TotalAlloc reports) without stopping the world, so a
// traced run can take it inside a timed op.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// quantile returns the q-quantile of xs (linear interpolation between
// closest ranks); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
