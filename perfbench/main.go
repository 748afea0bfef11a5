// Command perfbench is the repository's benchmark: it drives engine.Service
// from one process and one closed-loop client session over a seeded
// workload, checks every read's rows against the reference executor and
// prints the run's metrics.
//
//	perfbench --workload adhoc|warm-profiled|ingest-views --seed N --seconds S --trace 0|1
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) reports the per-layer metrics. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: adhoc, warm-profiled or ingest-views")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "wall time to measure, in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	// One P. With a second, the Go runtime spends whatever CPU time the
	// host leaves idle on garbage-collection mark work and scheduler
	// spinning, which ties the host CPU metrics to the load of the
	// machine's other tenants: a busy neighbour on the second CPU moved
	// ops_per_cpu_s on adhoc by a fifth. The service's morsel workers
	// still run as goroutines, interleaved on the one P.
	runtime.GOMAXPROCS(1)
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload adhoc|warm-profiled|ingest-views, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	m, err := run(w, config{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	rep := &report{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed}
	if *trace == 1 {
		rep.Metrics = layerMetrics(m)
	} else {
		rep.Metrics = endToEnd(m)
	}
	for _, f := range m.failures {
		fmt.Fprintf(os.Stderr, "failure: %s\n", f)
	}
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-28s %14.6g %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// endToEnd derives the untraced run's metrics. Host costs are CPU time,
// which a busy host's steal time does not inflate, scaled to the
// reference host (calib.go); wall time is reported by the traced run.
func endToEnd(m *measurements) map[string]metric {
	s := m.hostScale()
	return map[string]metric{
		"setup_s":             {quantile(m.setup, 0.5) * s, "s"},
		"ops_per_cpu_s":       {m.opsPerCPUSecond() / s, "1/s"},
		"read_cpu_p50_ms":     {quantile(m.readCPU, 0.5) * s, "ms"},
		"read_cpu_p95_ms":     {quantile(m.readCPU, 0.95) * s, "ms"},
		"sim_cycles_per_read": {ratio(float64(m.simCycles), float64(m.reads)), "cycles"},
		"alloc_kb_per_op":     {ratio(float64(m.allocB)/1024, float64(m.attempted)), "KiB"},
	}
}

// layerMetrics derives the traced run's per-layer metrics: medians per
// call for times, means for counts, 0 for a layer that did not run.
func layerMetrics(m *measurements) map[string]metric {
	t := m.tr
	med := func(name string) float64 { return quantile(t.vals[name], 0.5) }
	avg := func(name string) float64 { return mean(t.vals[name]) }
	out := map[string]metric{}
	for _, name := range []string{
		"sqlparse.normalize_us", "sqlparse.parse_us", "plan.plan_us", "cost.annotate_us",
		"pipeline.compile_us", "iropt.optimize_us", "iropt.fold_us", "iropt.cse_us", "iropt.dce_us",
		"ir.verify_us", "codegen.compile_us", "engine.layout_us", "engine.prepare_hit_us",
		"core.profile_us", "mview.rewrite_us", "mview.refresh_us", "catalog.append_us",
	} {
		out[name] = metric{med(name), "us"}
	}
	for _, name := range []string{"engine.compile_ms", "engine.prepare_miss_ms", "engine.run_ms"} {
		out[name] = metric{med(name), "ms"}
	}
	for _, name := range []string{
		"pipeline.ir_instrs", "iropt.rounds", "codegen.native_instrs", "codegen.spills",
		"engine.compile_allocs", "vm.instrs_per_read", "pmu.samples_per_read", "mview.view_rows",
	} {
		out[name] = metric{avg(name), "count"}
	}
	out["vm.ns_per_instr"] = metric{med("vm.ns_per_instr"), "ns"}
	out["engine.run_alloc_kb"] = metric{med("engine.run_alloc_kb"), "KiB"}
	out["pmu.overhead_cycles_pct"] = metric{avg("pmu.overhead_cycles_pct"), "%"}
	prepares := float64(m.hits + m.misses)
	out["qcache.hit_ratio"] = metric{ratio(float64(m.hits), prepares), "ratio"}
	out["qcache.evictions"] = metric{ratio(float64(m.evictions), prepares), "per_prepare"}
	out["mview.rewrite_share"] = metric{ratio(float64(m.rewrites), float64(m.reads)), "ratio"}
	out["engine.compile_share"] = metric{t.compileShare(), "ratio"}
	out["engine.run_share"] = metric{ratio(float64(t.runNS), float64(t.readNS)), "ratio"}
	out["read_p50_ms"] = metric{quantile(m.readMS, 0.5), "ms"}
	out["read_p95_ms"] = metric{quantile(m.readMS, 0.95), "ms"}
	out["write_p50_ms"] = metric{quantile(m.writeMS, 0.5), "ms"}
	out["write_p95_ms"] = metric{quantile(m.writeMS, 0.95), "ms"}
	out["ops_per_s"] = metric{m.opsPerSecond(), "1/s"}
	out["traced.ops_per_cpu_s"] = metric{m.opsPerCPUSecond() / m.hostScale(), "1/s"}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
