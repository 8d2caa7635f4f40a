// Command perfbench is the repository's benchmark. It runs one workload of
// the simulator through the program's public calls, checks the workload's
// output, and prints its metrics as one JSON object on the last line of
// standard output.
//
//	bash perfbench/run.sh --workload resume-attr --seed 1 --seconds 50 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run. With
// --trace 1 it also runs the workload traced — spans around the public
// calls plus a CPU profile — and prints the per-layer metrics instead. The
// workloads, metrics and the layer each metric belongs to are described
// in README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/csalt-sim/csalt/internal/sim"
)

// scratchDir is where the benchmark builds and writes, relative to the
// checkout root it runs from.
const scratchDir = ".bench_build"

// Before its iterations, an untraced run times discarded set-ups: at
// least minSetups, and more while their total stays under setupBudget (at
// most maxSetups), so setup_s is a steady median even when a set-up takes
// well under a millisecond.
const (
	minSetups   = 4
	maxSetups   = 200
	setupBudget = 500 * time.Millisecond
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"refs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// Functions whose cumulative profile time is reported as a span: the
// program calls them itself, so the benchmark cannot time them directly.
const (
	prewarmFunc  = modulePath + "/internal/sim.(*memSystem).prewarmTranslation"
	snapshotFunc = modulePath + "/internal/sim.(*System).Snapshot"
)

// perLayer are the metrics of a traced run. Times and counts are per
// measured iteration.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"span.construct_s", "s"},
		{"span.prewarm_s", "s"},
		{"span.run_s", "s"},
		{"span.snapshot_capture_s", "s"},
		{"span.snapshot_write_s", "s"},
		{"span.snapshot_read_s", "s"},
		{"span.restore_s", "s"},
		{"span.checkpoint_put_s", "s"},
		{"host.total_s", "s"},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{"host." + l + "_s", "s"})
	}
	return append(defs,
		metricDef{"mem.alloc_bytes", "bytes"},
		metricDef{"mem.gc_cycles", "count"},
		metricDef{"snapshot.bytes", "bytes"},
		metricDef{"snapshot.count", "count"},
		metricDef{"experiment.jobs_run", "count"},
		metricDef{"experiment.job_p50_s", "s"},
		metricDef{"experiment.job_p95_s", "s"},
		metricDef{"sim.instructions", "count"},
		metricDef{"sim.cycles", "count"},
		metricDef{"sim.ipc_geomean", "ratio"},
		metricDef{"tlb.l1_mpki", "mpki"},
		metricDef{"tlb.l2_mpki", "mpki"},
		metricDef{"pom.hit_rate", "ratio"},
		metricDef{"walker.walks", "count"},
		metricDef{"walker.cycles_per_walk", "cycles"},
		metricDef{"cache.l2d_mpki", "mpki"},
		metricDef{"cache.l3d_mpki", "mpki"},
		metricDef{"core.tlb_occupancy_l3", "ratio"},
		metricDef{"dram.reads", "count"},
		metricDef{"cpu.context_switches", "count"},
		metricDef{"cpu.translate_stall_frac", "ratio"},
		metricDef{"trace.iterations", "count"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: suite-tiny | resume-attr")
	seed := fs.Uint64("seed", defaultSeed, "input seed (sim.Config.Seed; suite-tiny keeps its experiments' seeds)")
	seconds := fs.Int("seconds", 10, "length of the measured phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the workload traced as well and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	workDir, err := os.MkdirTemp(scratchDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(workDir)

	res, err := bench(benchOpts{
		workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *traceFlag == 1, sizes: fullSizes(), workDir: workDir,
		profileOut: filepath.Join(scratchDir, fmt.Sprintf("%s-seed%d.pprof", *name, *seed)),
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	host, err := json.Marshal(map[string]interface{}{"host": fingerprint(res.workers)})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res.result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", host, line)
	return 0
}

type benchOpts struct {
	workload   string
	seed       uint64
	seconds    time.Duration
	traced     bool
	sizes      sizes
	workDir    string
	profileOut string // traced runs write their CPU profile here; "" skips it
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type benchResult struct {
	result  result
	workers int
}

// bench prepares the workload, measures it untraced and, when asked,
// traced, and assembles the printed result.
func bench(o benchOpts) (benchResult, error) {
	w, err := newWorkload(o.workload, o.seed, o.sizes, o.workDir)
	if err != nil {
		return benchResult{}, err
	}
	if w.prepare != nil {
		if err := w.prepare(); err != nil {
			return benchResult{}, err
		}
	}
	plain, err := measure(w, o.seconds, true, nil)
	if err != nil {
		return benchResult{}, err
	}
	out := benchResult{workers: w.workers, result: result{Attempted: plain.jobs, Failed: plain.failed}}
	if !o.traced {
		out.result.Metrics = plain.endToEnd()
		out.result.Correct = plain.failed == 0
		return out, nil
	}

	var before, after runtime.MemStats
	var prof bytes.Buffer
	runtime.ReadMemStats(&before)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return benchResult{}, err
	}
	tr := &tracer{spans: map[string]time.Duration{}}
	traced, err := measure(w, o.seconds, false, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return benchResult{}, err
	}
	runtime.ReadMemStats(&after)
	if o.profileOut != "" {
		if err := os.WriteFile(o.profileOut, prof.Bytes(), 0o644); err != nil {
			return benchResult{}, err
		}
	}
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return benchResult{}, err
	}
	out.result.Attempted += traced.jobs
	out.result.Failed += traced.failed
	out.result.Correct = out.result.Failed == 0
	out.result.Metrics = tr.perLayer(samples, traced, plain, &before, &after)
	return out, nil
}

// phase is what one measured phase recorded, one entry per iteration.
type phase struct {
	walls, setups, refsPerS []float64
	jobs, failed            int
	peakRSSMB               float64
}

// endToEnd reports the fastest iteration's wall_s and refs_per_s and the
// median set-up. On a shared host the time an iteration takes beyond the
// program's own cost is contention from other tenants: it only ever adds
// time, and it comes in spells of many seconds, so the median of a run's
// few iterations reads the neighbours' load while the fastest reads the
// program.
func (p phase) endToEnd() map[string]value {
	v := map[string]float64{
		"wall_s":      quantile(p.walls, 0),
		"setup_s":     median(p.setups),
		"refs_per_s":  quantile(p.refsPerS, 1),
		"peak_rss_mb": p.peakRSSMB,
	}
	out := make(map[string]value, len(endToEnd))
	for _, m := range endToEnd {
		out[m.name] = value{v[m.name], m.unit}
	}
	return out
}

// measure runs iterations of w — set-up, then the measured run — until d
// has passed, after timing discarded set-ups up front when extraSetups is
// set. A forced GC before each set-up starts every iteration from a clean
// heap. A non-nil tr traces the phase.
func measure(w *workloadDef, d time.Duration, extraSetups bool, tr *tracer) (phase, error) {
	var p phase
	timedSetup := func() (trial, error) {
		runtime.GC()
		t0 := time.Now()
		t, err := w.setup(tr)
		p.setups = append(p.setups, time.Since(t0).Seconds())
		if err != nil {
			return t, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		return t, nil
	}
	var spent time.Duration
	for i := 0; extraSetups && i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		t0 := time.Now()
		t, err := timedSetup()
		spent += time.Since(t0)
		if err != nil {
			return p, err
		}
		if t.close != nil {
			t.close()
		}
	}
	start := time.Now()
	for len(p.walls) == 0 || time.Since(start) < d {
		t, err := timedSetup()
		if err != nil {
			return p, err
		}
		t0 := time.Now()
		o, err := t.run()
		wall := time.Since(t0).Seconds()
		if t.close != nil {
			t.close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			o.failed = o.jobs
		}
		p.jobs += o.jobs
		p.failed += o.failed
		p.walls = append(p.walls, wall)
		p.refsPerS = append(p.refsPerS, float64(o.refs)/wall)
	}
	p.peakRSSMB = peakRSSMB()
	fmt.Fprintf(os.Stderr, "%s: traced=%v, %d set-ups (min %.6f s, median %.6f s), %d iterations (median %.3f s), wall_s %.3f\n",
		w.name, tr != nil, len(p.setups), quantile(p.setups, 0), median(p.setups), len(p.walls), median(p.walls), p.walls)
	return p, nil
}

// tracer collects spans, job durations, snapshot sizes and simulated
// results of a traced phase. A nil tracer records nothing; every method is safe for
// concurrent use (suite-tiny reports from its engine's workers).
type tracer struct {
	mu            sync.Mutex
	spans         map[string]time.Duration
	jobs          []time.Duration
	results       []*sim.Results
	snapshots     int   // snapshot files written
	snapshotBytes int64 // their total size
}

// record runs fn under the lock; it does nothing on a nil tracer.
func (t *tracer) record(fn func()) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	fn()
}

// span runs fn and adds its duration to the named span.
func (t *tracer) span(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	t0 := time.Now()
	err := fn()
	t.add(name, time.Since(t0))
	return err
}

func (t *tracer) add(name string, d time.Duration) { t.record(func() { t.spans[name] += d }) }
func (t *tracer) job(d time.Duration)              { t.record(func() { t.jobs = append(t.jobs, d) }) }
func (t *tracer) result(r *sim.Results)            { t.record(func() { t.results = append(t.results, r) }) }
func (t *tracer) snapshot(size int64) {
	t.record(func() { t.snapshots++; t.snapshotBytes += size })
}

// perLayer assembles the per-layer metrics of a traced phase, each per
// iteration, from the tracer, the CPU profile samples and the memory
// statistics around the phase; plain is the untraced phase of the same
// process, the base of the tracing overhead.
func (t *tracer) perLayer(samples []sample, traced, plain phase, before, after *runtime.MemStats) map[string]value {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := float64(len(traced.walls))
	v := map[string]float64{
		"span.prewarm_s":          cumulative(samples, prewarmFunc) / n,
		"span.snapshot_capture_s": cumulative(samples, snapshotFunc) / n,
		"mem.alloc_bytes":         float64(after.TotalAlloc-before.TotalAlloc) / n,
		"mem.gc_cycles":           float64(after.NumGC-before.NumGC) / n,
		"snapshot.count":          float64(t.snapshots) / n,
		"experiment.jobs_run":     float64(traced.jobs) / n,
		"trace.iterations":        n,
		"trace.overhead_frac":     quantile(traced.walls, 0)/quantile(plain.walls, 0) - 1,
	}
	for name, d := range t.spans {
		v[name] = d.Seconds() / n
	}
	var total float64
	for l, s := range byLayer(samples) {
		v["host."+l+"_s"] = s / n
		total += s
	}
	v["host.total_s"] = total / n
	if t.snapshots > 0 {
		v["snapshot.bytes"] = float64(t.snapshotBytes) / float64(t.snapshots)
	}
	jobs := make([]float64, len(t.jobs))
	for i, d := range t.jobs {
		jobs[i] = d.Seconds()
	}
	v["experiment.job_p50_s"] = quantile(jobs, 0.50)
	v["experiment.job_p95_s"] = quantile(jobs, 0.95)
	for k, x := range simCounts(t.results, n) {
		v[k] = x
	}

	out := make(map[string]value, len(perLayer))
	for _, m := range perLayer {
		x := v[m.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		out[m.name] = value{x, m.unit}
	}
	return out
}

// simCounts summarises the simulated statistics of every run in a traced
// phase: counts are summed and divided by the iterations, ratios averaged
// over the runs that define them, IPC as a geometric mean.
func simCounts(rs []*sim.Results, iterations float64) map[string]float64 {
	var sums [5]float64
	means := map[string][]float64{}
	add := func(k string, x float64) {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			means[k] = append(means[k], x)
		}
	}
	for _, r := range rs {
		sums[0] += float64(r.Instructions)
		sums[1] += float64(r.Cycles)
		sums[2] += float64(r.PageWalks)
		sums[3] += float64(r.DRAMReads)
		sums[4] += float64(r.ContextSwitches)
		if r.IPCGeomean > 0 {
			add("sim.ipc_geomean", math.Log(r.IPCGeomean))
		}
		add("tlb.l1_mpki", r.L1TLBMPKI)
		add("tlb.l2_mpki", r.L2TLBMPKI)
		add("pom.hit_rate", r.POMHitRate)
		add("walker.cycles_per_walk", r.WalkCyclesPerWalk)
		add("cache.l2d_mpki", r.L2DMPKI)
		add("cache.l3d_mpki", r.L3DMPKI)
		add("core.tlb_occupancy_l3", r.TLBOccupancyL3)
		add("cpu.translate_stall_frac", r.TranslateStallFrac)
	}
	out := map[string]float64{
		"sim.instructions":     sums[0] / iterations,
		"sim.cycles":           sums[1] / iterations,
		"walker.walks":         sums[2] / iterations,
		"dram.reads":           sums[3] / iterations,
		"cpu.context_switches": sums[4] / iterations,
	}
	for k, xs := range means {
		var s float64
		for _, x := range xs {
			s += x
		}
		out[k] = s / float64(len(xs))
	}
	if _, ok := means["sim.ipc_geomean"]; ok {
		out["sim.ipc_geomean"] = math.Exp(out["sim.ipc_geomean"])
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics; 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
