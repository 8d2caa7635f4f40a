package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"
)

func TestChargeLayerInnermostModuleFrame(t *testing.T) {
	const m = modulePath
	cases := []struct {
		name  string
		stack []string // innermost first
		want  string
	}{
		{"leaf in module", []string{m + "/internal/tlb.(*TLB).Lookup", m + "/internal/sim.(*System).RunContext"}, "tlb"},
		{"runtime leaf charged to caller", []string{"runtime.mallocgc", "runtime.makeslice", m + "/internal/tlb.NewPOMFlat", m + "/internal/sim.New"}, "tlb"},
		{"closure and generic names", []string{"sort.Slice", m + "/internal/cache.(*Cache).Scan.func1[...]"}, "cache"},
		{"inlined frames keep their package", []string{"math.Log", m + "/internal/workload.(*gen).Next", m + "/internal/cpu.(*Core).Step"}, "workload"},
		{"root package is other", []string{m + ".Run", "main.main"}, "other"},
		{"unlisted package is other", []string{m + "/internal/faultinject.(*Plane).Fire"}, "other"},
		{"benchmark frames", []string{"crypto/sha256.block", "main.digest", "main.measure"}, "bench"},
		{"no module frame", []string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "gc"},
		{"prefix without a boundary", []string{"github.com/csalt-sim/csaltx/internal/sim.New"}, "gc"},
		{"empty stack", nil, "gc"},
	}
	for _, c := range cases {
		if got := chargeLayer(c.stack); got != c.want {
			t.Errorf("%s: chargeLayer(%q) = %q, want %q", c.name, c.stack, got, c.want)
		}
	}

	samples := []sample{
		{stack: cases[0].stack, nanos: 3e7},
		{stack: cases[1].stack, nanos: 1e7},
		{stack: cases[7].stack, nanos: 2e7},
	}
	got := byLayer(samples)
	if got["tlb"] != 0.04 || got["gc"] != 0.02 || len(got) != 2 {
		t.Errorf("byLayer = %v, want tlb 0.04 s and gc 0.02 s", got)
	}
	if c := cumulative(samples, m+"/internal/sim.New"); c != 0.01 {
		t.Errorf("cumulative under sim.New = %v, want 0.01", c)
	}
}

func spin(d time.Duration) (x float64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += float64(i) * 1.5
		}
	}
	return x
}

func TestParseProfileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	found := false
	for _, s := range samples {
		total += s.nanos
		for _, f := range s.stack {
			if f == "github.com/csalt-sim/csalt/perfbench.spin" || f == "main.spin" {
				found = true
			}
		}
	}
	if total <= 0 || !found {
		t.Fatalf("parsed %d samples, %d ns, spin frame found %v", len(samples), total, found)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted garbage")
	}
}

// benchmarkFile mirrors the parts of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestMetricNamesListedInBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	check := func(kind string, defs []metricDef, listed []struct{ Name, Unit string }) {
		if len(defs) != len(listed) {
			t.Errorf("%s: program prints %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(listed))
		}
		units := map[string]string{}
		for _, l := range listed {
			units[l.Name] = l.Unit
		}
		for _, d := range defs {
			if !metricName.MatchString(d.name) {
				t.Errorf("%s: metric name %q has characters outside [A-Za-z0-9_.-]", kind, d.name)
			}
			if u, ok := units[d.name]; !ok || u != d.unit {
				t.Errorf("%s: %s (%s) is not listed in BENCHMARK.json with that unit", kind, d.name, d.unit)
			}
		}
	}
	check("end_to_end", endToEnd, f.EndToEnd)
	check("per_layer", perLayer, f.PerLayer)
	if len(f.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(f.Workloads), len(workloadNames))
	}
	for i, w := range f.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
}

// TestSmokeWorkloads runs every workload at smoke size, untraced and
// traced, through the same output checks as a full run.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := bench(benchOpts{
				workload: name, seed: defaultSeed, seconds: time.Millisecond,
				traced: traced, sizes: smokeSizes(), workDir: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			r := res.result
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, r.Correct, r.Attempted, r.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, want %d", name, traced, len(r.Metrics), len(want))
			}
			for _, d := range want {
				if _, ok := r.Metrics[d.name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", name, traced, d.name)
				}
			}
			if !traced && r.Metrics["wall_s"].Value <= 0 {
				t.Errorf("%s: wall_s = %v", name, r.Metrics["wall_s"].Value)
			}
		}
	}
}

// The seed-independent checks hold at another seed too.
func TestSmokeOtherSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads")
	}
	for _, name := range []string{"resume-attr"} {
		res, err := bench(benchOpts{
			workload: name, seed: 7, seconds: time.Millisecond,
			sizes: smokeSizes(), workDir: t.TempDir(),
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.result.Correct {
			t.Errorf("%s seed 7: %+v", name, res.result)
		}
	}
}

// A wrong pinned digest must fail the output check.
func TestOutputCheckDetectsMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	const key = "resume-attr@smoke"
	saved := pinnedDigests[key]
	pinnedDigests[key] = "0000"
	defer func() { pinnedDigests[key] = saved }()
	res, err := bench(benchOpts{
		workload: "resume-attr", seed: defaultSeed, seconds: time.Millisecond,
		sizes: smokeSizes(), workDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := res.result; r.Correct || r.Failed == 0 {
		t.Errorf("mismatched digest passed: %+v", r)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "resume-attr", "--seconds", "0"},
		{"--workload", "resume-attr", "--trace", "2"},
		{"--workload", "nope", "--seconds", "1"},
		{"--bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want a failure and no result", args, code, out.String())
		}
	}
}
