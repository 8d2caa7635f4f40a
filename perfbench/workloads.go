package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/csalt-sim/csalt/internal/checkpoint"
	"github.com/csalt-sim/csalt/internal/core"
	"github.com/csalt-sim/csalt/internal/experiment"
	"github.com/csalt-sim/csalt/internal/introspect"
	"github.com/csalt-sim/csalt/internal/sim"
	"github.com/csalt-sim/csalt/internal/snapshot"
	"github.com/csalt-sim/csalt/internal/workload"
)

// defaultSeed is the seed the pinned digests were taken at; it is
// sim.DefaultConfig's seed.
const defaultSeed = 1

// pinnedDigests are the sha256 digests of the deterministic outputs the
// output checks compare against: the rendered suite tables (any seed; the
// suite's experiments fix their own seeds) and the Results JSON of
// resume-attr's 8-core run (default seed only). A change that moves the
// model must update them and say so; a speed-only change must leave them
// alone.
var pinnedDigests = map[string]string{
	"suite-tiny":        "8f5784e57657720bf09037abb2ce8f6a3bec6c944e7ce1c19f9398034791f20d",
	"suite-tiny@smoke":  "98ba3c943b64da4d5248bbbe72881819ff2464047b5a7039c8b810109b196bf8",
	"resume-attr":       "a2ebe87a7abf4e00a7db879bfda0c108b95a6562c5e801883e9ebcc49d636605",
	"resume-attr@smoke": "7d960909d7209c4f83428afe5f6204805f3ec1d8ed25b6cb331f9fcbefa4134b",
}

// sizes sets the run length of each workload. The full sizes are the
// benchmark's; smoke sizes exist so tests can run every workload and its
// output check in seconds.
type sizes struct {
	suite        []experiment.Experiment
	attrRefs     uint64 // per core, warm-up included
	resumeMixes  []workload.Mix
	snapEvery    uint64 // resume: snapshot cadence in steps
	digestSuffix string // selects the pinned digests for this size
}

func fullSizes() sizes {
	return sizes{
		suite:       experiment.All(),
		attrRefs:    100_000,
		resumeMixes: workload.Mixes(),
		snapEvery:   40_000,
	}
}

func smokeSizes() sizes {
	fig3, _ := experiment.ByID("fig3")
	return sizes{
		suite:        []experiment.Experiment{fig3},
		attrRefs:     20_000,
		resumeMixes:  workload.Mixes()[:2],
		snapEvery:    20_000,
		digestSuffix: "@smoke",
	}
}

// outcome is what one measured iteration did: the jobs it attempted, how
// many failed or failed their output check, and the simulated references
// it retired (warm-up included).
type outcome struct {
	jobs, failed int
	refs         uint64
}

// trial is one set-up instance of a workload, ready to run once.
type trial struct {
	run   func() (outcome, error)
	close func() // releases what set-up acquired; may be nil
}

// workloadDef is one benchmark workload. prepare runs once per process,
// untimed: it computes the reference outputs the checks compare against.
// setup builds one trial, traced by tr when it is non-nil; its duration
// is the workload's setup_s.
type workloadDef struct {
	name    string
	workers int
	prepare func() error
	setup   func(tr *tracer) (trial, error)
}

// newWorkload builds the named workload for one process.
func newWorkload(name string, seed uint64, sz sizes, workDir string) (*workloadDef, error) {
	switch name {
	case "suite-tiny":
		return suiteTiny(sz), nil
	case "resume-attr":
		return resumeAttr(seed, sz, workDir), nil
	}
	return nil, fmt.Errorf("unknown workload %q (suite-tiny|resume-attr)", name)
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"suite-tiny", "resume-attr"}

// suiteTiny is cmd/experiments -run all -scale tiny, in process: a fresh
// engine per iteration (so nothing is memoised across iterations) runs the
// deduplicated job list on min(2, nproc) workers, then renders every table.
func suiteTiny(sz sizes) *workloadDef {
	workers := min(2, runtime.NumCPU())
	want := pinnedDigests["suite-tiny"+sz.digestSuffix]
	return &workloadDef{
		name:    "suite-tiny",
		workers: workers,
		setup: func(tr *tracer) (trial, error) {
			eng := experiment.NewEngine(experiment.Tiny, workers)
			jobs := eng.Jobs(sz.suite...)
			// The engine calls sim.New and Run itself, so the run span is
			// timed from the hooks it offers around Run, and construction
			// is the rest of each job's wall time.
			var refs, runNanos atomic.Uint64
			var runStart sync.Map // *sim.System -> time.Time, traced runs only
			if tr != nil {
				eng.Runner.Observe = func(sys *sim.System) { runStart.Store(sys, time.Now()) }
				eng.Progress = func(p experiment.Progress) { tr.job(p.Elapsed) }
			}
			eng.Runner.ObserveDone = func(sys *sim.System) {
				refs.Add(retired(sys))
				if t0, ok := runStart.LoadAndDelete(sys); ok {
					d := time.Since(t0.(time.Time))
					runNanos.Add(uint64(d))
					tr.add("span.run_s", d)
				}
			}
			run := func() (outcome, error) {
				out := outcome{jobs: len(jobs)}
				if err := eng.ExecuteContext(context.Background(), jobs); err != nil {
					return out, err
				}
				var buf bytes.Buffer
				for _, e := range sz.suite {
					t, err := e.Run(eng.Runner)
					if err != nil {
						return out, fmt.Errorf("%s: %w", e.ID, err)
					}
					fmt.Fprintf(&buf, "# %s — %s\n# paper: %s\n", e.ID, e.Title, e.PaperClaim)
					t.Render(&buf)
					buf.WriteString("\n")
				}
				out.refs = refs.Load()
				if got := digest(buf.Bytes()); got != want {
					fmt.Fprintf(os.Stderr, "suite-tiny: tables digest %s, pinned %s\n", got, want)
					out.failed = out.jobs
				}
				if tr != nil {
					tr.add("span.construct_s", eng.Stats().JobWall-time.Duration(runNanos.Load()))
					for _, j := range jobs {
						if res, err := eng.Runner.Run(j.Config); err == nil {
							tr.result(res)
						}
					}
				}
				return out, nil
			}
			return trial{run: run}, nil
		},
	}
}

// resumeAttr runs, one after the other in each iteration, the two opt-in
// planes a plain sweep never runs: the snapshot harness, then one 8-core
// run with the introspection plane attached. suite-tiny is its control.
func resumeAttr(seed uint64, sz sizes, workDir string) *workloadDef {
	parts := []*workloadDef{resume(seed, sz, workDir), steadyAttr(seed, sz)}
	return &workloadDef{
		name:    "resume-attr",
		workers: 1,
		prepare: func() error {
			for _, p := range parts {
				if err := p.prepare(); err != nil {
					return err
				}
			}
			return nil
		},
		setup: func(tr *tracer) (trial, error) {
			var trials []trial
			closeAll := func() {
				for _, t := range trials {
					if t.close != nil {
						t.close()
					}
				}
			}
			for _, p := range parts {
				t, err := p.setup(tr)
				if err != nil {
					closeAll()
					return trial{}, err
				}
				trials = append(trials, t)
			}
			run := func() (outcome, error) {
				var sum outcome
				for _, t := range trials {
					o, err := t.run()
					sum.jobs += o.jobs
					sum.failed += o.failed
					sum.refs += o.refs
					if err != nil {
						return sum, err
					}
				}
				return sum, nil
			}
			return trial{run: run, close: closeAll}, nil
		},
	}
}

// steadyConfig is one small-scale 8-core machine running graph500+GUPS
// under CSALT-CD on the POM-TLB organisation.
func steadyConfig(seed, refs uint64) sim.Config {
	cfg := experiment.Small.BaseConfig()
	cfg.Mix, _ = workload.MixByID("graph500_gups")
	cfg.Scheme = core.CriticalityDynamic
	cfg.Org = sim.OrgPOM
	cfg.Seed = seed
	cfg.MaxRefsPerCore = refs
	cfg.WarmupRefs = refs / 5
	return cfg
}

// steadyAttr is one 8-core run with the introspection plane attached
// before Run; set-up is sim.New plus the attach. The plane is passive, so
// the attached Results must equal an unattached run's, at any seed, and
// at the default seed also the pinned digest.
func steadyAttr(seed uint64, sz sizes) *workloadDef {
	cfg := steadyConfig(seed, sz.attrRefs)
	pin := ""
	if seed == defaultSeed {
		pin = pinnedDigests["resume-attr"+sz.digestSuffix]
	}
	var want []byte
	return &workloadDef{
		name:    "attr",
		workers: 1,
		prepare: func() error {
			res, err := simulate(cfg)
			if err != nil {
				return fmt.Errorf("attr reference run: %w", err)
			}
			want, err = json.Marshal(res)
			return err
		},
		setup: func(tr *tracer) (trial, error) {
			var sys *sim.System
			err := tr.span("span.construct_s", func() (err error) {
				if sys, err = sim.New(cfg); err == nil {
					sys.AttachIntrospection(introspect.NewPlane(introspect.Config{Cores: cfg.Cores}))
				}
				return err
			})
			if err != nil {
				return trial{}, err
			}
			run := func() (outcome, error) {
				res, err := runTimed(tr, sys)
				if err != nil {
					return outcome{jobs: 1, failed: 1}, err
				}
				out := outcome{jobs: 1, refs: retired(sys)}
				got, err := json.Marshal(res)
				if err != nil {
					return out, err
				}
				if !bytes.Equal(got, want) {
					fmt.Fprintln(os.Stderr, "attr: attached results differ from the unattached run")
					out.failed = 1
				} else if d := digest(got); pin != "" && d != pin {
					fmt.Fprintf(os.Stderr, "attr: results digest %s, pinned %s\n", d, pin)
					out.failed = 1
				}
				tr.result(res)
				return out, nil
			}
			return trial{run: run}, nil
		},
	}
}

// resume is the snapshot harness: one tiny CSALT-CD job per paper mix,
// each stopped at its first periodic snapshot, restored from disk, run to
// completion and appended to a checkpoint store. Set-up is opening the
// store. Every resumed Results must be byte-identical to the same job run
// without interruption, at any seed.
func resume(seed uint64, sz sizes, workDir string) *workloadDef {
	cfgs := make([]sim.Config, len(sz.resumeMixes))
	for i, m := range sz.resumeMixes {
		cfg := experiment.Tiny.BaseConfig()
		cfg.Mix = m
		cfg.Scheme = core.CriticalityDynamic
		cfg.Seed = seed
		cfgs[i] = cfg
	}
	want := make([][]byte, len(cfgs))
	var trials int
	return &workloadDef{
		name:    "resume",
		workers: 1,
		prepare: func() error {
			for i, cfg := range cfgs {
				res, err := simulate(cfg)
				if err != nil {
					return fmt.Errorf("resume reference run %s: %w", cfg.Mix.ID, err)
				}
				if want[i], err = json.Marshal(res); err != nil {
					return err
				}
			}
			return nil
		},
		setup: func(tr *tracer) (trial, error) {
			trials++
			dir := filepath.Join(workDir, fmt.Sprintf("resume-%d", trials))
			store, err := checkpoint.Open(dir, false)
			if err != nil {
				return trial{}, err
			}
			closeStore := func() {
				// Every Put was synced, and the store is thrown away.
				_ = store.Close()
				_ = os.RemoveAll(dir)
			}
			run := func() (outcome, error) {
				out := outcome{jobs: len(cfgs)}
				for i, cfg := range cfgs {
					t0 := time.Now()
					res, refs, err := resumeJob(cfg, filepath.Join(dir, "snapshots"), sz.snapEvery, store, tr)
					tr.job(time.Since(t0))
					out.refs += refs
					if err != nil {
						fmt.Fprintf(os.Stderr, "resume %s: %v\n", cfg.Mix.ID, err)
						out.failed++
						continue
					}
					got, err := json.Marshal(res)
					if err != nil || !bytes.Equal(got, want[i]) {
						fmt.Fprintf(os.Stderr, "resume %s: resumed results differ from the uninterrupted run\n", cfg.Mix.ID)
						out.failed++
					}
					tr.result(res)
				}
				return out, nil
			}
			return trial{run: run, close: closeStore}, nil
		},
	}
}

// resumeJob runs one job to its first snapshot, stops it there, restores
// it from the file and runs it to completion, then stores the result.
func resumeJob(cfg sim.Config, dir string, every uint64, store *checkpoint.Store, tr *tracer) (*sim.Results, uint64, error) {
	key, err := checkpoint.KeyOf(cfg)
	if err != nil {
		return nil, 0, err
	}
	path := snapshot.PathFor(dir, key)
	var sys *sim.System
	if err := tr.span("span.construct_s", func() (err error) {
		sys, err = sim.New(cfg)
		return err
	}); err != nil {
		return nil, 0, err
	}
	sink := &stopSink{sys: sys, path: path, key: key, tr: tr}
	sys.EnableSnapshots(sink, every)
	if _, err := runTimed(tr, sys); !errors.Is(err, sim.ErrSnapshotStop) {
		return nil, 0, fmt.Errorf("run did not stop at its snapshot: %v", err)
	}
	if sink.err != nil {
		return nil, 0, sink.err
	}

	var meta snapshot.Meta
	var st *snapshot.State
	if err := tr.span("span.snapshot_read_s", func() (err error) {
		meta, st, err = snapshot.Read(path)
		return err
	}); err != nil {
		return nil, 0, err
	}
	if st == nil || meta.Key != key {
		return nil, 0, fmt.Errorf("snapshot %s missing or keyed %q", path, meta.Key)
	}
	var restored *sim.System
	if err := tr.span("span.restore_s", func() (err error) {
		restored, err = sim.RestoreSystem(cfg, st)
		return err
	}); err != nil {
		return nil, 0, err
	}
	res, err := runTimed(tr, restored)
	if err != nil {
		return nil, 0, err
	}
	if err := tr.span("span.checkpoint_put_s", func() error { return store.Put(key, res) }); err != nil {
		return nil, 0, err
	}
	return res, retired(restored), snapshot.Remove(path)
}

// stopSink writes each snapshot to the job's slot and asks the run to
// stop after the first, so the run ends with the drain snapshot taken at
// the next poll boundary.
type stopSink struct {
	sys  *sim.System
	path string
	key  string
	seq  uint64
	tr   *tracer
	err  error
}

func (k *stopSink) WriteSnapshot(st *snapshot.State, steps uint64) error {
	meta := snapshot.Meta{
		Schema: snapshot.Schema, Version: snapshot.Version,
		Key: k.key, Seq: k.seq, Steps: steps,
	}
	k.seq++
	err := k.tr.span("span.snapshot_write_s", func() error { return snapshot.Write(k.path, meta, st, nil) })
	if err != nil {
		k.err = err
		return err
	}
	if k.tr != nil {
		fi, err := os.Stat(k.path)
		if err != nil {
			k.err = err
			return err
		}
		k.tr.snapshot(fi.Size())
	}
	k.sys.RequestSnapshotStop()
	return nil
}

// simulate builds and runs one uninterrupted, unattached system.
func simulate(cfg sim.Config) (*sim.Results, error) {
	sys, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	return sys.Run()
}

// runTimed runs sys, as span.run_s when traced.
func runTimed(tr *tracer, sys *sim.System) (*sim.Results, error) {
	var res *sim.Results
	err := tr.span("span.run_s", func() (err error) {
		res, err = sys.Run()
		return err
	})
	return res, err
}

// retired is the number of memory references the system's cores have
// retired, warm-up included.
func retired(sys *sim.System) uint64 {
	var n uint64
	for _, c := range sys.Cores() {
		n += c.Stats.MemRefs.Value()
	}
	return n
}

// sane rejects results no healthy run produces.
func sane(res *sim.Results) bool {
	return res.Instructions > 0 && res.Cycles > 0 &&
		res.IPCGeomean > 0 && !math.IsInf(res.IPCGeomean, 0) && !math.IsNaN(res.IPCGeomean)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
