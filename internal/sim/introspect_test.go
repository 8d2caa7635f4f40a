package sim

import (
	"testing"

	"github.com/csalt-sim/csalt/internal/introspect"
	"github.com/csalt-sim/csalt/internal/obs"
)

// TestIntrospectionPassive proves attribution is read-only: a run with
// the plane attached produces the exact same metrics digest and Results
// as one without it. The plane attaches before the observer here so the
// registry carries only component metrics and the digests are
// comparable. The "fast" case holds the attached run to a live bare run
// of the engine; the "reference" case holds it to the bare four_contexts
// row pinned in equivalence_test.go, recorded while the reference layout
// of every TLB, POM-TLB and cache still ran alongside and agreed.
func TestIntrospectionPassive(t *testing.T) {
	cfg := tinyConfig()
	fourContexts(&cfg)
	for _, base := range []struct {
		name string
		want func(t *testing.T) (digest, resultsSum string)
	}{
		{"fast", func(t *testing.T) (string, string) {
			d, r := digestRun(t, cfg)
			return d, sha256Hex(r)
		}},
		{"reference", func(t *testing.T) (string, string) {
			p := pinned["four_contexts"]
			return p[0], p[1]
		}},
	} {
		t.Run(base.name, func(t *testing.T) {
			bareDigest, bareRes := base.want(t)

			sys := MustNew(cfg)
			sys.AttachIntrospection(introspect.NewPlane(introspect.Config{Cores: cfg.Cores}))
			reg := obs.NewRegistry()
			sys.AttachObserver(&obs.Observer{Registry: reg})
			sys.EnableInvariantChecks(0)
			res, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			digest, rj := digestOf(t, reg, res)
			if digest != bareDigest {
				t.Errorf("attaching introspection changed the metrics digest:\n  bare     %s\n  attached %s", bareDigest, digest)
			}
			if sum := sha256Hex(rj); sum != bareRes {
				t.Errorf("attaching introspection changed Results:\n  bare     %s\n  attached %s (%s)", bareRes, sum, rj)
			}
		})
	}
}

// TestIntrospectionLedger sanity-checks the attribution content on a
// heavily-switching run: switches are recorded, stall cycles land in
// cause buckets that sum to each core's clock, and the damage ledger's
// totals agree with the per-probe attribution (the conservation laws the
// invariant layer armed during the run).
func TestIntrospectionLedger(t *testing.T) {
	cfg := tinyConfig()
	cfg.ContextsPerCore = 4
	cfg.SwitchIntervalCycles = 5_000
	sys := MustNew(cfg)
	p := introspect.NewPlane(introspect.Config{Cores: cfg.Cores})
	sys.AttachIntrospection(p)
	sys.EnableInvariantChecks(0)
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	rep := p.Report()
	if rep.Ledger.Totals.Switches == 0 {
		t.Error("no context switches recorded in the ledger")
	}
	if len(rep.Ledger.Records) == 0 {
		t.Error("no closed scheduling windows retained")
	}
	for _, cr := range rep.Cores {
		core := sys.Cores()[cr.Core]
		if cr.TotalCycles != core.Cycle() {
			t.Errorf("core %d attribution buckets sum to %d, clock is %d", cr.Core, cr.TotalCycles, core.Cycle())
		}
	}
	var misses uint64
	for _, sr := range rep.Structures {
		misses += sr.MissesByCause["switch_induced"]
	}
	if misses != rep.Ledger.Totals.SwitchMisses {
		t.Errorf("probe switch-induced misses %d != ledger total %d", misses, rep.Ledger.Totals.SwitchMisses)
	}
}
