package csalt

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/csalt-sim/csalt/internal/checkpoint"
	"github.com/csalt-sim/csalt/internal/sim"
	"github.com/csalt-sim/csalt/internal/snapshot"
)

// facadeConfig returns a seconds-fast configuration for facade tests.
func facadeConfig() Config {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.Scale = 0.05
	cfg.MaxRefsPerCore = 20_000
	cfg.WarmupRefs = 4_000
	cfg.EpochLen = 4_000
	cfg.SwitchIntervalCycles = 40_000
	cfg.Mix = HomogeneousMix(GUPS)
	return cfg
}

func TestRunFacade(t *testing.T) {
	res, err := Run(facadeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.IPCGeomean <= 0 {
		t.Error("IPC not positive")
	}
	if res.OrgName != "pom" || res.SchemeName != "none" {
		t.Errorf("names = %q/%q", res.OrgName, res.SchemeName)
	}
}

func TestRunFacadeRejectsBadConfig(t *testing.T) {
	cfg := facadeConfig()
	cfg.Cores = 0
	if _, err := Run(cfg); err == nil {
		t.Error("invalid config accepted")
	}
}

// sameResults fails t unless a and b encode to the same JSON (float NaNs
// make reflect.DeepEqual unusable on Results).
func sameResults(t *testing.T, what string, a, b *Results) {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Errorf("%s: results differ", what)
	}
}

// manyConfigs returns three distinct fast configurations.
func manyConfigs() []Config {
	a, b, c := facadeConfig(), facadeConfig(), facadeConfig()
	b.Mix = HomogeneousMix(CComp)
	c.Scheme = SchemeCSALTCD
	return []Config{a, b, c}
}

func TestRunManyContextOrderMatchesRun(t *testing.T) {
	cfgs := manyConfigs()
	got, err := RunManyContext(context.Background(), cfgs, ManyOpts{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cfgs) {
		t.Fatalf("len = %d, want %d", len(got), len(cfgs))
	}
	for i, cfg := range cfgs {
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, cfg.Mix.ID+"/"+cfg.Scheme.String(), got[i], want)
	}
}

func TestRunManyContextIsolatesInvalidConfig(t *testing.T) {
	cfgs := manyConfigs()
	cfgs[1].Cores = 0
	got, err := RunManyContext(context.Background(), cfgs, ManyOpts{Parallel: 2})
	if err == nil {
		t.Fatal("invalid configuration accepted")
	}
	if got[1] != nil {
		t.Error("failed configuration has a result")
	}
	if got[0] == nil || got[2] == nil {
		t.Error("a healthy configuration did not run")
	}
	if msg := err.Error(); !strings.Contains(msg, "configuration 1") || !strings.Contains(msg, cfgs[1].Mix.ID) {
		t.Errorf("error does not name index 1 and mix %q: %v", cfgs[1].Mix.ID, err)
	}
	if strings.Contains(err.Error(), "configuration 0") || strings.Contains(err.Error(), "configuration 2") {
		t.Errorf("error names a healthy configuration: %v", err)
	}
}

func TestRunManyContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := RunManyContext(ctx, manyConfigs(), ManyOpts{Parallel: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, res := range got {
		if res != nil {
			t.Errorf("slot %d filled after cancellation", i)
		}
	}
}

func TestRunManyContextRepeatedConfigSharesResults(t *testing.T) {
	cfg := facadeConfig()
	got, err := RunManyContext(context.Background(), []Config{cfg, cfg}, ManyOpts{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] == nil || got[0] != got[1] {
		t.Errorf("repeated configuration not simulated once: %p, %p", got[0], got[1])
	}
}

func TestRunManyContextSnapshotDirLeftEmpty(t *testing.T) {
	dir := t.TempDir()
	cfgs := manyConfigs()
	got, err := RunManyContext(context.Background(), cfgs, ManyOpts{
		Parallel: 2, SnapshotDir: dir, SnapshotEvery: 5_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range got {
		if res == nil {
			t.Errorf("slot %d empty", i)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("finished sweep left %s behind", e.Name())
	}
}

// TestRunManyContextQuarantinesDamagedSnapshot plants an unreadable file
// and a valid snapshot of another configuration in a run's slot: each must
// be moved aside to .corrupt, and the run must match a snapshot-free one.
func TestRunManyContextQuarantinesDamagedSnapshot(t *testing.T) {
	cfg := facadeConfig()
	key, err := checkpoint.KeyOf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	foreign := func(path string) error {
		other := cfg
		other.Seed++
		sys, err := sim.New(other)
		if err != nil {
			return err
		}
		st, err := sys.Snapshot()
		if err != nil {
			return err
		}
		meta := snapshot.Meta{Schema: snapshot.Schema, Version: snapshot.Version, Key: "foreign"}
		return snapshot.Write(path, meta, st, nil)
	}
	for name, plant := range map[string]func(path string) error{
		"damaged": func(path string) error { return os.WriteFile(path, []byte("not a snapshot\n"), 0o600) },
		"foreign": foreign,
	} {
		t.Run(name, func(t *testing.T) {
			path := snapshot.PathFor(t.TempDir(), key)
			if err := plant(path); err != nil {
				t.Fatal(err)
			}
			got, err := RunManyContext(context.Background(), []Config{cfg}, ManyOpts{SnapshotDir: filepath.Dir(path)})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Errorf("planted snapshot not quarantined: %v", err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("snapshot slot still present after completion: %v", err)
			}
			sameResults(t, name, got[0], want)
		})
	}
}

func TestSchemesExposed(t *testing.T) {
	for _, scheme := range []struct {
		s    interface{ String() string }
		want string
	}{
		{SchemeNone, "none"},
		{SchemeStatic, "csalt-static"},
		{SchemeCSALTD, "csalt-d"},
		{SchemeCSALTCD, "csalt-cd"},
	} {
		if scheme.s.String() != scheme.want {
			t.Errorf("scheme %v != %q", scheme.s, scheme.want)
		}
	}
}

func TestMixHelpers(t *testing.T) {
	if len(Mixes()) != 10 {
		t.Errorf("Mixes() = %d entries", len(Mixes()))
	}
	m, err := MixByID("ccomp")
	if err != nil || m.VM1 != CComp {
		t.Errorf("MixByID = %+v, %v", m, err)
	}
	if _, err := MixByID("nope"); err == nil {
		t.Error("unknown mix accepted")
	}
	hm := HomogeneousMix(Canneal)
	if hm.VM1 != Canneal || hm.VM2 != Canneal || hm.ID != "canneal" {
		t.Errorf("HomogeneousMix = %+v", hm)
	}
	b, err := ParseBenchmark("strcls")
	if err != nil || b != StreamCluster {
		t.Errorf("ParseBenchmark = %v, %v", b, err)
	}
}

func TestMixByIDMustPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MixByIDMust("definitely-not-a-mix")
}

// TestSchemeOrderingEndToEnd is the repository's headline smoke check: on a
// TLB-hostile homogeneous mix, the conventional system must trail the
// POM-TLB baseline, and CSALT must not trail it meaningfully (at full
// scale it leads; tiny scale leaves a little noise).
func TestSchemeOrderingEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run ordering check")
	}
	cfg := facadeConfig()
	cfg.Scale = 0.15
	cfg.MaxRefsPerCore = 60_000
	cfg.WarmupRefs = 12_000

	conv := cfg
	conv.Org = OrgConventional
	convRes, err := Run(conv)
	if err != nil {
		t.Fatal(err)
	}
	pomRes, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cd := cfg
	cd.Scheme = SchemeCSALTCD
	cdRes, err := Run(cd)
	if err != nil {
		t.Fatal(err)
	}
	if convRes.IPCGeomean >= pomRes.IPCGeomean {
		t.Errorf("conventional (%.4f) did not trail POM-TLB (%.4f)",
			convRes.IPCGeomean, pomRes.IPCGeomean)
	}
	if cdRes.IPCGeomean < pomRes.IPCGeomean*0.97 {
		t.Errorf("CSALT-CD (%.4f) fell more than 3%% below POM-TLB (%.4f)",
			cdRes.IPCGeomean, pomRes.IPCGeomean)
	}
}
