package sim

import (
	"bytes"
	"math"
	"testing"

	"github.com/csalt-sim/csalt/internal/cache"
	"github.com/csalt-sim/csalt/internal/core"
	"github.com/csalt-sim/csalt/internal/introspect"
	"github.com/csalt-sim/csalt/internal/obs"
	"github.com/csalt-sim/csalt/internal/workload"
)

// FuzzConfigValidate throws arbitrary numerics at Validate and checks two
// invariants: Validate never panics, and any configuration it accepts has
// sane, finite run-control values — NaN/Inf floats and overflow-shaped
// integers must be rejected before they reach system assembly, where they
// would size allocations or drive loop bounds.
func FuzzConfigValidate(f *testing.F) {
	f.Add(8, 2, 0.25, 0.5, uint64(300_000), uint64(60_000), 4, 16, 32)
	f.Add(1, 1, 1.0, 0.25, uint64(1), uint64(0), 5, 1, 0)
	f.Add(-1, 0, math.NaN(), math.Inf(1), uint64(0), uint64(1<<63), 3, -16, -1)
	f.Add(1<<30, 1<<20, math.Inf(-1), math.NaN(), uint64(1)<<60, uint64(5), 6, 1<<30, 1<<30)
	f.Fuzz(func(t *testing.T, cores, contexts int, scale, dataFrac float64,
		maxRefs, warmup uint64, levels, pomMB, mlp int) {
		cfg := DefaultConfig()
		cfg.Mix = workload.Mix{ID: "fz", VM1: workload.GUPS, VM2: workload.GUPS}
		cfg.Cores = cores
		cfg.ContextsPerCore = contexts
		cfg.Scale = scale
		cfg.StaticDataFrac = dataFrac
		cfg.MaxRefsPerCore = maxRefs
		cfg.WarmupRefs = warmup
		cfg.PageTableLevels = levels
		cfg.POMSizeMB = pomMB
		cfg.MLPWindow = mlp

		err := cfg.Validate() // must not panic
		if err != nil {
			return
		}
		if math.IsNaN(cfg.Scale) || math.IsInf(cfg.Scale, 0) || cfg.Scale <= 0 {
			t.Fatalf("Validate accepted non-finite/non-positive scale %v", cfg.Scale)
		}
		if cfg.Cores <= 0 || cfg.Cores > maxCores {
			t.Fatalf("Validate accepted cores %d", cfg.Cores)
		}
		if cfg.ContextsPerCore < 1 || cfg.ContextsPerCore > maxContexts {
			t.Fatalf("Validate accepted contexts %d", cfg.ContextsPerCore)
		}
		if cfg.MaxRefsPerCore == 0 || cfg.MaxRefsPerCore > maxRefsCeiling {
			t.Fatalf("Validate accepted MaxRefsPerCore %d", cfg.MaxRefsPerCore)
		}
		if cfg.WarmupRefs >= cfg.MaxRefsPerCore {
			t.Fatalf("Validate accepted warmup %d >= run length %d", cfg.WarmupRefs, cfg.MaxRefsPerCore)
		}
		// The products downstream code forms must not overflow.
		if total := cfg.MaxRefsPerCore * uint64(cfg.Cores); total/uint64(cfg.Cores) != cfg.MaxRefsPerCore {
			t.Fatalf("accepted config overflows MaxRefsPerCore*Cores: %d * %d", cfg.MaxRefsPerCore, cfg.Cores)
		}
	})
}

// FuzzEngineEquivalence drives randomly-shaped (but valid) configurations
// through the engine's three ways of playing a run and fails on any
// divergence between them: uninterrupted; with the attribution plane
// attached (before the observer, so the registry carries only component
// metrics); and restored from a mid-run snapshot, decoded and resumed. Every
// byte of the final metrics-registry snapshot — counter totals,
// eviction-order-dependent hit rates, float metrics — and of the Results
// must agree, with invariant checks armed throughout. Where the pinned
// shapes in equivalence_test.go (its fuzz_seed_* rows are this fuzzer's
// seeds) cover the corners we thought of, the fuzzer hunts the
// interaction we did not.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(uint8(3), uint8(5), uint8(2), uint8(1), uint8(0), uint8(0), uint8(0), false, false, uint16(60), uint64(1))
	f.Add(uint8(0), uint8(1), uint8(1), uint8(2), uint8(1), uint8(2), uint8(1), true, false, uint16(120), uint64(7))
	f.Add(uint8(2), uint8(4), uint8(4), uint8(2), uint8(2), uint8(3), uint8(2), false, true, uint16(90), uint64(42))
	f.Fuzz(func(t *testing.T, vm1, vm2, contexts, cores, orgPick, schemePick, policyPick uint8,
		dip, native bool, scale uint16, seed uint64) {
		benches := workload.All()
		cfg := tinyConfig()
		// Footprint 0.02x-0.15x and a short run keep one input under ~200ms.
		mixedShape(benches[int(vm1)%len(benches)], benches[int(vm2)%len(benches)],
			[]int{1, 2, 4}[int(contexts)%3], 1+int(cores)%2,
			[]TranslationOrg{OrgConventional, OrgPOM, OrgTSB}[int(orgPick)%3],
			[]core.Scheme{core.None, core.Static, core.Dynamic, core.CriticalityDynamic}[int(schemePick)%4],
			[]cache.PolicyKind{cache.PolicyLRU, cache.PolicyNRU, cache.PolicyBTPLRU}[int(policyPick)%3],
			dip, native, int(scale%128), seed)(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Skip()
		}
		wantDigest, wantRes := digestRun(t, cfg)

		sys := MustNew(cfg)
		sys.AttachIntrospection(introspect.NewPlane(introspect.Config{Cores: cfg.Cores}))
		reg := obs.NewRegistry()
		sys.AttachObserver(&obs.Observer{Registry: reg})
		sys.EnableInvariantChecks(0)
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		if digest, rj := digestOf(t, reg, res); digest != wantDigest || !bytes.Equal(rj, wantRes) {
			t.Errorf("attributed run diverged for %+v:\n  digest  %s\n  want    %s\n  Results %s\n  want    %s",
				cfg, digest, wantDigest, rj, wantRes)
		}

		sink, _, _, err := snapshottingRun(t, cfg, 1_500, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(sink.blobs) == 0 {
			t.Fatalf("no snapshot taken for %+v", cfg)
		}
		digest, rj := resumeRun(t, cfg, sink.blobs[len(sink.blobs)/2])
		if digest != wantDigest || !bytes.Equal(rj, wantRes) {
			t.Errorf("resumed run diverged for %+v:\n  digest  %s\n  want    %s\n  Results %s\n  want    %s",
				cfg, digest, wantDigest, rj, wantRes)
		}
	})
}
