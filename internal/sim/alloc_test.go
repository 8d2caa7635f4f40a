package sim

import (
	"testing"

	"github.com/csalt-sim/csalt/internal/core"
	"github.com/csalt-sim/csalt/internal/introspect"
	"github.com/csalt-sim/csalt/internal/workload"
)

// Allocation regression tests for the simulator's hot path. The whole
// point of the packed component layouts is that a steady-state simulation
// step — generator record, translation through the TLB hierarchy and
// POM, data access through three cache levels and DRAM, MLP bookkeeping —
// touches no allocator at all. One allocation per reference costs more
// than an entire L1 TLB probe; this pins the invariant so a refactor
// that reintroduces boxing or map traffic on the lookup path fails CI
// rather than silently halving throughput.

// steadySystem builds a system and steps core 0 past warmup so demand
// paging, cold caches and first-touch structures are out of the way.
func steadySystem(t *testing.T, mutate func(*Config)) *System {
	t.Helper()
	cfg := tinyConfig()
	cfg.Mix = workload.Mix{ID: "gups", VM1: workload.GUPS, VM2: workload.GUPS}
	if mutate != nil {
		mutate(&cfg)
	}
	sys := MustNew(cfg)
	for i := 0; i < 20_000; i++ {
		if ok, err := sys.Cores()[0].Step(); err != nil || !ok {
			t.Fatalf("warm step %d: ok=%v err=%v", i, ok, err)
		}
	}
	return sys
}

func measureStepAllocs(t *testing.T, sys *System) float64 {
	t.Helper()
	c := sys.Cores()[0]
	return testing.AllocsPerRun(2_000, func() {
		if ok, err := c.Step(); err != nil || !ok {
			t.Fatalf("step: ok=%v err=%v", ok, err)
		}
	})
}

// TestStepZeroAllocs: the default (unpartitioned POM) system must run its
// steady-state step loop with zero allocations per reference.
func TestStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if avg := measureStepAllocs(t, steadySystem(t, nil)); avg != 0 {
		t.Errorf("step allocates %v objects/ref, want 0", avg)
	}
}

// TestStepZeroAllocsIntrospectionDisabled: the introspection
// hook sites added to every hot path (TLB lookup/insert, cache
// lookup/fill, DRAM queueing, walker completion, every core
// cycle-advance) must compile down to one nil compare each when no plane
// is attached — the steady-state step still touches no allocator.
func TestStepZeroAllocsIntrospectionDisabled(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sys := steadySystem(t, nil)
	if sys.Introspection() != nil {
		t.Fatal("steadySystem unexpectedly has an attribution plane attached")
	}
	if avg := measureStepAllocs(t, sys); avg != 0 {
		t.Errorf("step with introspection disabled allocates %v objects/ref, want 0", avg)
	}
}

// TestStepZeroAllocsIntrospectionAttached: even with the
// attribution plane live — classification maps, shadow LRUs, heatmaps,
// ledger — the steady-state step stays allocation-free: the shadow LRU
// is an index-linked arena and the classification maps stop growing once
// the working set has been seen.
func TestStepZeroAllocsIntrospectionAttached(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cfg := tinyConfig()
	cfg.Mix = workload.Mix{ID: "gups", VM1: workload.GUPS, VM2: workload.GUPS}
	sys := MustNew(cfg)
	sys.AttachIntrospection(introspect.NewPlane(introspect.Config{Cores: cfg.Cores}))
	for i := 0; i < 20_000; i++ {
		if ok, err := sys.Cores()[0].Step(); err != nil || !ok {
			t.Fatalf("warm step %d: ok=%v err=%v", i, ok, err)
		}
	}
	if avg := measureStepAllocs(t, sys); avg != 0 {
		t.Errorf("step with introspection attached allocates %v objects/ref, want 0", avg)
	}
}

// TestStepZeroAllocsCSALT: the probe configuration's scheme —
// CSALT-CD with both cache controllers and ATD profilers live — must
// stay allocation-free too; epoch-boundary repartitioning may only use
// preallocated state.
func TestStepZeroAllocsCSALT(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sys := steadySystem(t, func(c *Config) { c.Scheme = core.CriticalityDynamic })
	if avg := measureStepAllocs(t, sys); avg != 0 {
		t.Errorf("CSALT-CD step allocates %v objects/ref, want 0", avg)
	}
}
