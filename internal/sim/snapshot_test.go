package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"github.com/csalt-sim/csalt/internal/introspect"
	"github.com/csalt-sim/csalt/internal/obs"
	"github.com/csalt-sim/csalt/internal/snapshot"
)

// The snapshot/restore contract: kill a run at any poll boundary, restore
// from the snapshot, run to completion — and the metrics-registry digest
// and Results JSON are byte-identical to the uninterrupted run. These tests
// enforce it end to end through the codec (snapshots round-trip through
// EncodeToBytes/Decode, not just in-memory state).

// memSink collects encoded snapshots in memory, optionally requesting a
// cooperative stop after a fixed number of writes (a deterministic mid-run
// "drain" without goroutine timing).
type memSink struct {
	sys       *System
	stopAfter int // request stop once this many snapshots are written; 0 = never
	blobs     [][]byte
	seq       uint64
}

func (k *memSink) WriteSnapshot(st *snapshot.State, steps uint64) error {
	b, err := snapshot.EncodeToBytes(snapshot.Meta{
		Schema: snapshot.Schema, Version: snapshot.Version,
		Key: "sim-test", Seq: k.seq, Steps: steps,
	}, st)
	if err != nil {
		return err
	}
	k.seq++
	k.blobs = append(k.blobs, b)
	if k.stopAfter > 0 && len(k.blobs) >= k.stopAfter && k.sys != nil {
		k.sys.RequestSnapshotStop()
	}
	return nil
}

// digestOf computes the pinned-digest observables: the sha256 of the final
// registry snapshot and the JSON-encoded Results.
func digestOf(t *testing.T, reg *obs.Registry, res *Results) (string, []byte) {
	t.Helper()
	snap, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(snap)
	rj, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(sum[:]), rj
}

// resumeRun decodes one captured snapshot, restores a system from it, runs
// to completion and returns the run's observables.
func resumeRun(t *testing.T, cfg Config, blob []byte) (string, []byte) {
	t.Helper()
	_, st, err := snapshot.Decode(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("decoding snapshot: %v", err)
	}
	sys, err := RestoreSystem(cfg, st)
	if err != nil {
		t.Fatalf("restoring: %v", err)
	}
	reg := obs.NewRegistry()
	sys.AttachObserver(&obs.Observer{Registry: reg})
	sys.EnableInvariantChecks(0)
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	return digestOf(t, reg, res)
}

// snapshottingRun plays cfg with the snapshot plane armed at the given
// cadence, returning the sink and the run's observables (or the run error
// when a drain stop was requested).
func snapshottingRun(t *testing.T, cfg Config, every uint64, stopAfter int) (*memSink, string, []byte, error) {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sys.AttachObserver(&obs.Observer{Registry: reg})
	sys.EnableInvariantChecks(0)
	sink := &memSink{sys: sys, stopAfter: stopAfter}
	sys.EnableSnapshots(sink, every)
	res, err := sys.Run()
	if err != nil {
		return sink, "", nil, err
	}
	digest, rj := digestOf(t, reg, res)
	return sink, digest, rj, nil
}

// TestSnapshotResumeByteIdentical is the tentpole contract: restore from
// the first, a middle and the last periodic snapshot, and every resumed run
// must reproduce the uninterrupted run's registry digest and Results bytes
// exactly. The "fast" case takes the uninterrupted observables from a live
// run of the engine; the "reference" case takes them from the
// fig3_pom_occupancy row pinned in equivalence_test.go (tinyConfig's
// shape), recorded while the reference layout of every TLB, POM-TLB and
// cache still ran alongside and agreed.
func TestSnapshotResumeByteIdentical(t *testing.T) {
	cfg := tinyConfig()
	for _, base := range []struct {
		name string
		want func(t *testing.T) (digest, resultsSum string)
	}{
		{"fast", func(t *testing.T) (string, string) {
			d, r := digestRun(t, cfg)
			return d, sha256Hex(r)
		}},
		{"reference", func(t *testing.T) (string, string) {
			p := pinned["fig3_pom_occupancy"]
			return p[0], p[1]
		}},
	} {
		t.Run(base.name, func(t *testing.T) {
			wantDigest, wantRes := base.want(t)

			sink, digest, rj, err := snapshottingRun(t, cfg, 3_000, 0)
			if err != nil {
				t.Fatal(err)
			}
			if digest != wantDigest {
				t.Fatalf("snapshotting perturbed the run:\n  with    %s\n  without %s", digest, wantDigest)
			}
			if sum := sha256Hex(rj); sum != wantRes {
				t.Fatalf("snapshotting perturbed Results:\n  with    %s (%s)\n  without %s", sum, rj, wantRes)
			}
			if len(sink.blobs) < 3 {
				t.Fatalf("expected >= 3 periodic snapshots, got %d", len(sink.blobs))
			}

			for _, i := range []int{0, len(sink.blobs) / 2, len(sink.blobs) - 1} {
				gotDigest, gotRes := resumeRun(t, cfg, sink.blobs[i])
				if gotDigest != wantDigest {
					t.Errorf("snapshot %d: resumed digest diverged:\n  resumed       %s\n  uninterrupted %s", i, gotDigest, wantDigest)
				}
				if sum := sha256Hex(gotRes); sum != wantRes {
					t.Errorf("snapshot %d: resumed Results diverged:\n  resumed       %s (%s)\n  uninterrupted %s", i, sum, gotRes, wantRes)
				}
			}
		})
	}
}

// TestSnapshotDrainStopResume exercises the SIGTERM-drain path: mid-run
// the sink requests a cooperative stop, the run writes one final snapshot
// and returns ErrSnapshotStop, and resuming from that drain snapshot
// reproduces the uninterrupted run bit for bit.
func TestSnapshotDrainStopResume(t *testing.T) {
	cfg := tinyConfig()
	wantDigest, wantRes := digestRun(t, cfg)

	sink, _, _, err := snapshottingRun(t, cfg, 3_000, 3)
	if !errors.Is(err, ErrSnapshotStop) {
		t.Fatalf("want ErrSnapshotStop, got %v", err)
	}
	if len(sink.blobs) < 4 {
		t.Fatalf("expected 3 periodic + 1 drain snapshot, got %d", len(sink.blobs))
	}
	gotDigest, gotRes := resumeRun(t, cfg, sink.blobs[len(sink.blobs)-1])
	if gotDigest != wantDigest {
		t.Errorf("drained+resumed digest diverged:\n  resumed       %s\n  uninterrupted %s", gotDigest, wantDigest)
	}
	if !bytes.Equal(gotRes, wantRes) {
		t.Errorf("drained+resumed Results diverged")
	}
}

// TestSnapshotResumeMatrix runs the resume contract across the
// engine-equivalence matrix (every translation org, partitioning scheme, policy and
// paging mode), resuming from the middle snapshot.
func TestSnapshotResumeMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full equivalence-matrix resume sweep")
	}
	for name, mutate := range equivalenceMatrix() {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig()
			if mutate != nil {
				mutate(&cfg)
			}
			wantDigest, wantRes := digestRun(t, cfg)
			sink, _, _, err := snapshottingRun(t, cfg, 3_000, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(sink.blobs) == 0 {
				t.Fatal("no snapshots captured")
			}
			gotDigest, gotRes := resumeRun(t, cfg, sink.blobs[len(sink.blobs)/2])
			if gotDigest != wantDigest {
				t.Errorf("resumed digest diverged:\n  resumed       %s\n  uninterrupted %s", gotDigest, wantDigest)
			}
			if !bytes.Equal(gotRes, wantRes) {
				t.Errorf("resumed Results diverged")
			}
		})
	}
}

// TestSnapshotEncodeStable: a real captured state re-encodes to the exact
// same bytes after a decode pass (no map-ordering or float-formatting
// wobble), which is what makes on-disk digests trustworthy.
func TestSnapshotEncodeStable(t *testing.T) {
	cfg := tinyConfig()
	sink, _, _, err := snapshottingRun(t, cfg, 3_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	blob := sink.blobs[len(sink.blobs)-1]
	meta, st, err := snapshot.Decode(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	again, err := snapshot.EncodeToBytes(meta, st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, again) {
		t.Fatal("decode→re-encode changed snapshot bytes")
	}
}

// TestSnapshotRestoreRejectsMismatch: a tampered snapshot — or one whose
// structure geometry does not match the machine — must fail the restore
// verification rather than silently resume divergent state.
func TestSnapshotRestoreRejectsMismatch(t *testing.T) {
	cfg := tinyConfig()
	cfg.NoPrewarm = true // ensures the fault log is non-trivial
	sink, _, _, err := snapshottingRun(t, cfg, 3_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	decode := func() *snapshot.State {
		_, st, err := snapshot.Decode(bytes.NewReader(sink.blobs[len(sink.blobs)-1]))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	tampers := map[string]func(*snapshot.State){
		"host_allocated": func(st *snapshot.State) { st.HostAllocated++ },
		"fault_dup":      func(st *snapshot.State) { st.Faults = append(st.Faults, st.Faults[0]) },
		"core_count":     func(st *snapshot.State) { st.Cores = st.Cores[:1] },
		"touched_pages":  func(st *snapshot.State) { st.VMs[0].TouchedPages++ },
		"pom_geometry":   func(st *snapshot.State) { st.Mem.POM.FW = st.Mem.POM.FW[:len(st.Mem.POM.FW)/2] },
		"tlb_geometry":   func(st *snapshot.State) { st.Mem.L2TLB[0].KM = st.Mem.L2TLB[0].KM[1:] },
		"cache_geometry": func(st *snapshot.State) { st.Mem.L3.Words = append(st.Mem.L3.Words, 0) },
	}
	for name, tamper := range tampers {
		t.Run(name, func(t *testing.T) {
			st := decode()
			tamper(st)
			if _, err := RestoreSystem(cfg, st); err == nil {
				t.Fatal("tampered snapshot restored without error")
			}
		})
	}
}

// TestSnapshotIntrospectionIncompatible: the introspection plane carries
// attribution state the snapshot does not cover, so Snapshot must refuse
// rather than drop it silently.
func TestSnapshotIntrospectionIncompatible(t *testing.T) {
	cfg := tinyConfig()
	sys := MustNew(cfg)
	sys.AttachIntrospection(introspect.NewPlane(introspect.Config{Cores: cfg.Cores}))
	sys.EnableSnapshots(&memSink{}, 1_000)
	if _, err := sys.Snapshot(); err == nil || !strings.Contains(err.Error(), "introspection") {
		t.Fatalf("want introspection-incompatibility error, got %v", err)
	}
}
