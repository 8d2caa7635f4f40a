package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/csalt-sim/csalt/internal/checkpoint"
	"github.com/csalt-sim/csalt/internal/sim"
	"github.com/csalt-sim/csalt/internal/snapshot"
	"github.com/csalt-sim/csalt/internal/workload"
)

// TestRunnerSnapshotDrainResumeByteIdentical is the runner-level drain
// contract: a job stopped mid-run by SnapshotStopAll leaves a durable
// snapshot behind, and a fresh runner (a fresh process stand-in) pointed
// at the same directory resumes it to a byte-identical result, then
// clears the slot.
func TestRunnerSnapshotDrainResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run snapshot test")
	}
	cfg := microScale.BaseConfig()
	// Long enough that the drain request below always lands mid-run.
	cfg.MaxRefsPerCore = 400_000
	cfg.Mix = workload.Mix{ID: "snapdrain", VM1: workload.GUPS, VM2: workload.StreamCluster}

	clean := NewRunner(microScale)
	want, err := clean.Run(cfg)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted: hammer the drain request until the in-flight job stops
	// at a poll boundary with its final snapshot persisted.
	dir := t.TempDir()
	r1 := NewRunner(microScale)
	r1.SnapshotDir = dir
	r1.SnapshotEvery = 50_000
	errCh := make(chan error, 1)
	go func() {
		_, err := r1.Run(cfg)
		errCh <- err
	}()
	var runErr error
	deadline := time.After(30 * time.Second)
drain:
	for {
		r1.SnapshotStopAll()
		select {
		case runErr = <-errCh:
			break drain
		case <-deadline:
			t.Fatal("drained job never returned")
		default:
			runtime.Gosched()
		}
	}
	if !errors.Is(runErr, sim.ErrSnapshotStop) {
		t.Fatalf("drained run: err=%v, want ErrSnapshotStop", runErr)
	}
	if info, err := snapshot.ScanDir(dir); err != nil || info.Snapshots != 1 {
		t.Fatalf("after drain: %+v err=%v, want exactly one snapshot", info, err)
	}
	if r1.Cached(cfg) {
		t.Error("interrupted job left a memoised result")
	}

	// Resume: a fresh runner over the same directory.
	r2 := NewRunner(microScale)
	r2.SnapshotDir = dir
	got, err := r2.Run(cfg)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if n := r2.Resumed(); n != 1 {
		t.Errorf("resumed runner restored %d jobs, want 1", n)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Error("resumed Results differ from uninterrupted run")
	}
	if info, err := snapshot.ScanDir(dir); err != nil || info.Snapshots != 0 {
		t.Errorf("completed job left its snapshot behind: %+v err=%v", info, err)
	}
}

// TestRunnerJSONLineSnapshotRunsFromZero: a slot holding a version-2 file
// (the three-JSON-line layout this binary no longer reads) is version
// skew: the runner quarantines it, runs the job from zero, and the tables
// match a run that never saw a snapshot.
func TestRunnerJSONLineSnapshotRunsFromZero(t *testing.T) {
	fig3, ok := ByID("fig3")
	if !ok {
		t.Fatal("fig3 not registered")
	}
	want, err := fig3.Run(NewRunner(microScale))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	keys := map[string]bool{}
	for _, cfg := range fig3.Jobs(microScale) {
		key, err := checkpoint.KeyOf(cfg)
		if err != nil {
			t.Fatal(err)
		}
		keys[key] = true
		head, err := json.Marshal(snapshot.Meta{Schema: snapshot.Schema, Version: 2, Key: key, Seq: 1, Steps: 3000})
		if err != nil {
			t.Fatal(err)
		}
		data := append(append(head, '\n'), `{"warmed":true,"snaps":[{"instructions":1,"cycles":2}]}`+"\n"...)
		sum := sha256.Sum256(data)
		data = append(data, `{"sha256":"`+hex.EncodeToString(sum[:])+`"}`+"\n"...)
		if err := os.WriteFile(snapshot.PathFor(dir, key), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r := NewRunner(microScale)
	r.SnapshotDir = dir
	got, err := fig3.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	if r.Resumed() != 0 {
		t.Errorf("runner resumed %d jobs from version-2 files", r.Resumed())
	}
	if got.String() != want.String() {
		t.Errorf("tables differ from a snapshot-free run:\n%s\nwant:\n%s", got, want)
	}
	if info, err := snapshot.ScanDir(dir); err != nil || info.Snapshots != 0 || info.Quarantined != len(keys) {
		t.Errorf("after the run: %+v err=%v, want 0 live and %d quarantined", info, err, len(keys))
	}
}

// TestRunnerClearsTornSnapshotTemp: a process killed mid-Write leaves a
// <key>.snap.tmp-* file in the job's slot; once the job next completes,
// the runner's cleanup removes it with the snapshot, so the directory
// ends empty.
func TestRunnerClearsTornSnapshotTemp(t *testing.T) {
	cfg := microScale.BaseConfig()
	cfg.Mix = workload.Mix{ID: "snaptorn", VM1: workload.GUPS, VM2: workload.StreamCluster}
	key, err := checkpoint.KeyOf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	torn := snapshot.PathFor(dir, key) + ".tmp-4242"
	if err := os.WriteFile(torn, make([]byte, 1<<16), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(microScale)
	r.SnapshotDir = dir
	r.SnapshotEvery = 5_000
	if _, err := r.Run(cfg); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("left in the snapshot directory after completion: %s", e.Name())
	}
}
