package experiment

import (
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenTablesEngineInvariant is the rendered-table end of the
// equivalence contract (the metrics-digest end lives in
// internal/sim/equivalence_test.go): the committed golden tables must not
// depend on how the experiment Engine executes its jobs. Each golden
// artifact is rendered sequentially on one worker and again on four
// workers with durable mid-run snapshots armed, and both renderings must
// equal the golden file byte for byte. A divergence here with a green
// internal/sim suite would mean an execution-dependent code path above
// the simulator — in the job enumerators, the memo cache, the snapshot
// plumbing or the table renderer — which this test exists to rule out.
func TestGoldenTablesEngineInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny-scale golden sweep")
	}
	for _, id := range goldenExperiments {
		id := id
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %q missing", id)
			}
			seqTable, err := NewEngine(Tiny, 1).Run(e)
			if err != nil {
				t.Fatalf("sequential engine: %v", err)
			}
			snapEng := NewEngine(Tiny, 4)
			snapEng.Runner.SnapshotDir = t.TempDir()
			snapEng.Runner.SnapshotEvery = 20_000
			snapTable, err := snapEng.Run(e)
			if err != nil {
				t.Fatalf("snapshotting engine: %v", err)
			}
			if snapEng.Runner.LastSnapshotTime().IsZero() {
				t.Errorf("%s: the snapshotting engine wrote no snapshot", id)
			}
			seq, snap := seqTable.String(), snapTable.String()
			if seq != snap {
				t.Errorf("%s tables diverge across execution modes\n--- sequential ---\n%s--- snapshotting ---\n%s", id, seq, snap)
			}
			want, err := os.ReadFile(filepath.Join("testdata", id+"_tiny.golden"))
			if err != nil {
				t.Fatalf("missing golden file: %v", err)
			}
			if seq != string(want) {
				t.Errorf("%s sequential table drifted from golden snapshot\n--- want ---\n%s\n--- got ---\n%s", id, want, seq)
			}
		})
	}
}
