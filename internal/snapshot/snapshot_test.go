package snapshot

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/csalt-sim/csalt/internal/faultinject"
)

// sampleState builds a small but representative State exercising every
// branch of the payload tree: optional pointers present and absent,
// nested slices, packed words, floats.
func sampleState(seed uint64) *State {
	r := seed*0x9E3779B97F4A7C15 + 1
	next := func() uint64 {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return r
	}
	pos := 42
	return &State{
		Warmed:        seed%2 == 0,
		Snaps:         []CoreSnap{{Instructions: next(), Cycles: next()}},
		SinceSample:   next() % 1000,
		SampleSeq:     next() % 10,
		SampleBase:    SampleBase{Instructions: next(), L2TLBMisses: next()},
		Faults:        []Fault{{ASID: uint16(next() % 8), Addr: next()}, {ASID: 1, Addr: next()}},
		VMs:           []VMState{{ASID: 0, TouchedPages: next() % 4096}},
		HostAllocated: next() % 1 << 20,
		Cores: []CoreState{{
			Cur: int(next() % 2), Cycle: next(), Outstanding: []uint64{next(), next()},
			Instructions: next(), MemRefs: next(),
			Sources: []SourceState{
				{Gen: &GenState{
					RNG:      RNG{State: next(), GeoMean: 1.5, GeoLog: -0.25},
					WinStart: next(), Visits: next(),
					Buf:  []Rec{{Kind: 1, Addr: next(), ASID: 2, NonMem: 3}},
					BufN: 1,
				}},
				{ReplayPos: &pos},
			},
		}},
		Mem: MemState{
			L1D: []CacheState{{
				Words:  []uint64{next(), next(), next()},
				Policy: PolicyState{Kind: "lru", Seq: []uint64{1, 2, 3}, Next: 4},
				ByType: [2]HitRate{{Hits: next() % 100, Misses: next() % 100}, {}},
			}},
			L2: []CacheState{{
				Words:    []uint64{next()},
				Policy:   PolicyState{Kind: "nru", Bits: []bool{true, false, true}},
				Profiler: &ProfilerState{Counters: [2][]uint64{{1, 2}, {3}}, ATDValid: [2][]bool{{true}, {false}}},
			}},
			L3:    CacheState{Words: []uint64{next()}, Policy: PolicyState{Kind: "lru"}},
			L2Ctl: []*ControllerState{{Accesses: next(), LastSDat: 0.125, History: []EpochSnap{{Epoch: 1, TLBFraction: 0.5}}}},
			L3DIP: &DIPState{PSel: -3, BIPCursor: next()},
			DDR: DRAMState{
				Banks:   []BankState{{OpenRow: next(), HasRow: true, BusyUntil: next()}},
				Latency: Mean{N: next() % 50, Sum: 123.5},
				QueueWait: Hist{
					Counts: []uint64{next() % 10, next() % 10}, Total: 7, Sum: 99,
				},
			},
			L1TLB: []TLBState{{
				KM: []uint64{next()}, Frames: []uint64{next()}, Seqs: []uint64{next()},
				NBySize: [2]int{3, 1}, Next: next(), Acc: HitRate{Hits: 5, Misses: 2},
			}},
			L2TLB: []TLBState{{KM: []uint64{next()}, Frames: []uint64{next()}, Seqs: []uint64{next()}}},
			POM:   &POMState{FW: []uint64{next(), next()}, NBySize: [2]int{8, 0}, Inserts: next()},
			GTSB:  []TSBState{{ASID: 0, Tags: []uint64{next()}, Frames: []uint64{next()}}},
			Walkers: []WalkerState{{
				GuestPSC: [3]PSCState{{Entries: []PSCEntry{{ASID: 1, Key: next(), Frame: next(), Valid: true}}, Next: 9}},
				Walks:    next(), WalkCycles: Mean{N: 3, Sum: 1200},
				WalkCyclesHist: Hist{Counts: []uint64{1, 0, 2}, Total: 3, Sum: 640},
			}},
			Stats: MemStats{L2TLBMisses: next(), TranslateAfterL2Miss: Mean{N: 4, Sum: 2048}},
		},
	}
}

func sampleMeta(key string) Meta {
	return Meta{Schema: Schema, Version: Version, Key: key, Seq: 3, Steps: 98304}
}

// TestWriteReadRoundTrip: the full file path — atomic write, verified
// read, and byte-stable re-encode.
func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := PathFor(dir, "mix/org/scheme-roundtrip")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	meta, st := sampleMeta("mix/org/scheme-roundtrip"), sampleState(7)
	if err := Write(path, meta, st, nil); err != nil {
		t.Fatalf("write: %v", err)
	}
	gotMeta, gotSt, err := Read(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if gotMeta != meta {
		t.Fatalf("meta mismatch: %+v vs %+v", gotMeta, meta)
	}
	want, err := EncodeToBytes(meta, st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EncodeToBytes(gotMeta, gotSt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("decode→re-encode changed bytes")
	}
}

// TestWriteReplacesAtomically: a second write fully replaces the first
// and leaves no temp litter behind.
func TestWriteReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := PathFor(dir, "k")
	if err := Write(path, sampleMeta("k"), sampleState(1), nil); err != nil {
		t.Fatal(err)
	}
	meta2 := sampleMeta("k")
	meta2.Seq = 9
	if err := Write(path, meta2, sampleState(2), nil); err != nil {
		t.Fatal(err)
	}
	gotMeta, _, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta.Seq != 9 {
		t.Fatalf("read seq %d after replace, want 9", gotMeta.Seq)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

// TestMissingFileIsNotAnError: no snapshot means a from-zero start, not
// a failure.
func TestMissingFileIsNotAnError(t *testing.T) {
	meta, st, err := Read(filepath.Join(t.TempDir(), "absent.snap"))
	if err != nil || st != nil || meta != (Meta{}) {
		t.Fatalf("missing file: meta=%+v st=%v err=%v, want zero/nil/nil", meta, st, err)
	}
}

// TestTornTailDetected: a file truncated mid-write (as a crash without
// the atomic rename protocol would leave) must fail with ErrCorrupt, and
// Quarantine must move it aside so the next Read sees no snapshot.
func TestTornTailDetected(t *testing.T) {
	dir := t.TempDir()
	path := PathFor(dir, "torn")
	if err := Write(path, sampleMeta("torn"), sampleState(3), nil); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Keep 1/4, 1/2, and everything but the tail of the checksum trailer
	// (a bare missing final newline is harmless and tolerated).
	for _, n := range []int{len(blob) / 4, len(blob) / 2, len(blob) - 3} {
		if err := os.WriteFile(path, blob[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Read(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("torn tail (%d of %d bytes): err=%v, want ErrCorrupt", n, len(blob), err)
		}
	}
	qpath, err := Quarantine(path)
	if err != nil {
		t.Fatalf("quarantine: %v", err)
	}
	if _, err := os.Stat(qpath); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if _, st, err := Read(path); err != nil || st != nil {
		t.Fatalf("after quarantine: st=%v err=%v, want clean no-snapshot", st, err)
	}
}

// TestBitFlipDetected: flipping any single byte of the file must fail
// the checksum (or the parse) — never silently restore damaged state.
func TestBitFlipDetected(t *testing.T) {
	dir := t.TempDir()
	path := PathFor(dir, "flip")
	if err := Write(path, sampleMeta("flip"), sampleState(4), nil); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A spread of offsets across header, payload and trailer.
	for _, off := range []int{0, 10, len(blob) / 3, len(blob) / 2, 2 * len(blob) / 3, len(blob) - 5} {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x40
		_, _, err := Decode(bytes.NewReader(mut))
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
			t.Fatalf("bit flip at %d: err=%v, want ErrCorrupt (or ErrVersion for header damage)", off, err)
		}
	}
}

// TestVersionSkewRejected: a structurally intact snapshot from another
// schema version — the version-1 layout that carried per-entry POM structs,
// or a future one — must fail with ErrVersion, distinct from corruption.
func TestVersionSkewRejected(t *testing.T) {
	for _, v := range []int{1, Version + 1} {
		meta := sampleMeta("skew")
		meta.Version = v
		blob, err := EncodeToBytes(meta, sampleState(5))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := Decode(bytes.NewReader(blob)); !errors.Is(err, ErrVersion) {
			t.Fatalf("version %d: err=%v, want ErrVersion", v, err)
		}
	}
	meta := sampleMeta("skew")
	meta.Schema = "some-other-format"
	blob, err := EncodeToBytes(meta, sampleState(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(bytes.NewReader(blob)); !errors.Is(err, ErrVersion) {
		t.Fatalf("schema skew: err=%v, want ErrVersion", err)
	}
}

// TestWriteChaosSeam: the snapshot.write fault point fails the write
// before any byte lands, leaving a previous snapshot untouched.
func TestWriteChaosSeam(t *testing.T) {
	dir := t.TempDir()
	path := PathFor(dir, "chaos")
	if err := Write(path, sampleMeta("chaos"), sampleState(6), nil); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	plane := faultinject.New(faultinject.Schedule{{Point: faultinject.SnapshotWrite, Count: 1}})
	meta2 := sampleMeta("chaos")
	meta2.Seq = 99
	if err := Write(path, meta2, sampleState(7), plane); err == nil {
		t.Fatal("injected write failure did not surface")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed write modified the live snapshot")
	}
	if plane.Fired() != 1 {
		t.Fatalf("plane fired %d times, want 1", plane.Fired())
	}
}

// TestScanDir counts live and quarantined snapshots without reading
// contents; a missing directory is zero, not an error.
func TestScanDir(t *testing.T) {
	info, err := ScanDir(filepath.Join(t.TempDir(), "nope"))
	if err != nil || info.Snapshots != 0 || info.Quarantined != 0 {
		t.Fatalf("missing dir: %+v err=%v", info, err)
	}
	dir := t.TempDir()
	for _, k := range []string{"a", "b"} {
		if err := Write(PathFor(dir, k), sampleMeta(k), sampleState(8), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Quarantine(PathFor(dir, "b")); err != nil {
		t.Fatal(err)
	}
	info, err = ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Snapshots != 1 || info.Quarantined != 1 {
		t.Fatalf("scan = %+v, want 1 live + 1 quarantined", info)
	}
	if info.Newest.IsZero() {
		t.Fatal("scan lost the newest-snapshot mtime")
	}
}

// TestRemoveMissingIsFine: clearing an already-absent snapshot is a
// no-op, matching the completed-job cleanup path.
func TestRemoveMissingIsFine(t *testing.T) {
	if err := Remove(filepath.Join(t.TempDir(), "gone.snap")); err != nil {
		t.Fatal(err)
	}
}

// FuzzSnapshotRoundTrip: for any seeded State, encode→decode→re-encode
// must reproduce the exact bytes (no map ordering, float formatting or
// optional-field wobble), and damage to the bytes must never decode
// silently.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(uint64(0), "k")
	f.Add(uint64(1), "fig3/gups/pom/csalt-cd")
	f.Add(uint64(0xDEADBEEF), "")
	f.Fuzz(func(t *testing.T, seed uint64, key string) {
		if strings.ContainsAny(key, "\n\r") || !utf8.ValidString(key) {
			// Real keys are checkpoint hashes: ASCII, one line.
			t.Skip("not a representable snapshot key")
		}
		meta := sampleMeta(key)
		st := sampleState(seed)
		blob, err := EncodeToBytes(meta, st)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		gotMeta, gotSt, err := Decode(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("decode of fresh encode: %v", err)
		}
		again, err := EncodeToBytes(gotMeta, gotSt)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(blob, again) {
			t.Fatal("encode→decode→re-encode changed bytes")
		}
		// Damage must be detected: flip one byte chosen by the seed.
		mut := append([]byte(nil), blob...)
		mut[seed%uint64(len(mut))] ^= 0x01
		if _, _, err := Decode(bytes.NewReader(mut)); err == nil {
			t.Fatal("single-byte damage decoded cleanly")
		}
	})
}
