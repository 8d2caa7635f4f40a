package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/csalt-sim/csalt/internal/faultinject"
)

// sampleState fills every field of a State from seed: each scalar, each
// pointer (nil or set) and each slice (nil, empty or a few elements, with
// packed words often zero so both run kinds occur). Every field is
// non-zero for some seed, so a field the codec dropped on both sides shows
// up as a difference after a round trip.
func sampleState(seed uint64) *State {
	r := seed*0x9E3779B97F4A7C15 + 1
	next := func() uint64 {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return r
	}
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(next()&1 == 1)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			bits := uint64(v.Type().Bits())
			v.SetInt(int64(next()) >> (64 - bits) >> (next() % bits))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			if next()%4 == 0 {
				return
			}
			bits := uint64(v.Type().Bits())
			v.SetUint(next() >> (64 - bits) >> (next() % bits))
		case reflect.Float64:
			v.SetFloat(float64(int64(next())) / 1024)
		case reflect.String:
			v.SetString(strings.Repeat("ab", int(next()%3)))
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Pointer:
			if next()%3 != 0 {
				p := reflect.New(v.Type().Elem())
				fill(p.Elem())
				v.Set(p)
			}
		case reflect.Slice:
			switch k := next() % 5; k {
			case 0: // nil
			case 1:
				v.Set(reflect.MakeSlice(v.Type(), 0, 0))
			default:
				s := reflect.MakeSlice(v.Type(), int(k)+int(next()%3), int(k)+3)
				for i := 0; i < s.Len(); i++ {
					fill(s.Index(i))
				}
				v.Set(s)
			}
		}
	}
	st := new(State)
	fill(reflect.ValueOf(st).Elem())
	return st
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
	// Nothing at all, the header alone, 1/4, 1/2, and everything but the
	// tail of the checksum trailer.
	head := bytes.IndexByte(blob, '\n') + 1
	for _, n := range []int{0, head, len(blob) / 4, len(blob) / 2, len(blob) - 3} {
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
// the version-2 JSON payload, or a future one — must fail with ErrVersion,
// distinct from corruption.
func TestVersionSkewRejected(t *testing.T) {
	for _, v := range []int{1, 2, Version + 1} {
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

// jsonLineSnapshot builds a file in the three-JSON-line layout of format
// versions 1 and 2: header, JSON payload, and a trailer holding the hex
// sha256 of the first two lines with their newlines.
func jsonLineSnapshot(t *testing.T, version int) []byte {
	t.Helper()
	meta := sampleMeta("legacy")
	meta.Version = version
	head, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"warmed":true,"snaps":null,"mem":{"pom":{"fw":[0,0,7,0]}}}`)
	data := append(append(append(head, '\n'), body...), '\n')
	sum := sha256.Sum256(data)
	return append(data, `{"sha256":"`+hex.EncodeToString(sum[:])+`"}`+"\n"...)
}

// TestJSONLineSnapshotIsVersionSkew: an intact version-2 file — three JSON
// lines — is version skew, not corruption, so it falls back to a from-zero
// run like any other version mismatch; the same file damaged is corrupt.
func TestJSONLineSnapshotIsVersionSkew(t *testing.T) {
	for _, v := range []int{1, 2} {
		blob := jsonLineSnapshot(t, v)
		_, st, err := Decode(bytes.NewReader(blob))
		if !errors.Is(err, ErrVersion) || errors.Is(err, ErrCorrupt) || st != nil {
			t.Fatalf("v%d JSON-line file: st=%v err=%v, want ErrVersion only", v, st, err)
		}
		mut := append([]byte(nil), blob...)
		mut[len(mut)/2] ^= 0x01
		if _, _, err := Decode(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("damaged v%d JSON-line file: err=%v, want ErrCorrupt", v, err)
		}
	}
}

// frame wraps a raw payload in a valid header and checksum, so the payload
// parser itself is exercised rather than the checksum gate.
func frame(meta Meta, payload []byte) []byte {
	head, err := json.Marshal(meta)
	if err != nil {
		panic(err)
	}
	data := append(append(head, '\n'), payload...)
	sum := sha256.Sum256(data)
	return append(data, sum[:]...)
}

// probe is a small type covering every codec path, for hand-built
// payloads.
type probe struct {
	W []uint64
	B []bool
	S string
	I int8
	P *int
	E []Fault
}

// TestDecodeRejectsMalformedPayload: each malformed encoding wraps
// ErrCorrupt — lengths past the end or past the word limit, non-canonical
// forms, trailing bytes — and the valid one decodes to what was meant.
func TestDecodeRejectsMalformedPayload(t *testing.T) {
	c, err := compile(reflect.TypeOf(probe{}))
	if err != nil {
		t.Fatal(err)
	}
	decode := func(payload []byte) (probe, error) {
		var p probe
		err := decodeValue(c, payload, reflect.ValueOf(&p).Elem())
		return p, err
	}
	// W = [0 5 0 0 9], B = [true false true], S = "ok", I = -2, P = &3,
	// E = [{1 2}].
	valid := []byte{6, 1, 1, 5, 2, 1, 9, 4, 0x05, 2, 'o', 'k', 3, 1, 6, 2, 1, 2}
	p, err := decode(valid)
	three := 3
	want := probe{W: []uint64{0, 5, 0, 0, 9}, B: []bool{true, false, true}, S: "ok", I: -2, P: &three, E: []Fault{{ASID: 1, Addr: 2}}}
	if err != nil || !reflect.DeepEqual(p, want) {
		t.Fatalf("valid payload: %+v err=%v, want %+v", p, err, want)
	}
	e := encoder{}
	c.enc(&e, reflect.ValueOf(want))
	if !bytes.Equal(e.buf, valid) {
		t.Fatalf("encode = %v, want %v", e.buf, valid)
	}
	huge := func(n uint64) []byte {
		var b [10]byte
		return b[:putUvarint(b[:], n)]
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for name, payload := range map[string][]byte{
		"empty":                    {},
		"trailing byte":            append(append([]byte(nil), valid...), 0),
		"overlong uvarint":         {0x80, 0x00, 0, 0, 0, 0, 0},
		"uvarint past end":         {0x80},
		"words over the limit":     cat(huge(maxWords+2), []byte{0, 0}),
		"zero run past the slice":  {3, 3, 0, 0, 0, 0, 0, 0},
		"literal run past slice":   {3, 0, 3, 1, 1, 1, 0, 0, 0, 0, 0},
		"literal run past the end": {6, 0, 5, 1},
		"zero literal word":        {3, 0, 2, 1, 0, 0, 0, 0, 0, 0},
		"empty literal run":        {3, 0, 0, 0, 0, 0, 0, 0},
		"empty zero run":           {4, 0, 1, 7, 0, 1, 7, 0, 0, 0, 0, 0},
		"bits past the end":        {0, 10, 0xFF},
		"bits padding set":         {0, 3, 0xFF, 0, 0, 0, 0},
		"string past the end":      {0, 0, 9, 'a', 0, 0, 0},
		"int8 overflow":            {0, 0, 0, 0x80, 0x04, 0, 0},
		"flag byte 2":              {0, 0, 0, 0, 2, 0},
		"elements past the end":    {0, 0, 0, 0, 0, 50, 1, 1},
		"slice header huge":        cat([]byte{0, 0, 0, 0, 0}, huge(1<<62)),
	} {
		if _, err := decode(payload); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err=%v, want ErrCorrupt", name, err)
		}
	}
	// The same through the file frame: trailing bytes after a valid State
	// payload are rejected even though the checksum holds.
	blob, err := EncodeToBytes(sampleMeta("trail"), sampleState(1))
	if err != nil {
		t.Fatal(err)
	}
	head := bytes.IndexByte(blob, '\n') + 1
	payload := append(blob[head:len(blob)-sha256.Size:len(blob)-sha256.Size], 0)
	if _, _, err := Decode(bytes.NewReader(frame(sampleMeta("trail"), payload))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing payload byte: err=%v, want ErrCorrupt", err)
	}
}

// TestPackedWordsRoundTrip: zero runs shorter than, as long as and longer
// than the encoder's eight-word skip, at the start, middle and end of a
// slice, round-trip exactly, and a long empty stretch costs two bytes.
func TestPackedWordsRoundTrip(t *testing.T) {
	c, err := compile(reflect.TypeOf([]uint64(nil)))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 7, 8, 9, 16, 17, 100} {
		for _, lits := range [][]int{nil, {0}, {n - 1}, {3, 12, 13, 50}, {0, 1, 2, 3, 4, 5, 6, 7, 8}} {
			w := make([]uint64, n)
			for _, i := range lits {
				if i >= 0 && i < n {
					w[i] = uint64(i)<<40 | 1
				}
			}
			e := encoder{}
			c.enc(&e, reflect.ValueOf(w))
			var got []uint64
			if err := decodeValue(c, e.buf, reflect.ValueOf(&got).Elem()); err != nil || !reflect.DeepEqual(got, w) {
				t.Fatalf("n=%d literals at %v: got %v err=%v", n, lits, got, err)
			}
		}
	}
	w := make([]uint64, 100)
	w[50] = 7
	e := encoder{}
	c.enc(&e, reflect.ValueOf(w))
	if want := []byte{101, 50, 1, 7, 49, 0}; !bytes.Equal(e.buf, want) {
		t.Fatalf("encoding = %v, want %v", e.buf, want)
	}
}

// putUvarint is binary.PutUvarint, spelled out so hand-built payloads in
// these tests do not lean on the encoder under test.
func putUvarint(b []byte, x uint64) int {
	i := 0
	for x >= 0x80 {
		b[i] = byte(x) | 0x80
		x >>= 7
		i++
	}
	b[i] = byte(x)
	return i + 1
}

// TestStateKindsEncodable: every field in the State tree has a kind the
// codec encodes, so none can be dropped; a map field (the negative
// control) is refused at compile time.
func TestStateKindsEncodable(t *testing.T) {
	if _, err := compile(reflect.TypeOf(State{})); err != nil {
		t.Fatalf("State is not encodable: %v", err)
	}
	for _, bad := range []any{
		struct{ M map[string]uint64 }{},
		struct{ X []any }{},
		struct{ F float32 }{},
		struct{ p int }{},
		struct{ E []struct{} }{},
	} {
		if _, err := compile(reflect.TypeOf(bad)); err == nil {
			t.Errorf("%T compiled, want an error", bad)
		}
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

// TestRemoveClearsTornTempFiles: a Write killed between CreateTemp and
// its rename leaves <path>.tmp-*; Remove on completion deletes those with
// the snapshot, and leaves other slots' files alone.
func TestRemoveClearsTornTempFiles(t *testing.T) {
	dir := t.TempDir()
	path := PathFor(dir, "a")
	if err := Write(path, sampleMeta("a"), sampleState(1), nil); err != nil {
		t.Fatal(err)
	}
	keep := []string{"b.snap", "b.snap.tmp-1", "a.snap.corrupt"}
	for _, name := range append([]string{"a.snap.tmp-123", "a.snap.tmp-456"}, keep...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := Remove(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	sort.Strings(keep)
	if !reflect.DeepEqual(got, keep) {
		t.Fatalf("after Remove: %v, want %v", got, keep)
	}
}

// FuzzSnapshotRoundTrip: for any seeded State, encode→decode must give
// back an equal State and re-encode to the exact bytes (a field the codec
// dropped on both sides would keep the bytes stable but fail the
// equality), and damage to the bytes must never decode silently.
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
		if gotMeta != meta || !reflect.DeepEqual(gotSt, st) {
			t.Fatal("decode(encode(s)) != s")
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

// FuzzSnapshotDecode feeds arbitrary payloads, wrapped in a valid header
// and checksum, to the parser: it must never panic, every failure must
// wrap ErrCorrupt, and a payload that decodes must re-encode to the same
// bytes (the encoding is canonical).
func FuzzSnapshotDecode(f *testing.F) {
	for seed := uint64(0); seed < 3; seed++ {
		blob, err := EncodeToBytes(sampleMeta("fuzz"), sampleState(seed))
		if err != nil {
			f.Fatal(err)
		}
		head := bytes.IndexByte(blob, '\n') + 1
		f.Add(blob[head : len(blob)-sha256.Size])
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Fuzz(func(t *testing.T, payload []byte) {
		meta := sampleMeta("fuzz")
		blob := frame(meta, payload)
		gotMeta, st, err := Decode(bytes.NewReader(blob))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode failure does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		again, err := EncodeToBytes(gotMeta, st)
		if err != nil {
			t.Fatalf("re-encode of a decoded payload: %v", err)
		}
		if !bytes.Equal(again, blob) {
			t.Fatal("decoded payload re-encodes to different bytes")
		}
	})
}
