package trace

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/csalt-sim/csalt/internal/mem"
)

func TestKindString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" {
		t.Errorf("Kind strings = %q, %q", Load, Store)
	}
}

func TestRecordInstructions(t *testing.T) {
	r := Record{NonMem: 9}
	if got := r.Instructions(); got != 10 {
		t.Errorf("Instructions = %d, want 10", got)
	}
}

func TestSliceSource(t *testing.T) {
	recs := []Record{{Addr: 1}, {Addr: 2}}
	s := NewSliceSource(recs)
	var got []mem.VAddr
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, r.Addr)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("SliceSource produced %v", got)
	}
	s.Reset()
	if r, ok := s.Next(); !ok || r.Addr != 1 {
		t.Error("Reset did not rewind")
	}
}

func TestLoopSource(t *testing.T) {
	l := NewLoopSource([]Record{{Addr: 7}, {Addr: 8}})
	want := []mem.VAddr{7, 8, 7, 8, 7}
	for i, w := range want {
		r, ok := l.Next()
		if !ok || r.Addr != w {
			t.Fatalf("record %d = %v/%v, want %v", i, r.Addr, ok, w)
		}
	}
}

func TestLoopSourceEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewLoopSource(nil)
}

func TestTake(t *testing.T) {
	s := NewSliceSource([]Record{{Addr: 1}, {Addr: 2}, {Addr: 3}})
	got := Take(s, 2)
	if len(got) != 2 || got[1].Addr != 2 {
		t.Errorf("Take(2) = %v", got)
	}
	got = Take(s, 10) // only one record remains
	if len(got) != 1 || got[0].Addr != 3 {
		t.Errorf("Take past end = %v", got)
	}
}

func roundTrip(t *testing.T, recs []Record) []Record {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got []Record
	for {
		r, ok := rd.Next()
		if !ok {
			break
		}
		got = append(got, r)
	}
	if rd.Err() != nil {
		t.Fatalf("reader error: %v", rd.Err())
	}
	return got
}

func TestBinaryRoundTrip(t *testing.T) {
	recs := []Record{
		{Kind: Load, Addr: 0x7f0000001000, ASID: 1, NonMem: 3},
		{Kind: Store, Addr: 0x7f0000000040, ASID: 2, NonMem: 0},
		{Kind: Load, Addr: 0xffffffffffff, ASID: 65535, NonMem: 1 << 20},
	}
	got := roundTrip(t, recs)
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := make([]Record, int(n))
		for i := range recs {
			recs[i] = Record{
				Kind:   Kind(rng.Intn(2)),
				Addr:   mem.VAddr(rng.Uint64() >> 8),
				ASID:   mem.ASID(rng.Intn(1 << 16)),
				NonMem: uint32(rng.Intn(1 << 16)),
			}
		}
		got := roundTrip(t, recs)
		if len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestReaderRejectsBadHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("XXXX\x01"))); err == nil {
		t.Error("expected bad-magic error")
	}
	if _, err := NewReader(bytes.NewReader([]byte("CSTR\x63"))); err == nil {
		t.Error("expected bad-version error")
	}
	if _, err := NewReader(bytes.NewReader([]byte("CS"))); err == nil {
		t.Error("expected truncated-header error")
	}
}

func TestReaderTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Record{Addr: 100}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-1]
	rd, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rd.Next(); ok {
		t.Error("expected Next to fail on truncated record")
	}
	if rd.Err() == nil {
		t.Error("expected non-nil Err on truncated record")
	}
}

func TestReaderRejectsBadKind(t *testing.T) {
	body := append([]byte("CSTR\x01"), 0x07) // kind byte 7 is invalid
	rd, err := NewReader(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rd.Next(); ok {
		t.Error("expected Next to reject bad kind")
	}
	if rd.Err() == nil {
		t.Error("expected non-nil Err for bad kind")
	}
}
