package tlb

import (
	"testing"
	"testing/quick"

	"github.com/csalt-sim/csalt/internal/mem"
)

func l1Config() Config { return Config{Name: "l1", Entries: 64, Ways: 4, Latency: 9} }

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Entries: 0, Ways: 4},
		{Entries: 64, Ways: 0},
		{Entries: 65, Ways: 4}, // not divisible
		{Entries: 96, Ways: 4}, // 24 sets, not power of two
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := New(l1Config()); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestLookupInsert(t *testing.T) {
	tb := MustNew(l1Config())
	v := mem.VAddr(0x7f0000123456)
	if _, _, ok := tb.Lookup(v, 1); ok {
		t.Fatal("cold lookup hit")
	}
	tb.Insert(v, 1, 0x5000, mem.Page4K)
	frame, size, ok := tb.Lookup(v+0x10, 1) // same page, different offset
	if !ok || frame != 0x5000 || size != mem.Page4K {
		t.Fatalf("Lookup = %#x,%v,%v", frame, size, ok)
	}
	if tb.Accesses.Hits.Value() != 1 || tb.Accesses.Misses.Value() != 1 {
		t.Errorf("hit/miss = %d/%d", tb.Accesses.Hits.Value(), tb.Accesses.Misses.Value())
	}
}

func TestASIDTagging(t *testing.T) {
	tb := MustNew(l1Config())
	v := mem.VAddr(0x1000)
	tb.Insert(v, 1, 0xA000, mem.Page4K)
	tb.Insert(v, 2, 0xB000, mem.Page4K)
	f1, _, ok1 := tb.Lookup(v, 1)
	f2, _, ok2 := tb.Lookup(v, 2)
	if !ok1 || !ok2 || f1 != 0xA000 || f2 != 0xB000 {
		t.Errorf("ASID isolation broken: %#x/%v %#x/%v", f1, ok1, f2, ok2)
	}
	if _, _, ok := tb.Lookup(v, 3); ok {
		t.Error("unknown ASID hit")
	}
}

func Test2MPages(t *testing.T) {
	tb := MustNew(l1Config())
	v := mem.VAddr(0x40000000)
	tb.Insert(v, 1, 0x200000, mem.Page2M)
	// Any address in the 2MB page hits.
	frame, size, ok := tb.Lookup(v+0x123456, 1)
	if !ok || frame != 0x200000 || size != mem.Page2M {
		t.Fatalf("2M lookup = %#x,%v,%v", frame, size, ok)
	}
}

func TestLRUEvictionWithinSet(t *testing.T) {
	// 1 set x 4 ways.
	tb := MustNew(Config{Name: "tiny", Entries: 4, Ways: 4})
	for i := 0; i < 4; i++ {
		tb.Insert(mem.VAddr(i)<<mem.PageShift4K, 1, mem.PAddr(i)<<mem.PageShift4K, mem.Page4K)
	}
	// Touch page 0 so page 1 is LRU, then insert page 4.
	tb.Lookup(0, 1)
	tb.Insert(4<<mem.PageShift4K, 1, 0x4000, mem.Page4K)
	if _, _, ok := tb.Lookup(0, 1); !ok {
		t.Error("recently used entry evicted")
	}
	if _, _, ok := tb.Lookup(1<<mem.PageShift4K, 1); ok {
		t.Error("LRU entry survived")
	}
}

func TestInsertRefreshesExisting(t *testing.T) {
	tb := MustNew(Config{Name: "tiny", Entries: 4, Ways: 4})
	v := mem.VAddr(0x9000)
	tb.Insert(v, 1, 0x1000, mem.Page4K)
	tb.Insert(v, 1, 0x2000, mem.Page4K) // updated frame, no duplicate
	frame, _, ok := tb.Lookup(v, 1)
	if !ok || frame != 0x2000 {
		t.Fatalf("refresh lookup = %#x,%v", frame, ok)
	}
	if n := tb.fs.nBySize[mem.Page4K]; n != 1 {
		t.Errorf("occupancy = %d, want 1", n)
	}
}

func TestAccessors(t *testing.T) {
	tb := MustNew(l1Config())
	if tb.Name() != "l1" || tb.Latency() != 9 || tb.Entries() != 64 {
		t.Error("accessors wrong")
	}
}

// TestTLBNeverWrongTranslation: whatever the insert pattern, a hit always
// returns the frame most recently inserted for that (asid, page).
func TestTLBNeverWrongTranslation(t *testing.T) {
	f := func(ops []uint16) bool {
		tb := MustNew(Config{Name: "p", Entries: 16, Ways: 4})
		truth := map[[2]uint64]mem.PAddr{}
		for _, op := range ops {
			page := uint64(op) % 64
			asid := mem.ASID(op>>8) % 4
			v := mem.VAddr(page << mem.PageShift4K)
			if op&0x8000 != 0 {
				frame := mem.PAddr(uint64(op)+1) << mem.PageShift4K
				tb.Insert(v, asid, frame, mem.Page4K)
				truth[[2]uint64{page, uint64(asid)}] = frame
			} else if frame, _, ok := tb.Lookup(v, asid); ok {
				if want := truth[[2]uint64{page, uint64(asid)}]; frame != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
