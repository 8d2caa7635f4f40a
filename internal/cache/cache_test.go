package cache

import (
	"testing"
	"testing/quick"

	"github.com/csalt-sim/csalt/internal/mem"
)

// smallCache returns a 4 KB, 4-way LRU cache (16 sets) for unit tests.
func smallCache(t *testing.T) *Cache {
	t.Helper()
	c, err := New(Config{Name: "t", SizeKB: 4, Ways: 4, Latency: 10, Policy: PolicyLRU})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// addrFor builds an address that maps to the given set with the given tag
// for a cache with 16 sets.
func addrFor(set, tag int) mem.PAddr {
	return mem.PAddr((uint64(tag)<<4 | uint64(set)) << mem.LineShift)
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{Name: "zero ways", SizeKB: 4, Ways: 0},
		{Name: "zero size", SizeKB: 0, Ways: 4},
		{Name: "indivisible", SizeKB: 4, Ways: 7},
		{Name: "nonpow2 sets", SizeKB: 12, Ways: 4},
		{Name: "btplru odd ways", SizeKB: 12, Ways: 3, Policy: PolicyBTPLRU},
	}
	for _, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: expected error", cfg.Name)
		}
	}
}

func TestGeometry(t *testing.T) {
	c := smallCache(t)
	if c.Sets() != 16 || c.Ways() != 4 {
		t.Fatalf("geometry = %dx%d, want 16x4", c.Sets(), c.Ways())
	}
	if c.Latency() != 10 {
		t.Errorf("Latency = %d", c.Latency())
	}
	if c.Name() != "t" {
		t.Errorf("Name = %q", c.Name())
	}
}

func TestMissThenHit(t *testing.T) {
	c := smallCache(t)
	a := addrFor(3, 7)
	if c.Lookup(a, Data, false) {
		t.Fatal("cold lookup hit")
	}
	c.Fill(a, Data, false)
	if !c.Lookup(a, Data, false) {
		t.Fatal("lookup after fill missed")
	}
	// Another address in the same line hits too.
	if !c.Lookup(a+8, Data, false) {
		t.Fatal("same-line lookup missed")
	}
	if got := c.Stats.ByType[Data].Hits.Value(); got != 2 {
		t.Errorf("hits = %d, want 2", got)
	}
	if got := c.Stats.ByType[Data].Misses.Value(); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache(t)
	// Fill set 0 with tags 0..3, touch tag 0, then insert tag 4: the LRU
	// victim must be tag 1.
	for tag := 0; tag < 4; tag++ {
		c.Fill(addrFor(0, tag), Data, false)
	}
	c.Lookup(addrFor(0, 0), Data, false)
	c.Fill(addrFor(0, 4), Data, false)
	if !c.Peek(addrFor(0, 0)) {
		t.Error("recently-touched tag 0 was evicted")
	}
	if c.Peek(addrFor(0, 1)) {
		t.Error("LRU tag 1 survived")
	}
}

func TestWriteback(t *testing.T) {
	c := smallCache(t)
	dirtyAddr := addrFor(0, 0)
	c.Fill(dirtyAddr, Data, true)
	for tag := 1; tag < 4; tag++ {
		c.Fill(addrFor(0, tag), Data, false)
	}
	wb := c.Fill(addrFor(0, 4), Data, false)
	if !wb.Valid {
		t.Fatal("expected writeback of dirty LRU line")
	}
	if mem.LineAddr(wb.Addr) != dirtyAddr {
		t.Errorf("writeback addr = %#x, want %#x", wb.Addr, dirtyAddr)
	}
	if wb.Typ != Data {
		t.Errorf("writeback type = %v", wb.Typ)
	}
	if c.Stats.Writebacks.Value() != 1 {
		t.Errorf("writeback count = %d", c.Stats.Writebacks.Value())
	}
}

func TestWriteMarksDirty(t *testing.T) {
	c := smallCache(t)
	a := addrFor(2, 0)
	c.Fill(a, Data, false)
	c.Lookup(a, Data, true) // store hit dirties the line
	for tag := 1; tag < 5; tag++ {
		c.Fill(addrFor(2, tag), Data, false)
	}
	// a was LRU after the stores to other tags; its eviction must write back.
	if c.Stats.Writebacks.Value() == 0 {
		t.Error("store-dirtied line evicted without writeback")
	}
}

func TestFillDuplicateRefreshes(t *testing.T) {
	c := smallCache(t)
	a := addrFor(1, 9)
	c.Fill(a, Data, false)
	c.Fill(a, Data, true) // duplicate fill must not create a second copy
	n := 0
	for tag := 0; tag < 16; tag++ {
		if c.Peek(addrFor(1, tag)) {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d tags resident after duplicate fill, want 1", n)
	}
	if got := c.Stats.Insertions[Data].Value(); got != 1 {
		t.Errorf("insertions = %d, want 1", got)
	}
}

func TestPartitionSeparatesVictims(t *testing.T) {
	c := smallCache(t)
	c.SetPartition(2) // ways 0-1 data, ways 2-3 TLB
	// Fill 2 data lines and 2 TLB lines; they exactly fill the set.
	c.Fill(addrFor(0, 0), Data, false)
	c.Fill(addrFor(0, 1), Data, false)
	c.Fill(addrFor(0, 2), Translation, false)
	c.Fill(addrFor(0, 3), Translation, false)
	// A new data fill must evict a data line, never a TLB line.
	c.Fill(addrFor(0, 4), Data, false)
	if !c.Peek(addrFor(0, 2)) || !c.Peek(addrFor(0, 3)) {
		t.Error("data fill evicted a TLB line despite partition")
	}
	// And vice versa.
	c.Fill(addrFor(0, 5), Translation, false)
	if !c.Peek(addrFor(0, 4)) {
		t.Error("TLB fill evicted a data line despite partition")
	}
}

func TestPartitionClamping(t *testing.T) {
	c := smallCache(t)
	c.SetPartition(0)
	if got := c.Partition(); got != 1 {
		t.Errorf("partition clamped to %d, want 1", got)
	}
	c.SetPartition(100)
	if got := c.Partition(); got != 3 {
		t.Errorf("partition clamped to %d, want ways-1=3", got)
	}
	c.SetPartition(Unpartitioned)
	if got := c.Partition(); got != Unpartitioned {
		t.Errorf("partition = %d, want Unpartitioned", got)
	}
}

func TestLookupScansAllWaysAcrossPartition(t *testing.T) {
	c := smallCache(t)
	// Insert a TLB line while unpartitioned; it may sit anywhere.
	a := addrFor(0, 11)
	c.Fill(a, Translation, false)
	// Shrink the TLB side; the stale line must still be findable (§3.1:
	// all K ways are scanned on lookup).
	c.SetPartition(3)
	if !c.Lookup(a, Translation, false) {
		t.Error("resident line not found after repartition")
	}
}

func TestTypeInWays(t *testing.T) {
	c := smallCache(t)
	c.SetPartition(2)
	c.Fill(addrFor(0, 0), Data, false)
	c.Fill(addrFor(0, 1), Translation, false)
	dd, dt, td, tt := c.TypeInWays()
	if dd != 1 || tt != 1 || dt != 0 || td != 0 {
		t.Errorf("TypeInWays = %d,%d,%d,%d; want 1,0,0,1", dd, dt, td, tt)
	}
}

func TestOccupancy(t *testing.T) {
	c := smallCache(t)
	c.Fill(addrFor(0, 0), Data, false)
	c.Fill(addrFor(1, 0), Translation, false)
	c.Fill(addrFor(2, 0), Translation, false)
	tlb, valid := c.Occupancy()
	if tlb != 2 || valid != 3 {
		t.Errorf("Occupancy = %d/%d, want 2/3", tlb, valid)
	}
	c.Flush()
	if _, valid := c.Occupancy(); valid != 0 {
		t.Error("Flush left valid lines")
	}
}

func TestFillAtLRUInsertsAsVictim(t *testing.T) {
	c := smallCache(t)
	for tag := 0; tag < 4; tag++ {
		c.Fill(addrFor(0, tag), Data, false)
	}
	// Insert tag 5 at LRU position (BIP-style): the very next fill should
	// evict it rather than older lines.
	c.FillAtMissed(addrFor(0, 5), Data, false, false)
	c.Fill(addrFor(0, 6), Data, false)
	if c.Peek(addrFor(0, 5)) {
		t.Error("LRU-inserted line survived the next eviction")
	}
}

func TestStatsAccumulate(t *testing.T) {
	c := smallCache(t)
	c.Lookup(addrFor(0, 0), Data, false)
	c.Fill(addrFor(0, 0), Data, false)
	c.Lookup(addrFor(0, 0), Data, false)
	c.Lookup(addrFor(1, 0), Translation, false)
	c.Fill(addrFor(1, 0), Translation, false)
	if got := c.Stats.Accesses(); got != 3 {
		t.Errorf("Accesses = %d, want 3", got)
	}
	if got := c.Stats.Misses(); got != 2 {
		t.Errorf("Misses = %d, want 2", got)
	}
}

// TestNoDuplicateTags is a property test: whatever interleaving of lookups
// and fills occurs, a tag is never resident twice in a set.
func TestNoDuplicateTags(t *testing.T) {
	f := func(ops []uint16) bool {
		c := MustNew(Config{Name: "p", SizeKB: 4, Ways: 4, Policy: PolicyLRU})
		c.SetPartition(2)
		for _, op := range ops {
			set := int(op) & 15
			tag := int(op>>4) & 7
			typ := Data
			if op&0x8000 != 0 {
				typ = Translation
			}
			a := addrFor(set, tag)
			if !c.Lookup(a, typ, op&0x4000 != 0) {
				c.Fill(a, typ, false)
			}
		}
		// Scan every set for duplicate resident tags via Peek on distinct
		// addresses: count residency by brute force.
		for set := 0; set < 16; set++ {
			for tag := 0; tag < 8; tag++ {
				cnt := 0
				for w := 0; w < c.ways; w++ {
					wd := c.words[set*c.ways+w]
					if wd&wordValid != 0 && wd>>wordTagSh == uint64(tag) {
						cnt++
					}
				}
				if cnt > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPartitionInvariantUnderTraffic: once a partition is set and traffic
// flows, the number of TLB lines inside data ways can only shrink (stale
// lines drain; no new TLB line is ever inserted into data ways).
func TestPartitionInvariantUnderTraffic(t *testing.T) {
	c := MustNew(Config{Name: "p", SizeKB: 4, Ways: 4, Policy: PolicyLRU})
	// Let TLB lines spread everywhere first.
	for i := 0; i < 200; i++ {
		c.Fill(addrFor(i%16, i%13), Translation, false)
	}
	c.SetPartition(3)
	_, _, stale, _ := c.TypeInWays()
	for i := 0; i < 2000; i++ {
		aD := addrFor(i%16, (i*7)%11)
		if !c.Lookup(aD, Data, false) {
			c.Fill(aD, Data, false)
		}
		aT := addrFor((i+3)%16, 12+(i%4))
		if !c.Lookup(aT, Translation, false) {
			c.Fill(aT, Translation, false)
		}
		_, _, cur, _ := c.TypeInWays()
		if cur > stale {
			t.Fatalf("TLB lines in data ways grew from %d to %d at step %d", stale, cur, i)
		}
		stale = cur
	}
}
