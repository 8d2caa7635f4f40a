package cache

// Packed-word layout for cache line metadata.
//
// A struct per line (tag, valid, dirty, typ) would pad to 16 bytes, so a
// 16-way L3 probe would walk four host cache lines. The cache instead packs
// the whole line state into one uint64:
//
//	word = tag<<3 | typ<<2 | dirty<<1 | valid
//
// Simulated physical addresses stay far below 2^61 (the host RAM, POM and
// TSB regions all sit under 2^42), so the tag — a line address shifted down
// by the set bits — always fits the 61 bits above the flags. A probe is one
// 64-bit load and a shift-compare per way; a 16-way set spans two host
// lines. Snapshots store these words verbatim.
//
// The hot paths also bypass the Policy interface when the cache runs true
// LRU (the common case): Touch/Fill collapse to one store and one add on
// the policy's sequence array, inlined at the call site instead of
// dispatched. NRU and BT-pLRU still go through the interface.
//
// A test-only model with one struct per line and the production Policy
// (model_test.go) is fuzzed against this layout: return values, writebacks,
// counters, occupancy scans and the saved state must agree.

const (
	wordValid = 1 << 0
	wordDirty = 1 << 1
	wordTyp   = 1 << 2
	wordTagSh = 3
)

// packWord builds the packed metadata word for a valid line.
func packWord(tag uint64, typ LineType, dirty bool) uint64 {
	w := tag<<wordTagSh | uint64(typ)<<2 | wordValid
	if dirty {
		w |= wordDirty
	}
	return w
}

func wordType(w uint64) LineType { return LineType((w >> 2) & 1) }

// wayOf returns the way holding tag in set, or -1 if it is absent.
func (c *Cache) wayOf(set int, tag uint64) int {
	base := set * c.ways
	for w, wd := range c.words[base : base+c.ways] {
		if wd&wordValid != 0 && wd>>wordTagSh == tag {
			return w
		}
	}
	return -1
}

// touch records a hit in the replacement state, devirtualized for true
// LRU. Identical to c.policy.Touch(set, way).
func (c *Cache) touch(set, way int) {
	if p := c.lru; p != nil {
		p.seq[set*p.ways+way] = p.next
		p.next++
		return
	}
	c.policy.Touch(set, way)
}

// victim picks an eviction victim, devirtualized for true LRU. Identical
// to c.policy.Victim(set, lo, hi).
func (c *Cache) victim(set, lo, hi int) int {
	if p := c.lru; p != nil {
		seq := p.seq[set*p.ways+lo : set*p.ways+hi]
		victim, best := 0, seq[0]
		for w := 1; w < len(seq); w++ {
			if s := seq[w]; s < best {
				victim, best = w, s
			}
		}
		return lo + victim
	}
	return c.policy.Victim(set, lo, hi)
}

// insert installs an absent line in set, preferring an invalid way inside
// the partition's range for typ, else the policy's victim. It returns the
// displaced dirty line's writeback, if any, and the way filled.
func (c *Cache) insert(set int, tag uint64, typ LineType, dirty bool) (Writeback, int) {
	words := c.words[set*c.ways : (set+1)*c.ways]
	lo, hi := c.victimRange(typ)
	victim := -1
	for w := lo; w < hi; w++ {
		if words[w]&wordValid == 0 {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = c.victim(set, lo, hi)
	}
	wd := words[victim]
	var wb Writeback
	if wd&(wordValid|wordDirty) == wordValid|wordDirty {
		wb = Writeback{Addr: c.addrOf(set, wd>>wordTagSh), Typ: wordType(wd), Valid: true}
		c.Stats.Writebacks.Inc()
	}
	if c.ip != nil {
		if wd&wordValid != 0 {
			c.ip.EvictCur(set, c.lineKey(set, wd>>wordTagSh, wordType(wd)))
		}
		c.ip.FillCur(set, c.lineKey(set, tag, typ))
	}
	words[victim] = packWord(tag, typ, dirty)
	c.Stats.Insertions[typ].Inc()
	if p := c.lru; p != nil {
		p.seq[set*p.ways+victim] = p.next
		p.next++
	} else {
		c.policy.Fill(set, victim)
	}
	return wb, victim
}
