package cache

import (
	"fmt"

	"github.com/csalt-sim/csalt/internal/snapshot"
	"github.com/csalt-sim/csalt/internal/stats"
)

// Snapshot export/import for the data caches. Line metadata serializes as
// the cache's packed words (tag<<3 | typ<<2 | dirty<<1 | valid), copied
// verbatim; replacement state is captured per policy kind, and the
// Mattson profilers flatten their auxiliary tag directories set-major. A
// restore reproduces exactly the resident lines, recency order, partition
// and counters the snapshot captured, so a resumed run's victim choices
// are bit-identical to an uninterrupted one's.

func hitRateState(h stats.HitRate) snapshot.HitRate {
	return snapshot.HitRate{Hits: h.Hits.Value(), Misses: h.Misses.Value()}
}

func loadHitRate(st snapshot.HitRate) stats.HitRate {
	return stats.HitRate{Hits: stats.Counter(st.Hits), Misses: stats.Counter(st.Misses)}
}

// savePolicy captures one replacement policy's mutable state.
func savePolicy(p Policy) snapshot.PolicyState {
	st := snapshot.PolicyState{Kind: p.Kind().String()}
	switch q := p.(type) {
	case *trueLRU:
		st.Seq = make([]uint64, len(q.seq))
		copy(st.Seq, q.seq)
		st.Next = q.next
	case *nru:
		st.Bits = make([]bool, len(q.bit))
		copy(st.Bits, q.bit)
	case *btplru:
		st.Bits = make([]bool, len(q.node))
		copy(st.Bits, q.node)
	}
	return st
}

// loadPolicy overlays a captured policy state onto a live policy of the
// same kind and geometry.
func loadPolicy(p Policy, st snapshot.PolicyState) error {
	if got := p.Kind().String(); got != st.Kind {
		return fmt.Errorf("policy is %s, snapshot holds %s", got, st.Kind)
	}
	switch q := p.(type) {
	case *trueLRU:
		if len(st.Seq) != len(q.seq) {
			return fmt.Errorf("lru snapshot has %d seqs, want %d", len(st.Seq), len(q.seq))
		}
		copy(q.seq, st.Seq)
		q.next = st.Next
	case *nru:
		if len(st.Bits) != len(q.bit) {
			return fmt.Errorf("nru snapshot has %d bits, want %d", len(st.Bits), len(q.bit))
		}
		copy(q.bit, st.Bits)
	case *btplru:
		if len(st.Bits) != len(q.node) {
			return fmt.Errorf("bt-plru snapshot has %d nodes, want %d", len(st.Bits), len(q.node))
		}
		copy(q.node, st.Bits)
	}
	return nil
}

// SaveState exports the profiler's counters and (in ATD mode) the auxiliary
// tag directories, flattened set-major.
func (p *Profiler) SaveState() snapshot.ProfilerState {
	var st snapshot.ProfilerState
	for t := 0; t < int(numLineTypes); t++ {
		st.Counters[t] = make([]uint64, len(p.counters[t]))
		copy(st.Counters[t], p.counters[t])
		if p.inline {
			continue
		}
		sampled := len(p.atdTags[t])
		st.ATDTags[t] = make([]uint64, 0, sampled*p.ways)
		st.ATDValid[t] = make([]bool, 0, sampled*p.ways)
		for s := 0; s < sampled; s++ {
			st.ATDTags[t] = append(st.ATDTags[t], p.atdTags[t][s]...)
			st.ATDValid[t] = append(st.ATDValid[t], p.atdValid[t][s]...)
		}
	}
	return st
}

// LoadState overlays a captured profiler state onto a profiler of the same
// mode and geometry.
func (p *Profiler) LoadState(st snapshot.ProfilerState) error {
	for t := 0; t < int(numLineTypes); t++ {
		if len(st.Counters[t]) != len(p.counters[t]) {
			return fmt.Errorf("profiler snapshot has %d counters, want %d", len(st.Counters[t]), len(p.counters[t]))
		}
		if p.inline {
			if len(st.ATDTags[t]) != 0 {
				return fmt.Errorf("profiler snapshot carries ATDs, this profiler is inline")
			}
			continue
		}
		sampled := len(p.atdTags[t])
		if len(st.ATDTags[t]) != sampled*p.ways || len(st.ATDValid[t]) != sampled*p.ways {
			return fmt.Errorf("profiler snapshot has %d/%d ATD slots, want %d",
				len(st.ATDTags[t]), len(st.ATDValid[t]), sampled*p.ways)
		}
	}
	for t := 0; t < int(numLineTypes); t++ {
		copy(p.counters[t], st.Counters[t])
		if p.inline {
			continue
		}
		for s := range p.atdTags[t] {
			copy(p.atdTags[t][s], st.ATDTags[t][s*p.ways:(s+1)*p.ways])
			copy(p.atdValid[t][s], st.ATDValid[t][s*p.ways:(s+1)*p.ways])
		}
	}
	return nil
}

// SaveState exports the cache's complete mutable state.
func (c *Cache) SaveState() snapshot.CacheState {
	st := snapshot.CacheState{
		Words:      append([]uint64(nil), c.words...),
		Policy:     savePolicy(c.policy),
		Partition:  c.partition,
		Writebacks: c.Stats.Writebacks.Value(),
		Lookups:    c.Stats.Lookups.Value(),
	}
	for t := 0; t < int(numLineTypes); t++ {
		st.ByType[t] = hitRateState(c.Stats.ByType[t])
		st.Insertions[t] = c.Stats.Insertions[t].Value()
	}
	if c.profiler != nil {
		ps := c.profiler.SaveState()
		st.Profiler = &ps
	}
	return st
}

// LoadState overwrites the cache's mutable state from a snapshot taken by
// a cache of the same geometry, policy and profiler mode.
func (c *Cache) LoadState(st snapshot.CacheState) error {
	if len(st.Words) != len(c.words) {
		return fmt.Errorf("cache %s: snapshot has %d line words, want %d", c.cfg.Name, len(st.Words), len(c.words))
	}
	if err := loadPolicy(c.policy, st.Policy); err != nil {
		return fmt.Errorf("cache %s: %w", c.cfg.Name, err)
	}
	if (c.profiler != nil) != (st.Profiler != nil) {
		return fmt.Errorf("cache %s: snapshot profiler presence mismatch", c.cfg.Name)
	}
	if c.profiler != nil {
		if err := c.profiler.LoadState(*st.Profiler); err != nil {
			return fmt.Errorf("cache %s: %w", c.cfg.Name, err)
		}
	}
	copy(c.words, st.Words)
	c.partition = st.Partition
	for t := 0; t < int(numLineTypes); t++ {
		c.Stats.ByType[t] = loadHitRate(st.ByType[t])
		c.Stats.Insertions[t] = stats.Counter(st.Insertions[t])
	}
	c.Stats.Writebacks = stats.Counter(st.Writebacks)
	c.Stats.Lookups = stats.Counter(st.Lookups)
	return nil
}
