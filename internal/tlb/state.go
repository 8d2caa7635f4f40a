package tlb

import (
	"fmt"

	"github.com/csalt-sim/csalt/internal/mem"
	"github.com/csalt-sim/csalt/internal/snapshot"
	"github.com/csalt-sim/csalt/internal/stats"
)

// Snapshot export/import for the translation caches. The snapshot holds
// each structure's packed entry words verbatim (see flat.go), so a restore
// reproduces exactly the entries and the replacement metadata — LRU
// sequence numbers for the L1/L2 TLBs, in-set ranks for the POM-TLB — the
// snapshot captured.

func hitRateState(h stats.HitRate) snapshot.HitRate {
	return snapshot.HitRate{Hits: h.Hits.Value(), Misses: h.Misses.Value()}
}

func loadHitRate(st snapshot.HitRate) stats.HitRate {
	return stats.HitRate{Hits: stats.Counter(st.Hits), Misses: stats.Counter(st.Misses)}
}

// SaveState exports the TLB's complete mutable state.
func (t *TLB) SaveState() snapshot.TLBState {
	st := snapshot.TLBState{
		KM:      append([]uint64(nil), t.fs.km...),
		Frames:  make([]uint64, len(t.fs.frames)),
		Seqs:    append([]uint64(nil), t.fs.seqs...),
		NBySize: t.fs.nBySize,
		Next:    t.next,
		Acc:     hitRateState(t.Accesses),
		Lookups: t.Lookups.Value(),
	}
	for i, f := range t.fs.frames {
		st.Frames[i] = uint64(f)
	}
	return st
}

// LoadState overwrites the TLB's mutable state from a snapshot taken by a
// TLB of the same geometry.
func (t *TLB) LoadState(st snapshot.TLBState) error {
	n := t.Entries()
	if len(st.KM) != n || len(st.Frames) != n || len(st.Seqs) != n {
		return fmt.Errorf("tlb %s: snapshot has %d/%d/%d words, want %d",
			t.cfg.Name, len(st.KM), len(st.Frames), len(st.Seqs), n)
	}
	copy(t.fs.km, st.KM)
	for i, f := range st.Frames {
		t.fs.frames[i] = mem.PAddr(f)
	}
	copy(t.fs.seqs, st.Seqs)
	t.fs.nBySize = st.NBySize
	t.next = st.Next
	t.Accesses = loadHitRate(st.Acc)
	t.Lookups = stats.Counter(st.Lookups)
	return nil
}

// SaveState exports the POM-TLB's complete mutable state.
func (p *POM) SaveState() snapshot.POMState {
	return snapshot.POMState{
		FW:      append([]uint64(nil), p.fw...),
		NBySize: p.nBySize,
		Acc:     hitRateState(p.Accesses),
		Inserts: p.Inserts.Value(),
		Lookups: p.Lookups.Value(),
	}
}

// LoadState overwrites the POM-TLB's mutable state from a snapshot taken
// by a POM of the same geometry.
func (p *POM) LoadState(st snapshot.POMState) error {
	if len(st.FW) != len(p.fw) {
		return fmt.Errorf("tlb: POM snapshot has %d words, want %d", len(st.FW), len(p.fw))
	}
	copy(p.fw, st.FW)
	p.nBySize = st.NBySize
	p.Accesses = loadHitRate(st.Acc)
	p.Inserts = stats.Counter(st.Inserts)
	p.Lookups = stats.Counter(st.Lookups)
	return nil
}

// SaveState exports the TSB's tags, frames and counters. The caller fills
// the ASID field (the TSB itself does not know which address space it
// serves).
func (t *TSB) SaveState() snapshot.TSBState {
	st := snapshot.TSBState{
		Tags:    make([]uint64, len(t.tags)),
		Frames:  make([]uint64, len(t.frames)),
		Acc:     hitRateState(t.Accesses),
		Lookups: t.Lookups.Value(),
	}
	copy(st.Tags, t.tags)
	for i, f := range t.frames {
		st.Frames[i] = uint64(f)
	}
	return st
}

// LoadState overwrites the TSB's mutable state from a same-geometry
// snapshot.
func (t *TSB) LoadState(st snapshot.TSBState) error {
	if len(st.Tags) != len(t.tags) || len(st.Frames) != len(t.frames) {
		return fmt.Errorf("tlb: TSB snapshot has %d/%d slots, want %d", len(st.Tags), len(st.Frames), len(t.tags))
	}
	copy(t.tags, st.Tags)
	for i, f := range st.Frames {
		t.frames[i] = mem.PAddr(f)
	}
	t.Accesses = loadHitRate(st.Acc)
	t.Lookups = stats.Counter(st.Lookups)
	return nil
}
