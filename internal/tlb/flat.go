package tlb

import (
	"github.com/csalt-sim/csalt/internal/mem"
)

// Packed entry layouts for the TLB and POM-TLB.
//
// A struct per entry would spread each entry's tag fields over ~48 bytes,
// so a 12-way probe would walk nine cache lines of host memory. The TLB
// layout instead packs the whole comparison key into one uint64:
//
//	km = vpn<<18 | asid<<2 | size<<1 | valid
//
// so a probe is one 64-bit load and compare per way. The packing bounds the
// virtual page number to 46 bits — virtual addresses below 2^58 — which
// covers the simulator's entire guest-virtual layout (thread bases top out
// near 2^41) with sixteen orders of magnitude to spare; the constructors
// reject nothing, but the insert/probe paths panic loudly if the bound is
// ever violated rather than aliasing tags. LRU sequence numbers stay in a
// parallel array: TLB sets are small and host-cache hot, so the extra line
// is free.
//
// Per-page-size valid-entry counts let a lookup skip the probe of a size
// class the structure holds no entries of — the common case for 2 MB
// entries outside huge-page mode — without changing any hit/miss accounting
// (a skipped probe could only have missed).
//
// The POM-TLB gets its own, denser layout (see "POM layout" below): its
// tag state is tens of megabytes and randomly probed, so the goal there is
// to touch exactly one host cache line per probe. Each set packs its four
// entries' keys and frames into 64 contiguous bytes:
//
//	fw[set*8+0 .. +3] — km words: vpn<<24 | asid<<8 | rank<<2 | size<<1 | valid
//	fw[set*8+4 .. +7] — frames
//
// The two-bit rank field replaces global LRU sequence numbers: ranks
// within a set are maintained in exact least-recently-touched order
// (3 = MRU), which selects the same victim as "lowest global sequence
// number" — only relative recency within a set is ever compared. Updating
// ranks rewrites words in the line the probe just loaded, so a POM probe
// costs one host cache line. POM vpns are bounded to 40 bits (virtual
// addresses below 2^52), enforced the same way.
//
// Test-only models with plain per-entry structs and global sequence
// numbers (model_test.go) are fuzzed against these layouts: return values,
// counters and the saved state must agree operation for operation.

// Packed TLB key-word fields.
const (
	kmValid    = 1 << 0
	kmSizeSh   = 1
	kmASIDSh   = 2
	kmVPNSh    = 18
	kmVPNLimit = 1 << (64 - kmVPNSh)
)

// packKM builds the packed comparison word for a valid TLB entry.
func packKM(vpn uint64, asid mem.ASID, size mem.PageSize) uint64 {
	if vpn >= kmVPNLimit {
		panic("tlb: packed layout supports virtual addresses below 2^58")
	}
	return vpn<<kmVPNSh | uint64(asid)<<kmASIDSh | uint64(size)<<kmSizeSh | kmValid
}

// flatState is the packed entry store for the L1/L2 TLBs.
type flatState struct {
	km     []uint64
	frames []mem.PAddr
	seqs   []uint64
	// nBySize counts valid entries per page size so lookups can skip
	// guaranteed-miss probes.
	nBySize [2]int
}

func newFlatState(entries int) flatState {
	return flatState{
		km:     make([]uint64, entries),
		frames: make([]mem.PAddr, entries),
		seqs:   make([]uint64, entries),
	}
}

// probe searches ways [base, base+ways) for the packed key, refreshing the
// matched entry's LRU sequence from *next.
func (f *flatState) probe(want uint64, base, ways int, next *uint64) (mem.PAddr, bool) {
	km := f.km[base : base+ways]
	for w := range km {
		if km[w] == want {
			*next++
			f.seqs[base+w] = *next
			return f.frames[base+w], true
		}
	}
	return 0, false
}

// insert installs want->frame in ways [base, base+ways): refresh on an
// exact match, else the first invalid way, else the lowest-seq (LRU) way. refreshed reports that an existing entry
// was updated in place (no insertion happened); otherwise evictKM is the
// displaced entry's key word when a valid entry for a different page was
// displaced (0 if the victim way was invalid).
func (f *flatState) insert(want uint64, frame mem.PAddr, base, ways int, next *uint64) (evictKM uint64, refreshed bool) {
	victim := base
	for w := 0; w < ways; w++ {
		i := base + w
		if f.km[i] == want {
			*next++
			f.frames[i], f.seqs[i] = frame, *next
			return 0, true
		}
		if f.km[i]&kmValid == 0 {
			victim = i
			break
		}
		if f.seqs[i] < f.seqs[victim] {
			victim = i
		}
	}
	if ev := f.km[victim]; ev&kmValid != 0 {
		evictKM = ev
		f.nBySize[(ev>>kmSizeSh)&1]--
	}
	*next++
	f.km[victim] = want
	f.frames[victim] = frame
	f.seqs[victim] = *next
	f.nBySize[(want>>kmSizeSh)&1]++
	return evictKM, false
}

// --- POM layout -----------------------------------------------------------

// Packed POM word fields. One set is EntriesPerLine km words followed by
// EntriesPerLine frame words: 64 bytes, one host cache line.
const (
	pomSetStride = 2 * EntriesPerLine

	pomValid    = 1 << 0
	pomSizeSh   = 1
	pomRankSh   = 2
	pomRankMask = uint64(EntriesPerLine-1) << pomRankSh
	pomASIDSh   = 8
	pomVPNSh    = 24
	pomVPNLimit = 1 << (64 - pomVPNSh)
	pomMRU      = uint64(EntriesPerLine-1) << pomRankSh
)

// packPOM builds the packed key word (rank zero) for a valid POM entry.
func packPOM(vpn uint64, asid mem.ASID, size mem.PageSize) uint64 {
	if vpn >= pomVPNLimit {
		panic("tlb: packed POM layout supports virtual addresses below 2^52")
	}
	return vpn<<pomVPNSh | uint64(asid)<<pomASIDSh | uint64(size)<<pomSizeSh | pomValid
}

// pomTouch promotes way w to MRU rank, demoting the ways more recent than
// it by one — the permutation update that keeps ranks in exact
// least-recently-touched order, agreeing with global sequence numbers for
// every within-set comparison.
func pomTouch(kms []uint64, w int) {
	old := kms[w] & pomRankMask
	for x := range kms {
		if kms[x]&pomRankMask > old {
			kms[x] -= 1 << pomRankSh
		}
	}
	kms[w] = kms[w]&^pomRankMask | pomMRU
}
