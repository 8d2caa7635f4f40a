package snapshot

// The State tree below is the complete mutable simulator state at a
// run-loop snapshot boundary. The payload codec (codec.go) walks it by
// type in field-declaration order, so every field is serialised with no
// per-type code; fields are scalars, strings, arrays, slices, structs and
// pointers only — never a map or an interface — which keeps the encoding
// canonical and decode→re-encode byte-identical (TestStateKindsEncodable
// checks the kinds). Address-space types (mem.VAddr, mem.PAddr, mem.ASID)
// appear as plain integers to keep this package free of simulator imports.
//
// Restore is reconstruction plus overlay: sim.RestoreSystem rebuilds the
// system deterministically from its Config (page-table prewarm, POM/TSB
// placement, allocator layout), replays the demand-fault log to reproduce
// the shared frame-allocator sequence and page-table contents, then
// overlays the component states below. TLB, POM-TLB and cache contents are
// the structures' packed entry and line words, copied verbatim.

// State is the root payload.
type State struct {
	// Warmed reports whether the warmup boundary has been crossed (stats
	// reset and measurement baselines taken).
	Warmed bool
	// Snaps are the per-core measurement baselines captured at the warmup
	// boundary (or at run start when warmup is zero).
	Snaps []CoreSnap
	// Observer sampling cursors (zero when no observer was attached).
	SinceSample uint64
	SampleSeq   uint64
	SampleBase  SampleBase
	// Faults is the ordered demand-fault log: every (asid, vaddr) whose
	// first touch allocated frames after construction. Replaying it through
	// the VM mapping path reproduces the frame allocators, page tables and
	// present sets exactly.
	Faults []Fault
	// VMs carries per-address-space verification values checked after
	// fault-log replay.
	VMs []VMState
	// HostAllocated is the shared host frame allocator's 4K-equivalent
	// allocation count at capture, checked after replay.
	HostAllocated uint64
	// Cores and Mem are the overlay states proper.
	Cores []CoreState
	Mem   MemState
}

// Fault is one demand-fault log entry.
type Fault struct {
	ASID uint16
	Addr uint64
}

// VMState verifies one address space after replay.
type VMState struct {
	ASID         uint16
	TouchedPages uint64
}

// CoreSnap mirrors the per-core warmup baseline.
type CoreSnap struct {
	Instructions uint64
	Cycles       uint64
}

// SampleBase mirrors the observer's delta baselines.
type SampleBase struct {
	Instructions    uint64
	Cycle           uint64
	L1TLBMisses     uint64
	L2TLBMisses     uint64
	POMHits         uint64
	POMAccesses     uint64
	PageWalks       uint64
	ContextSwitches uint64
	QueueWaitSum    uint64
	QueueWaitN      uint64
	SwitchMisses    uint64
	CrossEvictions  uint64
	PhaseBoundaries uint64
}

// Mean mirrors stats.RunningMean's accumulator.
type Mean struct {
	N   uint64
	Sum float64
}

// Hist mirrors stats.Log2Histogram.
type Hist struct {
	Counts []uint64
	Total  uint64
	Sum    uint64
}

// HitRate mirrors stats.HitRate.
type HitRate struct {
	Hits   uint64
	Misses uint64
}

// CoreState is one cpu.Core plus its contexts' trace sources.
type CoreState struct {
	Cur         int
	Cycle       uint64
	CPIAccum    uint64
	NextSwitch  uint64
	Outstanding []uint64
	OutHead     int
	OutCount    int

	Instructions    uint64
	MemRefs         uint64
	Loads           uint64
	Stores          uint64
	ContextSwitches uint64
	TranslateStall  uint64
	DataStall       uint64

	Sources []SourceState
}

// SourceState is one context's trace source: exactly one field is set.
type SourceState struct {
	// Gen is a synthetic workload generator's cursor state.
	Gen *GenState
	// ReplayPos is a recorded-trace replay's position.
	ReplayPos *int
}

// RNG mirrors workload.RNG (splitmix64 state plus the geometric cache).
type RNG struct {
	State   uint64
	GeoMean float64
	GeoLog  float64
}

// Rec is one buffered trace record.
type Rec struct {
	Kind   uint8
	Addr   uint64
	ASID   uint16
	NonMem uint32
}

// GenState is a workload generator's runtime cursor state; everything else
// a generator holds is re-derived from its profile at construction.
type GenState struct {
	RNG      RNG
	WinStart uint64
	Visits   uint64
	SeqLine  uint64
	WarmPage uint64
	WarmLeft int
	Buf      []Rec
	BufN     int
	BufI     int
}

// TLBState is one set-associative TLB in packed key-word form
// (vpn<<18 | asid<<2 | size<<1 | valid) with per-entry LRU sequences.
type TLBState struct {
	KM      []uint64
	Frames  []uint64
	Seqs    []uint64
	NBySize [2]int
	Next    uint64
	Acc     HitRate
	Lookups uint64
}

// POMState is the die-stacked POM-TLB: its packed set-stride array (four
// rank-tagged key words then four frames per set).
type POMState struct {
	FW      []uint64
	NBySize [2]int
	Acc     HitRate
	Inserts uint64
	Lookups uint64
}

// TSBState is one per-ASID translation storage buffer.
type TSBState struct {
	ASID    uint16
	Tags    []uint64
	Frames  []uint64
	Acc     HitRate
	Lookups uint64
}

// PolicyState is one cache replacement policy's mutable state; Kind
// selects which fields are meaningful.
type PolicyState struct {
	Kind string
	Seq  []uint64 // true-lru per-line sequence
	Next uint64   // true-lru clock
	Bits []bool   // nru reference bits or btplru tree nodes
}

// ProfilerState is a CSALT Mattson stack-distance profiler: the per-class
// way counters plus the auxiliary tag directories (flattened set-major).
type ProfilerState struct {
	Counters [2][]uint64
	ATDTags  [2][]uint64
	ATDValid [2][]bool
}

// CacheState is one cache level; lines are the cache's packed words
// (tag<<3 | typ<<2 | dirty<<1 | valid).
type CacheState struct {
	Words      []uint64
	Policy     PolicyState
	Partition  int
	Profiler   *ProfilerState
	ByType     [2]HitRate
	Insertions [2]uint64
	Writebacks uint64
	Lookups    uint64
}

// EpochSnap mirrors core.Snapshot (one epoch of partition history).
type EpochSnap struct {
	Epoch       uint64
	DataWays    int
	TLBFraction float64
	SDat        float64
	STr         float64
	RawBestN    int
}

// ControllerState is one CSALT epoch controller.
type ControllerState struct {
	Accesses         uint64
	Epoch            uint64
	LastSDat         float64
	LastSTr          float64
	History          []EpochSnap
	Epochs           uint64
	PartitionChanges uint64
}

// DIPState is one dynamic-insertion-policy dueling monitor.
type DIPState struct {
	PSel            int
	BIPCursor       uint64
	MRULeaderMisses uint64
	BIPLeaderMisses uint64
}

// BankState is one DRAM bank's row-buffer and timing state.
type BankState struct {
	OpenRow   uint64
	HasRow    bool
	BusyUntil uint64
}

// DRAMState is one DRAM channel (off-chip or die-stacked).
type DRAMState struct {
	Banks        []BankState
	Accesses     uint64
	Writes       uint64
	RowHits      uint64
	RowEmpty     uint64
	RowConflicts uint64
	Latency      Mean
	QueueWait    Hist
}

// PSCEntry is one page-structure-cache entry.
type PSCEntry struct {
	ASID  uint16
	Key   uint64
	Frame uint64
	Seq   uint64
	Valid bool
}

// PSCState is one PSC level's entries plus its LRU clock.
type PSCState struct {
	Entries []PSCEntry
	Next    uint64
}

// WalkerState is one page walker: every PSC plus its counters. The
// in-flight step buffers are transient scratch (walks are synchronous
// within a step) and need no serialization.
type WalkerState struct {
	GuestPSC [3]PSCState
	HostPSC  [3]PSCState
	Nested   PSCState
	Nested2M PSCState

	Walks          uint64
	MemAccesses    uint64
	PSCHits        uint64
	NestedHits     uint64
	NestedWalks    uint64
	WalksCompleted uint64
	WalkErrors     uint64
	WalkCycles     Mean
	WalkCyclesHist Hist
}

// MemStats mirrors the memory system's own stat block.
type MemStats struct {
	L2TLBMisses          uint64
	PageWalks            uint64
	TranslateAfterL2Miss Mean
	L2Occupancy          Mean
	L3Occupancy          Mean
	L3MissPenalty        [2]Mean
}

// MemState is the complete memory hierarchy overlay.
type MemState struct {
	L1D []CacheState
	L2  []CacheState
	L3  CacheState

	L2Ctl []*ControllerState
	L3Ctl *ControllerState
	L2DIP []*DIPState
	L3DIP *DIPState

	DDR     DRAMState
	Stacked DRAMState

	L1TLB  []TLBState
	L1TLB2 []TLBState
	// L2TLB holds one entry per core, or a single entry when the L2 TLB is
	// shared (the per-core slots alias one structure).
	L2TLB []TLBState
	POM   *POMState
	// GTSB/HTSB are sorted by ASID for deterministic encoding.
	GTSB []TSBState
	HTSB []TSBState

	Walkers []WalkerState

	L2AccSinceScan uint64
	L3AccSinceScan uint64

	Stats MemStats
}
