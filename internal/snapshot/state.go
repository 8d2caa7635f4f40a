package snapshot

// The State tree below is the complete mutable simulator state at a
// run-loop snapshot boundary. Every field is a slice or scalar — never a
// map — so JSON encoding is deterministic and decode→re-encode is
// byte-identical. Address-space types (mem.VAddr, mem.PAddr, mem.ASID)
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
	Warmed bool `json:"warmed"`
	// Snaps are the per-core measurement baselines captured at the warmup
	// boundary (or at run start when warmup is zero).
	Snaps []CoreSnap `json:"snaps"`
	// Observer sampling cursors (zero when no observer was attached).
	SinceSample uint64     `json:"sinceSample"`
	SampleSeq   uint64     `json:"sampleSeq"`
	SampleBase  SampleBase `json:"sampleBase"`
	// Faults is the ordered demand-fault log: every (asid, vaddr) whose
	// first touch allocated frames after construction. Replaying it through
	// the VM mapping path reproduces the frame allocators, page tables and
	// present sets exactly.
	Faults []Fault `json:"faults"`
	// VMs carries per-address-space verification values checked after
	// fault-log replay.
	VMs []VMState `json:"vms"`
	// HostAllocated is the shared host frame allocator's 4K-equivalent
	// allocation count at capture, checked after replay.
	HostAllocated uint64 `json:"hostAllocated"`
	// Cores and Mem are the overlay states proper.
	Cores []CoreState `json:"cores"`
	Mem   MemState    `json:"mem"`
}

// Fault is one demand-fault log entry.
type Fault struct {
	ASID uint16 `json:"asid"`
	Addr uint64 `json:"addr"`
}

// VMState verifies one address space after replay.
type VMState struct {
	ASID         uint16 `json:"asid"`
	TouchedPages uint64 `json:"touchedPages"`
}

// CoreSnap mirrors the per-core warmup baseline.
type CoreSnap struct {
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
}

// SampleBase mirrors the observer's delta baselines.
type SampleBase struct {
	Instructions    uint64 `json:"instructions"`
	Cycle           uint64 `json:"cycle"`
	L1TLBMisses     uint64 `json:"l1TLBMisses"`
	L2TLBMisses     uint64 `json:"l2TLBMisses"`
	POMHits         uint64 `json:"pomHits"`
	POMAccesses     uint64 `json:"pomAccesses"`
	PageWalks       uint64 `json:"pageWalks"`
	ContextSwitches uint64 `json:"contextSwitches"`
	QueueWaitSum    uint64 `json:"queueWaitSum"`
	QueueWaitN      uint64 `json:"queueWaitN"`
	SwitchMisses    uint64 `json:"switchMisses"`
	CrossEvictions  uint64 `json:"crossEvictions"`
	PhaseBoundaries uint64 `json:"phaseBoundaries"`
}

// Mean mirrors stats.RunningMean's accumulator.
type Mean struct {
	N   uint64  `json:"n"`
	Sum float64 `json:"sum"`
}

// Hist mirrors stats.Log2Histogram.
type Hist struct {
	Counts []uint64 `json:"counts"`
	Total  uint64   `json:"total"`
	Sum    uint64   `json:"sum"`
}

// HitRate mirrors stats.HitRate.
type HitRate struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// CoreState is one cpu.Core plus its contexts' trace sources.
type CoreState struct {
	Cur         int      `json:"cur"`
	Cycle       uint64   `json:"cycle"`
	CPIAccum    uint64   `json:"cpiAccum"`
	NextSwitch  uint64   `json:"nextSwitch"`
	Outstanding []uint64 `json:"outstanding"`
	OutHead     int      `json:"outHead"`
	OutCount    int      `json:"outCount"`

	Instructions    uint64 `json:"instructions"`
	MemRefs         uint64 `json:"memRefs"`
	Loads           uint64 `json:"loads"`
	Stores          uint64 `json:"stores"`
	ContextSwitches uint64 `json:"contextSwitches"`
	TranslateStall  uint64 `json:"translateStall"`
	DataStall       uint64 `json:"dataStall"`

	Sources []SourceState `json:"sources"`
}

// SourceState is one context's trace source: exactly one field is set.
type SourceState struct {
	// Gen is a synthetic workload generator's cursor state.
	Gen *GenState `json:"gen,omitempty"`
	// ReplayPos is a recorded-trace replay's position.
	ReplayPos *int `json:"replayPos,omitempty"`
}

// RNG mirrors workload.RNG (splitmix64 state plus the geometric cache).
type RNG struct {
	State   uint64  `json:"state"`
	GeoMean float64 `json:"geoMean"`
	GeoLog  float64 `json:"geoLog"`
}

// Rec is one buffered trace record.
type Rec struct {
	Kind   uint8  `json:"kind"`
	Addr   uint64 `json:"addr"`
	ASID   uint16 `json:"asid"`
	NonMem uint32 `json:"nonMem"`
}

// GenState is a workload generator's runtime cursor state; everything else
// a generator holds is re-derived from its profile at construction.
type GenState struct {
	RNG      RNG    `json:"rng"`
	WinStart uint64 `json:"winStart"`
	Visits   uint64 `json:"visits"`
	SeqLine  uint64 `json:"seqLine"`
	WarmPage uint64 `json:"warmPage"`
	WarmLeft int    `json:"warmLeft"`
	Buf      []Rec  `json:"buf"`
	BufN     int    `json:"bufN"`
	BufI     int    `json:"bufI"`
}

// TLBState is one set-associative TLB in packed key-word form
// (vpn<<18 | asid<<2 | size<<1 | valid) with per-entry LRU sequences.
type TLBState struct {
	KM      []uint64 `json:"kmWords"`
	Frames  []uint64 `json:"frames"`
	Seqs    []uint64 `json:"seqs"`
	NBySize [2]int   `json:"nBySize"`
	Next    uint64   `json:"next"`
	Acc     HitRate  `json:"acc"`
	Lookups uint64   `json:"lookups"`
}

// POMState is the die-stacked POM-TLB: its packed set-stride array (four
// rank-tagged key words then four frames per set).
type POMState struct {
	FW      []uint64 `json:"fw"`
	NBySize [2]int   `json:"nBySize"`
	Acc     HitRate  `json:"acc"`
	Inserts uint64   `json:"inserts"`
	Lookups uint64   `json:"lookups"`
}

// TSBState is one per-ASID translation storage buffer.
type TSBState struct {
	ASID    uint16   `json:"asid"`
	Tags    []uint64 `json:"tags"`
	Frames  []uint64 `json:"frames"`
	Acc     HitRate  `json:"acc"`
	Lookups uint64   `json:"lookups"`
}

// PolicyState is one cache replacement policy's mutable state; Kind
// selects which fields are meaningful.
type PolicyState struct {
	Kind string   `json:"kind"`
	Seq  []uint64 `json:"seq,omitempty"`  // true-lru per-line sequence
	Next uint64   `json:"next"`           // true-lru clock
	Bits []bool   `json:"bits,omitempty"` // nru reference bits or btplru tree nodes
}

// ProfilerState is a CSALT Mattson stack-distance profiler: the per-class
// way counters plus the auxiliary tag directories (flattened set-major).
type ProfilerState struct {
	Counters [2][]uint64 `json:"counters"`
	ATDTags  [2][]uint64 `json:"atdTags"`
	ATDValid [2][]bool   `json:"atdValid"`
}

// CacheState is one cache level; lines are the cache's packed words
// (tag<<3 | typ<<2 | dirty<<1 | valid).
type CacheState struct {
	Words      []uint64       `json:"words"`
	Policy     PolicyState    `json:"policy"`
	Partition  int            `json:"partition"`
	Profiler   *ProfilerState `json:"profiler,omitempty"`
	ByType     [2]HitRate     `json:"byType"`
	Insertions [2]uint64      `json:"insertions"`
	Writebacks uint64         `json:"writebacks"`
	Lookups    uint64         `json:"lookups"`
}

// EpochSnap mirrors core.Snapshot (one epoch of partition history).
type EpochSnap struct {
	Epoch       uint64  `json:"epoch"`
	DataWays    int     `json:"dataWays"`
	TLBFraction float64 `json:"tlbFraction"`
	SDat        float64 `json:"sDat"`
	STr         float64 `json:"sTr"`
	RawBestN    int     `json:"rawBestN"`
}

// ControllerState is one CSALT epoch controller.
type ControllerState struct {
	Accesses         uint64      `json:"accesses"`
	Epoch            uint64      `json:"epoch"`
	LastSDat         float64     `json:"lastSDat"`
	LastSTr          float64     `json:"lastSTr"`
	History          []EpochSnap `json:"history,omitempty"`
	Epochs           uint64      `json:"epochs"`
	PartitionChanges uint64      `json:"partitionChanges"`
}

// DIPState is one dynamic-insertion-policy dueling monitor.
type DIPState struct {
	PSel            int    `json:"psel"`
	BIPCursor       uint64 `json:"bipCursor"`
	MRULeaderMisses uint64 `json:"mruLeaderMisses"`
	BIPLeaderMisses uint64 `json:"bipLeaderMisses"`
}

// BankState is one DRAM bank's row-buffer and timing state.
type BankState struct {
	OpenRow   uint64 `json:"openRow"`
	HasRow    bool   `json:"hasRow"`
	BusyUntil uint64 `json:"busyUntil"`
}

// DRAMState is one DRAM channel (off-chip or die-stacked).
type DRAMState struct {
	Banks        []BankState `json:"banks"`
	Accesses     uint64      `json:"accesses"`
	Writes       uint64      `json:"writes"`
	RowHits      uint64      `json:"rowHits"`
	RowEmpty     uint64      `json:"rowEmpty"`
	RowConflicts uint64      `json:"rowConflicts"`
	Latency      Mean        `json:"latency"`
	QueueWait    Hist        `json:"queueWait"`
}

// PSCEntry is one page-structure-cache entry.
type PSCEntry struct {
	ASID  uint16 `json:"asid"`
	Key   uint64 `json:"key"`
	Frame uint64 `json:"frame"`
	Seq   uint64 `json:"seq"`
	Valid bool   `json:"valid"`
}

// PSCState is one PSC level's entries plus its LRU clock.
type PSCState struct {
	Entries []PSCEntry `json:"entries"`
	Next    uint64     `json:"next"`
}

// WalkerState is one page walker: every PSC plus its counters. The
// in-flight step buffers are transient scratch (walks are synchronous
// within a step) and need no serialization.
type WalkerState struct {
	GuestPSC [3]PSCState `json:"guestPSC"`
	HostPSC  [3]PSCState `json:"hostPSC"`
	Nested   PSCState    `json:"nested"`
	Nested2M PSCState    `json:"nested2M"`

	Walks          uint64 `json:"walks"`
	MemAccesses    uint64 `json:"memAccesses"`
	PSCHits        uint64 `json:"pscHits"`
	NestedHits     uint64 `json:"nestedHits"`
	NestedWalks    uint64 `json:"nestedWalks"`
	WalksCompleted uint64 `json:"walksCompleted"`
	WalkErrors     uint64 `json:"walkErrors"`
	WalkCycles     Mean   `json:"walkCycles"`
	WalkCyclesHist Hist   `json:"walkCyclesHist"`
}

// MemStats mirrors the memory system's own stat block.
type MemStats struct {
	L2TLBMisses          uint64  `json:"l2TLBMisses"`
	PageWalks            uint64  `json:"pageWalks"`
	TranslateAfterL2Miss Mean    `json:"translateAfterL2Miss"`
	L2Occupancy          Mean    `json:"l2Occupancy"`
	L3Occupancy          Mean    `json:"l3Occupancy"`
	L3MissPenalty        [2]Mean `json:"l3MissPenalty"`
}

// MemState is the complete memory hierarchy overlay.
type MemState struct {
	L1D []CacheState `json:"l1d"`
	L2  []CacheState `json:"l2"`
	L3  CacheState   `json:"l3"`

	L2Ctl []*ControllerState `json:"l2Ctl,omitempty"`
	L3Ctl *ControllerState   `json:"l3Ctl,omitempty"`
	L2DIP []*DIPState        `json:"l2DIP,omitempty"`
	L3DIP *DIPState          `json:"l3DIP,omitempty"`

	DDR     DRAMState `json:"ddr"`
	Stacked DRAMState `json:"stacked"`

	L1TLB  []TLBState `json:"l1TLB"`
	L1TLB2 []TLBState `json:"l1TLB2"`
	// L2TLB holds one entry per core, or a single entry when the L2 TLB is
	// shared (the per-core slots alias one structure).
	L2TLB []TLBState `json:"l2TLB"`
	POM   *POMState  `json:"pom,omitempty"`
	// GTSB/HTSB are sorted by ASID for deterministic encoding.
	GTSB []TSBState `json:"gtsb,omitempty"`
	HTSB []TSBState `json:"htsb,omitempty"`

	Walkers []WalkerState `json:"walkers"`

	L2AccSinceScan uint64 `json:"l2AccSinceScan"`
	L3AccSinceScan uint64 `json:"l3AccSinceScan"`

	Stats MemStats `json:"stats"`
}
