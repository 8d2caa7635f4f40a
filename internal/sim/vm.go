package sim

import (
	"fmt"

	"github.com/csalt-sim/csalt/internal/mem"
	"github.com/csalt-sim/csalt/internal/pagetable"
	"github.com/csalt-sim/csalt/internal/walker"
	"github.com/csalt-sim/csalt/internal/workload"
)

// eptBackedAlloc wraps a guest-physical frame allocator so that every frame
// it hands out (used for guest page-table nodes) is immediately EPT-mapped
// to a host frame — guest page tables live in guest memory, and the nested
// walker must be able to resolve their gPAs.
type eptBackedAlloc struct {
	inner *mem.FrameAllocator
	host  *pagetable.Table
	hostA *mem.FrameAllocator
}

func (a *eptBackedAlloc) Alloc4K() (mem.PAddr, error) {
	gpa, err := a.inner.Alloc4K()
	if err != nil {
		return 0, err
	}
	hpa, err := a.hostA.Alloc4K()
	if err != nil {
		return 0, err
	}
	if err := a.host.Map(mem.VAddr(gpa), hpa, mem.Page4K); err != nil {
		return 0, fmt.Errorf("sim: EPT-mapping guest PT frame %#x: %w", gpa, err)
	}
	return gpa, nil
}

// vmState is one virtual machine: an ASID, its translation tables, and the
// allocators that demand-populate them.
type vmState struct {
	asid  mem.ASID
	bench workload.Name
	space *walker.Space

	hostA     *mem.FrameAllocator // shared host-physical allocator
	gDataA    *mem.FrameAllocator // guest-physical data region (virtualized only)
	hugePages bool
	ept4K     bool // fragmented host: 4 KB EPT mappings

	// present caches which mapping granules are already installed, so the
	// per-reference mapped-check is one open-addressing probe instead of a
	// radix descent of four or five nodes. presentShift is the granule:
	// 2 MB for native huge-page VMs (one mapping covers the whole granule),
	// 4 KB otherwise. Every guest mapping is made on a miss in this set at
	// this granule, so the set and the guest table agree page for page.
	present      *pageSet
	presentShift uint

	touchedPages uint64
}

// pageSet is a grow-on-demand open-addressing hash set of uint64 keys with
// linear probing. Slots store key+1 so the zero value means empty; lookups
// are allocation-free.
type pageSet struct {
	slots []uint64
	n     int
	mask  uint64
}

func newPageSet() *pageSet {
	const initial = 1024
	return &pageSet{slots: make([]uint64, initial), mask: initial - 1}
}

// hash is the splitmix64 finalizer — the same mixer the POM set hash uses.
func (s *pageSet) hash(key uint64) uint64 {
	z := key + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *pageSet) has(key uint64) bool {
	i := s.hash(key) & s.mask
	for {
		v := s.slots[i]
		if v == 0 {
			return false
		}
		if v == key+1 {
			return true
		}
		i = (i + 1) & s.mask
	}
}

func (s *pageSet) add(key uint64) {
	if 4*(s.n+1) > 3*len(s.slots) {
		s.grow()
	}
	i := s.hash(key) & s.mask
	for {
		v := s.slots[i]
		if v == 0 {
			s.slots[i] = key + 1
			s.n++
			return
		}
		if v == key+1 {
			return
		}
		i = (i + 1) & s.mask
	}
}

func (s *pageSet) grow() {
	old := s.slots
	s.slots = make([]uint64, 2*len(old))
	s.mask = uint64(len(s.slots) - 1)
	s.n = 0
	for _, v := range old {
		if v != 0 {
			s.add(v - 1)
		}
	}
}

// newVM builds one VM's address-translation state. For a virtualized VM the
// guest table maps gVA→gPA and a host (EPT) table maps gPA→hPA; a native VM
// maps gVA straight to host frames.
func newVM(asid mem.ASID, bench workload.Name, virtualized bool, levels int,
	hostA *mem.FrameAllocator, hugePages, ept4K bool) (*vmState, error) {

	vm := &vmState{asid: asid, bench: bench, hostA: hostA, hugePages: hugePages, ept4K: ept4K,
		present: newPageSet(), presentShift: mem.PageShift4K}
	if !virtualized {
		if hugePages {
			vm.presentShift = mem.PageShift2M
		}
		guest, err := pagetable.New(hostA, levels)
		if err != nil {
			return nil, err
		}
		vm.space = &walker.Space{Guest: guest}
		return vm, nil
	}

	host, err := pagetable.New(hostA, levels)
	if err != nil {
		return nil, err
	}
	// Guest-physical layout: page-table nodes in a dedicated upper region,
	// data below. Both regions are per-VM; gPA spaces of different VMs are
	// independent because each has its own EPT.
	const (
		gDataBase = mem.PAddr(0)
		gDataSize = 2 << 30 // 2 GB of guest-physical data space
		gPTBase   = mem.PAddr(2 << 30)
		gPTSize   = 512 << 20
	)
	// Guest-physical data is allocated sequentially: guest OSes hand out
	// reasonably contiguous gPA ranges, and that contiguity is what gives
	// the host-side PSC and nested TLB their reach. (Host-physical frames
	// remain scrambled — see newMemSystem — which is what spreads cache
	// sets.)
	vm.gDataA = mem.NewFrameAllocator(gDataBase, gDataSize, false)
	gptInner := mem.NewFrameAllocator(gPTBase, gPTSize, false)
	guest, err := pagetable.New(&eptBackedAlloc{inner: gptInner, host: host, hostA: hostA}, levels)
	if err != nil {
		return nil, err
	}
	vm.space = &walker.Space{Guest: guest, Host: host}
	return vm, nil
}

// mapping is one 4 KB page's translation: the guest leaf that covers it
// (frame and size; gVA→hPA for a native VM, gVA→gPA for a virtualized
// one) and the host-physical 4 KB frame that backs it.
type mapping struct {
	gFrame mem.PAddr
	gSize  mem.PageSize
	hFrame mem.PAddr
}

// ensureMapped demand-populates the translation for v's page on first
// touch: a soft page fault whose OS cost, like the paper's, is not charged
// to the pipeline. Returns true if a new page was mapped.
//
// The presence set answers the (overwhelmingly common) already-mapped case
// with one hash probe, where a radix descent of the tables costs one
// pointer chase per level; a set miss falls through to ensureMappedSlow,
// whose outcome is then recorded.
func (vm *vmState) ensureMapped(v mem.VAddr) (bool, error) {
	if vm.present.has(uint64(v) >> vm.presentShift) {
		return false, nil
	}
	if _, err := vm.ensureMappedSlow(v); err != nil {
		return false, err
	}
	vm.present.add(uint64(v) >> vm.presentShift)
	return true, nil
}

// ensureMappedSlow is the presence-set miss path: it maps v's page and
// returns what it installed; the caller records the page in the set.
// Every mapping of a guest page is made here on a miss at the set's
// granule, so a miss means the page is absent from the guest table.
func (vm *vmState) ensureMappedSlow(v mem.VAddr) (mapping, error) {
	if !vm.space.Virtualized() {
		if vm.hugePages {
			base := v &^ (mem.PageSize2M - 1)
			hpa, err := vm.hostA.Alloc2M()
			if err != nil {
				return mapping{}, err
			}
			if err := vm.space.Guest.Map(base, hpa, mem.Page2M); err != nil {
				return mapping{}, err
			}
			vm.touchedPages += mem.PageSize2M / mem.PageSize4K
			return nativeMapping(v, hpa, mem.Page2M), nil
		}
		hpa, err := vm.hostA.Alloc4K()
		if err != nil {
			return mapping{}, err
		}
		if err := vm.space.Guest.Map(v&^(mem.PageSize4K-1), hpa, mem.Page4K); err != nil {
			return mapping{}, err
		}
		vm.touchedPages++
		return nativeMapping(v, hpa, mem.Page4K), nil
	}

	page := v &^ (mem.PageSize4K - 1)
	gpa, err := vm.gDataA.Alloc4K()
	if err != nil {
		return mapping{}, err
	}
	if err := vm.space.Guest.Map(page, gpa, mem.Page4K); err != nil {
		return mapping{}, err
	}
	// The hypervisor backs guest-physical data with 2 MB EPT mappings, as
	// KVM with THP does: host frames are carved per 2 MB gPA region on
	// first touch. This is what gives the nested TLB and host-side PSCs
	// their reach — and what the paper's near-native virtualized walk
	// costs for well-behaved workloads (Table 1) depend on.
	if vm.ept4K {
		hpa, err := vm.hostA.Alloc4K()
		if err != nil {
			return mapping{}, err
		}
		if err := vm.space.Host.Map(mem.VAddr(gpa), hpa, mem.Page4K); err != nil {
			return mapping{}, err
		}
		vm.touchedPages++
		return mapping{gFrame: gpa, gSize: mem.Page4K, hFrame: hpa}, nil
	}
	region := mem.VAddr(gpa) &^ (mem.PageSize2M - 1)
	hpa, _, ok := vm.space.Host.Lookup(region)
	if !ok {
		if hpa, err = vm.hostA.Alloc2M(); err != nil {
			return mapping{}, err
		}
		if err := vm.space.Host.Map(region, hpa, mem.Page2M); err != nil {
			return mapping{}, err
		}
	}
	vm.touchedPages++
	return mapping{gFrame: gpa, gSize: mem.Page4K, hFrame: hpa + (gpa - mem.PAddr(region))}, nil
}

// nativeMapping is a native VM's mapping of v under a guest leaf of the
// given size, whose frame is already host-physical.
func nativeMapping(v mem.VAddr, frame mem.PAddr, size mem.PageSize) mapping {
	return mapping{gFrame: frame, gSize: size,
		hFrame: frame + mem.PAddr(mem.PageOffset(v, size)&^(mem.PageSize4K-1))}
}

// lookup walks the tables for an already-mapped v.
func (vm *vmState) lookup(v mem.VAddr) (mapping, bool) {
	frame, size, ok := vm.space.Guest.Lookup(v)
	if !ok {
		return mapping{}, false
	}
	if !vm.space.Virtualized() {
		return nativeMapping(v, frame, size), true
	}
	hpa, ok := vm.space.Host.Translate(mem.VAddr(frame))
	return mapping{gFrame: frame, gSize: size, hFrame: hpa}, ok
}
