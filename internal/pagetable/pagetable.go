// Package pagetable implements x86-64-style multi-level radix page tables
// built in simulated physical memory. Table nodes occupy real (simulated)
// 4 KB frames, so a walk yields the physical addresses of the page-table
// entries it touches — which is what lets the simulator model PTE caching
// in the data caches, the effect at the heart of the paper's motivation
// (§2.1, Figure 2).
//
// The same type serves both dimensions of a virtualized system: the guest
// table's "physical" addresses are guest-physical (gPA), the host/EPT
// table's are host-physical (hPA). The nested walker in internal/walker
// composes the two.
package pagetable

import (
	"fmt"

	"github.com/csalt-sim/csalt/internal/mem"
)

const (
	entriesPerNode = 512 // 9 index bits per level
	entryBytes     = 8
)

// FrameAlloc supplies 4 KB frames for table nodes, in whatever address
// domain the table lives in.
type FrameAlloc interface {
	Alloc4K() (mem.PAddr, error)
}

// Step is one page-table entry touched during a walk: the entry's address
// (in the table's address domain) and the level it belongs to (Levels()
// down to 1; level 1 entries are leaf PTEs for 4 KB pages).
type Step struct {
	Addr  mem.PAddr
	Level int
}

// entry is one PTE.
type entry struct {
	present bool
	leaf    bool
	next    mem.PAddr // next node frame, or mapped frame when leaf
	size    mem.PageSize
}

// node is one table node occupying a 4 KB frame. Entries are stored
// sparsely: big sparse address spaces (fragmented heaps) populate only a
// handful of slots per node, and a dense 512-entry array per node would
// make large simulations needlessly memory-hungry.
type node struct {
	frame   mem.PAddr
	entries map[int]entry
}

// Table is one radix page table.
type Table struct {
	levels int
	alloc  FrameAlloc
	root   *node
	// nodes indexes interior nodes by frame address, letting walks follow
	// frame pointers the way hardware does.
	nodes map[mem.PAddr]*node

	nodeCount int
	mapped4K  uint64
	mapped2M  uint64
}

// New builds an empty table with the given depth (4 for x86-64, 5 for the
// extended format the paper cites as motivation).
func New(alloc FrameAlloc, levels int) (*Table, error) {
	if levels != 4 && levels != 5 {
		return nil, fmt.Errorf("pagetable: unsupported depth %d (want 4 or 5)", levels)
	}
	t := &Table{levels: levels, alloc: alloc, nodes: make(map[mem.PAddr]*node)}
	root, err := t.newNode()
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

func (t *Table) newNode() (*node, error) {
	frame, err := t.alloc.Alloc4K()
	if err != nil {
		return nil, fmt.Errorf("pagetable: allocating node: %w", err)
	}
	n := &node{frame: frame, entries: make(map[int]entry, 8)}
	t.nodes[frame] = n
	t.nodeCount++
	return n, nil
}

// Levels returns the table depth.
func (t *Table) Levels() int { return t.levels }

// Root returns the root node's frame address (the CR3 analogue).
func (t *Table) Root() mem.PAddr { return t.root.frame }

// NodeCount returns the number of table nodes allocated so far.
func (t *Table) NodeCount() int { return t.nodeCount }

// MappedPages returns the number of 4K and 2M mappings installed.
func (t *Table) MappedPages() (p4k, p2m uint64) { return t.mapped4K, t.mapped2M }

// index extracts the 9-bit index for the given level (levels..1).
func index(v mem.VAddr, level int) int {
	shift := uint(mem.PageShift4K) + 9*uint(level-1)
	return int(uint64(v)>>shift) & (entriesPerNode - 1)
}

// leafLevel returns the level at which a page of the given size terminates.
func leafLevel(size mem.PageSize) int {
	if size == mem.Page2M {
		return 2
	}
	return 1
}

// Map installs a translation from the page containing v to frame. Frame
// must be aligned to the page size. Remapping an existing page to a
// different frame, or crossing a previously installed mapping of another
// size, is an error — the simulator never remaps.
func (t *Table) Map(v mem.VAddr, frame mem.PAddr, size mem.PageSize) error {
	if uint64(frame)&(size.Bytes()-1) != 0 {
		return fmt.Errorf("pagetable: frame %#x not aligned to %s page", frame, size)
	}
	stop := leafLevel(size)
	n := t.root
	for level := t.levels; level > stop; level-- {
		idx := index(v, level)
		e := n.entries[idx]
		if e.present && e.leaf {
			return fmt.Errorf("pagetable: %#x crosses existing %s leaf at level %d", v, e.size, level)
		}
		if !e.present {
			child, err := t.newNode()
			if err != nil {
				return err
			}
			e = entry{present: true, next: child.frame}
			n.entries[idx] = e
		}
		n = t.nodes[e.next]
	}
	idx := index(v, stop)
	if e, ok := n.entries[idx]; ok && e.present {
		if e.leaf && e.next == frame && e.size == size {
			return nil // idempotent remap of the identical translation
		}
		return fmt.Errorf("pagetable: %#x already mapped", v)
	}
	n.entries[idx] = entry{present: true, leaf: true, next: frame, size: size}
	if size == mem.Page2M {
		t.mapped2M++
	} else {
		t.mapped4K++
	}
	return nil
}

// Lookup translates v without recording steps. It returns the mapped
// frame, the page size, and whether a mapping exists.
func (t *Table) Lookup(v mem.VAddr) (mem.PAddr, mem.PageSize, bool) {
	n := t.root
	for level := t.levels; level >= 1; level-- {
		e := n.entries[index(v, level)]
		if !e.present {
			return 0, 0, false
		}
		if e.leaf {
			return e.next, e.size, true
		}
		n = t.nodes[e.next]
	}
	return 0, 0, false
}

// Translate resolves v to a full physical address (frame plus in-page
// offset), or false if unmapped.
func (t *Table) Translate(v mem.VAddr) (mem.PAddr, bool) {
	frame, size, ok := t.Lookup(v)
	if !ok {
		return 0, false
	}
	return frame + mem.PAddr(mem.PageOffset(v, size)), true
}

// Walk translates v, appending each touched PTE's address to steps (the
// 1-D walk of Figure 2a). It returns the extended slice, the leaf frame,
// the page size and whether the translation exists; on a failed walk the
// steps up to and including the non-present entry are still returned,
// since hardware touches them before faulting.
func (t *Table) Walk(v mem.VAddr, steps []Step) ([]Step, mem.PAddr, mem.PageSize, bool) {
	n := t.root
	for level := t.levels; level >= 1; level-- {
		pte := n.frame + mem.PAddr(index(v, level)*entryBytes)
		steps = append(steps, Step{Addr: pte, Level: level})
		e := n.entries[index(v, level)]
		if !e.present {
			return steps, 0, 0, false
		}
		if e.leaf {
			return steps, e.next, e.size, true
		}
		n = t.nodes[e.next]
	}
	return steps, 0, 0, false
}
