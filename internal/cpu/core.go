// Package cpu models the processor cores that drive the memory system:
// trace playback with a base CPI for non-memory work, a *blocking*
// translation path (a TLB miss stalls the core until the translation
// resolves, as the paper models — §2.2, §4.2), and an MLP window that lets
// data misses overlap with subsequent work, reproducing the overlap the
// paper's methodology section insists on modelling rather than adding
// latencies linearly.
//
// Context switching is performed here: each core owns one trace context per
// virtual machine and rotates between them every SwitchInterval cycles,
// with no TLB or cache flushes (ASID tagging makes flushes unnecessary;
// capacity contention is the whole story).
package cpu

import (
	"fmt"

	"github.com/csalt-sim/csalt/internal/introspect"
	"github.com/csalt-sim/csalt/internal/mem"
	"github.com/csalt-sim/csalt/internal/obs"
	"github.com/csalt-sim/csalt/internal/stats"
	"github.com/csalt-sim/csalt/internal/trace"
)

// Translator resolves virtual addresses; the simulator's memory system
// implements it per translation organisation (conventional walk, POM-TLB,
// TSB).
type Translator interface {
	// Translate returns the completion cycle of the translation and the
	// host-physical address. blocking reports whether the request left
	// the TLB hierarchy (an L2 TLB miss): those stall the pipeline until
	// done, as the paper models (§2.2); L1-miss/L2-hit latency is ordinary
	// load latency that out-of-order execution overlaps.
	Translate(now uint64, v mem.VAddr, asid mem.ASID, coreID int) (done uint64, pa mem.PAddr, blocking bool, err error)
}

// DataPath issues data accesses into the cache hierarchy.
type DataPath interface {
	// AccessData returns the completion cycle of a load (or the visibility
	// cycle of a posted store).
	AccessData(now uint64, pa mem.PAddr, write bool, coreID int) (done uint64)
}

// Context is one schedulable VM thread on a core.
type Context struct {
	Source trace.Source
	ASID   mem.ASID
}

// Config parameterises a core.
type Config struct {
	ID             int
	CPIx100        uint64 // base cycles per non-memory instruction × 100 (50 = 0.5 CPI)
	MLPWindow      int    // maximum overlapped outstanding data loads
	SwitchInterval uint64 // cycles between context switches; 0 = never switch
}

// CoreStats aggregates a core's retirement counters.
type CoreStats struct {
	Instructions    stats.Counter
	MemRefs         stats.Counter
	Loads           stats.Counter
	Stores          stats.Counter
	ContextSwitches stats.Counter
	TranslateStall  stats.Counter // cycles spent blocked on translation
	DataStall       stats.Counter // cycles spent blocked on the MLP window
}

// Core is one simulated processor core.
type Core struct {
	cfg        Config
	contexts   []Context
	cur        int
	translator Translator
	data       DataPath

	cycle      uint64
	cpiAccum   uint64 // fractional-cycle accumulator (hundredths)
	nextSwitch uint64

	// outstanding is a ring of data-load completion times (the MLP/MSHR
	// window); issuing past capacity stalls until the oldest completes.
	outstanding []uint64
	outHead     int
	outCount    int

	// tr receives context-switch events; nil (the default) keeps the
	// switch path allocation- and branch-cheap.
	tr *obs.Tracer

	// ip receives cycle-attribution hooks; nil unless an attribution
	// plane is attached.
	ip *introspect.CoreProbe

	Stats CoreStats
}

// SetTrace attaches an event tracer; nil detaches.
func (c *Core) SetTrace(t *obs.Tracer) { c.tr = t }

// SetIntrospect attaches a cycle-attribution probe; nil detaches.
func (c *Core) SetIntrospect(p *introspect.CoreProbe) { c.ip = p }

// CurrentASID returns the address space of the running context.
func (c *Core) CurrentASID() mem.ASID { return c.contexts[c.cur].ASID }

// RegisterMetrics publishes the core's counters into an observability
// group. Every metric is a closure over the live core — a bound method
// value on a value-receiver Counter would freeze the count at registration
// time.
func (c *Core) RegisterMetrics(g *obs.Group) {
	g.Counter("instructions", func() uint64 { return c.Stats.Instructions.Value() })
	g.Counter("mem_refs", func() uint64 { return c.Stats.MemRefs.Value() })
	g.Counter("loads", func() uint64 { return c.Stats.Loads.Value() })
	g.Counter("stores", func() uint64 { return c.Stats.Stores.Value() })
	g.Counter("context_switches", func() uint64 { return c.Stats.ContextSwitches.Value() })
	g.Counter("translate_stall_cycles", func() uint64 { return c.Stats.TranslateStall.Value() })
	g.Counter("data_stall_cycles", func() uint64 { return c.Stats.DataStall.Value() })
	g.Counter("cycle", func() uint64 { return c.cycle })
	g.Gauge("ipc", c.IPC)
}

// New builds a core over its contexts and memory paths.
func New(cfg Config, contexts []Context, tr Translator, dp DataPath) (*Core, error) {
	if len(contexts) == 0 {
		return nil, fmt.Errorf("cpu: core %d needs at least one context", cfg.ID)
	}
	if cfg.MLPWindow <= 0 {
		cfg.MLPWindow = 8
	}
	if cfg.CPIx100 == 0 {
		cfg.CPIx100 = 50
	}
	c := &Core{
		cfg:         cfg,
		contexts:    contexts,
		translator:  tr,
		data:        dp,
		outstanding: make([]uint64, cfg.MLPWindow),
	}
	if cfg.SwitchInterval > 0 {
		c.nextSwitch = cfg.SwitchInterval
	}
	return c, nil
}

// MustNew panics on configuration errors.
func MustNew(cfg Config, contexts []Context, tr Translator, dp DataPath) *Core {
	c, err := New(cfg, contexts, tr, dp)
	if err != nil {
		panic(err)
	}
	return c
}

// ID returns the core's identifier.
func (c *Core) ID() int { return c.cfg.ID }

// Cycle returns the core's current clock.
func (c *Core) Cycle() uint64 { return c.cycle }

// CurrentContext returns the index of the running context.
func (c *Core) CurrentContext() int { return c.cur }

// IPC returns retired instructions per cycle so far.
func (c *Core) IPC() float64 {
	if c.cycle == 0 {
		return 0
	}
	return float64(c.Stats.Instructions.Value()) / float64(c.cycle)
}

// advanceNonMem retires n non-memory instructions at the base CPI and
// returns the cycles it advanced the clock by.
func (c *Core) advanceNonMem(n uint64) uint64 {
	c.cpiAccum += n * c.cfg.CPIx100
	adv := c.cpiAccum / 100
	c.cycle += adv
	c.cpiAccum %= 100
	return adv
}

// maybeSwitch rotates to the next context when the switch interval
// elapses. Nothing is flushed: TLB entries are ASID-tagged and caches are
// physically tagged.
func (c *Core) maybeSwitch() {
	if c.cfg.SwitchInterval == 0 || len(c.contexts) < 2 {
		return
	}
	for c.cycle >= c.nextSwitch {
		from := c.cur
		c.cur = (c.cur + 1) % len(c.contexts)
		c.nextSwitch += c.cfg.SwitchInterval
		c.Stats.ContextSwitches.Inc()
		c.tr.ContextSwitch(c.cycle, c.cfg.ID, from, c.cur)
		if c.ip != nil {
			c.ip.Switch(c.cycle, uint64(c.contexts[from].ASID), uint64(c.contexts[c.cur].ASID))
		}
	}
}

// issueLoad inserts a load completion into the MLP window, stalling on the
// oldest outstanding miss if the window is full.
func (c *Core) issueLoad(done uint64) {
	if c.outCount == len(c.outstanding) {
		oldest := c.outstanding[c.outHead]
		c.outHead++
		if c.outHead == len(c.outstanding) {
			c.outHead = 0
		}
		c.outCount--
		if oldest > c.cycle {
			c.Stats.DataStall.Add(oldest - c.cycle)
			if c.ip != nil {
				c.ip.DataStall(oldest - c.cycle)
			}
			c.cycle = oldest
		}
	}
	tail := c.outHead + c.outCount
	if tail >= len(c.outstanding) {
		tail -= len(c.outstanding)
	}
	c.outstanding[tail] = done
	c.outCount++
}

// Step retires one trace record (its non-memory prefix plus the memory
// reference). It reports false only when the active context's source is
// exhausted — endless generators always return true.
func (c *Core) Step() (bool, error) {
	c.maybeSwitch()
	ctx := &c.contexts[c.cur]
	r, ok := ctx.Source.Next()
	if !ok {
		return false, nil
	}
	compute := c.advanceNonMem(uint64(r.NonMem))

	// Translation. An L1 TLB hit returns done == now and costs nothing
	// extra. An L2 TLB hit adds its latency to the load's start time but
	// does not stall the pipeline; an L2 TLB miss is blocking and advances
	// the core clock to the translation's completion.
	done, pa, blocking, err := c.translator.Translate(c.cycle, r.Addr, ctx.ASID, c.cfg.ID)
	if err != nil {
		return false, fmt.Errorf("cpu: core %d: %w", c.cfg.ID, err)
	}
	if blocking && done > c.cycle {
		c.Stats.TranslateStall.Add(done - c.cycle)
		if c.ip != nil {
			c.ip.TranslateStall(done - c.cycle)
		}
		c.cycle = done
	}

	// Data access: stores are posted; loads enter the MLP window. The
	// access starts once the translation is available.
	start := c.cycle
	if done > start {
		start = done
	}
	dataDone := c.data.AccessData(start, pa, r.Kind == trace.Store, c.cfg.ID)
	if r.Kind == trace.Store {
		c.Stats.Stores.Inc()
	} else {
		c.Stats.Loads.Inc()
		c.issueLoad(dataDone)
	}

	// The memory instruction itself occupies an issue slot. Both compute
	// charges go to the attribution plane under one guard: the buckets are
	// plain sums, read only between steps.
	compute += c.advanceNonMem(1)
	if c.ip != nil {
		c.ip.Compute(compute)
	}
	c.Stats.Instructions.Add(r.Instructions())
	c.Stats.MemRefs.Inc()
	return true, nil
}

// Drain waits for all outstanding loads, advancing the clock to the last
// completion; call at the end of a measured run so IPC reflects all work.
func (c *Core) Drain() {
	for c.outCount > 0 {
		done := c.outstanding[c.outHead]
		c.outHead = (c.outHead + 1) % len(c.outstanding)
		c.outCount--
		if done > c.cycle {
			if c.ip != nil {
				c.ip.DrainStall(done - c.cycle)
			}
			c.cycle = done
		}
	}
}
