// Package obs is the simulator's observability layer: a hierarchical
// metrics registry every component publishes its counters into, a
// structured event tracer (JSONL or Chrome trace_event) for the transient
// decisions the end-of-run tables average away, and an epoch time-series
// sampler that records per-epoch metric vectors into a bounded ring
// buffer.
//
// The layer is strictly passive: registered metrics are closures over live
// counters that are only read at snapshot time, and every trace hook is a
// zero-allocation no-op when its event kind is disabled (or the tracer is
// nil), so an unobserved simulation is byte-identical to one that never
// imported this package.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"github.com/csalt-sim/csalt/internal/stats"
)

// metricKind distinguishes monotone counters from point-in-time gauges,
// so exposition formats that care (Prometheus TYPE lines) can tell them
// apart; JSON/text snapshots treat both as plain scalars.
type metricKind uint8

const (
	kindGauge metricKind = iota
	kindCounter
)

// String renders the Prometheus TYPE keyword.
func (k metricKind) String() string {
	if k == kindCounter {
		return "counter"
	}
	return "gauge"
}

// metric is one registered scalar: a name plus a closure reading the live
// value.
type metric struct {
	name string
	kind metricKind
	get  func() float64
}

// histEntry is one registered log2 histogram.
type histEntry struct {
	name string
	h    *stats.Log2Histogram
}

// Group is one component's namespace in the registry ("tlb.l2tlb0",
// "dram.ddr4-2133", "csalt.l3", ...). Metrics registered under a group are
// reported as <group>.<metric>.
type Group struct {
	name    string
	metrics []metric
	hists   []histEntry
}

// Name returns the group's namespace.
func (g *Group) Name() string { return g.name }

// Gauge registers a float-valued metric read lazily at snapshot time.
func (g *Group) Gauge(name string, get func() float64) {
	if g == nil {
		return
	}
	g.metrics = append(g.metrics, metric{name: name, kind: kindGauge, get: get})
}

// Counter registers a monotonically increasing count; it is exported as a
// float64 like every scalar.
func (g *Group) Counter(name string, get func() uint64) {
	if g == nil {
		return
	}
	g.metrics = append(g.metrics, metric{name: name, kind: kindCounter,
		get: func() float64 { return float64(get()) }})
}

// Histogram registers a log2-bucketed distribution. The histogram is read
// (never written) at snapshot time.
func (g *Group) Histogram(name string, h *stats.Log2Histogram) {
	if g == nil || h == nil {
		return
	}
	g.hists = append(g.hists, histEntry{name: name, h: h})
}

// Registry is the hierarchical metrics registry. Components register their
// stat blocks into named groups at observer-attach time; Snapshot walks
// every closure and produces an exportable value. The zero registry is not
// usable; call NewRegistry. All methods are safe on a nil *Registry (they
// do nothing / return nothing), so callers may register unconditionally.
type Registry struct {
	mu     sync.Mutex
	order  []string
	groups map[string]*Group
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{groups: make(map[string]*Group)}
}

// Group returns the named group, creating it on first use.
func (r *Registry) Group(name string) *Group {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.groups[name]; ok {
		return g
	}
	g := &Group{name: name}
	r.groups[name] = g
	r.order = append(r.order, name)
	return g
}

// Groups returns the registered group names in registration order.
func (r *Registry) Groups() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// HistSnapshot is the exported form of a log2 histogram: summary moments
// plus the non-empty buckets.
type HistSnapshot struct {
	Total   uint64         `json:"total"`
	Sum     uint64         `json:"sum"`
	Mean    float64        `json:"mean"`
	Buckets []BucketExport `json:"buckets,omitempty"`
}

// BucketExport is one non-empty histogram bucket [Lo, Hi).
type BucketExport struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// Snapshot maps group name → metric name → value, where a value is either
// a float64 (gauges, counters) or a HistSnapshot. encoding/json sorts map
// keys, so the JSON export is deterministic.
type Snapshot map[string]map[string]interface{}

// Snapshot reads every registered metric once and returns the result.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(Snapshot, len(r.order))
	for _, name := range r.order {
		g := r.groups[name]
		m := make(map[string]interface{}, len(g.metrics)+len(g.hists))
		for _, mt := range g.metrics {
			m[mt.name] = mt.get()
		}
		for _, he := range g.hists {
			m[he.name] = snapshotHist(he.h)
		}
		out[name] = m
	}
	return out
}

func snapshotHist(h *stats.Log2Histogram) HistSnapshot {
	hs := HistSnapshot{Total: h.Total(), Sum: h.Sum(), Mean: h.Mean()}
	h.Nonzero(func(_ int, lo, hi, count uint64) {
		hs.Buckets = append(hs.Buckets, BucketExport{Lo: lo, Hi: hi, Count: count})
	})
	return hs
}

// WriteJSON writes the snapshot as indented JSON with deterministic key
// order.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText writes the snapshot as sorted "group.metric value" lines;
// histograms render as their summary plus non-empty buckets.
func (s Snapshot) WriteText(w io.Writer) error {
	groups := make([]string, 0, len(s))
	for g := range s {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		names := make([]string, 0, len(s[g]))
		for n := range s[g] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			switch v := s[g][n].(type) {
			case float64:
				if _, err := fmt.Fprintf(w, "%s.%s %g\n", g, n, v); err != nil {
					return err
				}
			case HistSnapshot:
				if _, err := fmt.Fprintf(w, "%s.%s total=%d mean=%.2f", g, n, v.Total, v.Mean); err != nil {
					return err
				}
				for _, b := range v.Buckets {
					if _, err := fmt.Fprintf(w, " [%d,%d):%d", b.Lo, b.Hi, b.Count); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintln(w); err != nil {
					return err
				}
			default:
				if _, err := fmt.Fprintf(w, "%s.%s %v\n", g, n, v); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
