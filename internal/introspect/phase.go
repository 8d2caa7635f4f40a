package introspect

// PhaseBoundary is one detected execution-phase change-point: the
// windowed IPC or MPKI moved by more than the configured relative
// threshold between consecutive windows. Boundaries are the interval
// seeds for sampled simulation (SMARTS/SimPoint-style representative
// intervals).
type PhaseBoundary struct {
	// Window is the 1-based index of the window that opened the phase.
	Window uint64 `json:"window"`
	// Cycle is the maximum core cycle at the window boundary.
	Cycle      uint64  `json:"cycle"`
	IPCBefore  float64 `json:"ipc_before"`
	IPCAfter   float64 `json:"ipc_after"`
	MPKIBefore float64 `json:"mpki_before"`
	MPKIAfter  float64 `json:"mpki_after"`
}

// maxPhaseBoundaries bounds detector memory; change-points past the cap
// are counted, not stored.
const maxPhaseBoundaries = 16384

// phaseDetector is the online change-point detector. It consumes only
// monotone counters (instructions retired, max core cycle, the plane's
// never-reset L2 TLB miss count), so its decisions are deterministic and
// unaffected by the warmup stats reset.
type phaseDetector struct {
	threshold float64

	window                         uint64
	lastInstr, lastCycle, lastMiss uint64
	havePrev                       bool

	ipc, mpki float64
	haveRates bool

	bounds  []PhaseBoundary
	dropped uint64
}

// sample closes one window with the current monotone totals and tests
// the windowed rates against the previous window.
func (d *phaseDetector) sample(p *Plane, instr, cycle, miss uint64) {
	d.window++
	if !d.havePrev {
		d.havePrev = true
		d.lastInstr, d.lastCycle, d.lastMiss = instr, cycle, miss
		return
	}
	di := instr - d.lastInstr
	dc := cycle - d.lastCycle
	dm := miss - d.lastMiss
	d.lastInstr, d.lastCycle, d.lastMiss = instr, cycle, miss
	if di == 0 || dc == 0 {
		return
	}
	ipc := float64(di) / float64(dc)
	mpki := 1000 * float64(dm) / float64(di)
	if d.haveRates && (relChange(ipc, d.ipc) > d.threshold || relChange(mpki, d.mpki) > d.threshold) {
		if len(d.bounds) < maxPhaseBoundaries {
			d.bounds = append(d.bounds, PhaseBoundary{
				Window: d.window, Cycle: cycle,
				IPCBefore: d.ipc, IPCAfter: ipc,
				MPKIBefore: d.mpki, MPKIAfter: mpki,
			})
		} else {
			d.dropped++
		}
		p.tr.Phase(cycle, d.window, d.ipc, ipc, d.mpki, mpki)
	}
	d.ipc, d.mpki = ipc, mpki
	d.haveRates = true
}

// relChange is |cur−prev| relative to prev, with an epsilon floor so a
// rate appearing from zero registers as a change rather than dividing by
// zero.
func relChange(cur, prev float64) float64 {
	d := cur - prev
	if d < 0 {
		d = -d
	}
	base := prev
	if base < 1e-9 {
		base = 1e-9
	}
	return d / base
}

// PhaseSample feeds the detector one window boundary: total instructions
// retired and the maximum core cycle. The miss input is the plane's own
// monotone L2 TLB miss counter.
func (p *Plane) PhaseSample(instr, cycle uint64) {
	if p == nil {
		return
	}
	p.phase.sample(p, instr, cycle, p.l2MissEver)
}

// PhaseBoundaries returns the detected boundaries (retained up to the
// internal cap).
func (p *Plane) PhaseBoundaries() []PhaseBoundary {
	out := make([]PhaseBoundary, len(p.phase.bounds))
	copy(out, p.phase.bounds)
	return out
}
