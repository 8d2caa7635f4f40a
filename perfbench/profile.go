package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modulePath is the import path of the program under measurement. A
// profile frame belongs to the program when its function name starts with
// this path; the frame's package names its layer.
const modulePath = "github.com/csalt-sim/csalt"

// layers are the program packages reported as host.<layer>_s. A program
// package not listed here is charged to "other"; the benchmark's own
// frames (package main) to "bench"; a sample with no program or benchmark
// frame at all (GC workers, the scheduler) to "gc".
var layers = []string{
	"sim", "tlb", "walker", "cache", "core", "dram", "cpu", "workload",
	"pagetable", "mem", "stats", "trace", "snapshot", "checkpoint",
	"experiment", "introspect", "invariant", "bench", "other", "gc",
}

// sample is one CPU-profile sample: its stack as function names, innermost
// (leaf) first, and the CPU time it stands for.
type sample struct {
	stack []string
	nanos int64
}

// layerOf reports the layer of one frame's function name, and whether the
// frame belongs to the program or the benchmark at all.
func layerOf(fn string) (string, bool) {
	if strings.HasPrefix(fn, "main.") {
		return "bench", true
	}
	rest, ok := strings.CutPrefix(fn, modulePath)
	if !ok || rest == "" || (rest[0] != '/' && rest[0] != '.') {
		return "", false
	}
	pkg, ok := strings.CutPrefix(rest, "/internal/")
	if !ok {
		return "other", true // the root package or a command
	}
	if i := strings.IndexByte(pkg, '.'); i >= 0 {
		pkg = pkg[:i]
	}
	for _, l := range layers {
		if l == pkg {
			return pkg, true
		}
	}
	return "other", true
}

// chargeLayer names the layer a sample is charged to: that of the
// innermost frame from the program (or the benchmark), else "gc".
func chargeLayer(stack []string) string {
	for _, fn := range stack {
		if l, ok := layerOf(fn); ok {
			return l
		}
	}
	return "gc"
}

// byLayer sums sample CPU seconds per charged layer.
func byLayer(samples []sample) map[string]float64 {
	out := make(map[string]float64, len(layers))
	for _, s := range samples {
		out[chargeLayer(s.stack)] += float64(s.nanos) / 1e9
	}
	return out
}

// cumulative sums the CPU seconds of samples with fn anywhere on the stack.
func cumulative(samples []sample, fn string) float64 {
	var ns int64
	for _, s := range samples {
		for _, f := range s.stack {
			if f == fn {
				ns += s.nanos
				break
			}
		}
	}
	return float64(ns) / 1e9
}

// parseProfile decodes a gzipped pprof CPU profile as runtime/pprof writes
// it. Only the fields attribution needs are read: sample stacks and their
// CPU values, locations with their (inlined) lines, functions and strings.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct{ locs, values []uint64 }
	var (
		strs      []string
		types     []uint64 // string index of each sample type
		rawSamps  []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string index
	)
	err = walkFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return walkFields(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := walkFields(b, func(f int, v uint64, p []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = appendVarints(s.locs, v, p)
				case 2:
					s.values, err = appendVarints(s.values, v, p)
				}
				return err
			})
			rawSamps = append(rawSamps, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f int, v uint64, p []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(p, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The CPU value is the sample type named "cpu"; a profile without one
	// has nothing to attribute.
	cpuIdx := -1
	for i, t := range types {
		if t < uint64(len(strs)) && strs[t] == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	name := func(fid uint64) string {
		if si, ok := funcNames[fid]; ok && si < uint64(len(strs)) {
			return strs[si]
		}
		return "?"
	}
	out := make([]sample, 0, len(rawSamps))
	for _, rs := range rawSamps {
		if cpuIdx >= len(rs.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		s := sample{nanos: int64(rs.values[cpuIdx])}
		for _, loc := range rs.locs {
			for _, fid := range locFuncs[loc] {
				s.stack = append(s.stack, name(fid))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// walkFields calls fn for each protobuf field in buf: varint fields get
// their value, length-delimited fields their bytes. Fixed-width fields
// are skipped; the profile schema uses none that attribution reads.
func walkFields(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: truncated bytes field")
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(buf) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, which arrive
// either one per field (v) or packed into one length-delimited field (p).
func appendVarints(dst []uint64, v uint64, p []byte) ([]uint64, error) {
	if p == nil {
		return append(dst, v), nil
	}
	for len(p) > 0 {
		x, n := binary.Uvarint(p)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		dst = append(dst, x)
		p = p[n:]
	}
	return dst, nil
}
