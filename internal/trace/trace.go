// Package trace defines the memory-reference stream that drives the
// simulator: one Record per memory instruction, carrying the guest virtual
// address, the address-space identifier, and the number of non-memory
// instructions retired since the previous record.
//
// The paper drives its simulator with Pin-collected timed traces played back
// with a 10 ms context-switch interleave (§4.2). Here traces come either
// from the synthetic generators in internal/workload or from binary trace
// files (cmd/tracegen); each context keeps its own Source, and internal/cpu
// performs the context-switch playback in simulated cycles.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"github.com/csalt-sim/csalt/internal/mem"
)

// Kind distinguishes loads from stores.
type Kind uint8

// Record kinds.
const (
	Load Kind = iota
	Store
)

// String returns "load" or "store".
func (k Kind) String() string {
	if k == Store {
		return "store"
	}
	return "load"
}

// Record is one memory reference. NonMem is the number of non-memory
// instructions retired immediately before this reference; it sets the
// workload's memory intensity and advances the core clock between
// references.
type Record struct {
	Kind   Kind
	Addr   mem.VAddr
	ASID   mem.ASID
	NonMem uint32
}

// Instructions returns the instruction count this record represents: the
// memory instruction itself plus the preceding non-memory instructions.
func (r Record) Instructions() uint64 { return uint64(r.NonMem) + 1 }

// Source produces a stream of records. Next reports false when the stream
// is exhausted. Sources are not safe for concurrent use.
type Source interface {
	Next() (Record, bool)
}

// Footprinter is an optional Source extension: it enumerates every page
// the source can touch, letting the simulator pre-populate translation
// state to model steady-state execution.
type Footprinter interface {
	VisitFootprint(f func(mem.VAddr))
}

// SliceSource adapts a []Record to a Source; it is primarily a test helper
// but also backs replay of fully-materialised traces.
type SliceSource struct {
	recs []Record
	pos  int
}

// NewSliceSource returns a Source reading from recs in order.
func NewSliceSource(recs []Record) *SliceSource { return &SliceSource{recs: recs} }

// Next implements Source.
func (s *SliceSource) Next() (Record, bool) {
	if s.pos >= len(s.recs) {
		return Record{}, false
	}
	r := s.recs[s.pos]
	s.pos++
	return r, true
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// LoopSource wraps a finite record slice into an endless stream, rewinding
// on exhaustion. Generators are usually endless already; LoopSource lets
// recorded traces drive long simulations too.
type LoopSource struct {
	recs []Record
	pos  int
}

// NewLoopSource returns an endless Source cycling through recs. It panics
// on an empty slice, which could never make progress.
func NewLoopSource(recs []Record) *LoopSource {
	if len(recs) == 0 {
		panic("trace: LoopSource needs at least one record")
	}
	return &LoopSource{recs: recs}
}

// Next implements Source; it never reports false.
func (l *LoopSource) Next() (Record, bool) {
	r := l.recs[l.pos]
	l.pos++
	if l.pos == len(l.recs) {
		l.pos = 0
	}
	return r, true
}

// Take materialises up to n records from src.
func Take(src Source, n int) []Record {
	out := make([]Record, 0, n)
	for len(out) < n {
		r, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out
}

// Binary trace file format:
//
//	magic "CSTR" | version u8 | record*
//	record: kind u8 | asid uvarint | addrDelta svarint (zig-zag from
//	        previous address) | nonmem uvarint
//
// Address deltas make sequential traces compress to ~3 bytes/record.
const (
	magic   = "CSTR"
	version = 1
)

// Writer encodes records to a binary trace stream.
type Writer struct {
	w        *bufio.Writer
	prevAddr uint64
	started  bool
	buf      [binary.MaxVarintLen64]byte
}

// NewWriter creates a Writer over w and writes the header immediately.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, fmt.Errorf("trace: writing magic: %w", err)
	}
	if err := bw.WriteByte(version); err != nil {
		return nil, fmt.Errorf("trace: writing version: %w", err)
	}
	return &Writer{w: bw, started: true}, nil
}

// Write appends one record.
func (w *Writer) Write(r Record) error {
	if err := w.w.WriteByte(byte(r.Kind)); err != nil {
		return err
	}
	n := binary.PutUvarint(w.buf[:], uint64(r.ASID))
	if _, err := w.w.Write(w.buf[:n]); err != nil {
		return err
	}
	delta := int64(uint64(r.Addr) - w.prevAddr)
	w.prevAddr = uint64(r.Addr)
	n = binary.PutVarint(w.buf[:], delta)
	if _, err := w.w.Write(w.buf[:n]); err != nil {
		return err
	}
	n = binary.PutUvarint(w.buf[:], uint64(r.NonMem))
	_, err := w.w.Write(w.buf[:n])
	return err
}

// Flush flushes buffered output; call it before closing the underlying file.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader decodes a binary trace stream; it implements Source (with errors
// surfaced via Err after Next reports false).
type Reader struct {
	r        *bufio.Reader
	prevAddr uint64
	err      error
}

// NewReader creates a Reader over r, validating the header.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head[:len(magic)]) != magic {
		return nil, errors.New("trace: bad magic")
	}
	if head[len(magic)] != version {
		return nil, fmt.Errorf("trace: unsupported version %d", head[len(magic)])
	}
	return &Reader{r: br}, nil
}

// Next implements Source. After it reports false, check Err to distinguish
// clean EOF from a corrupt stream.
func (r *Reader) Next() (Record, bool) {
	if r.err != nil {
		return Record{}, false
	}
	kind, err := r.r.ReadByte()
	if err != nil {
		if err != io.EOF {
			r.err = err
		}
		return Record{}, false
	}
	if kind > byte(Store) {
		r.err = fmt.Errorf("trace: bad record kind %d", kind)
		return Record{}, false
	}
	asid, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.err = fmt.Errorf("trace: truncated record: %w", err)
		return Record{}, false
	}
	delta, err := binary.ReadVarint(r.r)
	if err != nil {
		r.err = fmt.Errorf("trace: truncated record: %w", err)
		return Record{}, false
	}
	r.prevAddr += uint64(delta)
	nonmem, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.err = fmt.Errorf("trace: truncated record: %w", err)
		return Record{}, false
	}
	return Record{
		Kind:   Kind(kind),
		Addr:   mem.VAddr(r.prevAddr),
		ASID:   mem.ASID(asid),
		NonMem: uint32(nonmem),
	}, true
}

// Err returns the first decode error encountered, or nil on clean EOF.
func (r *Reader) Err() error { return r.err }
