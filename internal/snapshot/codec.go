package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
)

// The payload codec: one reflection-driven encoder/decoder that walks the
// State tree by type, fields in declaration order, little-endian. There is
// no per-type code, so a field added to the tree later is serialised
// without further work; a field of a kind the codec cannot carry (a map,
// an interface, a channel) makes compile fail, which TestStateKindsEncodable
// turns into a test failure rather than a silently dropped field.
//
// Encoding by kind:
//
//	bool                 one byte, 0 or 1
//	int kinds            zig-zag varint
//	uint kinds           uvarint
//	float64              8 bytes, raw IEEE-754 bits
//	string               uvarint length, then the bytes
//	array                its elements in order
//	struct               its fields in declaration order
//	pointer              presence byte (0 nil, 1 set), then the element
//	slice                uvarint (length+1), 0 for nil, then:
//	  []uint64           alternating (zero-run, literal-run) uvarint
//	                     counts, each literal run followed by its words
//	                     as uvarints; literal words are non-zero
//	  []bool             the bits packed eight to a byte, low bit first
//	  other              the elements in order
//
// The encoding is canonical: each value has exactly one byte form, and the
// decoder rejects any other (overlong varints, zero literal words, empty
// runs mid-slice, stray padding bits), so a payload that decodes always
// re-encodes to the same bytes. Every declared length is checked against
// the bytes that remain before anything is allocated (each element costs
// at least one byte), except a []uint64, whose zero runs cost almost
// nothing on disk: the lengths of all of them together are capped at
// maxWords instead, on both the encode and the decode side, and each
// literal run must fit in the bytes that remain.

// maxWords caps the total length of the []uint64 slices in one payload:
// 32 Mi words (256 MiB), 16x what a snapshot with the default 16 MB
// POM-TLB holds. It bounds what a crafted payload can make the decoder
// allocate.
const maxWords = 1 << 25

// corruptPanic carries a payload parse failure out of the recursive
// decoder; decodePayload recovers it into an error wrapping ErrCorrupt and
// re-raises any other panic.
type corruptPanic struct{ msg string }

// codec encodes and decodes one Go type. min is the fewest bytes any value
// of the type encodes to, used to bound declared slice lengths.
type codec struct {
	enc func(e *encoder, v reflect.Value)
	dec func(d *decoder, v reflect.Value)
	min int
}

// stateCodec compiles the State codec once per process.
var stateCodec = sync.OnceValues(func() (*codec, error) { return compile(reflect.TypeOf(State{})) })

var (
	wordsType = reflect.TypeOf([]uint64(nil))
	bitsType  = reflect.TypeOf([]bool(nil))
)

// compile builds the codec for t. It fails for a kind the format has no
// encoding for.
func compile(t reflect.Type) (*codec, error) {
	switch t {
	case wordsType:
		return &codec{enc: encWords, dec: decWords, min: 1}, nil
	case bitsType:
		return &codec{enc: encBits, dec: decBits, min: 1}, nil
	}
	switch t.Kind() {
	case reflect.Bool:
		return &codec{
			enc: func(e *encoder, v reflect.Value) { e.flag(v.Bool()) },
			dec: func(d *decoder, v reflect.Value) { v.SetBool(d.flag()) },
			min: 1,
		}, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return &codec{
			enc: func(e *encoder, v reflect.Value) { e.buf = binary.AppendVarint(e.buf, v.Int()) },
			dec: func(d *decoder, v reflect.Value) {
				x := d.varint()
				if v.OverflowInt(x) {
					d.fail("%d overflows %s", x, v.Type())
				}
				v.SetInt(x)
			},
			min: 1,
		}, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return &codec{
			enc: func(e *encoder, v reflect.Value) { e.buf = binary.AppendUvarint(e.buf, v.Uint()) },
			dec: func(d *decoder, v reflect.Value) {
				x := d.uvarint()
				if v.OverflowUint(x) {
					d.fail("%d overflows %s", x, v.Type())
				}
				v.SetUint(x)
			},
			min: 1,
		}, nil
	case reflect.Float64:
		return &codec{
			enc: func(e *encoder, v reflect.Value) {
				e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v.Float()))
			},
			dec: func(d *decoder, v reflect.Value) { v.SetFloat(math.Float64frombits(d.word())) },
			min: 8,
		}, nil
	case reflect.String:
		return &codec{
			enc: func(e *encoder, v reflect.Value) {
				e.buf = binary.AppendUvarint(e.buf, uint64(v.Len()))
				e.buf = append(e.buf, v.String()...)
			},
			dec: func(d *decoder, v reflect.Value) {
				n := d.uvarint()
				if n > uint64(len(d.buf)) {
					d.fail("%d-byte string exceeds the %d bytes left", n, len(d.buf))
				}
				v.SetString(string(d.take(int(n))))
			},
			min: 1,
		}, nil
	case reflect.Array:
		elem, err := compile(t.Elem())
		if err != nil {
			return nil, err
		}
		n := t.Len()
		return &codec{
			enc: func(e *encoder, v reflect.Value) {
				for i := 0; i < n; i++ {
					elem.enc(e, v.Index(i))
				}
			},
			dec: func(d *decoder, v reflect.Value) {
				for i := 0; i < n; i++ {
					elem.dec(d, v.Index(i))
				}
			},
			min: n * elem.min,
		}, nil
	case reflect.Struct:
		return compileStruct(t)
	case reflect.Pointer:
		elem, err := compile(t.Elem())
		if err != nil {
			return nil, err
		}
		return &codec{
			enc: func(e *encoder, v reflect.Value) {
				e.flag(!v.IsNil())
				if !v.IsNil() {
					elem.enc(e, v.Elem())
				}
			},
			dec: func(d *decoder, v reflect.Value) {
				if d.flag() {
					p := reflect.New(t.Elem())
					elem.dec(d, p.Elem())
					v.Set(p)
				}
			},
			min: 1,
		}, nil
	case reflect.Slice:
		elem, err := compile(t.Elem())
		if err != nil {
			return nil, err
		}
		if elem.min == 0 {
			return nil, fmt.Errorf("snapshot: slice element %s encodes to no bytes", t.Elem())
		}
		return &codec{
			enc: func(e *encoder, v reflect.Value) {
				if v.IsNil() {
					e.buf = append(e.buf, 0)
					return
				}
				n := v.Len()
				e.buf = binary.AppendUvarint(e.buf, uint64(n)+1)
				for i := 0; i < n; i++ {
					elem.enc(e, v.Index(i))
				}
			},
			dec: func(d *decoder, v reflect.Value) {
				n, ok := d.sliceLen()
				if !ok {
					return
				}
				if n > len(d.buf)/elem.min {
					d.fail("%d-element %s exceeds the %d bytes left", n, t, len(d.buf))
				}
				s := reflect.MakeSlice(t, n, n)
				for i := 0; i < n; i++ {
					elem.dec(d, s.Index(i))
				}
				v.Set(s)
			},
			min: 1,
		}, nil
	}
	return nil, fmt.Errorf("snapshot: no encoding for %s (kind %s)", t, t.Kind())
}

func compileStruct(t reflect.Type) (*codec, error) {
	fields := make([]*codec, t.NumField())
	size := 0
	for i := range fields {
		f := t.Field(i)
		if !f.IsExported() {
			return nil, fmt.Errorf("snapshot: %s.%s is unexported", t, f.Name)
		}
		c, err := compile(f.Type)
		if err != nil {
			return nil, fmt.Errorf("%w (field %s.%s)", err, t, f.Name)
		}
		fields[i] = c
		size += c.min
	}
	return &codec{
		enc: func(e *encoder, v reflect.Value) {
			for i, c := range fields {
				c.enc(e, v.Field(i))
			}
		},
		dec: func(d *decoder, v reflect.Value) {
			for i, c := range fields {
				c.dec(d, v.Field(i))
			}
		},
		min: size,
	}, nil
}

// encoder appends the payload to buf. words counts the []uint64 elements
// written; err records the first value the format cannot carry (words
// past maxWords).
type encoder struct {
	buf   []byte
	words int
	err   error
}

func (e *encoder) flag(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func encWords(e *encoder, v reflect.Value) {
	if v.IsNil() {
		e.buf = append(e.buf, 0)
		return
	}
	w := v.Interface().([]uint64)
	if e.words += len(w); e.words > maxWords {
		if e.err == nil {
			e.err = fmt.Errorf("snapshot: packed words exceed the %d-word limit", maxWords)
		}
		return
	}
	e.buf = binary.AppendUvarint(e.buf, uint64(len(w))+1)
	for i := 0; i < len(w); {
		z := i
		// Skip zeros eight words at a time: the long empty stretches of
		// the POM-TLB and cache arrays dominate the encode.
		for z+8 <= len(w) {
			if s := w[z : z+8 : z+8]; s[0]|s[1]|s[2]|s[3]|s[4]|s[5]|s[6]|s[7] != 0 {
				break
			}
			z += 8
		}
		for z < len(w) && w[z] == 0 {
			z++
		}
		l := z
		for l < len(w) && w[l] != 0 {
			l++
		}
		e.buf = binary.AppendUvarint(e.buf, uint64(z-i))
		e.buf = binary.AppendUvarint(e.buf, uint64(l-z))
		for _, x := range w[z:l] {
			e.buf = binary.AppendUvarint(e.buf, x)
		}
		i = l
	}
}

func encBits(e *encoder, v reflect.Value) {
	if v.IsNil() {
		e.buf = append(e.buf, 0)
		return
	}
	bits := v.Interface().([]bool)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(bits))+1)
	for i := 0; i < len(bits); i += 8 {
		var b byte
		for j, set := range bits[i:min(i+8, len(bits))] {
			if set {
				b |= 1 << j
			}
		}
		e.buf = append(e.buf, b)
	}
}

// decoder consumes the payload from buf; off counts the bytes consumed,
// for error messages, and words the []uint64 elements allocated.
type decoder struct {
	buf   []byte
	off   int
	words int
}

func (d *decoder) fail(format string, args ...any) {
	panic(corruptPanic{fmt.Sprintf("%s at payload byte %d", fmt.Sprintf(format, args...), d.off)})
}

func (d *decoder) take(n int) []byte {
	if n > len(d.buf) {
		d.fail("need %d bytes, %d left", n, len(d.buf))
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	d.off += n
	return b
}

func (d *decoder) uvarint() uint64 {
	x, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("bad uvarint")
	}
	// Reject overlong forms so every value has one encoding.
	if n != uvarintLen(x) {
		d.fail("overlong uvarint")
	}
	d.take(n)
	return x
}

func (d *decoder) varint() int64 {
	ux := d.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

func (d *decoder) flag() bool {
	switch b := d.take(1)[0]; b {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("flag byte %d", b)
		return false
	}
}

func (d *decoder) word() uint64 { return binary.LittleEndian.Uint64(d.take(8)) }

// sliceLen reads a slice header: ok is false for a nil slice. The length
// is range-checked against maxWords here; callers bound it further.
func (d *decoder) sliceLen() (n int, ok bool) {
	h := d.uvarint()
	if h == 0 {
		return 0, false
	}
	if h-1 > maxWords {
		d.fail("slice length %d exceeds %d", h-1, maxWords)
	}
	return int(h - 1), true
}

func decWords(d *decoder, v reflect.Value) {
	n, ok := d.sliceLen()
	if !ok {
		return
	}
	if d.words += n; d.words > maxWords {
		d.fail("packed words exceed the %d-word limit", maxWords)
	}
	w := make([]uint64, n)
	for i, first := 0, true; i < n; first = false {
		z := d.uvarint()
		if z == 0 && !first {
			d.fail("empty zero run mid-slice")
		}
		if z > uint64(n-i) {
			d.fail("zero run %d overruns %d words", z, n)
		}
		i += int(z)
		l := d.uvarint()
		if l == 0 && i < n {
			d.fail("empty literal run mid-slice")
		}
		if l > uint64(n-i) {
			d.fail("literal run %d overruns %d words", l, n)
		}
		if l > uint64(len(d.buf)) {
			d.fail("literal run %d overruns the %d bytes left", l, len(d.buf))
		}
		for j := range w[i : i+int(l)] {
			x := d.uvarint()
			if x == 0 {
				d.fail("zero word in a literal run")
			}
			w[i+j] = x
		}
		i += int(l)
	}
	v.Set(reflect.ValueOf(w))
}

func decBits(d *decoder, v reflect.Value) {
	n, ok := d.sliceLen()
	if !ok {
		return
	}
	packed := d.take((n + 7) / 8)
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = packed[i/8]&(1<<(i%8)) != 0
	}
	if n%8 != 0 && packed[n/8]>>(n%8) != 0 {
		d.fail("stray padding bits")
	}
	v.Set(reflect.ValueOf(bits))
}

// encodePayload appends the binary encoding of st to buf.
func encodePayload(buf []byte, st *State) ([]byte, error) {
	c, err := stateCodec()
	if err != nil {
		return nil, err
	}
	e := encoder{buf: buf}
	c.enc(&e, reflect.ValueOf(st).Elem())
	return e.buf, e.err
}

// decodePayload parses a complete payload; every failure, including
// trailing bytes, wraps ErrCorrupt.
func decodePayload(payload []byte) (*State, error) {
	c, err := stateCodec()
	if err != nil {
		return nil, err
	}
	st := new(State)
	if err := decodeValue(c, payload, reflect.ValueOf(st).Elem()); err != nil {
		return nil, err
	}
	return st, nil
}

// decodeValue decodes payload into v, which must be settable, and
// requires it to be consumed exactly.
func decodeValue(c *codec, payload []byte, v reflect.Value) (err error) {
	d := decoder{buf: payload}
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(corruptPanic)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("snapshot: unreadable state: %s: %w", pe.msg, ErrCorrupt)
		}
	}()
	c.dec(&d, v)
	if len(d.buf) != 0 {
		d.fail("%d trailing bytes", len(d.buf))
	}
	return nil
}
