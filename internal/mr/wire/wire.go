// Package wire is the binary serialization layer of the pluggable
// execution backends: it turns the engine's typed in-memory data —
// shuffle pair buckets, block-written DFS payloads, and boxed DFS
// records — into deterministic byte strings that can cross a process
// boundary and decode back bit-identically.
//
// The encoding is compiled once per concrete type from its reflect
// layout: every field is written at a fixed offset walk in declaration
// order, fixed-width little-endian for numeric kinds, so padding bytes
// never leak into the stream and float64 values round-trip through
// math.Float64bits exactly. Unexported fields are included — the
// engine's shuffle pairs and the drivers' checkpoint records are
// unexported structs — by reading and writing through unsafe offsets
// rather than reflect's access-checked Value API.
//
// Determinism contract: for a fixed type, encode is a pure function of
// the value (no map iteration, no pointers-as-identity, no wall
// clock), and decode∘encode is the identity on every supported value.
// The cross-backend conformance suite rests on this: a shuffle
// partition that detours through a worker process must reduce to the
// same bytes as one that never left the engine's heap.
//
// Supported kinds: bool, all fixed-width ints and uints, int/uint
// (always 8 bytes on the wire), float32/64, arrays, structs, strings,
// slices, pointers, and — via Register — interface values of
// registered dynamic types. Maps, channels, and funcs are rejected
// with an error at compile time (codecFor), never mid-stream.
package wire

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"unsafe"
)

// Codec encodes and decodes values of one concrete type.
type Codec struct {
	t   reflect.Type
	enc func(p unsafe.Pointer, b []byte) []byte
	dec func(p unsafe.Pointer, r *reader) error
}

// codecCache memoizes compiled codecs per type. Only finished codecs
// are in it: anything a goroutine loads from here is safe to run.
var codecCache sync.Map // reflect.Type -> *Codec

// Compilation is serialized, and the codecs of the compilation in
// progress live in inflight until the outermost type is done. Recursive
// types (a struct reachable from itself through a pointer or slice)
// resolve to their own unfinished codec there; another goroutine must
// never see one — first uses race when map tasks ship concurrently — so
// the whole graph is published at once, complete.
var (
	compileMu sync.Mutex
	inflight  map[reflect.Type]*Codec // guarded by compileMu
)

// For returns the codec for t, compiling and caching it on first use.
func For(t reflect.Type) (*Codec, error) {
	if c, ok := codecCache.Load(t); ok {
		return c.(*Codec), nil
	}
	compileMu.Lock()
	defer compileMu.Unlock()
	inflight = make(map[reflect.Type]*Codec)
	c, err := forLocked(t)
	if err == nil {
		for t, c := range inflight {
			codecCache.Store(t, c)
		}
	}
	inflight = nil
	return c, err
}

// forLocked is For inside a compilation: compile calls it for the types
// t is made of. Called with compileMu held.
func forLocked(t reflect.Type) (*Codec, error) {
	if c, ok := codecCache.Load(t); ok {
		return c.(*Codec), nil
	}
	if c, ok := inflight[t]; ok {
		return c, nil
	}
	c := &Codec{t: t}
	inflight[t] = c
	enc, dec, err := compile(t)
	if err != nil {
		delete(inflight, t)
		return nil, err
	}
	c.enc, c.dec = enc, dec
	return c, nil
}

// reader is a bounds-checked cursor over an encoded buffer. All decode
// paths go through it so truncated or corrupt input surfaces as an
// error, never a panic or an over-read.
type reader struct {
	data []byte
	off  int
}

// ErrTruncated reports an encoded buffer that ended mid-value.
type ErrTruncated struct{ Need, Have int }

func (e *ErrTruncated) Error() string {
	return fmt.Sprintf("wire: truncated input: need %d bytes, have %d", e.Need, e.Have)
}

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.data) || r.off+n < r.off {
		return nil, &ErrTruncated{Need: n, Have: len(r.data) - r.off}
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: bad uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// maxLen caps decoded string/slice lengths so a corrupt length prefix
// cannot drive an allocation bomb; real payloads are far below it and
// a longer claim necessarily overruns the buffer anyway.
const maxLen = 1 << 31

// compile builds the encode and decode functions for t.
func compile(t reflect.Type) (func(unsafe.Pointer, []byte) []byte, func(unsafe.Pointer, *reader) error, error) {
	switch t.Kind() {
	case reflect.Bool:
		return func(p unsafe.Pointer, b []byte) []byte {
				if *(*bool)(p) {
					return append(b, 1)
				}
				return append(b, 0)
			}, func(p unsafe.Pointer, r *reader) error {
				v, err := r.take(1)
				if err != nil {
					return err
				}
				*(*bool)(p) = v[0] != 0
				return nil
			}, nil
	case reflect.Int8, reflect.Uint8:
		return func(p unsafe.Pointer, b []byte) []byte {
				return append(b, *(*uint8)(p))
			}, func(p unsafe.Pointer, r *reader) error {
				v, err := r.take(1)
				if err != nil {
					return err
				}
				*(*uint8)(p) = v[0]
				return nil
			}, nil
	case reflect.Int16, reflect.Uint16:
		return func(p unsafe.Pointer, b []byte) []byte {
				return binary.LittleEndian.AppendUint16(b, *(*uint16)(p))
			}, func(p unsafe.Pointer, r *reader) error {
				v, err := r.take(2)
				if err != nil {
					return err
				}
				*(*uint16)(p) = binary.LittleEndian.Uint16(v)
				return nil
			}, nil
	case reflect.Int32, reflect.Uint32, reflect.Float32:
		return func(p unsafe.Pointer, b []byte) []byte {
				return binary.LittleEndian.AppendUint32(b, *(*uint32)(p))
			}, func(p unsafe.Pointer, r *reader) error {
				v, err := r.take(4)
				if err != nil {
					return err
				}
				*(*uint32)(p) = binary.LittleEndian.Uint32(v)
				return nil
			}, nil
	case reflect.Int64, reflect.Uint64, reflect.Float64, reflect.Int, reflect.Uint, reflect.Uintptr:
		if t.Size() != 8 {
			return nil, nil, fmt.Errorf("wire: %v has size %d, want 8 (32-bit platforms unsupported)", t, t.Size())
		}
		return func(p unsafe.Pointer, b []byte) []byte {
				return binary.LittleEndian.AppendUint64(b, *(*uint64)(p))
			}, func(p unsafe.Pointer, r *reader) error {
				v, err := r.take(8)
				if err != nil {
					return err
				}
				*(*uint64)(p) = binary.LittleEndian.Uint64(v)
				return nil
			}, nil
	case reflect.Array:
		ec, err := forLocked(t.Elem())
		if err != nil {
			return nil, nil, err
		}
		n, sz := t.Len(), t.Elem().Size()
		return func(p unsafe.Pointer, b []byte) []byte {
				for i := 0; i < n; i++ {
					b = ec.enc(unsafe.Add(p, uintptr(i)*sz), b)
				}
				return b
			}, func(p unsafe.Pointer, r *reader) error {
				for i := 0; i < n; i++ {
					if err := ec.dec(unsafe.Add(p, uintptr(i)*sz), r); err != nil {
						return err
					}
				}
				return nil
			}, nil
	case reflect.Struct:
		type fieldCodec struct {
			off uintptr
			c   *Codec
		}
		fields := make([]fieldCodec, 0, t.NumField())
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			fc, err := forLocked(f.Type)
			if err != nil {
				return nil, nil, fmt.Errorf("wire: %v field %s: %w", t, f.Name, err)
			}
			fields = append(fields, fieldCodec{off: f.Offset, c: fc})
		}
		return func(p unsafe.Pointer, b []byte) []byte {
				for _, f := range fields {
					b = f.c.enc(unsafe.Add(p, f.off), b)
				}
				return b
			}, func(p unsafe.Pointer, r *reader) error {
				for _, f := range fields {
					if err := f.c.dec(unsafe.Add(p, f.off), r); err != nil {
						return err
					}
				}
				return nil
			}, nil
	case reflect.String:
		return func(p unsafe.Pointer, b []byte) []byte {
				s := *(*string)(p)
				b = binary.AppendUvarint(b, uint64(len(s)))
				return append(b, s...)
			}, func(p unsafe.Pointer, r *reader) error {
				n, err := r.uvarint()
				if err != nil {
					return err
				}
				if n > maxLen {
					return fmt.Errorf("wire: string length %d exceeds limit", n)
				}
				v, err := r.take(int(n))
				if err != nil {
					return err
				}
				*(*string)(p) = string(v)
				return nil
			}, nil
	case reflect.Slice:
		ec, err := forLocked(t.Elem())
		if err != nil {
			return nil, nil, err
		}
		st, sz := t, t.Elem().Size()
		return func(p unsafe.Pointer, b []byte) []byte {
				v := reflect.NewAt(st, p).Elem()
				n := v.Len()
				b = binary.AppendUvarint(b, uint64(n))
				if n > 0 {
					base := v.Index(0).Addr().UnsafePointer()
					for i := 0; i < n; i++ {
						b = ec.enc(unsafe.Add(base, uintptr(i)*sz), b)
					}
				}
				return b
			}, func(p unsafe.Pointer, r *reader) error {
				n, err := r.uvarint()
				if err != nil {
					return err
				}
				if n > maxLen {
					return fmt.Errorf("wire: slice length %d exceeds limit", n)
				}
				// Bound the allocation by what the remaining input could
				// possibly hold: every element costs at least one byte.
				if int(n) > len(r.data)-r.off {
					return &ErrTruncated{Need: int(n), Have: len(r.data) - r.off}
				}
				if n == 0 {
					// Canonical: zero-length decodes to nil (nil and empty
					// encode identically).
					reflect.NewAt(st, p).Elem().Set(reflect.Zero(st))
					return nil
				}
				s := reflect.MakeSlice(st, int(n), int(n))
				if n > 0 {
					base := s.Index(0).Addr().UnsafePointer()
					for i := 0; i < int(n); i++ {
						if err := ec.dec(unsafe.Add(base, uintptr(i)*sz), r); err != nil {
							return err
						}
					}
				}
				reflect.NewAt(st, p).Elem().Set(s)
				return nil
			}, nil
	case reflect.Pointer:
		et := t.Elem()
		ec, err := forLocked(et)
		if err != nil {
			return nil, nil, err
		}
		return func(p unsafe.Pointer, b []byte) []byte {
				q := *(*unsafe.Pointer)(p)
				if q == nil {
					return append(b, 0)
				}
				b = append(b, 1)
				return ec.enc(q, b)
			}, func(p unsafe.Pointer, r *reader) error {
				flag, err := r.take(1)
				if err != nil {
					return err
				}
				if flag[0] == 0 {
					*(*unsafe.Pointer)(p) = nil
					return nil
				}
				if flag[0] != 1 {
					return fmt.Errorf("wire: bad pointer flag %d", flag[0])
				}
				v := reflect.New(et)
				if err := ec.dec(v.UnsafePointer(), r); err != nil {
					return err
				}
				reflect.NewAt(t, p).Elem().Set(v)
				return nil
			}, nil
	case reflect.Interface:
		if t.NumMethod() != 0 {
			return nil, nil, fmt.Errorf("wire: non-empty interface %v unsupported", t)
		}
		return encodeAny, decodeAny, nil
	default:
		return nil, nil, fmt.Errorf("wire: unsupported kind %v", t.Kind())
	}
}

// --- interface payloads (registered dynamic types) ----------------------

// registry maps the stable wire id of a registered dynamic type — the
// splitmix64-chained hash of its full reflect string — to the type.
// Both processes of a backend run the same binary, so ids agree by
// construction; a decode in a binary that never registered the type
// fails cleanly.
var (
	regMu    sync.Mutex
	registry = map[uint64]reflect.Type{}
)

// Register makes T encodable as the dynamic payload of an interface
// value (dfs.Record.Data, checkpoint records). Registering the same
// type twice is a no-op; two distinct types hashing to the same id
// panics at registration, never at decode.
func Register[T any]() {
	RegisterType(reflect.TypeFor[T]())
}

// RegisterType is Register for a reflect.Type held at runtime.
func RegisterType(t reflect.Type) {
	id := typeID(t)
	regMu.Lock()
	defer regMu.Unlock()
	if prev, ok := registry[id]; ok {
		if prev != t {
			panic(fmt.Sprintf("wire: type id collision: %v and %v", prev, t))
		}
		return
	}
	registry[id] = t
}

func lookupType(id uint64) (reflect.Type, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	t, ok := registry[id]
	return t, ok
}

// typeID hashes a type's full name with the same splitmix64 chain the
// DFS checksum layer uses.
func typeID(t reflect.Type) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, c := range []byte(t.String()) {
		h = mix64(h ^ uint64(c))
	}
	// PkgPath disambiguates same-named types from different packages
	// beyond what String() (which shortens the package) includes.
	for _, c := range []byte(t.PkgPath()) {
		h = mix64(h ^ uint64(c))
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer (the repo's standard mixer).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func encodeAny(p unsafe.Pointer, b []byte) []byte {
	v := *(*any)(p)
	if v == nil {
		return binary.LittleEndian.AppendUint64(b, 0)
	}
	t := reflect.TypeOf(v)
	id := typeID(t)
	if _, ok := lookupType(id); !ok {
		// Unregistered payloads cannot be encoded; surface as a panic
		// converted to an error by EncodeRecords' recover. Interface
		// encode has no error return because the fixed-width fast paths
		// share its signature.
		panic(&unregisteredError{t: t})
	}
	c, err := For(t)
	if err != nil {
		panic(&unregisteredError{t: t, cause: err})
	}
	b = binary.LittleEndian.AppendUint64(b, id)
	// Copy the value out of the interface so we have an addressable,
	// writable instance to encode from.
	inst := reflect.New(t)
	inst.Elem().Set(reflect.ValueOf(v))
	return c.enc(inst.UnsafePointer(), b)
}

func decodeAny(p unsafe.Pointer, r *reader) error {
	raw, err := r.take(8)
	if err != nil {
		return err
	}
	id := binary.LittleEndian.Uint64(raw)
	if id == 0 {
		*(*any)(p) = nil
		return nil
	}
	t, ok := lookupType(id)
	if !ok {
		return fmt.Errorf("wire: unregistered type id %#x", id)
	}
	c, err := For(t)
	if err != nil {
		return err
	}
	inst := reflect.New(t)
	if err := c.dec(inst.UnsafePointer(), r); err != nil {
		return err
	}
	*(*any)(p) = inst.Elem().Interface()
	return nil
}

// unregisteredError carries an encode-side unregistered dynamic type
// out of the offset-compiled encoder (which has no error return) to
// the recover in the public entry points.
type unregisteredError struct {
	t     reflect.Type
	cause error
}

func (e *unregisteredError) Error() string {
	if e.cause != nil {
		return fmt.Sprintf("wire: cannot encode dynamic type %v: %v", e.t, e.cause)
	}
	return fmt.Sprintf("wire: dynamic type %v is not registered (wire.Register)", e.t)
}

// catch converts an unregisteredError panic raised inside the compiled
// encoder into the returned error; any other panic propagates.
func catch(err *error) {
	if r := recover(); r != nil {
		if ue, ok := r.(*unregisteredError); ok {
			*err = ue
			return
		}
		panic(r)
	}
}

// --- public entry points ------------------------------------------------

// EncodeSlice encodes s, which must be a slice, as a count followed by
// its elements. The element type is compiled on first use.
func EncodeSlice(s any) (out []byte, err error) {
	defer catch(&err)
	v := reflect.ValueOf(s)
	if v.Kind() != reflect.Slice {
		return nil, fmt.Errorf("wire: EncodeSlice wants a slice, got %T", s)
	}
	ec, err := For(v.Type().Elem())
	if err != nil {
		return nil, err
	}
	n := v.Len()
	b := binary.AppendUvarint(make([]byte, 0, 16+n*int(v.Type().Elem().Size())), uint64(n))
	sz := v.Type().Elem().Size()
	if n > 0 {
		base := v.Index(0).Addr().UnsafePointer()
		for i := 0; i < n; i++ {
			b = ec.enc(unsafe.Add(base, uintptr(i)*sz), b)
		}
	}
	return b, nil
}

// DecodeSlice decodes data produced by EncodeSlice back into a []elem
// slice, returned as any. The whole buffer must be consumed: trailing
// bytes indicate corruption and fail the decode.
func DecodeSlice(elem reflect.Type, data []byte) (any, error) {
	ec, err := For(elem)
	if err != nil {
		return nil, err
	}
	r := &reader{data: data}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxLen {
		return nil, fmt.Errorf("wire: slice length %d exceeds limit", n)
	}
	if int(n) > len(data) && n > 0 {
		return nil, &ErrTruncated{Need: int(n), Have: len(data)}
	}
	s := reflect.MakeSlice(reflect.SliceOf(elem), int(n), int(n))
	sz := elem.Size()
	if n > 0 {
		base := s.Index(0).Addr().UnsafePointer()
		for i := 0; i < int(n); i++ {
			if err := ec.dec(unsafe.Add(base, uintptr(i)*sz), r); err != nil {
				return nil, err
			}
		}
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("wire: %d trailing bytes after slice", len(data)-r.off)
	}
	return s.Interface(), nil
}

// EncodeValue encodes one value of any supported type (used for boxed
// record payloads and unit tests).
func EncodeValue(v any) (out []byte, err error) {
	defer catch(&err)
	t := reflect.TypeOf(v)
	if t == nil {
		return nil, fmt.Errorf("wire: cannot encode untyped nil")
	}
	c, err := For(t)
	if err != nil {
		return nil, err
	}
	inst := reflect.New(t)
	inst.Elem().Set(reflect.ValueOf(v))
	return c.enc(inst.UnsafePointer(), nil), nil
}

// DecodeValue decodes one value of type t from data, consuming it
// fully.
func DecodeValue(t reflect.Type, data []byte) (any, error) {
	c, err := For(t)
	if err != nil {
		return nil, err
	}
	r := &reader{data: data}
	inst := reflect.New(t)
	if err := c.dec(inst.UnsafePointer(), r); err != nil {
		return nil, err
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("wire: %d trailing bytes after value", len(data)-r.off)
	}
	return inst.Elem().Interface(), nil
}
