package wire

import (
	"bytes"
	"math"
	"reflect"
	"sync"
	"testing"
)

// podPair mirrors the engine's shuffle pair shape: unexported fields,
// internal padding (bool next to int64), a nested array key.
type podPair struct {
	k [3]int64
	v podVal
	h uint64
}

type podVal struct {
	tag uint8
	idx [3]int64
	col int32
	val float64
}

func TestPODRoundTrip(t *testing.T) {
	in := []podPair{
		{k: [3]int64{1, -2, 3}, v: podVal{tag: 2, idx: [3]int64{9, 8, 7}, col: -5, val: math.Pi}, h: 0xdeadbeef},
		{k: [3]int64{0, 0, 0}, v: podVal{val: math.Inf(-1)}, h: 0},
		{k: [3]int64{math.MaxInt64, math.MinInt64, -1}, v: podVal{tag: 255, col: math.MaxInt32, val: math.NaN()}, h: ^uint64(0)},
	}
	enc, err := EncodeSlice(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeSlice(reflect.TypeFor[podPair](), enc)
	if err != nil {
		t.Fatal(err)
	}
	got := out.([]podPair)
	if len(got) != len(in) {
		t.Fatalf("len %d, want %d", len(got), len(in))
	}
	for i := range in {
		// NaN: compare bit patterns, not values.
		if in[i].k != got[i].k || in[i].h != got[i].h ||
			in[i].v.tag != got[i].v.tag || in[i].v.idx != got[i].v.idx || in[i].v.col != got[i].v.col ||
			math.Float64bits(in[i].v.val) != math.Float64bits(got[i].v.val) {
			t.Fatalf("pair %d: got %+v, want %+v", i, got[i], in[i])
		}
	}
}

// TestEncodeDeterministic pins that padding bytes never reach the wire:
// two equal values built through different memory must encode
// identically.
func TestEncodeDeterministic(t *testing.T) {
	type padded struct {
		a uint8
		b int64
		c uint8
	}
	mk := func(scratch []byte) []byte {
		// Build the value inside reused dirty memory so any padding
		// leak would differ between calls.
		v := []padded{{a: 1, b: -7, c: 9}}
		enc, err := EncodeSlice(v)
		if err != nil {
			t.Fatal(err)
		}
		_ = scratch
		return enc
	}
	if got, want := mk(bytes.Repeat([]byte{0xff}, 64)), mk(nil); !bytes.Equal(got, want) {
		t.Fatalf("encodings differ: %x vs %x", got, want)
	}
	if sz := int(reflect.TypeFor[padded]().Size()); sz == 10 {
		t.Fatalf("expected padding in test struct, got size %d", sz)
	}
	enc, _ := EncodeSlice([]padded{{a: 1, b: 2, c: 3}})
	if len(enc) != 1+10 {
		t.Fatalf("encoded length %d, want 11 (uvarint count + 10 payload bytes, no padding)", len(enc))
	}
}

func TestStringsSlicesPointers(t *testing.T) {
	type inner struct {
		Name string
		Vals []float64
	}
	type outer struct {
		ptr  *inner
		nilp *inner
		list []inner
		s    string
	}
	in := outer{
		ptr:  &inner{Name: "α/β", Vals: []float64{1.5, -2.25}},
		list: []inner{{Name: "", Vals: nil}, {Name: "x", Vals: []float64{0}}},
		s:    "hello",
	}
	enc, err := EncodeSlice([]outer{in})
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeSlice(reflect.TypeFor[outer](), enc)
	if err != nil {
		t.Fatal(err)
	}
	got := out.([]outer)[0]
	if got.nilp != nil || got.ptr == nil || got.ptr.Name != in.ptr.Name ||
		!reflect.DeepEqual(got.ptr.Vals, in.ptr.Vals) || got.s != in.s ||
		len(got.list) != 2 || got.list[1].Name != "x" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestTruncationAndTrailingBytesError(t *testing.T) {
	enc, err := EncodeSlice([]podPair{{k: [3]int64{1, 2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeSlice(reflect.TypeFor[podPair](), enc[:cut]); err == nil {
			t.Fatalf("truncation at %d bytes decoded without error", cut)
		}
	}
	if _, err := DecodeSlice(reflect.TypeFor[podPair](), append(append([]byte{}, enc...), 0)); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
	// A corrupt huge length must error, not allocate.
	if _, err := DecodeSlice(reflect.TypeFor[podPair](), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}); err == nil {
		t.Fatal("oversized length decoded without error")
	}
}

func TestUnsupportedKinds(t *testing.T) {
	if _, err := EncodeSlice([]map[string]int{{"a": 1}}); err == nil {
		t.Fatal("map encoded without error")
	}
	if _, err := EncodeSlice([]func(){func() {}}); err == nil {
		t.Fatal("func encoded without error")
	}
	// An interface-typed field has no fixed layout to compile: it is
	// refused when the codec is built, on both sides, never mid-stream.
	type boxed struct {
		ID   int64
		Data any
	}
	if _, err := EncodeSlice([]boxed{{ID: 1, Data: int64(2)}}); err == nil {
		t.Fatal("interface field encoded without error")
	}
	if _, err := DecodeSlice(reflect.TypeFor[boxed](), []byte{0}); err == nil {
		t.Fatal("interface field decoded without error")
	}
	if _, err := EncodeSlice(nil); err == nil {
		t.Fatal("nil payload encoded without error")
	}
}

func TestSliceOfSlices(t *testing.T) {
	in := [][]int32{{1, 2}, nil, {3}}
	enc, err := EncodeSlice(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeSlice(reflect.TypeFor[[]int32](), enc)
	if err != nil {
		t.Fatal(err)
	}
	got := out.([][]int32)
	// nil and empty both decode to empty; compare contents.
	if len(got) != 3 || !reflect.DeepEqual(got[0], []int32{1, 2}) || len(got[1]) != 0 || !reflect.DeepEqual(got[2], []int32{3}) {
		t.Fatalf("mismatch: %v", got)
	}
}

// TestConcurrentFirstUse pins that a codec is never visible half
// compiled: map tasks ship their partitions concurrently, so the first
// EncodeSlice of a job's pair type happens on several goroutines at
// once (run under -race; a nil encoder here was also a crash).
func TestConcurrentFirstUse(t *testing.T) {
	type node struct {
		Name string
		Next *node
		Kids []node
	}
	type fresh struct {
		K [3]int64
		N node
	}
	in := []fresh{{K: [3]int64{1, 2, 3}, N: node{Name: "a", Next: &node{Name: "b"}, Kids: []node{{Name: "c"}}}}}
	var wg sync.WaitGroup
	outs := make([][]byte, 8)
	for g := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, err := EncodeSlice(in)
			if err != nil {
				t.Error(err)
			}
			outs[g] = b
		}()
	}
	wg.Wait()
	for _, b := range outs[1:] {
		if !bytes.Equal(b, outs[0]) {
			t.Fatal("concurrent first encodes disagree")
		}
	}
	back, err := DecodeSlice(reflect.TypeOf(fresh{}), outs[0])
	if err != nil || !reflect.DeepEqual(back, in) {
		t.Fatalf("round trip: %v %v", back, err)
	}
}
