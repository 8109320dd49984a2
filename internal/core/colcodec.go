package core

// Columnar block encodings — the format of every shuffle partition that
// crosses the backend seam: one map task's per-reducer partition is
// encoded as contiguous columns, and so are the tensor-entry and
// factor-cell blocks the benchmark's codec probes time:
//
//	block   := crc32c || uvarint(count) || column …
//	crc32c  := 4-byte little-endian CRC-32C (Castagnoli) over the rest
//	           of the block (count through the last value byte) — the
//	           per-block checksum HDFS keeps beside every block, so a
//	           flipped bit is a decode error, never a silent wrong
//	           record
//	indexes := zigzag-varint delta per record, one column per index
//	           coordinate (delta against the previous record in the
//	           same column; the first record deltas against zero)
//	tags    := one raw byte per record (provenance / side columns)
//	cols    := zigzag-varint delta per record (factor column indexes)
//	values  := 8-byte little-endian IEEE-754 float64 per record
//
// Coalesced tensor entries are sorted lexicographically by coordinate,
// so their index columns are non-decreasing and the deltas are tiny — most
// encode in one byte instead of eight. Delta encoding stays *correct*
// on unsorted sequences (shuffle partitions arrive in emission order):
// it merely compresses less when locality is poor, and the engine
// charges whatever the real encoding costs.
//
// Every column is written and read by a plain loop over the records: a
// one-byte varint is encoded and decoded inline, and only a wider one
// calls out. The fixed-width per-record format this replaced survives
// only as the *Bytes constants in records.go, which still price DFS
// files and job outputs (and are the frozen reference the columnar
// shuffle total is tested against).
//
// A shuffle block is one segment — one map task's pairs for one
// reducer — and its codec is mr.BlockCodec's three functions: svalSize,
// appendSValBlock and decodeSValBlock. The engine charges shuffle bytes
// through svalSize(seg) == len(appendSValBlock(nil, seg)), which the
// colcodec tests and FuzzColumnarRoundTrip pin, so the cost model cannot
// drift from the wire format. Entry and MatEntry blocks need no sizer.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"

	"github.com/haten2/haten2/internal/mr"
)

// zigzag maps a signed delta to an unsigned varint-friendly value
// (0→0, -1→1, 1→2, …), so small negative deltas stay small.
func zigzag(d int64) uint64 {
	return uint64(d<<1) ^ uint64(d>>63)
}

// varintLen is the encoded length of x as a uvarint (1..10 bytes). It
// is a table lookup by bit length: svalSize calls it seven times a
// record, and a lookup costs less than the divide by 7, or a one-byte
// fast path that half the records of a random tensor's blocks miss.
func varintLen(x uint64) int64 {
	return varintLens[bits.Len64(x)]
}

// varintLens[b] is the uvarint length of a value of bit length b.
var varintLens = func() (t [65]int64) {
	for b := range t {
		t[b] = int64(max(b, 1)+6) / 7
	}
	return t
}()

// blockHeaderSize is the header charge for a block of n records: the
// 4-byte CRC-32C field plus the record-count uvarint.
func blockHeaderSize(n int) int64 {
	return crcSize + varintLen(uint64(n))
}

// crcSize is the width of the per-block CRC-32C field.
const crcSize = 4

// crcTable is the Castagnoli polynomial — what HDFS's per-block
// checksums (and most storage systems since) use.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// beginBlock reserves a block's CRC field in dst and writes its record
// count, returning the offset the matching sealBlock fills the CRC at.
func beginBlock(dst []byte, n int) ([]byte, int) {
	return binary.AppendUvarint(append(dst, 0, 0, 0, 0), uint64(n)), len(dst)
}

// sealBlock checksums everything appended since beginBlock and writes
// it into the reserved field.
func sealBlock(dst []byte, at int) []byte {
	binary.LittleEndian.PutUint32(dst[at:], crc32.Checksum(dst[at+crcSize:], crcTable))
	return dst
}

// appendDelta appends the zigzag varint of one column delta.
func appendDelta(dst []byte, d int64) []byte {
	if u := zigzag(d); u < 0x80 {
		return append(dst, byte(u))
	}
	return binary.AppendUvarint(dst, zigzag(d))
}

func appendFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// floatAt is record i's value in a value column.
func floatAt(col []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(col[8*i:]))
}

// colReader reads one block's columns in order. Decoders are strict —
// an over-long (non-canonical) varint, a count beyond the input, an
// out-of-range int32 column or a short column fails the block — so
// decode ∘ encode is the identity on every accepted block, the property
// FuzzColumnarRoundTrip pins and the sizers assume. A failure empties
// the input, so later reads return zeros, and done reports it.
type colReader struct {
	src, body, b []byte
	stored       uint32
	bad          bool   // a column held a bad varint
	why          string // the first other failure
}

// openBlock starts reading src and returns its record count. Counts are
// bounded by the remaining input (every record costs at least one byte
// per column), which also rejects counts that would overflow int.
func openBlock(src []byte) (colReader, int) {
	r := colReader{src: src}
	if len(src) < crcSize {
		r.fail("shorter than its checksum field")
		return r, 0
	}
	r.stored, r.body = binary.LittleEndian.Uint32(src), src[crcSize:]
	n, k := binary.Uvarint(r.body)
	if k <= 0 || int64(k) != varintLen(n) || n > uint64(len(r.body)-k) {
		r.fail("bad record count")
		return r, 0
	}
	r.b = r.body[k:]
	return r, int(n)
}

func (r *colReader) fail(why string) {
	if r.why == "" {
		r.why = why
	}
	r.b = nil
}

// delta reads the next zigzag varint of a column. It is small enough to
// inline into the column loops, where nearly every varint is one byte;
// an unterminated, over-long or over-64-bit one fails the block.
func (r *colReader) delta() int64 {
	var u uint64
	for i, c := range r.b {
		u |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			if c == 0 && i > 0 || i > 8 && (i > 9 || c > 1) {
				break
			}
			r.b = r.b[i+1:]
			return int64(u>>1) ^ -int64(u&1) // the inverse of zigzag, spelled out to stay inlinable
		}
	}
	r.b, r.bad = nil, true
	return 0
}

// narrow returns a decoded column value as int32. A strict decoder
// cannot truncate: the truncated value would re-encode differently.
func (r *colReader) narrow(v int64) int32 {
	if v != int64(int32(v)) {
		r.fail("column index out of int32 range")
	}
	return int32(v)
}

// take reads the next n bytes — a tag or value column — or returns nil.
func (r *colReader) take(n int) []byte {
	if len(r.b) < n {
		r.fail("short column")
		return nil
	}
	col := r.b[:n]
	r.b = r.b[n:]
	return col
}

// done checks the stored CRC against the region the columns consumed —
// after the structural pass, so that region is known (blocks allow
// trailing bytes), but before any record is returned — and returns the
// trailing bytes, or src and the failure.
func (r *colReader) done() ([]byte, error) {
	if r.bad {
		r.fail("bad or non-canonical varint")
	}
	if r.why == "" && crc32.Checksum(r.body[:len(r.body)-len(r.b)], crcTable) != r.stored {
		r.why = "checksum mismatch"
	}
	if r.why != "" {
		return r.src, fmt.Errorf("core: columnar block: %s", r.why)
	}
	return r.b, nil
}

// --- Entry blocks (3-way tensor entries) ----------------------------

// AppendEntryBlock appends the columnar encoding of entries to dst: one
// delta-encoded index column per mode followed by the value column.
func AppendEntryBlock(dst []byte, entries []Entry) []byte {
	dst, at := beginBlock(dst, len(entries))
	for m := range 3 {
		prev := int64(0)
		for i := range entries {
			dst, prev = appendDelta(dst, entries[i].Idx[m]-prev), entries[i].Idx[m]
		}
	}
	for i := range entries {
		dst = appendFloat(dst, entries[i].Val)
	}
	return sealBlock(dst, at)
}

// DecodeEntryBlock parses one block written by AppendEntryBlock,
// returning the decoded entries and any trailing bytes. The block's CRC
// is verified before any record is returned.
func DecodeEntryBlock(src []byte) ([]Entry, []byte, error) {
	r, n := openBlock(src)
	out := make([]Entry, n)
	for m := range 3 {
		prev := int64(0)
		for i := range out {
			prev += r.delta()
			out[i].Idx[m] = prev
		}
	}
	if vals := r.take(8 * n); vals != nil {
		for i := range out {
			out[i].Val = floatAt(vals, i)
		}
	}
	rest, err := r.done()
	if err != nil {
		return nil, rest, err
	}
	return out, rest, nil
}

// --- MatEntry blocks (factor matrices) --------------------------------

// AppendMatEntryBlock appends the columnar encoding of cells: row and
// col delta columns, then values.
func AppendMatEntryBlock(dst []byte, cells []MatEntry) []byte {
	dst, at := beginBlock(dst, len(cells))
	prev := int64(0)
	for i := range cells {
		dst, prev = appendDelta(dst, cells[i].Row-prev), cells[i].Row
	}
	prev = 0
	for i := range cells {
		dst, prev = appendDelta(dst, int64(cells[i].Col)-prev), int64(cells[i].Col)
	}
	for i := range cells {
		dst = appendFloat(dst, cells[i].Val)
	}
	return sealBlock(dst, at)
}

// DecodeMatEntryBlock parses one block written by AppendMatEntryBlock.
func DecodeMatEntryBlock(src []byte) ([]MatEntry, []byte, error) {
	r, n := openBlock(src)
	out := make([]MatEntry, n)
	prev := int64(0)
	for i := range out {
		prev += r.delta()
		out[i].Row = prev
	}
	prev = 0
	for i := range out {
		prev += r.delta()
		out[i].Col = r.narrow(prev)
	}
	if vals := r.take(8 * n); vals != nil {
		for i := range out {
			out[i].Val = floatAt(vals, i)
		}
	}
	rest, err := r.done()
	if err != nil {
		return nil, rest, err
	}
	return out, rest, nil
}

// --- sval shuffle blocks (every plan job) ------------------------------

// svalSize is the encoded size of one shuffle segment's block, computed
// without encoding it: the header, then per record what each column
// adds against the record before it (the first against zero) — three
// key delta columns, one tag byte, one index delta column per tensor
// mode, one column delta, and the 8-byte value.
func svalSize[I index](seg []mr.Pair[[3]int64, sval[I]]) int64 {
	n := blockHeaderSize(len(seg)) + int64(len(seg))*(1+8)
	prev := new(mr.Pair[[3]int64, sval[I]]) // the zero record
	for i := range seg {
		p := &seg[i]
		n += varintLen(zigzag(p.K[0]-prev.K[0])) +
			varintLen(zigzag(p.K[1]-prev.K[1])) +
			varintLen(zigzag(p.K[2]-prev.K[2])) +
			varintLen(zigzag(p.V.idx[0]-prev.V.idx[0])) +
			varintLen(zigzag(p.V.idx[1]-prev.V.idx[1])) +
			varintLen(zigzag(p.V.idx[2]-prev.V.idx[2])) +
			varintLen(zigzag(int64(p.V.col)-int64(prev.V.col)))
		for m := 3; m < len(p.V.idx); m++ {
			n += varintLen(zigzag(p.V.idx[m] - prev.V.idx[m]))
		}
		prev = p
	}
	return n
}

// appendSValBlock appends one shuffle segment's block to dst. With a
// backend installed it encodes every partition the engine ships, into a
// slab of exactly the bytes the job was charged.
func appendSValBlock[I index](dst []byte, seg []mr.Pair[[3]int64, sval[I]]) []byte {
	dst, at := beginBlock(dst, len(seg))
	for m := range 3 {
		prev := int64(0)
		for i := range seg {
			dst, prev = appendDelta(dst, seg[i].K[m]-prev), seg[i].K[m]
		}
	}
	for i := range seg {
		dst = append(dst, seg[i].V.tag)
	}
	var zero I
	for m := range len(zero) {
		prev := int64(0)
		for i := range seg {
			dst, prev = appendDelta(dst, seg[i].V.idx[m]-prev), seg[i].V.idx[m]
		}
	}
	prev := int64(0)
	for i := range seg {
		dst, prev = appendDelta(dst, int64(seg[i].V.col)-prev), int64(seg[i].V.col)
	}
	for i := range seg {
		dst = appendFloat(dst, seg[i].V.val)
	}
	return sealBlock(dst, at)
}

// decodeSValBlock parses one block written by appendSValBlock, appending
// its pairs to dst. With a backend installed src is whatever a worker
// process sent back — hostile input, rejected by structure or by CRC
// before any record is returned.
func decodeSValBlock[I index](src []byte, dst []mr.Pair[[3]int64, sval[I]]) ([]mr.Pair[[3]int64, sval[I]], []byte, error) {
	r, n := openBlock(src)
	// Every field but the engine's routing hash is assigned below, so
	// reused storage needs no clearing.
	dst = slices.Grow(dst, n)
	seg := dst[len(dst) : len(dst)+n]
	for m := range 3 {
		prev := int64(0)
		for i := range seg {
			prev += r.delta()
			seg[i].K[m] = prev
		}
	}
	if tags := r.take(n); tags != nil {
		for i := range seg {
			seg[i].V.tag = tags[i]
		}
	}
	var zero I
	for m := range len(zero) {
		prev := int64(0)
		for i := range seg {
			prev += r.delta()
			seg[i].V.idx[m] = prev
		}
	}
	prev := int64(0)
	for i := range seg {
		prev += r.delta()
		seg[i].V.col = r.narrow(prev)
	}
	if vs := r.take(8 * n); vs != nil {
		for i := range seg {
			seg[i].V.val = floatAt(vs, i)
		}
	}
	rest, err := r.done()
	if err != nil {
		return dst, rest, err
	}
	return dst[:len(dst)+n], rest, nil
}
