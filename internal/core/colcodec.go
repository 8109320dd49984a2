package core

// Columnar block encodings — the format of everything that crosses the
// backend seam: a whole block (a DFS file of tensor entries, factor
// cells or Hadamard intermediates, or one map task's per-reducer shuffle
// partition) is encoded as contiguous columns:
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
// Tensor files are coalesced (sorted lexicographically by coordinate),
// so index columns are non-decreasing and the deltas are tiny — most
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
// Every encoder here has a matching sizer with the invariant
// len(Append*Block(nil, recs)) == blockHeaderSize(n) + Σ record sizes —
// the colcodec tests and FuzzColumnarRoundTrip pin both directions. The
// mr engine charges shuffle bytes through the shuffle sizer
// (mr.BlockSizer), so the cost model can never drift from the declared
// wire format, and finds a DFS file's codec through methods on its
// record type (mr.FileCodec), so a published file crosses the seam as
// one exactly-sized block.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"
)

// zigzag maps a signed delta to an unsigned varint-friendly value
// (0→0, -1→1, 1→2, …), so small negative deltas stay small.
func zigzag(d int64) uint64 {
	return uint64(d<<1) ^ uint64(d>>63)
}

func unzigzag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// varintLen is the encoded length of x as a uvarint (1..10 bytes).
func varintLen(x uint64) int64 {
	return int64((bits.Len64(x|1) + 6) / 7)
}

// deltaLen is the encoded length of the zigzag delta from prev to v.
func deltaLen(prev, v int64) int64 { return varintLen(zigzag(v - prev)) }

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
			return int64(u>>1) ^ -int64(u&1) // unzigzag, spelled out to stay inlinable
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

// --- Entry blocks (tensor files) --------------------------------------

// AppendEntryBlock appends the columnar encoding of entries to dst: one
// delta-encoded index column per mode followed by the value column. Its
// length is exactly EntryBlockSize(entries).
func AppendEntryBlock[I index](dst []byte, entries []EntryOf[I]) []byte {
	dst, at := beginBlock(dst, len(entries))
	var zero I
	for m := range len(zero) {
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

// DecodeEntryBlock parses one 3-way block written by AppendEntryBlock,
// returning the decoded entries and any trailing bytes. The block's CRC
// is verified before any record is returned.
func DecodeEntryBlock(src []byte) ([]Entry, []byte, error) { return decodeEntryBlock[[3]int64](src) }

func decodeEntryBlock[I index](src []byte) ([]EntryOf[I], []byte, error) {
	r, n := openBlock(src)
	out := make([]EntryOf[I], n)
	var zero I
	for m := range len(zero) {
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

// EntryBlockSize is the exact encoded size of AppendEntryBlock(nil,
// entries), computed without encoding.
func EntryBlockSize[I index](entries []EntryOf[I]) int64 {
	n := blockHeaderSize(len(entries)) + 8*int64(len(entries))
	var prev EntryOf[I]
	for _, e := range entries {
		for m := range len(e.Idx) {
			n += deltaLen(prev.Idx[m], e.Idx[m])
		}
		prev = e
	}
	return n
}

// FileBlockSize, AppendFileBlock and DecodeFileBlock are EntryOf's file
// codec (mr.FileCodec): a tensor file crosses the backend seam as its
// Entry block. recs is the file's []EntryOf[I].
func (EntryOf[I]) FileBlockSize(recs any) int64 { return EntryBlockSize(recs.([]EntryOf[I])) }
func (EntryOf[I]) AppendFileBlock(dst []byte, recs any) []byte {
	return AppendEntryBlock(dst, recs.([]EntryOf[I]))
}
func (EntryOf[I]) DecodeFileBlock(src []byte) (any, []byte, error) { return decodeEntryBlock[I](src) }

// --- MatEntry blocks (factor matrices) --------------------------------

// AppendMatEntryBlock appends the columnar encoding of cells: row and
// col delta columns, then values. Length is MatEntryBlockSize(cells).
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

// MatEntryBlockSize is the exact encoded size of AppendMatEntryBlock.
func MatEntryBlockSize(cells []MatEntry) int64 {
	n := blockHeaderSize(len(cells)) + 8*int64(len(cells))
	var prev MatEntry
	for _, c := range cells {
		n += deltaLen(prev.Row, c.Row) + deltaLen(int64(prev.Col), int64(c.Col))
		prev = c
	}
	return n
}

// MatEntry's file codec (mr.FileCodec): a factor file crosses the
// backend seam as its MatEntry block. recs is the file's []MatEntry.
func (MatEntry) FileBlockSize(recs any) int64 { return MatEntryBlockSize(recs.([]MatEntry)) }
func (MatEntry) AppendFileBlock(dst []byte, recs any) []byte {
	return AppendMatEntryBlock(dst, recs.([]MatEntry))
}
func (MatEntry) DecodeFileBlock(src []byte) (any, []byte, error) { return DecodeMatEntryBlock(src) }

// --- HEntry blocks (the Hadamard intermediates 𝒯′, 𝒯″) ----------------

// appendHEntryBlock appends the columnar encoding of recs: one delta
// index column per mode, the delta column of factor columns, then
// values. Length is hEntryBlockSize(recs).
func appendHEntryBlock[I index](dst []byte, recs []HEntryOf[I]) []byte {
	dst, at := beginBlock(dst, len(recs))
	var zero I
	for m := range len(zero) {
		prev := int64(0)
		for i := range recs {
			dst, prev = appendDelta(dst, recs[i].Idx[m]-prev), recs[i].Idx[m]
		}
	}
	prev := int64(0)
	for i := range recs {
		dst, prev = appendDelta(dst, int64(recs[i].Col)-prev), int64(recs[i].Col)
	}
	for i := range recs {
		dst = appendFloat(dst, recs[i].Val)
	}
	return sealBlock(dst, at)
}

func decodeHEntryBlock[I index](src []byte) ([]HEntryOf[I], []byte, error) {
	r, n := openBlock(src)
	out := make([]HEntryOf[I], n)
	var zero I
	for m := range len(zero) {
		prev := int64(0)
		for i := range out {
			prev += r.delta()
			out[i].Idx[m] = prev
		}
	}
	prev := int64(0)
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

func hEntryBlockSize[I index](recs []HEntryOf[I]) int64 {
	n := blockHeaderSize(len(recs)) + 8*int64(len(recs))
	var prev HEntryOf[I]
	for _, h := range recs {
		for m := range len(h.Idx) {
			n += deltaLen(prev.Idx[m], h.Idx[m])
		}
		n += deltaLen(int64(prev.Col), int64(h.Col))
		prev = h
	}
	return n
}

// HEntryOf's file codec (mr.FileCodec): a 𝒯 file crosses the backend
// seam as its HEntry block. recs is the file's []HEntryOf[I].
func (HEntryOf[I]) FileBlockSize(recs any) int64 { return hEntryBlockSize(recs.([]HEntryOf[I])) }
func (HEntryOf[I]) AppendFileBlock(dst []byte, recs any) []byte {
	return appendHEntryBlock(dst, recs.([]HEntryOf[I]))
}
func (HEntryOf[I]) DecodeFileBlock(src []byte) (any, []byte, error) { return decodeHEntryBlock[I](src) }

// --- sval shuffle blocks (every plan job) ------------------------------

// svalPairSize is the incremental encoded size of pair (k, v) appended
// to a shuffle block whose previous pair is (pk, pv) — mr.BlockSizer's
// Pair contract, with the first pair sized against zero values. The
// layout per record: three key delta columns, one tag byte, one index
// delta column per tensor mode, one column delta, and the 8-byte value.
func svalPairSize[I index](pk [3]int64, pv sval[I], k [3]int64, v sval[I]) int64 {
	n := varintLen(zigzag(k[0]-pk[0])) +
		varintLen(zigzag(k[1]-pk[1])) +
		varintLen(zigzag(k[2]-pk[2])) +
		1 +
		varintLen(zigzag(v.idx[0]-pv.idx[0])) +
		varintLen(zigzag(v.idx[1]-pv.idx[1])) +
		varintLen(zigzag(v.idx[2]-pv.idx[2])) +
		varintLen(zigzag(int64(v.col)-int64(pv.col))) +
		8
	for m := 3; m < len(v.idx); m++ {
		n += varintLen(zigzag(v.idx[m] - pv.idx[m]))
	}
	return n
}

// appendSValBlock encodes one shuffle partition block: parallel keys
// and vals slices (len(keys) == len(vals)). Length is exactly
// blockHeaderSize(n) + Σ svalPairSize over consecutive pairs. In
// process the engine only ever sizes blocks; with a backend installed
// this is the encoder of every partition it ships (mr.BlockSizer.Append),
// into a slab of exactly the size the job was charged, so the bytes on
// the wire are the bytes the job was charged.
func appendSValBlock[I index](dst []byte, keys [][3]int64, vals []sval[I]) []byte {
	dst, at := beginBlock(dst, len(keys))
	for m := range 3 {
		prev := int64(0)
		for i := range keys {
			dst, prev = appendDelta(dst, keys[i][m]-prev), keys[i][m]
		}
	}
	for i := range vals {
		dst = append(dst, vals[i].tag)
	}
	var zero I
	for m := range len(zero) {
		prev := int64(0)
		for i := range vals {
			dst, prev = appendDelta(dst, vals[i].idx[m]-prev), vals[i].idx[m]
		}
	}
	prev := int64(0)
	for i := range vals {
		dst, prev = appendDelta(dst, int64(vals[i].col)-prev), int64(vals[i].col)
	}
	for i := range vals {
		dst = appendFloat(dst, vals[i].val)
	}
	return sealBlock(dst, at)
}

// decodeSValBlock parses one block written by appendSValBlock into the
// storage of the keys and vals it is handed (mr.BlockSizer.Decode; nil
// allocates). With a backend installed src is whatever a worker process
// sent back — hostile input, rejected by structure or by CRC before any
// record is returned.
func decodeSValBlock[I index](src []byte, keys [][3]int64, vals []sval[I]) ([][3]int64, []sval[I], []byte, error) {
	r, n := openBlock(src)
	// Every field of every record is assigned below, so reused storage
	// needs no clearing.
	keys, vals = slices.Grow(keys[:0], n)[:n], slices.Grow(vals[:0], n)[:n]
	for m := range 3 {
		prev := int64(0)
		for i := range keys {
			prev += r.delta()
			keys[i][m] = prev
		}
	}
	if tags := r.take(n); tags != nil {
		for i := range vals {
			vals[i].tag = tags[i]
		}
	}
	var zero I
	for m := range len(zero) {
		prev := int64(0)
		for i := range vals {
			prev += r.delta()
			vals[i].idx[m] = prev
		}
	}
	prev := int64(0)
	for i := range vals {
		prev += r.delta()
		vals[i].col = r.narrow(prev)
	}
	if vs := r.take(8 * n); vs != nil {
		for i := range vals {
			vals[i].val = floatAt(vs, i)
		}
	}
	rest, err := r.done()
	if err != nil {
		return nil, nil, rest, err
	}
	return keys, vals, rest, nil
}
