package core

// Columnar block encodings — the shuffle wire format, and the only one:
// a whole block (a DFS file, or one map task's per-reducer shuffle
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
// The fixed-width per-record format this replaced survives only as the
// *Bytes constants in records.go, which still price DFS files and job
// outputs (and are the frozen reference the columnar shuffle total is
// tested against).
//
// Every encoder here has a matching incremental sizer with the
// invariant len(Append*Block(nil, recs)) == blockHeaderSize(n) +
// Σ pair/record sizes — the colcodec tests and FuzzColumnarRoundTrip
// pin both directions, and the mr engine charges shuffle bytes through
// the sizers (mr.BlockSizer), so the cost model can never drift from
// the declared wire format.

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

// beginBlock reserves a block's CRC field in dst, returning the offset
// the matching sealBlock fills it at.
func beginBlock(dst []byte) ([]byte, int) {
	return append(dst, 0, 0, 0, 0), len(dst)
}

// sealBlock checksums everything appended since beginBlock and writes
// it into the reserved field.
func sealBlock(dst []byte, at int) []byte {
	binary.LittleEndian.PutUint32(dst[at:], crc32.Checksum(dst[at+crcSize:], crcTable))
	return dst
}

// openBlock splits a block's stored CRC from its body.
func openBlock(src []byte) (stored uint32, body []byte, err error) {
	if len(src) < crcSize {
		return 0, src, fmt.Errorf("core: columnar block shorter than its checksum field")
	}
	return binary.LittleEndian.Uint32(src), src[crcSize:], nil
}

// verifyBlock checks the stored CRC against the region a structural
// decode consumed (body minus the trailing rest). Verification runs
// after the structural pass so the consumed region is known — blocks
// allow trailing bytes — but before any decoded record is returned.
func verifyBlock(stored uint32, body, rest []byte) error {
	if crc32.Checksum(body[:len(body)-len(rest)], crcTable) != stored {
		return fmt.Errorf("core: columnar block checksum mismatch")
	}
	return nil
}

// readUvarint decodes one uvarint with explicit error reporting. The
// decoders are strict: an over-long (non-canonical) encoding is
// rejected, which keeps decode ∘ encode the identity on every accepted
// block — the property FuzzColumnarRoundTrip pins and the cost model's
// sizers assume.
func readUvarint(src []byte) (uint64, []byte, error) {
	u, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, src, fmt.Errorf("core: bad uvarint in columnar block")
	}
	if int64(n) != varintLen(u) {
		return 0, src, fmt.Errorf("core: non-canonical uvarint in columnar block")
	}
	return u, src[n:], nil
}

// readCount reads a block's record-count header. Counts are bounded by
// the remaining input (every record costs at least one byte per
// column), which also rejects counts that would overflow int.
func readCount(src []byte) (int, []byte, error) {
	count, rest, err := readUvarint(src)
	if err != nil {
		return 0, src, err
	}
	if count > uint64(len(rest)) {
		return 0, src, fmt.Errorf("core: short columnar block: %d records in %d bytes", count, len(rest))
	}
	return int(count), rest, nil
}

// int32Checked narrows a decoded column value, surfacing the first
// out-of-range value through errp (a strict decoder cannot truncate:
// the truncated value would re-encode to different bytes).
func int32Checked(v int64, errp *error) int32 {
	if (v > math.MaxInt32 || v < math.MinInt32) && *errp == nil {
		*errp = fmt.Errorf("core: column index %d out of int32 range", v)
	}
	return int32(v)
}

// appendDeltaColumn writes one zigzag-delta index column; get returns
// record i's value for this column.
func appendDeltaColumn(dst []byte, n int, get func(i int) int64) []byte {
	prev := int64(0)
	for i := 0; i < n; i++ {
		v := get(i)
		dst = binary.AppendUvarint(dst, zigzag(v-prev))
		prev = v
	}
	return dst
}

// decodeDeltaColumn reads one zigzag-delta column, handing record i's
// value to set.
func decodeDeltaColumn(src []byte, n int, set func(i int, v int64)) ([]byte, error) {
	prev := int64(0)
	for i := 0; i < n; i++ {
		u, rest, err := readUvarint(src)
		if err != nil {
			return src, err
		}
		src = rest
		prev += unzigzag(u)
		set(i, prev)
	}
	return src, nil
}

// --- Entry blocks (tensor files) --------------------------------------

// AppendEntryBlock appends the columnar encoding of entries to dst:
// three delta-encoded index columns followed by the value column. Its
// length is exactly EntryBlockSize(entries).
func AppendEntryBlock(dst []byte, entries []Entry) []byte {
	dst, at := beginBlock(dst)
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for m := 0; m < 3; m++ {
		dst = appendDeltaColumn(dst, len(entries), func(i int) int64 { return entries[i].Idx[m] })
	}
	for _, e := range entries {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Val))
	}
	return sealBlock(dst, at)
}

// DecodeEntryBlock parses one block written by AppendEntryBlock,
// returning the decoded entries and any trailing bytes. The block's
// CRC is verified before any record is returned.
func DecodeEntryBlock(src []byte) ([]Entry, []byte, error) {
	stored, body, err := openBlock(src)
	if err != nil {
		return nil, src, err
	}
	n, cur, err := readCount(body)
	if err != nil {
		return nil, src, err
	}
	out := make([]Entry, n)
	for m := 0; m < 3; m++ {
		cur, err = decodeDeltaColumn(cur, n, func(i int, v int64) { out[i].Idx[m] = v })
		if err != nil {
			return nil, src, err
		}
	}
	if len(cur) < n*8 {
		return nil, src, fmt.Errorf("core: short Entry block value column: %d bytes for %d records", len(cur), n)
	}
	for i := range out {
		out[i].Val = math.Float64frombits(binary.LittleEndian.Uint64(cur[i*8:]))
	}
	rest := cur[n*8:]
	if err := verifyBlock(stored, body, rest); err != nil {
		return nil, src, err
	}
	return out, rest, nil
}

// entryDeltaSize is the incremental size of e appended after prev
// (zero Entry for the block's first record).
func entryDeltaSize(prev, e Entry) int64 {
	return varintLen(zigzag(e.Idx[0]-prev.Idx[0])) +
		varintLen(zigzag(e.Idx[1]-prev.Idx[1])) +
		varintLen(zigzag(e.Idx[2]-prev.Idx[2])) + 8
}

// EntryBlockSize is the exact encoded size of AppendEntryBlock(nil,
// entries), computed incrementally without encoding.
func EntryBlockSize(entries []Entry) int64 {
	n := blockHeaderSize(len(entries))
	var prev Entry
	for _, e := range entries {
		n += entryDeltaSize(prev, e)
		prev = e
	}
	return n
}

// --- MatEntry blocks (factor matrices) --------------------------------

// AppendMatEntryBlock appends the columnar encoding of cells: row and
// col delta columns, then values. Length is MatEntryBlockSize(cells).
func AppendMatEntryBlock(dst []byte, cells []MatEntry) []byte {
	dst, at := beginBlock(dst)
	dst = binary.AppendUvarint(dst, uint64(len(cells)))
	dst = appendDeltaColumn(dst, len(cells), func(i int) int64 { return cells[i].Row })
	dst = appendDeltaColumn(dst, len(cells), func(i int) int64 { return int64(cells[i].Col) })
	for _, c := range cells {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.Val))
	}
	return sealBlock(dst, at)
}

// DecodeMatEntryBlock parses one block written by AppendMatEntryBlock.
func DecodeMatEntryBlock(src []byte) ([]MatEntry, []byte, error) {
	stored, body, err := openBlock(src)
	if err != nil {
		return nil, src, err
	}
	n, cur, err := readCount(body)
	if err != nil {
		return nil, src, err
	}
	out := make([]MatEntry, n)
	cur, err = decodeDeltaColumn(cur, n, func(i int, v int64) { out[i].Row = v })
	if err != nil {
		return nil, src, err
	}
	var rangeErr error
	cur, err = decodeDeltaColumn(cur, n, func(i int, v int64) { out[i].Col = int32Checked(v, &rangeErr) })
	if err == nil {
		err = rangeErr
	}
	if err != nil {
		return nil, src, err
	}
	if len(cur) < n*8 {
		return nil, src, fmt.Errorf("core: short MatEntry block value column: %d bytes for %d records", len(cur), n)
	}
	for i := range out {
		out[i].Val = math.Float64frombits(binary.LittleEndian.Uint64(cur[i*8:]))
	}
	rest := cur[n*8:]
	if err := verifyBlock(stored, body, rest); err != nil {
		return nil, src, err
	}
	return out, rest, nil
}

func matEntryDeltaSize(prev, c MatEntry) int64 {
	return varintLen(zigzag(c.Row-prev.Row)) +
		varintLen(zigzag(int64(c.Col)-int64(prev.Col))) + 8
}

// MatEntryBlockSize is the exact encoded size of AppendMatEntryBlock.
func MatEntryBlockSize(cells []MatEntry) int64 {
	n := blockHeaderSize(len(cells))
	var prev MatEntry
	for _, c := range cells {
		n += matEntryDeltaSize(prev, c)
		prev = c
	}
	return n
}

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
// so the bytes on the wire are the bytes the job was charged.
func appendSValBlock[I index](dst []byte, keys [][3]int64, vals []sval[I]) []byte {
	n := len(keys)
	dst, at := beginBlock(dst)
	dst = binary.AppendUvarint(dst, uint64(n))
	for m := 0; m < 3; m++ {
		dst = appendDeltaColumn(dst, n, func(i int) int64 { return keys[i][m] })
	}
	for _, v := range vals {
		dst = append(dst, v.tag)
	}
	var zero I
	for m := 0; m < len(zero); m++ {
		dst = appendDeltaColumn(dst, n, func(i int) int64 { return vals[i].idx[m] })
	}
	dst = appendDeltaColumn(dst, n, func(i int) int64 { return int64(vals[i].col) })
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.val))
	}
	return sealBlock(dst, at)
}

// decodeSValBlock parses one block written by appendSValBlock into the
// storage of the keys and vals it is handed (mr.BlockSizer.Decode; nil
// allocates). With a backend installed src is whatever a worker process
// sent back — hostile input, rejected by structure or by CRC before any
// record is returned.
func decodeSValBlock[I index](src []byte, keys [][3]int64, vals []sval[I]) ([][3]int64, []sval[I], []byte, error) {
	stored, body, err := openBlock(src)
	if err != nil {
		return nil, nil, src, err
	}
	n, cur, err := readCount(body)
	if err != nil {
		return nil, nil, src, err
	}
	// Every field of every record is assigned below, so reused storage
	// needs no clearing.
	keys = slices.Grow(keys[:0], n)[:n]
	vals = slices.Grow(vals[:0], n)[:n]
	for m := 0; m < 3; m++ {
		cur, err = decodeDeltaColumn(cur, n, func(i int, v int64) { keys[i][m] = v })
		if err != nil {
			return nil, nil, src, err
		}
	}
	if len(cur) < n {
		return nil, nil, src, fmt.Errorf("core: short sval block tag column")
	}
	for i := 0; i < n; i++ {
		vals[i].tag = cur[i]
	}
	cur = cur[n:]
	var zero I
	for m := 0; m < len(zero); m++ {
		cur, err = decodeDeltaColumn(cur, n, func(i int, v int64) { vals[i].idx[m] = v })
		if err != nil {
			return nil, nil, src, err
		}
	}
	var rangeErr error
	cur, err = decodeDeltaColumn(cur, n, func(i int, v int64) { vals[i].col = int32Checked(v, &rangeErr) })
	if err == nil {
		err = rangeErr
	}
	if err != nil {
		return nil, nil, src, err
	}
	if len(cur) < n*8 {
		return nil, nil, src, fmt.Errorf("core: short sval block value column")
	}
	for i := 0; i < n; i++ {
		vals[i].val = math.Float64frombits(binary.LittleEndian.Uint64(cur[i*8:]))
	}
	rest := cur[n*8:]
	if err := verifyBlock(stored, body, rest); err != nil {
		return nil, nil, src, err
	}
	return keys, vals, rest, nil
}
