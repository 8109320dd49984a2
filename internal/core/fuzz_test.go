package core

import (
	"testing"

	"github.com/haten2/haten2/internal/mr"
)

// FuzzBlockChecksum pins the tamper-detection contract of the columnar
// block format: flipping any single byte of a sealed block — header,
// count, column data, or the crc32c field itself — must make the
// decoder return an error. A silent wrong decode would let a shuffle
// partition corrupted in a worker process masquerade as data.
// The fuzz inputs choose the codec, the records (expanded
// deterministically from data), the mutated offset, and the xor mask.
func FuzzBlockChecksum(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint8(0xff), []byte{})
	f.Add(uint8(1), uint16(4), uint8(1), []byte("corrupt me"))
	f.Add(uint8(2), uint16(9), uint8(0x80), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(3), uint16(2), uint8(7), []byte("replica"))
	f.Add(uint8(6), uint16(31), uint8(0x10), []byte("0123456789abcdef0123456789abcdef"))
	f.Add(uint8(4), uint16(13), uint8(0x02), []byte("hadamard column"))
	f.Add(uint8(5), uint16(40), uint8(0x21), []byte("order four"))
	f.Fuzz(func(t *testing.T, kind uint8, pos uint16, delta uint8, data []byte) {
		if delta == 0 {
			delta = 1 // xor 0 is not a mutation
		}
		n := int(kind) % 9
		take := func(i int) int64 {
			if i < len(data) {
				return int64(int8(data[i]))*131 + int64(i)
			}
			return int64(i*7%101) - 50
		}
		var enc []byte
		decode := func([]byte) error { return nil }
		// Kinds 4 and 5 fold onto the shuffle blocks of kinds 2 and 3, so
		// every checked-in corpus input still drives a codec.
		switch kind % 6 {
		case 0:
			es := make([]Entry, n)
			for i := range es {
				es[i] = Entry{Idx: [3]int64{take(3 * i), take(3*i + 1), take(3*i + 2)}, Val: float64(take(4*i)) / 3}
			}
			enc = AppendEntryBlock(nil, es)
			decode = func(b []byte) error { _, _, err := DecodeEntryBlock(b); return err }
		case 1:
			cs := make([]MatEntry, n)
			for i := range cs {
				cs[i] = MatEntry{Row: take(2 * i), Col: int32(take(2*i+1) % 1000), Val: float64(take(i))}
			}
			enc = AppendMatEntryBlock(nil, cs)
			decode = func(b []byte) error { _, _, err := DecodeMatEntryBlock(b); return err }
		case 2, 4:
			seg := make([]mr.Pair[[3]int64, sval3], n)
			for i := range seg {
				seg[i] = mr.Pair[[3]int64, sval3]{K: [3]int64{take(6 * i), take(6*i + 1), take(6*i + 2)}, V: sval3{
					tag: uint8(take(6*i + 3)),
					idx: [3]int64{take(6*i + 4), take(6*i + 5), int64(i)},
					col: int32(i % 7),
					val: float64(take(i)) / 7,
				}}
			}
			enc = appendSValBlock(nil, seg)
			decode = func(b []byte) error { _, _, err := decodeSValBlock(b, seg[:0]); return err }
		case 3, 5:
			seg := make([]mr.Pair[[3]int64, sval[[4]int64]], n)
			for i := range seg {
				seg[i] = mr.Pair[[3]int64, sval[[4]int64]]{K: [3]int64{take(4 * i), take(4*i + 1), 0}, V: sval[[4]int64]{
					tag: uint8(i % 5),
					idx: [4]int64{take(4*i + 2), take(4*i + 3), int64(i)},
					col: int32(i % 5),
					val: float64(take(i)) / 11,
				}}
			}
			enc = appendSValBlock(nil, seg)
			decode = func(b []byte) error { _, _, err := decodeSValBlock(b, seg[:0]); return err }
		}
		if err := decode(enc); err != nil {
			t.Fatalf("pristine block rejected: %v", err)
		}
		i := int(pos) % len(enc) // every block has ≥5 bytes (crc + count)
		enc[i] ^= delta
		if err := decode(enc); err == nil {
			t.Fatalf("single-byte mutation at offset %d (xor %#02x) of a %d-record kind-%d block decoded silently",
				i, delta, n, kind%6)
		}
	})
}
