package mrproc

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"

	"github.com/haten2/haten2/internal/mr"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xab}, 70000)}
	for _, p := range payloads {
		for _, ft := range []frameType{ftPing, ftShipPart, ftFileData, ftDrainOK} {
			enc := encodeFrame(nil, ft, p)
			gt, gp, n, err := decodeFrame(enc)
			if err != nil || gt != ft || !bytes.Equal(gp, p) || n != len(enc) {
				t.Fatalf("decode(%d,%d bytes): type %d payload %d consumed %d err %v",
					ft, len(p), gt, len(gp), n, err)
			}
			rt, rp, err := readFrame(bytes.NewReader(enc))
			if err != nil || rt != ft || !bytes.Equal(rp, p) {
				t.Fatalf("readFrame(%d,%d bytes): type %d err %v", ft, len(p), rt, err)
			}
		}
	}
}

// TestFrameTruncation: every proper prefix of a valid frame must error,
// in both the buffer and the stream decoder.
func TestFrameTruncation(t *testing.T) {
	enc := encodeFrame(nil, ftShipPart, []byte("partition bytes"))
	for cut := 0; cut < len(enc); cut++ {
		if _, _, _, err := decodeFrame(enc[:cut]); err == nil {
			t.Fatalf("decodeFrame accepted %d/%d bytes", cut, len(enc))
		}
		if _, _, err := readFrame(bytes.NewReader(enc[:cut])); err == nil {
			t.Fatalf("readFrame accepted %d/%d bytes", cut, len(enc))
		}
	}
	// A cut before any byte is a clean EOF to the stream reader — the
	// orderly-close signal — but anything mid-frame is not.
	if _, _, err := readFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: want io.EOF, got %v", err)
	}
	if _, _, err := readFrame(bytes.NewReader(enc[:5])); err != io.ErrUnexpectedEOF {
		t.Fatalf("mid-header cut: want ErrUnexpectedEOF, got %v", err)
	}
}

// TestFrameCorruption: flipping any single byte of a valid frame must
// produce an error (bad magic, bad CRC, oversized, or truncation —
// never a silent wrong decode, never a panic).
func TestFrameCorruption(t *testing.T) {
	enc := encodeFrame(nil, ftShipFile, []byte("file payload with some length"))
	for i := 0; i < len(enc); i++ {
		mut := append([]byte{}, enc...)
		mut[i] ^= 0x40
		if _, _, _, err := decodeFrame(mut); err == nil {
			t.Fatalf("byte %d flip decoded without error", i)
		}
		if _, _, err := readFrame(bytes.NewReader(mut)); err == nil {
			t.Fatalf("byte %d flip read without error", i)
		}
	}
}

// TestFrameOversizedLength: a declared length beyond the cap must error
// before any allocation of that size.
func TestFrameOversizedLength(t *testing.T) {
	enc := encodeFrame(nil, ftPing, nil)
	binary.LittleEndian.PutUint32(enc[5:], maxFramePayload+1)
	if _, _, _, err := decodeFrame(enc); err != ErrOversized {
		t.Fatalf("want ErrOversized, got %v", err)
	}
	if _, _, err := readFrame(bytes.NewReader(enc)); err != ErrOversized {
		t.Fatalf("readFrame: want ErrOversized, got %v", err)
	}
}

// hugeTruncatedFrame is a header declaring the largest legal payload
// followed by only 10 bytes: a garbled length the stream cannot back.
func hugeTruncatedFrame() []byte {
	enc := encodeFrame(nil, ftFileData, make([]byte, 10))
	binary.LittleEndian.PutUint32(enc[5:], maxFramePayload)
	return enc[:frameHeaderLen+10]
}

// TestReadFrameHugeLengthTruncated: a declared length is not an
// allocation. The stream ends 10 bytes into a 1 GiB payload, and the
// read fails as truncated, hands dst back as it went in, and allocates
// what the stream delivered plus one growth step — not the length.
func TestReadFrameHugeLengthTruncated(t *testing.T) {
	dst := append(make([]byte, 0, 16), "abc"...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, got, err := readFrameAppend(bytes.NewReader(hugeTruncatedFrame()), dst)
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("want io.ErrUnexpectedEOF, got %v", err)
	}
	if len(got) != len(dst) || cap(got) != cap(dst) || &got[0] != &dst[0] || string(got) != "abc" {
		t.Fatalf("dst came back as %q (len %d, cap %d), not as it went in", got, len(got), cap(got))
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= 4<<20 {
		t.Fatalf("reading a truncated frame allocated %d bytes", grown)
	}
}

// shipFrame builds one ftShipPart frame of a ship window.
func shipFrame(entries ...string) []byte {
	buf, at := beginFrame(nil, ftShipPart)
	pw := protoWriter{b: buf}
	for i, e := range entries {
		encPartKey(&pw, mr.PartKey{Job: "seed", Seq: 1, Task: i, Reducer: 2})
		pw.bytes([]byte(e))
	}
	return endFrame(pw.b, at)
}

// shipFileFrame builds the ftShipFile frame of one file.
func shipFileFrame(name, block string) []byte {
	buf, at := beginFrame(nil, ftShipFile)
	pw := protoWriter{b: buf}
	pw.str(name)
	return endFrame(append(pw.b, block...), at)
}

// FuzzWireFraming is the frame codec's robustness pin: for arbitrary
// input bytes — read as a window, frame after frame — the buffer decoder
// and the stream reader must agree, must never panic, and anything
// either accepts must re-encode to a decodable frame with identical
// content; the worker's walk over a ship frame's entries must end in
// the payload's last byte or an error, and a ship-file frame must split
// into a name and a block that tile its payload. Truncations (mid-frame,
// mid-window, and mid-entry under a valid CRC), CRC flips, and oversized
// lengths (all present in the seed corpus) must error.
func FuzzWireFraming(f *testing.F) {
	valid := encodeFrame(nil, ftShipPart, []byte("seed partition payload"))
	f.Add(valid)
	f.Add(encodeFrame(nil, ftPing, nil))
	f.Add(valid[:len(valid)-3]) // truncated mid-trailer
	crcFlip := append([]byte{}, valid...)
	crcFlip[len(crcFlip)-1] ^= 0xff
	f.Add(crcFlip)
	over := encodeFrame(nil, ftFileData, []byte("x"))
	binary.LittleEndian.PutUint32(over[5:], maxFramePayload+7)
	f.Add(over)
	f.Add(hugeTruncatedFrame())
	f.Add([]byte("garbage that is not a frame at all"))
	window := append(shipFrame("block one", "block two"), shipFrame("block three")...)
	f.Add(window)
	f.Add(window[:len(window)-9]) // cut inside the window's second frame
	f.Add(shipFileFrame("stage/X", "columnar block bytes"))
	whole := shipFrame("block one", "block two")
	f.Add(encodeFrame(nil, ftShipPart, whole[frameHeaderLen:len(whole)-frameTrailerLen-4])) // cut inside the second entry, CRC intact
	f.Fuzz(func(t *testing.T, b []byte) {
		stream := bytes.NewReader(b)
		for {
			ft1, p1, n, err := decodeFrame(b)
			rt, rp, rerr := readFrame(stream)
			if err != nil {
				if rerr == nil {
					t.Fatal("stream accepted what buffer rejected")
				}
				return
			}
			if n > len(b) || n < frameHeaderLen+frameTrailerLen {
				t.Fatalf("consumed %d of %d", n, len(b))
			}
			if rerr != nil {
				t.Fatalf("stream rejected what buffer accepted: %v", rerr)
			}
			if rt != ft1 || !bytes.Equal(rp, p1) {
				t.Fatal("stream and buffer decode disagree")
			}
			re := encodeFrame(nil, ft1, p1)
			ft2, p2, n2, err2 := decodeFrame(re)
			if err2 != nil || ft2 != ft1 || !bytes.Equal(p2, p1) || n2 != len(re) {
				t.Fatalf("re-encode round trip failed: %v", err2)
			}
			if name, block, err := decShipFile(p1); ft1 == ftShipFile && err == nil &&
				(len(name)+len(block) >= len(p1) || string(p1[len(p1)-len(block):]) != string(block)) {
				t.Fatalf("ship-file frame split into %d + %d bytes of %d", len(name), len(block), len(p1))
			}
			if ft1 == ftShipPart {
				for r := (protoReader{b: p1}); len(r.b) > 0; {
					before := len(r.b)
					if _, _, err := decShipEntry(&r); err != nil {
						break
					}
					if len(r.b) >= before {
						t.Fatal("ship entry consumed nothing")
					}
				}
			}
			b = b[n:]
		}
	})
}
