// Package mrproc is the multi-process shuffle backend: worker processes
// that hold shuffle partitions for the engine behind local sockets. The
// engine's computation (map and reduce closures) and its DFS stay in the
// master process — closures cannot cross a process boundary — but every
// partition a map task emits is parked in a worker until its reducer
// fetches it, the one thing a Hadoop job moves between machines.
//
// The package has three layers:
//
//   - frame.go: a length-prefixed, CRC-guarded frame codec. Every
//     message on a socket is one frame: magic, type, payload length,
//     payload, CRC-32C over type+length+payload. Truncation, bit flips,
//     and oversized lengths are errors, never panics or allocations
//     (FuzzWireFraming pins this).
//   - proto.go + worker.go: the request/response protocol and the
//     worker process serving it — a partition store for shuffle data,
//     and a file store that only the file frames reach (probe-only,
//     removed after ROADMAP item 1; no decomposition ships a file).
//   - master.go: the mr.Backend implementation — spawns workers,
//     tracks membership (register → live → draining → exited, dead on
//     heartbeat miss), places partitions by hash (dfs.HashBytes), and
//     drains workers before shutdown.
package mrproc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Frame layout, little-endian:
//
//	offset 0: magic   uint32  "2TH\x50" (frameMagic)
//	offset 4: type    uint8
//	offset 5: length  uint32  payload bytes, ≤ maxFramePayload
//	offset 9: payload [length]byte
//	then:     crc     uint32  CRC-32C over bytes [4, 9+length)
//
// The CRC covers type and length as well as the payload, so a flipped
// length byte fails the checksum instead of desynchronizing the stream.
const (
	frameMagic      = uint32(0x50485432) // "2TH\x50" when read LE
	frameHeaderLen  = 9
	frameTrailerLen = 4
	maxFramePayload = 1 << 30
)

// frameType tags what a frame's payload means. The wire values are
// part of the protocol; add new types at the end only.
type frameType uint8

const (
	ftInvalid    frameType = iota
	ftHello                // worker → master: register (payload: worker id)
	ftHelloOK              // master → worker: registration accepted
	ftPing                 // master → worker: heartbeat probe
	ftPong                 // worker → master: heartbeat reply
	ftShipPart             // master → worker: store a shuffle partition
	ftFetchPart            // master → worker: read a shuffle partition
	ftPartData             // worker → master: partition bytes
	ftPartAbsent           // worker → master: no such partition
	ftReleaseJob           // master → worker: drop a job run's partitions
	ftShipFile             // master → worker: store a file (payload: name, block)
	_                      // retired: chunk indices a worker lacked
	_                      // retired: one chunk's bytes
	ftFileOK               // worker → master: file stored
	ftFetchFile            // master → worker: read a file
	ftFileData             // worker → master: file bytes
	ftFileAbsent           // worker → master: no such file
	ftDropFile             // master → worker: forget a file
	ftOK                   // generic success
	ftError                // generic failure (payload: message)
	ftDrain                // master → worker: finish in-flight work and stop
	ftDrainOK              // worker → master: drained, about to exit
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Frame codec errors. ReadFrame and DecodeFrame never panic on hostile
// input; they return one of these (or an io error) and never allocate
// more than the declared payload length, which is capped.
var (
	ErrBadMagic  = errors.New("mrproc: bad frame magic")
	ErrBadCRC    = errors.New("mrproc: frame CRC mismatch")
	ErrOversized = errors.New("mrproc: frame payload exceeds limit")
	// errTruncatedFrame reports a buffer that ends mid-frame; the
	// streaming reader maps it to io.ErrUnexpectedEOF.
	errTruncatedFrame = errors.New("mrproc: truncated frame")
)

// beginFrame opens a frame of type t at the end of dst: the caller
// appends the payload in place and closes the frame with endFrame, so a
// frame is built where it will be written from, never copied into.
func beginFrame(dst []byte, t frameType) (_ []byte, at int) {
	at = len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, frameMagic)
	return append(dst, byte(t), 0, 0, 0, 0), at
}

// endFrame closes the frame opened at offset at: it fills in the length
// of everything appended since and appends the CRC.
func endFrame(dst []byte, at int) []byte {
	n := len(dst) - at - frameHeaderLen
	if n > maxFramePayload {
		// Callers never build oversized payloads (partition windows close
		// their frames at frameTarget, a file block is far below the cap);
		// treat it as a programmer error rather than silently corrupting
		// the stream.
		panic(fmt.Sprintf("mrproc: frame payload %d exceeds %d", n, maxFramePayload))
	}
	binary.LittleEndian.PutUint32(dst[at+5:], uint32(n))
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[at+4:], crcTable))
}

// encodeFrame appends one complete frame for (t, payload) to dst and
// returns the extended slice.
func encodeFrame(dst []byte, t frameType, payload []byte) []byte {
	dst, at := beginFrame(dst, t)
	return endFrame(append(dst, payload...), at)
}

// decodeFrame parses one frame from the front of b. It returns the
// frame type, the payload (aliasing b), and the total encoded size
// consumed. A buffer that ends mid-frame returns errTruncatedFrame; a
// corrupt one returns ErrBadMagic, ErrOversized, or ErrBadCRC. The
// declared length is validated against both the cap and the buffer
// before any use, so hostile lengths cannot trigger huge allocations
// or out-of-range reads.
func decodeFrame(b []byte) (frameType, []byte, int, error) {
	if len(b) < frameHeaderLen {
		return ftInvalid, nil, 0, errTruncatedFrame
	}
	if binary.LittleEndian.Uint32(b[0:]) != frameMagic {
		return ftInvalid, nil, 0, ErrBadMagic
	}
	n := binary.LittleEndian.Uint32(b[5:])
	if n > maxFramePayload {
		return ftInvalid, nil, 0, ErrOversized
	}
	total := frameHeaderLen + int(n) + frameTrailerLen
	if len(b) < total {
		return ftInvalid, nil, 0, errTruncatedFrame
	}
	body := b[4 : frameHeaderLen+int(n)]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(b[frameHeaderLen+int(n):]) {
		return ftInvalid, nil, 0, ErrBadCRC
	}
	return frameType(b[4]), b[frameHeaderLen : frameHeaderLen+int(n)], total, nil
}

// writeFrame writes one frame to w (a bufio.Writer everywhere outside
// tests) without assembling it: the header, the payload — its parts laid
// end to end, each written from where it lies — and the trailer go out
// as separate writes, the CRC accumulated across them.
func writeFrame(w io.Writer, t frameType, payload ...[]byte) error {
	n := 0
	for _, p := range payload {
		n += len(p)
	}
	if n > maxFramePayload {
		return ErrOversized
	}
	var hdr [frameHeaderLen + frameTrailerLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], frameMagic)
	hdr[4] = byte(t)
	binary.LittleEndian.PutUint32(hdr[5:], uint32(n))
	crc := crc32.Checksum(hdr[4:frameHeaderLen], crcTable)
	for _, p := range payload {
		crc = crc32.Update(crc, crcTable, p)
	}
	binary.LittleEndian.PutUint32(hdr[frameHeaderLen:], crc)
	if _, err := w.Write(hdr[:frameHeaderLen]); err != nil {
		return err
	}
	for _, p := range payload {
		if _, err := w.Write(p); err != nil {
			return err
		}
	}
	_, err := w.Write(hdr[frameHeaderLen:])
	return err
}

// readFrame reads one frame from r. The payload is freshly allocated
// (bounded by the validated length) and owned by the caller. Truncated
// streams return io.ErrUnexpectedEOF, except a clean EOF before any
// header byte, which returns io.EOF so callers can distinguish an
// orderly close from a mid-frame cut.
func readFrame(r io.Reader) (frameType, []byte, error) {
	t, buf, err := readFrameAppend(r, nil)
	return t, buf[:len(buf):len(buf)], err
}

// readFrameAppend is readFrame into caller-owned storage: the payload
// is appended to dst. A dst with room for the frame takes it in one
// read; otherwise dst grows as the bytes arrive, never more than
// max(1 MiB, bytes read) ahead of them, so a garbled or hostile length
// costs what the stream delivers, not what it declares. On error dst
// comes back as it went in.
func readFrameAppend(r io.Reader, dst []byte) (frameType, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		return ftInvalid, dst, err
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return ftInvalid, dst, unexpected(err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != frameMagic {
		return ftInvalid, dst, ErrBadMagic
	}
	n := int(binary.LittleEndian.Uint32(hdr[5:]))
	if n > maxFramePayload {
		return ftInvalid, dst, ErrOversized
	}
	at, end := len(dst), len(dst)+n+frameTrailerLen
	buf := dst
	for len(buf) < end {
		next := end
		if cap(buf) < end {
			next = min(end, len(buf)+max(1<<20, len(buf)-at))
		}
		buf = slices.Grow(buf, next-len(buf))
		if _, err := io.ReadFull(r, buf[len(buf):next]); err != nil {
			return ftInvalid, dst, unexpected(err)
		}
		buf = buf[:next]
	}
	rest := buf[at:]
	crc := crc32.Update(crc32.Checksum(hdr[4:], crcTable), crcTable, rest[:n])
	if crc != binary.LittleEndian.Uint32(rest[n:]) {
		return ftInvalid, dst, ErrBadCRC
	}
	return frameType(hdr[4]), buf[:at+n], nil
}

func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
