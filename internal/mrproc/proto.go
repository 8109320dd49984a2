package mrproc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/haten2/haten2/internal/mr"
)

// proto.go marshals the frame payloads. Everything is little-endian
// with uvarint lengths; strings and byte blobs are length-prefixed.
// Decoders validate every length against the remaining buffer before
// allocating, so a corrupt payload (the frame CRC already makes that
// improbable) errors instead of over-allocating.

var errShortPayload = errors.New("mrproc: truncated message payload")

// chunkSize is the content-addressed transfer granularity for files.
// Factor matrices in the paper's configurations are a few hundred KB,
// so a 64 KiB chunk gives real dedupe opportunities (an unchanged
// chunk of a re-shipped checkpoint is recognized by hash and skipped)
// without bloating manifests.
const chunkSize = 64 << 10

// chunkRef names one chunk of a file: content hash plus exact size
// (the last chunk is short).
type chunkRef struct {
	hash uint64
	size uint32
}

type protoWriter struct{ b []byte }

func (w *protoWriter) uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *protoWriter) varint(v int64)   { w.b = binary.AppendVarint(w.b, v) }
func (w *protoWriter) u64(v uint64)     { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *protoWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}
func (w *protoWriter) bytes(p []byte) {
	w.uvarint(uint64(len(p)))
	w.b = append(w.b, p...)
}

type protoReader struct{ b []byte }

func (r *protoReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, errShortPayload
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *protoReader) varint() (int64, error) {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		return 0, errShortPayload
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *protoReader) u64() (uint64, error) {
	if len(r.b) < 8 {
		return 0, errShortPayload
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v, nil
}

func (r *protoReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil || n > uint64(len(r.b)) {
		return "", errShortPayload
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s, nil
}

// bytes returns a length-prefixed blob aliasing the payload buffer.
func (r *protoReader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil || n > uint64(len(r.b)) {
		return nil, errShortPayload
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p, nil
}

func (r *protoReader) done() error {
	if len(r.b) != 0 {
		return fmt.Errorf("mrproc: %d trailing payload bytes", len(r.b))
	}
	return nil
}

// --- message shapes ----------------------------------------------------

// encPartKey appends a partition key. The ship-partition request is a
// run of (key, bytes) entries and the fetch-partition request a run of
// keys, each to the end of the payload: one entry is the
// single-partition case.
func encPartKey(w *protoWriter, k mr.PartKey) {
	w.str(k.Job)
	w.varint(k.Seq)
	w.uvarint(uint64(k.Task))
	w.uvarint(uint64(k.Reducer))
}

func decPartKey(r *protoReader) (mr.PartKey, error) {
	var k mr.PartKey
	var err error
	if k.Job, err = r.str(); err != nil {
		return k, err
	}
	if k.Seq, err = r.varint(); err != nil {
		return k, err
	}
	task, err := r.uvarint()
	if err != nil {
		return k, err
	}
	red, err := r.uvarint()
	if err != nil {
		return k, err
	}
	k.Task, k.Reducer = int(task), int(red)
	return k, nil
}

// decShipEntry reads one (key, block) entry of a ship-partition
// request; the block aliases the payload.
func decShipEntry(r *protoReader) (mr.PartKey, []byte, error) {
	k, err := decPartKey(r)
	if err != nil {
		return k, nil, err
	}
	data, err := r.bytes()
	return k, data, err
}

func encReleaseJob(job string, seq int64) []byte {
	var w protoWriter
	w.str(job)
	w.varint(seq)
	return w.b
}

func decReleaseJob(p []byte) (string, int64, error) {
	r := protoReader{b: p}
	job, err := r.str()
	if err != nil {
		return "", 0, err
	}
	seq, err := r.varint()
	if err != nil {
		return "", 0, err
	}
	return job, seq, r.done()
}

// ship-file request: name + manifest (per-chunk hash and size). The
// worker answers with the indices of chunks it does not hold.
func encManifest(name string, chunks []chunkRef) []byte {
	var w protoWriter
	w.str(name)
	w.uvarint(uint64(len(chunks)))
	for _, c := range chunks {
		w.u64(c.hash)
		w.uvarint(uint64(c.size))
	}
	return w.b
}

func decManifest(p []byte) (string, []chunkRef, error) {
	r := protoReader{b: p}
	name, err := r.str()
	if err != nil {
		return "", nil, err
	}
	n, err := r.uvarint()
	if err != nil || n > uint64(len(r.b)) { // ≥1 byte per chunk entry
		return "", nil, errShortPayload
	}
	chunks := make([]chunkRef, n)
	for i := range chunks {
		if chunks[i].hash, err = r.u64(); err != nil {
			return "", nil, err
		}
		sz, err := r.uvarint()
		if err != nil || sz > chunkSize {
			return "", nil, errShortPayload
		}
		chunks[i].size = uint32(sz)
	}
	return name, chunks, r.done()
}

// need-chunks response: indices into the manifest.
func encNeed(idx []uint32) []byte {
	var w protoWriter
	w.uvarint(uint64(len(idx)))
	for _, i := range idx {
		w.uvarint(uint64(i))
	}
	return w.b
}

func decNeed(p []byte, nchunks int) ([]uint32, error) {
	r := protoReader{b: p}
	n, err := r.uvarint()
	if err != nil || n > uint64(nchunks) {
		return nil, errShortPayload
	}
	idx := make([]uint32, n)
	for i := range idx {
		v, err := r.uvarint()
		if err != nil || v >= uint64(nchunks) {
			return nil, errShortPayload
		}
		idx[i] = uint32(v)
	}
	return idx, r.done()
}

// chunk-data message: manifest index + bytes.
func encChunk(idx uint32, data []byte) []byte {
	var w protoWriter
	w.uvarint(uint64(idx))
	w.bytes(data)
	return w.b
}

func decChunk(p []byte) (uint32, []byte, error) {
	r := protoReader{b: p}
	idx, err := r.uvarint()
	if err != nil {
		return 0, nil, err
	}
	data, err := r.bytes()
	if err != nil {
		return 0, nil, err
	}
	return uint32(idx), data, r.done()
}

func encName(name string) []byte {
	var w protoWriter
	w.str(name)
	return w.b
}

func decName(p []byte) (string, error) {
	r := protoReader{b: p}
	name, err := r.str()
	if err != nil {
		return "", err
	}
	return name, r.done()
}

func encHello(id int) []byte {
	var w protoWriter
	w.uvarint(uint64(id))
	return w.b
}

func decHello(p []byte) (int, error) {
	r := protoReader{b: p}
	id, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	return int(id), r.done()
}

// splitChunks cuts data into chunkSize pieces and hashes each with the
// DFS checksum chain. Chunk boundaries are fixed offsets, so an
// unchanged prefix or suffix of a re-shipped file keeps its hashes and
// is never moved again.
func splitChunks(data []byte) []chunkRef {
	chunks := make([]chunkRef, 0, (len(data)+chunkSize-1)/chunkSize)
	for off := 0; off < len(data); off += chunkSize {
		end := off + chunkSize
		if end > len(data) {
			end = len(data)
		}
		chunks = append(chunks, chunkRef{hash: hashChunk(data[off:end]), size: uint32(end - off)})
	}
	return chunks
}
