package mrproc

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
)

// Environment hook: a process started with these variables set is a
// worker, not whatever its binary normally is. The master re-execs its
// own executable with them; MaybeWorker, called first thing from main
// (or TestMain), diverts the child into the worker loop before any of
// the binary's real behavior runs.
const (
	envMaster = "HATEN2_MRPROC_MASTER"
	envID     = "HATEN2_MRPROC_ID"
)

// MaybeWorker turns the current process into an mrproc worker when the
// spawn environment variables are set, and never returns in that case
// (the process exits when the master drains it or its connection
// drops). In a normal process invocation it is a no-op. Every binary
// that can host a proc backend — cmd/haten2, cmd/haten2bench, and the
// TestMain of any test package running proc conformance — must call it
// before doing anything else.
func MaybeWorker() {
	addr := os.Getenv(envMaster)
	if addr == "" {
		return
	}
	id, err := strconv.Atoi(os.Getenv(envID))
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrproc worker: bad %s: %v\n", envID, err)
		os.Exit(2)
	}
	if err := RunWorker(addr, id); err != nil {
		fmt.Fprintf(os.Stderr, "mrproc worker %d: %v\n", id, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// jobRun names one run of a job: what ReleaseJob frees as a unit.
type jobRun struct {
	job string
	seq int64
}

// workerStore is a worker process's in-memory state: shuffle partitions
// by job run and then (task, reducer), so releasing a run drops one map
// entry instead of scanning every run's partitions; and files by name,
// each the block it arrived as.
type workerStore struct {
	parts map[jobRun]map[[2]int][]byte
	files map[string][]byte
}

func newWorkerStore() *workerStore {
	return &workerStore{parts: make(map[jobRun]map[[2]int][]byte), files: make(map[string][]byte)}
}

// RunWorker dials the master, registers as worker id, and serves
// requests until the master drains the connection or closes it. This is
// the whole worker process: single connection, sequential requests (the
// master serializes per-worker traffic), memory-only storage.
func RunWorker(addr string, id int) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("dial master: %w", err)
	}
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	if err := writeFrame(bw, ftHello, encHello(id)); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	t, _, err := readFrame(br)
	if err != nil {
		return fmt.Errorf("registration: %w", err)
	}
	if t != ftHelloOK {
		return fmt.Errorf("registration rejected: frame type %d", t)
	}
	return serve(br, bw, newWorkerStore())
}

// serve is the worker request loop. It returns nil on an orderly end:
// a drain handshake, or the master closing the connection at a frame
// boundary. The drain path is deliberately one-sided: the worker sends
// ftDrainOK, flushes it, and then *keeps reading until the master
// closes the socket* instead of closing its own end. Closing first
// would race the master's final read — an ECONNRESET if the kernel
// turns our close into an RST while the DrainOK bytes are still in
// flight — which is exactly the shutdown flakiness the drain handshake
// exists to prevent.
func serve(br *bufio.Reader, bw *bufio.Writer, store *workerStore) error {
	for {
		// Replies are buffered while a request is handled and flushed
		// when the next one is awaited: one write per request, however
		// many frames answer it.
		if err := bw.Flush(); err != nil {
			return err
		}
		t, payload, err := readFrame(br)
		if err == io.EOF {
			return nil // master closed between frames
		}
		if err != nil {
			return err
		}
		rt, rp := ftOK, []byte(nil) // the reply, for the requests that have exactly one
		switch t {
		case ftPing:
			rt = ftPong
		case ftShipPart:
			// One frame of a ship window: (key, block) entries to the end
			// of the payload. The stored blocks alias the payload, which
			// this loop owns.
			for r := (protoReader{b: payload}); len(r.b) > 0; {
				k, data, err := decShipEntry(&r)
				if err != nil {
					return err
				}
				run := jobRun{k.Job, k.Seq}
				if store.parts[run] == nil {
					store.parts[run] = make(map[[2]int][]byte)
				}
				store.parts[run][[2]int{k.Task, k.Reducer}] = data
			}
		case ftFetchPart:
			// A fetch window: one reply per key named, in order.
			for r := (protoReader{b: payload}); len(r.b) > 0; {
				k, err := decPartKey(&r)
				if err != nil {
					return err
				}
				rt = ftPartData
				data, ok := store.parts[jobRun{k.Job, k.Seq}][[2]int{k.Task, k.Reducer}]
				if !ok {
					rt = ftPartAbsent
				}
				if err := writeFrame(bw, rt, data); err != nil {
					return err
				}
			}
			continue
		case ftReleaseJob:
			job, seq, err := decReleaseJob(payload)
			if err != nil {
				return err
			}
			delete(store.parts, jobRun{job, seq})
		case ftShipFile:
			// The stored block aliases the payload, which this loop owns.
			name, data, err := decShipFile(payload)
			if err != nil {
				return err
			}
			store.files[name], rt = data, ftFileOK
		case ftFetchFile:
			name, err := decName(payload)
			if err != nil {
				return err
			}
			rt = ftFileData
			var ok bool
			if rp, ok = store.files[name]; !ok {
				rt = ftFileAbsent
			}
		case ftDropFile:
			name, err := decName(payload)
			if err != nil {
				return err
			}
			delete(store.files, name)
		case ftDrain:
			if err := writeFrame(bw, ftDrainOK, nil); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
			// Wait for the master to close; see the function comment.
			for {
				if _, _, err := readFrame(br); err != nil {
					if err == io.EOF || err == io.ErrUnexpectedEOF {
						return nil
					}
					return err
				}
			}
		default:
			rt, rp = ftError, fmt.Appendf(nil, "mrproc: unexpected frame type %d", t)
		}
		if err := writeFrame(bw, rt, rp); err != nil {
			return err
		}
	}
}
