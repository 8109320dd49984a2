// Fixture mirroring internal/mrproc's frame slabs: partition windows
// are built in, and read back into, byte slabs borrowed from the engine
// with mr.Acquire, and poolreturn covers the mrproc package so every
// slab must reach mr.Recycle on every path — the socket-error returns of
// a window above all, since a slab leaked there is leaked exactly when a
// worker dies and every later window takes the same path.
package mrproc

import (
	"bufio"

	mr "fixture.example/poolreturn"
)

// cleanWindow is the ship-window shape: the slab grows while frames are
// built, so the deferred closure returns whatever buf has become, on
// the write-error return as on the normal one.
func cleanWindow(w *bufio.Writer, blocks [][]byte) error {
	buf := mr.Acquire[byte](0)
	defer func() { mr.Recycle(buf) }()
	for _, b := range blocks {
		buf = append(buf[:0], b...)
		w.Write(buf) // a bufio.Writer's error is sticky: Flush reports it
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// flaggedWriteErrorLeak returns the slab on the happy path only: the
// write-error return leaks it.
func flaggedWriteErrorLeak(w *bufio.Writer, block []byte) error {
	buf := mr.Acquire[byte](0) // want "returned with Recycle on some paths but leaks on others"
	buf = append(buf, block...)
	w.Write(buf)
	if err := w.Flush(); err != nil {
		return err
	}
	mr.Recycle(buf)
	return nil
}

// flaggedLeak never returns the slab at all.
func flaggedLeak(w *bufio.Writer, block []byte) error {
	buf := mr.Acquire[byte](0) // want "pooled buffer buf is acquired but never returned with Recycle"
	buf = append(buf, block...)
	w.Write(buf)
	return w.Flush()
}
