package dfs

import (
	"errors"
	"fmt"
	"testing"
)

// writeBlock publishes a file of n int records charging size bytes each.
func writeBlock(t *testing.T, fs *FS, name string, n int, size int64) {
	t.Helper()
	w, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]int, n)
	for i := range payload {
		payload[i] = i
	}
	w.AppendBlock(payload, n, int64(n)*size)
	w.Close()
}

func TestBlockWriteAndView(t *testing.T) {
	fs := New(Options{})
	w, err := fs.Create("blk")
	if err != nil {
		t.Fatal(err)
	}
	payload := []int64{10, 20, 30, 40}
	w.AppendBlock(payload, len(payload), 32)
	w.Close()

	got, n, err := fs.BlockView("blk")
	if err != nil {
		t.Fatalf("BlockView: %v", err)
	}
	if n != 4 {
		t.Fatalf("count = %d, want 4", n)
	}
	s, isTyped := got.([]int64)
	if !isTyped || len(s) != 4 || s[2] != 30 {
		t.Fatalf("payload = %#v", got)
	}
	// Zero-copy: the view is the slice the writer handed over.
	if &s[0] != &payload[0] {
		t.Fatal("BlockView copied the payload")
	}
	if sz, _ := fs.Size("blk"); sz != 32 {
		t.Fatalf("Size = %d, want 32", sz)
	}
	st := fs.Stats()
	if st.BytesWritten != 32 || st.RecordsWritten != 4 {
		t.Fatalf("write stats = %+v", st)
	}
	if st.BytesRead != 32 || st.RecordsRead != 4 {
		t.Fatalf("read stats = %+v", st)
	}
}

// A file published without a block is a valid empty file; an absent one
// is an error.
func TestBlockViewOnEmptyAndAbsentFile(t *testing.T) {
	fs := New(Options{})
	w, _ := fs.Create("empty")
	w.Close()
	payload, n, err := fs.BlockView("empty")
	if err != nil || payload != nil || n != 0 {
		t.Fatalf("empty file: payload=%v n=%d err=%v", payload, n, err)
	}
	if st := fs.Stats(); st.BytesRead != 0 || st.RecordsRead != 0 || st.BlocksWritten != 0 {
		t.Fatalf("empty file charged I/O: %+v", st)
	}
	if _, _, err := fs.BlockView("absent"); err == nil {
		t.Fatal("BlockView on absent file did not error")
	}
}

func TestBlockWritePanics(t *testing.T) {
	fs := New(Options{})
	w, _ := fs.Create("a")
	w.AppendBlock([]int{1}, 1, 8)
	mustPanic(t, "second AppendBlock", func() { w.AppendBlock([]int{2}, 1, 8) })
	w2, _ := fs.Create("b")
	mustPanic(t, "count mismatch", func() { w2.AppendBlock([]int{1, 2}, 3, 8) })
	mustPanic(t, "non-slice payload", func() { w2.AppendBlock(7, 1, 8) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestDeleteHandsBackPayloadUnderStorageFaults: Delete returns exactly
// the slice AppendBlock stored — the same backing array, for the
// engine's pools to reuse — after which no read-side method sees the
// file, and it counts one deletion. A file published without a block
// hands back nil. The same holds with storage faults installed, even
// for a file no read could fail over on: faults move counters, never
// the storage.
func TestDeleteHandsBackPayloadUnderStorageFaults(t *testing.T) {
	for _, faults := range []*StorageFaults{nil, {Seed: 3, CorruptRate: 0.5, LossRate: 0.2}, {Seed: 1, CorruptRate: 1}} {
		t.Run(fmt.Sprintf("faults=%+v", faults), func(t *testing.T) {
			fs := New(Options{BlockSize: 16, Replication: 2})
			fs.InstallFaults(faults)
			stored := []int64{4, 5, 6, 7, 8}
			w, err := fs.Create("f")
			if err != nil {
				t.Fatal(err)
			}
			w.AppendBlock(stored, len(stored), 40)
			w.Close()
			if _, _, err := fs.BlockView("f"); faults == nil && err != nil {
				t.Fatal(err)
			}
			before := fs.Stats()
			payload, err := fs.Delete("f")
			if err != nil {
				t.Fatal(err)
			}
			got, ok := payload.([]int64)
			if !ok || len(got) != len(stored) || cap(got) != cap(stored) || &got[0] != &stored[0] {
				t.Fatalf("Delete handed back %T %v, want the stored slice", payload, payload)
			}
			after := fs.Stats()
			if after.FilesDeleted != before.FilesDeleted+1 {
				t.Fatalf("FilesDeleted %d → %d, want one more", before.FilesDeleted, after.FilesDeleted)
			}
			if before.FilesDeleted = after.FilesDeleted; before != after {
				t.Fatalf("Delete moved other counters: %+v → %+v", before, after)
			}
			var ne *ErrNotExist
			if _, _, err := fs.BlockView("f"); !errors.As(err, &ne) {
				t.Fatalf("BlockView after Delete: %v", err)
			}
			if _, err := fs.Size("f"); !errors.As(err, &ne) {
				t.Fatalf("Size after Delete: %v", err)
			}
			if fs.Exists("f") {
				t.Fatal("deleted file exists")
			}
			if p, err := fs.Delete("f"); !errors.As(err, &ne) || p != nil {
				t.Fatalf("second Delete: %v, %v", p, err)
			}
			w, _ = fs.Create("empty")
			w.Close()
			if p, err := fs.Delete("empty"); err != nil || p != nil {
				t.Fatalf("blockless file: Delete handed back %v, %v", p, err)
			}
		})
	}
}

// TestDeleteStagedOrAbortedHandsBackNothing: an unpublished file is
// absent to Delete, so its payload is never handed out while a writer
// may still own it, and nothing is counted.
func TestDeleteStagedOrAbortedHandsBackNothing(t *testing.T) {
	fs := New(Options{})
	staged, _ := fs.Create("staged")
	staged.AppendBlock([]int{1}, 1, 8)
	aborted, _ := fs.Create("aborted")
	aborted.AppendBlock([]int{2}, 1, 8)
	aborted.Abort()
	var ne *ErrNotExist
	for _, name := range []string{"staged", "aborted"} {
		if p, err := fs.Delete(name); !errors.As(err, &ne) || p != nil {
			t.Fatalf("Delete(%q) = %v, %v; want nothing and ErrNotExist", name, p, err)
		}
	}
	if n := fs.Stats().FilesDeleted; n != 0 {
		t.Fatalf("FilesDeleted = %d", n)
	}
	staged.Close()
	if p, err := fs.Delete("staged"); err != nil || p.([]int)[0] != 1 {
		t.Fatalf("published file: Delete = %v, %v", p, err)
	}
}
