package dfs

import (
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
