package dfs

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCreateWriteRead(t *testing.T) {
	fs := New(Options{})
	w, err := fs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	w.AppendBlock([]string{"x", "y"}, 2, 30)
	w.Close()
	payload, n, err := fs.BlockView("a")
	if err != nil {
		t.Fatal(err)
	}
	recs := payload.([]string)
	if n != 2 || len(recs) != 2 || recs[0] != "x" || recs[1] != "y" {
		t.Fatalf("records = %+v (n=%d)", recs, n)
	}
}

func TestCreateDuplicate(t *testing.T) {
	fs := New(Options{})
	if _, err := fs.Create("a"); err != nil {
		t.Fatal(err)
	}
	_, err := fs.Create("a")
	var ee *ErrExist
	if !errors.As(err, &ee) || ee.Name != "a" {
		t.Fatalf("want ErrExist, got %v", err)
	}
}

func TestReadMissing(t *testing.T) {
	fs := New(Options{})
	_, _, err := fs.BlockView("nope")
	var ne *ErrNotExist
	if !errors.As(err, &ne) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	fs := New(Options{BlockSize: 100, Replication: 3})
	w, _ := fs.Create("f")
	w.AppendBlock([]int{1, 2}, 2, 210)
	w.Close()
	if _, _, err := fs.BlockView("f"); err != nil {
		t.Fatal(err)
	}
	s := fs.Stats()
	if s.BytesWritten != 210 {
		t.Fatalf("BytesWritten=%d", s.BytesWritten)
	}
	if s.BytesReplWrite != 630 {
		t.Fatalf("BytesReplWrite=%d", s.BytesReplWrite)
	}
	if s.BlocksWritten != 3 { // ceil(210/100)
		t.Fatalf("BlocksWritten=%d", s.BlocksWritten)
	}
	if s.BytesRead != 210 || s.RecordsRead != 2 || s.RecordsWritten != 2 {
		t.Fatalf("stats=%+v", s)
	}
	if s.FilesCreated != 1 {
		t.Fatalf("FilesCreated=%d", s.FilesCreated)
	}
}

func TestRereadChargesAgain(t *testing.T) {
	// The DRI optimization (read input once, not twice) must be visible.
	fs := New(Options{})
	w, _ := fs.Create("f")
	w.AppendBlock([]int{1}, 1, 100)
	w.Close()
	fs.BlockView("f")
	fs.BlockView("f")
	if got := fs.Stats().BytesRead; got != 200 {
		t.Fatalf("BytesRead=%d want 200", got)
	}
}

func TestDeleteAndList(t *testing.T) {
	fs := New(Options{})
	for _, n := range []string{"b", "a", "c"} {
		w, _ := fs.Create(n)
		w.Close()
	}
	got := fs.List()
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("List=%v", got)
	}
	if err := fs.Delete("b"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("b") {
		t.Fatal("deleted file still exists")
	}
	if err := fs.Delete("b"); err == nil {
		t.Fatal("double delete should fail")
	}
	if fs.Stats().FilesDeleted != 1 {
		t.Fatal("FilesDeleted not counted")
	}
}

func TestSize(t *testing.T) {
	fs := New(Options{})
	writeBlock(t, fs, "f", 2, 6)
	if sz, _ := fs.Size("f"); sz != 12 {
		t.Fatalf("Size=%d", sz)
	}
	if _, err := fs.Size("missing"); err == nil {
		t.Fatal("Size of missing file should fail")
	}
}

func TestResetStats(t *testing.T) {
	fs := New(Options{})
	writeBlock(t, fs, "f", 1, 1)
	fs.ResetStats()
	if s := fs.Stats(); s != (Stats{}) {
		t.Fatalf("stats not reset: %+v", s)
	}
	// File still readable after reset.
	if !fs.Exists("f") {
		t.Fatal("reset dropped files")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{BytesWritten: 1, BytesRead: 2, RecordsRead: 3}
	a.Add(Stats{BytesWritten: 10, BytesRead: 20, RecordsRead: 30, FilesCreated: 1})
	if a.BytesWritten != 11 || a.BytesRead != 22 || a.RecordsRead != 33 || a.FilesCreated != 1 {
		t.Fatalf("Add=%+v", a)
	}
}

func TestStagedFileInvisibleUntilClose(t *testing.T) {
	// The task-attempt commit protocol: between Create and Close the file
	// must be invisible to every read-side method, so a failed attempt
	// never exposes partial output.
	fs := New(Options{})
	w, err := fs.Create("part")
	if err != nil {
		t.Fatal(err)
	}
	w.AppendBlock([]string{"half"}, 1, 10)
	if fs.Exists("part") {
		t.Fatal("staged file visible via Exists")
	}
	if _, _, err := fs.BlockView("part"); err == nil {
		t.Fatal("staged file readable")
	}
	if _, err := fs.Size("part"); err == nil {
		t.Fatal("staged file has observable Size")
	}
	if err := fs.VerifyFile("part"); err == nil {
		t.Fatal("staged file verifiable")
	}
	for _, n := range fs.List() {
		if n == "part" {
			t.Fatal("staged file listed")
		}
	}
	if err := fs.Delete("part"); err == nil {
		t.Fatal("staged file deletable")
	}
	// The name is reserved while staged: a speculative duplicate attempt
	// racing to the same output must fail, not double-write.
	if _, err := fs.Create("part"); err == nil {
		t.Fatal("staged name not reserved")
	}
	w.Close()
	recs, n, err := fs.BlockView("part")
	if err != nil || n != 1 {
		t.Fatalf("published file unreadable: recs=%v err=%v", recs, err)
	}
}

func TestAbortDiscardsStagedFile(t *testing.T) {
	fs := New(Options{})
	w, err := fs.Create("doomed")
	if err != nil {
		t.Fatal(err)
	}
	w.AppendBlock([]int{1}, 1, 100)
	w.Abort()
	if fs.Exists("doomed") {
		t.Fatal("aborted file published")
	}
	if fs.Stats().FilesAborted != 1 {
		t.Fatalf("FilesAborted=%d", fs.Stats().FilesAborted)
	}
	// The physical write happened before the attempt died; it stays
	// charged.
	if fs.Stats().BytesWritten != 100 {
		t.Fatalf("BytesWritten=%d", fs.Stats().BytesWritten)
	}
	// The name is released: a retry attempt can recreate and commit.
	w2, err := fs.Create("doomed")
	if err != nil {
		t.Fatal(err)
	}
	w2.AppendBlock([]int{2}, 1, 50)
	w2.Close()
	recs, n, err := fs.BlockView("doomed")
	if err != nil || n != 1 || recs.([]int)[0] != 2 {
		t.Fatalf("retried file wrong: recs=%v err=%v", recs, err)
	}
	// Abort after Close must not unpublish.
	w2.Abort()
	if !fs.Exists("doomed") {
		t.Fatal("Abort after Close unpublished the file")
	}
}

func TestDoubleClosePanics(t *testing.T) {
	fs := New(Options{BlockSize: 10})
	w, _ := fs.Create("f")
	w.AppendBlock([]int{1}, 1, 25)
	w.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double Close did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "double Close") || !strings.Contains(msg, `"f"`) {
			t.Fatalf("double Close panic message unclear: %v", r)
		}
	}()
	w.Close()
}

func TestCloseAfterAbortPanics(t *testing.T) {
	fs := New(Options{})
	w, _ := fs.Create("g")
	w.Abort()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Close after Abort did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "Close after Abort") || !strings.Contains(msg, `"g"`) {
			t.Fatalf("Close-after-Abort panic message unclear: %v", r)
		}
		if fs.Exists("g") {
			t.Fatal("Close after Abort published the file")
		}
	}()
	w.Close()
}

func TestAppendAfterAbortPanics(t *testing.T) {
	fs := New(Options{})
	w, _ := fs.Create("h")
	w.Abort()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("AppendBlock after Abort did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "aborted writer") || !strings.Contains(msg, `"h"`) {
			t.Fatalf("AppendBlock-after-Abort panic message unclear: %v", r)
		}
	}()
	w.AppendBlock([]int{1}, 1, 1)
}

func TestDoubleAbortNoOp(t *testing.T) {
	fs := New(Options{})
	w, _ := fs.Create("g")
	w.Abort()
	w.Abort()
	if fs.Stats().FilesAborted != 1 {
		t.Fatalf("FilesAborted=%d after double Abort", fs.Stats().FilesAborted)
	}
}

func TestAppendAfterClosePanics(t *testing.T) {
	fs := New(Options{})
	w, _ := fs.Create("f")
	w.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("AppendBlock after Close did not panic")
		}
	}()
	w.AppendBlock([]int{1}, 1, 1)
}

// TestConcurrentWriters drives the file system from several goroutines
// at once — each publishing and reading back its own files, as parallel
// reduce tasks do — and checks nothing is lost (run under -race).
func TestConcurrentWriters(t *testing.T) {
	fs := New(Options{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				name := fmt.Sprintf("f%d-%d", g, i)
				w, err := fs.Create(name)
				if err != nil {
					t.Error(err)
					return
				}
				w.AppendBlock([]int{g, i}, 2, 2)
				w.Close()
				if p, n, err := fs.BlockView(name); err != nil || n != 2 || p.([]int)[1] != i {
					t.Errorf("%s: payload=%v n=%d err=%v", name, p, n, err)
				}
			}
		}()
	}
	wg.Wait()
	st := fs.Stats()
	if len(fs.List()) != 800 || st.FilesCreated != 800 || st.RecordsWritten != 1600 {
		t.Fatalf("lost files under concurrency: %d listed, stats %+v", len(fs.List()), st)
	}
	if st.BytesWritten != 1600 || st.BytesRead != 1600 {
		t.Fatalf("bytes written=%d read=%d", st.BytesWritten, st.BytesRead)
	}
}
