package dfs

import (
	"errors"
	"strings"
	"testing"
)

func TestStorageBlockCountIsCeilOfBytes(t *testing.T) {
	// BlockSize 10: every size from empty through an exact multiple.
	for _, c := range []struct {
		n, size int64
		blocks  int
	}{{0, 4, 0}, {1, 1, 1}, {1, 9, 1}, {1, 10, 1}, {1, 11, 2}, {2, 10, 2}, {7, 4, 3}, {14, 2, 3}} {
		fs := New(Options{BlockSize: 10, Replication: 2})
		writeBlock(t, fs, "f", int(c.n), c.size)
		if got := fs.files["f"].blocks; got != c.blocks {
			t.Errorf("%d bytes: %d blocks, want %d", c.n*c.size, got, c.blocks)
		}
		if got := fs.Stats().BlocksWritten; got != int64(c.blocks) {
			t.Errorf("%d bytes: BlocksWritten=%d, want %d", c.n*c.size, got, c.blocks)
		}
	}
	// A file published without a block occupies none.
	fs := New(Options{BlockSize: 10})
	w, err := fs.Create("empty")
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if fs.files["empty"].blocks != 0 || fs.Stats().BlocksWritten != 0 {
		t.Fatalf("blockless file: %d blocks, BlocksWritten=%d", fs.files["empty"].blocks, fs.Stats().BlocksWritten)
	}
}

// findSeed scans storage-fault seeds until pred holds on a fresh FS,
// so tests can pin behavior without hardcoding magic seeds.
func findSeed(t *testing.T, pred func(seed int64) bool) int64 {
	t.Helper()
	for seed := int64(0); seed < 500; seed++ {
		if pred(seed) {
			return seed
		}
	}
	t.Fatal("no seed under 500 produced the wanted fault pattern")
	return -1
}

func corruptFS(t *testing.T, seed int64, rate float64, repl int) *FS {
	t.Helper()
	fs := New(Options{BlockSize: 10, Replication: repl})
	writeBlock(t, fs, "f", 8, 5) // 40 bytes -> 4 blocks
	fs.InstallFaults(&StorageFaults{Seed: seed, CorruptRate: rate})
	return fs
}

func TestFailoverReadHealsAndMemoizes(t *testing.T) {
	// Find a seed where reads succeed (every block keeps a good copy)
	// but at least one copy is corrupt.
	seed := findSeed(t, func(s int64) bool {
		fs := corruptFS(t, s, 0.3, 3)
		_, _, err := fs.BlockView("f")
		return err == nil && fs.Stats().CorruptBlocks > 0
	})
	fs := corruptFS(t, seed, 0.3, 3)
	if _, _, err := fs.BlockView("f"); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	if st.CorruptBlocks == 0 || st.FailoverReads != st.CorruptBlocks {
		t.Fatalf("failover accounting: corrupt=%d failover=%d", st.CorruptBlocks, st.FailoverReads)
	}
	if st.FailoverBytes == 0 {
		t.Fatalf("FailoverBytes=0 with %d corrupt copies", st.CorruptBlocks)
	}
	// Read-repair restored the factor: every corrupt copy crossed on
	// the way to a good one was re-replicated.
	if st.ReReplications != st.CorruptBlocks || st.ScrubBytes != st.FailoverBytes {
		t.Fatalf("read-repair accounting: rerepl=%d corrupt=%d scrub=%d failover=%d",
			st.ReReplications, st.CorruptBlocks, st.ScrubBytes, st.FailoverBytes)
	}
	// A second read finds only healed copies: counters must not move.
	if _, _, err := fs.BlockView("f"); err != nil {
		t.Fatal(err)
	}
	st2 := fs.Stats()
	st2.BytesRead, st.BytesRead = 0, 0
	st2.RecordsRead, st.RecordsRead = 0, 0
	if st2 != st {
		t.Fatalf("second read moved fault counters: %+v vs %+v", st2, st)
	}
}

func TestDataLossWhenAllReplicasBad(t *testing.T) {
	fs := corruptFS(t, 1, 1.0, 3) // every copy corrupt
	_, _, err := fs.BlockView("f")
	var dl *ErrDataLoss
	if !errors.As(err, &dl) {
		t.Fatalf("err=%v, want ErrDataLoss", err)
	}
	if dl.File != "f" || dl.Replicas != 3 {
		t.Fatalf("ErrDataLoss fields: %+v", dl)
	}
	var ec *ErrCorrupt
	if !errors.As(err, &ec) {
		t.Fatalf("ErrDataLoss does not unwrap to ErrCorrupt: %v", err)
	}
	if ec.File != "f" || ec.Block != dl.Block {
		t.Fatalf("ErrCorrupt fields: %+v", ec)
	}
	// Detection is memoized: re-reading the doomed file must not
	// re-count the same bad copies.
	before := fs.Stats()
	if _, _, err := fs.BlockView("f"); err == nil {
		t.Fatal("doomed file became readable")
	}
	if after := fs.Stats(); after != before {
		t.Fatalf("re-reading a lost block moved counters: %+v vs %+v", after, before)
	}
	// No read bytes were charged for failed reads.
	if before.BytesRead != 0 {
		t.Fatalf("BytesRead=%d charged for failed reads", before.BytesRead)
	}
}

func TestReplicaLossSkipsWithoutFailoverCharge(t *testing.T) {
	mk := func(seed int64) *FS {
		fs := New(Options{BlockSize: 10, Replication: 3})
		writeBlock(t, fs, "f", 8, 5)
		fs.InstallFaults(&StorageFaults{Seed: seed, LossRate: 0.3})
		return fs
	}
	seed := findSeed(t, func(s int64) bool {
		fs := mk(s)
		_, _, err := fs.BlockView("f")
		return err == nil && fs.Stats().LostReplicas > 0
	})
	fs := mk(seed)
	if _, _, err := fs.BlockView("f"); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	if st.LostReplicas == 0 {
		t.Fatal("no lost replicas detected")
	}
	// A lost copy is skipped from metadata: no wasted read, but the
	// factor is still restored.
	if st.FailoverReads != 0 || st.FailoverBytes != 0 {
		t.Fatalf("loss charged failover reads: %+v", st)
	}
	if st.ReReplications != st.LostReplicas || st.ScrubBytes == 0 {
		t.Fatalf("loss not re-replicated: %+v", st)
	}
}

func TestInstallFaultsNilRunsCleanButKeepsHeals(t *testing.T) {
	seed := findSeed(t, func(s int64) bool {
		fs := corruptFS(t, s, 0.3, 3)
		_, _, err := fs.BlockView("f")
		return err == nil && fs.Stats().CorruptBlocks > 0
	})
	fs := corruptFS(t, seed, 0.3, 3)
	if _, _, err := fs.BlockView("f"); err != nil {
		t.Fatal(err)
	}
	healed := fs.Stats().ReReplications
	fs.InstallFaults(nil)
	if _, _, err := fs.BlockView("f"); err != nil {
		t.Fatal(err)
	}
	if st := fs.Stats(); st.ReReplications != healed || st.CorruptBlocks != st.FailoverReads {
		t.Fatalf("clean read after uninstall moved counters: %+v", st)
	}
	// Reinstalling the same plan: healed copies stay healed (repairs
	// were physical), so the read is still clean.
	fs.InstallFaults(&StorageFaults{Seed: seed, CorruptRate: 0.3})
	before := fs.Stats()
	if _, _, err := fs.BlockView("f"); err != nil {
		t.Fatal(err)
	}
	after := fs.Stats()
	after.BytesRead, before.BytesRead = 0, 0
	after.RecordsRead, before.RecordsRead = 0, 0
	if after != before {
		t.Fatalf("reinstalled plan re-corrupted healed copies: %+v vs %+v", after, before)
	}
}

func TestStorageFaultsNeverChangeBytes(t *testing.T) {
	read := func(faults *StorageFaults) []int {
		fs := New(Options{BlockSize: 10, Replication: 3})
		writeBlock(t, fs, "f", 8, 5)
		fs.InstallFaults(faults)
		payload, _, err := fs.BlockView("f")
		if err != nil {
			return nil
		}
		return payload.([]int)
	}
	clean := read(nil)
	seed := findSeed(t, func(s int64) bool {
		return read(&StorageFaults{Seed: s, CorruptRate: 0.3, LossRate: 0.2}) != nil
	})
	faulty := read(&StorageFaults{Seed: seed, CorruptRate: 0.3, LossRate: 0.2})
	if len(clean) != len(faulty) {
		t.Fatalf("faults changed record count: %d vs %d", len(clean), len(faulty))
	}
	for i := range clean {
		if clean[i] != faulty[i] {
			t.Fatalf("faults changed record %d: %+v vs %+v", i, clean[i], faulty[i])
		}
	}
}

// TestBadMiddleBlockOfMultiBlockFile pins the failure model on one file
// spanning several DFS blocks: the read walks the blocks in order,
// failing over and read-repairing the recoverable ones, and the first
// block with no good copy — here one in the middle — fails the whole
// read, lending nothing and charging no read bytes.
func TestBadMiddleBlockOfMultiBlockFile(t *testing.T) {
	lost := func(fs *FS) *ErrDataLoss {
		_, _, err := fs.BlockView("f")
		var dl *ErrDataLoss
		errors.As(err, &dl)
		return dl
	}
	seed := findSeed(t, func(s int64) bool {
		dl := lost(corruptFS(t, s, 0.6, 2))
		return dl != nil && (dl.Block == 1 || dl.Block == 2)
	})
	fs := corruptFS(t, seed, 0.6, 2) // 4 blocks of 10 bytes, 2 copies each
	payload, n, err := fs.BlockView("f")
	var dl *ErrDataLoss
	var ec *ErrCorrupt
	if !errors.As(err, &dl) || !errors.As(err, &ec) || payload != nil || n != 0 {
		t.Fatalf("payload=%v n=%d err=%v, want ErrDataLoss wrapping ErrCorrupt and nothing lent", payload, n, err)
	}
	if dl.Replicas != 2 || ec.Block != dl.Block || ec.Replica != 0 {
		t.Fatalf("loss %+v caused by %+v", dl, ec)
	}
	st := fs.Stats()
	// Every copy of the doomed block was tried, and only copies of it and
	// of the blocks before it: the read stopped there.
	if st.CorruptBlocks < 2 || st.CorruptBlocks > int64(2*(dl.Block+1)) {
		t.Fatalf("CorruptBlocks=%d with block %d lost", st.CorruptBlocks, dl.Block)
	}
	// The earlier blocks were readable, so every bad copy crossed there
	// was re-replicated; the doomed block had no source to heal from.
	if st.ReReplications != st.CorruptBlocks-2 || st.ScrubBytes != st.ReReplications*10 {
		t.Fatalf("read-repair before the lost block: %+v", st)
	}
	if st.BytesRead != 0 || st.RecordsRead != 0 {
		t.Fatalf("failed read charged %d bytes, %d records", st.BytesRead, st.RecordsRead)
	}
	// A second read stops at the same block, and moves no counter: the
	// blocks before it were healed, the doomed one's copies are known.
	var dl2 *ErrDataLoss
	if _, _, err := fs.BlockView("f"); !errors.As(err, &dl2) || dl2.Block != dl.Block {
		t.Fatalf("second read err=%v, want loss of block %d", err, dl.Block)
	}
	if st2 := fs.Stats(); st2 != st {
		t.Fatalf("second read moved counters: %+v vs %+v", st2, st)
	}
}

// TestHashBytes pins the placement hash's contract: a pure function of
// the bytes, seeded with the length so a trailing zero byte (within the
// 8-byte tail or past a full word) changes it.
func TestHashBytes(t *testing.T) {
	inputs := [][]byte{
		nil, {0}, {0, 0}, []byte("a"), []byte("a\x00"),
		[]byte("12345678"), []byte("12345678\x00"), []byte("12345679"),
		[]byte("job/3/seq/1/r0"), []byte("job/3/seq/1/r1"),
	}
	seen := make(map[uint64]string, len(inputs))
	for _, in := range inputs {
		h := HashBytes(in)
		if h != HashBytes(append([]byte(nil), in...)) {
			t.Fatalf("HashBytes(%q) differs between two calls", in)
		}
		if prev, ok := seen[h]; ok {
			t.Fatalf("HashBytes(%q) == HashBytes(%q) = %#x", in, prev, h)
		}
		seen[h] = string(in)
	}
	if HashBytes(nil) != HashBytes([]byte{}) {
		t.Fatal("nil and empty input hash apart")
	}
}

// TestDataLossUnwrap: a loss with a recorded checksum mismatch unwraps
// to it; a loss where every copy was simply gone unwraps to nothing, so
// errors.As finds no *ErrCorrupt.
func TestDataLossUnwrap(t *testing.T) {
	cause := &ErrCorrupt{File: "f", Block: 2, Replica: 1}
	var ec *ErrCorrupt
	if err := error(&ErrDataLoss{File: "f", Block: 2, Replicas: 3, Cause: cause}); !errors.As(err, &ec) || ec != cause {
		t.Fatalf("errors.As through %v = %v", err, ec)
	}
	lost := &ErrDataLoss{File: "f", Block: 0, Replicas: 2}
	if lost.Unwrap() != nil {
		t.Fatalf("Unwrap without a cause = %v, want nil", lost.Unwrap())
	}
	ec = nil
	if errors.As(error(lost), &ec) {
		t.Fatalf("errors.As found %v in a loss with no mismatch", ec)
	}
	for _, w := range []string{`"f"`, "block 0", "all 2 replicas"} {
		if !strings.Contains(lost.Error(), w) {
			t.Fatalf("%q lacks %q", lost.Error(), w)
		}
	}
}
