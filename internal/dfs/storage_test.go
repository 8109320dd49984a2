package dfs

import (
	"errors"
	"testing"
)

func TestChecksumsIncrementalAndDeterministic(t *testing.T) {
	mk := func() *FS {
		fs := New(Options{BlockSize: 10, Replication: 2, Machines: 4})
		writeBlock(t, fs, "f", 7, 4) // 28 bytes -> blocks of 10: 3 blocks
		return fs
	}
	a, b := mk(), mk()
	sa, err := a.BlockChecksums("f")
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := b.BlockChecksums("f")
	if len(sa) != 3 {
		t.Fatalf("blocks=%d, want 3", len(sa))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("checksums not deterministic: block %d %x vs %x", i, sa[i], sb[i])
		}
	}
	if a.Stats().BlocksWritten != 3 {
		t.Fatalf("BlocksWritten=%d, want 3", a.Stats().BlocksWritten)
	}
	// A different write pattern must change the trailing checksum.
	c := New(Options{BlockSize: 10})
	writeBlock(t, c, "f", 14, 2) // same 28 bytes, different record count
	sc, _ := c.BlockChecksums("f")
	if sc[2] == sa[2] {
		t.Fatal("different write patterns produced identical checksums")
	}
}

func TestPlacementDistinctAndDeterministic(t *testing.T) {
	fs := New(Options{BlockSize: 10, Replication: 3, Machines: 8})
	writeBlock(t, fs, "f", 10, 5) // 50 bytes -> 5 blocks
	p1, err := fs.Placement("f")
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) != 5 {
		t.Fatalf("placement blocks=%d, want 5", len(p1))
	}
	for b, ms := range p1 {
		if len(ms) != 3 {
			t.Fatalf("block %d has %d replicas", b, len(ms))
		}
		seen := map[int]bool{}
		for _, m := range ms {
			if m < 0 || m >= 8 {
				t.Fatalf("block %d placed on machine %d of 8", b, m)
			}
			if seen[m] {
				t.Fatalf("block %d has two replicas on machine %d", b, m)
			}
			seen[m] = true
		}
	}
	// Same file on a fresh FS places identically: placement is a pure
	// hash, not scheduler state.
	fs2 := New(Options{BlockSize: 10, Replication: 3, Machines: 8})
	writeBlock(t, fs2, "f", 10, 5)
	p2, _ := fs2.Placement("f")
	for b := range p1 {
		for r := range p1[b] {
			if p1[b][r] != p2[b][r] {
				t.Fatalf("placement not deterministic at block %d replica %d", b, r)
			}
		}
	}
	// More replicas than machines: placement wraps instead of failing.
	fs3 := New(Options{BlockSize: 10, Replication: 3, Machines: 2})
	writeBlock(t, fs3, "f", 2, 5)
	p3, _ := fs3.Placement("f")
	if len(p3[0]) != 3 {
		t.Fatalf("wrapped placement has %d replicas", len(p3[0]))
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
	fs := New(Options{BlockSize: 10, Replication: repl, Machines: 4})
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
		fs := New(Options{BlockSize: 10, Replication: 3, Machines: 4})
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

func TestScrubHealsEverythingAndReports(t *testing.T) {
	// A scrub examines every copy, so after it even copies "behind"
	// the first good one are healed and a fault-free read follows.
	seed := findSeed(t, func(s int64) bool {
		fs := corruptFS(t, s, 0.3, 3)
		rep, err := fs.Scrub()
		return err == nil && rep.ReplicasRestored > 0
	})
	fs := corruptFS(t, seed, 0.3, 3)
	rep, err := fs.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FilesScanned != 1 || rep.BlocksScanned != 4 {
		t.Fatalf("scrub report: %+v", rep)
	}
	if rep.ReplicasRestored == 0 || rep.BytesRestored == 0 {
		t.Fatalf("scrub restored nothing: %+v", rep)
	}
	st := fs.Stats()
	if st.ReReplications != rep.ReplicasRestored || st.ScrubBytes != rep.BytesRestored {
		t.Fatalf("scrub report disagrees with stats: %+v vs %+v", rep, st)
	}
	// After the scrub the file reads clean with no further failover.
	if _, _, err := fs.BlockView("f"); err != nil {
		t.Fatal(err)
	}
	if st2 := fs.Stats(); st2.FailoverReads != st.FailoverReads || st2.ReReplications != st.ReReplications {
		t.Fatalf("post-scrub read still failed over: %+v", st2)
	}
	// A clean FS scrubs to an empty report.
	clean := New(Options{BlockSize: 10})
	writeBlock(t, clean, "f", 4, 5)
	rep2, err := clean.Scrub()
	if err != nil || rep2.ReplicasRestored != 0 || rep2.FilesScanned != 1 {
		t.Fatalf("clean scrub: %+v err=%v", rep2, err)
	}
}

func TestVerifyFileReportsDataLoss(t *testing.T) {
	fs := corruptFS(t, 1, 1.0, 2)
	err := fs.VerifyFile("f")
	var dl *ErrDataLoss
	if !errors.As(err, &dl) {
		t.Fatalf("VerifyFile err=%v, want ErrDataLoss", err)
	}
	if err := fs.VerifyFile("missing"); err == nil {
		t.Fatal("VerifyFile on absent file succeeded")
	}
	// Scrub surfaces the same loss after completing its pass.
	if _, err := fs.Scrub(); !errors.As(err, &dl) {
		t.Fatalf("Scrub err=%v, want ErrDataLoss", err)
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
		fs := New(Options{BlockSize: 10, Replication: 3, Machines: 4})
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
	// VerifyFile and Scrub name the same block, after healing what the
	// read never reached.
	var dl2 *ErrDataLoss
	if err := fs.VerifyFile("f"); !errors.As(err, &dl2) || dl2.Block != dl.Block {
		t.Fatalf("VerifyFile err=%v, want loss of block %d", err, dl.Block)
	}
	if rep, err := fs.Scrub(); !errors.As(err, &dl2) || rep.BlocksScanned != 4 {
		t.Fatalf("Scrub rep=%+v err=%v", rep, err)
	}
}
