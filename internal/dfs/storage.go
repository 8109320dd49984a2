// Storage failure model: replicated blocks with seeded corruption and
// loss, read-path failover, and read-repair.
//
// Every published file occupies ⌈bytes / BlockSize⌉ blocks (dfs.go),
// each stored as Replication copies. No block carries a checksum: the
// simulator holds typed records, not bytes, so a corrupt copy is one the
// fault plan says a real DFS's checksum would reject. The read path is
// the only place faults surface: BlockView walks every block, fails over
// past bad copies and heals them. There is no separate fsck pass.
//
// Faults are injected the same way mr.FaultPlan injects task faults:
// whether one replica copy of one block is corrupt or lost is a pure
// splitmix64 hash of (seed, file, block, replica), evaluated lazily at
// read time. Because the decision never consults scheduling state, the
// set of bad copies is identical at every GOMAXPROCS level and across
// runs. Corruption and loss move simulated time and the
// Stats counters only; payload bytes are never mutated, so a fault can
// change what a read costs but never what it returns — the repo's
// standing invariant, extended to storage.
package dfs

import (
	"encoding/binary"
	"fmt"
)

// StorageFaults seeds deterministic storage failures, mirroring the
// compute-side mr.FaultPlan. The zero rate disables a fault class.
type StorageFaults struct {
	// Seed namespaces every hash decision below.
	Seed int64
	// CorruptRate is the probability that one replica copy of one
	// block is silently corrupt on disk: a reader's checksum would
	// reject it, so the reader fails over to the next copy.
	CorruptRate float64
	// LossRate is the probability that one replica copy of one block
	// is missing (datanode died after the write): the copy is skipped
	// without a wasted read, but still costs a re-replication.
	LossRate float64
}

// InstallFaults installs (or, with nil, removes) a storage fault plan.
// Copies already healed by read-repair stay healed — repairs
// are physical, not plan state.
func (fs *FS) InstallFaults(p *StorageFaults) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if p == nil {
		fs.faults = nil
		return
	}
	q := *p
	fs.faults = &q
}

// ErrCorrupt reports a corrupt replica copy of one block, which a real
// DFS detects as a checksum mismatch. Reads fail over past it, so
// callers only observe ErrCorrupt wrapped inside ErrDataLoss, when no
// copy was left to fail over to.
type ErrCorrupt struct {
	File    string
	Block   int
	Replica int
}

func (e *ErrCorrupt) Error() string {
	return fmt.Sprintf("dfs: file %q block %d replica %d: checksum mismatch", e.File, e.Block, e.Replica)
}

// ErrDataLoss is terminal: every replica copy of one block is corrupt
// or lost, so the file cannot be read. Recovery is above the file
// system — the cluster falls back to checkpoint-resume.
type ErrDataLoss struct {
	File     string
	Block    int
	Replicas int // replication factor the file was written with
	// Cause is the first checksum mismatch observed, nil when every
	// copy was lost outright.
	Cause *ErrCorrupt
}

func (e *ErrDataLoss) Error() string {
	return fmt.Sprintf("dfs: file %q block %d: data loss, all %d replicas bad", e.File, e.Block, e.Replicas)
}

// Unwrap exposes the underlying checksum mismatch to errors.As.
func (e *ErrDataLoss) Unwrap() error {
	if e.Cause == nil {
		return nil
	}
	return e.Cause
}

// storageMix is the splitmix64 finalizer, the same mixer mr.FaultPlan
// uses for task faults.
func storageMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// nameHash folds a file name into one 64-bit value (FNV-1a, finalized
// through storageMix) so fault decisions can hash it with the other
// coordinates.
func nameHash(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return storageMix(h)
}

// decision kinds keep the hash streams for loss and corruption
// disjoint.
const (
	kindLoss uint64 = iota + 1
	kindCorrupt
)

// storageHash chains the coordinates of one decision through the mixer.
func storageHash(seed uint64, parts ...uint64) uint64 {
	h := storageMix(seed)
	for _, p := range parts {
		h = storageMix(h ^ storageMix(p+0x9e3779b97f4a7c15))
	}
	return h
}

// roll maps a hash to [0, 1).
func roll(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// Replica copy states, resolved lazily from the fault plan.
const (
	repGood = iota
	repCorrupt
	repLost
)

// copyState resolves the state of replica r of block b. Healed copies
// are good regardless of the plan. Loss is checked before corruption: a
// missing copy cannot also mismatch. Called with fs.mu held.
func (fs *FS) copyState(f *file, nh uint64, b, r int) int {
	if f.healed != nil && f.healed[b*f.repl+r] {
		return repGood
	}
	p := fs.faults
	if p == nil {
		return repGood
	}
	if p.LossRate > 0 && roll(storageHash(uint64(p.Seed), nh, uint64(b), uint64(r), kindLoss)) < p.LossRate {
		return repLost
	}
	if p.CorruptRate > 0 && roll(storageHash(uint64(p.Seed), nh, uint64(b), uint64(r), kindCorrupt)) < p.CorruptRate {
		return repCorrupt
	}
	return repGood
}

// markDetected memoizes the first detection of a bad copy so Stats
// counts it exactly once, and charges the counters for its class.
// Failover bytes are charged here too: the wasted read of a corrupt
// copy happens when it is first tried (a lost copy is skipped from
// metadata and costs no read). Called with fs.mu held.
func (fs *FS) markDetected(f *file, b, r, state int) {
	if f.detected == nil {
		f.detected = make([]bool, f.blocks*f.repl)
	}
	idx := b*f.repl + r
	if f.detected[idx] {
		return
	}
	f.detected[idx] = true
	switch state {
	case repCorrupt:
		fs.stats.CorruptBlocks++
		fs.stats.FailoverReads++
		fs.stats.FailoverBytes += f.blockSpan(b, fs.opts.BlockSize)
	case repLost:
		fs.stats.LostReplicas++
	}
}

// heal restores one replica copy to the target factor and charges the
// re-replication: one block span copied from a good replica. Called
// with fs.mu held.
func (fs *FS) heal(f *file, b, r int) {
	if f.healed == nil {
		f.healed = make([]bool, f.blocks*f.repl)
	}
	f.healed[b*f.repl+r] = true
	fs.stats.ReReplications++
	fs.stats.ScrubBytes += f.blockSpan(b, fs.opts.BlockSize)
}

// verifyRead resolves every block of a file along the read path: scan
// replicas in replica order, fail over past bad copies to the first
// good one, then scrub (re-replicate) the bad copies just crossed so
// the block is back at its target factor for the next reader. A block
// with no good copy fails the read with *ErrDataLoss. Called with
// fs.mu held.
func (fs *FS) verifyRead(name string, f *file) error {
	if fs.faults == nil {
		return nil
	}
	nh := nameHash(name)
	for b := range f.blocks {
		if err := fs.verifyBlockRead(f, name, nh, b); err != nil {
			return err
		}
	}
	return nil
}

// verifyBlockRead runs the failover sequence for one block. Called with
// fs.mu held.
func (fs *FS) verifyBlockRead(f *file, name string, nh uint64, b int) error {
	var bad []int
	var firstBad *ErrCorrupt
	for r := 0; r < f.repl; r++ {
		state := fs.copyState(f, nh, b, r)
		if state == repGood {
			// Read succeeds from this copy; read-repair the bad
			// copies crossed on the way here.
			for _, rb := range bad {
				fs.heal(f, b, rb)
			}
			return nil
		}
		fs.markDetected(f, b, r, state)
		bad = append(bad, r)
		if state == repCorrupt && firstBad == nil {
			firstBad = &ErrCorrupt{File: name, Block: b, Replica: r}
		}
	}
	return &ErrDataLoss{File: name, Block: b, Replicas: f.repl, Cause: firstBad}
}

// HashBytes folds a byte string through the splitmix64 mixer the
// storage fault decisions use, seeded with the length so strings that
// differ only by trailing zeros hash apart. The multi-process backend
// places with it: a shuffle partition goes to the worker its encoded
// (job, seq, reducer) key hashes to — a pure function of the namespace,
// so placement never depends on scheduling.
func HashBytes(b []byte) uint64 {
	h := storageMix(uint64(len(b)) ^ 0x9e3779b97f4a7c15)
	for len(b) >= 8 {
		h = storageMix(h ^ binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	if len(b) > 0 {
		var tail [8]byte
		copy(tail[:], b)
		h = storageMix(h ^ binary.LittleEndian.Uint64(tail[:]) ^ uint64(len(b)))
	}
	return h
}
