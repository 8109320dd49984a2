// Package mr is a deterministic MapReduce engine that simulates the
// Hadoop cluster HaTen2 ran on. Jobs execute real map, shuffle, and
// reduce phases over goroutine workers, staging all input and output
// through a simulated distributed file system (package dfs).
//
// Two kinds of measurement come out of every job:
//
//   - exact counters (records and bytes mapped, shuffled, reduced, and
//     materialized between jobs) — these reproduce the cost summaries in
//     Tables III and IV of the paper;
//   - a simulated running time from a calibrated cost model with a fixed
//     per-job startup charge, per-machine parallel work, and per-machine
//     coordination overhead — this reproduces the running-time *shapes*
//     of Figures 1, 7, and 8 (who wins, where methods fail, and how
//     speedup flattens as machines are added).
//
// Wall-clock time is also recorded so the benchmarks can report both.
package mr

import (
	"fmt"
	"sync"

	"github.com/haten2/haten2/internal/dfs"
	"github.com/haten2/haten2/internal/obs"
)

// CostModel holds the calibrated constants of the simulated-time model.
// The defaults approximate a Hadoop-1.x cluster of the paper's era
// (quad-core Xeon machines, 1 GbE, JVM-per-task job latency).
type CostModel struct {
	// JobStartup is the fixed per-job charge in seconds (job scheduling,
	// JVM spawning). This is what HaTen2-DRI's job integration saves.
	JobStartup float64
	// PerMapRecord and PerReduceRecord are seconds of CPU per record,
	// divided across machines.
	PerMapRecord    float64
	PerReduceRecord float64
	// PerShuffleByte is seconds per byte moved through the shuffle,
	// divided across machines (network + spill).
	PerShuffleByte float64
	// PerDFSByte is seconds per byte read from or written to the DFS,
	// divided across machines.
	PerDFSByte float64
	// CoordPerMachine is seconds of per-job coordination overhead added
	// per machine (heartbeats, synchronization); it is what makes the
	// machine-scalability curve in Figure 8 flatten.
	CoordPerMachine float64
	// RetryBackoff is the base scheduler delay in seconds before a
	// failed task attempt is re-launched; attempt a of a task waits
	// RetryBackoff·2^(a-1) (JobTracker heartbeat + re-scheduling
	// latency, growing as Hadoop deprioritizes repeat offenders). Only
	// charged when a FaultPlan injects failures.
	RetryBackoff float64
	// SpeculativeDelay is how many seconds a task must lag before the
	// scheduler launches a speculative backup attempt. Only relevant
	// when a FaultPlan injects stragglers.
	SpeculativeDelay float64
}

// DefaultCostModel returns the calibrated constants used by the
// experiment harness.
func DefaultCostModel() CostModel {
	return CostModel{
		JobStartup:       15.0,
		PerMapRecord:     1.2e-6,
		PerReduceRecord:  1.2e-6,
		PerShuffleByte:   2.5e-8, // ~40 MB/s effective shuffle per machine
		PerDFSByte:       1.0e-8, // ~100 MB/s effective DFS per machine
		CoordPerMachine:  0.05,
		RetryBackoff:     10.0, // one JobTracker heartbeat + JVM respawn
		SpeculativeDelay: 30.0,
	}
}

// JobTime evaluates the model for one job on m machines.
func (c CostModel) JobTime(m int, st JobStats) float64 {
	if m <= 0 {
		m = 1
	}
	mf := float64(m)
	return c.JobStartup +
		float64(st.InputRecords)*c.PerMapRecord/mf +
		float64(st.ShuffleBytes)*c.PerShuffleByte/mf +
		float64(st.ShuffleRecords)*c.PerReduceRecord/mf +
		float64(st.InputBytes+st.OutputBytes)*c.PerDFSByte/mf +
		c.CoordPerMachine*mf
}

// JobStats records what one MapReduce job did.
type JobStats struct {
	Name           string
	MapTasks       int
	ReduceTasks    int
	InputRecords   int64
	InputBytes     int64
	ShuffleRecords int64
	ShuffleBytes   int64
	OutputRecords  int64
	OutputBytes    int64
	// Fault-recovery accounting, populated when a FaultPlan is
	// installed. MapAttempts/ReduceAttempts count every launched attempt
	// (first runs, retries, and speculative backups); without a plan
	// they equal MapTasks/ReduceTasks.
	MapAttempts    int
	ReduceAttempts int
	// TaskRetries counts failed attempts (each forced a retry, or — for
	// the final one — failed the job).
	TaskRetries int
	// SpeculativeTasks counts backup attempts launched for stragglers;
	// SpeculativeWins counts backups that finished before the original.
	SpeculativeTasks int
	SpeculativeWins  int
	// WastedRecords/WastedBytes are the duplicate work of failed and
	// losing-speculative attempts: records reprocessed and intermediate
	// bytes re-emitted that a fault-free run never touches.
	WastedRecords int64
	WastedBytes   int64
	// BlacklistedMachines counts machines this job stopped scheduling on
	// after repeated failures.
	BlacklistedMachines int
	// PenaltySeconds is the simulated recovery time added to SimSeconds:
	// the critical path of re-executions, exponential retry backoff, and
	// straggler lag (net of speculative rescue).
	PenaltySeconds float64
	// Storage-fault accounting, populated when the installed plan's
	// storage section is active: the per-job delta of the dfs.Stats
	// counters of the same names, attributed to the job whose input
	// reads detected the bad copies.
	CorruptBlocks  int64
	LostReplicas   int64
	FailoverReads  int64
	FailoverBytes  int64
	ReReplications int64
	ScrubBytes     int64
	// StorageSeconds is the simulated time of failover re-reads and
	// re-replication scrubs, added to SimSeconds alongside
	// PenaltySeconds.
	StorageSeconds float64
	SimSeconds     float64
}

// Totals aggregates counters across the jobs a cluster has run.
type Totals struct {
	Jobs           int
	InputRecords   int64
	InputBytes     int64
	ShuffleRecords int64
	ShuffleBytes   int64
	OutputRecords  int64
	OutputBytes    int64
	// MaxShuffleRecords and MaxShuffleBytes track the largest single-job
	// shuffle — the paper's "max intermediate data" for in-flight data.
	MaxShuffleRecords int64
	MaxShuffleBytes   int64
	// MaxMaterializedRecords tracks the largest between-jobs dataset
	// written to the DFS — the quantity Tables III/IV bound.
	MaxMaterializedRecords int64
	// Fault-recovery aggregates (see the JobStats fields of the same
	// names).
	TaskRetries      int
	SpeculativeTasks int
	SpeculativeWins  int
	WastedRecords    int64
	WastedBytes      int64
	PenaltySeconds   float64
	// Storage-fault aggregates (see the JobStats fields of the same
	// names).
	CorruptBlocks  int64
	LostReplicas   int64
	FailoverReads  int64
	FailoverBytes  int64
	ReReplications int64
	ScrubBytes     int64
	StorageSeconds float64
	SimSeconds     float64
}

// ErrResourceExhausted reports that a job exceeded the cluster's
// configured shuffle capacity — the simulator's equivalent of a Hadoop
// job dying with out-of-memory or out-of-disk ("o.o.m" in Figures 1
// and 7).
type ErrResourceExhausted struct {
	Job            string
	ShuffleRecords int64
	Limit          int64
}

func (e *ErrResourceExhausted) Error() string {
	return fmt.Sprintf("mr: job %q exhausted cluster resources: %d shuffle records > limit %d",
		e.Job, e.ShuffleRecords, e.Limit)
}

// Config describes a simulated cluster. Its Machines·SlotsPerMachine
// worker slots are also every job's reduce task count. A cluster starts
// on the in-process data plane; Cluster.SetBackend installs another.
type Config struct {
	// Machines is the number of machines (the paper uses 10–40).
	Machines int
	// SlotsPerMachine is the number of concurrent map/reduce tasks per
	// machine (4 for the paper's quad-core nodes).
	SlotsPerMachine int
	// MaxShuffleRecords caps the number of records any single job may
	// shuffle before it is killed with ErrResourceExhausted. Zero means
	// unlimited.
	MaxShuffleRecords int64
	// Cost is the simulated-time model; zero value takes defaults.
	Cost CostModel
}

// Cluster is a simulated Hadoop cluster: a DFS plus job execution with
// counters. Methods are safe for concurrent use, though jobs are
// typically run sequentially (as Hadoop job chains are).
type Cluster struct {
	cfg Config
	fs  *dfs.FS

	mu     sync.Mutex
	totals Totals
	jobs   []JobStats
	// faults is the installed failure schedule (nil: fault-free), and
	// jobSeq numbers the jobs started since it was installed — the
	// coordinate every fault decision is keyed by.
	faults *FaultPlan
	jobSeq int64
	// tracer, when non-nil, receives a "job" span with phase children
	// for every job this cluster records (see trace.go).
	tracer *obs.Tracer
	// tmpSeq numbers the temporary file names handed out by NextTmp.
	// Scoping the counter to the cluster (rather than a process global)
	// makes the file names — and therefore job names and traces — of a
	// run on a fresh cluster reproducible regardless of what ran before
	// it in the same process.
	tmpSeq int64
	// backend, when non-nil and out-of-process, is the data plane jobs
	// route their shuffle partitions and inputs through (backend.go).
	// nil runs the in-process fast path.
	backend Backend
}

// NewCluster creates a cluster with cfg and a fresh DFS whose replicas
// are placed across the cluster's machines.
func NewCluster(cfg Config) *Cluster {
	if cfg.Machines <= 0 {
		cfg.Machines = 1
	}
	return NewClusterWithFS(cfg, dfs.New(dfs.Options{Machines: cfg.Machines}))
}

// NewClusterWithFS creates a cluster backed by an existing file system —
// the restart-after-crash pattern: HDFS (replicated blocks) survives a
// JobTracker death, so a cluster brought up on the old cluster's FS can
// resume an iterative computation from the checkpoints it finds there.
func NewClusterWithFS(cfg Config, fs *dfs.FS) *Cluster {
	if cfg.Machines <= 0 {
		cfg.Machines = 1
	}
	if cfg.SlotsPerMachine <= 0 {
		cfg.SlotsPerMachine = 4
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCostModel()
	}
	return &Cluster{cfg: cfg, fs: fs}
}

// InstallFaultPlan installs (or, with nil, removes) a failure schedule
// and restarts the job sequence the plan's decisions are keyed by, so
// the same plan on the same job sequence injects the same faults.
// Deterministic injection assumes jobs are submitted in a deterministic
// order (drivers run job chains sequentially); concurrent Run callers
// race for sequence numbers and get scheduling-dependent faults —
// outputs remain exact either way.
func (c *Cluster) InstallFaultPlan(p *FaultPlan) {
	c.mu.Lock()
	c.jobSeq = 0
	if p == nil {
		c.faults = nil
	} else {
		q := p.withDefaults()
		c.faults = &q
	}
	c.mu.Unlock()
	// Push the plan's storage section down into the DFS. Done outside
	// c.mu: fs.mu is not ordered under the cluster lock.
	if p != nil && (p.BlockCorruptRate > 0 || p.ReplicaLossRate > 0) {
		c.fs.InstallFaults(&dfs.StorageFaults{
			Seed:        p.Seed,
			CorruptRate: p.BlockCorruptRate,
			LossRate:    p.ReplicaLossRate,
		})
	} else {
		c.fs.InstallFaults(nil)
	}
}

// startJob assigns the next job sequence number and returns the
// installed fault plan, or ErrClusterKilled when the plan's kill budget
// is spent.
func (c *Cluster) startJob(name string) (*FaultPlan, int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	seq := c.jobSeq
	c.jobSeq++
	p := c.faults
	if p != nil && p.KillAfterJobs > 0 && seq >= int64(p.KillAfterJobs) {
		return nil, seq, &ErrClusterKilled{Job: name, AfterJobs: p.KillAfterJobs}
	}
	return p, seq, nil
}

// SetTracer attaches a tracer to the cluster (nil detaches). Every job
// recorded from then on emits a "job" span with map/shuffle/reduce
// (and, under faults, recovery) phase children stamped with the cost
// model's simulated time.
func (c *Cluster) SetTracer(tr *obs.Tracer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tracer = tr
}

// Tracer returns the attached tracer, or nil. Drivers use it to open
// their own run/iteration/stage spans around the jobs they submit; the
// obs methods are nil-safe, so callers need no nil check of their own.
func (c *Cluster) Tracer() *obs.Tracer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tracer
}

// NextTmp returns the next cluster-scoped temporary-file sequence
// number, starting at 1.
func (c *Cluster) NextTmp() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tmpSeq++
	return c.tmpSeq
}

// FS returns the cluster's distributed file system.
func (c *Cluster) FS() *dfs.FS { return c.fs }

// Machines returns the configured machine count.
func (c *Cluster) Machines() int { return c.cfg.Machines }

// Workers returns the total number of task slots.
func (c *Cluster) Workers() int { return c.cfg.Machines * c.cfg.SlotsPerMachine }

// Totals returns a snapshot of the aggregated job counters.
func (c *Cluster) Totals() Totals {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totals
}

// Jobs returns a copy of the per-job statistics in execution order.
func (c *Cluster) Jobs() []JobStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]JobStats, len(c.jobs))
	copy(out, c.jobs)
	return out
}

// ResetCounters zeroes the cluster totals and job log. DFS contents
// and DFS statistics are left untouched.
func (c *Cluster) ResetCounters() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.totals = Totals{}
	c.jobs = nil
}

// record merges one finished job's stats into the totals.
func (c *Cluster) record(st JobStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.jobs = append(c.jobs, st)
	t := &c.totals
	t.Jobs++
	t.InputRecords += st.InputRecords
	t.InputBytes += st.InputBytes
	t.ShuffleRecords += st.ShuffleRecords
	t.ShuffleBytes += st.ShuffleBytes
	t.OutputRecords += st.OutputRecords
	t.OutputBytes += st.OutputBytes
	if st.ShuffleRecords > t.MaxShuffleRecords {
		t.MaxShuffleRecords = st.ShuffleRecords
	}
	if st.ShuffleBytes > t.MaxShuffleBytes {
		t.MaxShuffleBytes = st.ShuffleBytes
	}
	if st.OutputRecords > t.MaxMaterializedRecords {
		t.MaxMaterializedRecords = st.OutputRecords
	}
	t.TaskRetries += st.TaskRetries
	t.SpeculativeTasks += st.SpeculativeTasks
	t.SpeculativeWins += st.SpeculativeWins
	t.WastedRecords += st.WastedRecords
	t.WastedBytes += st.WastedBytes
	t.PenaltySeconds += st.PenaltySeconds
	t.CorruptBlocks += st.CorruptBlocks
	t.LostReplicas += st.LostReplicas
	t.FailoverReads += st.FailoverReads
	t.FailoverBytes += st.FailoverBytes
	t.ReReplications += st.ReReplications
	t.ScrubBytes += st.ScrubBytes
	t.StorageSeconds += st.StorageSeconds
	t.SimSeconds += st.SimSeconds
	if c.tracer != nil {
		// Tracing under c.mu is safe here: obs.Tracer's mu is a leaf lock
		// (the tracer never calls back into mr), Emit is pure in-memory
		// append with no I/O, and record is the single serialization point
		// for job totals, so the trace rows inherit the counters' order.
		c.traceJob(st)
	}
}
