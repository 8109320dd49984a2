package mr

import "fmt"

// FaultPlan is a seeded, fully deterministic failure schedule for a
// cluster — the simulator's stand-in for the flaky disks, dying
// JVMs, and slow machines a real Hadoop deployment absorbs with task
// re-execution and speculative attempts. Every decision the plan makes
// (does attempt a of task t of the j-th job fail? does task t
// straggle? which machine ran the failed attempt?) is a pure hash of
// (Seed, job sequence, phase, task, attempt): no wall clock, no global
// RNG, no scheduling dependence. Faults therefore change *simulated
// time* and the retry/waste counters, but never outputs — a faulty run
// is bit-identical to a fault-free run, which is the engine's standing
// determinism invariant.
//
// Install a plan with Cluster.InstallFaultPlan. The zero value of every
// rate disables that fault class, so FaultPlan{KillAfterJobs: 10} kills
// the cluster without injecting any task failures.
type FaultPlan struct {
	// Seed drives every fault decision. Two clusters with the same plan
	// and the same job sequence inject exactly the same faults.
	Seed int64
	// FailureRate is the probability in [0,1] that one task attempt
	// fails (map or reduce). Failed attempts are retried with
	// exponential backoff up to MaxAttempts.
	FailureRate float64
	// StragglerRate is the probability that a task's winning attempt
	// runs StragglerFactor× slower than normal — the condition
	// speculative execution exists for.
	StragglerRate float64
	// StragglerFactor is the slowdown multiplier of a straggling
	// attempt. Values ≤ 1 take the default of 8.
	StragglerFactor float64
	// MaxAttempts bounds attempts per task, like Hadoop's
	// mapred.map.max.attempts. When a task fails MaxAttempts times the
	// job dies with *ErrJobFailed. Zero takes the Hadoop default of 4.
	MaxAttempts int
	// DisableSpeculation turns speculative execution off, so stragglers
	// run to completion at their slowed pace (Hadoop's
	// mapred.map.tasks.speculative.execution=false).
	DisableSpeculation bool
	// BlacklistAfter is the number of task failures on one machine
	// before the job stops scheduling attempts there (Hadoop's per-job
	// tracker blacklist). Zero takes the default of 3. The last alive
	// machine is never blacklisted.
	BlacklistAfter int
	// KillAfterJobs, when positive, kills the whole cluster once that
	// many jobs have started: every later Run returns *ErrClusterKilled.
	// This models a JobTracker crash mid-iteration; the DFS survives
	// (HDFS replicates blocks), so a new cluster built on the same FS
	// can resume from checkpoints.
	KillAfterJobs int

	// Storage section: faults injected below the compute layer, into
	// the cluster's DFS (see dfs.StorageFaults). Decisions hash the
	// same Seed over (file, block, replica), so they are independent of
	// scheduling and of the compute faults above.

	// BlockCorruptRate is the probability that one replica copy of one
	// DFS block is silently corrupt: a reader's checksum would reject
	// it, so the read fails over to the next copy, charging the re-read
	// and a re-replication scrub to the cost model. A block with no
	// good copy left fails the job with *dfs.ErrDataLoss.
	BlockCorruptRate float64
	// ReplicaLossRate is the probability that one replica copy of one
	// DFS block is missing (a datanode died after the write): the copy
	// is skipped from metadata without a wasted read, but still costs
	// a re-replication.
	ReplicaLossRate float64
}

// withDefaults resolves the documented zero-value defaults.
func (p FaultPlan) withDefaults() FaultPlan {
	if p.StragglerFactor <= 1 {
		p.StragglerFactor = 8
	}
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BlacklistAfter <= 0 {
		p.BlacklistAfter = 3
	}
	return p
}

// ErrJobFailed reports that a task exhausted its attempt budget, which
// fails the whole job — Hadoop's terminal "Task attempt_… failed 4
// times" outcome. The job's counters (including every failed attempt's
// wasted work) are still recorded on the cluster.
type ErrJobFailed struct {
	Job      string
	Phase    string // "map" or "reduce"
	Task     int
	Attempts int
}

func (e *ErrJobFailed) Error() string {
	return fmt.Sprintf("mr: job %q failed: %s task %d failed %d attempts",
		e.Job, e.Phase, e.Task, e.Attempts)
}

// ErrClusterKilled reports that the installed FaultPlan's KillAfterJobs
// budget is spent: the simulated JobTracker is dead and no further jobs
// run. The cluster's DFS remains readable, mirroring HDFS surviving a
// JobTracker crash.
type ErrClusterKilled struct {
	Job       string // the job whose submission found the cluster dead
	AfterJobs int
}

func (e *ErrClusterKilled) Error() string {
	return fmt.Sprintf("mr: job %q rejected: cluster killed after %d jobs (fault plan)",
		e.Job, e.AfterJobs)
}

// fault-decision channels, so the failure, straggler, and machine
// choices of one (job, task, attempt) are independent hashes.
const (
	phaseMap = uint64(iota + 1)
	phaseReduce
)

const (
	kindFail = uint64(iota + 1)
	kindStraggle
	kindMachine
)

// mix64 is the splitmix64 finalizer — the same integer mixer the
// engine's partitioners use, here stretching the plan seed over
// (job, phase, task, attempt) coordinates.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hash folds the plan seed with the given coordinates.
func (p *FaultPlan) hash(parts ...uint64) uint64 {
	h := mix64(uint64(p.Seed) ^ 0x9e3779b97f4a7c15)
	for _, q := range parts {
		h = mix64(h ^ q)
	}
	return h
}

// roll returns a uniform float in [0,1) for the given coordinates.
func (p *FaultPlan) roll(parts ...uint64) float64 {
	return float64(p.hash(parts...)>>11) / float64(uint64(1)<<53)
}

// taskCost describes one executed task to the fault pass: the records a
// re-execution would reprocess, the bytes it would re-emit, and the
// single-machine seconds one attempt costs (a task runs on one machine,
// so this is not divided by the cluster size).
type taskCost struct {
	records int64
	bytes   int64
	seconds float64
}

// faultState is the per-job recovery bookkeeping shared by the map and
// reduce fault passes: which machines the job has blacklisted.
type faultState struct {
	alive      []bool
	aliveCount int
	failures   []int
}

func newFaultState(machines int) *faultState {
	if machines <= 0 {
		machines = 1
	}
	s := &faultState{alive: make([]bool, machines), aliveCount: machines, failures: make([]int, machines)}
	for i := range s.alive {
		s.alive[i] = true
	}
	return s
}

// pickAlive deterministically maps h to one of the still-alive
// machines.
func (s *faultState) pickAlive(h uint64) int {
	k := int(h % uint64(s.aliveCount))
	for m := range s.alive {
		if !s.alive[m] {
			continue
		}
		if k == 0 {
			return m
		}
		k--
	}
	return 0 // unreachable: aliveCount > 0 by construction
}

// applyPhase replays the plan's attempt history for one phase's tasks,
// in task order (a pure post-pass — task execution itself already
// happened, and outputs are unaffected by construction). It mutates st's
// attempt/retry/waste counters and PenaltySeconds and returns a
// *ErrJobFailed when some task exhausts its attempts.
//
// The time model: a failed attempt costs its full execution time plus
// an exponential scheduler backoff (RetryBackoff · 2^(attempt-1)), and
// these serialize on the task they belong to, so the job-level penalty
// is the maximum per-task penalty — the critical path. Stragglers
// finish at StragglerFactor× their normal time unless a speculative
// attempt (launched once the task lags by SpeculativeDelay) finishes
// first; the losing attempt's work is charged as waste either way,
// exactly like Hadoop killing the slower of two attempts.
func (p *FaultPlan) applyPhase(st *JobStats, state *faultState, cost CostModel, job string, jobSeq int64, phase uint64, tasks []taskCost) error {
	phaseName := "map"
	attempts := &st.MapAttempts
	if phase == phaseReduce {
		phaseName = "reduce"
		attempts = &st.ReduceAttempts
	}
	maxPenalty := 0.0
	for t, tc := range tasks {
		penalty := 0.0
		attempt := 1
		for {
			*attempts++
			if p.roll(uint64(jobSeq), phase, uint64(t), kindFail, uint64(attempt)) >= p.FailureRate {
				break // this attempt succeeds
			}
			machine := state.pickAlive(p.hash(uint64(jobSeq), phase, uint64(t), kindMachine, uint64(attempt)))
			state.failures[machine]++
			if state.failures[machine] == p.BlacklistAfter && state.aliveCount > 1 {
				state.alive[machine] = false
				state.aliveCount--
				st.BlacklistedMachines++
			}
			st.TaskRetries++
			st.WastedRecords += tc.records
			st.WastedBytes += tc.bytes
			penalty += tc.seconds + cost.RetryBackoff*float64(int64(1)<<(attempt-1))
			if attempt == p.MaxAttempts {
				if penalty > maxPenalty {
					maxPenalty = penalty
				}
				st.PenaltySeconds += maxPenalty
				return &ErrJobFailed{Job: job, Phase: phaseName, Task: t, Attempts: attempt}
			}
			attempt++
		}
		// The winning attempt may straggle.
		if p.StragglerRate > 0 && p.roll(uint64(jobSeq), phase, uint64(t), kindStraggle) < p.StragglerRate {
			slowFinish := p.StragglerFactor * tc.seconds
			switch {
			case p.DisableSpeculation || slowFinish <= cost.SpeculativeDelay:
				// No backup: speculation is off, or the task finishes
				// before it would be flagged as lagging.
				penalty += slowFinish - tc.seconds
			default:
				*attempts++
				st.SpeculativeTasks++
				st.WastedRecords += tc.records
				st.WastedBytes += tc.bytes
				backupFinish := cost.SpeculativeDelay + tc.seconds
				finish := slowFinish
				if backupFinish < slowFinish {
					finish = backupFinish
					st.SpeculativeWins++
				}
				penalty += finish - tc.seconds
			}
		}
		if penalty > maxPenalty {
			maxPenalty = penalty
		}
	}
	st.PenaltySeconds += maxPenalty
	return nil
}
