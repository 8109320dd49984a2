package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"

	haten2 "github.com/haten2/haten2"
	"github.com/haten2/haten2/internal/core"
	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/obs"
	"github.com/haten2/haten2/internal/tensor"
)

// memSpan runs fn inside a span and returns the mallocs and bytes it
// allocated.
func (r *recorder) memSpan(name string, fn func() error) (mallocs, bytes uint64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := r.begin(name)
	err = fn()
	runtime.ReadMemStats(&m1)
	mallocs, bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	r.end(id, counter{"mallocs", float64(mallocs)}, counter{"alloc_bytes", float64(bytes)})
	return mallocs, bytes, err
}

// spanOf runs fn inside a span.
func spanOf[T any](r *recorder, name string, fn func() T) T {
	id := r.begin(name)
	out := fn()
	r.end(id)
	return out
}

// tracedDecompose is the traced pass's decompose phase. It re-enacts
// the ALS driver from outside — core.Stage, one contraction per mode,
// then the matrix update calls, each under a span — cold, as the first
// engine work of the process, so that its total is comparable with an
// untraced pass's decompose_s. The public API then runs the same
// decomposition (warm) to give the model the later phases persist and
// serve; its result must equal the re-enactment bit for bit, which pins
// the re-enactment to the driver it stands in for. Warm one-iteration
// runs follow — with an obs.Tracer attached, plain, plain at
// GOMAXPROCS=nproc, and on the proc workload plain without the backend
// — for the simulated phase shares, the tracer overhead, the parallel
// speed-up and the transport share. It returns the last contraction's
// matricized result for the matrix probes.
func (p *pass) tracedDecompose() (lastY *matrix.Matrix, err error) {
	w, rec, x := p.w, p.rec, p.x.Unwrap()
	l := p.res.Layers
	c := p.cluster.Unwrap()

	var contractMallocs, contractBytes uint64
	contract := func(name string, fn func() error) error {
		m, b, err := rec.memSpan(name, fn)
		contractMallocs, contractBytes = contractMallocs+m, contractBytes+b
		return err
	}

	sweep := rec.begin("sweep")
	t0 := now()
	id := rec.begin("core.Stage")
	staged, err := core.Stage(c, "X", x)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.seed))
	dims := staged.Dims
	var got parts
	others := [3][2]int{{1, 2}, {0, 2}, {0, 1}}
	if w.tucker() {
		q := w.Core
		for m := range got.factors {
			got.factors[m] = spanOf(rec, "matrix.QR", func() *matrix.Matrix {
				f, _ := matrix.QR(matrix.Random(int(dims[m]), q, rng))
				return f
			})
		}
		var coreY []core.YEntry
		for it := 0; it < w.Iters; it++ {
			for n := 0; n < 3; n++ {
				o := others[n]
				var ys []core.YEntry
				if err := contract("core.TuckerContract", func() (err error) {
					ys, err = core.TuckerContract(staged, n, got.factors[o[0]], got.factors[o[1]], core.DRI)
					return err
				}); err != nil {
					return nil, err
				}
				lastY = spanOf(rec, "driver.assembleY", func() *matrix.Matrix {
					ym := matrix.New(int(dims[n]), q*q)
					for _, y := range ys {
						ym.Set(int(y.I), int(y.Q)*q+int(y.R), y.Val)
					}
					return ym
				})
				got.factors[n] = spanOf(rec, "matrix.LeadingLeftSingularVectors", func() *matrix.Matrix {
					return matrix.LeadingLeftSingularVectors(lastY, q)
				})
				coreY = ys
			}
			got.core = spanOf(rec, "driver.formCore", func() *tensor.Dense {
				g := tensor.NewDense(int64(q), int64(q), int64(q))
				cf := got.factors[2]
				for _, y := range coreY {
					for r := 0; r < q; r++ {
						if cv := cf.At(int(y.I), r); cv != 0 {
							g.Add(y.Val*cv, int64(y.Q), int64(y.R), int64(r))
						}
					}
				}
				return g
			})
		}
	} else {
		for m := range got.factors {
			got.factors[m] = spanOf(rec, "matrix.Random", func() *matrix.Matrix {
				return matrix.Random(int(dims[m]), w.Rank, rng)
			})
		}
		got.lambda = make([]float64, w.Rank)
		for it := 0; it < w.Iters; it++ {
			for n := 0; n < 3; n++ {
				o := others[n]
				if err := contract("core.ParafacContract", func() (err error) {
					lastY, err = core.ParafacContract(staged, n, got.factors[o[0]], got.factors[o[1]], core.DRI)
					return err
				}); err != nil {
					return nil, err
				}
				gram := spanOf(rec, "matrix.Gram", func() *matrix.Matrix {
					return matrix.Hadamard(matrix.Gram(got.factors[o[0]]), matrix.Gram(got.factors[o[1]]))
				})
				pinv := spanOf(rec, "matrix.PseudoInverse", func() *matrix.Matrix { return matrix.PseudoInverse(gram) })
				a := spanOf(rec, "matrix.Mul", func() *matrix.Matrix { return matrix.Mul(lastY, pinv) })
				norms := spanOf(rec, "matrix.NormalizeColumns", a.NormalizeColumns)
				for r, nv := range norms {
					if nv == 0 {
						// The driver would re-draw the column; no pinned
						// workload has a dead component, and the bit
						// comparison below would catch one.
						return nil, fmt.Errorf("component %d died in mode %d", r, n)
					}
					got.lambda[r] = nv
				}
				got.factors[n] = a
			}
		}
	}
	p.res.SweepSeconds = since(t0)
	tot := c.Totals()
	fs := c.FS().Stats()
	rec.end(sweep,
		counter{"jobs", float64(tot.Jobs)}, counter{"shuffle_records", float64(tot.ShuffleRecords)},
		counter{"dfs_read_bytes", float64(fs.BytesRead)}, counter{"dfs_written_bytes", float64(fs.BytesWritten)})

	sweepS := p.res.SweepSeconds
	l["core.stage_s"] = rec.total(func(n string) bool { return n == "core.Stage" })
	l["core.contract_s"] = rec.total(func(n string) bool { return strings.HasSuffix(n, "Contract") })
	l["core.contract_share"] = l["core.contract_s"] / sweepS
	l["core.contract_allocs"] = float64(contractMallocs)
	l["core.contract_alloc_mb"] = float64(contractBytes) / 1e6
	l["matrix.update_s"] = rec.total(func(n string) bool { return strings.HasPrefix(n, "matrix.") })
	l["matrix.update_share"] = l["matrix.update_s"] / sweepS
	l["mr.jobs"] = float64(tot.Jobs)
	l["mr.shuffle_records"] = float64(tot.ShuffleRecords)
	l["mr.input_mb"] = float64(tot.InputBytes) / 1e6
	l["mr.output_mb"] = float64(tot.OutputBytes) / 1e6
	l["dfs.read_mb"] = float64(fs.BytesRead) / 1e6
	l["dfs.write_mb"] = float64(fs.BytesWritten) / 1e6
	l["dfs.files_created"] = float64(fs.FilesCreated)
	if p.backend != nil {
		st := p.backend.Stats()
		l["mrproc.partitions"] = float64(st.PartitionsShipped)
		l["mrproc.partition_mb"] = float64(st.PartitionBytes) / 1e6
		l["mrproc.chunk_mb"] = float64(st.ChunkBytesShipped) / 1e6
		if all := st.ChunksShipped + st.ChunksDeduped; all > 0 {
			l["mrproc.dedupe_share"] = float64(st.ChunksDeduped) / float64(all)
		}
		l["mrproc.heartbeat_misses"] = float64(st.HeartbeatMisses)
	}

	// The model the rest of the pipeline uses comes from the public
	// API, on a cluster of its own so that its counters are one run's.
	fresh := func(tr *obs.Tracer, backend bool) *haten2.Cluster {
		c := newCluster()
		if backend && p.backend != nil {
			c.Unwrap().SetBackend(p.backend)
		}
		c.Unwrap().SetTracer(tr)
		return c
	}
	run := func(c *haten2.Cluster, iters int) (m model, seconds float64, err error) {
		seconds, err = rec.timed("haten2.decompose", func() (err error) {
			m, err = w.decompose(c, p.x, p.seed, iters)
			return err
		})
		return m, seconds, err
	}
	p.cluster = fresh(nil, true)
	if p.model, _, err = run(p.cluster, w.Iters); err != nil {
		return nil, err
	}
	same := sameBits(got, partsOf(p.model))
	if same == nil && tot != p.cluster.Unwrap().Totals() {
		same = fmt.Errorf("totals %+v, driver %+v", tot, p.cluster.Unwrap().Totals())
	}
	p.check("re-enactment equals the driver", same)

	// One warm one-iteration run with an obs.Tracer attached gives the
	// simulated-clock phase shares. Its overhead is what recording the
	// same spans into a fresh tracer costs, as a share of that run: an
	// A/B of whole runs cannot resolve it, because warm in-process runs
	// differ by several percent (and by 2x when a GC cycle empties the
	// engine's pools) while the tracer's work is microseconds.
	tr := obs.NewTracer()
	_, tracedRun, err := run(fresh(tr, true), 1)
	if err != nil {
		return nil, err
	}
	spans := tr.Spans()
	replay, err := rec.probe("obs.replay", 0, func() error { replaySpans(spans); return nil })
	if err != nil {
		return nil, err
	}
	l["obs.tracer_overhead_pct"] = 100 * replay / tracedRun
	var phase [3]float64
	var sim float64
	for _, s := range spans {
		if s.Kind != "phase" {
			continue
		}
		sim += s.Dur
		for i, name := range [3]string{"map", "shuffle", "reduce"} {
			if s.Name == name {
				phase[i] += s.Dur
			}
		}
	}
	l["obs.sim_map_share"], l["obs.sim_shuffle_share"], l["obs.sim_reduce_share"] = phase[0]/sim, phase[1]/sim, phase[2]/sim

	// Parallel speed-up: the same warm run at GOMAXPROCS=1 and with
	// every core. Proc workers stay at GOMAXPROCS=1.
	_, warm, err := run(fresh(nil, true), 1)
	if err != nil {
		return nil, err
	}
	prev := runtime.GOMAXPROCS(runtime.NumCPU())
	_, par, err := run(fresh(nil, true), 1)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return nil, err
	}
	l["par.decompose_speedup"] = warm / par

	// Transport share: the same warm run with the backend taken away.
	if p.backend != nil {
		_, inProcess, err := run(fresh(nil, false), 1)
		if err != nil {
			return nil, err
		}
		l["mrproc.transport_share"] = 1 - inProcess/warm
	}
	return lastY, nil
}

// replaySpans records spans, as an obs.Tracer returned them, into a
// fresh tracer with the calls the engine made: Emit for phases,
// Begin/End for everything that encloses them.
func replaySpans(spans []obs.Span) {
	tr := obs.NewTracer()
	var open, ids []int // recorded ids of the open spans, and the new tracer's
	for _, s := range spans {
		for len(open) > 0 && open[len(open)-1] != s.Parent {
			tr.End(ids[len(ids)-1])
			open, ids = open[:len(open)-1], ids[:len(ids)-1]
		}
		if s.Kind == "phase" {
			tr.Emit(s.Kind, s.Name, s.Dur, s.Counters...)
			continue
		}
		open, ids = append(open, s.ID), append(ids, tr.Begin(s.Kind, s.Name))
	}
	for len(ids) > 0 {
		tr.End(ids[len(ids)-1])
		ids = ids[:len(ids)-1]
	}
}
