package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	haten2 "github.com/haten2/haten2"
	"github.com/haten2/haten2/internal/baseline"
	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/mrproc"
	"github.com/haten2/haten2/internal/serve"
	"github.com/haten2/haten2/internal/tensor"
)

// passResult is what one pass — one run of the whole pipeline on one
// workload, in a process of its own — reports back to the driver.
type passResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// EndToEnd holds every end-to-end metric; Layers is filled by the
	// traced pass only.
	EndToEnd map[string]float64 `json:"end_to_end"`
	Layers   map[string]float64 `json:"layers,omitempty"`
	// Attempted counts decompositions, persist round trips, queries
	// and verification checks; a failed check is a failed operation.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// ModelSHA is the SHA-256 of the saved model; it must be the same
	// in every pass of a workload and seed.
	ModelSHA       string `json:"model_sha256"`
	LatencySamples int    `json:"latency_samples"`
	// SweepSeconds is the traced pass's cold decomposition, to set
	// against the untraced decompose_s as the tracing overhead.
	SweepSeconds float64 `json:"sweep_s,omitempty"`
}

// pass carries the state of one pipeline run from phase to phase.
type pass struct {
	w    workload
	seed int64
	rec  *recorder // nil in untraced passes
	res  *passResult

	x       *haten2.Tensor
	cluster *haten2.Cluster
	backend *mrproc.Master // nil unless w.Proc
	model   model          // as decomposed
	saved   []byte
	loaded  model // after the Save→Load round trip; the one served
	served  *loadResult
}

// check counts one verification check and records its failure.
func (p *pass) check(name string, err error) {
	p.res.Attempted++
	if err != nil {
		p.res.Failed++
		p.res.Failures = append(p.res.Failures, name+": "+err.Error())
	}
}

func newCluster() *haten2.Cluster {
	return haten2.NewCluster(haten2.ClusterConfig{Machines: 8, SlotsPerMachine: 4})
}

// runPass runs the pipeline once: generate → decompose → persist →
// serve, then the untimed verification. With a recorder it is the
// traced pass: the decomposition is re-enacted call by call under
// spans, and the layer probes run at the end.
func runPass(w workload, seed int64, rec *recorder, probeSeconds float64, prof *profiler) (*passResult, error) {
	p := &pass{w: w, seed: seed, rec: rec, res: &passResult{
		Workload: w.Name, Seed: seed, EndToEnd: map[string]float64{},
	}}
	if rec != nil {
		// The backend's layers read 0 unless a backend runs.
		p.res.Layers = map[string]float64{}
		for _, d := range perLayer {
			if strings.HasPrefix(d.Name, "mrproc.") || strings.HasPrefix(d.Name, "wire.") {
				p.res.Layers[d.Name] = 0
			}
		}
	}
	e := p.res.EndToEnd

	// Set-up: generate (and coalesce) the input, several times, for a
	// steady median.
	var setups []float64
	for i := 0; i < w.GenReps; i++ {
		d, _ := rec.timed("gen.build", func() error {
			p.x = haten2.WrapTensor(w.generate(seed))
			return nil
		})
		setups = append(setups, d)
	}
	e["setup_s"] = median(setups)
	if err := prof.start(); err != nil {
		return nil, err
	}

	p.cluster = newCluster()
	if w.Proc {
		b, err := mrproc.New(mrproc.Options{Workers: 2})
		if err != nil {
			return nil, fmt.Errorf("start proc backend: %w", err)
		}
		defer b.Close()
		p.backend = b
		p.cluster.Unwrap().SetBackend(b)
	}

	var lastY *matrix.Matrix
	if rec == nil {
		d, err := rec.timed("haten2.decompose", func() (err error) {
			p.model, err = w.decompose(p.cluster, p.x, seed, w.Iters)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("decompose: %w", err)
		}
		e["decompose_s"] = d
	} else {
		var err error
		if lastY, err = p.tracedDecompose(); err != nil {
			return nil, fmt.Errorf("traced decompose: %w", err)
		}
		e["decompose_s"] = p.res.SweepSeconds
	}
	p.res.Attempted++
	st := p.cluster.Stats()
	e["shuffle_mb"] = float64(st.ShuffleBytes) / 1e6
	e["sim_s"] = st.SimSeconds

	// Persist: Save to a buffer and Load it back. The pipeline makes one
	// round trip, and its model is the one served. The repeats that
	// steady the median run after the peak resident set is read: every
	// Load leaves a 1 MiB buffer behind, and a thousand of them raised
	// VmHWM by up to 270 MB, a different amount in every pass.
	var buf bytes.Buffer
	var saves, loads, trips []float64
	roundTrip := func() (m model, err error) {
		buf.Reset()
		ds, err := rec.timed("persist.Save", func() error { return p.model.Save(&buf) })
		if err != nil {
			return nil, fmt.Errorf("save: %w", err)
		}
		dl, err := rec.timed("persist.Load", func() (err error) {
			m, err = w.load(bytes.NewReader(buf.Bytes()))
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		saves, loads, trips = append(saves, ds), append(loads, dl), append(trips, ds+dl)
		p.res.Attempted++
		return m, nil
	}
	var err error
	if p.loaded, err = roundTrip(); err != nil {
		return nil, err
	}

	// Serve the loaded model under the closed-loop query load.
	loaded := partsOf(p.loaded)
	sm, err := loaded.serveModel()
	if err != nil {
		return nil, fmt.Errorf("serve model: %w", err)
	}
	cfg := serve.Config{Shards: w.Shards, CacheSize: w.Cache, NoCache: w.Cache == 0}
	var srv *serve.Server
	newS, err := rec.timed("serve.New", func() (err error) {
		srv, err = serve.New(sm, cfg)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	subjects, predicates := int64(loaded.factors[0].Rows), int64(loaded.factors[2].Rows)
	id := rec.begin("serve.load")
	p.served, err = closedLoop(srv, w, seed+100, subjects, predicates)
	rec.end(id)
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("serve load: %w", err)
	}
	p.res.Attempted += p.served.Queries
	p.res.LatencySamples = len(p.served.Latencies)
	e["serve_qps"] = p.served.qps()
	e["serve_p50_us"] = midMean(p.served.Latencies) * 1e6
	e["serve_p99_us"] = percentile(p.served.Latencies, 0.99) * 1e6
	rss, err := peakRSSMB()
	if err != nil {
		srv.Close()
		return nil, err
	}
	e["peak_rss_mb"] = rss
	served := srv.Stats()
	if err := prof.stop(); err != nil {
		srv.Close()
		return nil, err
	}
	for i := 1; i < w.PersistReps; i++ {
		if _, err := roundTrip(); err != nil {
			srv.Close()
			return nil, err
		}
	}
	p.saved = buf.Bytes()
	e["persist_s"] = median(trips)
	e["pipeline_s"] = e["decompose_s"] + e["persist_s"] + newS + p.served.Wall

	// Everything below is untimed.
	p.verify(srv, loaded)
	srv.Close()

	if rec != nil {
		l := p.res.Layers
		l["gen.build_s"] = e["setup_s"]
		l["persist.save_s"], l["persist.load_s"] = median(saves), median(loads)
		l["persist.model_mb"] = float64(len(p.saved)) / 1e6
		l["serve.new_s"] = newS
		l["serve.hit_rate"] = served.HitRate()
		l["serve.batch_occupancy"] = served.BatchOccupancy()
		l["serve.coalesced"] = float64(served.Coalesced)
		l["model.fit"] = p.loaded.Fit(p.x)
		if err := p.probes(lastY, sm, probeSeconds); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}
	return p.res, nil
}

// verify checks the pass's outputs against code that shares nothing
// with the paths that produced them.
func (p *pass) verify(srv *serve.Server, loaded parts) {
	w, x := p.w, p.x.Unwrap()
	sum := sha256.Sum256(p.saved)
	p.res.ModelSHA = hex.EncodeToString(sum[:])

	p.check("persist round trip", sameBits(partsOf(p.model), loaded))
	p.check("baseline differential", p.againstBaseline(x))

	// 64 sampled queries, bit-identical to the full-sort reference.
	rng := rand.New(rand.NewSource(p.seed + 200))
	subjects, predicates := loaded.factors[0].Rows, loaded.factors[2].Rows
	var dst []serve.Result
	for i := 0; i < 64; i++ {
		s, pr := int64(rng.Intn(subjects)), int64(rng.Intn(predicates))
		var err error
		dst, err = srv.TopKObjects(s, pr, topK, dst)
		if err == nil {
			err = sameRanking(dst, loaded.referenceTopK(s, pr, topK))
		}
		if err != nil {
			err = fmt.Errorf("query (%d,%d): %w", s, pr, err)
		}
		p.check("ranking", err)
	}

	if w.Proc {
		// The backend may change time, never counters: one more run of
		// the same input in-process must leave identical totals.
		c := newCluster()
		_, err := w.decompose(c, p.x, p.seed, w.Iters)
		if err == nil && c.Unwrap().Totals() != p.cluster.Unwrap().Totals() {
			err = fmt.Errorf("totals differ: proc %+v, in-process %+v", p.cluster.Unwrap().Totals(), c.Unwrap().Totals())
		}
		p.check("proc vs in-process counters", err)
	}
}

// againstBaseline reruns the decomposition with internal/baseline's
// single-machine ALS (same seed, same iteration count) and compares the
// scale of the model and 1 000 sampled predictions.
func (p *pass) againstBaseline(x *tensor.Tensor) error {
	w := p.w
	const tol = 1e-6
	near := func(got, want float64) bool { return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want)) }
	rel := func(got, want float64) bool { return math.Abs(got-want) <= tol*math.Abs(want) }
	opt := baseline.Options{MaxIters: w.Iters, Seed: p.seed}
	tb := baseline.New(baseline.Config{})
	var want func(...int64) float64
	got := partsOf(p.model)
	if w.tucker() {
		ref, err := tb.TuckerALS(x, [3]int{w.Core, w.Core, w.Core}, opt)
		if err != nil {
			return err
		}
		if g, r := got.core.Norm(), ref.Model.Core.Norm(); !rel(g, r) {
			return fmt.Errorf("core norm %g, baseline %g", g, r)
		}
		want = ref.Model.At
	} else {
		ref, err := tb.ParafacALS(x, w.Rank, opt)
		if err != nil {
			return err
		}
		for r, l := range ref.Model.Lambda {
			if !rel(got.lambda[r], l) {
				return fmt.Errorf("lambda[%d] %g, baseline %g", r, got.lambda[r], l)
			}
		}
		want = ref.Model.At
	}
	rng := rand.New(rand.NewSource(p.seed + 300))
	for n := 0; n < 1000; n++ {
		// Half the samples sit on nonzeros, where the model has mass.
		i, j, k := rng.Int63n(x.Dim(0)), rng.Int63n(x.Dim(1)), rng.Int63n(x.Dim(2))
		if n%2 == 0 {
			idx := x.Index(rng.Intn(x.NNZ()))
			i, j, k = idx[0], idx[1], idx[2]
		}
		if g, r := p.model.Predict(i, j, k), want(i, j, k); !near(g, r) {
			return fmt.Errorf("prediction (%d,%d,%d) %g, baseline %g", i, j, k, g, r)
		}
	}
	return nil
}

func sameRanking(got []serve.Result, want []baseline.TopKResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("served %d results, reference %d", len(got), len(want))
	}
	for r := range got {
		if got[r].Index != want[r].Index || math.Float64bits(got[r].Score) != math.Float64bits(want[r].Score) {
			return fmt.Errorf("rank %d: served (%d, %x), reference (%d, %x)", r,
				got[r].Index, math.Float64bits(got[r].Score), want[r].Index, math.Float64bits(want[r].Score))
		}
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}
