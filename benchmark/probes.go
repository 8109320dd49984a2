package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"

	"github.com/haten2/haten2/internal/core"
	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/mr"
	"github.com/haten2/haten2/internal/mr/wire"
	"github.com/haten2/haten2/internal/serve"
	"github.com/haten2/haten2/internal/tensor"
)

// probe times fn on its own, repeating until it has run at least five
// times and for at least minSeconds, and returns the median seconds per
// call. The repeats share one span.
func (r *recorder) probe(name string, minSeconds float64, fn func() error) (float64, error) {
	id := r.begin("probe." + name)
	defer r.end(id)
	var times []float64
	for t0 := now(); len(times) < 5 || since(t0) < minSeconds; {
		c0 := now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		times = append(times, since(c0))
	}
	return median(times), nil
}

// probes measures single layers in isolation on the workload's own data
// shapes: the staged entries, the largest factor, the last contraction's
// result and the served model.
func (p *pass) probes(y *matrix.Matrix, sm *serve.Model, minSeconds float64) error {
	w, rec, l := p.w, p.rec, p.res.Layers
	x := p.x.Unwrap()
	nnz := float64(x.NNZ())
	var firstErr error
	probe := func(name string, fn func() error) float64 {
		d, err := rec.probe(name, minSeconds, fn)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return d
	}

	// tensor: the CLI's staging path, text COO out and back in.
	var coo bytes.Buffer
	l["tensor.readcoo_s"] = probe("tensor.readcoo", func() error {
		coo.Reset()
		if err := tensor.WriteCOO(&coo, x); err != nil {
			return err
		}
		_, err := tensor.ReadCOO(&coo)
		return err
	})

	// core: the columnar block codec on the staged entries and on the
	// largest factor's cells.
	entries := make([]core.Entry, x.NNZ())
	for i := range entries {
		idx := x.Index(i)
		entries[i] = core.Entry{Idx: [3]int64{idx[0], idx[1], idx[2]}, Val: x.Value(i)}
	}
	big := partsOf(p.loaded).factors[0]
	for _, f := range partsOf(p.loaded).factors {
		if f.Rows > big.Rows {
			big = f
		}
	}
	cells := make([]core.MatEntry, 0, len(big.Data))
	for i := 0; i < big.Rows; i++ {
		for j, v := range big.Row(i) {
			cells = append(cells, core.MatEntry{Row: int64(i), Col: int32(j), Val: v})
		}
	}
	var block []byte
	l["core.encode_ns_rec"] = 1e9 / nnz * probe("core.encode", func() error {
		block = core.AppendEntryBlock(block[:0], entries)
		return nil
	})
	l["core.block_bytes_rec"] = float64(len(block)) / nnz
	l["core.decode_ns_rec"] = 1e9 / nnz * probe("core.decode", func() error {
		_, _, err := core.DecodeEntryBlock(block)
		return err
	})
	ncells := float64(len(cells))
	l["core.matenc_ns_rec"] = 1e9 / ncells * probe("core.matenc", func() error {
		block = core.AppendMatEntryBlock(block[:0], cells)
		return nil
	})
	l["core.matdec_ns_rec"] = 1e9 / ncells * probe("core.matdec", func() error {
		_, _, err := core.DecodeMatEntryBlock(block)
		return err
	})

	// mr: an identity-map, count-reduce job over the staged entries is
	// map dispatch, partitioning, arena grouping and reduce dispatch
	// with no plan logic. dfs: the same entries written and read back.
	c := mr.NewCluster(mr.Config{Machines: 8, SlotsPerMachine: 4})
	size := func(core.Entry) int64 { return 32 }
	if err := mr.WriteFile(c, "probe.X", entries, size); err != nil {
		return err
	}
	job := mr.Job[int64, float64, int64]{
		Name: "probe.count",
		Inputs: []mr.Input[int64, float64]{mr.MapInput("probe.X", func(e core.Entry, emit func(int64, float64)) {
			emit(e.Idx[0], e.Val)
		})},
		Reduce:    func(_ int64, vals []float64, emit func(int64)) { emit(int64(len(vals))) },
		Partition: mr.HashInt64,
	}
	var m0, m1 runtime.MemStats
	var mallocs, runs float64
	l["mr.engine_ns_rec"] = 1e9 / nnz * probe("mr.engine", func() error {
		runtime.ReadMemStats(&m0)
		out, _, err := mr.Run(c, job)
		runtime.ReadMemStats(&m1)
		mallocs, runs = mallocs+float64(m1.Mallocs-m0.Mallocs), runs+1
		mr.Recycle(out)
		return err
	})
	l["mr.engine_allocs_rec"] = mallocs / runs / nnz
	l["dfs.write_ns_rec"] = 1e9 / nnz * probe("dfs.write", func() error {
		return mr.WriteFile(c, "probe.W", entries, size)
	})
	l["dfs.read_ns_rec"] = 1e9 / nnz * probe("dfs.read", func() error {
		_, err := mr.ReadFile[core.Entry](c, "probe.W")
		return err
	})

	// matrix: the update kernels at the workload's factor shapes.
	gram := matrix.Gram(big)
	pinv := matrix.PseudoInverse(gram)
	l["matrix.gram_s"] = probe("matrix.gram", func() error { matrix.Gram(big); return nil })
	l["matrix.pinv_s"] = probe("matrix.pinv", func() error { matrix.PseudoInverse(gram); return nil })
	l["matrix.mul_s"] = probe("matrix.mul", func() error { matrix.Mul(big, pinv); return nil })
	l["matrix.llsv_s"] = probe("matrix.llsv", func() error {
		matrix.LeadingLeftSingularVectors(y, min(big.Cols, y.Cols))
		return nil
	})
	l["matrix.qr_s"] = probe("matrix.qr", func() error { matrix.QR(big); return nil })
	obj := sm.Factor(1)
	const batch = 32
	qs := matrix.Random(batch, obj.Cols, rand.New(rand.NewSource(p.seed)))
	scores := matrix.New(batch, obj.Rows)
	// Flops are computed from the shapes, not counted: 2·B·J·R per call.
	l["matrix.mulbt_gflops"] = 2 * batch * float64(obj.Rows) * float64(obj.Cols) / 1e9 /
		probe("matrix.mulbt", func() error { matrix.MulBTInto(scores, qs, obj); return nil })

	// serve: the hit path, the miss path and the bare kernel under it.
	subjects, predicates := int64(sm.Factor(0).Rows), int64(sm.Factor(2).Rows)
	dst := make([]serve.Result, 0, topK)
	cached, err := serve.New(sm, serve.Config{Shards: w.Shards})
	if err != nil {
		return err
	}
	const hits = 1000
	l["serve.hit_ns"] = 1e9 / hits * probe("serve.hit", func() (err error) {
		for i := 0; i < hits && err == nil; i++ {
			dst, err = cached.TopKObjects(0, 0, topK, dst)
		}
		return err
	})
	cached.Close()
	uncached, err := serve.New(sm, serve.Config{Shards: w.Shards, NoCache: true})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(p.seed + 400))
	l["serve.miss_us"] = 1e6 * probe("serve.miss", func() (err error) {
		dst, err = uncached.TopKObjects(rng.Int63n(subjects), rng.Int63n(predicates), topK, dst)
		return err
	})
	uncached.Close()
	one := matrix.Matrix{Rows: 1, Cols: obj.Cols, Data: qs.Row(0)}
	row := matrix.New(1, obj.Rows)
	l["serve.kernel_us"] = 1e6 * probe("serve.kernel", func() error {
		matrix.MulBTInto(row, &one, obj)
		dst = serve.SelectTopK(dst[:0], row.Data, 0, topK)
		return nil
	})
	l["serve.dispatch_us"] = l["serve.miss_us"] - l["serve.kernel_us"]

	// par: the serve phase again with every core.
	prev := runtime.GOMAXPROCS(runtime.NumCPU())
	srv, err := serve.New(sm, serve.Config{Shards: w.Shards, CacheSize: w.Cache, NoCache: w.Cache == 0})
	if err == nil {
		var par *loadResult
		id := rec.begin("par.serve")
		par, err = closedLoop(srv, w, p.seed+100, subjects, predicates)
		rec.end(id)
		srv.Close()
		if err == nil {
			l["par.serve_qps_ratio"] = par.qps() / p.served.qps()
		}
	}
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}

	// mrproc and wire run only where a backend does.
	if p.backend != nil {
		var enc []byte
		l["wire.encode_ns_rec"] = 1e9 / nnz * probe("wire.encode", func() (err error) {
			enc, err = wire.EncodeSlice(entries)
			return err
		})
		l["wire.bytes_rec"] = float64(len(enc)) / nnz
		l["wire.decode_ns_rec"] = 1e9 / nnz * probe("wire.decode", func() error {
			_, err := wire.DecodeSlice(reflect.TypeOf(core.Entry{}), enc)
			return err
		})
		// One partition the size the run shipped on average, there and
		// back; then one file the size of the staged tensor.
		part := enc[:max(1, min(len(enc), int(1e6*l["mrproc.partition_mb"]/max(1, l["mrproc.partitions"]))))]
		seq := int64(0)
		rtt := probe("mrproc.part", func() error {
			seq++
			k := mr.PartKey{Job: "probe", Seq: seq}
			if err := p.backend.ShipPartition(k, append([]byte(nil), part...)); err != nil {
				return err
			}
			if _, err := p.backend.FetchPartition(k); err != nil {
				return err
			}
			return p.backend.ReleaseJob("probe", seq)
		})
		l["mrproc.part_rtt_us"] = 1e6 * rtt
		l["mrproc.part_mbps"] = 2 * float64(len(part)) / 1e6 / rtt
		file := append([]byte(nil), enc...)
		l["mrproc.shipfile_mbps"] = float64(len(enc)) / 1e6 / probe("mrproc.shipfile", func() error {
			// Change one byte per chunk so the content-hashed transfer
			// has to move every chunk again.
			seq++
			for i := 0; i < len(file); i += 4096 {
				file[i] = byte(seq)
			}
			return p.backend.ShipFile("probe.file", file)
		})
		if err := p.backend.DropFile("probe.file"); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
