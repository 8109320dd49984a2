// Command haten2serve serves top-k queries over decomposed factor
// matrices — the paper's applications (triple completion and concept
// discovery over a knowledge base, §IV-C) as an interactive service
// backed by the sharded/batched/cached engine of internal/serve
// (DESIGN.md §3h).
//
// The model comes either from a persisted decomposition (-model, a
// file written by ParafacResult.Save or TuckerResult.Save; the format
// is sniffed) or by decomposing a labeled COO tensor in-process
// (-in, as emitted by tensorgen). With -in, entity labels from the
// file's vocabulary comments decorate the output.
//
// Queries are read as commands, one per line, from stdin:
//
//	objects <subject> <predicate> [k]   rank objects completing the triple
//	members <component> [k]             top entities of one concept
//	membership <entity> [k]             top concepts of one entity
//	stats                               traffic counters
//	quit
//
// Usage:
//
//	tensorgen -kind freebase > music.coo
//	haten2serve -in music.coo -rank 6
//	haten2serve -model factors.h2 -shards 8 -cache 4096
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	haten2 "github.com/haten2/haten2"
	"github.com/haten2/haten2/internal/gen"
	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/serve"
)

type options struct {
	model    string
	in       string
	method   string
	rank     int
	iters    int
	seed     int64
	machines int

	shards int
	cache  int
	batch  int
	topk   int
}

func main() {
	var o options
	flag.StringVar(&o.model, "model", "", "persisted model file (ParafacResult.Save / TuckerResult.Save)")
	flag.StringVar(&o.in, "in", "", "labeled COO tensor to decompose and serve")
	flag.StringVar(&o.method, "method", "parafac", "decomposition for -in: parafac or tucker")
	flag.IntVar(&o.rank, "rank", 6, "rank / core dimension for -in")
	flag.IntVar(&o.iters, "iters", 40, "maximum ALS iterations for -in")
	flag.Int64Var(&o.seed, "seed", 0, "factor initialization seed for -in")
	flag.IntVar(&o.machines, "machines", 40, "simulated cluster size for -in")
	flag.IntVar(&o.shards, "shards", 4, "row shards of the object factor")
	flag.IntVar(&o.cache, "cache", 1024, "per-stripe LRU capacity (0 disables)")
	flag.IntVar(&o.batch, "batch", 32, "max queries per dispatch batch")
	flag.IntVar(&o.topk, "topk", 5, "default k when a command omits it")
	flag.Parse()
	if err := run(os.Stdout, os.Stdin, o); err != nil {
		fmt.Fprintln(os.Stderr, "haten2serve:", err)
		os.Exit(1)
	}
}

// loadModel builds the serving model from whichever source was given.
// It returns the model plus per-mode labels (nil without -in).
func loadModel(o options) (*serve.Model, *gen.Vocab, error) {
	switch {
	case o.model != "" && o.in != "":
		return nil, nil, fmt.Errorf("-model and -in are mutually exclusive")
	case o.model != "":
		m, err := loadPersisted(o.model)
		return m, nil, err
	case o.in != "":
		return decompose(o)
	default:
		return nil, nil, fmt.Errorf("one of -model or -in is required")
	}
}

// loadPersisted sniffs the persistence magic and loads either model
// kind into serving layout.
func loadPersisted(path string) (*serve.Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	first := strings.TrimSpace(strings.SplitN(string(data), "\n", 2)[0])
	switch {
	case strings.HasPrefix(first, "haten2-parafac"):
		res, err := haten2.LoadParafac(strings.NewReader(string(data)))
		if err != nil {
			return nil, err
		}
		return serve.NewParafacModel(res.Lambda, unwrap3(res.Factors))
	case strings.HasPrefix(first, "haten2-tucker"):
		res, err := haten2.LoadTucker(strings.NewReader(string(data)))
		if err != nil {
			return nil, err
		}
		return serve.NewTuckerModel(res.Core.Unwrap(), unwrap3(res.Factors))
	default:
		return nil, fmt.Errorf("%s: unrecognized model header %q", path, first)
	}
}

func unwrap3(f [3]*haten2.Matrix) [3]*matrix.Matrix {
	return [3]*matrix.Matrix{f[0].Unwrap(), f[1].Unwrap(), f[2].Unwrap()}
}

// decompose runs the full pipeline on a labeled tensor file.
func decompose(o options) (*serve.Model, *gen.Vocab, error) {
	f, err := os.Open(o.in)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	raw, v, err := gen.ReadLabeledCOO(f)
	if err != nil {
		return nil, nil, err
	}
	if raw.Order() != 3 {
		return nil, nil, fmt.Errorf("serving needs a 3-way (subject, object, predicate) tensor, got order %d", raw.Order())
	}
	x := haten2.WrapTensor(raw)
	cluster := haten2.NewCluster(haten2.ClusterConfig{Machines: o.machines})
	opt := haten2.Options{Variant: haten2.DRI, MaxIters: o.iters, Seed: o.seed, TrackFit: true, Tol: 1e-7}
	switch o.method {
	case "parafac":
		res, err := haten2.Parafac(cluster, x, o.rank, opt)
		if err != nil {
			return nil, nil, err
		}
		m, err := serve.NewParafacModel(res.Lambda, unwrap3(res.Factors))
		return m, v, err
	case "tucker":
		res, err := haten2.Tucker(cluster, x, [3]int{o.rank, o.rank, o.rank}, opt)
		if err != nil {
			return nil, nil, err
		}
		m, err := serve.NewTuckerModel(res.Core.Unwrap(), unwrap3(res.Factors))
		return m, v, err
	default:
		return nil, nil, fmt.Errorf("unknown method %q (want parafac or tucker)", o.method)
	}
}

func run(w io.Writer, r io.Reader, o options) error {
	model, vocab, err := loadModel(o)
	if err != nil {
		return err
	}
	srv, err := serve.New(model, serve.Config{
		Shards:    o.shards,
		CacheSize: o.cache,
		NoCache:   o.cache == 0,
		MaxBatch:  o.batch,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	st := srv.Stats()
	fmt.Fprintf(w, "serving %d subjects × %d objects × %d predicates, %d components; %d shards, cache %d/stripe, batch ≤ %d\n",
		model.Factor(0).Rows, model.Objects(), model.Factor(2).Rows, model.Components(),
		st.Shards, st.CacheSize, st.MaxBatch)

	label := func(mode int, id int64) string {
		if vocab == nil {
			return fmt.Sprintf("#%d", id)
		}
		return vocab.Label(mode, id)
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<22)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		cmd := fields[0]
		args := fields[1:]
		switch cmd {
		case "quit", "exit":
			return nil
		case "help":
			fmt.Fprintln(w, "commands: objects <subject> <predicate> [k] · members <component> [k] · membership <entity> [k] · stats · quit")
		case "stats":
			s := srv.Stats()
			perMiss := 0.0
			if s.CacheMisses > 0 {
				perMiss = float64(s.RowsScored) / float64(s.CacheMisses)
			}
			fmt.Fprintf(w, "queries %d · hits %d (%.1f%%) · misses %d · coalesced %d · batches %d (mean occupancy %.2f) · rows scored per miss %.1f\n",
				s.Queries, s.CacheHits, 100*s.HitRate(), s.CacheMisses, s.Coalesced, s.Batches, s.BatchOccupancy(), perMiss)
		case "objects":
			ids, k, err := parseArgs(args, 2, o.topk)
			if err != nil {
				fmt.Fprintln(w, "error:", err)
				continue
			}
			res, err := srv.TopKObjects(ids[0], ids[1], k, nil)
			if err != nil {
				fmt.Fprintln(w, "error:", err)
				continue
			}
			fmt.Fprintf(w, "(%s, %s) →\n", label(0, ids[0]), label(2, ids[1]))
			for i, m := range res {
				fmt.Fprintf(w, "  %2d. %-30s %.6g\n", i+1, label(1, m.Index), m.Score)
			}
		case "members":
			ids, k, err := parseArgs(args, 1, o.topk)
			if err != nil {
				fmt.Fprintln(w, "error:", err)
				continue
			}
			res, err := srv.ConceptMembers(int(ids[0]), k, nil)
			if err != nil {
				fmt.Fprintln(w, "error:", err)
				continue
			}
			fmt.Fprintf(w, "concept %d →\n", ids[0])
			for i, m := range res {
				fmt.Fprintf(w, "  %2d. %-30s %.6g\n", i+1, label(1, m.Index), m.Score)
			}
		case "membership":
			ids, k, err := parseArgs(args, 1, o.topk)
			if err != nil {
				fmt.Fprintln(w, "error:", err)
				continue
			}
			res, err := srv.Membership(ids[0], k, nil)
			if err != nil {
				fmt.Fprintln(w, "error:", err)
				continue
			}
			fmt.Fprintf(w, "%s →\n", label(1, ids[0]))
			for i, m := range res {
				fmt.Fprintf(w, "  %2d. concept %-3d %.6g\n", i+1, m.Index, m.Score)
			}
		default:
			fmt.Fprintf(w, "unknown command %q (try help)\n", cmd)
		}
	}
	return sc.Err()
}

// parseArgs parses n required int64 ids plus an optional trailing k.
func parseArgs(args []string, n, defaultK int) ([]int64, int, error) {
	if len(args) < n || len(args) > n+1 {
		return nil, 0, fmt.Errorf("want %d ids and an optional k, got %d args", n, len(args))
	}
	ids := make([]int64, n)
	for i := 0; i < n; i++ {
		v, err := strconv.ParseInt(args[i], 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("bad id %q", args[i])
		}
		ids[i] = v
	}
	k := defaultK
	if len(args) == n+1 {
		v, err := strconv.Atoi(args[n])
		if err != nil || v < 0 {
			return nil, 0, fmt.Errorf("bad k %q", args[n])
		}
		k = v
	}
	return ids, k, nil
}
