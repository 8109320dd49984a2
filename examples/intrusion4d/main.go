// 4-way intrusion analysis: the paper's motivating example verbatim —
// (source-ip, target-ip, port-number, timestamp) connection logs. A
// 4-way PARAFAC decomposition separates the diurnal benign traffic from
// a planted port scan, and the temporal factor localizes *when* the
// attack happened — information the 3-way projection loses.
//
// Run with:
//
//	go run ./examples/intrusion4d
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	haten2 "github.com/haten2/haten2"
	"github.com/haten2/haten2/internal/gen"
)

func main() {
	logs := gen.NewIntrusion4D(gen.IntrusionConfig{
		Seed:        6,
		Sources:     50,
		Targets:     50,
		Ports:       30,
		Background:  900,
		ScanSources: 3,
		ScanTargets: 10,
		ScanPorts:   15,
	}, 24)
	x, err := haten2.WrapTensorN(logs.Tensor)
	if err != nil {
		log.Fatal(err)
	}
	d := x.Dims()
	fmt.Printf("4-way log: %d sources × %d targets × %d ports × %d hours, %d flows\n",
		d[0], d[1], d[2], d[3], x.NNZ())
	fmt.Printf("planted attack window: hours %d–%d\n\n", logs.ScanWindow[0], logs.ScanWindow[1]-1)

	cluster := haten2.NewCluster(haten2.ClusterConfig{Machines: 10})
	const rank = 2
	res, err := haten2.ParafacN(cluster, x, rank, haten2.Options{
		Variant: haten2.DRI, MaxIters: 50, Seed: 8, TrackFit: true, Tol: 1e-8,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("4-way PARAFAC rank %d: fit %.3f after %d iterations\n\n", rank, res.Fit(x), res.Iters)

	// The scan component is the one whose temporal factor is most
	// concentrated (benign traffic covers the whole day).
	timeFactor := res.Factors[3]
	scanComp, bestConc := 0, -1.0
	for r := 0; r < rank; r++ {
		conc := concentration(timeFactor.Col(r))
		fmt.Printf("component %d temporal concentration %.2f\n", r+1, conc)
		if conc > bestConc {
			bestConc, scanComp = conc, r
		}
	}

	// When did it happen? Top hours of the flagged component.
	hours := topK(timeFactor.Col(scanComp), 3)
	fmt.Printf("\ncomponent %d flagged; its activity peaks at hours %v\n", scanComp+1, hours)
	inWindow := 0
	for _, h := range hours {
		if h >= logs.ScanWindow[0] && h < logs.ScanWindow[1] {
			inWindow++
		}
	}
	fmt.Printf("%d of %d peak hours fall inside the planted attack window\n\n", inWindow, len(hours))

	// Who did it? Top sources of the flagged component.
	srcs := topK(res.Factors[0].Col(scanComp), 4)
	planted := map[int64]bool{}
	for _, s := range logs.ScanSources {
		planted[s] = true
	}
	var names []string
	hits := 0
	for _, s := range srcs {
		n := fmt.Sprintf("10.0.0.%d", s)
		if planted[s] {
			n += "*"
			hits++
		}
		names = append(names, n)
	}
	fmt.Printf("top sources: %s (* = planted attacker)\n", strings.Join(names, ", "))
	fmt.Printf("recovered %d of %d attackers\n", hits, len(logs.ScanSources))
}

// concentration is the inverse participation ratio normalized to [0,1]:
// 1 means all mass on one hour.
func concentration(v []float64) float64 {
	var s1, s2 float64
	for _, x := range v {
		if x < 0 {
			x = -x
		}
		s1 += x
		s2 += x * x
	}
	if s1 == 0 {
		return 0
	}
	return s2 / (s1 * s1) * float64(len(v))
}

func topK(v []float64, k int) []int64 {
	idx := make([]int64, len(v))
	for i := range idx {
		idx[i] = int64(i)
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] > v[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	out := append([]int64(nil), idx[:k]...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
