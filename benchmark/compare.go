package main

import (
	"fmt"
	"io"
	"math"
)

// verdict judges run set b against run set a on one metric, under the
// rule of the choosing-metrics guide: b is worse (better) when its
// median is worse (better) than a's by more than the bound; when either
// side's quartile spread is wider than the bound and the two sets of
// values overlap, the difference cannot be told from noise and the
// metric is unresolved rather than unchanged.
func verdict(a, b metricReport) string {
	if a.Median == 0 || math.IsNaN(a.Median) || math.IsNaN(b.Median) {
		return "unresolved"
	}
	worse := (b.Median - a.Median) / math.Abs(a.Median)
	if a.Better == "higher" {
		worse = -worse
	}
	noisy := math.Max(spread(a.Values), spread(b.Values)) > a.Bound
	if noisy && overlap(a.Values, b.Values) {
		return "unresolved"
	}
	switch {
	case worse > a.Bound:
		return "worse"
	case worse < -a.Bound:
		return "better"
	}
	return "same"
}

// overlap reports whether the ranges of two samples intersect.
func overlap(a, b []float64) bool {
	sa, sb := sorted(a), sorted(b)
	return sa[0] <= sb[len(sb)-1] && sb[0] <= sa[len(sa)-1]
}

// compareFiles prints, for every workload × end-to-end metric present
// in both -out files, both medians with their quartiles, the ratio with
// its base, the bound and the verdict.
func compareFiles(out io.Writer, pathA, pathB string) error {
	ra, err := readReport(pathA)
	if err != nil {
		return err
	}
	rb, err := readReport(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "A = %s (commit %s, %s, %d cpus)\nB = %s (commit %s, %s, %d cpus)\n",
		pathA, ra.Host.Commit, ra.Host.Go, ra.Host.NProc, pathB, rb.Host.Commit, rb.Host.Go, rb.Host.NProc)
	counts := map[string]int{}
	for _, wa := range ra.Workloads {
		for _, wb := range rb.Workloads {
			if wa.Name != wb.Name {
				continue
			}
			fmt.Fprintf(out, "== %s  (failed operations: A %d of %d, B %d of %d; model hashes %s)\n", wa.Name,
				wa.Failed, wa.Attempted, wb.Failed, wb.Attempted, sameOrNot(fmt.Sprint(wa.ModelSHA) == fmt.Sprint(wb.ModelSHA)))
			for _, ma := range wa.EndToEnd {
				for _, mb := range wb.EndToEnd {
					if ma.Name != mb.Name {
						continue
					}
					v := verdict(ma, mb)
					counts[v]++
					fmt.Fprintf(out, "   %-13s A %11.6g [%.6g, %.6g]  B %11.6g [%.6g, %.6g] %-4s B/A %.4f of A's %.6g  bound %2.0f%%  %s\n",
						ma.Name, ma.Median, ma.Q1, ma.Q3, mb.Median, mb.Q1, mb.Q3, ma.Unit,
						mb.Median/ma.Median, ma.Median, 100*ma.Bound, v)
				}
			}
		}
	}
	fmt.Fprintf(out, "better %d, same %d, worse %d, unresolved %d\n",
		counts["better"], counts["same"], counts["worse"], counts["unresolved"])
	return nil
}

func sameOrNot(same bool) string {
	if same {
		return "identical"
	}
	return "DIFFER"
}
