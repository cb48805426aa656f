package main

import (
	"fmt"
	"io"
	"sort"
)

// runRepeat is -repeat N: two sets of N untraced runs per workload, run i
// of each set on seed+i, as the acceptance rule runs them. It prints the
// median and quartiles of every end-to-end metric per set, the spread
// (interquartile range over median) against the bound, and fails when the
// sets' medians disagree by more than the bound or a run is incorrect.
func runRepeat(selected []workloadDef, n int, seed int64, seconds float64, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range selected {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < n; i++ {
				c := &runCtx{seed: seed + int64(i), seconds: seconds, sz: fullSizes}
				res, err := w.run(c)
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
					return 1
				}
				for _, p := range res.problems {
					fmt.Fprintf(stderr, "benchmark: %s seed %d: check failed: %s\n", w.Name, c.seed, p)
					code = 1
				}
				for _, d := range endToEnd {
					sets[s][d.Name] = append(sets[s][d.Name], res.metrics[d.Name])
				}
			}
		}
		fmt.Fprintf(stdout, "# workload=%s repeat=%d seeds=%d..%d seconds=%g\n", w.Name, n, seed, seed+int64(n)-1, seconds)
		fmt.Fprintf(stdout, "%-22s %-4s %12s %12s %12s %8s %8s %6s\n", "metric", "set", "q1", "median", "q3", "spread", "shift", "bound")
		for _, d := range endToEnd {
			var med [2]float64
			for s := range sets {
				q1, q2, q3 := quartiles(sets[s][d.Name])
				med[s] = q2
				shift := 0.0
				if s == 1 {
					// How much worse the second set's median is than the first's.
					shift = ratio(med[1]-med[0], med[0])
					if d.Better == "higher" {
						shift = -shift
					}
				}
				spread := ratio(q3-q1, q2)
				fmt.Fprintf(stdout, "%-22s %-4d %12.6g %12.6g %12.6g %8.4f %8.4f %6.2f\n", d.Name, s+1, q1, q2, q3, spread, shift, d.Bound)
				if shift > d.Bound || (d.Name != "setup_s" && spread > d.Bound) {
					fmt.Fprintf(stderr, "benchmark: %s: %s set %d is outside its bound %.2f (spread %.4f, shift %.4f)\n", w.Name, d.Name, s+1, d.Bound, spread, shift)
					code = 1
				}
			}
		}
	}
	return code
}

// quartiles returns the three cut points statistics.quantiles(xs, n=4)
// gives in Python (the exclusive method), which is how the acceptance
// rule measures spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
