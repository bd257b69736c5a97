package main

import (
	"fmt"
	"io"
	"sort"
)

// exactCounters must be identical in every run of one (workload, seed): they
// are counts made by the packages under test on deterministic inputs.
var exactCounters = []string{
	"sim.events", "netem.pkt_hops", "cc.sent_pkts", "core.decisions",
	"serve.cache_hits", "serve.cache_misses",
}

// runCheck compares two sets of untraced runs, A (the parent, or the first
// set) and B (the change, or the second set). For every end-to-end metric on
// every workload it prints both medians, the spread of each set (distance
// between quartiles over the median) and the bound, with a verdict:
//
//	ok          B's median is not worse than A's by more than the bound
//	regressed   it is, and the spreads are within the bound
//	unresolved  it is, or might be, but a spread is wider than the bound
//
// It exits non-zero on any regression, any failed operation, or an exact
// counter that differs between runs of one seed.
func runCheck(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	type key struct{ workload, metric string }
	collect := func(results []*result) (map[key][]float64, int) {
		values, failed := make(map[key][]float64), 0
		for _, res := range results {
			failed += res.Failed
			if res.Trace {
				continue
			}
			for name, m := range res.Metrics {
				k := key{res.Workload, name}
				values[k] = append(values[k], m.Value)
			}
		}
		return values, failed
	}
	va, failedA := collect(a)
	vb, failedB := collect(b)

	bad := 0
	fmt.Fprintf(stdout, "%-12s %-12s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "B worse", "spread A", "spread B", "bound", "verdict")
	for _, w := range workloadTable {
		for _, d := range endToEnd {
			k := key{w.name, d.Name}
			if len(va[k]) == 0 || len(vb[k]) == 0 {
				continue
			}
			ma, mb := median(va[k]), median(vb[k])
			worse := (mb - ma) / ma // positive = B is worse
			if d.Better == "higher" {
				worse = (ma - mb) / ma
			}
			sa, sb := spread(va[k]), spread(vb[k])
			verdict := "ok"
			switch {
			case max(sa, sb) > d.Bound && !allBetter(va[k], vb[k], d.Better):
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
				bad++
			}
			fmt.Fprintf(stdout, "%-12s %-12s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				w.name, d.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*d.Bound, verdict)
		}
	}

	for _, diff := range counterDiffs(append(a, b...)) {
		fmt.Fprintln(stdout, "counter differs:", diff)
		bad++
	}
	if failedA+failedB > 0 {
		fmt.Fprintf(stdout, "failed operations: %d in A, %d in B\n", failedA, failedB)
		bad++
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

// allBetter reports whether every run of B reads better than every run of A,
// the one case where a spread wider than the bound still settles a metric.
func allBetter(a, b []float64, better string) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// counterDiffs lists every exact counter that reads differently in two runs
// of the same workload, seed, size and length.
func counterDiffs(results []*result) []string {
	type key struct {
		workload, size, counter string
		seed                    int64
		seconds                 int
	}
	seen := make(map[key]int64)
	var diffs []string
	for _, res := range results {
		for _, name := range exactCounters {
			v, ok := res.Counters[name]
			if !ok {
				continue
			}
			k := key{res.Workload, res.Size, name, res.Seed, res.Seconds}
			if prev, dup := seen[k]; dup && prev != v {
				diffs = append(diffs, fmt.Sprintf("%s seed %d: %s is %d in one run and %d in another", res.Workload, res.Seed, name, prev, v))
			}
			seen[k] = v
		}
	}
	sort.Strings(diffs)
	return diffs
}
