package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
)

// compareMain applies the end-to-end bounds to every (metric, workload)
// pair of two records, A the base and B the candidate, and prints one row
// per pair. It exits 2 when the records were taken with different
// settings, 1 when a pair regressed, and 0 otherwise.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			return 2
		}
	}
	if diffs := envDiffs(recs[0].Env, recs[1].Env); len(diffs) > 0 {
		fmt.Fprintln(os.Stderr, "compare: refusing to compare records taken with different settings:")
		for _, d := range diffs {
			fmt.Fprintln(os.Stderr, "  "+d)
		}
		return 2
	}
	rows, regressed := compareRecords(&recs[0], &recs[1])
	fmt.Fprintf(w, "%-11s %-17s %12s %23s %12s %23s %8s  %s\n", "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "change", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %-17s %12.4f %11.4f..%-11.4f %12.4f %11.4f..%-11.4f %+7.1f%%  %s\n",
			r.workload, r.metric, r.a.Median, r.a.Q1, r.a.Q3, r.b.Median, r.b.Q1, r.b.Q3, r.change*100, r.verdict)
	}
	if regressed {
		return 1
	}
	return 0
}

// envDiffs names every setting two records differ in. The revision is
// the one thing a comparison is expected to change.
func envDiffs(a, b env) []string {
	var out []string
	check := func(name string, x, y any) {
		if !reflect.DeepEqual(x, y) {
			out = append(out, fmt.Sprintf("%s: %v vs %v", name, x, y))
		}
	}
	check("nproc", a.NumCPU, b.NumCPU)
	check("GOMAXPROCS", a.GOMAXPROCS, b.GOMAXPROCS)
	check("fleet GOMAXPROCS", a.FleetProcs, b.FleetProcs)
	check("CPU model", a.CPU, b.CPU)
	check("Go version", a.Go, b.Go)
	check("run settings (seed, seconds, rounds, trace)", a.runConfig, b.runConfig)
	check("workload specs (work sizes, rates, limits)", a.Specs, b.Specs)
	check("hot pool", [2]float64{float64(a.PoolSize), a.Zipf}, [2]float64{float64(b.PoolSize), b.Zipf})
	return out
}

type compareRow struct {
	workload, metric string
	a, b             *summary
	change           float64 // (B - A) / A
	verdict          string
}

// compareRecords judges each pair. A pair is unresolved when either
// record's estimated run-to-run spread is wider than the bound, unless
// every round of B reads better than every round of A, or every one worse.
func compareRecords(a, b *record) ([]compareRow, bool) {
	var rows []compareRow
	regressed := false
	for _, wa := range a.Workloads {
		var wb *workloadRecord
		for _, x := range b.Workloads {
			if x.Name == wa.Name {
				wb = x
			}
		}
		if wb == nil {
			continue
		}
		for _, m := range endToEnd {
			sa, sb := wa.Metrics[m.Name], wb.Metrics[m.Name]
			if sa == nil || sb == nil {
				continue
			}
			r := compareRow{workload: wa.Name, metric: m.Name, a: sa, b: sb}
			if sa.Median != 0 {
				r.change = (sb.Median - sa.Median) / math.Abs(sa.Median)
			}
			worse := r.change
			if m.Better == "higher" {
				worse = -worse
			}
			allBetter, allWorse := dominates(sb.Rounds, sa.Rounds, m.Better), dominates(sa.Rounds, sb.Rounds, m.Better)
			switch {
			case allWorse && worse > m.Bound:
				r.verdict = "regressed"
			case allBetter && -worse > m.Bound:
				r.verdict = "improved"
			case sa.spread() > m.Bound || sb.spread() > m.Bound:
				r.verdict = "unresolved"
			case worse > m.Bound:
				r.verdict = "regressed"
			case -worse > m.Bound:
				r.verdict = "improved"
			default:
				r.verdict = "within bound"
			}
			if r.verdict == "regressed" {
				regressed = true
			}
			rows = append(rows, r)
		}
	}
	return rows, regressed
}

// dominates reports whether every value of x reads better than every
// value of y.
func dominates(x, y []float64, better string) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	for _, a := range x {
		for _, b := range y {
			if better == "higher" && a <= b || better == "lower" && a >= b {
				return false
			}
		}
	}
	return true
}
