package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// compareMain implements "compare A B": for every workload × metric of two
// set files it prints each side's median and quartiles, the ratio B/A with
// its base, and a verdict against the BENCHMARK.json bound. A metric whose
// spread (quartile distance over median) on either side exceeds the bound
// is "unresolved" unless every B run beats every A run. It exits 1 when
// any metric regressed.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	sp, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := readSet(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readSet(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if compare(w, sp, a, b) {
		return 1
	}
	return 0
}

func readSet(path string) (*set, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s set
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compare prints the comparison table and reports whether any metric
// regressed.
func compare(w io.Writer, sp *spec, a, b *set) (regressed bool) {
	for _, x := range []struct {
		side string
		s    *set
	}{{"A", a}, {"B", b}} {
		fmt.Fprintf(w, "%s: seed %d, %g s runs, %d runs over all workloads, %s\n",
			x.side, x.s.Seed, x.s.Seconds, len(x.s.Runs), x.s.Host)
	}
	fmt.Fprintf(w, "%-12s %-14s %-36s %-36s %-24s %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A (base A median)", "verdict")
	metrics := append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...)
	for _, wl := range sp.Workloads {
		for _, m := range metrics {
			av, bv := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			aq, bq := quartiles(av), quartiles(bv)
			verdict := judge(m, av, bv, aq, bq)
			if verdict == "REGRESSION" {
				regressed = true
			}
			fmt.Fprintf(w, "%-12s %-14s %-36s %-36s %-24s %s\n", wl.Name, m.Name,
				fmtQuartiles(aq, m.Unit), fmtQuartiles(bq, m.Unit),
				fmt.Sprintf("%.4f (%s %s)", ratio(bq[1], aq[1]), fmtNum(aq[1]), m.Unit), verdict)
		}
	}
	return regressed
}

// judge applies the benchmark's rule to one metric. Per-layer metrics
// carry no bound and are only described.
func judge(m specMetric, av, bv []float64, aq, bq [3]float64) string {
	if m.Bound == 0 {
		return "-"
	}
	worse := func(x, y float64) bool { // x worse than y
		if m.Better == "higher" {
			return x < y
		}
		return x > y
	}
	allBetter, allWorse := true, true
	for _, x := range bv {
		for _, y := range av {
			allBetter = allBetter && worse(y, x)
			allWorse = allWorse && worse(x, y)
		}
	}
	spread := max(ratio(aq[2]-aq[0], aq[1]), ratio(bq[2]-bq[0], bq[1]))
	limit := aq[1] * (1 + m.Bound)
	if m.Better == "higher" {
		limit = aq[1] * (1 - m.Bound)
	}
	switch {
	case spread > m.Bound && allBetter:
		return "better (every run)"
	case spread > m.Bound && !allWorse:
		return fmt.Sprintf("unresolved (spread %.1f%% > bound %.1f%%)", 100*spread, 100*m.Bound)
	case worse(bq[1], limit):
		return "REGRESSION"
	default:
		return fmt.Sprintf("within bound %.0f%%", 100*m.Bound)
	}
}

// values collects one metric of one workload over a set's runs.
func (s *set) values(workload, name string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload != workload {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// quartiles returns q1, median and q3 by the same rule as Python's
// statistics.quantiles(values, n=4) (the "exclusive" method), with the
// median as statistics.median gives it.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return [3]float64{q(1), med, q(3)}
}

func fmtQuartiles(q [3]float64, unit string) string {
	return fmt.Sprintf("%s [%s, %s] %s", fmtNum(q[1]), fmtNum(q[0]), fmtNum(q[2]), unit)
}

func fmtNum(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }
