package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// smoke runs one workload at a small scale with every oracle on.
func smoke(t *testing.T, workload string, trace, tamper bool) (result, string, *spec) {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	res, err := runOne(&out, root, sp, config{workload: workload, seed: 1, seconds: 0.3,
		scale: 0.02, trace: trace, tamper: tamper})
	if err != nil {
		t.Fatal(err)
	}
	return res, out.String(), sp
}

// TestEveryMetricIsPrinted runs every workload untraced and traced and
// checks that each BENCHMARK.json metric is printed with its unit, both as
// a "workload metric value unit" line and in the closing JSON result.
func TestEveryMetricIsPrinted(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			name, trace := name, trace
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				t.Parallel()
				res, out, sp := smoke(t, name, trace, false)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out)
				}
				lines := strings.Split(strings.TrimSpace(out), "\n")
				var last result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the JSON result: %v", err)
				}
				printed := map[string]string{}
				for _, line := range lines {
					if f := strings.Fields(line); len(f) == 4 && f[0] == name {
						printed[f[1]] = f[3]
					}
				}
				want := sp.EndToEnd
				if trace {
					want = sp.PerLayer
				}
				if len(last.Metrics) != len(want) {
					t.Errorf("result carries %d metrics, BENCHMARK.json names %d", len(last.Metrics), len(want))
				}
				for _, m := range want {
					if printed[m.Name] != m.Unit {
						t.Errorf("metric %s printed with unit %q, want %q", m.Name, printed[m.Name], m.Unit)
					}
					if got, ok := last.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("metric %s missing from the result or not in %s", m.Name, m.Unit)
					}
					if !trace && last.Metrics[m.Name].Value <= 0 {
						t.Errorf("end-to-end metric %s is %v, want > 0", m.Name, last.Metrics[m.Name].Value)
					}
				}
			})
		}
	}
}

// TestWrongOutputFailsTheRun flips one byte of the first output each
// workload's oracle checks — a job summary, a response body, reducer
// snapshots — and requires the run to report itself incorrect.
func TestWrongOutputFailsTheRun(t *testing.T) {
	for name := range workloads {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if res, out, _ := smoke(t, name, false, true); res.Correct {
				t.Fatalf("a corrupted output passed the oracle\n%s", out)
			}
		})
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4),
// the rule spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{4, 1, 3, 2, 5}, [3]float64{1.5, 3, 4.5}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
