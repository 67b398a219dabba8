package explore

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/split"
	"repro/internal/units"
	"repro/internal/workload"
)

// factoredModels returns the paper-calibrated baseline plus every shipped
// parameter profile, labelled for subtests.
func factoredModels(t *testing.T) map[string]*core.Model {
	t.Helper()
	out := map[string]*core.Model{"baseline": core.Default()}
	paths, err := filepath.Glob(filepath.Join("..", "..", "profiles", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no shipped profiles found under profiles/")
	}
	for _, p := range paths {
		m, err := core.FromParamsFile(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out[filepath.Base(p)] = m
	}
	return out
}

// shippedDesigns loads designs/*.json.
func shippedDesigns(t *testing.T) []*design.Design {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "designs", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no shipped designs: %v", err)
	}
	out := make([]*design.Design, 0, len(paths))
	for _, p := range paths {
		d, err := design.Load(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out = append(out, d)
	}
	return out
}

// Property: the engine's term-factorized evaluation is *exactly* the
// monolithic Embodied + Operational composition — bit-identical floats and
// structurally identical reports — across every shipped design × every grid
// location of the profile × {embodied-only, AV-pipeline} workloads × every
// shipped parameter profile. This is the invariant that keeps golden CSV,
// NDJSON and report outputs byte-identical under the factored cache.
func TestFactoredMatchesMonolithicTotal(t *testing.T) {
	designs := shippedDesigns(t)
	av := workload.AVPipeline(units.TOPS(254))
	eff := units.TOPSPerWatt(2.74)

	for name, m := range factoredModels(t) {
		t.Run(name, func(t *testing.T) {
			e := New(m) // factored path (the default)
			locs := m.GridDB().Locations()
			for _, base := range designs {
				for _, loc := range locs {
					d := *base
					d.UseLocation = loc

					// Monolithic oracle: the two Eq. 1 terms evaluated
					// independently, no caches, fresh resolution each.
					wantEmb, err := m.Embodied(&d)
					if err != nil {
						t.Fatalf("%s@%s: %v", base.Name, loc, err)
					}
					wantOp, err := m.Operational(&d, av, eff)
					if err != nil {
						t.Fatalf("%s@%s: %v", base.Name, loc, err)
					}

					for _, w := range []workload.Workload{{}, av} {
						res, err := e.Evaluate(context.Background(), []Candidate{{
							ID: base.Name, Design: &d, Workload: w, Eff: eff,
						}})
						if err != nil {
							t.Fatal(err)
						}
						r := res[0]
						if r.Err != nil {
							t.Fatalf("%s@%s: %v", base.Name, loc, r.Err)
						}
						if !reflect.DeepEqual(r.Report.Embodied, wantEmb) {
							t.Fatalf("%s@%s: factored embodied report differs", base.Name, loc)
						}
						if w.Throughput <= 0 {
							if r.Report.Operational != nil || r.Report.Total != wantEmb.Total {
								t.Fatalf("%s@%s: embodied-only total %v, want %v",
									base.Name, loc, r.Report.Total, wantEmb.Total)
							}
							continue
						}
						if !reflect.DeepEqual(r.Report.Operational, wantOp) {
							t.Fatalf("%s@%s: factored operational report differs", base.Name, loc)
						}
						if r.Report.Total != wantEmb.Total+wantOp.LifetimeCarbon {
							t.Fatalf("%s@%s: total %v != %v + %v", base.Name, loc,
								r.Report.Total, wantEmb.Total, wantOp.LifetimeCarbon)
						}
					}
				}

				// The whole location sweep shares one embodied term per
				// design: the factored cache must have computed it once.
				st := e.Stats()
				if st.EmbodiedEvaluations+st.EmbodiedCacheHits == 0 {
					t.Fatal("embodied term cache never consulted")
				}
			}
			st := e.Stats()
			if st.EmbodiedEvaluations > uint64(len(designs)) {
				t.Errorf("computed %d embodied terms for %d designs — location sweeps recompute the embodied model",
					st.EmbodiedEvaluations, len(designs))
			}
		})
	}
}

// Satellite pin: two candidates that differ only in labels (design name,
// die names) are one evaluation and one embodied term — labels stay in the
// reports but no longer key the memo.
func TestRenamedDesignsShareEvaluation(t *testing.T) {
	d1, err := split.Mono2D(split.Chip{Name: "alpha", ProcessNM: 7, Gates: 17e9})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := split.Mono2D(split.Chip{Name: "beta", ProcessNM: 7, Gates: 17e9})
	if err != nil {
		t.Fatal(err)
	}
	d2.Dies = append([]design.Die(nil), d2.Dies...)
	for i := range d2.Dies {
		d2.Dies[i].Name = "renamed-" + d2.Dies[i].Name
	}
	if d1.Name == d2.Name || d1.Dies[0].Name == d2.Dies[0].Name {
		t.Fatal("designs must differ in labels for this test")
	}

	w := workload.AVPipeline(units.TOPS(254))
	e := New(core.Default())
	results, err := e.Evaluate(context.Background(), []Candidate{
		{ID: "alpha", Design: d1, Workload: w, Eff: units.TOPSPerWatt(2.74)},
		{ID: "beta", Design: d2, Workload: w, Eff: units.TOPSPerWatt(2.74)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	st := e.Stats()
	if st.Evaluations != 1 {
		t.Errorf("renamed-but-equal candidates computed %d evaluations, want 1", st.Evaluations)
	}
	if st.CacheHits != 1 {
		t.Errorf("expected 1 cache hit, got %d", st.CacheHits)
	}
	if st.EmbodiedEvaluations != 1 {
		t.Errorf("renamed-but-equal candidates computed %d embodied terms, want 1", st.EmbodiedEvaluations)
	}
	if results[0].Report.Total != results[1].Report.Total {
		t.Error("shared evaluation reported different totals")
	}
	// Documented label semantics: the shared report body carries the
	// first-seen labels; candidate identity stays in Result.Candidate.
	if results[1].Report != results[0].Report {
		t.Error("renamed twin did not receive the shared report")
	}
	if got := results[1].Report.Embodied.Design; got != d1.Name {
		t.Errorf("shared report header = %q, want first-seen %q", got, d1.Name)
	}
	if results[0].Candidate.ID != "alpha" || results[1].Candidate.ID != "beta" {
		t.Error("candidate identities must keep the caller's own labels")
	}
}

// floatEqual is bitwise float equality with NaN treated as equal to
// itself (metrics horizons carry NaN years for some verdicts).
func floatEqual(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

func horizonEqual(a, b metrics.Horizon) bool {
	return a.Verdict == b.Verdict && floatEqual(a.Years, b.Years)
}

// The compiled-plan stream (factored, slot-reusing) must reproduce the
// monolithic pipeline result-for-result: same IDs, bit-identical reports
// and decision metrics, same delivery order.
func TestPlannedStreamMatchesMonolithic(t *testing.T) {
	s := streamSpace()
	collect := func(e *Engine) ([]Result, StreamStats) {
		var out []Result
		st, err := e.Stream(context.Background(), s, func(r Result) error {
			out = append(out, r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out, st
	}

	mono := &Engine{Model: core.Default(), Workers: 4, monolithic: true}
	want, monoSt := collect(mono)
	if monoSt.EmbodiedHits != 0 || monoSt.EmbodiedMisses != 0 {
		t.Fatalf("monolithic stream tracked embodied terms: %+v", monoSt)
	}

	for _, workers := range []int{1, 8} {
		fact := &Engine{Model: core.Default(), Workers: workers}
		got, st := collect(fact)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Candidate.ID != w.Candidate.ID {
				t.Fatalf("workers=%d: result %d = %s, want %s", workers, i, g.Candidate.ID, w.Candidate.ID)
			}
			if (g.Err == nil) != (w.Err == nil) {
				t.Fatalf("workers=%d: %s error mismatch: %v vs %v", workers, g.Candidate.ID, g.Err, w.Err)
			}
			if g.Err != nil {
				if g.Err.Error() != w.Err.Error() {
					t.Fatalf("workers=%d: %s error %q, want %q", workers, g.Candidate.ID, g.Err, w.Err)
				}
				continue
			}
			if !reflect.DeepEqual(g.Report, w.Report) {
				t.Fatalf("workers=%d: %s factored report differs from monolithic", workers, g.Candidate.ID)
			}
			if (g.Baseline == nil) != (w.Baseline == nil) {
				t.Fatalf("workers=%d: %s baseline presence differs", workers, g.Candidate.ID)
			}
			if g.Baseline != nil && !reflect.DeepEqual(g.Baseline, w.Baseline) {
				t.Fatalf("workers=%d: %s baseline report differs", workers, g.Candidate.ID)
			}
			if !horizonEqual(g.Tc, w.Tc) || !horizonEqual(g.Tr, w.Tr) ||
				!floatEqual(g.EmbodiedSave, w.EmbodiedSave) || !floatEqual(g.OverallSave, w.OverallSave) {
				t.Fatalf("workers=%d: %s decision metrics differ", workers, g.Candidate.ID)
			}
		}
		if st.EmbodiedMisses == 0 {
			t.Errorf("workers=%d: factored stream computed no embodied terms", workers)
		}
		if st.EmbodiedHits == 0 {
			t.Errorf("workers=%d: factored stream reused no embodied terms on a multi-location space", workers)
		}
	}
}

// StreamStats embodied counters must be exact: misses equal the distinct
// embodied designs of the space, hits account for every other computed
// evaluation, and a re-stream over the warm result cache touches no terms.
func TestStreamEmbodiedCountersExact(t *testing.T) {
	s := Space{
		Name:          "counters",
		NodesNM:       []int{7, 10},
		UseLocations:  []grid.Location{grid.USA, grid.Europe, grid.India},
		LifetimeYears: []float64{5, 10, 15},
	}
	cands, err := s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	for _, c := range cands {
		distinct[EmbodiedKey(c.Design)] = true
		if c.Baseline != nil {
			distinct[EmbodiedKey(c.Baseline)] = true
		}
	}

	e := &Engine{Model: core.Default(), Workers: 4}
	st, err := e.Stream(context.Background(), s, func(Result) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.EmbodiedMisses != len(distinct) {
		t.Errorf("EmbodiedMisses = %d, want %d distinct embodied designs", st.EmbodiedMisses, len(distinct))
	}
	es := e.Stats()
	if got := uint64(st.EmbodiedHits + st.EmbodiedMisses); got != es.Evaluations {
		t.Errorf("hits %d + misses %d != %d computed evaluations",
			st.EmbodiedHits, st.EmbodiedMisses, es.Evaluations)
	}
	if es.EmbodiedEvaluations != uint64(len(distinct)) {
		t.Errorf("engine computed %d embodied terms, want %d", es.EmbodiedEvaluations, len(distinct))
	}

	// Warm re-stream. The scalar oracle answers every total from its memo
	// and touches no term. The kernel stamps every candidate again through
	// a fresh plan whose slots resolve off the warm embodied cache: a hit
	// per computed report, no miss. The space's 24-candidate runs meet
	// the 64-candidate blocks only at lifetime boundaries, so every
	// baseline is its run's own Mono2D candidate: one report per candidate.
	before := e.Stats().Evaluations
	st2, err := e.Stream(context.Background(), s, func(Result) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	wantHits, wantEvals := 0, uint64(0)
	if os.Getenv(ScalarOnlyEnv) == "" {
		wantHits, wantEvals = s.Size(), uint64(s.Size())
	}
	if st2.EmbodiedHits != wantHits || st2.EmbodiedMisses != 0 {
		t.Errorf("warm stream embodied hits/misses %d/%d, want %d/0",
			st2.EmbodiedHits, st2.EmbodiedMisses, wantHits)
	}
	if got := e.Stats().Evaluations - before; got != wantEvals {
		t.Errorf("warm stream computed %d reports, want %d", got, wantEvals)
	}
}
