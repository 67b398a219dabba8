// Differential harness for the columnar block kernel: every test here runs
// the same space through the scalar oracle (Engine.ScalarOnly — the
// per-candidate factored path the kernel replaced) and the block path, and
// requires the two result streams to be bit-identical, NaN classes
// included. The kernel has no tolerance budget: it must reproduce the
// scalar path's float operations in the same order.
package explore

import (
	"context"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/ic"
	"repro/internal/metrics"
	"repro/internal/split"
)

// collectStream streams s through e and returns the results in delivery
// (= enumeration) order.
func collectStream(t testing.TB, e *Engine, s Space) ([]Result, StreamStats) {
	t.Helper()
	var out []Result
	st, err := e.Stream(context.Background(), s, func(r Result) error {
		out = append(out, r)
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	return out, st
}

// f64Same is bit-identity relaxed only to one NaN equivalence class.
func f64Same(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) ||
		(math.IsNaN(a) && math.IsNaN(b))
}

func horizonSame(a, b metrics.Horizon) bool {
	return a.Verdict == b.Verdict && f64Same(a.Years, b.Years)
}

func errSame(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

// diffResult returns a description of the first difference between a
// scalar-oracle result and a block-kernel result, or "" when the two are
// bit-identical. Candidate hints (plan-internal slot pointers) are
// excluded: they are per-stream bookkeeping, not output.
func diffResult(scalar, block Result) string {
	switch {
	case scalar.Candidate.ID != block.Candidate.ID:
		return fmt.Sprintf("ID %q vs %q", scalar.Candidate.ID, block.Candidate.ID)
	case !reflect.DeepEqual(scalar.Candidate.Design, block.Candidate.Design):
		return "Candidate.Design differs"
	case !reflect.DeepEqual(scalar.Candidate.Baseline, block.Candidate.Baseline):
		return "Candidate.Baseline differs"
	case scalar.Candidate.Workload != block.Candidate.Workload:
		return fmt.Sprintf("Workload %+v vs %+v", scalar.Candidate.Workload, block.Candidate.Workload)
	case scalar.Candidate.Eff != block.Candidate.Eff:
		return fmt.Sprintf("Eff %v vs %v", scalar.Candidate.Eff, block.Candidate.Eff)
	case !errSame(scalar.Err, block.Err):
		return fmt.Sprintf("Err %v vs %v", scalar.Err, block.Err)
	case !errSame(scalar.BaselineErr, block.BaselineErr):
		return fmt.Sprintf("BaselineErr %v vs %v", scalar.BaselineErr, block.BaselineErr)
	case !reflect.DeepEqual(scalar.Report, block.Report):
		return fmt.Sprintf("Report differs:\nscalar %+v\nblock  %+v", scalar.Report, block.Report)
	case !reflect.DeepEqual(scalar.Baseline, block.Baseline):
		return fmt.Sprintf("Baseline report differs:\nscalar %+v\nblock  %+v", scalar.Baseline, block.Baseline)
	case !horizonSame(scalar.Tc, block.Tc):
		return fmt.Sprintf("Tc %+v vs %+v", scalar.Tc, block.Tc)
	case !horizonSame(scalar.Tr, block.Tr):
		return fmt.Sprintf("Tr %+v vs %+v", scalar.Tr, block.Tr)
	case !f64Same(scalar.EmbodiedSave, block.EmbodiedSave):
		return fmt.Sprintf("EmbodiedSave %x vs %x", scalar.EmbodiedSave, block.EmbodiedSave)
	case !f64Same(scalar.OverallSave, block.OverallSave):
		return fmt.Sprintf("OverallSave %x vs %x", scalar.OverallSave, block.OverallSave)
	}
	return ""
}

// diffSpace streams s through a fresh scalar-oracle engine and a fresh
// block-path engine (both over m, with the given worker count) and fails
// on the first bit difference. It also asserts every candidate of a
// kernel-eligible space actually went through the kernel — a silently
// disabled kernel would make the differential vacuous.
func diffSpace(t testing.TB, m *core.Model, s Space, workers int, wantBlock bool) {
	t.Helper()
	scalarEng := &Engine{Model: m, ScalarOnly: true, Workers: workers}
	blockEng := &Engine{Model: m, Workers: workers}
	want, _ := collectStream(t, scalarEng, s)
	got, st := collectStream(t, blockEng, s)
	if len(want) != len(got) {
		t.Fatalf("space %q: scalar delivered %d results, block %d", s.Name, len(want), len(got))
	}
	if wantBlock && os.Getenv(ScalarOnlyEnv) == "" && st.BlockCandidates != len(got) {
		t.Fatalf("space %q: block kernel evaluated %d of %d candidates", s.Name, st.BlockCandidates, len(got))
	}
	for i := range want {
		if d := diffResult(want[i], got[i]); d != "" {
			t.Fatalf("space %q result %d (%s): %s", s.Name, i, want[i].Candidate.ID, d)
		}
	}
}

// TestBlockKernelMatchesScalar sweeps the kernel's shape edges: runs
// shorter than a block, runs longer than a block, single-axis spaces,
// failing candidates mixed with successes, and multi-worker claims. Every
// shape must be bit-identical to the scalar oracle.
func TestBlockKernelMatchesScalar(t *testing.T) {
	m := core.Default()
	spaces := []Space{
		// Span (15 pairs × 6 years × 8 uses per outer point… run span =
		// pairs × years = 90) longer than one 64-candidate block: runs
		// split across block boundaries.
		fanoutBenchSpace(),
		// Minimal span: one pair, one lifetime, one use — every run is a
		// single candidate.
		{
			Name:         "unit-span",
			Integrations: []ic.Integration{ic.Mono2D},
			NodesNM:      []int{7},
			UseLocations: []grid.Location{grid.USA, grid.Norway},
		},
		// Short runs (span 8 < block 64): several runs per block.
		{
			Name:          "short-runs",
			Strategies:    []split.Strategy{split.HomogeneousStrategy},
			NodesNM:       []int{5, 7, 10},
			UseLocations:  []grid.Location{grid.USA, grid.India},
			LifetimeYears: []float64{1, 10},
		},
		// A design size that fails the wafer limit mixed with one that
		// fits: error rows must flow through the kernel identically.
		{
			Name:          "mixed-failures",
			Strategies:    []split.Strategy{split.HomogeneousStrategy, split.HeterogeneousStrategy},
			Gates:         []float64{17e9, 500e9},
			UseLocations:  []grid.Location{grid.USA, grid.China},
			LifetimeYears: []float64{5, 10},
		},
		// Multiple fab grids: the embodied term varies inside one
		// template, exercising the per-(run,pair) hoist invalidation.
		{
			Name:          "multi-fab",
			Strategies:    []split.Strategy{split.HomogeneousStrategy},
			FabLocations:  []grid.Location{grid.Taiwan, grid.USA, grid.Europe},
			UseLocations:  []grid.Location{grid.USA, grid.Norway},
			LifetimeYears: []float64{3, 10, 15},
		},
		// Non-default workload knobs: throughput/efficiency feed the memo
		// key tail and the stencil completion.
		{
			Name:            "custom-workload",
			Strategies:      []split.Strategy{split.HeterogeneousStrategy},
			UseLocations:    []grid.Location{grid.WorldAverage, grid.Renewable},
			LifetimeYears:   []float64{2.5, 7.5},
			PeakTOPS:        100,
			EfficiencyTOPSW: 1.5,
		},
	}
	for _, s := range spaces {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", s.Name, workers), func(t *testing.T) {
				diffSpace(t, m, s, workers, true)
			})
		}
	}
}

// TestBlockKernelWarmMatchesScalar re-streams a space on warm engines: the
// second pass must be bit-identical too (the scalar oracle answers it from
// its memo, the kernel stamps every candidate afresh), and the warm block
// stream must leave the whole-report memo untouched — no new cache hits,
// no new entries.
func TestBlockKernelWarmMatchesScalar(t *testing.T) {
	m := core.Default()
	s := fanoutBenchSpace()
	scalarEng := &Engine{Model: m, ScalarOnly: true}
	blockEng := &Engine{Model: m}
	collectStream(t, scalarEng, s)
	collectStream(t, blockEng, s)
	cold := blockEng.Stats()

	want, _ := collectStream(t, scalarEng, s)
	got, _ := collectStream(t, blockEng, s)
	for i := range want {
		if d := diffResult(want[i], got[i]); d != "" {
			t.Fatalf("warm result %d (%s): %s", i, want[i].Candidate.ID, d)
		}
	}
	if os.Getenv(ScalarOnlyEnv) != "" {
		return // both engines ran the memoizing oracle; the kernel's memo law is vacuous
	}
	warm := blockEng.Stats()
	if warm.CacheHits != cold.CacheHits || warm.CacheEntries != cold.CacheEntries {
		t.Errorf("warm block stream touched the memo: hits %d → %d, entries %d → %d",
			cold.CacheHits, warm.CacheHits, cold.CacheEntries, warm.CacheEntries)
	}
}

// kernelEvaluations derives, from the layout of a space whose candidates
// all evaluate, how many reports a block-kernel stream computes: one per
// candidate, plus one 2D baseline per (window piece, lifetime) whose
// Mono2D candidate lies outside the piece while some candidate that needs
// the baseline lies inside it. Windows are the streamBlock-aligned blocks,
// cut at run boundaries; mono is the Mono2D pair index (-1 when the space
// has none, so every lifetime of every piece stamps its own baseline).
func kernelEvaluations(d Dims, mono int) int {
	span := d.Pairs * d.Years
	n := d.Size()
	evals := n
	for ws := 0; ws < n; ws += streamBlock {
		we := min(ws+streamBlock, n)
		for ps := ws; ps < we; {
			run := ps / span
			pe := min(we, (run+1)*span)
			for yi := 0; yi < d.Years; yi++ {
				seg := run*span + yi*d.Pairs // first candidate of this lifetime
				needs, monoIn := false, false
				for pi := 0; pi < d.Pairs; pi++ {
					if i := seg + pi; i >= ps && i < pe {
						if pi == mono {
							monoIn = true
						} else {
							needs = true
						}
					}
				}
				if needs && !monoIn {
					evals++
				}
			}
			ps = pe
		}
	}
	return evals
}

// TestBlockKernelCounterLaws pins the kernel's counter algebra on a cold
// engine. The kernel stamps every candidate without the memo, so its
// Evaluations are the candidates plus the baselines stamped outside their
// Mono2D candidate's window (kernelEvaluations), where the memoizing
// scalar oracle computes one per distinct key. Both resolve one embodied
// term per computed report — hits + misses = evaluations — and miss
// exactly once per distinct embodied design. The kernel-specific counters
// are consistent with the space shape.
func TestBlockKernelCounterLaws(t *testing.T) {
	if os.Getenv(ScalarOnlyEnv) != "" {
		t.Skipf("%s set: kernel forced off, counter laws vacuous", ScalarOnlyEnv)
	}
	s := fanoutBenchSpace()
	scalarEng := &Engine{Model: core.Default(), ScalarOnly: true}
	blockEng := &Engine{Model: core.Default()}
	_, scalarSt := collectStream(t, scalarEng, s)
	_, blockSt := collectStream(t, blockEng, s)
	it, err := s.Iter()
	if err != nil {
		t.Fatal(err)
	}
	// The fanout space lists Mono2D first, so its pair index is 0.
	wantEvals := kernelEvaluations(it.Dims(), 0)
	ses, bes := scalarEng.Stats(), blockEng.Stats()
	if ses.Evaluations != uint64(s.Size()) {
		t.Errorf("scalar evaluations %d, want %d distinct keys", ses.Evaluations, s.Size())
	}
	if bes.Evaluations != uint64(wantEvals) {
		t.Errorf("block evaluations %d, want %d (%d candidates + %d baselines outside their Mono2D window)",
			bes.Evaluations, wantEvals, s.Size(), wantEvals-s.Size())
	}
	if scalarSt.EmbodiedMisses != s.Designs() || blockSt.EmbodiedMisses != s.Designs() {
		t.Errorf("embodied misses: scalar %d, block %d, want %d distinct embodied designs",
			scalarSt.EmbodiedMisses, blockSt.EmbodiedMisses, s.Designs())
	}
	if got := uint64(scalarSt.EmbodiedHits + scalarSt.EmbodiedMisses); got != ses.Evaluations {
		t.Errorf("scalar embodied hits %d + misses %d != %d evaluations",
			scalarSt.EmbodiedHits, scalarSt.EmbodiedMisses, ses.Evaluations)
	}
	if got := uint64(blockSt.EmbodiedHits + blockSt.EmbodiedMisses); got != bes.Evaluations {
		t.Errorf("block embodied hits %d + misses %d != %d evaluations",
			blockSt.EmbodiedHits, blockSt.EmbodiedMisses, bes.Evaluations)
	}
	// The kernel never probes or fills the whole-report memo.
	if bes.CacheHits != 0 || bes.CacheEntries != 0 {
		t.Errorf("block stream touched the memo: hits=%d entries=%d", bes.CacheHits, bes.CacheEntries)
	}
	if bes.BlockCandidates != uint64(blockSt.BlockCandidates) || blockSt.BlockCandidates != s.Size() {
		t.Errorf("block candidates %d (stream %d), want %d", bes.BlockCandidates, blockSt.BlockCandidates, s.Size())
	}
	if bes.BlockRuns == 0 || bes.BlockStencils == 0 {
		t.Errorf("kernel counters empty: runs=%d stencils=%d", bes.BlockRuns, bes.BlockStencils)
	}
	if sbs := scalarEng.Stats(); sbs.BlockCandidates != 0 {
		t.Errorf("scalar oracle engine evaluated %d candidates through the kernel", sbs.BlockCandidates)
	}
}

// TestBlockKernelBaselineReuse covers the pair orders the default spaces
// do not: Mono2D listed last, so a window stamps a lifetime's Mono2D
// candidate ahead of the candidates before it that take it as their
// baseline, and no Mono2D pair at all, so every baseline is stamped on its
// own. Both must stay bit-identical to the scalar oracle (wafer failures
// included), and, where every candidate evaluates, compute exactly the
// reports kernelEvaluations derives, with one embodied lookup per report
// and the oracle's misses.
func TestBlockKernelBaselineReuse(t *testing.T) {
	m := core.Default()
	uses := []grid.Location{grid.USA, grid.India, grid.Norway}
	years := []float64{1, 3, 5, 10, 15}
	strats := []split.Strategy{split.HomogeneousStrategy, split.HeterogeneousStrategy}
	cases := []struct {
		s    Space
		mono int
	}{
		{Space{Name: "mono2d-last", Strategies: strats, NodesNM: []int{5, 7}, UseLocations: uses, LifetimeYears: years,
			Integrations: []ic.Integration{ic.Hybrid3D, ic.MCM, ic.EMIB, ic.Mono2D}}, 3},
		{Space{Name: "no-mono2d", Strategies: strats, NodesNM: []int{5, 7}, UseLocations: uses, LifetimeYears: years,
			Integrations: []ic.Integration{ic.Hybrid3D, ic.SiInterposer}}, -1},
	}
	for _, tc := range cases {
		failing := tc.s
		failing.Name += "-failures"
		failing.Gates = []float64{17e9, 500e9}
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.s.Name, workers), func(t *testing.T) {
				diffSpace(t, m, tc.s, workers, true)
				diffSpace(t, m, failing, workers, true)
				if os.Getenv(ScalarOnlyEnv) != "" {
					return // the count law is the kernel's
				}
				it, err := tc.s.Iter()
				if err != nil {
					t.Fatal(err)
				}
				scalarEng := &Engine{Model: m, ScalarOnly: true, Workers: workers}
				blockEng := &Engine{Model: m, Workers: workers}
				_, scalarSt := collectStream(t, scalarEng, tc.s)
				_, blockSt := collectStream(t, blockEng, tc.s)
				evals := blockEng.Stats().Evaluations
				if want := kernelEvaluations(it.Dims(), tc.mono); evals != uint64(want) {
					t.Errorf("block evaluations %d, want %d for %d candidates", evals, want, tc.s.Size())
				}
				if got := uint64(blockSt.EmbodiedHits + blockSt.EmbodiedMisses); got != evals {
					t.Errorf("embodied hits %d + misses %d != %d evaluations",
						blockSt.EmbodiedHits, blockSt.EmbodiedMisses, evals)
				}
				if blockSt.EmbodiedMisses != scalarSt.EmbodiedMisses {
					t.Errorf("embodied misses: block %d, scalar %d", blockSt.EmbodiedMisses, scalarSt.EmbodiedMisses)
				}
			})
		}
	}
}

// TestScalarOnlyEnvForcesOracle pins the CI escape hatch: with
// EXPLORE_SCALAR set, a default engine takes the scalar path.
func TestScalarOnlyEnvForcesOracle(t *testing.T) {
	t.Setenv(ScalarOnlyEnv, "1")
	e := &Engine{Model: core.Default()}
	_, st := collectStream(t, e, Space{Name: "env", UseLocations: []grid.Location{grid.USA, grid.Norway}})
	if st.BlockCandidates != 0 {
		t.Fatalf("%s set but %d candidates went through the kernel", ScalarOnlyEnv, st.BlockCandidates)
	}
}

// fuzzLocations is the pool FuzzBlockVsScalar draws grids from.
var fuzzLocations = []grid.Location{
	grid.USA, grid.Europe, grid.India, grid.China, grid.Taiwan,
	grid.California, grid.Norway, grid.WorldAverage, grid.Renewable,
}

// pickBits selects the pool entries whose bit is set in mask (mod pool
// size), preserving pool order; an empty selection yields nil (axis
// default).
func pickBits[T any](pool []T, mask uint16) []T {
	var out []T
	for i := range pool {
		if mask&(1<<uint(i%16)) != 0 {
			out = append(out, pool[i])
		}
	}
	return out
}

// FuzzBlockVsScalar is the differential fuzz target: an arbitrary space
// shape — axis subsets, design sizes, workload knobs, worker count — must
// produce bit-identical result streams through the scalar oracle and the
// block kernel. The seed corpus in testdata/fuzz/FuzzBlockVsScalar pins
// the shape edges (unit spans, block-boundary spans, wafer failures).
func FuzzBlockVsScalar(f *testing.F) {
	f.Add(uint16(3), uint16(3), uint16(7), uint16(3), uint16(1), uint8(30), uint8(100), uint8(2), uint8(1))
	f.Add(uint16(1), uint16(1), uint16(1), uint16(1), uint16(1), uint8(17), uint8(254), uint8(27), uint8(0))
	f.Add(uint16(3), uint16(3), uint16(511), uint16(63), uint16(3), uint8(17), uint8(254), uint8(27), uint8(4))
	f.Add(uint16(2), uint16(7), uint16(5), uint16(9), uint16(2), uint8(200), uint8(50), uint8(10), uint8(2))
	f.Add(uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), uint8(0), uint8(0), uint8(0), uint8(0))
	m := core.Default()
	nodesPool := []int{5, 7, 10, 14}
	stratPool := []split.Strategy{split.HomogeneousStrategy, split.HeterogeneousStrategy}
	yearsPool := []float64{1, 2.5, 5, 7, 10, 15}
	gatesPool := []float64{1e9, 17e9, 60e9, 500e9}
	f.Fuzz(func(t *testing.T, stratMask, nodesMask, useMask, yearsMask, gatesMask uint16,
		gatesGB, peakTOPS, effDeci, workers uint8) {
		s := Space{
			Name:          "fuzz",
			Strategies:    pickBits(stratPool, stratMask),
			NodesNM:       pickBits(nodesPool, nodesMask),
			Gates:         pickBits(gatesPool, gatesMask),
			UseLocations:  pickBits(fuzzLocations, useMask),
			LifetimeYears: pickBits(yearsPool, yearsMask),
			// Extra scalar knobs: gatesGB adds one more design size (in
			// billions of gates); peak/eff perturb the workload.
			PeakTOPS:        float64(peakTOPS),
			EfficiencyTOPSW: float64(effDeci) / 10,
		}
		if gatesGB > 0 {
			s.Gates = append(s.Gates, float64(gatesGB)*1e9)
		}
		if s.Size() > 4096 {
			t.Skip("space too large for a fuzz iteration")
		}
		diffSpace(t, m, s, int(workers%8), false)
	})
}

// TestBlockAllocsPerCandidateBounded gates the kernel's steady-state
// allocation rate: a cold planned stream through the block path must stay
// under one allocation per candidate — the whole point of the slab/arena
// design (the scalar path costs several per candidate). The bound covers
// everything: engine construction, plan compilation, memo inserts, result
// delivery.
func TestBlockAllocsPerCandidateBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	if os.Getenv(ScalarOnlyEnv) != "" {
		t.Skipf("%s set: measuring the scalar fallback, not the kernel", ScalarOnlyEnv)
	}
	m := core.Default()
	s := fanoutBenchSpace()
	n := float64(s.Size())
	perCand := testing.AllocsPerRun(5, func() {
		e := &Engine{Model: m, Workers: 1}
		if _, err := e.Stream(context.Background(), s, func(Result) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}) / n
	t.Logf("block path: %.3f allocs/candidate over %d candidates", perCand, s.Size())
	if perCand > 1.0 {
		t.Errorf("block path allocates %.3f per candidate, want ≤ 1.0", perCand)
	}
}
