// The columnar block evaluation kernel: planned space streams are evaluated
// run-by-run instead of candidate-by-candidate. A run is a maximal span of
// consecutive candidates sharing one outer axis point (gates×node template,
// fab, use location) — within it only the lifetime and (strategy,
// integration) pair advance, so the kernel hoists everything else out of
// the inner loop:
//
//   - the design slab and embodied sub-keys (shared with the scalar decode),
//   - the use grid's carbon intensity (one lookup per run, not per
//     candidate),
//   - the whole operational prefix — bandwidth verdict, compute/IO power,
//     annual energy — compiled once per (template, fab) into a shared
//     core.OperationalStencil plan slot,
//   - the per-pair annual carbon and the Eq. 2 decision metrics, which are
//     lifetime-invariant.
//
// What remains per candidate is a stencil stamp (one struct copy plus the
// annual×years product) and the ID string. The kernel never reads or
// writes the whole-report memo cache: inside one planned space every index
// is a distinct candidate, so a probe could only hit on the 2D baseline —
// and the baseline is the run's own Mono2D candidate whenever that
// candidate lies in the window being evaluated. The scalar path
// (evaluateOne) is preserved intact as the memoizing bit-exactness oracle:
// stamped reports are produced by the same floating-point program
// (core.finishOperational both ways), and FuzzBlockVsScalar /
// TestBlockKernelMatchesScalar pin the equivalence.
package explore

import (
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/ic"
	"repro/internal/metrics"
	"repro/internal/units"
	"repro/internal/workload"
)

// ScalarOnlyEnv is the environment variable that forces the scalar
// fallback process-wide (any non-empty value): planned streams take the
// per-candidate oracle path instead of the columnar kernel. CI runs the
// explore suite once under it so the oracle cannot rot.
const ScalarOnlyEnv = "EXPLORE_SCALAR"

// stencilSlot is one resolve-once operational stencil of a compiled plan,
// shared by every candidate with the same (gates×node template, fab)
// design under the stream's workload profile. Like embodied slots, stencil
// slots are scoped to one stream call.
type stencilSlot struct {
	once sync.Once
	st   *core.OperationalStencil
	err  error
}

// blockPlan returns the compiled plan when the columnar kernel should
// drive this stream: the source is a planned space iterator, the engine is
// factored (monolithic engines are the pre-factorization baseline), and
// neither the ScalarOnly field nor the EXPLORE_SCALAR environment asks for
// the oracle path. Embodied-only spaces (no throughput) fall back to the
// scalar path, which owns that mode.
func (e *Engine) blockPlan(src Source) *iterPlan {
	if e.monolithic || e.ScalarOnly || os.Getenv(ScalarOnlyEnv) != "" {
		return nil
	}
	p, ok := src.(*iterPlan)
	if !ok || len(p.it.pairs) == 0 || p.it.base.Throughput <= 0 {
		return nil
	}
	return p
}

// evalBlock evaluates candidates [start, end) of plan p through the
// kernel, appending one Result per candidate to results in enumeration
// order. Returns false when the stream was cancelled mid-block.
func (e *Engine) evalBlock(p *iterPlan, cu *spaceCursor, bs *blockState,
	start, end int, tc *termCounters, stop *atomic.Bool, results []Result) ([]Result, bool) {
	it := p.it
	spanLen := len(it.pairs) * len(it.years)
	for s := start; s < end; {
		outer := s / spanLen
		runEnd := (outer + 1) * spanLen
		if runEnd > end {
			runEnd = end
		}
		var ok bool
		results, ok = e.evalRun(p, cu, bs, outer, s, runEnd, tc, stop, results)
		if !ok {
			return results, false
		}
		s = runEnd
	}
	return results, true
}

// evalRun evaluates one run — candidates [start, end) inside outer point
// `outer` — in three passes: decode the lifetime/pair columns, stamp a
// report per candidate, then fill the decision metrics as a tight loop over
// the columns.
func (e *Engine) evalRun(p *iterPlan, cu *spaceCursor, bs *blockState,
	outer, start, end int, tc *termCounters, stop *atomic.Bool, results []Result) ([]Result, bool) {
	it := p.it
	P := len(it.pairs)
	ui := outer % len(it.uses)
	fi := (outer / len(it.uses)) % len(it.fabs)
	gn := outer / (len(it.uses) * len(it.fabs))
	fab, use := cu.ensureOuter(gn, fi, ui)

	bs.resetRun()
	var rc runCtx
	rc.useCI, rc.useErr = e.Model.GridDB().Intensity(use)

	n := end - start
	e.blockRuns.Add(1)
	e.blockCands.Add(uint64(n))
	tc.block.Add(uint64(n))
	defer e.flushCounters(bs, tc)

	// Pass 1: decode the axis columns and render every ID of the run into
	// one buffer — the run prefix (chip/fab>use/) plus the plan's
	// precompiled (pair, lifetime) tail per candidate. The buffer becomes
	// a single string and each ID a substring view of it: one allocation
	// per run instead of one per candidate, bytes identical to cu.id.
	rel0 := start - outer*(P*len(it.years))
	chip := it.chipNames[gn]
	b := append(bs.idBuf[:0], chip...)
	b = append(b, '/')
	b = append(b, fab...)
	b = append(b, '>')
	b = append(b, use...)
	b = append(b, '/')
	preLen := len(b)
	pre := b[:preLen]
	b = b[:0]
	for pi, yi, j := rel0%P, rel0/P, 0; j < n; j++ {
		bs.years = append(bs.years, it.years[yi])
		bs.pi = append(bs.pi, int32(pi))
		bs.offs = append(bs.offs, int32(len(b)))
		b = append(b, pre...)
		b = append(b, p.idTails[yi*P+pi]...)
		if pi++; pi == P {
			pi, yi = 0, yi+1
		}
	}
	bs.offs = append(bs.offs, int32(len(b)))
	ids := string(b)
	bs.idBuf = b[:0]

	// The 2D baseline at lifetime yi is the same evaluation as the run's
	// Mono2D candidate at yi (their templates differ only by pointer), so
	// the Mono2D candidates of this window are stamped first and serve as
	// the baselines of their lifetimes. A lifetime whose Mono2D candidate
	// lies outside the window stamps its baseline lazily in pass 2.
	baseD := &cu.designs[P]
	if pm := bs.mono; pm >= 0 {
		hint := termHint{slot: p.slot(gn, fi, pm), key: cu.embKey(pm), keyed: true}
		for yi := rel0 / P; yi*P+pm < rel0+n; yi++ {
			if yi*P+pm < rel0 {
				continue
			}
			w := it.base
			w.LifetimeYears = it.years[yi]
			bs.baseRep[yi], bs.baseErr[yi] = e.stamp(&cu.designs[pm], w, it.eff, hint, tc, &rc,
				p.stencilSlot(gn, fi, pm), &bs.preps[pm], bs)
			bs.baseSet[yi] = true
		}
	}

	// Pass 2: evaluate. One stencil stamp per candidate; embodied term,
	// operational stencil, use intensity, baseline report and
	// decision-metric inputs all resolve at most once per run (or per plan,
	// for the shared slots). Results are built in place in the output
	// slice — no per-candidate Result copy — and IDs are substring views of
	// the run's one ids string.
	base := len(results)
	for j := 0; j < n; j++ {
		if stop.Load() {
			return results, false
		}
		pi := int(bs.pi[j])
		yi := (rel0 + j) / P
		years := bs.years[j]
		pair := it.pairs[pi]
		w := it.base
		w.LifetimeYears = years

		results = append(results, Result{})
		r := &results[len(results)-1]
		r.Candidate.ID = ids[bs.offs[j]:bs.offs[j+1]]
		r.Candidate.Design = &cu.designs[pi]
		r.Candidate.Workload = w
		r.Candidate.Eff = it.eff
		r.Candidate.hint = termHint{slot: p.slot(gn, fi, pi), key: cu.embKey(pi), keyed: true}
		isBase := pair.integ == ic.Mono2D
		if !isBase {
			r.Candidate.Baseline = baseD
			r.Candidate.baseHint = termHint{slot: p.slot(gn, fi, P), key: cu.embKey(P), keyed: true}
		}

		pp := &bs.preps[pi]
		var rep *core.TotalReport
		var err error
		if pi == bs.mono {
			rep, err = bs.baseRep[yi], bs.baseErr[yi] // stamped above
		} else {
			rep, err = e.stamp(r.Candidate.Design, w, it.eff, r.Candidate.hint, tc, &rc,
				p.stencilSlot(gn, fi, pi), pp, bs)
		}
		if err != nil {
			r.Err = err
			continue
		}
		r.Report = rep
		if isBase {
			continue
		}

		// A baseline outside its Mono2D candidate's window, stamped once
		// per (run, lifetime) — exactly when the first candidate needing
		// it succeeds, as the scalar path evaluates it.
		if !bs.baseSet[yi] {
			bs.baseRep[yi], bs.baseErr[yi] = e.stamp(baseD, w, it.eff,
				r.Candidate.baseHint, tc, &rc, p.stencilSlot(gn, fi, P), &bs.preps[P], bs)
			bs.baseSet[yi] = true
		}
		if berr := bs.baseErr[yi]; berr != nil {
			r.BaselineErr = berr
			continue
		}
		baseRep := bs.baseRep[yi]
		r.Baseline = baseRep

		if !pp.metricsDone {
			// Every Eq. 2 input is lifetime-invariant, so the first
			// successful pair of reports fixes the run's metrics.
			pp.metricsDone = true
			pp.cmpOK = true
			pp.embB = baseRep.Embodied.Total.Kg()
			pp.embC = rep.Embodied.Total.Kg()
			pp.annB = baseRep.Operational.AnnualCarbon.Kg()
			pp.annC = rep.Operational.AnnualCarbon.Kg()
			pp.embSave = 1 - pp.embC/pp.embB
			cmp := metrics.Comparison{
				EmbodiedBaseline:  baseRep.Embodied.Total,
				EmbodiedCandidate: rep.Embodied.Total,
				AnnualOpBaseline:  baseRep.Operational.AnnualCarbon,
				AnnualOpCandidate: rep.Operational.AnnualCarbon,
			}
			if h, err := metrics.Choosing(cmp); err == nil {
				pp.tcH = h
			}
			if h, err := metrics.Replacing(cmp); err == nil {
				pp.trH = h
			}
		}
	}

	// Pass 3: decision metrics as a tight loop over the columns. The
	// per-pair terms are hoisted; only the OverallSave ratio varies per
	// candidate, through the lifetime column — the same expressions
	// metrics.Comparison evaluates, on the same operands.
	res := results[base : base+n]
	for j := 0; j < n; j++ {
		r := &res[j]
		if r.Err != nil || r.Baseline == nil {
			continue
		}
		pp := &bs.preps[bs.pi[j]]
		if !pp.cmpOK {
			continue
		}
		y := bs.years[j]
		r.EmbodiedSave = pp.embSave
		r.OverallSave = 1 - (pp.embC+pp.annC*y)/(pp.embB+pp.annB*y)
		r.Tc = pp.tcH
		r.Tr = pp.trH
	}
	return results, true
}

// flushCounters folds a run's locally batched counter increments into the
// engine's shared atomics and the stream's term counters. Totals at stream
// completion are identical to per-candidate increments; only mid-stream
// Stats() snapshots coarsen to run granularity.
func (e *Engine) flushCounters(bs *blockState, tc *termCounters) {
	if bs.evals > 0 {
		e.evals.Add(bs.evals)
		bs.evals = 0
	}
	if bs.stencils > 0 {
		e.blockStencils.Add(bs.stencils)
		bs.stencils = 0
	}
	if bs.embHits > 0 {
		e.embHits.Add(bs.embHits)
		tc.hits.Add(bs.embHits)
		bs.embHits = 0
	}
}

// stamp computes one report through the stencil-stamp path into the
// worker's arena. It writes no memo entry: besides the worker's own
// scratch, it only resolves the plan's resolve-once embodied and stencil
// slots. Error ordering matches the scalar path exactly: embodied term,
// then workload validation, then the use-grid lookup, then the
// (stenciled) operational prefix.
func (e *Engine) stamp(d *design.Design, w workload.Workload, eff units.Efficiency,
	hint termHint, tc *termCounters, rc *runCtx, ss *stencilSlot,
	pp *pairPrep, bs *blockState) (*core.TotalReport, error) {
	bs.evals++
	if !pp.erOK {
		pp.er, pp.erErr = e.embodiedFor(d, hint, tc)
		pp.erOK = true
	} else {
		// Reusing the run's resolved term: exactly the hit embodiedFor
		// would have counted, batched for the run flush.
		bs.embHits++
	}
	if pp.erErr != nil {
		return nil, pp.erErr
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if rc.useErr != nil {
		return nil, rc.useErr
	}
	ss.once.Do(func() {
		bs.stencils++
		ss.st, ss.err = e.Model.OperationalStencilFrom(pp.er, d, w, eff)
	})
	if ss.err != nil {
		return nil, ss.err
	}
	if !pp.annualOK {
		pp.annual = ss.st.AnnualCarbon(rc.useCI)
		pp.annualOK = true
	}
	pr := bs.arena.next()
	lifetime := units.KilogramsCO2(pp.annual.Kg() * w.LifetimeYears)
	ss.st.Complete(&pr.t, &pr.o, pp.annual, lifetime)
	return &pr.t, nil
}
