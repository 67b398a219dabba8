// Struct-of-arrays slabs for the columnar block kernel (block.go): one
// blockState per worker holds every piece of per-block scratch — decoded
// axis columns, per-pair hoisted terms, per-lifetime baseline state and the
// report arena — reused block after block so the kernel's steady-state
// allocation rate is O(1) per block, not O(1) per candidate.
package explore

import (
	"repro/internal/core"
	"repro/internal/ic"
	"repro/internal/metrics"
	"repro/internal/units"
)

// pairedReport is the stamped form of one evaluation: the same
// TotalReport+OperationalReport pairing core.OperationalFrom allocates,
// laid out in arena chunks instead of one heap object per candidate.
type pairedReport struct {
	t core.TotalReport
	o core.OperationalReport
}

// reportArena hands out stamped reports chunk-wise. Sinks and
// Result-valued reducers may retain any report they are handed, so chunks
// are never recycled — the arena only batches 64 report allocations into
// one. Nothing else points into a chunk (the kernel writes no memo entry),
// so a chunk lives exactly as long as some retained Result references it.
type reportArena struct {
	chunk []pairedReport
	used  int
}

const arenaChunk = streamBlock

// next returns a zeroed report pair. Pointer stability: a fresh chunk is a
// new allocation, never a resize, so previously returned pointers stay
// valid for whoever retains them.
func (a *reportArena) next() *pairedReport {
	if a.used == len(a.chunk) {
		a.chunk = make([]pairedReport, arenaChunk)
		a.used = 0
	}
	r := &a.chunk[a.used]
	a.used++
	return r
}

// pairPrep is the per-(run, pair) hoisted state of the kernel: the annual
// operational carbon at the run's use grid (for stamping) and the decision
// metrics shared by every lifetime of the pair. Reset per run.
type pairPrep struct {
	// annual is the pair's annual operational carbon at the run's use
	// intensity — the one factor of the lifetime fan-out that depends on
	// the pair; set by the first stamped candidate.
	annual   units.Carbon
	annualOK bool

	// er is the pair's embodied term, resolved through embodiedFor by the
	// run's first computed candidate; later candidates reuse it and batch
	// the term-hit counts embodiedFor would have recorded (flushed per
	// run), so the counter laws stay bit-for-bit scalar.
	er    *core.EmbodiedResult
	erErr error
	erOK  bool

	// Decision metrics vs the run's 2D baseline, computed once from the
	// first successful (candidate, baseline) report pair; every Eq. 2 input
	// (embodied totals, annual carbon) is lifetime-invariant, so the whole
	// run shares them and only OverallSave varies per candidate.
	metricsDone bool
	cmpOK       bool // candidate and baseline both evaluated
	embB, embC  float64
	annB, annC  float64
	embSave     float64
	tcH, trH    metrics.Horizon
}

// runCtx is the per-run (outer axis point) context: the use grid's carbon
// intensity, hoisted out of the per-candidate path (the scalar path looks
// it up once per evaluation).
type runCtx struct {
	useCI  units.CarbonIntensity
	useErr error
}

// blockState is one worker's reusable kernel scratch. Columns are indexed
// by position within the current run.
type blockState struct {
	years []float64 // lifetime column, one entry per candidate of the run
	pi    []int32   // pair-index column
	offs  []int32   // ID offsets: candidate j's ID is ids[offs[j]:offs[j+1]]

	preps   []pairPrep          // per pair (len(pairs)+1; last = baseline)
	baseRep []*core.TotalReport // per lifetime index: the run's 2D baseline
	baseErr []error
	baseSet []bool
	mono    int // index of the Mono2D pair, whose reports double as baselines; -1 if none

	idBuf []byte // run ID render buffer
	arena reportArena

	// Locally batched engine counters, flushed once per run (one atomic
	// Add per counter instead of one per candidate). embHits counts
	// embodied-term reuses off the run's hoisted copy — the increments
	// embodiedFor itself would have made.
	evals, stencils, embHits uint64
}

// newBlockState sizes a worker's scratch for plan p.
func newBlockState(p *iterPlan) *blockState {
	it := p.it
	bs := &blockState{
		years:   make([]float64, 0, streamBlock),
		pi:      make([]int32, 0, streamBlock),
		offs:    make([]int32, 0, streamBlock+1),
		preps:   make([]pairPrep, len(it.pairs)+1),
		baseRep: make([]*core.TotalReport, len(it.years)),
		baseErr: make([]error, len(it.years)),
		baseSet: make([]bool, len(it.years)),
		mono:    -1,
		idBuf:   make([]byte, 0, 128),
	}
	for pi, pair := range it.pairs {
		if pair.integ == ic.Mono2D {
			bs.mono = pi
			break
		}
	}
	return bs
}

// resetRun clears the per-run state (columns, pair preps, baseline cache).
func (bs *blockState) resetRun() {
	bs.years = bs.years[:0]
	bs.pi = bs.pi[:0]
	bs.offs = bs.offs[:0]
	clear(bs.preps)
	clear(bs.baseRep)
	clear(bs.baseErr)
	clear(bs.baseSet)
}
