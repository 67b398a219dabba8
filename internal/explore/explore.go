// Package explore is the design-space exploration engine: it enumerates
// candidate designs over the axes the paper varies (integration technology,
// die-division strategy, process node, fab/use grid and design size),
// evaluates them concurrently on a worker pool with a memoization cache, and
// reports ranked tables, the embodied-vs-operational Pareto frontier and the
// Eq. 2 choosing/replacing verdict of every candidate against its 2D
// baseline.
//
// The engine is the shared evaluation substrate of the CLI tools: cmd/sweep,
// cmd/drivestudy and internal/casestudy all fan their design grids through
// Engine.Evaluate instead of hand-rolled serial loops. On the scalar path
// (Evaluate, unplanned sources) evaluation results are memoized by a
// canonical design hash, so the 2D baseline every comparison shares is
// computed exactly once per workload. Planned space streams run through the
// columnar block kernel (block.go) instead, which stamps every candidate
// fresh and takes each 2D baseline from the run's own Mono2D candidate.
package explore

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/faultpoint"
	"repro/internal/metrics"
	"repro/internal/units"
	"repro/internal/workload"
)

// Candidate is one design point of an exploration: a design, the workload
// it must sustain, and optionally the 2D baseline the Eq. 2 decision
// metrics compare it against.
//
// A zero Workload (no throughput) marks an embodied-only candidate: the
// engine skips the operational model and the life-cycle total equals the
// embodied carbon. That is the mode the embodied sweeps of cmd/sweep use.
type Candidate struct {
	// ID labels the candidate in reports; Enumerate fills it from the axis
	// point.
	ID string
	// Design is the candidate hardware description.
	Design *design.Design
	// Workload is the §3.3 use-phase profile (zero → embodied only).
	Workload workload.Workload
	// Eff is the surveyed chip efficiency for dies without their own.
	Eff units.Efficiency
	// Baseline optionally names the 2D design the Eq. 2 metrics compare
	// against. The scalar path evaluates it through the memo, so a
	// baseline shared by many candidates is computed once; the block
	// kernel reuses the run's own Mono2D report where it can.
	Baseline *design.Design

	// hint and baseHint carry compiled embodied-term state attached by a
	// planning source (Iter.Plan): a shared term slot plus the precomputed
	// embodied sub-key, so candidates that only vary the operational axes
	// skip both the term recomputation and the invariant part of the memo
	// hash. Zero hints (hand-built candidates) fall back to hashing and the
	// embodied cache.
	hint     termHint
	baseHint termHint
}

// termHint is the compiled embodied-term state of one design: the plan slot
// shared by every candidate with the same embodied design (nil → use the
// embodied cache) and the design's embodied sub-key (valid when keyed),
// precomputed once per plan slab instead of re-hashed per candidate.
type termHint struct {
	slot  *embodiedSlot
	key   keyPair
	keyed bool
}

// embodiedOnly reports whether the candidate skips the operational model.
func (c Candidate) embodiedOnly() bool { return c.Workload.Throughput <= 0 }

// Key returns the canonical evaluation key of a (design, workload,
// efficiency) triple: a flat string encoding of every model-relevant field,
// factored exactly as the Eq. 1 terms are — the embodied sub-key first
// (EmbodiedKey), then the operational suffix (use grid, workload,
// efficiency). Design and die names are labels, not model inputs, and are
// deliberately excluded: two candidates that differ only in labels are the
// same evaluation, whatever their IDs. Consequently the memoized report a
// renamed-but-equal design receives is the SHARED report of the first
// evaluation — numerically identical, but carrying the first-seen design
// and die names in its header fields (candidate identity lives in
// Result.Candidate.ID and the server's top-level design echo, which are
// always the caller's own labels). The memo cache itself no longer
// stores these strings — it keys on the allocation-free 128-bit hash of the
// same fields (see hash.go) — but the string form remains the readable
// canonical encoding and the oracle the hash's injectivity is tested
// against.
func Key(d *design.Design, w workload.Workload, eff units.Efficiency) string {
	return EmbodiedKey(d) + operationalKey(d, w, eff)
}

// EmbodiedKey encodes the embodied sub-term's inputs: every design field
// the Eq. 3 model reads (never UseLocation, workload or labels). Designs
// with equal embodied keys share one entry in the engine's embodied
// sub-term cache.
func EmbodiedKey(d *design.Design) string {
	b := make([]byte, 0, 192)
	b = append(b, string(d.Integration)...)
	b = appendStr(b, string(d.Stacking))
	b = appendStr(b, string(d.Flow))
	b = appendStr(b, string(d.Order))
	b = appendStr(b, string(d.FabLocation))
	b = appendFloat(b, d.WaferAreaMM2)
	b = appendFloat(b, d.GapMM)
	b = appendFloat(b, d.InterposerScale)
	b = appendFloat(b, d.PackageAreaMM2)
	for _, die := range d.Dies {
		b = strconv.AppendInt(append(b, '|'), int64(die.ProcessNM), 10)
		b = appendFloat(b, die.Gates)
		b = appendFloat(b, die.AreaMM2)
		b = strconv.AppendInt(append(b, ';'), int64(die.BEOLLayers), 10)
		if die.Memory {
			b = append(b, ";M"...)
		}
		b = appendFloat(b, die.EfficiencyTOPSW)
	}
	return string(b)
}

// operationalKey encodes the operational suffix of an evaluation key: the
// use grid plus the workload/efficiency fields.
func operationalKey(d *design.Design, w workload.Workload, eff units.Efficiency) string {
	b := make([]byte, 0, 96)
	b = append(b, '#')
	b = append(b, d.UseLocation...)
	b = appendFloat(b, float64(w.Throughput))
	b = appendFloat(b, float64(w.PeakThroughput))
	b = appendFloat(b, w.ActiveHoursPerYear)
	b = appendFloat(b, w.LifetimeYears)
	b = appendFloat(b, float64(eff))
	return string(b)
}

func appendStr(b []byte, s string) []byte { return append(append(b, '|'), s...) }

func appendFloat(b []byte, v float64) []byte {
	// 'b' is the cheapest exact float encoding (no shortest-repr search).
	return strconv.AppendFloat(append(b, ';'), v, 'b', -1, 64)
}

// Result is one evaluated candidate.
type Result struct {
	Candidate Candidate
	// Err is the per-candidate evaluation failure (e.g. a design too large
	// for the wafer); the other fields are zero when set.
	Err error

	// Report is the evaluated candidate (Operational nil for
	// embodied-only candidates).
	Report *core.TotalReport
	// Baseline is the evaluated 2D baseline when the candidate has one.
	Baseline *core.TotalReport
	// BaselineErr is set when the candidate evaluated but its baseline did
	// not (e.g. a die split fits the wafer where the monolithic die does
	// not); the comparison fields stay zero.
	BaselineErr error

	// Decision metrics vs the baseline (Eq. 2 / Table 5), present when the
	// candidate has a baseline and both evaluations succeeded.
	Tc           metrics.Horizon
	Tr           metrics.Horizon
	EmbodiedSave float64
	OverallSave  float64
}

// Embodied returns the candidate's embodied carbon in kg.
func (r Result) Embodied() float64 {
	if r.Report == nil {
		return 0
	}
	return r.Report.Embodied.Total.Kg()
}

// Operational returns the candidate's lifetime operational carbon in kg
// (zero for embodied-only candidates).
func (r Result) Operational() float64 {
	if r.Report == nil || r.Report.Operational == nil {
		return 0
	}
	return r.Report.Operational.LifetimeCarbon.Kg()
}

// Total returns the candidate's life-cycle total in kg.
func (r Result) Total() float64 {
	if r.Report == nil {
		return 0
	}
	return r.Report.Total.Kg()
}

// Stats are the engine's evaluation counters.
type Stats struct {
	// Evaluations is the number of reports actually computed. The scalar
	// path computes one per distinct (design, workload) memo key; the
	// block kernel, which bypasses the memo, one per candidate plus one per
	// 2D baseline it stamps outside its Mono2D candidate's window.
	Evaluations uint64
	// CacheHits is the number of scalar-path evaluations answered from the
	// memoization cache. Planned kernel streams never probe it and add
	// none.
	CacheHits uint64
	// CacheEntries is the current number of memoized evaluations — scalar
	// path only; planned kernel streams insert none.
	CacheEntries int
	// Evictions is the number of memoized evaluations dropped to keep the
	// cache inside CacheLimit.
	Evictions uint64
	// CacheShards is the number of independently locked cache segments
	// (0 until the first evaluation builds the cache).
	CacheShards int

	// EmbodiedEvaluations is the number of distinct embodied sub-terms
	// actually computed (resolve → yield → fab → bonding → packaging).
	EmbodiedEvaluations uint64
	// EmbodiedCacheHits is the number of embodied sub-terms answered from
	// the embodied cache or a compiled plan slot — evaluations that paid
	// only the cheap operational term.
	EmbodiedCacheHits uint64
	// EmbodiedCacheEntries is the current number of memoized embodied
	// sub-terms.
	EmbodiedCacheEntries int
	// EmbodiedEvictions is the number of embodied sub-terms dropped to keep
	// the embodied cache inside its bound.
	EmbodiedEvictions uint64

	// BlockCandidates is the number of candidates evaluated through the
	// columnar block kernel (block.go) rather than the scalar path.
	BlockCandidates uint64
	// BlockRuns is the number of kernel runs — maximal spans of consecutive
	// candidates sharing one (template, fab, use) outer point — the block
	// candidates were grouped into.
	BlockRuns uint64
	// BlockStencils is the number of operational stencils compiled: distinct
	// (template, fab) operational prefixes the kernel hoisted out of the
	// per-candidate loop.
	BlockStencils uint64

	// SequencerBypassed counts Reduce calls that ran sequencer-free: every
	// worker folded its index range into a local reducer shard instead of
	// handing results through the ordered-delivery sequencer.
	SequencerBypassed uint64
	// ShardsMerged counts the worker-local reducer shards merged at the end
	// of those calls.
	ShardsMerged uint64
}

// HitRate returns the fraction of evaluation requests answered from the
// cache (0 when nothing has been evaluated yet). Kernel evaluations count
// as requests the cache never saw, so planned streams lower it.
func (s Stats) HitRate() float64 {
	total := s.Evaluations + s.CacheHits
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// EmbodiedReuseRate returns the fraction of embodied-term requests answered
// without recomputing the embodied model (0 when none were requested).
func (s Stats) EmbodiedReuseRate() float64 {
	total := s.EmbodiedEvaluations + s.EmbodiedCacheHits
	if total == 0 {
		return 0
	}
	return float64(s.EmbodiedCacheHits) / float64(total)
}

// Engine evaluates candidates concurrently. An Engine is safe for
// concurrent use. Its memoization cache serves the scalar path and persists
// across Evaluate calls, so one engine shared between related studies
// (e.g. the two Fig. 5 strategies) reuses their common evaluations; its
// embodied sub-term cache serves both paths, so a planned stream through
// the block kernel reuses every embodied term an earlier call computed.
//
// Memo keys mix in the model's ParameterSet fingerprint, so engines over
// different parameter profiles that share one cache (see SharedCache) can
// never serve each other's results — two profiles evaluating the same
// design hash to different keys.
type Engine struct {
	// Model is the configured 3D-Carbon pipeline. The engine assumes the
	// model is not mutated while evaluations run — memoized results would
	// go stale.
	Model *core.Model
	// Workers bounds evaluation concurrency; ≤0 means runtime.NumCPU().
	Workers int
	// CacheLimit bounds the memoization cache to this many distinct
	// evaluations, evicted least-recently-used; ≤0 means unbounded. A
	// long-running process (cmd/serve) sets this so arbitrary request
	// streams cannot grow the cache without bound. Only the scalar path
	// fills the cache; planned kernel streams leave it as they found it.
	// Ignored when Cache is set.
	CacheLimit int
	// CacheShards overrides the memo shard count (rounded up to a power of
	// two). ≤0 picks one shard per core up to 16, degraded so a bounded
	// cache keeps ≥64 entries per shard — a small CacheLimit therefore
	// gets one shard and exact global LRU order. Set before first use.
	// Ignored when Cache is set.
	CacheShards int
	// Cache optionally attaches an externally-owned cache shared between
	// several engines (cmd/serve's per-profile engines share one bounded
	// LRU). Engines sharing a cache must use models built by core.New so
	// their fingerprints disambiguate the keys; two hand-assembled models
	// (zero fingerprint) would collide. Set before first use.
	Cache *SharedCache

	// ScalarOnly disables the columnar block kernel: planned space streams
	// take the per-candidate scalar path (the kernel's bit-exactness
	// oracle) instead. The EXPLORE_SCALAR environment variable (any
	// non-empty value) forces the same fallback process-wide; the
	// differential tests and CI's oracle run rely on one or the other.
	// Results are bit-identical either way — only throughput differs.
	ScalarOnly bool

	// monolithic disables term factorization: misses evaluate the whole
	// Model.Total without the embodied sub-term cache or plan slots — the
	// pre-factorization pipeline, kept as the benchmark baseline
	// (BenchmarkStreamExploreMonolithic) and for factored-vs-monolithic
	// equivalence tests.
	monolithic bool

	cacheOnce sync.Once
	cache     atomic.Pointer[memoCache[memoEntry]]
	embCache  atomic.Pointer[memoCache[embodiedEntry]]
	fpHi      uint64 // model fingerprint words, fixed by cacheOnce
	fpLo      uint64
	evals     atomic.Uint64
	hits      atomic.Uint64
	evictions atomic.Uint64

	embEvals     atomic.Uint64
	embHits      atomic.Uint64
	embEvictions atomic.Uint64

	blockCands    atomic.Uint64
	blockRuns     atomic.Uint64
	blockStencils atomic.Uint64

	seqBypassed  atomic.Uint64
	shardsMerged atomic.Uint64

	// blocks recycles the ordered streams' block result slices across
	// calls (see sequencer).
	blocks blockPool
}

// SharedCache is a memoization cache that outlives any single engine: every
// engine pointing at it reads and writes the same bounded sharded LRUs —
// one for whole evaluations, one for embodied sub-terms. Construct with
// NewSharedCache.
type SharedCache struct {
	c   *memoCache[memoEntry]
	emb *memoCache[embodiedEntry]
}

// NewSharedCache builds a cache bounded to limit distinct evaluations
// (≤0 = unbounded) across shards locked segments (≤0 = automatic). The
// embodied sub-term side shares the same bound and shard policy: embodied
// entries are strictly fewer than evaluations (many evaluations per term),
// so the limit is a safe upper bound for both.
func NewSharedCache(limit, shards int) *SharedCache {
	return &SharedCache{
		c:   newMemoCache[memoEntry](limit, shards),
		emb: newMemoCache[embodiedEntry](limit, shards),
	}
}

// Entries returns the resident evaluation count.
func (sc *SharedCache) Entries() int { return sc.c.entries() }

// EmbodiedEntries returns the resident embodied sub-term count.
func (sc *SharedCache) EmbodiedEntries() int { return sc.emb.entries() }

// Shards returns the number of independently locked segments.
func (sc *SharedCache) Shards() int { return sc.c.count() }

type memoEntry struct {
	once sync.Once
	rep  *core.TotalReport
	err  error
}

// embodiedEntry is one resolve-once embodied sub-term. It serves two
// homes with identical semantics: entries of the embodied memo cache, and
// the slots of a compiled evaluation plan — where the space iterator hands
// every candidate sharing an embodied design the same slot, so the term is
// resolved (through the embodied cache) exactly once per plan and every
// other candidate takes a pointer: no hash, no shard lock. Plan slots are
// scoped to one stream call, so they can never leak results across engines
// or parameter profiles.
type embodiedEntry struct {
	once sync.Once
	res  *core.EmbodiedResult
	err  error
}

// embodiedSlot aliases the entry type in its plan-slot role.
type embodiedSlot = embodiedEntry

// termCounters accumulates per-call embodied reuse counters (StreamStats);
// nil means the caller does not track them.
type termCounters struct {
	hits   atomic.Uint64
	misses atomic.Uint64
	// block counts candidates this call evaluated through the columnar
	// kernel (zero on the scalar path).
	block atomic.Uint64
}

// workerCache is per-worker evaluation state: enumeration order visits long
// runs of candidates sharing one 2D baseline under one workload, so the
// worker keeps the last baseline total and skips the memo lookup (hash +
// shard lock) for the rest of the run. Purely an access-path shortcut — the
// memoized report is the same pointer the cache would return.
type workerCache struct {
	baseD   *design.Design
	baseW   workload.Workload
	baseEff units.Efficiency
	baseRep *core.TotalReport
	baseErr error
}

// New returns an engine over the given model.
func New(m *core.Model) *Engine { return &Engine{Model: m} }

// Stats returns the evaluation counters.
func (e *Engine) Stats() Stats {
	st := Stats{
		Evaluations:         e.evals.Load(),
		CacheHits:           e.hits.Load(),
		Evictions:           e.evictions.Load(),
		EmbodiedEvaluations: e.embEvals.Load(),
		EmbodiedCacheHits:   e.embHits.Load(),
		EmbodiedEvictions:   e.embEvictions.Load(),
		BlockCandidates:     e.blockCands.Load(),
		BlockRuns:           e.blockRuns.Load(),
		BlockStencils:       e.blockStencils.Load(),
		SequencerBypassed:   e.seqBypassed.Load(),
		ShardsMerged:        e.shardsMerged.Load(),
	}
	if c := e.cache.Load(); c != nil {
		st.CacheEntries = c.entries()
		st.CacheShards = c.count()
	}
	if c := e.embCache.Load(); c != nil {
		st.EmbodiedCacheEntries = c.entries()
	}
	return st
}

// memo lazily builds (or attaches) the sharded caches on first evaluation,
// honouring the Cache/CacheLimit/CacheShards configured by then, and pins
// the model-fingerprint key mix.
func (e *Engine) memo() *memoCache[memoEntry] {
	e.cacheOnce.Do(func() {
		if e.Model != nil {
			e.fpHi, e.fpLo = e.Model.Fingerprint().Words()
		}
		if e.Cache != nil {
			e.cache.Store(e.Cache.c)
			e.embCache.Store(e.Cache.emb)
			return
		}
		e.cache.Store(newMemoCache[memoEntry](e.CacheLimit, e.CacheShards))
		e.embCache.Store(newMemoCache[embodiedEntry](e.CacheLimit, e.CacheShards))
	})
	return e.cache.Load()
}

// mixFP folds the model's ParameterSet fingerprint into a key, so the same
// design under two parameter profiles occupies two distinct cache entries.
func (e *Engine) mixFP(key keyPair) keyPair {
	h := hash128{hi: key.hi, lo: key.lo}
	h.u64(e.fpHi)
	h.u64(e.fpLo)
	return h.sum()
}

// memoKey keys one evaluation: the 128-bit design/workload hash,
// fingerprint-mixed. A keyed hint supplies the design's embodied sub-key so
// only the operational suffix is hashed per candidate.
func (e *Engine) memoKey(d *design.Design, w workload.Workload, eff units.Efficiency, hint termHint) keyPair {
	if hint.keyed {
		return e.mixFP(hashOperational(hint.key, d, w, eff))
	}
	return e.mixFP(hashEvaluation(d, w, eff))
}

// embodiedMemoKey keys one embodied sub-term (fingerprint-mixed like
// memoKey; the embodied and evaluation keys live in separate caches, so
// their key spaces cannot collide).
func (e *Engine) embodiedMemoKey(d *design.Design, hint termHint) keyPair {
	if hint.keyed {
		return e.mixFP(hint.key)
	}
	return e.mixFP(hashEmbodied(d))
}

func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.NumCPU()
}

// embodiedTerm resolves one embodied sub-term through the embodied cache.
func (e *Engine) embodiedTerm(d *design.Design, hint termHint, tc *termCounters) (*core.EmbodiedResult, error) {
	emb := e.embCache.Load()
	ent, ok, evicted := emb.get(e.embodiedMemoKey(d, hint))
	if evicted > 0 {
		e.embEvictions.Add(uint64(evicted))
	}
	if ok {
		e.embHits.Add(1)
		if tc != nil {
			tc.hits.Add(1)
		}
	} else if tc != nil {
		tc.misses.Add(1)
	}
	ent.once.Do(func() {
		e.embEvals.Add(1)
		ent.res, ent.err = e.Model.EmbodiedTerm(d)
	})
	return ent.res, ent.err
}

// embodiedFor resolves a candidate's embodied term: through its compiled
// plan slot when the source planned one (pointer reuse, no hashing), else
// through the embodied cache.
func (e *Engine) embodiedFor(d *design.Design, hint termHint, tc *termCounters) (*core.EmbodiedResult, error) {
	slot := hint.slot
	if slot == nil {
		return e.embodiedTerm(d, hint, tc)
	}
	computed := false
	slot.once.Do(func() {
		computed = true
		slot.res, slot.err = e.embodiedTerm(d, hint, tc)
	})
	if !computed {
		// Reused an already-resolved slot: an embodied hit that never
		// touched the cache.
		e.embHits.Add(1)
		if tc != nil {
			tc.hits.Add(1)
		}
	}
	return slot.res, slot.err
}

// EmbodiedBound returns the candidate's embodied carbon in kg without
// computing the operational term. Operational lifetime carbon is
// non-negative for every grid location (carbon intensities are ≥ 0), so
// the value is an admissible lower bound on the candidate's completed
// life-cycle Total() — the optimizer's pruning bound. The value is
// bit-identical to Result.Embodied() of a full evaluation: both read the
// same memoized EmbodiedTerm. An error means the candidate's embodied
// design does not build, in which case every full evaluation of it fails
// with the same error.
func (e *Engine) EmbodiedBound(c Candidate) (float64, error) {
	if e.Model == nil {
		return 0, fmt.Errorf("explore: engine has no model")
	}
	if c.Design == nil {
		return 0, fmt.Errorf("explore: candidate %q has no design", c.ID)
	}
	e.memo() // pins the fingerprint words and the cache configuration
	if e.monolithic {
		rep, err := e.Model.Embodied(c.Design)
		if err != nil {
			return 0, err
		}
		return rep.Total.Kg(), nil
	}
	er, err := e.embodiedFor(c.Design, c.hint, nil)
	if err != nil {
		return 0, err
	}
	return er.Report.Total.Kg(), nil
}

// total evaluates one (design, workload, eff) triple through the memo
// cache. Misses evaluate term-factorized: the embodied sub-term comes from
// the plan slot or the embodied cache (computed at most once per distinct
// embodied design) and only the cheap operational term runs per (use
// location, workload) variant. Embodied-only evaluations leave Operational
// nil and set Total to the embodied carbon. The returned report is shared
// across callers and must be treated as read-only.
func (e *Engine) total(d *design.Design, w workload.Workload, eff units.Efficiency,
	embodiedOnly bool, hint termHint, tc *termCounters) (*core.TotalReport, error) {
	memo := e.memo() // also pins the fingerprint words memoKey mixes in
	key := e.memoKey(d, w, eff, hint)
	ent, ok, evicted := memo.get(key)
	if evicted > 0 {
		e.evictions.Add(uint64(evicted))
	}
	if ok {
		e.hits.Add(1)
	}
	ent.once.Do(func() {
		e.evals.Add(1)
		if e.monolithic {
			if embodiedOnly {
				emb, err := e.Model.Embodied(d)
				if err != nil {
					ent.err = err
					return
				}
				ent.rep = &core.TotalReport{Embodied: emb, Total: emb.Total}
				return
			}
			ent.rep, ent.err = e.Model.Total(d, w, eff)
			return
		}
		er, err := e.embodiedFor(d, hint, tc)
		if err != nil {
			ent.err = err
			return
		}
		if embodiedOnly {
			ent.rep = &core.TotalReport{Embodied: er.Report, Total: er.Report.Total}
			return
		}
		ent.rep, ent.err = e.Model.OperationalFrom(er, d, w, eff)
	})
	return ent.rep, ent.err
}

// evaluateOne fills one result. wc (optional) is the calling worker's
// baseline shortcut state.
// FaultPointEvaluate is the fault-injection hook fired once per candidate
// evaluation; the chaos harness arms it to simulate worker faults.
const FaultPointEvaluate = "explore.evaluate"

func (e *Engine) evaluateOne(c Candidate, tc *termCounters, wc *workerCache) Result {
	r := Result{Candidate: c}
	if err := faultpoint.Hit(FaultPointEvaluate); err != nil {
		r.Err = err
		return r
	}
	if c.Design == nil {
		r.Err = fmt.Errorf("explore: candidate %q has no design", c.ID)
		return r
	}
	rep, err := e.total(c.Design, c.Workload, c.Eff, c.embodiedOnly(), c.hint, tc)
	if err != nil {
		r.Err = err
		return r
	}
	r.Report = rep

	if c.Baseline == nil {
		return r
	}
	var base *core.TotalReport
	if wc != nil && wc.baseD == c.Baseline && wc.baseW == c.Workload && wc.baseEff == c.Eff {
		// Same baseline design (pointer-identical, so field-identical) under
		// the same workload as the previous candidate: reuse the memoized
		// report without re-hashing it.
		base, err = wc.baseRep, wc.baseErr
	} else {
		base, err = e.total(c.Baseline, c.Workload, c.Eff, c.embodiedOnly(), c.baseHint, tc)
		if wc != nil {
			*wc = workerCache{baseD: c.Baseline, baseW: c.Workload, baseEff: c.Eff,
				baseRep: base, baseErr: err}
		}
	}
	if err != nil {
		// A candidate can be buildable where its 2D baseline is not: keep
		// the candidate, record why the comparison is missing.
		r.BaselineErr = err
		return r
	}
	r.Baseline = base
	r.EmbodiedSave = 1 - rep.Embodied.Total.Kg()/base.Embodied.Total.Kg()
	if c.embodiedOnly() {
		return r
	}
	cmp := metrics.Comparison{
		EmbodiedBaseline:  base.Embodied.Total,
		EmbodiedCandidate: rep.Embodied.Total,
		AnnualOpBaseline:  base.Operational.AnnualCarbon,
		AnnualOpCandidate: rep.Operational.AnnualCarbon,
	}
	r.OverallSave = cmp.OverallSaveRatio(c.Workload.LifetimeYears)
	if tc, err := metrics.Choosing(cmp); err == nil {
		r.Tc = tc
	}
	if tr, err := metrics.Replacing(cmp); err == nil {
		r.Tr = tr
	}
	return r
}

// Evaluate returns one result per candidate, in input order. It is an
// ordered stream over the slice (StreamSource over a SliceSource), so a
// batch shares the stream's workers, cancellation and panic containment.
// A single candidate, the /v1/evaluate shape, evaluates inline on the
// calling goroutine instead. Per-candidate failures land in Result.Err;
// Evaluate itself fails only when the context is cancelled or an
// evaluation panics (*PanicError).
func (e *Engine) Evaluate(ctx context.Context, cands []Candidate) (res []Result, err error) {
	if e.Model == nil {
		return nil, fmt.Errorf("explore: engine has no model")
	}
	if len(cands) == 1 {
		defer func() {
			if r := recover(); r != nil {
				res, err = nil, newPanicError(r)
			}
		}()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return []Result{e.evaluateOne(cands[0], nil, nil)}, nil
	}
	out := make([]Result, 0, len(cands))
	if _, err := e.StreamSource(ctx, SliceSource(cands), func(r Result) error {
		out = append(out, r)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// watchContext arms an atomic flag when ctx is done — a per-candidate
// ctx.Err() would take ctx's internal mutex on every check, which the
// worker pool would contend on. The flag is set by context.AfterFunc, so
// watching costs no goroutine; the returned release unregisters it.
func watchContext(ctx context.Context) (stop *atomic.Bool, release func()) {
	var flag atomic.Bool
	if ctx.Done() == nil {
		return &flag, func() {}
	}
	unregister := context.AfterFunc(ctx, func() { flag.Store(true) })
	return &flag, func() { unregister() }
}

// Explore evaluates a space and returns the full materialized result set.
// It runs on the streaming pipeline — candidates are decoded positionally,
// never enumerated into a slice — but retains every result, so it costs
// O(candidates) memory like it always did. Sweeps that only need rankings,
// frontiers or aggregates should call Stream with reducers instead.
func (e *Engine) Explore(ctx context.Context, s Space) (*ResultSet, error) {
	it, err := s.Iter()
	if err != nil {
		return nil, err
	}
	results := make([]Result, 0, it.Len())
	if _, err := e.StreamSource(ctx, it, func(r Result) error {
		results = append(results, r)
		return nil
	}); err != nil {
		return nil, err
	}
	return &ResultSet{Space: s, Results: results}, nil
}
