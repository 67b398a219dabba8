// The streaming evaluation pipeline: Engine.Stream fans candidate *index
// ranges* (never candidate slices) out to the worker pool and hands results
// to a single sink in exact enumeration order. Peak memory is O(workers ×
// block) results in flight plus whatever the sink retains — online reducers
// (reduce.go) keep that at O(K + frontier) — so a million-point sweep runs
// in constant memory where Enumerate + Evaluate would pin gigabytes.
package explore

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Source yields candidates positionally for the streaming pipeline. A
// Source must be immutable and safe to share; each worker decodes through
// its own SourceCursor.
type Source interface {
	// Len is the number of candidates.
	Len() int
	// Cursor returns an independent decoder for one goroutine.
	Cursor() SourceCursor
}

// SourceCursor decodes one candidate at a time for a single goroutine.
// Implementations may amortize decoding state across calls, but every
// returned Candidate (and the designs it points to) must remain valid
// after later At calls — sinks and reducers retain them.
type SourceCursor interface {
	At(i int) (Candidate, error)
}

// Planner is an optional Source capability: sources that can compile their
// candidates into a term-reuse evaluation plan (shared embodied-term slots)
// implement it, and Engine.StreamSource calls Plan once per stream so every
// distinct embodied sub-term in the space is computed exactly once while
// only the cheap operational term fans across use locations, workloads and
// lifetimes. Space iterators implement Planner; plans are scoped to one
// stream call, so slot state never crosses engines or parameter profiles.
type Planner interface {
	Plan() Source
}

// SliceSource adapts a materialized candidate list to the streaming
// pipeline (the compatibility path for callers that build explicit grids,
// e.g. cmd/sweep).
type SliceSource []Candidate

func (s SliceSource) Len() int             { return len(s) }
func (s SliceSource) Cursor() SourceCursor { return s }

// At returns the i-th candidate.
func (s SliceSource) At(i int) (Candidate, error) { return s[i], nil }

// Sink consumes results in enumeration order. It is never called
// concurrently; returning an error aborts the stream and surfaces the
// error from Stream. The Result and everything it references are valid
// indefinitely (designs decoded by the space iterator are immutable and
// shared, reports are memoized) — reducers may retain them.
type Sink func(Result) error

// StreamStats describes one Stream call's pipeline behaviour.
type StreamStats struct {
	// Candidates is the size of the streamed space.
	Candidates int
	// Delivered counts results handed to the sink (< Candidates when the
	// stream aborted).
	Delivered int
	// PeakInFlight is the high-water mark of candidates decoded or
	// evaluated but not yet delivered — the pipeline's actual working-set
	// bound, O(workers × block) by construction.
	PeakInFlight int

	// EmbodiedHits counts evaluations in this stream whose embodied
	// sub-term was answered from a compiled plan slot or the embodied
	// cache — computed evaluations that paid only the operational term.
	EmbodiedHits int
	// EmbodiedMisses counts embodied sub-terms computed fresh during this
	// stream (the distinct embodied designs it actually evaluated).
	EmbodiedMisses int

	// BlockCandidates counts candidates this stream evaluated through the
	// columnar block kernel (0 when the scalar fallback ran — unplanned
	// sources, monolithic engines, Engine.ScalarOnly or EXPLORE_SCALAR).
	BlockCandidates int

	// ShardsMerged counts the worker-local reducer shards merged at the end
	// of a sequencer-free reduce call (0 on the ordered Stream path — see
	// Engine.Reduce).
	ShardsMerged int
}

// streamBlock is the fan-out granularity: one atomic claim per block keeps
// scheduling overhead below the ~µs evaluation cost, and blocks are the
// unit of in-order delivery.
const streamBlock = 64

// maxAheadBlocks bounds how far workers may run ahead of the delivery
// frontier (per worker), capping decoded-but-undelivered results.
const maxAheadBlocks = 4

// Stream decodes the space positionally and evaluates it through the
// worker pool, feeding results to sink in enumeration order. Memory stays
// O(workers) regardless of space size. Per-candidate failures are regular
// Results with Err set, exactly as Evaluate reports them; Stream itself
// fails only on context cancellation, a sink error or a space that does
// not decode.
func (e *Engine) Stream(ctx context.Context, s Space, sink Sink) (StreamStats, error) {
	it, err := s.Iter()
	if err != nil {
		return StreamStats{}, err
	}
	return e.StreamSource(ctx, it, sink)
}

// StreamSource is Stream over any positional candidate source. Sources
// implementing Planner are compiled into a term-reuse plan for the call.
func (e *Engine) StreamSource(ctx context.Context, src Source, sink Sink) (StreamStats, error) {
	if e.Model == nil {
		return StreamStats{}, fmt.Errorf("explore: engine has no model")
	}
	if p, ok := src.(Planner); ok {
		src = p.Plan()
	}
	return e.streamRange(ctx, src, 0, src.Len(), sink)
}

// StreamRange is StreamSource restricted to the half-open index window
// [lo, hi) of the source's enumeration order. Results still arrive at the
// sink in enumeration order, the columnar block kernel still engages for
// planned sources, and candidate indices are absolute — the sink's i-th
// call corresponds to source index lo+i.
//
// Callers streaming many windows of the same space should compile the
// iterator once (Iter.Plan) and pass the plan to every call: a plan does
// not implement Planner, so its embodied-term slots are shared across
// windows instead of being recompiled per call. Production callers that
// only reduce a window (the job runner, the optimizer drivers) use
// ReduceRange instead; StreamRange is the ordered oracle the reduce path
// and the job tests are checked against.
func (e *Engine) StreamRange(ctx context.Context, src Source, lo, hi int, sink Sink) (StreamStats, error) {
	if e.Model == nil {
		return StreamStats{}, fmt.Errorf("explore: engine has no model")
	}
	if p, ok := src.(Planner); ok {
		src = p.Plan()
	}
	if lo < 0 || hi > src.Len() || lo > hi {
		return StreamStats{}, fmt.Errorf("explore: stream range [%d, %d) outside source of %d candidates", lo, hi, src.Len())
	}
	return e.streamRange(ctx, src, lo, hi, sink)
}

func (e *Engine) streamRange(ctx context.Context, src Source, lo, hi int, sink Sink) (st StreamStats, err error) {
	// Serial-path containment: a panic in decode, evaluation or the sink on
	// this goroutine surfaces as a *PanicError instead of unwinding into the
	// caller (worker goroutines carry their own recovery — see
	// streamParallel).
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError(r)
		}
	}()
	n := hi - lo
	st = StreamStats{Candidates: n}
	if n == 0 {
		return st, ctx.Err()
	}
	// A cold planned stream inserts one memo entry per candidate; size the
	// evaluation cache for them up front (no-op for warm or bounded caches).
	e.memo().reserve(n)
	tc := &termCounters{}
	workers := e.workers()
	if workers > (n+streamBlock-1)/streamBlock {
		workers = (n + streamBlock - 1) / streamBlock
	}
	if workers <= 1 {
		st, err = e.streamSerial(ctx, src, lo, hi, sink, st, tc)
		return finishStreamStats(st, tc), err
	}
	st, err = e.streamParallel(ctx, src, lo, hi, sink, st, workers, tc)
	return finishStreamStats(st, tc), err
}

// finishStreamStats folds the per-call term counters into the stats.
func finishStreamStats(st StreamStats, tc *termCounters) StreamStats {
	st.EmbodiedHits = int(tc.hits.Load())
	st.EmbodiedMisses = int(tc.misses.Load())
	st.BlockCandidates = int(tc.block.Load())
	return st
}

func (e *Engine) streamSerial(ctx context.Context, src Source, lo, hi int, sink Sink,
	st StreamStats, tc *termCounters) (StreamStats, error) {
	stop, unwatch := watchContext(ctx)
	defer unwatch()
	if plan := e.blockPlan(src); plan != nil {
		return e.streamSerialBlock(ctx, plan, lo, hi, sink, st, tc, stop)
	}
	cur := src.Cursor()
	wc := &workerCache{}
	st.PeakInFlight = 1
	for i := lo; i < hi; i++ {
		if stop.Load() {
			return st, ctx.Err()
		}
		c, err := cur.At(i)
		if err != nil {
			return st, err
		}
		if err := sink(e.evaluateOne(c, tc, wc)); err != nil {
			return st, err
		}
		st.Delivered++
	}
	return st, ctx.Err()
}

// streamSerialBlock is the single-worker stream through the columnar
// kernel: blocks are evaluated into one reused buffer and sunk in order,
// so the working set is the block buffer — in flight is the block size,
// not 1, which PeakInFlight reports honestly.
func (e *Engine) streamSerialBlock(ctx context.Context, p *iterPlan, lo, hi int, sink Sink,
	st StreamStats, tc *termCounters, stop *atomic.Bool) (StreamStats, error) {
	cu := p.Cursor().(*spaceCursor)
	bs := newBlockState(p)
	st.PeakInFlight = streamBlock
	if n := hi - lo; n < streamBlock {
		st.PeakInFlight = n
	}
	buf := make([]Result, 0, streamBlock)
	for start := lo; start < hi; start += streamBlock {
		if stop.Load() {
			return st, ctx.Err()
		}
		end := start + streamBlock
		if end > hi {
			end = hi
		}
		var ok bool
		buf, ok = e.evalBlock(p, cu, bs, start, end, tc, stop, buf[:0])
		if !ok {
			return st, ctx.Err()
		}
		for i := range buf {
			if err := sink(buf[i]); err != nil {
				return st, err
			}
			st.Delivered++
		}
		// Stale references in the reused buffer are overwritten by the next
		// block's zero-value appends; no clear needed between blocks.
	}
	return st, ctx.Err()
}

// blockPool recycles block result slices between workers.
type blockPool struct {
	p sync.Pool
}

// Get returns an empty slice with at least the requested capacity.
func (bp *blockPool) Get(capHint int) []Result {
	if s, ok := bp.p.Get().([]Result); ok && cap(s) >= capHint {
		return s
	}
	return make([]Result, 0, capHint)
}

func (bp *blockPool) Put(s []Result) { bp.p.Put(s) }

// sequencer restores enumeration order: workers complete blocks in any
// order; whichever worker completes the current delivery frontier drains
// every contiguous completed block through the sink under the lock.
type sequencer struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending map[int][]Result // completed, undelivered blocks
	next    int              // lowest undelivered block
	sink    Sink
	pool    blockPool
	err     error // first sink error; delivery stops after it

	inFlight int // candidates claimed but not delivered
	peak     int
	given    int // delivered to the sink
}

// wait blocks until block b is inside the run-ahead window (or the stream
// has failed). Reports whether the caller should proceed.
func (s *sequencer) wait(b, window int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for b >= s.next+window && s.err == nil {
		s.cond.Wait()
	}
	return s.err == nil
}

// claim accounts a block's candidates as in flight.
func (s *sequencer) claim(size int) {
	s.mu.Lock()
	s.inFlight += size
	if s.inFlight > s.peak {
		s.peak = s.inFlight
	}
	s.mu.Unlock()
}

// complete hands a finished block to the sequencer and drains the
// contiguous frontier. Drained block slices go back to the pool so a
// long stream recycles a fixed set of blocks instead of allocating one
// per 64 candidates. Returns false when the stream has failed and workers
// should stop claiming.
func (s *sequencer) complete(b int, results []Result) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending[b] = results
	for {
		res, ok := s.pending[s.next]
		if !ok {
			break
		}
		delete(s.pending, s.next)
		s.next++
		for _, r := range res {
			if s.err == nil {
				if err := s.sink(r); err != nil {
					s.err = err
					break
				}
				s.given++
			}
		}
		s.inFlight -= len(res)
		// Sinks receive results by value; drop the block's references
		// before pooling so recycled slices don't pin reports.
		clear(res)
		s.pool.Put(res[:0])
	}
	s.cond.Broadcast()
	return s.err == nil
}

// fail records a decode/context error so waiting workers unblock.
func (s *sequencer) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (e *Engine) streamParallel(ctx context.Context, src Source, lo, hi int, sink Sink,
	st StreamStats, workers int, tc *termCounters) (StreamStats, error) {
	stop, unwatch := watchContext(ctx)
	defer unwatch()

	seq := &sequencer{pending: make(map[int][]Result), sink: sink}
	seq.cond = sync.NewCond(&seq.mu)
	window := workers * maxAheadBlocks

	plan := e.blockPlan(src)
	var nextBlock atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Worker containment: a panic in decode, evaluation or the sink
			// (sinks run on worker goroutines via the sequencer) fails the
			// stream with a *PanicError instead of crashing the process.
			// sequencer.complete releases its lock while unwinding, so fail
			// is safe to call here.
			defer func() {
				if r := recover(); r != nil {
					seq.fail(newPanicError(r))
				}
			}()
			cur := src.Cursor()
			if plan != nil {
				e.workerBlocks(ctx, plan, cur.(*spaceCursor), seq, &nextBlock, lo, hi, window, tc, stop)
				return
			}
			wc := &workerCache{}
			for {
				b := int(nextBlock.Add(1)) - 1
				start := lo + b*streamBlock
				if start >= hi {
					return
				}
				if !seq.wait(b, window) {
					return
				}
				end := start + streamBlock
				if end > hi {
					end = hi
				}
				seq.claim(end - start)
				results := seq.pool.Get(end - start)
				for i := start; i < end; i++ {
					if stop.Load() {
						seq.fail(ctx.Err())
						return
					}
					c, err := cur.At(i)
					if err != nil {
						seq.fail(err)
						return
					}
					results = append(results, e.evaluateOne(c, tc, wc))
				}
				if !seq.complete(b, results) {
					return
				}
			}
		}()
	}
	wg.Wait()

	st.PeakInFlight = seq.peak
	st.Delivered = seq.given
	if err := ctx.Err(); err != nil {
		return st, err
	}
	return st, seq.err
}

// workerBlocks is one worker's claim loop through the columnar kernel:
// identical block claiming, run-ahead window and sequencer accounting to
// the scalar loop — only the per-block evaluation differs.
func (e *Engine) workerBlocks(ctx context.Context, p *iterPlan, cu *spaceCursor,
	seq *sequencer, nextBlock *atomic.Int64, lo, hi, window int,
	tc *termCounters, stop *atomic.Bool) {
	bs := newBlockState(p)
	for {
		b := int(nextBlock.Add(1)) - 1
		start := lo + b*streamBlock
		if start >= hi {
			return
		}
		if !seq.wait(b, window) {
			return
		}
		end := start + streamBlock
		if end > hi {
			end = hi
		}
		seq.claim(end - start)
		results, ok := e.evalBlock(p, cu, bs, start, end, tc, stop, seq.pool.Get(end-start))
		if !ok {
			seq.fail(ctx.Err())
			return
		}
		if !seq.complete(b, results) {
			return
		}
	}
}
