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
// shared, reports are never mutated once delivered) — reducers may retain
// them.
type Sink func(Result) error

// StreamStats describes one Stream call's pipeline behaviour.
type StreamStats struct {
	// Candidates is the size of the streamed space.
	Candidates int
	// Delivered counts results handed to the sink (< Candidates when the
	// stream aborted).
	Delivered int
	// PeakInFlight is the high-water mark of candidates decoded or
	// evaluated but not yet delivered — the pipeline's working-set bound.
	// A parallel ordered stream measures it (at most workers ×
	// maxAheadBlocks blocks); a serial stream or a Reduce call holds one
	// evaluator step per goroutine: a block through the kernel, one
	// candidate on the scalar path.
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
	e.prepareCache(src, n)
	tc := &termCounters{}
	stop, unwatch := watchContext(ctx)
	defer unwatch()
	workers := e.workers()
	if workers > (n+streamBlock-1)/streamBlock {
		workers = (n + streamBlock - 1) / streamBlock
	}
	if workers <= 1 {
		ev := e.newRangeEval(ctx, src, stop, tc)
		st, err = streamSerial(&ev, lo, hi, sink, st)
	} else {
		st, err = e.streamParallel(ctx, src, lo, hi, sink, st, workers, stop, tc)
	}
	return finishStreamStats(st, tc), err
}

// prepareCache builds the engine's caches before a stream or reduce touches
// them: memo pins the fingerprint words and the embodied cache that plan
// slots resolve through, so it runs for every source. Only the scalar path
// inserts evaluation memo entries — one per distinct candidate on a cold
// stream — so only it sizes the memo for n up front (a no-op for warm or
// bounded caches); the block kernel never touches the memo.
func (e *Engine) prepareCache(src Source, n int) {
	memo := e.memo()
	if e.blockPlan(src) == nil {
		memo.reserve(n)
	}
}

// finishStreamStats folds the per-call term counters into the stats.
func finishStreamStats(st StreamStats, tc *termCounters) StreamStats {
	st.EmbodiedHits = int(tc.hits.Load())
	st.EmbodiedMisses = int(tc.misses.Load())
	st.BlockCandidates = int(tc.block.Load())
	return st
}

// rangeEval is one goroutine's evaluator, and its constructor makes the
// only kernel-or-oracle choice: a planned space (blockPlan) evaluates
// through the columnar kernel, anything else candidate by candidate
// through the scalar oracle with the goroutine's baseline shortcut. The
// serial stream, the sequenced workers and the sharded reduce are each one
// loop over eval.
type rangeEval struct {
	e    *Engine
	ctx  context.Context // the context stop watches; its error reports a halt
	stop *atomic.Bool
	tc   *termCounters
	// step is the window the serial stream and the reduce shards evaluate
	// at a time: one kernel block when planned, one candidate on the
	// scalar path, so a serial scalar stream delivers each result as soon
	// as it exists.
	step int

	plan *iterPlan    // nil on the scalar path
	cu   *spaceCursor // planned: the kernel's cursor and scratch
	bs   *blockState
	cur  SourceCursor // scalar: the decoder and baseline shortcut
	wc   workerCache
}

func (e *Engine) newRangeEval(ctx context.Context, src Source, stop *atomic.Bool, tc *termCounters) rangeEval {
	ev := rangeEval{e: e, ctx: ctx, stop: stop, tc: tc, step: 1, plan: e.blockPlan(src)}
	if ev.plan == nil {
		ev.cur = src.Cursor()
		return ev
	}
	ev.step = streamBlock
	ev.cu = ev.plan.Cursor().(*spaceCursor)
	ev.bs = newBlockState(ev.plan)
	return ev
}

// eval appends the results of candidates [start, end) to out in
// enumeration order. It fails with the context's error when the stream
// halted, and with the cursor's error when a candidate does not decode.
func (ev *rangeEval) eval(start, end int, out []Result) ([]Result, error) {
	if ev.stop.Load() {
		return out, ev.ctx.Err()
	}
	if ev.plan != nil {
		var ok bool
		if out, ok = ev.e.evalBlock(ev.plan, ev.cu, ev.bs, start, end, ev.tc, ev.stop, out); !ok {
			return out, ev.ctx.Err()
		}
		return out, nil
	}
	for i := start; i < end; i++ {
		if ev.stop.Load() {
			return out, ev.ctx.Err()
		}
		c, err := ev.cur.At(i)
		if err != nil {
			return out, err
		}
		out = append(out, ev.e.evaluateOne(c, ev.tc, &ev.wc))
	}
	return out, nil
}

// streamSerial is the single-worker stream: one evaluator step at a time
// into one reused buffer, sunk in order before the next step. The working
// set is that buffer — one candidate on the scalar path, one block through
// the kernel — which PeakInFlight reports.
func streamSerial(ev *rangeEval, lo, hi int, sink Sink, st StreamStats) (StreamStats, error) {
	st.PeakInFlight = min(ev.step, hi-lo)
	// A constant capacity keeps the buffer on this goroutine's stack.
	buf := make([]Result, 0, streamBlock)
	for start := lo; start < hi; start += ev.step {
		var err error
		if buf, err = ev.eval(start, min(start+ev.step, hi), buf[:0]); err != nil {
			return st, err
		}
		for i := range buf {
			if err := sink(buf[i]); err != nil {
				return st, err
			}
			st.Delivered++
		}
		// Stale references in the reused buffer are overwritten by the next
		// step's appends; no clear needed between steps.
	}
	return st, ev.ctx.Err()
}

// blockPool recycles block result slices between workers. The engine
// owns one, so ordered streams share their blocks across calls instead of
// allocating a fresh set per call.
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
	pool    *blockPool // the engine's
	err     error      // first sink error; delivery stops after it

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
// contiguous frontier. Drained block slices go back to the engine's pool,
// so a long stream, and the streams after it, recycle a fixed set of
// blocks instead of allocating one per 64 candidates. Returns false when
// the stream has failed and workers should stop claiming.
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
		// Indexed, not ranged: a range copies each Result once more before
		// the sink's own by-value copy.
		for i := range res {
			if s.err == nil {
				if err := s.sink(res[i]); err != nil {
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
	st StreamStats, workers int, stop *atomic.Bool, tc *termCounters) (StreamStats, error) {
	seq := &sequencer{pending: make(map[int][]Result), sink: sink, pool: &e.blocks}
	seq.cond = sync.NewCond(&seq.mu)
	window := workers * maxAheadBlocks

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
			ev := e.newRangeEval(ctx, src, stop, tc)
			for {
				b := int(nextBlock.Add(1)) - 1
				start := lo + b*streamBlock
				if start >= hi || !seq.wait(b, window) {
					return
				}
				end := min(start+streamBlock, hi)
				seq.claim(end - start)
				results, err := ev.eval(start, end, seq.pool.Get(end-start))
				if err != nil {
					seq.fail(err)
					return
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
