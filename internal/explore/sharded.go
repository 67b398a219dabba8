// Sequencer-free sharded reduction: when a caller consumes a stream only
// through mergeable reducers, ordered delivery buys nothing — the reducers
// are fold-order-insensitive under the Merge laws (merge.go). Engine.Reduce
// therefore skips the sequencer entirely: the index range is split into
// static, contiguous, block-aligned per-worker shards; each worker folds its
// shard into worker-local reducer shards (no cross-goroutine Result handoff,
// no pending-block map, no run-ahead window, no pooled result slices
// crossing workers); and the shards are merged into the caller's reducers in
// worker-index order at the end.
//
// Determinism argument. Per-candidate Results are bit-identical to the
// ordered path's: both evaluate through the same per-goroutine evaluator
// (rangeEval) over the same model. Given that, each reducer
// reproduces the single-pass ordered fold exactly:
//
//   - TopK/PointTopK: the comparator is a total order, so the retained set
//     is the top K of the union regardless of partition — merging is fully
//     associative and commutative.
//   - FrontierReducer/PointFrontier: shards are contiguous index ranges
//     merged in worker-index order, which IS enumeration order, so the
//     first-occurrence rule for coincident (embodied, operational) pairs
//     resolves to the same representative the ordered pass keeps. (This is
//     why shards are static ranges rather than dynamically claimed blocks:
//     dynamic claiming would interleave shard contents and lose the rule.)
//   - RunningStats: counts and extrema commute; the sum lives in a
//     fixed-point superaccumulator (exactsum.go), so it is exact — no float
//     summation-order drift.
//
// TestReduceMatchesStreamOracle pins all of this differentially against the
// ordered Stream path, snapshot-byte for snapshot-byte.
package explore

import (
	"context"
	"fmt"
	"sync"
)

// Reducer is the contract Engine.Reduce folds through: a streaming reducer
// that can spawn an empty shard of its own kind and absorb one back. All
// five built-in reducers (TopK, FrontierReducer, PointTopK, PointFrontier,
// RunningStats) and Collector implement it. MergeShard is only defined for
// a shard produced by the receiver's own NewShard.
type Reducer interface {
	// Fold absorbs one result (in enumeration order within a shard).
	Fold(Result)
	// NewShard returns an empty reducer of the same kind and configuration
	// (e.g. the same K bound).
	NewShard() Reducer
	// MergeShard folds a NewShard-produced peer into the receiver.
	MergeShard(Reducer)
}

// Fold offers one result; failed results are ignored (TopK.Add).
func (t *TopK) Fold(r Result) { t.Add(r) }

// NewShard returns an empty TopK with the same bound.
func (t *TopK) NewShard() Reducer { return NewTopK(t.h.k) }

// MergeShard folds a TopK shard into t.
func (t *TopK) MergeShard(o Reducer) { t.Merge(o.(*TopK)) }

// Fold offers one result; failed results are ignored (FrontierReducer.Add).
func (f *FrontierReducer) Fold(r Result) { f.Add(r) }

// NewShard returns an empty frontier.
func (f *FrontierReducer) NewShard() Reducer { return NewFrontierReducer() }

// MergeShard folds a frontier shard into f.
func (f *FrontierReducer) MergeShard(o Reducer) { f.Merge(o.(*FrontierReducer)) }

// Fold projects a successful result to its point and offers it; failed
// results are ignored (they carry no carbon figures to rank).
func (t *PointTopK) Fold(r Result) {
	if r.Err == nil {
		t.Add(PointOf(r))
	}
}

// NewShard returns an empty PointTopK with the same bound.
func (t *PointTopK) NewShard() Reducer { return NewPointTopK(t.h.k) }

// MergeShard folds a PointTopK shard into t.
func (t *PointTopK) MergeShard(o Reducer) { t.Merge(o.(*PointTopK)) }

// Fold projects a successful result to its point and offers it.
func (f *PointFrontier) Fold(r Result) {
	if r.Err == nil {
		f.Add(PointOf(r))
	}
}

// NewShard returns an empty point frontier.
func (f *PointFrontier) NewShard() Reducer { return NewPointFrontier() }

// MergeShard folds a point-frontier shard into f.
func (f *PointFrontier) MergeShard(o Reducer) { f.Merge(o.(*PointFrontier)) }

// Fold folds one result into the counters (RunningStats.Add).
func (s *RunningStats) Fold(r Result) { s.Add(r) }

// NewShard returns empty stats.
func (s *RunningStats) NewShard() Reducer { return &RunningStats{} }

// MergeShard folds a stats shard into s.
func (s *RunningStats) MergeShard(o Reducer) { s.Merge(o.(*RunningStats)) }

// Collector retains every result in enumeration order — the Reduce-path
// equivalent of an appending Sink, for callers that need the results
// themselves over a small range (internal/optimize's pair runs). Shards are
// contiguous index ranges merged in enumeration order, so Results ends up
// exactly as an ordered Stream would have delivered it. Memory is
// O(range); do not use it over unbounded spaces.
type Collector struct {
	Results []Result
}

// Fold appends one result.
func (c *Collector) Fold(r Result) { c.Results = append(c.Results, r) }

// NewShard returns an empty collector.
func (c *Collector) NewShard() Reducer { return &Collector{} }

// MergeShard appends a collector shard's results.
func (c *Collector) MergeShard(o Reducer) {
	c.Results = append(c.Results, o.(*Collector).Results...)
}

// Reduce evaluates a space through the sequencer-free sharded path, folding
// every result into the given reducers. It is the fast path for Stream
// callers whose sink is only reducers: same Results, same final reducer
// states (see the package note's determinism argument), but no ordered
// delivery — workers fold locally and merge at the end. On error or
// cancellation the caller's reducers are left untouched.
func (e *Engine) Reduce(ctx context.Context, s Space, reducers ...Reducer) (StreamStats, error) {
	it, err := s.Iter()
	if err != nil {
		return StreamStats{}, err
	}
	return e.ReduceSource(ctx, it, reducers...)
}

// ReduceSource is Reduce over any positional candidate source. Sources
// implementing Planner are compiled into a term-reuse plan for the call.
func (e *Engine) ReduceSource(ctx context.Context, src Source, reducers ...Reducer) (StreamStats, error) {
	if e.Model == nil {
		return StreamStats{}, fmt.Errorf("explore: engine has no model")
	}
	if p, ok := src.(Planner); ok {
		src = p.Plan()
	}
	return e.reduceRange(ctx, src, 0, src.Len(), reducers)
}

// ReduceRange is ReduceSource restricted to the half-open index window
// [lo, hi) of the source's enumeration order. Like StreamRange, a compiled
// plan passed across many windows shares its embodied-term slots instead of
// recompiling per call.
func (e *Engine) ReduceRange(ctx context.Context, src Source, lo, hi int, reducers ...Reducer) (StreamStats, error) {
	if e.Model == nil {
		return StreamStats{}, fmt.Errorf("explore: engine has no model")
	}
	if p, ok := src.(Planner); ok {
		src = p.Plan()
	}
	if lo < 0 || hi > src.Len() || lo > hi {
		return StreamStats{}, fmt.Errorf("explore: reduce range [%d, %d) outside source of %d candidates", lo, hi, src.Len())
	}
	return e.reduceRange(ctx, src, lo, hi, reducers)
}

func (e *Engine) reduceRange(ctx context.Context, src Source, lo, hi int, rs []Reducer) (st StreamStats, err error) {
	// Serial-path containment, mirroring streamRange: a panic on this
	// goroutine surfaces as a *PanicError (worker goroutines carry their
	// own recovery below).
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
	blocks := (n + streamBlock - 1) / streamBlock
	workers := e.workers()
	if workers > blocks {
		workers = blocks
	}

	// One cancel fan-in for both abort causes — caller cancellation and a
	// peer worker's failure — so every worker's per-candidate stop check
	// covers both and the whole pool halts promptly.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop, unwatch := watchContext(cctx)
	defer unwatch()
	var (
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		if err == nil {
			return
		}
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		cancel()
	}

	// Static, contiguous, block-aligned shards: worker w owns blocks
	// [w·q + min(w, rem), …) — the first rem workers take one extra block.
	// Contiguity in worker order is what keeps the frontier merge exact
	// (see the package note).
	shards := make([][]Reducer, workers)
	evs := make([]rangeEval, workers)
	for w := range shards {
		shard := make([]Reducer, len(rs))
		for j, r := range rs {
			shard[j] = r.NewShard()
		}
		shards[w] = shard
		evs[w] = e.newRangeEval(cctx, src, stop, tc)
	}
	folded := make([]int, workers)
	q, rem := blocks/workers, blocks%workers
	runShard := func(w int) error {
		bstart := w * q
		if w < rem {
			bstart += w
		} else {
			bstart += rem
		}
		bcount := q
		if w < rem {
			bcount++
		}
		slo := lo + bstart*streamBlock
		shi := slo + bcount*streamBlock
		if shi > hi {
			shi = hi
		}
		ev := &evs[w]
		buf := make([]Result, 0, streamBlock) // constant: stays on the stack
		for start := slo; start < shi; start += ev.step {
			var err error
			if buf, err = ev.eval(start, min(start+ev.step, shi), buf[:0]); err != nil {
				return err
			}
			for i := range buf {
				for _, r := range shards[w] {
					r.Fold(buf[i])
				}
			}
			folded[w] += len(buf)
		}
		return nil
	}

	if workers == 1 {
		fail(runShard(0))
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Worker containment: a panic in decode or evaluation fails
				// the reduce with a *PanicError instead of crashing the
				// process.
				defer func() {
					if r := recover(); r != nil {
						fail(newPanicError(r))
					}
				}()
				fail(runShard(w))
			}(w)
		}
		wg.Wait()
	}

	st = finishStreamStats(st, tc)
	for _, f := range folded {
		st.Delivered += f
	}
	// In flight at any moment: one evaluator step per worker — a candidate
	// on the scalar path, a block buffer through the kernel.
	st.PeakInFlight = min(workers*evs[0].step, n)
	if err := ctx.Err(); err != nil {
		return st, err
	}
	errMu.Lock()
	ferr := firstErr
	errMu.Unlock()
	if ferr != nil {
		return st, ferr
	}
	for _, shard := range shards {
		for j, r := range rs {
			r.MergeShard(shard[j])
		}
	}
	st.ShardsMerged = workers
	e.shardsMerged.Add(uint64(workers))
	e.seqBypassed.Add(1)
	return st, nil
}
