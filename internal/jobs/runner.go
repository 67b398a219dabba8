// The checkpointed job runner. Every job runs as K ≥ 1 fixed, contiguous
// index-range shards — K = 1 unless Options.JobShards splits a large job —
// executed concurrently. Each shard advances in checkpoint-sized chunks
// over the sequencer-free reduce path (explore.ReduceRange), and after
// every chunk its cursor and reducer snapshots are persisted inside one
// whole-job checkpoint record, which also carries the chunk's progress
// event. Any interruption — panic, fault, park, crash — resumes each shard
// from its own last durable cursor, so clean shards are not re-evaluated;
// and because reducer restore is bit-exact and the terminal summary
// merges the shard snapshots in index order (the explore merge laws), the
// summary is byte-identical to an uninterrupted run however many times,
// and however many ways, the job was cut.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"repro/internal/explore"
	"repro/internal/faultpoint"
)

// reducers bundles the three online reducers a job folds its stream into.
type reducers struct {
	ranked   *explore.PointTopK
	frontier *explore.PointFrontier
	stats    *explore.RunningStats
}

// newReducers builds the reducer set — fresh with the given ranking bound,
// or restored from a shard's snapshots (which carry their own bound).
func newReducers(top int, sc *ShardCheckpoint) (*reducers, error) {
	r := &reducers{
		ranked:   explore.NewPointTopK(top),
		frontier: explore.NewPointFrontier(),
		stats:    &explore.RunningStats{},
	}
	if sc == nil {
		return r, nil
	}
	if err := r.ranked.Restore(sc.Ranked); err != nil {
		return nil, fmt.Errorf("jobs: restore ranking: %w", err)
	}
	if err := r.frontier.Restore(sc.Frontier); err != nil {
		return nil, fmt.Errorf("jobs: restore frontier: %w", err)
	}
	if err := r.stats.Restore(sc.Stats); err != nil {
		return nil, fmt.Errorf("jobs: restore stats: %w", err)
	}
	return r, nil
}

// shardCheckpoint snapshots the reducer set as shard [lo, hi)'s durable
// state with its cursor at nextIndex.
func (r *reducers) shardCheckpoint(lo, hi, nextIndex int) (ShardCheckpoint, error) {
	ranked, err := r.ranked.Snapshot()
	if err != nil {
		return ShardCheckpoint{}, err
	}
	frontier, err := r.frontier.Snapshot()
	if err != nil {
		return ShardCheckpoint{}, err
	}
	stats, err := r.stats.Snapshot()
	if err != nil {
		return ShardCheckpoint{}, err
	}
	return ShardCheckpoint{Lo: lo, Hi: hi, NextIndex: nextIndex,
		Ranked: ranked, Frontier: frontier, Stats: stats}, nil
}

// add folds one result into the set.
func (r *reducers) add(res explore.Result) {
	r.stats.Add(res)
	if res.Err == nil {
		p := explore.PointOf(res)
		r.ranked.Add(p)
		r.frontier.Add(p)
	}
}

// merge folds in a set covering the index range right after r's.
func (r *reducers) merge(o *reducers) {
	r.ranked.Merge(o.ranked)
	r.frontier.Merge(o.frontier)
	r.stats.Merge(o.stats)
}

// fold folds [lo, hi) into the set over the sequencer-free reduce path.
// explore.ReduceRange merges into the set only on success, so a failed
// chunk leaves it untouched and needs no rollback.
func (r *reducers) fold(ctx context.Context, eng *explore.Engine, src explore.Source, lo, hi int) error {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	f := &chunkFold{red: r, fault: &chunkFault{cancel: cancel}}
	_, err := eng.ReduceRange(cctx, src, lo, hi, f)
	if f.fault.err != nil {
		return f.fault.err
	}
	return err
}

// chunkFold is the one reducer a chunk hands the engine. Per result it
// fires FaultPointSink, then folds into its reducer set: the shard's set,
// or an engine worker's share of it. An armed error cancels the chunk and
// becomes its error; an armed panic is contained by the engine like any
// worker panic.
type chunkFold struct {
	red   *reducers
	fault *chunkFault // shared by every worker's share of one chunk
}

type chunkFault struct {
	cancel context.CancelFunc
	once   sync.Once
	err    error
}

func (c *chunkFold) Fold(res explore.Result) {
	if err := faultpoint.Hit(FaultPointSink); err != nil {
		c.fault.once.Do(func() { c.fault.err = err; c.fault.cancel() })
		return
	}
	c.red.add(res)
}

func (c *chunkFold) NewShard() explore.Reducer {
	return &chunkFold{red: &reducers{
		ranked:   c.red.ranked.NewShard().(*explore.PointTopK),
		frontier: explore.NewPointFrontier(),
		stats:    &explore.RunningStats{},
	}, fault: c.fault}
}

func (c *chunkFold) MergeShard(o explore.Reducer) { c.red.merge(o.(*chunkFold).red) }

// summaryBytes renders the canonical summary. All numeric inputs are
// restored bit-exactly, so the bytes are identical across resumes.
func (r *reducers) summaryBytes(total int) ([]byte, error) {
	sum := Summary{
		Candidates: total,
		Evaluated:  r.stats.OK,
		Failed:     r.stats.Failed,
		Ranked:     pointIDs(r.ranked.Points()),
		Frontier:   pointIDs(r.frontier.Points()),
		MinKg:      r.stats.MinTotal,
		MaxKg:      r.stats.MaxTotal,
		MeanKg:     r.stats.MeanTotal(),
	}
	return json.Marshal(sum)
}

func pointIDs(pts []explore.Point) []string {
	out := make([]string, len(pts))
	for i, p := range pts {
		out[i] = p.ID
	}
	return out
}

// mergeShardCheckpoints restores every shard's reducer snapshots and merges
// them in index order into one reducer set. Shards are contiguous ranges
// merged in enumeration order, so the result matches a single-cursor fold
// bit for bit (frontier first-occurrence rule included).
func mergeShardCheckpoints(top int, shards []ShardCheckpoint) (*reducers, error) {
	merged, _ := newReducers(top, nil)
	for i := range shards {
		sh, err := newReducers(top, &shards[i])
		if err != nil {
			return nil, fmt.Errorf("jobs: shard %d: %w", i, err)
		}
		merged.merge(sh)
	}
	return merged, nil
}

// NewShardState returns the durable state of an untouched shard [lo, hi):
// fresh reducer snapshots with the cursor at lo. It is the zero point the
// runner, the dispatch benchmarks and the replica harness all start from.
func NewShardState(top, lo, hi int) (ShardCheckpoint, error) {
	red, _ := newReducers(top, nil)
	return red.shardCheckpoint(lo, hi, lo)
}

// RunShardChunk executes one shard chunk from its durable state: restore
// the reducer set from sc's snapshots, fold [sc.NextIndex, chunkHi), and
// snapshot the advanced state. A replica's /v1/shards/run handler calls
// it. The in-process runner folds the same range into a live reducer set
// equal to those snapshots (the explore snapshot contract), so a chunk
// computes byte-identical snapshots wherever it runs.
func RunShardChunk(ctx context.Context, eng *explore.Engine, src explore.Source, top int,
	sc ShardCheckpoint, chunkHi int) (ShardCheckpoint, error) {
	red, err := newReducers(top, &sc)
	if err != nil {
		return ShardCheckpoint{}, err
	}
	if err := red.fold(ctx, eng, src, sc.NextIndex, chunkHi); err != nil {
		return ShardCheckpoint{}, err
	}
	return red.shardCheckpoint(sc.Lo, sc.Hi, chunkHi)
}

// validChunk checks a dispatched chunk result against its request: the
// range must be unchanged and the cursor advanced exactly to ChunkHi,
// with all three snapshots present. Anything else is treated as a
// dispatch failure and the chunk re-runs locally.
func validChunk(req ChunkRequest, sc ShardCheckpoint) bool {
	return sc.Lo == req.State.Lo && sc.Hi == req.State.Hi && sc.NextIndex == req.ChunkHi &&
		len(sc.Ranked) > 0 && len(sc.Frontier) > 0 && len(sc.Stats) > 0
}

// runChunk executes one chunk of shard req.Shard: the configured Dispatch
// hook (a replica fleet) gets the first offer; any dispatch failure falls
// back to in-process execution of the same range. Both venues compute the
// same snapshots, so the venue can never change the resulting bytes —
// which is what makes at-least-once dispatch (a replica that died after
// finishing, a lease that expired on a slow but alive worker) safe.
//
// live is the shard's live reducer set: equal to req.State's snapshots, or
// nil when it must be restored from them first. A replica's result leaves
// it behind, so it is dropped then.
func (s *Service) runChunk(ctx context.Context, req ChunkRequest,
	eng *explore.Engine, src explore.Source, live **reducers) (ShardCheckpoint, error) {
	if d := s.opts.Dispatch; d != nil {
		sc, err := d(ctx, req)
		switch {
		case err == nil && validChunk(req, sc):
			*live = nil
			return sc, nil
		case ctx.Err() != nil:
			return ShardCheckpoint{}, ctx.Err()
		case err == nil:
			s.logf("job %s: shard %d: dispatched chunk returned inconsistent state ([%d,%d) next %d, want [%d,%d) next %d) — running locally",
				req.Job.ID, req.Shard, sc.Lo, sc.Hi, sc.NextIndex, req.State.Lo, req.State.Hi, req.ChunkHi)
		case !errors.Is(err, ErrNoDispatch):
			s.logf("job %s: shard %d: dispatch of [%d,%d) failed: %v — running locally",
				req.Job.ID, req.Shard, req.State.NextIndex, req.ChunkHi, err)
		}
	}
	return runLocal(ctx, req, eng, src, live)
}

// runLocal folds a chunk into the shard's live reducer set in-process and
// snapshots the result. A panic on this goroutine (an armed fault point,
// say) is contained the way the engine contains worker panics, so the
// caller's retry-once policy applies uniformly; the live set is restored
// afterwards whenever it may have moved past req.State.
func runLocal(ctx context.Context, req ChunkRequest, eng *explore.Engine,
	src explore.Source, live **reducers) (sc ShardCheckpoint, err error) {
	defer func() {
		if r := recover(); r != nil {
			*live = nil
			err = &explore.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if err := faultpoint.Hit(FaultPointShardChunk); err != nil {
		return ShardCheckpoint{}, err
	}
	if *live == nil {
		if *live, err = newReducers(req.Job.Spec.Top, &req.State); err != nil {
			return ShardCheckpoint{}, err
		}
	}
	if err := (*live).fold(ctx, eng, src, req.State.NextIndex, req.ChunkHi); err != nil {
		return ShardCheckpoint{}, err
	}
	if sc, err = (*live).shardCheckpoint(req.State.Lo, req.State.Hi, req.ChunkHi); err != nil {
		*live = nil
	}
	return sc, err
}

// shardSet returns a job's shards and their live reducer sets. A recorded
// shard set is adopted as is — its ranges are fixed once a checkpoint
// holds them — with each live set restored from its snapshots. Otherwise
// [0, Total) splits evenly into the configured count, or into one shard
// when the job is small; fresh live sets are left nil, to be restored from
// the fresh snapshots by the first local chunk. A corrupt snapshot cannot
// be resumed, so the job then restarts from index 0 rather than wedging.
func (s *Service) shardSet(id string, job Job, saved []ShardCheckpoint) ([]ShardCheckpoint, []*reducers, error) {
	live := make([]*reducers, len(saved))
	for i := range saved {
		red, err := newReducers(job.Spec.Top, &saved[i])
		if err != nil {
			s.logf("job %s: shard %d: %v — restarting from index 0", id, i, err)
			saved = nil
			break
		}
		live[i] = red
	}
	if len(saved) > 0 {
		return append([]ShardCheckpoint(nil), saved...), live, nil
	}
	k := s.opts.jobShards()
	if job.Total < s.opts.shardAbove() {
		k = 1
	} else if k > job.Total {
		k = job.Total
	}
	shards := make([]ShardCheckpoint, k)
	for i := range shards {
		sc, err := NewShardState(job.Spec.Top, i*job.Total/k, (i+1)*job.Total/k)
		if err != nil {
			return nil, nil, err
		}
		shards[i] = sc
	}
	return shards, make([]*reducers, k), nil
}

// run executes one leased job until a terminal state, a park, or an
// abort. It owns the job's state transitions while running.
func (s *Service) run(ctx context.Context, h *runHandle, id string) {
	defer func() {
		s.mu.Lock()
		delete(s.running, id)
		s.mu.Unlock()
		s.kick()
	}()

	s.mu.Lock()
	e := s.jobs[id]
	job := e.job
	var saved []ShardCheckpoint
	if e.cp != nil {
		saved = e.cp.Shards
	}
	s.mu.Unlock()

	fail := func(msg, panicMsg string) {
		s.mu.Lock()
		s.setStateLocked(e, StateFailed, msg, panicMsg)
		job := e.job
		s.lim.release(job.Tenant) // free before the terminal state shows
		s.mu.Unlock()
		s.cFailed.Add(1)
		s.persist(Record{Kind: "job", Job: &job})
		s.emit(id, Event{Type: "error", Error: msg})
		s.emit(id, Event{Type: "state", State: StateFailed})
		s.logf("job %s failed: %s", id, msg)
	}

	eng, err := s.opts.Resolve(job.Spec.Params)
	if err != nil {
		fail("resolve engine: "+err.Error(), "")
		return
	}
	space, err := job.Spec.Space.SpaceWith(eng.Model.GridDB())
	if err != nil {
		fail("invalid space: "+err.Error(), "")
		return
	}
	it, err := space.Iter()
	if err != nil {
		fail("space does not enumerate: "+err.Error(), "")
		return
	}
	// One compiled plan for the whole run: every chunk of every shard
	// shares its embodied-term slots.
	src := it.Plan()
	shards, live, err := s.shardSet(id, job, saved)
	if err != nil {
		fail("checkpoint: "+err.Error(), "")
		return
	}

	// One cancel fan-in: a fatal failure in any shard, a stop request
	// honored at a chunk boundary, or caller cancellation halts every
	// shard at its next chunk edge.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu         sync.Mutex
		failed     bool
		fatalMsg   string
		fatalPanic string
	)
	setFatal := func(msg, panicMsg string) {
		mu.Lock()
		if !failed {
			failed, fatalMsg, fatalPanic = true, msg, panicMsg
		}
		mu.Unlock()
		cancel()
	}
	// persistShard commits one shard's advanced state as a whole-job
	// checkpoint (the record carries every shard's latest durable state)
	// together with its progress event.
	persistShard := func(i int, sc ShardCheckpoint) error {
		mu.Lock()
		defer mu.Unlock()
		ncp := Checkpoint{Shards: append([]ShardCheckpoint(nil), shards...)}
		ncp.Shards[i] = sc
		for _, o := range ncp.Shards {
			// NextIndex is the monotone completed-candidate count.
			ncp.NextIndex += o.NextIndex - o.Lo
		}
		if perr := s.checkpoint(e, id, &ncp); perr != nil {
			return perr
		}
		shards[i] = sc
		return nil
	}

	every := s.opts.checkpointEvery()
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int, cur ShardCheckpoint, live *reducers) {
			defer wg.Done()
			retried := false
			for cur.NextIndex < cur.Hi {
				if cctx.Err() != nil {
					return
				}
				chunkHi := min(cur.NextIndex+every, cur.Hi)
				sc, err := s.runChunk(cctx,
					ChunkRequest{Job: job, Shard: i, State: cur, ChunkHi: chunkHi}, eng, src, &live)
				if err == nil {
					retried = false
					if perr := persistShard(i, sc); perr != nil {
						if s.aborted.Load() {
							cancel()
							return
						}
						setFatal("persist checkpoint: "+perr.Error(), "")
						return
					}
					cur = sc
					// Honor a park/cancel at the chunk boundary; siblings
					// stop at their own next edge via the shared cancel.
					if r := stopReason(h.reason.Load()); r != stopNone || cctx.Err() != nil {
						cancel()
						return
					}
					continue
				}

				// The chunk failed and left the shard's durable state (and
				// its live set, unless dropped) untouched: the only decision
				// is whether to re-run the dirty range.
				if cctx.Err() != nil {
					return
				}
				where := fmt.Sprintf("range [%d,%d)", cur.NextIndex, chunkHi)
				if len(shards) > 1 {
					where = fmt.Sprintf("shard %d %s", i, where)
				}
				var pe *explore.PanicError
				isPanic := errors.As(err, &pe)
				if !retried {
					retried = true
					msg := fmt.Sprintf("fault in %s: %v — re-running range once", where, err)
					if isPanic {
						msg = fmt.Sprintf("worker panic in %s: %v — re-running range once", where, pe.Value)
					}
					s.emit(id, Event{Type: "error", Error: msg})
					s.logf("job %s: %s", id, msg)
					continue
				}
				if isPanic {
					setFatal(fmt.Sprintf("worker panic in %s persisted across re-run", where),
						fmt.Sprintf("%v", pe.Value))
				} else {
					setFatal(fmt.Sprintf("%s failed across re-run: %v", where, err), "")
				}
				return
			}
		}(i, shards[i], live[i])
	}
	wg.Wait()

	mu.Lock()
	wasFatal, msg, pmsg := failed, fatalMsg, fatalPanic
	mu.Unlock()
	if wasFatal {
		fail(msg, pmsg)
		return
	}
	// Claim the finish: a stop request that got here first wins, and one
	// arriving later is refused (runHandle.stop reports false).
	if !h.reason.CompareAndSwap(int32(stopNone), int32(stopFinish)) || ctx.Err() != nil {
		s.stopAt(e, id, stopReason(h.reason.Load()))
		return
	}
	if s.aborted.Load() {
		return
	}

	// Terminal summary from the DURABLE shard snapshots: restore-and-merge
	// is exactly what a resume after the final checkpoint would compute,
	// so finishing now or after another crash yields the same bytes.
	merged, err := mergeShardCheckpoints(job.Spec.Top, shards)
	if err != nil {
		fail("merge shards: "+err.Error(), "")
		return
	}
	sum, err := merged.summaryBytes(job.Total)
	if err != nil {
		fail("summarize: "+err.Error(), "")
		return
	}
	s.finishDone(e, id, sum)
}

// finishDone performs the terminal done transition. The summary event is
// appended before the done job record, and the summary bytes are set in
// the same critical section as the state, so neither a reader nor a
// replay ever sees a done job without its summary.
func (s *Service) finishDone(e *jobEntry, id string, sum []byte) {
	s.emit(id, Event{Type: "summary", Summary: sum})
	s.markDone(e, id, sum)
}

// markDone is the done transition after the summary event is durable:
// state and summary bytes, counters, quota release, the job record and
// the final state event. Replay calls it directly for a job whose log
// holds a summary event but no done record.
func (s *Service) markDone(e *jobEntry, id string, sum []byte) {
	s.mu.Lock()
	s.setStateLocked(e, StateDone, "", "")
	e.summary = sum
	job := e.job
	s.lim.release(job.Tenant) // free before the terminal state shows
	s.mu.Unlock()
	s.cDone.Add(1)
	s.persist(Record{Kind: "job", Job: &job})
	s.emit(id, Event{Type: "state", State: StateDone})
	s.logf("job %s done (%d candidates)", id, job.Total)
}

// stopAt finalizes a runner whose shards stopped at chunk boundaries:
// user cancel → cancelled; park/drain → shedding, back in the queue;
// abort → exit without persisting anything.
func (s *Service) stopAt(e *jobEntry, id string, r stopReason) {
	switch r {
	case stopAbort:
		return
	case stopCancel:
		s.mu.Lock()
		s.setStateLocked(e, StateCancelled, "", "")
		job := e.job
		s.lim.release(job.Tenant) // free before the terminal state shows
		s.mu.Unlock()
		s.cCancelled.Add(1)
		s.persist(Record{Kind: "job", Job: &job})
		s.emit(id, Event{Type: "state", State: StateCancelled})
		s.logf("job %s cancelled", id)
	default:
		// stopPark, or a context cancellation no stop request explains
		// (service shutdown, possibly after the finish claim): park with
		// the work checkpointed.
		s.mu.Lock()
		s.setStateLocked(e, StateShedding, "", "")
		s.queue = append(s.queue, id)
		job := e.job
		at := cpIndex(e.cp)
		s.mu.Unlock()
		s.cShed.Add(1)
		s.persist(Record{Kind: "job", Job: &job})
		s.emit(id, Event{Type: "state", State: StateShedding})
		s.logf("job %s parked at %d/%d", id, at, job.Total)
	}
}
