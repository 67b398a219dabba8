package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/params"
	"repro/internal/server/apitypes"
)

// runSweep is the library path (cmd/explore, cmd/sweep): closed loop, one
// caller, cold Engine.Reduce calls — a fresh two-worker engine each call,
// TopK(10) + FrontierReducer + RunningStats — over a 480,000-candidate
// space. No HTTP, store or dispatch runs.
func runSweep(e *env) error {
	var model *core.Model
	teardown, err := e.setUp(func() (func(), error) {
		m, err := core.New(params.Default())
		model = m
		return func() {}, err
	})
	if err != nil {
		return err
	}
	defer teardown()
	if err := probeSpace(e, sweepSpace(e, 0), 256); err != nil {
		return err
	}

	type call struct {
		spec  apitypes.SpaceSpec
		snaps [][]byte // reducer snapshots, kept for the oracle calls
	}
	var (
		calls       []call
		stats       explore.Stats
		reduce      time.Duration
		fold, merge time.Duration
	)
	ctx := context.Background()
	e.begin()
	for i := 0; i == 0 || !e.over(); i++ {
		spec := sweepSpace(e, i)
		space, err := spec.Space()
		if err != nil {
			return err
		}
		eng := explore.New(model)
		eng.Workers = 2
		top, front, rstats := explore.NewTopK(10), explore.NewFrontierReducer(), &explore.RunningStats{}
		rs := []explore.Reducer{top, front, rstats}
		var timer *foldTimer
		if e.tr != nil {
			timer = &foldTimer{rs: rs}
			rs = []explore.Reducer{timer}
		}
		t0 := time.Now()
		if _, err := eng.Reduce(ctx, space, rs...); err != nil {
			return fmt.Errorf("reduce call %d: %w", i, err)
		}
		t1 := time.Now()
		e.tr.add("sweep.reduce", traceID("sweep", i), t0, t1)
		e.op(t1.Sub(t0), space.Size())
		addStats(&stats, eng.Stats())
		reduce += t1.Sub(t0)
		if timer != nil {
			fold += timer.fold
			merge += timer.merge
		}
		c := call{spec: spec}
		if i%10 == 0 {
			if c.snaps, err = snapshots(top, front, rstats); err != nil {
				return err
			}
		}
		calls = append(calls, c)
	}
	e.finish()
	e.setExplore(explore.Stats{}, stats, e.cands)
	e.set("explore.reduce_s", reduce.Seconds())
	e.set("explore.fold_s", fold.Seconds())
	e.set("explore.merge_s", merge.Seconds())

	// Oracles, untimed: every call's kernel output on 256 seeded candidates
	// equals the scalar core model bit for bit, and one call in ten folds to
	// the same reducer snapshots through the ordered Stream path.
	for i, c := range calls {
		space, err := c.spec.Space()
		if err != nil {
			return err
		}
		if err := checkSampled(e, model, space, i); err != nil {
			return err
		}
		if c.snaps == nil {
			continue
		}
		eng := explore.New(model)
		eng.Workers = 2
		top, front, rstats := explore.NewTopK(10), explore.NewFrontierReducer(), &explore.RunningStats{}
		if _, err := eng.Stream(ctx, space, func(r explore.Result) error {
			top.Add(r)
			front.Add(r)
			rstats.Add(r)
			return nil
		}); err != nil {
			return fmt.Errorf("stream oracle, call %d: %w", i, err)
		}
		want, err := snapshots(top, front, rstats)
		if err != nil {
			return err
		}
		if e.tamper && i == 0 {
			c.snaps[0][len(c.snaps[0])/2] ^= 1
		}
		for k := range want {
			if !bytes.Equal(c.snaps[k], want[k]) {
				e.mismatch("sweep call %d: reducer %d differs from the ordered Stream oracle", i, k)
			}
		}
	}
	return nil
}

// snapshots serializes the three sweep reducers.
func snapshots(top *explore.TopK, front *explore.FrontierReducer, st *explore.RunningStats) ([][]byte, error) {
	a, err := top.Snapshot()
	if err != nil {
		return nil, err
	}
	b, err := front.Snapshot()
	if err != nil {
		return nil, err
	}
	c, err := st.Snapshot()
	if err != nil {
		return nil, err
	}
	return [][]byte{a, b, c}, nil
}

// checkSampled evaluates four seeded 64-candidate windows of the space
// through the block kernel on a fresh engine and compares each result with
// core.Model.Total on the decoded candidate, bit for bit.
func checkSampled(e *env, model *core.Model, space explore.Space, call int) error {
	it, err := space.Iter()
	if err != nil {
		return err
	}
	plan, cur := it.Plan(), it.Cursor()
	eng := explore.New(model)
	r := rng(e.seed, streamSample, call)
	const window = 64
	for k := 0; k < 4; k++ {
		lo := r.Intn(max(1, it.Len()-window+1))
		hi := min(lo+window, it.Len())
		var col explore.Collector
		if _, err := eng.ReduceRange(context.Background(), plan, lo, hi, &col); err != nil {
			return err
		}
		for j, got := range col.Results {
			c, err := cur.At(lo + j)
			if err != nil {
				return err
			}
			want, werr := model.Total(c.Design, c.Workload, c.Eff)
			switch {
			case (got.Err == nil) != (werr == nil):
				e.mismatch("sweep call %d candidate %d: kernel error %v, core error %v", call, lo+j, got.Err, werr)
			case werr == nil && !sameBits(got.Total(), want.Total.Kg(), got.Embodied(), want.Embodied.Total.Kg()):
				e.mismatch("sweep call %d candidate %d: kernel total %v, core total %v", call, lo+j, got.Total(), want.Total.Kg())
			}
		}
	}
	return nil
}

// sameBits compares float pairs bit for bit.
func sameBits(pairs ...float64) bool {
	for i := 0; i+1 < len(pairs); i += 2 {
		if math.Float64bits(pairs[i]) != math.Float64bits(pairs[i+1]) {
			return false
		}
	}
	return true
}
