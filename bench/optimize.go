package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/optimize"
	"repro/internal/params"
	"repro/internal/server"
	"repro/internal/server/apitypes"
)

// runOptimize is the search path: closed loop, one client, proven-optimal
// POST /v1/optimize requests (halving driver) over 3.24×10⁸-candidate
// spaces. Embodied bound probes and pruning dominate; the store and
// dispatch never run.
func runOptimize(e *env) error {
	var (
		srv *server.Server
		ts  *httptest.Server
		hs  *handlerStats
	)
	teardown, err := e.setUp(func() (func(), error) {
		var stop func()
		srv, ts, hs, stop = serve(e, server.Options{})
		return stop, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	if err := probeSpace(e, optimizeSpace(e, 0), 256); err != nil {
		return err
	}

	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	var (
		first     []byte
		firstReq  apitypes.OptimizeRequest
		evals     float64
		probes    float64
		charged   float64
		pruned    float64
		blocks    float64
		submitted []traced
	)
	before := srv.Engine().Stats()
	e.begin()
	for i := 0; i == 0 || !e.over(); i++ {
		req := apitypes.OptimizeRequest{Space: optimizeSpace(e, i), Driver: "halving", Seed: e.seed + int64(i)}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/optimize", bytes.NewReader(body))
		if err != nil {
			return err
		}
		hreq.Header.Set("Content-Type", "application/json")
		trace := traceID("opt", i)
		if e.tr != nil {
			hreq.Header.Set("X-Bench-Trace", trace)
		}
		t0 := time.Now()
		resp, err := hc.Do(hreq)
		if err != nil {
			return err
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		t1 := time.Now()
		if err != nil || resp.StatusCode != http.StatusOK {
			fmt.Fprintf(os.Stderr, "bench: optimize request %d: %s %s\n", i, resp.Status, out)
			e.opFailed()
			continue
		}
		e.tr.add("optimize.request", trace, t0, t1)
		submitted = append(submitted, traced{trace, t1.Sub(t0)})
		var or apitypes.OptimizeResponse
		if err := json.Unmarshal(out, &or); err != nil {
			return err
		}
		if !or.Stats.Complete {
			e.mismatch("optimize request %d: not proven optimal (complete: false)", i)
		}
		e.op(t1.Sub(t0), or.Stats.SpaceSize)
		evals += float64(or.Stats.Evaluations)
		probes += float64(or.Stats.BoundProbes)
		charged += or.Stats.EvaluatedFraction
		pruned += float64(or.Stats.PrunedBlocks)
		blocks += float64(or.Stats.Blocks)
		if first == nil {
			first, firstReq = out, req
		}
	}
	e.finish()
	if e.tr != nil {
		n := float64(len(e.lat))
		e.setExplore(before, srv.Engine().Stats(), evals)
		e.setServer(hs)
		e.set("server.wait_ms_p50", waitMS(hs, submitted))
		e.set("optimize.evaluations", ratio(evals, n))
		e.set("optimize.bound_probes", ratio(probes, n))
		e.set("optimize.charged_fraction", ratio(charged, n))
		e.set("optimize.pruned_block_ratio", ratio(pruned, blocks))
	}
	if first == nil {
		return nil
	}

	// Oracle, untimed: the first response equals an in-process optimize.Run
	// on a fresh engine, rendered as the handler renders it, bit for bit.
	want, err := optimizeReference(firstReq)
	if err != nil {
		return err
	}
	if e.tamper {
		first[len(first)/2] ^= 1
	}
	if !bytes.Equal(first, want) {
		e.mismatch("optimize: first response differs from the in-process optimize.Run")
	}
	return nil
}

// optimizeReference runs a request in-process with the server's default
// budget and renders the response body the handler would send.
func optimizeReference(req apitypes.OptimizeRequest) ([]byte, error) {
	model, err := core.New(params.Default())
	if err != nil {
		return nil, err
	}
	space, err := req.Space.SpaceWith(model.GridDB())
	if err != nil {
		return nil, err
	}
	res, err := optimize.Run(context.Background(), explore.New(model), space, optimize.Options{
		Driver: optimize.Halving, Seed: req.Seed, Budget: server.DefaultMaxOptimizeBudget,
	})
	if err != nil {
		return nil, err
	}
	resp := apitypes.OptimizeResponse{Found: res.Found, Stats: apitypes.NewOptimizeStats(res.Stats)}
	if res.Found {
		best := apitypes.NewExploreResult(res.Best)
		resp.Best = &best
		resp.BestIndex = res.BestIndex
	}
	b, err := json.Marshal(resp)
	return append(b, '\n'), err
}
