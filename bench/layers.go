package main

// Layer accounting from outside the program: every per-layer number comes
// from timing a call into a public function or handler, or from a public
// counter's delta. Nothing here reaches into the system's internals.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/jobs"
	"repro/internal/params"
	"repro/internal/server"
)

// serve boots one server under test behind httptest, metered by
// handlerStats when the run is traced (hs is nil otherwise). stop closes
// the listener and shuts the server down.
func serve(e *env, opts server.Options) (srv *server.Server, ts *httptest.Server, hs *handlerStats, stop func()) {
	srv = server.New(opts)
	var h http.Handler = srv
	if e.tr != nil {
		hs = newHandlerStats(srv, e.tr)
		h = hs
	}
	ts = httptest.NewServer(h)
	return srv, ts, hs, func() { ts.Close(); _ = srv.Shutdown(context.Background()) }
}

// handlerStats is middleware in front of a server under test. It times
// every request except the long-lived job event streams, counts refusals
// (429), and records an http.<route> span under the trace id the client
// sent in X-Bench-Trace. On a replica it times /v1/shards/run as
// replica.shard_run, traced under the chunk's job ID.
type handlerStats struct {
	next    http.Handler
	tr      *tracer
	timings durations

	mu      sync.Mutex
	refused int
	byTrace map[string]float64 // handler ms per client trace id
}

func newHandlerStats(next http.Handler, tr *tracer) *handlerStats {
	return &handlerStats{next: next, tr: tr, byTrace: map[string]float64{}}
}

func (h *handlerStats) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, "/events") {
		h.next.ServeHTTP(w, r)
		return
	}
	name, trace := "http"+strings.ReplaceAll(strings.TrimPrefix(r.URL.Path, "/v1"), "/", "."),
		r.Header.Get("X-Bench-Trace")
	switch {
	case r.URL.Path == "/v1/shards/run":
		name, trace = "replica.shard_run", h.shardJob(r)
	case strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		name = "http.jobs.status"
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	t0 := time.Now()
	h.next.ServeHTTP(sw, r)
	t1 := time.Now()
	h.timings.add(t1.Sub(t0))
	h.tr.add(name, trace, t0, t1)
	h.mu.Lock()
	if sw.status == http.StatusTooManyRequests {
		h.refused++
	}
	if trace != "" {
		h.byTrace[trace] = float64(t1.Sub(t0)) / float64(time.Millisecond)
	}
	h.mu.Unlock()
}

// shardJob reads the job ID of a shard-run request; only traced runs pay
// for the extra decode.
func (h *handlerStats) shardJob(r *http.Request) string {
	if h.tr == nil {
		return ""
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return ""
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	var req struct {
		JobID string `json:"job_id"`
	}
	_ = json.Unmarshal(body, &req) // the server reports a malformed body itself
	return req.JobID
}

func (h *handlerStats) handlerMS(trace string) (float64, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ms, ok := h.byTrace[trace]
	return ms, ok
}

func (h *handlerStats) refusals() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.refused
}

// traced is one client-timed request and the trace id it carried.
type traced struct {
	trace string
	lat   time.Duration
}

// waitMS is the median of client-observed latency minus handler time: what
// a request spent outside the handler, in transport, queues and the
// client.
func waitMS(h *handlerStats, reqs []traced) float64 {
	var wait []float64
	for _, r := range reqs {
		if ms, ok := h.handlerMS(r.trace); ok {
			wait = append(wait, float64(r.lat)/float64(time.Millisecond)-ms)
		}
	}
	return median(wait)
}

// statusWriter captures the response status.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// storeStats decorates the job store: it times every Append, counts
// checkpoint records and bytes, and records a store.append span under the
// record's job ID.
type storeStats struct {
	jobs.Store
	tr      *tracer
	timings durations

	mu          sync.Mutex
	checkpoints int
	bytes       int
}

func (s *storeStats) Append(rec jobs.Record) error {
	t0 := time.Now()
	err := s.Store.Append(rec)
	t1 := time.Now()
	s.timings.add(t1.Sub(t0))
	id := rec.JobID
	if rec.Job != nil {
		id = rec.Job.ID
	}
	s.tr.add("store.append", id, t0, t1)
	b, _ := json.Marshal(rec) // size only; Append already reported any encoding error
	s.mu.Lock()
	if rec.Kind == "checkpoint" {
		s.checkpoints++
	}
	s.bytes += len(b) + 1
	s.mu.Unlock()
	return err
}

// foldTimer wraps a set of reducers and times them from outside the
// engine: every MergeShard (at the end of a Reduce call) and one Fold in
// foldSample (per candidate, on the workers), scaled up, so the clock
// reads cost the traced run little. Each shard sums its own fold time;
// merging adds it to the parent.
type foldTimer struct {
	rs    []explore.Reducer
	n     int
	fold  time.Duration
	merge time.Duration
}

const foldSample = 16

func (f *foldTimer) Fold(r explore.Result) {
	f.n++
	if f.n%foldSample != 0 {
		for _, x := range f.rs {
			x.Fold(r)
		}
		return
	}
	t0 := time.Now()
	for _, x := range f.rs {
		x.Fold(r)
	}
	f.fold += foldSample * time.Since(t0)
}

func (f *foldTimer) NewShard() explore.Reducer {
	shard := &foldTimer{rs: make([]explore.Reducer, len(f.rs))}
	for i, x := range f.rs {
		shard.rs[i] = x.NewShard()
	}
	return shard
}

func (f *foldTimer) MergeShard(o explore.Reducer) {
	shard := o.(*foldTimer)
	t0 := time.Now()
	for i, x := range f.rs {
		x.MergeShard(shard.rs[i])
	}
	f.merge += time.Since(t0)
	f.fold += shard.fold
}

// engineStats sums the counters of several engines.
func engineStats(engines ...*explore.Engine) explore.Stats {
	var s explore.Stats
	for _, e := range engines {
		addStats(&s, e.Stats())
	}
	return s
}

func addStats(s *explore.Stats, o explore.Stats) {
	s.Evaluations += o.Evaluations
	s.CacheHits += o.CacheHits
	s.EmbodiedEvaluations += o.EmbodiedEvaluations
	s.EmbodiedCacheHits += o.EmbodiedCacheHits
	s.BlockCandidates += o.BlockCandidates
}

// setExplore records the explore layer from a counter delta: per-operation
// evaluation counts, hit and reuse ratios, and the share of the workload's
// evaluated candidates the block kernel served.
func (e *env) setExplore(before, after explore.Stats, evaluated float64) {
	ops := float64(len(e.lat))
	evals := float64(after.Evaluations - before.Evaluations)
	hits := float64(after.CacheHits - before.CacheHits)
	embEvals := float64(after.EmbodiedEvaluations - before.EmbodiedEvaluations)
	embHits := float64(after.EmbodiedCacheHits - before.EmbodiedCacheHits)
	e.set("explore.evaluations", ratio(evals, ops))
	e.set("explore.cache_hit_ratio", ratio(hits, evals+hits))
	e.set("explore.embodied_evaluations", ratio(embEvals, ops))
	e.set("explore.embodied_reuse_ratio", ratio(embHits, embEvals+embHits))
	e.set("explore.block_share", ratio(float64(after.BlockCandidates-before.BlockCandidates), evaluated))
}

// setServer records the server layer: handler latency, how busy the
// handlers kept the process over the timed phase, and refusals per
// operation.
func (e *env) setServer(h *handlerStats) {
	e.set("server.handler_ms_p50", h.timings.quantile(0.5))
	e.set("server.handler_busy_share", ratio(h.timings.total().Seconds(), e.end.Sub(e.start).Seconds()))
	e.set("server.refused", ratio(float64(h.refusals()), float64(e.attempted)))
}

// probeCore times the core model on the workload's own distinct designs:
// a pass of EmbodiedTerm over every design, a pass of OperationalFrom on
// those terms, then a pass of the composed Total, each call recorded as a
// core.* span. Each function runs its own pass, so all three see the same
// cache state.
func probeCore(e *env) error {
	if len(e.probe) == 0 {
		return nil
	}
	m, err := core.New(params.Default())
	if err != nil {
		return err
	}
	var emb, op, tot []float64
	timed := func(name string, i int, us *[]float64, call func() error) error {
		t0 := time.Now()
		err := call()
		t1 := time.Now()
		e.tr.add(name, traceID("core", i), t0, t1)
		*us = append(*us, float64(t1.Sub(t0))/float64(time.Microsecond))
		return err
	}
	terms := make([]*core.EmbodiedResult, len(e.probe))
	for rep := 0; rep < 3; rep++ {
		for i, p := range e.probe {
			// A design the model rejects fails here as in the workload; it
			// is timed, and skipped by the passes that need its term.
			_ = timed("core.embodied_term", i, &emb, func() (err error) {
				terms[i], err = m.EmbodiedTerm(p.d)
				return err
			})
		}
		for i, p := range e.probe {
			if terms[i] == nil {
				continue
			}
			if err := timed("core.operational_from", i, &op, func() error {
				_, err := m.OperationalFrom(terms[i], p.d, p.w, p.eff)
				return err
			}); err != nil {
				return err
			}
		}
		for i, p := range e.probe {
			if terms[i] == nil {
				continue
			}
			if err := timed("core.total", i, &tot, func() error {
				_, err := m.Total(p.d, p.w, p.eff)
				return err
			}); err != nil {
				return err
			}
		}
	}
	e.set("core.embodied_term_us", median(emb))
	e.set("core.operational_from_us", median(op))
	e.set("core.total_us", median(tot))
	return nil
}
