// Package server exposes the full 3D-Carbon model as a long-running HTTP
// service — carbon modeling as infrastructure rather than a one-shot CLI.
//
// Endpoints (all JSON, wire types in internal/server/apitypes):
//
//	POST /v1/evaluate        one design → full life-cycle report
//	POST /v1/evaluate/batch  many designs → per-design reports, fanned out
//	                         across the worker pool with one process-wide
//	                         memoization cache
//	POST /v1/explore         a space spec → NDJSON result stream + summary
//	POST /v1/optimize        a space spec → lowest-carbon candidate via the
//	                         branch-and-bound optimizer, without enumeration
//	GET  /v1/meta            enumerable inputs (integrations, locations, …)
//	GET  /v1/stats           request / latency / cache-hit counters
//	GET  /healthz            liveness probe
//
// The server reuses one explore.Engine for every request, so evaluations
// memoize across requests: a design evaluated once — alone, in a batch or
// inside an exploration — is answered from cache forever after (bounded by
// an LRU limit). A semaphore caps concurrently-evaluating requests and each
// request runs under a configurable timeout.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/explore"
	"repro/internal/ic"
	"repro/internal/jobs"
	"repro/internal/params"
	"repro/internal/server/apitypes"
	"repro/internal/split"
)

// Defaults for the zero Options.
const (
	// DefaultCacheLimit bounds the process-wide memoization cache. A cached
	// evaluation is a few kB of reports, so the default is tens of MB at
	// worst.
	DefaultCacheLimit = 1 << 16
	// DefaultRequestTimeout bounds one evaluation request end to end.
	DefaultRequestTimeout = 60 * time.Second
	// DefaultMaxBatch bounds the designs of one batch request.
	DefaultMaxBatch = 10_000
	// DefaultMaxSpace bounds the candidates one exploration may enumerate.
	DefaultMaxSpace = 1_000_000
	// DefaultStreamChunk is the number of candidates evaluated between
	// NDJSON flushes of /v1/explore.
	DefaultStreamChunk = 64
	// DefaultMaxBodyBytes bounds one request body; a 10k-design batch is
	// ~10 MB, so 64 MB leaves headroom without letting one request defeat
	// the memory bounds.
	DefaultMaxBodyBytes = 64 << 20
	// DefaultMaxProfiles bounds the per-profile model cache behind inline
	// params overlays. A resolved profile is a full model (databases +
	// engine) of a few hundred kB; requests beyond the bound rebuild the
	// least recently used profile.
	DefaultMaxProfiles = 8
	// DefaultMaxOptimizeDesigns bounds the distinct embodied designs one
	// /v1/optimize space may span (gates × nodes × fabs × pairs — the
	// compiled plan's memory footprint). The candidate count itself is
	// unbounded: the operational axes multiply it for free.
	DefaultMaxOptimizeDesigns = 250_000
	// DefaultMaxOptimizeBudget caps (and, for requests that omit a budget,
	// sets) the charged model work of one /v1/optimize run — candidate
	// evaluations plus embodied bound probes.
	DefaultMaxOptimizeBudget = 5_000_000
)

// Options configures the service. The zero value serves the default model
// with bounded cache, per-CPU workers and a 60 s request timeout.
type Options struct {
	// Model is the configured pipeline; nil means a model built from
	// BaselineParams (or core.Default() when that is nil too).
	Model *core.Model
	// BaselineParams is the ParameterSet every request without an inline
	// overlay evaluates under, and the base inline overlays merge into;
	// nil means params.Default(). It must be a validated set (as returned
	// by params.Load/Overlay); New panics on an invalid baseline.
	BaselineParams *params.Set
	// MaxProfiles bounds the per-profile model cache for inline params
	// overlays; 0 means DefaultMaxProfiles, negative means unbounded.
	MaxProfiles int
	// Workers bounds the evaluation concurrency of one request;
	// ≤0 means runtime.NumCPU().
	Workers int
	// CacheLimit bounds the shared memoization cache (distinct evaluations
	// kept, LRU-evicted); 0 means DefaultCacheLimit, negative means
	// unbounded.
	CacheLimit int
	// MaxConcurrent caps requests evaluating at once (excess requests
	// queue); ≤0 means 2×NumCPU.
	MaxConcurrent int
	// RequestTimeout bounds one request's evaluation; 0 means
	// DefaultRequestTimeout, negative means none.
	RequestTimeout time.Duration
	// MaxBatch bounds the designs of one batch request; ≤0 means
	// DefaultMaxBatch.
	MaxBatch int
	// MaxSpace bounds the candidates one exploration may enumerate;
	// ≤0 means DefaultMaxSpace.
	MaxSpace int
	// StreamChunk is the evaluation block size between NDJSON flushes;
	// ≤0 means DefaultStreamChunk.
	StreamChunk int
	// MaxOptimizeDesigns bounds the distinct embodied designs one
	// /v1/optimize space may span; ≤0 means DefaultMaxOptimizeDesigns.
	MaxOptimizeDesigns int
	// MaxOptimizeBudget caps the charged work of one /v1/optimize run and
	// substitutes for an omitted request budget; ≤0 means
	// DefaultMaxOptimizeBudget.
	MaxOptimizeBudget int
	// MaxBodyBytes bounds one request body; 0 means DefaultMaxBodyBytes,
	// negative means unbounded.
	MaxBodyBytes int64
	// Logger receives one line per request (method, path, status, time);
	// nil disables request logging.
	Logger *log.Logger
	// EnableProfiling mounts net/http/pprof at /debug/pprof/ (CPU and heap
	// profiles of the live service). Off by default: the profile endpoints
	// expose internals and hold write locks, so they are opt-in and should
	// stay unreachable from untrusted networks.
	EnableProfiling bool

	// JobStore persists the async job tier (/v1/jobs); nil means in-memory
	// (jobs do not survive restarts). Pass jobs.OpenFileStore for a
	// crash-recoverable log.
	JobStore jobs.Store
	// MaxRunningJobs caps concurrently executing jobs; ≤0 means the jobs
	// package default.
	MaxRunningJobs int
	// JobCheckpointEvery is the candidates evaluated between durable job
	// checkpoints; ≤0 means the jobs package default.
	JobCheckpointEvery int
	// MaxJobSpace bounds the candidates one job may evaluate; ≤0 means the
	// jobs package default.
	MaxJobSpace int
	// JobShards splits large jobs into this many concurrent index-range
	// shard sub-runs (≤1 disables); JobShardAbove is the minimum candidate
	// count before a job shards (≤0 means the jobs package default).
	JobShards     int
	JobShardAbove int
	// JobRatePerSec/JobBurst rate-limit job submissions per tenant
	// (token bucket); 0 disables rate limiting.
	JobRatePerSec float64
	JobBurst      int
	// MaxActiveJobsPerTenant caps one tenant's queued+running jobs;
	// 0 means unlimited.
	MaxActiveJobsPerTenant int
	// JobShedHighWater/JobShedLowWater bound the load-shedding hysteresis:
	// running jobs are parked (checkpointed and re-queued) while the
	// interactive tier's slot usage stays at or above the high water, and
	// resume once it falls to the low water. 0 means the jobs defaults.
	JobShedHighWater float64
	JobShedLowWater  float64
	// DrainTimeout bounds graceful shutdown: the window for in-flight
	// requests to finish and running jobs to reach a checkpoint; 0 means
	// DefaultDrainTimeout.
	DrainTimeout time.Duration

	// Replicas are worker base URLs the job tier may dispatch shard
	// chunks to (POST /v1/shards/run). Empty means every chunk runs
	// in-process; more replicas join at runtime via POST /v1/replicas.
	Replicas []string
	// ShardLease bounds one dispatched chunk: a replica that has not
	// answered within the lease loses the chunk to reassignment (and its
	// late completion is discarded); ≤0 means the dist package default.
	ShardLease time.Duration
	// ReplicaHeartbeatTimeout is how long a runtime-registered replica
	// may stay silent before it stops receiving chunks; ≤0 means the
	// dist package default.
	ReplicaHeartbeatTimeout time.Duration
}

// DefaultDrainTimeout bounds graceful shutdown when Options.DrainTimeout
// is zero.
const DefaultDrainTimeout = 10 * time.Second

func (o Options) drainTimeout() time.Duration {
	if o.DrainTimeout > 0 {
		return o.DrainTimeout
	}
	return DefaultDrainTimeout
}

func (o Options) cacheLimit() int {
	switch {
	case o.CacheLimit == 0:
		return DefaultCacheLimit
	case o.CacheLimit < 0:
		return 0 // unbounded engine cache
	}
	return o.CacheLimit
}

func (o Options) maxConcurrent() int {
	if o.MaxConcurrent > 0 {
		return o.MaxConcurrent
	}
	return 2 * runtime.NumCPU()
}

func (o Options) timeout() time.Duration {
	switch {
	case o.RequestTimeout == 0:
		return DefaultRequestTimeout
	case o.RequestTimeout < 0:
		return 0
	}
	return o.RequestTimeout
}

func (o Options) maxBatch() int {
	if o.MaxBatch > 0 {
		return o.MaxBatch
	}
	return DefaultMaxBatch
}

func (o Options) maxSpace() int {
	if o.MaxSpace > 0 {
		return o.MaxSpace
	}
	return DefaultMaxSpace
}

func (o Options) streamChunk() int {
	if o.StreamChunk > 0 {
		return o.StreamChunk
	}
	return DefaultStreamChunk
}

func (o Options) maxOptimizeDesigns() int {
	if o.MaxOptimizeDesigns > 0 {
		return o.MaxOptimizeDesigns
	}
	return DefaultMaxOptimizeDesigns
}

func (o Options) maxOptimizeBudget() int {
	if o.MaxOptimizeBudget > 0 {
		return o.MaxOptimizeBudget
	}
	return DefaultMaxOptimizeBudget
}

func (o Options) maxProfiles() int {
	switch {
	case o.MaxProfiles == 0:
		return DefaultMaxProfiles
	case o.MaxProfiles < 0:
		return 0 // unbounded
	}
	return o.MaxProfiles
}

func (o Options) maxBodyBytes() int64 {
	switch {
	case o.MaxBodyBytes == 0:
		return DefaultMaxBodyBytes
	case o.MaxBodyBytes < 0:
		return 0
	}
	return o.MaxBodyBytes
}

// Server is the HTTP service. Construct with New; it implements
// http.Handler and is safe for concurrent use.
type Server struct {
	opts   Options
	engine *explore.Engine
	sem    chan struct{}
	mux    *http.ServeMux
	start  time.Time

	// baseSet/baseFP/baseModel are the baseline parameter provenance;
	// shared is the one memoization cache every profile engine attaches
	// to, and profiles the bounded overlay → engine LRU.
	baseSet   *params.Set
	baseFP    params.Fingerprint
	baseModel *core.Model
	shared    *explore.SharedCache
	profiles  *profileCache

	// jobsSvc is the async job tier; jobsErr records a boot failure
	// (store replay), in which case the /v1/jobs endpoints serve 503.
	// draining flips /readyz to 503 while shutdown drains.
	jobsSvc  *jobs.Service
	jobsErr  error
	draining atomic.Bool

	// pool is the replica fleet shard chunks dispatch to (empty pool =
	// every chunk runs locally); shardRuns/shardCands count the chunks
	// this process served as a replica for some other coordinator, and
	// plans caches the compiled spaces those chunks fold through.
	pool       *dist.Pool
	shardRuns  atomic.Uint64
	shardCands atomic.Uint64
	plans      *planCache

	inFlight  atomic.Int64
	evaluated atomic.Uint64
	metrics   map[string]*endpointMetrics

	// Optimizer counters behind /v1/stats, aggregated over /v1/optimize.
	optRuns     atomic.Uint64
	optComplete atomic.Uint64
	optEvals    atomic.Uint64
	optProbes   atomic.Uint64
	optPrunes   atomic.Uint64
}

// endpointMetrics are the per-endpoint counters behind /v1/stats.
type endpointMetrics struct {
	requests atomic.Uint64
	errors   atomic.Uint64
	totalNS  atomic.Int64
}

// New returns a ready-to-serve handler over one shared engine. The
// baseline model comes from Options.Model, else Options.BaselineParams,
// else the paper-calibrated default; New panics on an invalid
// BaselineParams (a *Set obtained from params.Load/Overlay is always
// valid).
func New(opts Options) *Server {
	baseSet := opts.BaselineParams
	if baseSet == nil {
		baseSet = params.Default()
	}
	m := opts.Model
	if m == nil {
		var err error
		m, err = core.New(baseSet)
		if err != nil {
			panic(fmt.Sprintf("server: invalid baseline params: %v", err))
		}
	} else if m.Params() != nil && opts.BaselineParams == nil {
		// A model built from its own set: overlays merge into that set.
		baseSet = m.Params()
	}
	baseFP, err := baseSet.Fingerprint()
	if err != nil {
		panic(fmt.Sprintf("server: baseline fingerprint: %v", err))
	}
	shared := explore.NewSharedCache(opts.cacheLimit(), 0)
	e := explore.New(m)
	e.Workers = opts.Workers
	e.Cache = shared

	s := &Server{
		opts:      opts,
		engine:    e,
		sem:       make(chan struct{}, opts.maxConcurrent()),
		mux:       http.NewServeMux(),
		start:     time.Now(),
		baseSet:   baseSet,
		baseFP:    baseFP,
		baseModel: m,
		shared:    shared,
		profiles:  newProfileCache(opts.maxProfiles()),
		plans:     newPlanCache(),
		metrics:   make(map[string]*endpointMetrics),
	}
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("no such endpoint %q (see docs/API.md)", r.URL.Path))
	})
	s.route("/v1/evaluate", http.MethodPost, s.handleEvaluate)
	s.route("/v1/evaluate/batch", http.MethodPost, s.handleBatch)
	s.route("/v1/explore", http.MethodPost, s.handleExplore)
	s.route("/v1/optimize", http.MethodPost, s.handleOptimize)
	s.route("/v1/meta", http.MethodGet, s.handleMeta)
	s.route("/v1/stats", http.MethodGet, s.handleStats)
	s.route("/healthz", http.MethodGet, s.handleHealth)
	s.route("/readyz", http.MethodGet, s.handleReady)
	// The distributed shard tier: the pool always exists (an empty pool
	// declines dispatch instantly and the job tier runs purely local),
	// so replicas can join a running coordinator at any time.
	s.pool = dist.NewPool(dist.Options{
		Replicas:         opts.Replicas,
		Lease:            opts.ShardLease,
		HeartbeatTimeout: opts.ReplicaHeartbeatTimeout,
		BaselineFP:       baseFP.String(),
		Logger:           opts.Logger,
	})
	s.route("/v1/shards/run", http.MethodPost, s.handleShardRun)
	s.routeAny("/v1/replicas", s.handleReplicas)
	// The job tier dispatches methods itself: the collection takes POST
	// and GET, the item GET and DELETE plus the /events sub-resource.
	s.routeAny("/v1/jobs", s.handleJobs)
	s.routeAny("/v1/jobs/", s.handleJob)
	if s.jobsSvc, s.jobsErr = s.newJobService(); s.jobsErr != nil && opts.Logger != nil {
		opts.Logger.Printf("jobs: tier unavailable: %v", s.jobsErr)
	}
	if opts.EnableProfiling {
		// Mounted on the server's own mux (not http.DefaultServeMux) and
		// outside route(): profile requests are long-polls that would
		// distort the latency metrics.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Engine exposes the shared evaluator (stats, cache configuration).
func (s *Server) Engine() *explore.Engine { return s.engine }

// Pool exposes the replica dispatch pool (cmd/serve wiring, tests).
func (s *Server) Pool() *dist.Pool { return s.pool }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// handlerFunc returns the response status for metrics.
type handlerFunc func(w http.ResponseWriter, r *http.Request) int

// route registers a method-checked, metered handler.
func (s *Server) route(path, method string, h handlerFunc) {
	s.routeAny(path, func(w http.ResponseWriter, r *http.Request) int {
		if r.Method != method {
			w.Header().Set("Allow", method)
			return writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
				fmt.Sprintf("%s requires %s", path, method))
		}
		return h(w, r)
	})
}

// routeAny registers a metered handler that dispatches methods itself.
func (s *Server) routeAny(path string, h handlerFunc) {
	em := &endpointMetrics{}
	s.metrics[path] = em
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		status := h(w, r)
		em.requests.Add(1)
		if status >= 400 {
			em.errors.Add(1)
		}
		em.totalNS.Add(int64(time.Since(start)))
		if s.opts.Logger != nil {
			s.opts.Logger.Printf("%s %s %d %s", r.Method, r.URL.Path, status,
				time.Since(start).Round(time.Microsecond))
		}
	})
}

// writeError emits the structured error envelope and returns the status.
func writeError(w http.ResponseWriter, status int, code, msg string) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(apitypes.ErrorResponse{
		Error: apitypes.Error{Code: code, Message: msg},
	})
	return status
}

// writeJSON emits a 200 with the compact JSON encoding of v.
func writeJSON(w http.ResponseWriter, v any) int {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
	return http.StatusOK
}

// statusClientClosedRequest mirrors nginx's 499: the client went away
// before the evaluation finished.
const statusClientClosedRequest = 499

// errSaturated marks a request rejected because every evaluation slot is
// taken. It renders as 429 + Retry-After, never as a timeout: queuing a
// request behind a full semaphore until its deadline expired used to
// misreport saturation as "evaluation exceeded the server's request
// timeout", hiding the real condition from clients and dashboards.
var errSaturated = errors.New("server: all evaluation slots busy")

// acquire takes an evaluation slot, failing fast with errSaturated when
// none is free (an already-expired context takes precedence). The
// returned release must be called iff err is nil.
func (s *Server) acquire(ctx context.Context) (release func(), err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case s.sem <- struct{}{}:
		s.inFlight.Add(1)
		return func() {
			s.inFlight.Add(-1)
			<-s.sem
		}, nil
	default:
		return nil, errSaturated
	}
}

// acquireStatus renders an acquire failure: 429 + Retry-After for
// saturation, the usual cancellation mapping otherwise.
func acquireStatus(w http.ResponseWriter, err error) int {
	if errors.Is(err, errSaturated) {
		w.Header().Set("Retry-After", "1")
		return writeError(w, http.StatusTooManyRequests, "saturated",
			"all evaluation slots are busy; retry shortly")
	}
	return cancelStatus(w, err)
}

// requestContext applies the configured evaluation timeout.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if t := s.opts.timeout(); t > 0 {
		return context.WithTimeout(r.Context(), t)
	}
	return context.WithCancel(r.Context())
}

// decode strictly parses a JSON request body, bounded by MaxBodyBytes so
// an oversized POST is rejected instead of decoded into memory (the
// MaxBatch/MaxSpace checks run only after decoding).
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) error {
	body := r.Body
	if limit := s.opts.maxBodyBytes(); limit > 0 {
		body = http.MaxBytesReader(w, r.Body, limit)
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// A design document POSTed raw (without the request wrapper) is the
	// most likely trailing-garbage case; reject everything after the first
	// value so errors surface instead of silently ignoring input.
	if dec.More() {
		return errors.New("request body holds more than one JSON value")
	}
	return nil
}

// decodeStatus renders a body-decoding failure: 413 for an over-limit
// body, 400 for everything else.
func decodeStatus(w http.ResponseWriter, err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return writeError(w, http.StatusRequestEntityTooLarge, "bad_request",
			fmt.Sprintf("request body exceeds the server limit of %d bytes", tooLarge.Limit))
	}
	return writeError(w, http.StatusBadRequest, "bad_request",
		"malformed request body: "+err.Error())
}

// cancelStatus maps a context error to its HTTP rendering.
func cancelStatus(w http.ResponseWriter, err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return writeError(w, http.StatusServiceUnavailable, "timeout",
			"evaluation exceeded the server's request timeout")
	}
	return writeError(w, statusClientClosedRequest, "cancelled",
		"client cancelled the request")
}

// evaluateDesign runs one request through the shared engine and renders the
// response bytes every evaluation path shares (single and batch items), so
// identical designs produce byte-identical reports everywhere.
func (s *Server) evaluateDesign(ctx context.Context, eng *explore.Engine, req apitypes.EvaluateRequest) (json.RawMessage, *apitypes.Error, error) {
	if req.Design == nil {
		return nil, &apitypes.Error{Code: "bad_request",
			Message: `request is missing the "design" object`}, nil
	}
	if err := eng.Model.ValidateDesign(req.Design); err != nil {
		return nil, &apitypes.Error{Code: "invalid_design", Message: err.Error()}, nil
	}
	w, eff := req.Workload.Resolve()
	results, err := eng.Evaluate(ctx, []explore.Candidate{{
		ID:       req.Design.Name,
		Design:   req.Design,
		Workload: w,
		Eff:      eff,
	}})
	if err != nil {
		return nil, nil, err // context cancellation
	}
	s.evaluated.Add(1)
	res := results[0]
	if res.Err != nil {
		return nil, &apitypes.Error{Code: "evaluation_failed", Message: res.Err.Error()}, nil
	}
	if req.RequireBandwidthValid && res.Report.Operational != nil && !res.Report.Operational.Valid {
		return nil, &apitypes.Error{
			Code: "bandwidth_infeasible",
			Message: fmt.Sprintf(
				"design %q fails the §3.4 bandwidth constraint: capacity %.1f GB/s < required %.1f GB/s",
				req.Design.Name,
				res.Report.Operational.Capacity.GBytesPerS(),
				res.Report.Operational.Required.GBytesPerS()),
		}, nil
	}
	body, err := json.Marshal(apitypes.EvaluateResponse{
		Design: req.Design.Name,
		Report: res.Report,
	})
	if err != nil {
		return nil, nil, err
	}
	return body, nil, nil
}

// errStatus maps a structured evaluation error to its HTTP status.
func errStatus(e *apitypes.Error) int {
	switch e.Code {
	case "bad_request", "invalid_params":
		return http.StatusBadRequest
	default:
		// invalid_design / evaluation_failed / bandwidth_infeasible: the
		// request parsed but the model rejects it.
		return http.StatusUnprocessableEntity
	}
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) int {
	var req apitypes.EvaluateRequest
	if err := s.decode(w, r, &req); err != nil {
		return decodeStatus(w, err)
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	release, err := s.acquire(ctx)
	if err != nil {
		return acquireStatus(w, err)
	}
	defer release()
	// Resolved under the evaluation slot: the overlay merge and model
	// construction are CPU work the concurrency limiter must bound.
	eng, apiErr := s.resolveEngine(req.Params)
	if apiErr != nil {
		return writeError(w, errStatus(apiErr), apiErr.Code, apiErr.Message)
	}

	body, apiErr, err := s.evaluateDesign(ctx, eng, req)
	if err != nil {
		return cancelStatus(w, err)
	}
	if apiErr != nil {
		return writeError(w, errStatus(apiErr), apiErr.Code, apiErr.Message)
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(body, '\n'))
	return http.StatusOK
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) int {
	var req apitypes.BatchRequest
	if err := s.decode(w, r, &req); err != nil {
		return decodeStatus(w, err)
	}
	if len(req.Designs) == 0 {
		return writeError(w, http.StatusBadRequest, "bad_request",
			`request is missing the "designs" array`)
	}
	if max := s.opts.maxBatch(); len(req.Designs) > max {
		return writeError(w, http.StatusRequestEntityTooLarge, "bad_request",
			fmt.Sprintf("batch of %d designs exceeds the server limit of %d", len(req.Designs), max))
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	release, err := s.acquire(ctx)
	if err != nil {
		return acquireStatus(w, err)
	}
	defer release()
	eng, apiErr := s.resolveEngine(req.Params)
	if apiErr != nil {
		return writeError(w, errStatus(apiErr), apiErr.Code, apiErr.Message)
	}

	// Validate up front so index errors are reported even when the rest of
	// the batch evaluates, then fan the valid designs out in one Evaluate
	// call — the engine's worker pool and shared cache do the heavy lifting.
	wl, eff := req.Workload.Resolve()
	items := make([]apitypes.BatchItem, len(req.Designs))
	cands := make([]explore.Candidate, 0, len(req.Designs))
	candIdx := make([]int, 0, len(req.Designs))
	for i, d := range req.Designs {
		items[i].Index = i
		if d == nil {
			items[i].Error = &apitypes.Error{Code: "bad_request",
				Message: fmt.Sprintf("designs[%d] is null", i)}
			continue
		}
		if err := eng.Model.ValidateDesign(d); err != nil {
			items[i].Error = &apitypes.Error{Code: "invalid_design", Message: err.Error()}
			continue
		}
		cands = append(cands, explore.Candidate{
			ID: d.Name, Design: d, Workload: wl, Eff: eff,
		})
		candIdx = append(candIdx, i)
	}
	results, err := eng.Evaluate(ctx, cands)
	if err != nil {
		return cancelStatus(w, err)
	}
	failed := 0
	for j, res := range results {
		i := candIdx[j]
		s.evaluated.Add(1)
		switch {
		case res.Err != nil:
			items[i].Error = &apitypes.Error{Code: "evaluation_failed", Message: res.Err.Error()}
		case req.RequireBandwidthValid && res.Report.Operational != nil && !res.Report.Operational.Valid:
			items[i].Error = &apitypes.Error{Code: "bandwidth_infeasible",
				Message: fmt.Sprintf("design %q fails the §3.4 bandwidth constraint", res.Candidate.ID)}
		default:
			body, err := json.Marshal(apitypes.EvaluateResponse{
				Design: res.Candidate.ID, Report: res.Report,
			})
			if err != nil {
				items[i].Error = &apitypes.Error{Code: "internal", Message: err.Error()}
				break
			}
			items[i].Result = body
		}
	}
	for _, it := range items {
		if it.Error != nil {
			failed++
		}
	}
	return writeJSON(w, apitypes.BatchResponse{
		Count:   len(items),
		Failed:  failed,
		Results: items,
	})
}

func (s *Server) handleMeta(w http.ResponseWriter, _ *http.Request) int {
	gridDB, techDB := s.baseModel.GridDB(), s.baseModel.TechDB()
	meta := apitypes.MetaResponse{
		NodesNM:           techDB.Processes(),
		ParamsVersion:     s.baseSet.Version,
		ParamsFingerprint: s.baseFP.String(),
		Strategies: []string{
			string(split.HomogeneousStrategy), string(split.HeterogeneousStrategy),
		},
		Stackings: []string{string(ic.F2F), string(ic.F2B)},
		Flows:     []string{string(ic.D2W), string(ic.W2W)},
		Orders:    []string{string(ic.ChipFirst), string(ic.ChipLast)},
		DefaultWorkload: apitypes.WorkloadSpec{
			TOPS:               apitypes.DefaultTOPS,
			PeakTOPS:           apitypes.DefaultPeakTOPS,
			EfficiencyTOPSW:    apitypes.DefaultEfficiencyTOPSW,
			ActiveHoursPerYear: apitypes.DefaultActiveHours,
			LifetimeYears:      apitypes.DefaultLifetimeYears,
		},
	}
	for _, integ := range ic.Integrations() {
		class := "2d"
		switch {
		case integ.Is3D():
			class = "3d"
		case integ.Is25D():
			class = "2.5d"
		}
		meta.Integrations = append(meta.Integrations, apitypes.IntegrationInfo{
			ID: string(integ), Display: integ.DisplayName(), Class: class,
		})
	}
	for _, loc := range gridDB.Locations() {
		ci, err := gridDB.Intensity(loc)
		if err != nil {
			continue // unreachable: Locations lists the database keys
		}
		meta.Locations = append(meta.Locations, apitypes.LocationInfo{
			ID: string(loc), IntensityGPerKWh: ci.GPerKWh(),
		})
	}
	return writeJSON(w, meta)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) int {
	// Engine counters aggregate the baseline engine and every profile
	// engine (resident or evicted): all requests share one memoization
	// cache, so the documented "across all requests since boot" semantics
	// must include profile traffic. Entry/shard figures come from the
	// shared cache itself (the embodied side included).
	engineStats := s.engine.Stats()
	accumulateEngine(&engineStats, s.profiles.engineTotals())
	engineStats.CacheEntries = s.shared.Entries()
	engineStats.CacheShards = s.shared.Shards()
	engineStats.EmbodiedCacheEntries = s.shared.EmbodiedEntries()
	resp := apitypes.StatsResponse{
		UptimeSeconds:    time.Since(s.start).Seconds(),
		Endpoints:        make(map[string]apitypes.EndpointStats, len(s.metrics)),
		DesignsEvaluated: s.evaluated.Load(),
		InFlight:         s.inFlight.Load(),
		MaxConcurrent:    s.opts.maxConcurrent(),
		CacheLimit:       s.opts.cacheLimit(),
		Engine:           apitypes.NewEngineStats(engineStats),
		Profiles:         s.profiles.stats(),
		Optimize: apitypes.OptimizeCounters{
			Runs:        s.optRuns.Load(),
			Complete:    s.optComplete.Load(),
			Evaluations: s.optEvals.Load(),
			BoundProbes: s.optProbes.Load(),
			Prunes:      s.optPrunes.Load(),
		},
	}
	if s.jobsSvc != nil {
		c := s.jobsSvc.Counters()
		resp.Jobs = &apitypes.JobsCounters{
			Submitted: c.Submitted,
			Done:      c.Done,
			Failed:    c.Failed,
			Cancelled: c.Cancelled,
			Shed:      c.Shed,
			Rejected:  c.Rejected,
			Running:   c.Running,
			Queued:    c.Queued,
		}
	}
	pc := s.pool.Counters()
	resp.Dist = &apitypes.DistCounters{
		Replicas:         pc.Replicas,
		Healthy:          pc.Healthy,
		Dispatched:       pc.Dispatched,
		Completed:        pc.Completed,
		Retries:          pc.Retries,
		Reassignments:    pc.Reassignments,
		LeaseExpiries:    pc.LeaseExpiries,
		StaleDropped:     pc.StaleDropped,
		BreakerOpened:    pc.BreakerOpened,
		LocalFallbacks:   pc.LocalFallbacks,
		ShardRunsServed:  s.shardRuns.Load(),
		CandidatesServed: s.shardCands.Load(),
		PlansCompiled:    s.plans.compiled.Load(),
	}
	for path, em := range s.metrics {
		st := apitypes.EndpointStats{
			Requests: em.requests.Load(),
			Errors:   em.errors.Load(),
			TotalMS:  float64(em.totalNS.Load()) / 1e6,
		}
		if st.Requests > 0 {
			st.AvgMS = st.TotalMS / float64(st.Requests)
		}
		resp.Endpoints[path] = st
	}
	return writeJSON(w, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) int {
	return writeJSON(w, map[string]string{"status": "ok"})
}

// handleReady is the readiness probe: 503 once draining starts, so load
// balancers stop routing new work while /healthz keeps reporting the
// process alive for the whole drain window.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) int {
	if s.draining.Load() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]string{"status": "draining"})
		return http.StatusServiceUnavailable
	}
	return writeJSON(w, map[string]string{"status": "ready"})
}

// BeginDrain flips /readyz to 503 and stops admitting new jobs. Call it
// when shutdown starts, before http.Server.Shutdown, so the load
// balancer sees the instance leave while in-flight work still finishes.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	if s.jobsSvc != nil {
		s.jobsSvc.BeginDrain()
	}
}

// Shutdown checkpoints and parks every running job and closes the job
// store; parked jobs resume from their checkpoints on the next boot.
// HTTP draining is the owner's concern (http.Server.Shutdown).
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	if s.jobsSvc == nil {
		return nil
	}
	return s.jobsSvc.Shutdown(ctx)
}

// ListenAndServe runs the service on addr until ctx is cancelled, then
// shuts down gracefully: /readyz flips to 503, in-flight requests drain
// under the drain timeout, and running jobs are parked at a checkpoint
// so a restart over the same job store resumes them without losing work.
func ListenAndServe(ctx context.Context, addr string, opts Options) error {
	// Note: ctx is deliberately NOT the BaseContext — cancelling it must
	// stop accepting and *drain* in-flight evaluations, not abort them;
	// Shutdown's grace window below does the draining.
	h := New(opts)
	if err := h.JobsErr(); err != nil && opts.JobStore != nil {
		// An explicitly configured durable store that fails to replay is a
		// boot failure: starting anyway would silently orphan every
		// checkpointed job.
		return fmt.Errorf("job store replay: %w", err)
	}
	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		h.BeginDrain()
		shutCtx, cancel := context.WithTimeout(context.Background(), opts.drainTimeout())
		defer cancel()
		err := srv.Shutdown(shutCtx)
		// Jobs park after the HTTP side quiesces: every running job
		// checkpoints and the store closes cleanly.
		if jerr := h.Shutdown(shutCtx); err == nil {
			err = jerr
		}
		return err
	}
}
