// Package dist is the fault-tolerant distributed shard tier: a Pool farms
// index-range shard chunks (jobs.ChunkRequest) out to worker replicas
// over HTTP and survives every way a fleet can fail. Each dispatch runs
// under a time-bounded lease — a replica that dies, partitions, or just
// runs slow loses the lease and the chunk is reassigned to another
// replica (or, after every attempt fails, falls back to in-process
// execution). That at-least-once policy is safe by construction: a chunk
// is a pure function of its reducer snapshots and index range, so a
// half-finished remote attempt, a stale late completion, or a local
// re-run all produce the same bytes, and the coordinator only ever
// persists one accepted result per chunk.
//
// Robustness machinery, per replica: a consecutive-failure circuit
// breaker with a cooldown probe, a bounded in-flight window, and a
// health view fed by heartbeats (POST /v1/replicas doubles as the
// heartbeat). Across attempts: exponential backoff with jitter that
// honors a server's Retry-After. The Pool is what a server wires into
// jobs.Options.Dispatch; with no replicas registered it declines
// instantly (jobs.ErrNoDispatch) and the job tier runs purely local.
package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/jobs"
	"repro/internal/server/apitypes"
)

// Fault points for the chaos harness (transport-level failures).
const (
	// FaultPointSend fires before the HTTP request leaves the pool; an
	// armed error simulates a connection refused (and an armed sleep, a
	// slow or partitioned network that outlives the lease).
	FaultPointSend = "dist.transport.send"
	// FaultPointRecv fires after the response body was read; an armed
	// error simulates a connection cut mid-body.
	FaultPointRecv = "dist.transport.recv"
)

// Defaults for the zero Options.
const (
	// DefaultLease bounds one dispatched chunk: a replica that has not
	// answered within the lease loses the chunk to reassignment.
	DefaultLease = 30 * time.Second
	// DefaultHeartbeatTimeout is how long a registered replica may stay
	// silent before it is considered unhealthy.
	DefaultHeartbeatTimeout = 15 * time.Second
	// DefaultMaxInFlight bounds concurrently dispatched chunks per
	// replica.
	DefaultMaxInFlight = 4
	// DefaultMaxAttempts bounds dispatch attempts (across replicas)
	// before the chunk falls back to local execution.
	DefaultMaxAttempts = 4
	// DefaultBreakerThreshold is the consecutive-failure count that
	// opens a replica's circuit breaker.
	DefaultBreakerThreshold = 3
	// DefaultBreakerCooldown is the open→half-open probe delay.
	DefaultBreakerCooldown = 5 * time.Second
	// maxBackoff caps the exponential retry backoff.
	maxBackoff = 5 * time.Second
)

// Options configures a Pool. The zero value is a pool with no replicas:
// every Run declines with jobs.ErrNoDispatch until Register is called.
type Options struct {
	// Replicas are worker base URLs configured at boot. Static replicas
	// are exempt from the heartbeat timeout (the breaker still guards
	// them); replicas added later via Register must heartbeat.
	Replicas []string
	// Lease bounds one dispatched chunk (≤0 = DefaultLease). A replica
	// that misses the lease loses the chunk to reassignment; its late
	// completion, if any, is discarded.
	Lease time.Duration
	// RequestTimeout bounds one attempt's HTTP round trip (≤0 = 2×Lease;
	// it should exceed the lease so a late completion can still arrive
	// and be counted as stale rather than leaking a connection forever).
	RequestTimeout time.Duration
	// HeartbeatTimeout is the registered-replica staleness bound
	// (≤0 = DefaultHeartbeatTimeout).
	HeartbeatTimeout time.Duration
	// MaxInFlight bounds concurrent chunks per replica (≤0 = default).
	MaxInFlight int
	// MaxAttempts bounds dispatch attempts before local fallback
	// (≤0 = default).
	MaxAttempts int
	// BreakerThreshold/BreakerCooldown tune the per-replica circuit
	// breaker (≤0 = defaults).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// BaselineFP is this coordinator's baseline ParameterSet fingerprint,
	// sent with every chunk so replicas on a different baseline refuse
	// instead of silently computing different bytes.
	BaselineFP string
	// Client is the HTTP client (nil = a dedicated default client).
	Client *http.Client
	// Logger receives dispatch lifecycle lines; nil disables logging.
	Logger *log.Logger
}

func (o Options) lease() time.Duration {
	if o.Lease > 0 {
		return o.Lease
	}
	return DefaultLease
}

func (o Options) requestTimeout() time.Duration {
	if o.RequestTimeout > 0 {
		return o.RequestTimeout
	}
	return 2 * o.lease()
}

func (o Options) heartbeatTimeout() time.Duration {
	if o.HeartbeatTimeout > 0 {
		return o.HeartbeatTimeout
	}
	return DefaultHeartbeatTimeout
}

func (o Options) maxInFlight() int {
	if o.MaxInFlight > 0 {
		return o.MaxInFlight
	}
	return DefaultMaxInFlight
}

func (o Options) maxAttempts() int {
	if o.MaxAttempts > 0 {
		return o.MaxAttempts
	}
	return DefaultMaxAttempts
}

func (o Options) breakerThreshold() int {
	if o.BreakerThreshold > 0 {
		return o.BreakerThreshold
	}
	return DefaultBreakerThreshold
}

func (o Options) breakerCooldown() time.Duration {
	if o.BreakerCooldown > 0 {
		return o.BreakerCooldown
	}
	return DefaultBreakerCooldown
}

// replica is one worker's health record. All fields are guarded by the
// pool mutex.
type replica struct {
	url      string
	static   bool
	lastSeen time.Time
	inFlight int
	// fails counts consecutive dispatch failures; the breaker opens at
	// the threshold and openedAt starts the cooldown clock. A half-open
	// probe is the first pick after the cooldown; success resets fails.
	fails    int
	openedAt time.Time
}

// Counters snapshot the pool's dispatch activity (see
// apitypes.DistCounters for field semantics).
type Counters struct {
	Replicas       int
	Healthy        int
	Dispatched     uint64
	Completed      uint64
	Retries        uint64
	Reassignments  uint64
	LeaseExpiries  uint64
	StaleDropped   uint64
	BreakerOpened  uint64
	LocalFallbacks uint64
}

// Pool dispatches shard chunks to a replica fleet. Construct with
// NewPool; all methods are safe for concurrent use.
type Pool struct {
	opts Options
	hc   *http.Client
	// now and sleep are swappable for tests.
	now   func() time.Time
	sleep func(context.Context, time.Duration)

	mu       sync.Mutex
	replicas map[string]*replica
	order    []string // registration order, for deterministic listing
	rng      *rand.Rand

	cDispatched, cCompleted, cRetries, cReassignments atomic.Uint64
	cLeaseExpiries, cStaleDropped                     atomic.Uint64
	cBreakerOpened, cLocalFallbacks                   atomic.Uint64
}

// NewPool builds a pool over the static replicas of opts.
func NewPool(opts Options) *Pool {
	hc := opts.Client
	if hc == nil {
		hc = &http.Client{}
	}
	p := &Pool{
		opts:     opts,
		hc:       hc,
		now:      time.Now,
		sleep:    sleepCtx,
		replicas: make(map[string]*replica),
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	for _, u := range opts.Replicas {
		if u == "" {
			continue
		}
		p.register(u, true)
	}
	return p
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

func (p *Pool) logf(format string, args ...any) {
	if p.opts.Logger != nil {
		p.opts.Logger.Printf("dist: "+format, args...)
	}
}

// Register adds (or refreshes — the call doubles as the heartbeat) a
// replica by base URL. Registering an already-known replica only bumps
// its lastSeen.
func (p *Pool) Register(url string) {
	p.register(url, false)
}

func (p *Pool) register(url string, static bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if r, ok := p.replicas[url]; ok {
		r.lastSeen = p.now()
		return
	}
	p.replicas[url] = &replica{url: url, static: static, lastSeen: p.now()}
	p.order = append(p.order, url)
	p.logf("replica %s registered (static=%v)", url, static)
}

// healthyLocked reports whether r may be picked right now: heartbeat
// fresh (static replicas are exempt) and breaker closed or past its
// cooldown (the half-open probe).
func (p *Pool) healthyLocked(r *replica, now time.Time) bool {
	if !r.static && now.Sub(r.lastSeen) > p.opts.heartbeatTimeout() {
		return false
	}
	if r.fails >= p.opts.breakerThreshold() &&
		now.Sub(r.openedAt) < p.opts.breakerCooldown() {
		return false
	}
	return true
}

// Replicas lists the fleet's health in registration order.
func (p *Pool) Replicas() []apitypes.ReplicaInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	out := make([]apitypes.ReplicaInfo, 0, len(p.order))
	for _, u := range p.order {
		r := p.replicas[u]
		info := apitypes.ReplicaInfo{
			URL:         r.url,
			Static:      r.static,
			Healthy:     p.healthyLocked(r, now),
			BreakerOpen: r.fails >= p.opts.breakerThreshold(),
			InFlight:    r.inFlight,
		}
		if !r.static {
			info.LastSeen = r.lastSeen
		}
		out = append(out, info)
	}
	return out
}

// Counters snapshots the pool counters.
func (p *Pool) Counters() Counters {
	p.mu.Lock()
	now := p.now()
	total, healthy := len(p.replicas), 0
	for _, r := range p.replicas {
		if p.healthyLocked(r, now) {
			healthy++
		}
	}
	p.mu.Unlock()
	return Counters{
		Replicas:       total,
		Healthy:        healthy,
		Dispatched:     p.cDispatched.Load(),
		Completed:      p.cCompleted.Load(),
		Retries:        p.cRetries.Load(),
		Reassignments:  p.cReassignments.Load(),
		LeaseExpiries:  p.cLeaseExpiries.Load(),
		StaleDropped:   p.cStaleDropped.Load(),
		BreakerOpened:  p.cBreakerOpened.Load(),
		LocalFallbacks: p.cLocalFallbacks.Load(),
	}
}

// pick leases a slot on the healthiest eligible replica: least in-flight
// wins, ties broken by registration order, and the replica the previous
// attempt failed on is avoided when any alternative exists. Returns nil
// when nothing is eligible right now.
func (p *Pool) pick(avoid string) *replica {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	var candidates []*replica
	for _, u := range p.order {
		r := p.replicas[u]
		if !p.healthyLocked(r, now) || r.inFlight >= p.opts.maxInFlight() {
			continue
		}
		candidates = append(candidates, r)
	}
	if len(candidates) > 1 && avoid != "" {
		trimmed := candidates[:0]
		for _, r := range candidates {
			if r.url != avoid {
				trimmed = append(trimmed, r)
			}
		}
		if len(trimmed) > 0 {
			candidates = trimmed
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	sort.SliceStable(candidates, func(i, j int) bool {
		return candidates[i].inFlight < candidates[j].inFlight
	})
	r := candidates[0]
	r.inFlight++
	return r
}

// releaseSlot returns r's in-flight slot; a slot held by an abandoned
// (stale) attempt is returned only when that attempt finally resolves,
// which is what keeps the in-flight bound honest under lease expiry.
func (p *Pool) releaseSlot(r *replica) {
	p.mu.Lock()
	r.inFlight--
	p.mu.Unlock()
}

// success closes r's breaker.
func (p *Pool) success(r *replica) {
	p.mu.Lock()
	r.fails = 0
	p.mu.Unlock()
}

// failure records one dispatch failure, opening (or re-opening, for a
// failed half-open probe) the breaker at the threshold.
func (p *Pool) failure(r *replica) {
	p.mu.Lock()
	r.fails++
	if r.fails >= p.opts.breakerThreshold() {
		wasOpen := r.fails > p.opts.breakerThreshold()
		r.openedAt = p.now()
		if !wasOpen {
			p.cBreakerOpened.Add(1)
			// Read under the lock: other chunks' failures keep counting.
			fails := r.fails
			p.mu.Unlock()
			p.logf("replica %s: breaker opened after %d consecutive failures", r.url, fails)
			return
		}
	}
	p.mu.Unlock()
}

// backoff computes the wait before retry attempt (0-based): the server's
// Retry-After verbatim when one was given, otherwise an exponential base
// with jitter in [d/2, d] so retrying coordinators spread out.
func (p *Pool) backoff(attempt int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		return retryAfter
	}
	d := 50 * time.Millisecond << uint(attempt)
	if d > maxBackoff {
		d = maxBackoff
	}
	p.mu.Lock()
	jitter := time.Duration(p.rng.Int63n(int64(d/2) + 1))
	p.mu.Unlock()
	return d/2 + jitter
}

// retryableError carries a server's Retry-After through the attempt loop.
type retryableError struct {
	err        error
	retryAfter time.Duration
}

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

func retryAfterOf(err error) time.Duration {
	var re *retryableError
	if errors.As(err, &re) {
		return re.retryAfter
	}
	return 0
}

// Run dispatches one shard chunk to the fleet, retrying across replicas
// under leases until a result is accepted or attempts run out. It is the
// jobs.ChunkRunner a coordinator wires into jobs.Options.Dispatch; every
// returned error makes the job runner execute the chunk in-process
// instead (graceful degradation).
func (p *Pool) Run(ctx context.Context, req jobs.ChunkRequest) (jobs.ShardCheckpoint, error) {
	p.mu.Lock()
	known := len(p.replicas)
	p.mu.Unlock()
	if known == 0 {
		return jobs.ShardCheckpoint{}, jobs.ErrNoDispatch
	}
	body, err := json.Marshal(shardRunRequest(req, p.opts.BaselineFP))
	if err != nil {
		return jobs.ShardCheckpoint{}, fmt.Errorf("dist: marshal chunk: %w", err)
	}

	var lastErr error
	lastURL := ""
	for attempt := 0; attempt < p.opts.maxAttempts(); attempt++ {
		if attempt > 0 {
			p.cRetries.Add(1)
			p.sleep(ctx, p.backoff(attempt-1, retryAfterOf(lastErr)))
		}
		if ctx.Err() != nil {
			return jobs.ShardCheckpoint{}, ctx.Err()
		}
		r := p.pick(lastURL)
		if r == nil {
			lastErr = fmt.Errorf("dist: no healthy replica with a free slot: %w", jobs.ErrNoDispatch)
			continue
		}
		if lastURL != "" && r.url != lastURL {
			p.cReassignments.Add(1)
			p.logf("job %s: shard %d chunk [%d,%d) reassigned %s → %s",
				req.Job.ID, req.Shard, req.State.NextIndex, req.ChunkHi, lastURL, r.url)
		}
		p.cDispatched.Add(1)
		sc, err := p.dispatch(ctx, r, body, req)
		if err == nil {
			p.success(r)
			p.cCompleted.Add(1)
			return sc, nil
		}
		p.failure(r)
		lastErr, lastURL = err, r.url
		if ctx.Err() != nil {
			return jobs.ShardCheckpoint{}, ctx.Err()
		}
	}
	p.cLocalFallbacks.Add(1)
	p.logf("job %s: shard %d chunk [%d,%d): dispatch exhausted after %d attempts (%v) — falling back to local execution",
		req.Job.ID, req.Shard, req.State.NextIndex, req.ChunkHi, p.opts.maxAttempts(), lastErr)
	return jobs.ShardCheckpoint{}, fmt.Errorf("dist: dispatch failed after %d attempts: %w",
		p.opts.maxAttempts(), lastErr)
}

// dispatch runs one attempt on one replica under the lease. The HTTP
// round trip runs on its own goroutine with its own timeout, detached
// from the lease: when the lease expires first, the attempt is abandoned
// (the chunk will re-run elsewhere) but the round trip is left to finish
// so a late success is observed — and discarded — as a stale completion,
// exactly the double-execution the byte-identity argument covers.
func (p *Pool) dispatch(ctx context.Context, r *replica, body []byte,
	req jobs.ChunkRequest) (jobs.ShardCheckpoint, error) {
	type result struct {
		sc  jobs.ShardCheckpoint
		err error
	}
	// The request context deliberately survives ctx: an abandoned attempt
	// must keep draining so its staleness is observable, and a job-level
	// cancel must not surface as a replica failure.
	rctx, rcancel := context.WithTimeout(context.WithoutCancel(ctx), p.opts.requestTimeout())
	delivered := make(chan result)
	abandoned := make(chan struct{})
	go func() {
		defer rcancel()
		defer p.releaseSlot(r)
		sc, err := p.post(rctx, r.url, body, req)
		select {
		case delivered <- result{sc, err}:
		case <-abandoned:
			if err == nil {
				p.cStaleDropped.Add(1)
				p.logf("replica %s: stale completion of job %s shard %d chunk [%d,%d) dropped (lease had expired)",
					r.url, req.Job.ID, req.Shard, req.State.NextIndex, req.ChunkHi)
			}
		}
	}()
	lease := time.NewTimer(p.opts.lease())
	defer lease.Stop()
	select {
	case res := <-delivered:
		return res.sc, res.err
	case <-lease.C:
		close(abandoned)
		p.cLeaseExpiries.Add(1)
		return jobs.ShardCheckpoint{}, fmt.Errorf("dist: lease (%v) expired on %s",
			p.opts.lease(), r.url)
	case <-ctx.Done():
		close(abandoned)
		return jobs.ShardCheckpoint{}, ctx.Err()
	}
}

// post performs the HTTP round trip and converts the response to the
// advanced shard state.
func (p *Pool) post(ctx context.Context, url string, body []byte,
	req jobs.ChunkRequest) (jobs.ShardCheckpoint, error) {
	if err := faultpoint.Hit(FaultPointSend); err != nil {
		return jobs.ShardCheckpoint{}, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost,
		url+"/v1/shards/run", bytes.NewReader(body))
	if err != nil {
		return jobs.ShardCheckpoint{}, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := p.hc.Do(hr)
	if err != nil {
		return jobs.ShardCheckpoint{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		// A connection cut mid-body lands here: headers arrived, the
		// snapshots did not.
		return jobs.ShardCheckpoint{}, fmt.Errorf("dist: read response: %w", err)
	}
	if err := faultpoint.Hit(FaultPointRecv); err != nil {
		return jobs.ShardCheckpoint{}, err
	}
	if resp.StatusCode != http.StatusOK {
		err := decodeAPIError(resp.StatusCode, data)
		if resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable {
			if secs, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && secs > 0 {
				return jobs.ShardCheckpoint{}, &retryableError{
					err: err, retryAfter: time.Duration(secs) * time.Second}
			}
		}
		return jobs.ShardCheckpoint{}, err
	}
	var out apitypes.ShardRunResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return jobs.ShardCheckpoint{}, fmt.Errorf("dist: bad response: %w", err)
	}
	return jobs.ShardCheckpoint{
		Lo:        req.State.Lo,
		Hi:        req.State.Hi,
		NextIndex: out.NextIndex,
		Ranked:    out.Ranked,
		Frontier:  out.Frontier,
		Stats:     out.Stats,
	}, nil
}

// shardRunRequest flattens a chunk request to its wire form.
func shardRunRequest(req jobs.ChunkRequest, baselineFP string) apitypes.ShardRunRequest {
	return apitypes.ShardRunRequest{
		JobID:      req.Job.ID,
		SpecFP:     req.Job.SpecFP,
		ParamsFP:   req.Job.ParamsFP,
		BaselineFP: baselineFP,
		Space:      req.Job.Spec.Space,
		Top:        req.Job.Spec.Top,
		Params:     req.Job.Spec.Params,
		Budget:     req.Job.Spec.Budget,
		Lo:         req.State.Lo,
		Hi:         req.State.Hi,
		NextIndex:  req.State.NextIndex,
		ChunkHi:    req.ChunkHi,
		Ranked:     req.State.Ranked,
		Frontier:   req.State.Frontier,
		Stats:      req.State.Stats,
	}
}

// decodeAPIError extracts the structured envelope (falls back to the raw
// body).
func decodeAPIError(status int, body []byte) error {
	var envelope apitypes.ErrorResponse
	if err := json.Unmarshal(body, &envelope); err == nil && envelope.Error.Code != "" {
		return fmt.Errorf("dist: replica: %s: %s", envelope.Error.Code, envelope.Error.Message)
	}
	return fmt.Errorf("dist: replica: HTTP %d: %s", status, bytes.TrimSpace(body))
}
