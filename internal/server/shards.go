// The distributed-shard endpoints: POST /v1/shards/run executes one
// shard chunk for a remote coordinator, and /v1/replicas is fleet
// membership (POST registers/heartbeats a worker, GET lists health).
//
// A replica holds no job state: the request carries the full spec, the
// reducer snapshots and the index range, and the handler runs the exact
// same chunk executor (jobs.RunShardChunk) the in-process runner uses — so
// a chunk computes byte-identical snapshots wherever it runs. The handler
// verifies the coordinator's spec/params/baseline fingerprints before
// evaluating: a replica resolving a different model must refuse the
// chunk rather than silently break byte-identity. The one thing a replica
// keeps between requests is a small cache of compiled plans, so a job's
// later chunks skip rebuilding its space; losing it costs only a rebuild.
package server

import (
	"container/list"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/explore"
	"repro/internal/faultpoint"
	"repro/internal/jobs"
	"repro/internal/server/apitypes"
)

// FaultPointShardRespond fires after a shard-run response is computed;
// an armed error makes the handler promise the full body but cut the
// connection halfway through it — the mid-body failure a replica dying
// between evaluation and delivery produces.
const FaultPointShardRespond = "server.shards.respond"

// handleShardRun evaluates one shard chunk for a remote coordinator.
func (s *Server) handleShardRun(w http.ResponseWriter, r *http.Request) int {
	var req apitypes.ShardRunRequest
	if err := s.decode(w, r, &req); err != nil {
		return decodeStatus(w, err)
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	// Chunk evaluation is bulk model work: it takes a regular evaluation
	// slot, and saturation answers 429 + Retry-After so the coordinator's
	// backoff (not a queue here) absorbs the pressure.
	release, err := s.acquire(ctx)
	if err != nil {
		return acquireStatus(w, err)
	}
	defer release()

	if req.BaselineFP != "" && req.BaselineFP != s.baseFP.String() {
		return writeError(w, http.StatusUnprocessableEntity, "baseline_mismatch",
			fmt.Sprintf("replica baseline params %s differ from coordinator baseline %s",
				s.baseFP.String(), req.BaselineFP))
	}
	eng, apiErr := s.resolveEngine(req.Params)
	if apiErr != nil {
		return writeError(w, errStatus(apiErr), apiErr.Code, apiErr.Message)
	}
	spec := jobs.Spec{Space: req.Space, Top: req.Top, Params: req.Params, Budget: req.Budget}
	specFP, paramsFP := spec.Fingerprint(), spec.ParamsFingerprint()
	if req.SpecFP != "" && specFP != req.SpecFP {
		return writeError(w, http.StatusUnprocessableEntity, "spec_mismatch",
			fmt.Sprintf("spec fingerprints %s (replica) vs %s (coordinator) — mismatched builds?", specFP, req.SpecFP))
	}
	if req.ParamsFP != "" && paramsFP != req.ParamsFP {
		return writeError(w, http.StatusUnprocessableEntity, "params_mismatch",
			fmt.Sprintf("params fingerprints %s (replica) vs %s (coordinator)", paramsFP, req.ParamsFP))
	}
	plan, perr := s.plans.get(planKey{specFP: specFP, paramsFP: paramsFP, eng: eng}, spec)
	if perr != nil {
		return writeError(w, http.StatusBadRequest, "bad_request", perr.Error())
	}
	if !(0 <= req.Lo && req.Lo <= req.NextIndex && req.NextIndex <= req.ChunkHi &&
		req.ChunkHi <= req.Hi && req.Hi <= plan.total) {
		return writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("inconsistent shard range: lo %d ≤ next %d ≤ chunk_hi %d ≤ hi %d ≤ total %d must hold",
				req.Lo, req.NextIndex, req.ChunkHi, req.Hi, plan.total))
	}

	sc, rerr := jobs.RunShardChunk(ctx, eng, plan.src, req.Top, jobs.ShardCheckpoint{
		Lo: req.Lo, Hi: req.Hi, NextIndex: req.NextIndex,
		Ranked: req.Ranked, Frontier: req.Frontier, Stats: req.Stats,
	}, req.ChunkHi)
	if rerr != nil {
		if ctx.Err() != nil {
			return cancelStatus(w, ctx.Err())
		}
		// A restore failure (corrupt snapshots) or a contained worker
		// panic: the chunk is not computable here. The coordinator treats
		// any error as "re-run elsewhere", so one status fits all.
		return writeError(w, http.StatusUnprocessableEntity, "chunk_failed", rerr.Error())
	}
	s.shardRuns.Add(1)
	s.shardCands.Add(uint64(req.ChunkHi - req.NextIndex))

	body, merr := json.Marshal(apitypes.ShardRunResponse{
		NextIndex: sc.NextIndex,
		Evaluated: req.ChunkHi - req.NextIndex,
		Ranked:    sc.Ranked,
		Frontier:  sc.Frontier,
		Stats:     sc.Stats,
	})
	if merr != nil {
		return writeError(w, http.StatusInternalServerError, "internal", merr.Error())
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if ferr := faultpoint.Hit(FaultPointShardRespond); ferr != nil {
		// Promise the full body, deliver half, and return: net/http closes
		// the connection short, so the coordinator reads an unexpected EOF
		// mid-body over a real wire — after this replica already spent the
		// evaluation (the stale/duplicated work the lease design absorbs).
		_, _ = w.Write(body[:len(body)/2])
		return http.StatusOK
	}
	_, _ = w.Write(body)
	return http.StatusOK
}

// planCacheSize bounds the compiled plans a replica keeps. Every chunk of
// a job hits one entry, so a handful covers the jobs its coordinators run
// at once; each entry holds its space's design templates and slot tables,
// which is why the bound stays small.
const planCacheSize = 4

// planKey identifies a compiled plan: the spec and params fingerprints the
// replica computed itself, and the engine they resolved to — a plan's
// slots hold that engine's embodied terms.
type planKey struct {
	specFP, paramsFP string
	eng              *explore.Engine
}

// compiledPlan is one spec's space compiled for chunk execution: the plan
// every chunk folds through, shared by concurrent chunks like the
// in-process runner shares its own, and the candidate count the spec's
// budget bounds.
type compiledPlan struct {
	key   planKey
	src   explore.Source
	total int
}

// compilePlan builds the spec's space on the key's engine and compiles
// it. An invalid or non-enumerating space is an error, which the cache
// never keeps.
func compilePlan(key planKey, spec jobs.Spec) (*compiledPlan, error) {
	space, err := spec.Space.SpaceWith(key.eng.Model.GridDB())
	if err != nil {
		return nil, fmt.Errorf("invalid space: %w", err)
	}
	it, err := space.Iter()
	if err != nil {
		return nil, fmt.Errorf("space does not enumerate: %w", err)
	}
	total := space.Size()
	if spec.Budget > 0 && spec.Budget < total {
		total = spec.Budget
	}
	return &compiledPlan{key: key, src: it.Plan(), total: total}, nil
}

// planCache is the replica's bounded LRU of compiled plans. No output
// byte depends on it: a plan is a pure function of its key, so a hit and
// a rebuild fold the same bits.
type planCache struct {
	mu       sync.Mutex
	byKey    map[planKey]*list.Element
	lru      *list.List // front = most recently used
	compiled atomic.Uint64
}

func newPlanCache() *planCache {
	return &planCache{byKey: make(map[planKey]*list.Element), lru: list.New()}
}

// get returns the plan of spec, which key identifies, compiling it on a
// miss outside the lock. Two concurrent misses may both compile; the
// first to finish is kept.
func (c *planCache) get(key planKey, spec jobs.Spec) (*compiledPlan, error) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		return el.Value.(*compiledPlan), nil
	}
	c.mu.Unlock()
	p, err := compilePlan(key, spec)
	if err != nil {
		return nil, err
	}
	c.compiled.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*compiledPlan), nil
	}
	c.byKey[key] = c.lru.PushFront(p)
	if c.lru.Len() > planCacheSize {
		delete(c.byKey, c.lru.Remove(c.lru.Back()).(*compiledPlan).key)
	}
	return p, nil
}

// handleReplicas serves fleet membership: POST registers (and
// re-registering is the heartbeat), GET lists the coordinator's health
// view of every replica.
func (s *Server) handleReplicas(w http.ResponseWriter, r *http.Request) int {
	switch r.Method {
	case http.MethodPost:
		var req apitypes.RegisterReplicaRequest
		if err := s.decode(w, r, &req); err != nil {
			return decodeStatus(w, err)
		}
		url := strings.TrimRight(req.URL, "/")
		if !strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://") {
			return writeError(w, http.StatusBadRequest, "bad_request",
				`"url" must be an absolute http(s) base URL`)
		}
		s.pool.Register(url)
		return writeJSON(w, apitypes.ReplicasResponse{Replicas: s.pool.Replicas()})
	case http.MethodGet:
		return writeJSON(w, apitypes.ReplicasResponse{Replicas: s.pool.Replicas()})
	default:
		w.Header().Set("Allow", "POST, GET")
		return writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			"/v1/replicas requires POST or GET")
	}
}
