// Wire types for the distributed shard tier: POST /v1/shards/run (a
// coordinator farming one shard chunk out to a replica) and /v1/replicas
// (replica registration and health listing). A shard chunk is a pure
// function — reducer snapshots plus an index range in, advanced snapshots
// out — so the request carries everything a stateless replica needs to
// compute bytes identical to local execution: the full spec, the
// fingerprints to verify it resolved identically, and the range.
package apitypes

import (
	"encoding/json"
	"time"
)

// ShardRunRequest is the body of POST /v1/shards/run: evaluate the index
// range [NextIndex, ChunkHi) of the spec'd space and fold it into the
// given reducer snapshots.
type ShardRunRequest struct {
	// JobID is the coordinator's job this chunk belongs to (logging only;
	// the replica is stateless).
	JobID string `json:"job_id,omitempty"`
	// SpecFP/ParamsFP are the coordinator's fingerprints of the spec and
	// parameter overlay. The replica recomputes both and refuses on
	// mismatch — a replica running different parameters would silently
	// break byte-identity.
	SpecFP   string `json:"spec_fp"`
	ParamsFP string `json:"params_fp"`
	// BaselineFP is the coordinator's baseline ParameterSet fingerprint;
	// a replica booted with a different baseline refuses the chunk.
	BaselineFP string `json:"baseline_fp,omitempty"`
	// Space/Top/Params/Budget mirror the job spec (see JobRequest).
	Space  SpaceSpec       `json:"space"`
	Top    int             `json:"top,omitempty"`
	Params json.RawMessage `json:"params,omitempty"`
	Budget int             `json:"budget,omitempty"`
	// Lo/Hi fix the owning shard's range; NextIndex..ChunkHi is the chunk
	// to evaluate (Lo ≤ NextIndex ≤ ChunkHi ≤ Hi).
	Lo        int `json:"lo"`
	Hi        int `json:"hi"`
	NextIndex int `json:"next_index"`
	ChunkHi   int `json:"chunk_hi"`
	// Ranked/Frontier/Stats are the shard's reducer snapshots as of
	// NextIndex (the explore snapshot envelopes, bit-exact).
	Ranked   json.RawMessage `json:"ranked"`
	Frontier json.RawMessage `json:"frontier"`
	Stats    json.RawMessage `json:"stats"`
}

// ShardRunResponse returns the advanced shard state: snapshots folded
// through NextIndex == the request's ChunkHi.
type ShardRunResponse struct {
	NextIndex int `json:"next_index"`
	// Evaluated is the candidate count this call folded (ChunkHi − the
	// request's NextIndex) — bookkeeping, not part of the state.
	Evaluated int             `json:"evaluated"`
	Ranked    json.RawMessage `json:"ranked"`
	Frontier  json.RawMessage `json:"frontier"`
	Stats     json.RawMessage `json:"stats"`
}

// RegisterReplicaRequest is the body of POST /v1/replicas: a worker
// announcing (or re-announcing — the call doubles as the heartbeat) the
// base URL the coordinator should dispatch shard chunks to.
type RegisterReplicaRequest struct {
	URL string `json:"url"`
}

// ReplicaInfo is one replica's health as the coordinator sees it
// (GET /v1/replicas).
type ReplicaInfo struct {
	URL string `json:"url"`
	// Static replicas were configured at boot and are exempt from the
	// heartbeat timeout; registered ones go unhealthy when silent.
	Static  bool `json:"static"`
	Healthy bool `json:"healthy"`
	// BreakerOpen reports the circuit breaker tripped by consecutive
	// dispatch failures; the replica is skipped until a cooldown probe.
	BreakerOpen bool `json:"breaker_open"`
	InFlight    int  `json:"in_flight"`
	// LastSeen is the last registration/heartbeat time (zero for static).
	LastSeen time.Time `json:"last_seen,omitempty"`
}

// ReplicasResponse is the body of GET /v1/replicas.
type ReplicasResponse struct {
	Replicas []ReplicaInfo `json:"replicas"`
}

// DistCounters are the distributed-shard counters of GET /v1/stats:
// the coordinator side (dispatch outcomes over the replica pool) plus
// the replica side (chunks this process served for some coordinator).
type DistCounters struct {
	// Replicas/Healthy size the pool right now.
	Replicas int `json:"replicas"`
	Healthy  int `json:"healthy"`
	// Dispatched counts chunk attempts sent to replicas; Completed the
	// ones whose result was accepted.
	Dispatched uint64 `json:"dispatched"`
	Completed  uint64 `json:"completed"`
	// Retries counts re-attempts after a failed dispatch; Reassignments
	// the retries that moved the chunk to a different replica.
	Retries       uint64 `json:"retries"`
	Reassignments uint64 `json:"reassignments"`
	// LeaseExpiries counts chunks abandoned because the replica missed
	// the lease; StaleDropped counts late completions from abandoned
	// attempts whose results were discarded (the range re-ran elsewhere).
	LeaseExpiries uint64 `json:"lease_expiries"`
	StaleDropped  uint64 `json:"stale_dropped"`
	// BreakerOpened counts closed→open circuit-breaker transitions.
	BreakerOpened uint64 `json:"breaker_opened"`
	// LocalFallbacks counts chunks that exhausted dispatch and ran
	// in-process — the graceful-degradation path.
	LocalFallbacks uint64 `json:"local_fallbacks"`
	// ShardRunsServed/CandidatesServed are the replica side: chunks and
	// candidates this process evaluated via POST /v1/shards/run.
	ShardRunsServed  uint64 `json:"shard_runs_served"`
	CandidatesServed uint64 `json:"candidates_served"`
	// PlansCompiled counts the spaces this process compiled to serve
	// those chunks. A replica caches a few compiled plans, so it compiles
	// about once per job rather than once per chunk.
	PlansCompiled uint64 `json:"plans_compiled"`
}
