// Package jobs is the crash-resumable async exploration tier: a job is a
// durable record — spec and params fingerprints, budget, a small state
// machine — whose progress is a periodic checkpoint (each index-range
// shard's last completed cursor plus bit-exact snapshots of its online
// reducers). Because the exploration cursor is positional (Space.Iter)
// and the reducers restore bit-exactly (explore snapshot contract), a job
// interrupted anywhere — worker panic, store write fault, dropped client,
// hard process kill — resumes from its last checkpoint and converges to a
// summary byte-identical to the uninterrupted run. The chaos harness
// (chaos_test.go) proves exactly that.
//
// The service side adds per-tenant admission control (token-bucket rate
// limiting, concurrent-job quotas), load-aware graceful shedding that
// parks running jobs at a checkpoint instead of dropping work, and
// worker-panic containment with a single re-issue of the dirty index
// range.
package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"time"

	"repro/internal/server/apitypes"
)

// State is a job's lifecycle position.
//
//	queued → running → done
//	                 ↘ failed
//	queued|running → cancelled
//	running → shedding → queued (parked at a checkpoint, resumed later)
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
	// StateShedding marks a job parked under load (or at shutdown): its
	// progress is checkpointed and it re-enters the queue instead of
	// losing work.
	StateShedding State = "shedding"
)

// Terminal reports whether no further transitions can occur.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Spec is what a job explores: the same space/params surface as
// POST /v1/explore, plus an optional evaluation budget.
type Spec struct {
	Space apitypes.SpaceSpec `json:"space"`
	// Top bounds the ranked candidate IDs of the summary (0 = all).
	Top int `json:"top,omitempty"`
	// Params is an optional ParameterSet overlay (see /v1/evaluate).
	Params json.RawMessage `json:"params,omitempty"`
	// Budget caps the candidates evaluated (0 = the whole space). A
	// budgeted job evaluates the first Budget candidates in enumeration
	// order, so equal budgets give equal summaries.
	Budget int `json:"budget,omitempty"`
}

// Job is the durable job record. Everything here is persisted on every
// state transition; progress lives in the separate checkpoint records.
type Job struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	// IdemKey is the client's idempotency key; resubmitting the same key
	// under the same tenant returns the original job.
	IdemKey string `json:"idem_key,omitempty"`
	Spec    Spec   `json:"spec"`
	// SpecFP fingerprints the canonical spec JSON; ParamsFP fingerprints
	// the parameter overlay the job evaluates under ("baseline" when
	// absent).
	SpecFP   string `json:"spec_fp"`
	ParamsFP string `json:"params_fp"`
	State    State  `json:"state"`
	// Error is the failure detail (state failed); Panic carries the
	// recovered worker panic when that is what killed the job.
	Error string `json:"error,omitempty"`
	Panic string `json:"panic,omitempty"`
	// Total is the number of candidates the job will evaluate (space size
	// bounded by budget), fixed at submission.
	Total int `json:"total"`
	// Created/Started/Finished are wall-clock bookkeeping; they never
	// enter the summary bytes.
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitempty"`
	Finished time.Time `json:"finished,omitempty"`
}

// Checkpoint is a job's durable progress. A job runs as K ≥ 1 fixed
// index-range shards, each with its own cursor and reducer snapshots;
// a crash resumes each shard from its own cursor, so only dirty shards
// re-run. The first checkpoint fixes the shard ranges for the job's
// lifetime.
type Checkpoint struct {
	// NextIndex is the completed candidate count: the sum of per-shard
	// progress, monotone across checkpoints.
	NextIndex int               `json:"next_index"`
	Shards    []ShardCheckpoint `json:"shards,omitempty"`
	// Ranked/Frontier/Stats are the reducer snapshots of a legacy
	// checkpoint, written before every job ran as shards. They are only
	// read: replay upgrades such a checkpoint to the one shard it
	// describes.
	Ranked   json.RawMessage `json:"ranked,omitempty"`
	Frontier json.RawMessage `json:"frontier,omitempty"`
	Stats    json.RawMessage `json:"stats,omitempty"`
}

// ShardCheckpoint is one shard's durable progress: its fixed index range
// [Lo, Hi), its own next cursor, and its reducer snapshots
// (explore.PointTopK, explore.PointFrontier, explore.RunningStats) folded
// through NextIndex. Re-running from NextIndex after restoring the
// snapshots reproduces the uninterrupted reduction exactly (the explore
// snapshot contract), and merging every shard's snapshots in index order
// reproduces the one-shard reduction bit for bit (the explore merge laws)
// — which is what keeps summaries byte-identical however a job is split
// or cut.
type ShardCheckpoint struct {
	Lo        int             `json:"lo"`
	Hi        int             `json:"hi"`
	NextIndex int             `json:"next_index"`
	Ranked    json.RawMessage `json:"ranked"`
	Frontier  json.RawMessage `json:"frontier"`
	Stats     json.RawMessage `json:"stats"`
}

// ChunkRequest describes one shard chunk offered to a dispatcher: the
// owning job (whose spec and fingerprints identify the computation), the
// shard's durable state before the chunk, and the exclusive end of the
// index range to fold. The chunk is the pure function
// [State.NextIndex, ChunkHi) applied to State's reducer snapshots, so
// executing it twice — or on another machine — returns the same bytes.
type ChunkRequest struct {
	Job   Job
	Shard int
	// State is the shard's last durable checkpoint: snapshots valid
	// through State.NextIndex.
	State ShardCheckpoint
	// ChunkHi is the exclusive end of the chunk's index range.
	ChunkHi int
}

// ChunkRunner executes one shard chunk somewhere — a replica fleet, a
// test double — and returns the advanced shard state (NextIndex ==
// ChunkHi, snapshots folded through it). Any error makes the runner
// fall back to in-process execution of the same range; at-least-once
// execution of the idempotent chunk is safe by construction.
type ChunkRunner func(ctx context.Context, req ChunkRequest) (ShardCheckpoint, error)

// ErrNoDispatch reports that a dispatcher has nowhere to send a chunk
// (no replica registered or healthy). The runner treats it as the
// normal local-execution path and does not log it per chunk.
var ErrNoDispatch = errors.New("jobs: no dispatch target")

// Progress is the wire form of a job's position.
type Progress struct {
	NextIndex int `json:"next_index"`
	Total     int `json:"total"`
	// Shards carries per-shard positions while a job of K > 1 shards
	// runs; a one-shard job omits it.
	Shards []ShardProgress `json:"shards,omitempty"`
}

// ShardProgress is one shard's position inside a job of K > 1 shards.
type ShardProgress struct {
	Lo        int `json:"lo"`
	Hi        int `json:"hi"`
	NextIndex int `json:"next_index"`
}

// shardProgress projects shard checkpoints to their wire positions; one
// shard has none beyond the job's own.
func shardProgress(shards []ShardCheckpoint) []ShardProgress {
	if len(shards) <= 1 {
		return nil
	}
	out := make([]ShardProgress, len(shards))
	for i, sc := range shards {
		out[i] = ShardProgress{Lo: sc.Lo, Hi: sc.Hi, NextIndex: sc.NextIndex}
	}
	return out
}

// Event is one line of a job's event stream. Seq is per-job, 1-based and
// contiguous, so a client that saw seq n resumes with ?from=n+1.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // "state" | "progress" | "summary" | "error"
	// State accompanies state events.
	State State `json:"state,omitempty"`
	// Progress accompanies progress events (one per checkpoint).
	Progress *Progress `json:"progress,omitempty"`
	// Summary accompanies the terminal summary event; its bytes are the
	// job's canonical summary (byte-identical across resumes).
	Summary json.RawMessage `json:"summary,omitempty"`
	// Error accompanies error events.
	Error string `json:"error,omitempty"`
}

// Summary is a finished job's result: scale, ranking and frontier. It
// deliberately excludes engine cache counters — those vary across resumes
// while the summary must not.
type Summary struct {
	Candidates int      `json:"candidates"`
	Evaluated  int      `json:"evaluated"`
	Failed     int      `json:"failed"`
	Ranked     []string `json:"ranked"`
	Frontier   []string `json:"frontier"`
	MinKg      float64  `json:"min_kg"`
	MaxKg      float64  `json:"max_kg"`
	MeanKg     float64  `json:"mean_kg"`
}

// Fingerprint returns the canonical fingerprint of the spec.
func (s Spec) Fingerprint() string {
	b, _ := json.Marshal(s)
	return fingerprint(b)
}

// ParamsFingerprint fingerprints the overlay ("baseline" when absent).
func (s Spec) ParamsFingerprint() string {
	if len(s.Params) == 0 || string(s.Params) == "null" {
		return "baseline"
	}
	return fingerprint(s.Params)
}

func fingerprint(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}
