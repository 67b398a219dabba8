// The job store: a pluggable durability boundary. Every mutation the
// service survives a crash with — job state transitions, events,
// checkpoints — flows through Store.Append as one record; Load replays
// them into the in-memory state the service adopts at startup.
package jobs

import (
	"fmt"
	"sync"

	"repro/internal/faultpoint"
)

// Fault points the chaos harness arms (see internal/faultpoint).
const (
	// FaultPointAppend fires on every store append; an armed error makes
	// the append fail (a full disk, an I/O error).
	FaultPointAppend = "jobs.store.append"
	// FaultPointSink fires once per result a chunk folds, on whichever
	// engine worker folds it and wherever the chunk runs (in-process or
	// on a replica). An armed error fails the chunk; an armed panic
	// simulates a worker crash mid-range.
	FaultPointSink = "jobs.runner.sink"
	// FaultPointShardChunk fires once per in-process chunk, on the shard's
	// goroutine, before the chunk folds: it faults a whole chunk where
	// FaultPointSink faults one result.
	FaultPointShardChunk = "jobs.runner.shard"
)

// Record is one append-only store entry. Kind names the body it carries:
// a job record sets Job, an event record Event, a checkpoint record
// Checkpoint. A checkpoint record may also carry the progress event that
// announces it, so one append makes both durable; replay adds that event
// to the job's log at its own seq, exactly where a separate event record
// would have put it. Logs written with separate progress records replay
// unchanged.
type Record struct {
	Kind string `json:"kind"` // "job" | "event" | "checkpoint"
	// JobID scopes event and checkpoint records (job records carry their
	// own ID).
	JobID      string      `json:"job_id,omitempty"`
	Job        *Job        `json:"job,omitempty"`
	Event      *Event      `json:"event,omitempty"`
	Checkpoint *Checkpoint `json:"checkpoint,omitempty"`
}

// JobState is one job's replayed state: the latest job record, the latest
// checkpoint, and the full event log in seq order.
type JobState struct {
	Job        Job
	Checkpoint *Checkpoint
	Events     []Event
}

// Store persists job records. Append must be durable when it returns;
// Load replays everything appended so far. Implementations must be safe
// for concurrent Appends.
type Store interface {
	Append(rec Record) error
	// Load returns the replayed per-job state, in first-seen order.
	Load() ([]JobState, error)
	Close() error
}

// applyRecord folds one record into the replay state.
func applyRecord(byID map[string]*JobState, order *[]string, rec Record) error {
	id := rec.JobID
	if rec.Kind == "job" {
		if rec.Job == nil {
			return fmt.Errorf("jobs: job record without a job body")
		}
		id = rec.Job.ID
	}
	if id == "" {
		return fmt.Errorf("jobs: %s record without a job id", rec.Kind)
	}
	st, ok := byID[id]
	if !ok {
		if rec.Kind != "job" {
			return fmt.Errorf("jobs: %s record for unknown job %q", rec.Kind, id)
		}
		st = &JobState{}
		byID[id] = st
		*order = append(*order, id)
	}
	switch rec.Kind {
	case "job":
		st.Job = *rec.Job
	case "event":
		if rec.Event == nil {
			return fmt.Errorf("jobs: event record without an event body")
		}
		st.Events = append(st.Events, *rec.Event)
	case "checkpoint":
		if rec.Checkpoint == nil {
			return fmt.Errorf("jobs: checkpoint record without a body")
		}
		cp := *rec.Checkpoint
		st.Checkpoint = &cp
		if rec.Event != nil {
			st.Events = append(st.Events, *rec.Event)
		}
	default:
		return fmt.Errorf("jobs: unknown record kind %q", rec.Kind)
	}
	return nil
}

// MemStore is the in-memory Store: durable for the process lifetime only.
// The zero value is ready to use.
type MemStore struct {
	mu   sync.Mutex
	recs []Record
}

func (m *MemStore) Append(rec Record) error {
	if err := faultpoint.Hit(FaultPointAppend); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recs = append(m.recs, rec)
	return nil
}

func (m *MemStore) Load() ([]JobState, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byID := make(map[string]*JobState)
	var order []string
	for _, rec := range m.recs {
		if err := applyRecord(byID, &order, rec); err != nil {
			return nil, err
		}
	}
	out := make([]JobState, 0, len(order))
	for _, id := range order {
		out = append(out, *byID[id])
	}
	return out, nil
}

func (m *MemStore) Close() error { return nil }
