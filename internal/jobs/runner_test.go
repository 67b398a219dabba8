// Tests for the one shard runner's durable formats and its done
// transition: checkpoint records carry only shard state, a legacy
// top-level checkpoint resumes as one shard, a corrupt checkpoint restarts
// its job from index 0, and no reader or replay sees a done job without
// its summary.
package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/faultpoint"
)

// countingResolve returns a scalar-path engine, so FaultPointEvaluate
// fires once per evaluated candidate, and the evaluation counter it arms.
func countingResolve(t *testing.T) (func([]byte) (*explore.Engine, error), *atomic.Int64) {
	t.Helper()
	eng := explore.New(core.Default())
	eng.ScalarOnly = true
	var evals atomic.Int64
	t.Cleanup(faultpoint.Arm(explore.FaultPointEvaluate, func() error {
		evals.Add(1)
		return nil
	}))
	return func([]byte) (*explore.Engine, error) { return eng, nil }, &evals
}

// forgeShard folds testSpec's [lo, next) into shard [lo, hi)'s state.
func forgeShard(t *testing.T, lo, hi, next int) ShardCheckpoint {
	t.Helper()
	spec := testSpec()
	eng := explore.New(core.Default())
	space, err := spec.Space.SpaceWith(eng.Model.GridDB())
	if err != nil {
		t.Fatalf("space: %v", err)
	}
	it, err := space.Iter()
	if err != nil {
		t.Fatalf("iter: %v", err)
	}
	sc, err := NewShardState(spec.Top, lo, hi)
	if err != nil {
		t.Fatalf("shard state: %v", err)
	}
	if sc, err = RunShardChunk(context.Background(), eng, it.Plan(), spec.Top, sc, next); err != nil {
		t.Fatalf("fold [%d,%d): %v", lo, next, err)
	}
	return sc
}

// storeWith returns a MemStore holding testSpec's job, interrupted while
// running, and the given checkpoint.
func storeWith(t *testing.T, cp Checkpoint) (*MemStore, string) {
	t.Helper()
	spec := testSpec()
	job := Job{
		ID: "j000001", Tenant: "chaos", Spec: spec,
		SpecFP: spec.Fingerprint(), ParamsFP: spec.ParamsFingerprint(),
		State: StateRunning, Total: 48, Created: time.Now().UTC(),
	}
	store := &MemStore{}
	if err := store.Append(Record{Kind: "job", Job: &job}); err != nil {
		t.Fatalf("append job: %v", err)
	}
	if err := store.Append(Record{Kind: "checkpoint", JobID: job.ID, Checkpoint: &cp}); err != nil {
		t.Fatalf("append checkpoint: %v", err)
	}
	return store, job.ID
}

// TestShardedCheckpointRecordsCarryOnlyShards: every checkpoint record a
// job writes, one-shard or split, holds next_index and shards and nothing
// else, and none is written before the first chunk completes.
func TestShardedCheckpointRecordsCarryOnlyShards(t *testing.T) {
	for name, opts := range map[string]Options{"one-shard": {}, "four-shards": shardedOptions()} {
		t.Run(name, func(t *testing.T) {
			store := &MemStore{}
			opts.Store = store
			runToSummary(t, newTestService(t, opts), testSpec())
			store.mu.Lock()
			recs := append([]Record(nil), store.recs...)
			store.mu.Unlock()
			n := 0
			for _, rec := range recs {
				if rec.Kind != "checkpoint" {
					continue
				}
				n++
				b, err := json.Marshal(rec.Checkpoint)
				if err != nil {
					t.Fatalf("marshal checkpoint: %v", err)
				}
				var fields map[string]json.RawMessage
				if err := json.Unmarshal(b, &fields); err != nil {
					t.Fatalf("decode checkpoint: %v", err)
				}
				if len(fields) != 2 || fields["next_index"] == nil || fields["shards"] == nil {
					t.Fatalf("checkpoint record carries %s, want only next_index and shards", b)
				}
				if rec.Checkpoint.NextIndex == 0 {
					t.Fatalf("checkpoint written before any chunk completed: %s", b)
				}
			}
			if n == 0 {
				t.Fatal("job wrote no checkpoint")
			}
		})
	}
}

// TestShardedLegacyCheckpointResumes: a store written before every job
// ran as shards — testSpec at CheckpointEvery 8, parked after two
// checkpoints with the reducer snapshots at top level — replays as one
// shard at the same position and partial summary as when it was written,
// then resumes from that position to the golden bytes.
func TestShardedLegacyCheckpointResumes(t *testing.T) {
	golden := goldenSummary(t, testSpec())
	wantPartial, err := os.ReadFile(filepath.Join("testdata", "legacy_unsharded.partial.json"))
	if err != nil {
		t.Fatalf("read partial: %v", err)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy_unsharded.ndjson"))
	if err != nil {
		t.Fatalf("read fixture: %v", err)
	}
	// Replay a copy: opening a FileStore may truncate and later appends.
	path := filepath.Join(t.TempDir(), "legacy.ndjson")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("copy fixture: %v", err)
	}
	store, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	resolve, evals := countingResolve(t)
	// Load above the water mark holds the replayed job in the queue while
	// its position is read.
	var load atomic64
	load.set(1)
	s := newTestService(t, Options{Store: store, Resolve: resolve, CheckpointEvery: 8,
		Load: load.get, HighWater: 0.9, LoadInterval: time.Millisecond})

	const id = "j000001"
	job, prog, _, err := s.Get(id)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if job.State != StateQueued || prog.NextIndex != 16 || prog.Total != 48 || prog.Shards != nil {
		t.Fatalf("replayed %s at %+v, want queued at 16/48 with no shard positions", job.State, prog)
	}
	partial, err := s.PartialSummary(id)
	if err != nil {
		t.Fatalf("partial summary: %v", err)
	}
	if !bytes.Equal(partial, bytes.TrimSpace(wantPartial)) {
		t.Fatalf("partial summary differs\ngot:  %s\nwant: %s", partial, wantPartial)
	}

	load.set(0)
	waitState(t, s, id, StateDone)
	_, _, sum, _ := s.Get(id)
	if !bytes.Equal(sum, golden) {
		t.Fatalf("resumed summary differs\ngot:  %s\nwant: %s", sum, golden)
	}
	if got := evals.Load(); got != 32 {
		t.Fatalf("resume evaluated %d candidates, want 32 ([16,48) only)", got)
	}
}

// TestShardedCorruptCheckpointRestartsFromZero: a checkpoint whose stats
// snapshot is garbage cannot be resumed, so its job restarts from index 0
// — all 48 candidates evaluated again — and still converges to the golden
// bytes, for one shard, three shards and a legacy top-level checkpoint.
func TestShardedCorruptCheckpointRestartsFromZero(t *testing.T) {
	golden := goldenSummary(t, testSpec())
	garbage := json.RawMessage(`"not a snapshot"`)
	corrupt := func(sc ShardCheckpoint) ShardCheckpoint {
		sc.Stats = garbage
		return sc
	}
	legacy := forgeShard(t, 0, 48, 16)
	cases := map[string]Checkpoint{
		"one-shard": {NextIndex: 16, Shards: []ShardCheckpoint{corrupt(forgeShard(t, 0, 48, 16))}},
		"three-shards": {NextIndex: 24, Shards: []ShardCheckpoint{
			forgeShard(t, 0, 16, 8), corrupt(forgeShard(t, 16, 32, 24)), forgeShard(t, 32, 48, 40)}},
		"legacy": {NextIndex: 16, Ranked: legacy.Ranked, Frontier: legacy.Frontier, Stats: garbage},
	}
	for name, cp := range cases {
		t.Run(name, func(t *testing.T) {
			store, id := storeWith(t, cp)
			resolve, evals := countingResolve(t)
			s := newTestService(t, Options{Store: store, Resolve: resolve, CheckpointEvery: 8})
			waitState(t, s, id, StateDone)
			_, _, sum, _ := s.Get(id)
			if !bytes.Equal(sum, golden) {
				t.Fatalf("summary after corrupt checkpoint differs\ngot:  %s\nwant: %s", sum, golden)
			}
			if got := evals.Load(); got != 48 {
				t.Fatalf("evaluated %d candidates, want 48 (a restart from index 0)", got)
			}
		})
	}
}

// TestChaosSinkErrorFailsChunk: an error armed at FaultPointSink in the
// middle of a 256-candidate chunk — folded by several engine workers at
// once — fails that chunk without touching the shard's reducers, and the
// re-run converges to the golden bytes.
func TestChaosSinkErrorFailsChunk(t *testing.T) {
	spec := testSpec()
	spec.Space.LifetimeYears = []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12} // 288 candidates
	golden := goldenSummary(t, spec)

	s := newTestService(t, Options{CheckpointEvery: 256})
	boom := errors.New("chaos: injected sink error")
	disarm := faultpoint.ArmN(FaultPointSink, 100, 1, func() error { return boom })
	defer disarm()
	job, sum := runToSummary(t, s, spec)
	if !bytes.Equal(sum, golden) {
		t.Fatalf("summary after a failed chunk differs\ngot:  %s\nwant: %s", sum, golden)
	}
	var errs []string
	for _, ev := range s.More(job.ID, 1) {
		if ev.Type == "error" {
			errs = append(errs, ev.Error)
		}
	}
	if len(errs) != 1 || !strings.HasPrefix(errs[0], "fault in range [0,256): "+boom.Error()) {
		t.Fatalf("error events %q, want one fault in range [0,256)", errs)
	}
}

// gateStore holds the append of the first done job record until released.
type gateStore struct {
	MemStore
	reached, release chan struct{}
	once             sync.Once
}

func (g *gateStore) Append(rec Record) error {
	if rec.Kind == "job" && rec.Job.State == StateDone {
		g.once.Do(func() {
			close(g.reached)
			<-g.release
		})
	}
	return g.MemStore.Append(rec)
}

// TestChaosDoneHasSummaryBeforeRecord: while the done job record is being
// appended, a reader that sees done also sees the summary.
func TestChaosDoneHasSummaryBeforeRecord(t *testing.T) {
	golden := goldenSummary(t, testSpec())
	store := &gateStore{reached: make(chan struct{}), release: make(chan struct{})}
	s := newTestService(t, Options{Store: store})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(store.release) }) }
	t.Cleanup(release) // before the service's shutdown: cleanups run last-in first-out

	job, err := s.Submit("chaos", "", testSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	select {
	case <-store.reached:
	case <-time.After(30 * time.Second):
		t.Fatal("job never appended its done record")
	}
	for i := 0; i < 100; i++ {
		j, _, sum, _ := s.Get(job.ID)
		if j.State != StateDone || !bytes.Equal(sum, golden) {
			t.Fatalf("with the done record in flight: state %s, summary %q", j.State, sum)
		}
	}
	release()
	waitState(t, s, job.ID, StateDone)
}

// runRecords runs testSpec to done on a MemStore and returns every
// appended record in order.
func runRecords(t *testing.T) []Record {
	t.Helper()
	store := &MemStore{}
	s := newTestService(t, Options{Store: store})
	job, _ := runToSummary(t, s, testSpec())
	waitFinalEvent(t, s, job.ID, StateDone)
	store.mu.Lock()
	defer store.mu.Unlock()
	return append([]Record(nil), store.recs...)
}

// replayPrefix replays the records up to and including the first one
// match accepts, and returns the replayed job's record, summary and event
// types once it is done.
func replayPrefix(t *testing.T, recs []Record, match func(Record) bool,
	resolve func([]byte) (*explore.Engine, error)) (Job, []byte, []string) {
	t.Helper()
	end := -1
	for i, rec := range recs {
		if match(rec) {
			end = i
			break
		}
	}
	if end < 0 {
		t.Fatal("log has no matching record")
	}
	store := &MemStore{recs: append([]Record(nil), recs[:end+1]...)}
	s := newTestService(t, Options{Store: store, Resolve: resolve})
	job := waitState(t, s, "j000001", StateDone)
	_, _, sum, _ := s.Get(job.ID)
	var types []string
	for _, ev := range s.More(job.ID, 1) {
		types = append(types, ev.Type)
	}
	return job, sum, types
}

// TestChaosLogEndsAtDoneRecord: a crash right after the done job record
// replays a done job that has its summary, and its event log gains the
// final state event it lost, after the summary event.
func TestChaosLogEndsAtDoneRecord(t *testing.T) {
	golden := goldenSummary(t, testSpec())
	recs := runRecords(t)
	_, sum, types := replayPrefix(t, recs, func(rec Record) bool {
		return rec.Kind == "job" && rec.Job.State == StateDone
	}, testResolve(t))
	if !bytes.Equal(sum, golden) {
		t.Fatalf("replayed summary differs\ngot:  %s\nwant: %s", sum, golden)
	}
	if n := len(types); n < 2 || types[n-2] != "summary" || types[n-1] != "state" {
		t.Fatalf("replayed events %v: want summary then the done state", types)
	}
}

// TestChaosLogEndsAtSummaryEvent: a crash after the summary event but
// before the done job record replays a job that finishes as done, with
// the golden summary, without evaluating anything again.
func TestChaosLogEndsAtSummaryEvent(t *testing.T) {
	golden := goldenSummary(t, testSpec())
	recs := runRecords(t)
	resolve, evals := countingResolve(t)
	job, sum, types := replayPrefix(t, recs, func(rec Record) bool {
		if rec.Kind == "job" && rec.Job.State == StateDone {
			t.Fatal("done job record precedes the summary event")
		}
		return rec.Kind == "event" && rec.Event.Type == "summary"
	}, resolve)
	if !bytes.Equal(sum, golden) {
		t.Fatalf("replayed summary differs\ngot:  %s\nwant: %s", sum, golden)
	}
	if job.Finished.IsZero() {
		t.Error("finished job has no finish time")
	}
	if n := len(types); n < 2 || types[n-2] != "summary" || types[n-1] != "state" {
		t.Fatalf("replayed events %v: want summary then the done state", types)
	}
	if got := evals.Load(); got != 0 {
		t.Fatalf("replay re-ran the job: %d candidates evaluated", got)
	}
}
