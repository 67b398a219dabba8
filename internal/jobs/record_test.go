// Tests for one record per chunk: a progress event rides inside the
// checkpoint record it announces, replay puts it back in the job's log at
// its own seq, and a checkpoint whose append fails publishes neither.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultpoint"
)

// waitFinalEvent polls until the job's log ends with the wanted state
// event (which follows the summary) and returns the log.
func waitFinalEvent(t *testing.T, s *Service, id string, want State) []Event {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		evs := s.More(id, 1)
		if n := len(evs); n > 0 && evs[n-1].Type == "state" && evs[n-1].State == want {
			return evs
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s: log never ended with the %s state event", id, want)
	return nil
}

// eventsJSON renders events for byte comparison.
func eventsJSON(t *testing.T, evs []Event) string {
	t.Helper()
	b, err := json.Marshal(evs)
	if err != nil {
		t.Fatalf("marshal events: %v", err)
	}
	return string(b)
}

// TestChaosProgressRidesItsCheckpoint: a finished job's store holds no
// progress event record of its own. Every progress event rides inside the
// checkpoint record it announces, and every checkpoint record carries
// one, for one shard and for four.
func TestChaosProgressRidesItsCheckpoint(t *testing.T) {
	for name, opts := range map[string]Options{"one-shard": {}, "four-shards": shardedOptions()} {
		t.Run(name, func(t *testing.T) {
			store := &MemStore{}
			opts.Store = store
			s := newTestService(t, opts)
			job, _ := runToSummary(t, s, testSpec())
			progress := 0
			for _, ev := range waitFinalEvent(t, s, job.ID, StateDone) {
				if ev.Type == "progress" {
					progress++
				}
			}
			store.mu.Lock()
			recs := append([]Record(nil), store.recs...)
			store.mu.Unlock()
			checkpoints := 0
			for _, rec := range recs {
				switch {
				case rec.Kind == "event" && rec.Event.Type == "progress":
					t.Fatalf("standalone progress event record (seq %d)", rec.Event.Seq)
				case rec.Kind == "checkpoint":
					checkpoints++
					ev := rec.Event
					if ev == nil || ev.Type != "progress" || ev.Progress == nil ||
						ev.Progress.NextIndex != rec.Checkpoint.NextIndex {
						t.Fatalf("checkpoint at %d carries event %+v, want its progress event",
							rec.Checkpoint.NextIndex, ev)
					}
				}
			}
			if checkpoints == 0 || checkpoints != progress {
				t.Fatalf("%d checkpoint records for %d progress events, want one each", checkpoints, progress)
			}
		})
	}
}

// TestChaosReplayedEventsMatchLive: reopening a finished four-shard job's
// FileStore replays the same events at the same seqs as the live service
// served, so every EventsSince cursor resumes onto the same suffix.
func TestChaosReplayedEventsMatchLive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.ndjson")
	store, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	opts := shardedOptions()
	opts.Store = store
	live := newTestService(t, opts)
	job, _ := runToSummary(t, live, testSpec())
	events := waitFinalEvent(t, live, job.ID, StateDone)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := live.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	store2, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	replayed := newTestService(t, Options{Store: store2})
	if n := store2.Skipped(); n != 0 {
		t.Fatalf("replay skipped %d lines", n)
	}
	for i, ev := range events {
		if ev.Seq != i+1 {
			t.Fatalf("live event %d has seq %d: the log is not contiguous", i, ev.Seq)
		}
	}
	for k := 0; k <= len(events)+1; k++ {
		want, _, stop, err := live.EventsSince(job.ID, k)
		if err != nil {
			t.Fatalf("live events from %d: %v", k, err)
		}
		stop()
		got, _, stop, err := replayed.EventsSince(job.ID, k)
		if err != nil {
			t.Fatalf("replayed events from %d: %v", k, err)
		}
		stop()
		if g, w := eventsJSON(t, got), eventsJSON(t, want); g != w {
			t.Fatalf("events from %d differ after replay\ngot:  %s\nwant: %s", k, g, w)
		}
	}
}

// TestChaosFailedCheckpointLeavesNoProgress: after one durable
// checkpoint the store goes down. The next checkpoint's append fails
// across its retries, so neither that checkpoint nor its progress event
// becomes visible, and the job fails as a failed checkpoint always has.
func TestChaosFailedCheckpointLeavesNoProgress(t *testing.T) {
	store := &MemStore{}
	s := newTestService(t, Options{Store: store, CheckpointEvery: 8})
	// Hold the first result of the second chunk until the store is down.
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(faultpoint.ArmN(FaultPointSink, 8, 1, func() error { <-gate; return nil }))
	t.Cleanup(release)
	job, err := s.Submit("chaos", "", testSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, p, _, _ := s.Get(job.ID); p.NextIndex == 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first checkpoint never became visible")
		}
		time.Sleep(time.Millisecond)
	}
	t.Cleanup(faultpoint.Arm(FaultPointAppend, func() error { return errors.New("chaos: store down") }))
	release()

	failed := waitState(t, s, job.ID, StateFailed)
	if !strings.HasPrefix(failed.Error, "persist checkpoint: ") {
		t.Fatalf("job failed with %q, want a persist-checkpoint failure", failed.Error)
	}
	if _, p, _, _ := s.Get(job.ID); p.NextIndex != 8 {
		t.Fatalf("progress after the failed checkpoint = %d, want the durable 8", p.NextIndex)
	}
	var progress []int
	for i, ev := range waitFinalEvent(t, s, job.ID, StateFailed) {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d: the log is not contiguous", i, ev.Seq)
		}
		if ev.Type == "progress" {
			progress = append(progress, ev.Progress.NextIndex)
		}
	}
	if len(progress) != 1 || progress[0] != 8 {
		t.Fatalf("progress events at %v, want only the durable checkpoint's at 8", progress)
	}
	store.mu.Lock()
	defer store.mu.Unlock()
	for _, rec := range store.recs {
		if rec.Kind == "checkpoint" && rec.Checkpoint.NextIndex != 8 {
			t.Fatalf("store holds a checkpoint at %d", rec.Checkpoint.NextIndex)
		}
	}
}

// TestChaosLostEventAppendKeepsSeqsContiguous: an event whose append fails
// through every retry is not published, so the next event takes its seq
// and the live log is exactly what a replay of the store serves — seqs
// stay contiguous across the restart. The terminal state event is the one
// exception: it is published even when its append fails, so live tailers
// see the stream end, and replay synthesizes it at the same seq.
func TestChaosLostEventAppendKeepsSeqsContiguous(t *testing.T) {
	contiguous := func(t *testing.T, evs []Event) {
		t.Helper()
		for i, ev := range evs {
			if ev.Seq != i+1 {
				seqs := make([]int, len(evs))
				for j, ev := range evs {
					seqs[j] = ev.Seq
				}
				t.Fatalf("event %d has seq %d: seqs %v", i, ev.Seq, seqs)
			}
		}
	}

	t.Run("lost queued event", func(t *testing.T) {
		store := &MemStore{}
		svc, err := New(Options{Store: store, Resolve: testResolve(t), CheckpointEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		throttle := faultpoint.Arm(FaultPointSink, func() error {
			time.Sleep(500 * time.Microsecond)
			return nil
		})
		defer throttle()
		// Let the job record through, then fail all four attempts of the
		// queued event's append.
		lost := faultpoint.ArmN(FaultPointAppend, 1, 4, func() error {
			return errors.New("chaos: event append lost")
		})
		defer lost()
		job, err := svc.Submit("chaos", "", testSpec())
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if _, prog, _, _ := svc.Get(job.ID); prog.NextIndex > 0 && prog.NextIndex < prog.Total {
				break
			}
			time.Sleep(time.Millisecond)
		}
		svc.Abort()
		throttle()
		live, _, stop, err := svc.EventsSince(job.ID, 1)
		if err != nil {
			t.Fatal(err)
		}
		stop()
		contiguous(t, live)

		// Replay the same store. The resumed run appends after the
		// replayed prefix, which must be the live log exactly.
		svc2 := newTestService(t, Options{Store: store, CheckpointEvery: 4})
		replayed, _, stop2, err := svc2.EventsSince(job.ID, 1)
		if err != nil {
			t.Fatal(err)
		}
		stop2()
		if len(replayed) < len(live) || eventsJSON(t, replayed[:len(live)]) != eventsJSON(t, live) {
			t.Fatalf("replayed log does not start with the live log\nlive:     %s\nreplayed: %s",
				eventsJSON(t, live), eventsJSON(t, replayed))
		}
		contiguous(t, waitFinalEvent(t, svc2, job.ID, StateDone))
	})

	t.Run("lost terminal state event", func(t *testing.T) {
		store := &dropTerminalStore{}
		svc, err := New(Options{Store: store, Resolve: testResolve(t), CheckpointEvery: 8})
		if err != nil {
			t.Fatal(err)
		}
		job, _ := runToSummary(t, svc, testSpec())
		live := waitFinalEvent(t, svc, job.ID, StateDone)
		svc.Abort()
		contiguous(t, live)

		svc2 := newTestService(t, Options{Store: store})
		replayed := waitFinalEvent(t, svc2, job.ID, StateDone)
		if eventsJSON(t, replayed) != eventsJSON(t, live) {
			t.Fatalf("replay did not synthesize the lost final event at its live seq\nlive:     %s\nreplayed: %s",
				eventsJSON(t, live), eventsJSON(t, replayed))
		}
		for k := 1; k <= len(live); k++ {
			if got := svc2.More(job.ID, k); eventsJSON(t, got) != eventsJSON(t, live[k-1:]) {
				t.Fatalf("EventsSince(%d) after replay = %s, want %s", k, eventsJSON(t, got), eventsJSON(t, live[k-1:]))
			}
		}
	})
}

// dropTerminalStore is a MemStore whose appends of terminal state events
// always fail: the job record is durable, its final event never is.
type dropTerminalStore struct{ MemStore }

func (d *dropTerminalStore) Append(rec Record) error {
	if rec.Kind == "event" && rec.Event.Type == "state" && rec.Event.State.Terminal() {
		return errors.New("chaos: terminal event append lost")
	}
	return d.MemStore.Append(rec)
}
