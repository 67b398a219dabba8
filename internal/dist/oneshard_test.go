package dist_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/explore"
	"repro/internal/jobs"
)

// newOneShardCoordinator builds a job service that does not split jobs
// (JobShards 0) and offers every chunk to the pool first.
func newOneShardCoordinator(t *testing.T, pool *dist.Pool) *jobs.Service {
	t.Helper()
	eng := explore.New(core.Default())
	s, err := jobs.New(jobs.Options{
		Resolve:         func(params []byte) (*explore.Engine, error) { return eng, nil },
		CheckpointEvery: 8,
		Dispatch:        pool.Run,
	})
	if err != nil {
		t.Fatalf("new coordinator service: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// TestDistOneShardJobRunsOnReplica: a job that is not split (JobShards 0)
// runs as one shard, and with a replica configured its chunks go to the
// replica like any shard's: every chunk completes remotely, none falls
// back locally, progress carries no shard positions, and the summary is
// byte-identical to the golden.
func TestDistOneShardJobRunsOnReplica(t *testing.T) {
	golden := goldenSummary(t, testSpec())
	r1 := newReplica(t)
	pool := dist.NewPool(dist.Options{Replicas: []string{r1.URL}})
	s := newOneShardCoordinator(t, pool)

	job, err := s.Submit("chaos", "", testSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	sum := waitDone(t, s, job.ID)
	if !bytes.Equal(sum, golden) {
		t.Fatalf("one-shard summary via the replica differs\ngot:  %s\nwant: %s", sum, golden)
	}
	// 48 candidates in chunks of 8.
	if c := pool.Counters(); c.Completed != 6 || c.LocalFallbacks != 0 {
		t.Fatalf("counters = %+v, want all 6 chunks completed on the replica", c)
	}
	for _, ev := range s.More(job.ID, 1) {
		if ev.Type == "progress" && ev.Progress.Shards != nil {
			t.Fatalf("one-shard job emitted shard positions: %+v", ev.Progress)
		}
	}
}
