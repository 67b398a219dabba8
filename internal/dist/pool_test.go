// White-box unit tests for the pool's robustness machinery: breaker
// state transitions, heartbeat staleness, replica picking, backoff and
// Retry-After handling. The end-to-end fault scenarios (real replicas,
// byte-identity) live in chaos_dist_test.go.
package dist

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/server/apitypes"
)

// fakeClock pins the pool's notion of now so breaker cooldowns and
// heartbeat windows can be stepped deterministically.
func fakeClock(p *Pool, start time.Time) *time.Time {
	cur := start
	p.now = func() time.Time { return cur }
	return &cur
}

func chunkReq() jobs.ChunkRequest {
	raw := json.RawMessage(`{}`)
	return jobs.ChunkRequest{
		Job:     jobs.Job{ID: "j000001"},
		State:   jobs.ShardCheckpoint{Lo: 0, Hi: 8, NextIndex: 0, Ranked: raw, Frontier: raw, Stats: raw},
		ChunkHi: 8,
	}
}

func TestRunEmptyPoolDeclines(t *testing.T) {
	p := NewPool(Options{})
	_, err := p.Run(context.Background(), chunkReq())
	if !errors.Is(err, jobs.ErrNoDispatch) {
		t.Fatalf("empty pool returned %v, want ErrNoDispatch", err)
	}
	if c := p.Counters(); c.Dispatched != 0 || c.LocalFallbacks != 0 {
		t.Fatalf("empty-pool decline moved counters: %+v", c)
	}
}

func TestRegisterIdempotentHeartbeat(t *testing.T) {
	p := NewPool(Options{HeartbeatTimeout: 10 * time.Second})
	cur := fakeClock(p, time.Unix(1000, 0))
	p.Register("http://w1")
	p.Register("http://w1") // re-registration is the heartbeat, not a dup
	if got := p.Replicas(); len(got) != 1 || !got[0].Healthy || got[0].Static {
		t.Fatalf("replicas after double register = %+v", got)
	}

	*cur = cur.Add(11 * time.Second) // silence past the timeout
	if got := p.Replicas(); got[0].Healthy {
		t.Fatalf("stale replica still healthy: %+v", got[0])
	}
	if r := p.pick(""); r != nil {
		t.Fatalf("pick returned a heartbeat-stale replica %s", r.url)
	}
	p.Register("http://w1") // heartbeat arrives
	if got := p.Replicas(); !got[0].Healthy {
		t.Fatalf("heartbeat did not restore health: %+v", got[0])
	}
}

func TestStaticReplicaExemptFromHeartbeat(t *testing.T) {
	p := NewPool(Options{Replicas: []string{"http://boot"}, HeartbeatTimeout: time.Second})
	cur := fakeClock(p, time.Unix(1000, 0))
	*cur = cur.Add(time.Hour)
	if got := p.Replicas(); !got[0].Static || !got[0].Healthy {
		t.Fatalf("static replica lost health to heartbeat silence: %+v", got[0])
	}
}

func TestBreakerOpensCoolsDownProbes(t *testing.T) {
	p := NewPool(Options{Replicas: []string{"http://a"},
		BreakerThreshold: 2, BreakerCooldown: time.Minute})
	cur := fakeClock(p, time.Unix(1000, 0))
	r := p.replicas["http://a"]

	p.failure(r)
	if !p.healthyLocked(r, *cur) {
		t.Fatal("one failure below threshold opened the breaker")
	}
	p.failure(r) // threshold: opens
	if p.healthyLocked(r, *cur) {
		t.Fatal("breaker did not open at the threshold")
	}
	if c := p.Counters(); c.BreakerOpened != 1 || c.Healthy != 0 {
		t.Fatalf("counters after open = %+v", c)
	}

	*cur = cur.Add(61 * time.Second) // cooldown elapsed: half-open probe
	if !p.healthyLocked(r, *cur) {
		t.Fatal("breaker not probeable after the cooldown")
	}
	p.failure(r) // failed probe re-opens without recounting
	if p.healthyLocked(r, *cur) {
		t.Fatal("failed half-open probe left the breaker closed")
	}
	if c := p.Counters(); c.BreakerOpened != 1 {
		t.Fatalf("failed probe recounted the open: %+v", c)
	}

	*cur = cur.Add(61 * time.Second)
	p.success(r) // successful probe closes
	if !p.healthyLocked(r, *cur) || r.fails != 0 {
		t.Fatalf("successful probe did not close the breaker (fails=%d)", r.fails)
	}
}

func TestPickLeastInFlightAvoidsLastFailed(t *testing.T) {
	p := NewPool(Options{Replicas: []string{"http://a", "http://b"}})
	r1 := p.pick("")
	if r1 == nil || r1.url != "http://a" {
		t.Fatalf("first pick = %v, want the first-registered replica", r1)
	}
	r2 := p.pick("")
	if r2 == nil || r2.url != "http://b" {
		t.Fatalf("second pick = %v, want the idle replica", r2)
	}
	p.releaseSlot(r1)
	p.releaseSlot(r2)
	if r := p.pick("http://a"); r == nil || r.url != "http://b" {
		t.Fatalf("pick(avoid=a) = %v, want b", r)
	}
	// With no alternative, the avoided replica is still eligible.
	p2 := NewPool(Options{Replicas: []string{"http://only"}})
	if r := p2.pick("http://only"); r == nil {
		t.Fatal("sole replica was avoided into a nil pick")
	}
}

func TestPickHonorsInFlightBound(t *testing.T) {
	p := NewPool(Options{Replicas: []string{"http://a"}, MaxInFlight: 2})
	if p.pick("") == nil || p.pick("") == nil {
		t.Fatal("picks under the bound failed")
	}
	if r := p.pick(""); r != nil {
		t.Fatalf("pick beyond MaxInFlight leased %s", r.url)
	}
}

func TestBackoff(t *testing.T) {
	p := NewPool(Options{})
	if d := p.backoff(3, 7*time.Second); d != 7*time.Second {
		t.Fatalf("backoff ignored Retry-After: %v", d)
	}
	if d := p.backoff(0, 0); d < 25*time.Millisecond || d > 50*time.Millisecond {
		t.Fatalf("backoff(0) = %v, want jittered within [25ms, 50ms]", d)
	}
	if d := p.backoff(20, 0); d < maxBackoff/2 || d > maxBackoff {
		t.Fatalf("backoff(20) = %v, want capped within [%v, %v]", d, maxBackoff/2, maxBackoff)
	}
}

// TestRunHonorsRetryAfter pins the client half of the admission-control
// contract: a replica's 429 + Retry-After defers the retry by exactly the
// advertised delay (not the exponential default), and the retried chunk
// then succeeds.
func TestRunHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":{"code":"saturated","message":"busy"}}`))
			return
		}
		_ = json.NewEncoder(w).Encode(apitypes.ShardRunResponse{
			NextIndex: 8, Evaluated: 8,
			Ranked:   json.RawMessage(`{}`),
			Frontier: json.RawMessage(`{}`),
			Stats:    json.RawMessage(`{}`),
		})
	}))
	defer srv.Close()

	p := NewPool(Options{Replicas: []string{srv.URL}})
	var slept []time.Duration
	p.sleep = func(ctx context.Context, d time.Duration) { slept = append(slept, d) }

	sc, err := p.Run(context.Background(), chunkReq())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if sc.NextIndex != 8 || sc.Lo != 0 || sc.Hi != 8 {
		t.Fatalf("advanced state = %+v", sc)
	}
	if len(slept) != 1 || slept[0] != 7*time.Second {
		t.Fatalf("backoff sleeps = %v, want exactly the advertised 7s", slept)
	}
	if c := p.Counters(); c.Retries != 1 || c.Completed != 1 || c.Dispatched != 2 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestRunExhaustedReportsFallback: every attempt failing surfaces one
// wrapped error (the job runner's cue to execute locally) and counts a
// local fallback.
func TestRunExhaustedReportsFallback(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":{"code":"chunk_failed","message":"nope"}}`,
			http.StatusUnprocessableEntity)
	}))
	defer srv.Close()

	p := NewPool(Options{Replicas: []string{srv.URL}, MaxAttempts: 2})
	p.sleep = func(ctx context.Context, d time.Duration) {}
	_, err := p.Run(context.Background(), chunkReq())
	if err == nil {
		t.Fatal("exhausted dispatch returned nil error")
	}
	if c := p.Counters(); c.LocalFallbacks != 1 || c.Dispatched != 2 || c.Completed != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

// failure logs a breaker opening after releasing the pool lock, while
// other chunks failing or succeeding on the same replica keep writing its
// failure count under that lock. The log line must read a count taken
// under the lock; run under -race, concurrent rounds on one replica with
// logging on prove it.
func TestBreakerOpenLogRaceFree(t *testing.T) {
	p := NewPool(Options{Replicas: []string{"http://a"}, BreakerThreshold: 1,
		Logger: log.New(io.Discard, "", 0)})
	r := p.replicas["http://a"]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p.failure(r)
				p.success(r)
			}
		}()
	}
	wg.Wait()
	if c := p.Counters(); c.BreakerOpened == 0 {
		t.Fatalf("no breaker opening was logged: %+v", c)
	}
}
