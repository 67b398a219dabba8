// The replica's plan cache, seen from outside: a job's chunks reuse one
// compiled plan, a warm cache still refuses chunks whose fingerprints do
// not match, and the cache keeps only its few most recently used plans.
package dist_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/internal/dist"
	"repro/internal/jobs"
	"repro/internal/params"
	"repro/internal/server/apitypes"
)

// replicaCounters reads the dist block of a server's /v1/stats.
func replicaCounters(t *testing.T, url string) apitypes.DistCounters {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	var stats apitypes.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if stats.Dist == nil {
		t.Fatal("/v1/stats has no dist block")
	}
	return *stats.Dist
}

// firstChunk is chunk [0, 8) of spec's one-shard job over its 48
// candidates, in the wire form a coordinator sends: fingerprints, the
// baseline included, and fresh reducer snapshots.
func firstChunk(t *testing.T, spec jobs.Spec) apitypes.ShardRunRequest {
	t.Helper()
	base, err := params.Default().Fingerprint()
	if err != nil {
		t.Fatalf("baseline fingerprint: %v", err)
	}
	sc, err := jobs.NewShardState(spec.Top, 0, 48)
	if err != nil {
		t.Fatalf("shard state: %v", err)
	}
	return apitypes.ShardRunRequest{
		SpecFP: spec.Fingerprint(), ParamsFP: spec.ParamsFingerprint(), BaselineFP: base.String(),
		Space: spec.Space, Top: spec.Top, Params: spec.Params, Budget: spec.Budget,
		Lo: sc.Lo, Hi: sc.Hi, NextIndex: sc.NextIndex, ChunkHi: 8,
		Ranked: sc.Ranked, Frontier: sc.Frontier, Stats: sc.Stats,
	}
}

// postChunk sends one chunk to a replica and returns the status and, on
// a refusal, the error code.
func postChunk(t *testing.T, url string, req apitypes.ShardRunRequest) (int, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal chunk: %v", err)
	}
	resp, err := http.Post(url+"/v1/shards/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("shard run: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read shard run: %v", err)
	}
	if resp.StatusCode == http.StatusOK {
		return resp.StatusCode, ""
	}
	var env apitypes.ErrorResponse
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("shard run %d without an error envelope: %s", resp.StatusCode, data)
	}
	return resp.StatusCode, env.Error.Code
}

// TestReplicaReusesCompiledPlan: every chunk of a one-shard job goes to
// one replica, which compiles the job's space once and serves the rest of
// its chunks from the cached plan, and the summary is the golden bytes.
func TestReplicaReusesCompiledPlan(t *testing.T) {
	golden := goldenSummary(t, testSpec())
	r1 := newReplica(t)
	pool := dist.NewPool(dist.Options{Replicas: []string{r1.URL}})
	s := newOneShardCoordinator(t, pool)

	job, err := s.Submit("chaos", "", testSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if sum := waitDone(t, s, job.ID); !bytes.Equal(sum, golden) {
		t.Fatalf("summary over the cached plan differs\ngot:  %s\nwant: %s", sum, golden)
	}
	// 48 candidates in chunks of 8.
	if c := pool.Counters(); c.Completed != 6 || c.LocalFallbacks != 0 {
		t.Fatalf("pool counters = %+v, want all 6 chunks completed on the replica", c)
	}
	if d := replicaCounters(t, r1.URL); d.ShardRunsServed != 6 || d.PlansCompiled != 1 {
		t.Fatalf("replica served %d chunks and compiled %d plans, want 6 and 1",
			d.ShardRunsServed, d.PlansCompiled)
	}
}

// TestReplicaWarmCacheStillChecksFingerprints: once a spec's plan is
// cached, a chunk of that spec whose spec, params or baseline fingerprint
// does not match is still refused with its 422, and serves nothing.
func TestReplicaWarmCacheStillChecksFingerprints(t *testing.T) {
	r1 := newReplica(t)
	good := firstChunk(t, testSpec())
	if status, code := postChunk(t, r1.URL, good); status != http.StatusOK {
		t.Fatalf("warm-up chunk = %d %s, want 200", status, code)
	}
	cases := map[string]func(*apitypes.ShardRunRequest){
		"spec_mismatch":     func(r *apitypes.ShardRunRequest) { r.SpecFP = "fp:divergent-spec" },
		"params_mismatch":   func(r *apitypes.ShardRunRequest) { r.ParamsFP = "fp:divergent-params" },
		"baseline_mismatch": func(r *apitypes.ShardRunRequest) { r.BaselineFP = "fp:divergent-baseline" },
	}
	for want, corrupt := range cases {
		req := good
		corrupt(&req)
		if status, code := postChunk(t, r1.URL, req); status != http.StatusUnprocessableEntity || code != want {
			t.Errorf("%s chunk on a warm cache = %d %s, want 422 %s", want, status, code, want)
		}
	}
	if d := replicaCounters(t, r1.URL); d.ShardRunsServed != 1 || d.PlansCompiled != 1 {
		t.Fatalf("replica served %d chunks and compiled %d plans, want 1 and 1",
			d.ShardRunsServed, d.PlansCompiled)
	}
}

// TestReplicaPlanCacheEvictsLeastRecentlyUsed: the cache holds four plans.
// A fifth spec evicts the least recently used one, not the oldest, and
// the evicted spec compiles again on its next chunk.
func TestReplicaPlanCacheEvictsLeastRecentlyUsed(t *testing.T) {
	r1 := newReplica(t)
	chunk := func(name string) apitypes.ShardRunRequest {
		spec := testSpec()
		spec.Space.Name = "lru-" + name
		return firstChunk(t, spec)
	}
	served := 0
	for _, step := range []struct {
		spec     string
		compiled uint64
	}{
		{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4},
		{"a", 4},                               // a hit: a is now the most recently used
		{"e", 5},                               // evicts b, the least recently used
		{"a", 5}, {"c", 5}, {"d", 5}, {"e", 5}, // all still cached
		{"b", 6}, // compiles again
	} {
		if status, code := postChunk(t, r1.URL, chunk(step.spec)); status != http.StatusOK {
			t.Fatalf("chunk of %s = %d %s, want 200", step.spec, status, code)
		}
		served++
		d := replicaCounters(t, r1.URL)
		if d.PlansCompiled != step.compiled || d.ShardRunsServed != uint64(served) {
			t.Fatalf("after chunk %d (spec %s): %d plans compiled, %d chunks served; want %d and %d",
				served, step.spec, d.PlansCompiled, d.ShardRunsServed, step.compiled, served)
		}
	}
}
