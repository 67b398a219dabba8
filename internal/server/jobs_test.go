package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/explore"
	"repro/internal/faultpoint"
	"repro/internal/jobs"
	"repro/internal/server/apitypes"
)

// jobSpaceBody is the 48-candidate space every job test submits.
func jobSpaceBody() map[string]any {
	return map[string]any{
		"space": map[string]any{
			"name":           "http-test",
			"integrations":   []string{"hybrid-3d"},
			"strategies":     []string{"homogeneous", "heterogeneous"},
			"nodes_nm":       []int{5, 7},
			"gates":          []float64{17e9, 500e9},
			"use_locations":  []string{"usa", "norway", "india"},
			"lifetime_years": []float64{5, 10},
		},
		"top": 10,
	}
}

// newJobServer builds a server with a fast-checkpointing job tier and
// shuts the tier down with the test.
func newJobServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.JobCheckpointEvery == 0 {
		opts.JobCheckpointEvery = 8
	}
	s := New(opts)
	if err := s.JobsErr(); err != nil {
		t.Fatalf("job tier failed to boot: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// waitJobState polls GET /v1/jobs/{id} until the wanted state.
func waitJobState(t *testing.T, s *Server, id, want string) apitypes.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		rec := get(t, s, "/v1/jobs/"+id)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET job = %d: %s", rec.Code, rec.Body)
		}
		var st apitypes.JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("bad status body: %v\n%s", err, rec.Body)
		}
		if st.State == want {
			return st
		}
		if jobs.State(st.State).Terminal() {
			t.Fatalf("job %s reached %q (error %q), want %q", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q", id, want)
	return apitypes.JobStatus{}
}

func TestJobSubmitLifecycleHTTP(t *testing.T) {
	s := newJobServer(t, Options{})
	rec := post(t, s, "/v1/jobs", jobSpaceBody())
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body)
	}
	var st apitypes.JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("bad submit body: %v", err)
	}
	if st.ID == "" || st.State != "queued" || st.Total != 48 || st.Tenant != "default" {
		t.Fatalf("submit response = %+v", st)
	}

	final := waitJobState(t, s, st.ID, "done")
	if final.Summary == nil || final.NextIndex != 48 {
		t.Fatalf("done status lacks summary or progress: %+v", final)
	}
	var sum jobs.Summary
	if err := json.Unmarshal(final.Summary, &sum); err != nil {
		t.Fatalf("summary does not parse: %v", err)
	}
	if sum.Candidates != 48 || len(sum.Ranked) != 10 {
		t.Fatalf("summary = %+v", sum)
	}

	// The event stream replays start to finish with contiguous seqs.
	rec = get(t, s, "/v1/jobs/"+st.ID+"/events")
	if rec.Code != http.StatusOK {
		t.Fatalf("events = %d: %s", rec.Code, rec.Body)
	}
	var events []apitypes.JobEvent
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var ev apitypes.JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line: %v\n%s", err, sc.Text())
		}
		events = append(events, ev)
	}
	for i, ev := range events {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	last := events[len(events)-1]
	if last.Type != "state" || last.State != "done" {
		t.Fatalf("stream does not end with the terminal state: %+v", last)
	}

	// Resuming from a cursor returns exactly the suffix.
	rec = get(t, s, "/v1/jobs/"+st.ID+"/events?from="+itoa(last.Seq))
	lines := strings.Count(rec.Body.String(), "\n")
	if lines != 1 {
		t.Fatalf("resume from final seq returned %d events, want 1", lines)
	}

	// The stats surface counts the tier.
	var stats apitypes.StatsResponse
	if err := json.Unmarshal(get(t, s, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Jobs == nil || stats.Jobs.Submitted != 1 || stats.Jobs.Done != 1 {
		t.Fatalf("stats.jobs = %+v", stats.Jobs)
	}
}

func TestJobErrorsHTTP(t *testing.T) {
	s := newJobServer(t, Options{})
	body := jobSpaceBody()
	body["space"].(map[string]any)["use_locations"] = []string{"atlantis"}
	decodeError(t, post(t, s, "/v1/jobs", body), http.StatusBadRequest, "bad_request")

	decodeError(t, get(t, s, "/v1/jobs/j999999"), http.StatusNotFound, "not_found")
	decodeError(t, get(t, s, "/v1/jobs/j999999/events"), http.StatusNotFound, "not_found")
	decodeError(t, get(t, s, "/v1/jobs/j000001/nope"), http.StatusNotFound, "not_found")

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/jobs", nil))
	decodeError(t, rec, http.StatusMethodNotAllowed, "method_not_allowed")
}

func TestJobIdempotencyHTTP(t *testing.T) {
	s := newJobServer(t, Options{})
	submit := func() apitypes.JobStatus {
		var buf strings.Builder
		_ = json.NewEncoder(&buf).Encode(jobSpaceBody())
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(buf.String()))
		req.Header.Set("Idempotency-Key", "retry-1")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit = %d: %s", rec.Code, rec.Body)
		}
		var st apitypes.JobStatus
		_ = json.Unmarshal(rec.Body.Bytes(), &st)
		return st
	}
	a, b := submit(), submit()
	if a.ID != b.ID {
		t.Fatalf("idempotent resubmit created a second job: %s vs %s", a.ID, b.ID)
	}
}

func TestJobQuota429(t *testing.T) {
	s := newJobServer(t, Options{MaxActiveJobsPerTenant: 1})
	// Hold the first job in-flight so the second submission trips the
	// active quota.
	disarm := faultpoint.Arm(jobs.FaultPointSink, func() error {
		time.Sleep(500 * time.Microsecond)
		return nil
	})
	defer disarm()
	if rec := post(t, s, "/v1/jobs", jobSpaceBody()); rec.Code != http.StatusAccepted {
		t.Fatalf("first submit = %d", rec.Code)
	}
	rec := post(t, s, "/v1/jobs", jobSpaceBody())
	decodeError(t, rec, http.StatusTooManyRequests, "quota_exceeded")
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("429 without a Retry-After header")
	}
	// A different tenant is unaffected.
	var buf strings.Builder
	_ = json.NewEncoder(&buf).Encode(jobSpaceBody())
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(buf.String()))
	req.Header.Set("X-Tenant", "other")
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusAccepted {
		t.Fatalf("other tenant submit = %d: %s", rec2.Code, rec2.Body)
	}
}

func TestJobCancelHTTP(t *testing.T) {
	s := newJobServer(t, Options{})
	disarm := faultpoint.Arm(jobs.FaultPointSink, func() error {
		time.Sleep(500 * time.Microsecond)
		return nil
	})
	defer disarm()
	rec := post(t, s, "/v1/jobs", jobSpaceBody())
	var st apitypes.JobStatus
	_ = json.Unmarshal(rec.Body.Bytes(), &st)

	del := httptest.NewRecorder()
	s.ServeHTTP(del, httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+st.ID, nil))
	if del.Code != http.StatusOK {
		t.Fatalf("cancel = %d: %s", del.Code, del.Body)
	}
	waitJobState(t, s, st.ID, "cancelled")
}

// TestJobEventsKilledClient is the HTTP half of the chaos contract: a
// client whose connection dies mid-stream reattaches with ?from= and
// still observes one contiguous event sequence.
func TestJobEventsKilledClient(t *testing.T) {
	s := newJobServer(t, Options{JobCheckpointEvery: 4})
	srv := httptest.NewServer(s)
	defer srv.Close()
	disarm := faultpoint.Arm(jobs.FaultPointSink, func() error {
		time.Sleep(300 * time.Microsecond)
		return nil
	})
	defer disarm()

	rec := post(t, s, "/v1/jobs", jobSpaceBody())
	var st apitypes.JobStatus
	_ = json.Unmarshal(rec.Body.Bytes(), &st)

	// First connection: read two events, then kill the transport.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	var seen []apitypes.JobEvent
	for len(seen) < 2 && sc.Scan() {
		var ev apitypes.JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event: %v", err)
		}
		seen = append(seen, ev)
	}
	resp.Body.Close() // the "killed" connection

	// Reattach with the resume cursor; drain to the terminal event.
	from := seen[len(seen)-1].Seq + 1
	resp2, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events?from=" + itoa(from))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	sc2 := bufio.NewScanner(resp2.Body)
	for sc2.Scan() {
		var ev apitypes.JobEvent
		if err := json.Unmarshal(sc2.Bytes(), &ev); err != nil {
			t.Fatalf("bad event: %v", err)
		}
		seen = append(seen, ev)
	}
	for i, ev := range seen {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d — the reattached stream has a gap", i, ev.Seq)
		}
	}
	last := seen[len(seen)-1]
	if last.Type != "state" || !jobs.State(last.State).Terminal() {
		t.Fatalf("stream does not end at a terminal state: %+v", last)
	}
}

func TestReadyzDrain(t *testing.T) {
	s := newJobServer(t, Options{})
	if rec := get(t, s, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz before drain = %d", rec.Code)
	}
	s.BeginDrain()
	if rec := get(t, s, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain = %d, want 503", rec.Code)
	}
	// Liveness stays green for the whole drain window.
	if rec := get(t, s, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz during drain = %d, want 200", rec.Code)
	}
	rec := post(t, s, "/v1/jobs", jobSpaceBody())
	decodeError(t, rec, http.StatusServiceUnavailable, "draining")
	if rec.Header().Get("Retry-After") == "" {
		t.Error("draining rejection without a Retry-After header")
	}
}

// TestAcquireSaturated429 pins the fail-fast admission path: a server
// with every evaluation slot busy rejects immediately with 429 and a
// Retry-After, instead of queuing the request until its deadline expires
// and misreporting the saturation as a timeout.
func TestAcquireSaturated429(t *testing.T) {
	s := New(Options{MaxConcurrent: 1})
	s.sem <- struct{}{} // occupy the only slot
	defer func() { <-s.sem }()

	req := apitypes.EvaluateRequest{Design: loadLakefield(t)}
	rec := post(t, s, "/v1/evaluate", req)
	decodeError(t, rec, http.StatusTooManyRequests, "saturated")
	if rec.Header().Get("Retry-After") == "" {
		t.Error("saturated rejection without a Retry-After header")
	}
}

// TestExploreClientGone499 pins the /v1/explore disconnect accounting: a
// client that vanishes mid-stream is recorded as 499 in the endpoint
// metrics, not as a success or a timeout.
func TestExploreClientGone499(t *testing.T) {
	s := New(Options{})
	s.engine.ScalarOnly = true // route evaluations through the faultable scalar path
	srv := httptest.NewServer(s)
	defer srv.Close()
	disarm := faultpoint.Arm(explore.FaultPointEvaluate, func() error {
		time.Sleep(300 * time.Microsecond)
		return nil
	})
	defer disarm()

	body := strings.NewReader(`{"space": {"nodes_nm": [5, 7], "gates": [17e9, 500e9]}}`)
	resp, err := http.Post(srv.URL+"/v1/explore", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	// Read one result line to prove the stream started, then vanish.
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatalf("no first line: %v", err)
	}
	resp.Body.Close()

	em := s.metrics["/v1/explore"]
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if em.errors.Load() == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("disconnect not accounted as an error (requests %d, errors %d)",
		em.requests.Load(), em.errors.Load())
}

// TestExploreTimeoutInBand pins the committed-stream timeout path: once
// the NDJSON 200 is on the wire, a deadline expiry surfaces as an
// in-band {"type":"error"} event with code "timeout".
func TestExploreTimeoutInBand(t *testing.T) {
	s := New(Options{RequestTimeout: 50 * time.Millisecond})
	s.engine.ScalarOnly = true
	disarm := faultpoint.Arm(explore.FaultPointEvaluate, func() error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	defer disarm()

	rec := post(t, s, "/v1/explore",
		`{"space": {"nodes_nm": [5, 7], "gates": [17e9, 500e9]}}`)
	if rec.Code != http.StatusOK {
		// httptest.ResponseRecorder reports the committed 200 even though
		// the handler returned 503 for metrics.
		t.Fatalf("recorded status = %d", rec.Code)
	}
	var sawResult bool
	var last apitypes.ExploreEvent
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad stream line: %v\n%s", err, sc.Text())
		}
		if last.Type == "result" {
			sawResult = true
		}
	}
	if !sawResult {
		t.Fatal("stream timed out before the first result; slow the fault down")
	}
	if last.Type != "error" || last.Error == nil || last.Error.Code != "timeout" {
		t.Fatalf("stream does not end with the in-band timeout event: %+v", last)
	}
	if em := s.metrics["/v1/explore"]; em.errors.Load() != 1 {
		t.Errorf("timeout not accounted as an error")
	}
}

// A job streams its planned space through the block kernel, which never
// writes the whole-report memo, so a job larger than the cache leaves
// /v1/evaluate's entries resident: the same design evaluated before and
// after the job is a cache hit the second time, with nothing evicted.
func TestJobLeavesEvaluateCacheResident(t *testing.T) {
	if os.Getenv(explore.ScalarOnlyEnv) != "" {
		t.Skipf("%s set: jobs take the memoizing scalar path", explore.ScalarOnlyEnv)
	}
	s := newJobServer(t, Options{CacheLimit: 1024})
	engineStats := func() apitypes.EngineStats {
		t.Helper()
		var st apitypes.StatsResponse
		if err := json.Unmarshal(get(t, s, "/v1/stats").Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st.Engine
	}
	evaluate := func() {
		t.Helper()
		if rec := post(t, s, "/v1/evaluate", apitypes.EvaluateRequest{Design: loadLakefield(t)}); rec.Code != http.StatusOK {
			t.Fatalf("evaluate = %d: %s", rec.Code, rec.Body)
		}
	}
	evaluate()
	before := engineStats()

	// 8 integrations × 2 nodes × 4 use grids × 20 lifetimes = 1,280
	// planned candidates, more than the 1,024-entry cache holds.
	years := make([]float64, 20)
	for i := range years {
		years[i] = float64(i + 1)
	}
	rec := post(t, s, "/v1/jobs", map[string]any{
		"space": map[string]any{
			"name":           "cache-resident",
			"nodes_nm":       []int{5, 7},
			"use_locations":  []string{"usa", "norway", "india", "europe"},
			"lifetime_years": years,
		},
		"top": 10,
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body)
	}
	var job apitypes.JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
		t.Fatal(err)
	}
	if job.Total != 1280 {
		t.Fatalf("job spans %d candidates, want 1280", job.Total)
	}
	waitJobState(t, s, job.ID, "done")

	evaluate()
	after := engineStats()
	if after.CacheHits != before.CacheHits+1 {
		t.Errorf("re-evaluating after the job: cache hits %d → %d, want one more",
			before.CacheHits, after.CacheHits)
	}
	if after.Evictions != 0 {
		t.Errorf("the job evicted %d of /v1/evaluate's entries", after.Evictions)
	}
}
