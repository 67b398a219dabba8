package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/explore"
	"repro/internal/jobs"
	"repro/internal/params"
	"repro/internal/server"
	"repro/internal/server/apitypes"
)

// jobSystem is the server side of a job workload: the coordinator behind
// httptest with its file store and, for the fleet, two replicas. The
// *Stats fields are the outside-in layer meters, set only when traced.
type jobSystem struct {
	coord        *server.Server
	ts           *httptest.Server
	handler      *handlerStats
	store        *storeStats
	replicas     []*server.Server
	replicaStats []*handlerStats
}

// engines lists every engine that evaluates the workload's candidates.
func (s *jobSystem) engines() []*explore.Engine {
	out := []*explore.Engine{s.coord.Engine()}
	for _, r := range s.replicas {
		out = append(out, r.Engine())
	}
	return out
}

// buildJobSystem boots the system under test: a FileStore in a fresh
// directory, the coordinator with the shipped job defaults (unsharded,
// checkpoint every 256, two running jobs) and, for the fleet, two full
// replicas and JobShards 2. It returns once every server answers /healthz
// and the coordinator's pool sees every replica healthy.
func buildJobSystem(e *env, fleet bool) (*jobSystem, func(), error) {
	sys := &jobSystem{}
	var closers []func()
	teardown := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	dir, err := e.tempDir()
	if err != nil {
		return nil, nil, err
	}
	closers = append(closers, func() { os.RemoveAll(dir) })
	fs, err := jobs.OpenFileStore(filepath.Join(dir, "jobs.ndjson"))
	if err != nil {
		teardown()
		return nil, nil, err
	}
	var store jobs.Store = fs
	if e.tr != nil {
		sys.store = &storeStats{Store: fs, tr: e.tr}
		store = sys.store
	}
	opts := server.Options{JobStore: store}
	urls := []string{}
	if fleet {
		opts.JobShards = 2
		for i := 0; i < 2; i++ {
			rs, ts, hs, stop := serve(e, server.Options{})
			closers = append(closers, stop)
			sys.replicas = append(sys.replicas, rs)
			sys.replicaStats = append(sys.replicaStats, hs)
			opts.Replicas = append(opts.Replicas, ts.URL)
			urls = append(urls, ts.URL)
		}
	}
	var stop func()
	sys.coord, sys.ts, sys.handler, stop = serve(e, opts)
	closers = append(closers, stop)
	if err := sys.coord.JobsErr(); err != nil {
		teardown()
		return nil, nil, err
	}
	if err := healthy(append(urls, sys.ts.URL)); err != nil {
		teardown()
		return nil, nil, err
	}
	if c := sys.coord.Pool().Counters(); c.Healthy != len(sys.replicas) {
		teardown()
		return nil, nil, fmt.Errorf("%d of %d replicas healthy", c.Healthy, len(sys.replicas))
	}
	return sys, teardown, nil
}

// healthy checks that every server answers GET /healthz with 200.
func healthy(urls []string) error {
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	for _, u := range urls {
		resp, err := hc.Get(u + "/healthz")
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s/healthz: %s", u, resp.Status)
		}
	}
	return nil
}

// jobRun is one completed job as its client saw it.
type jobRun struct {
	seq      int
	trace    string
	req      apitypes.JobRequest
	id       string
	submit   time.Duration // the POST /v1/jobs round trip
	lat      time.Duration // submit to summary receipt
	got      time.Time     // summary receipt
	summary  []byte
	progress int // progress events: one per durable checkpoint
}

// runJobs drives a job workload. job-durable: closed loop, 2 clients (2
// tenants), 46,080-candidate jobs. job-fleet: closed loop, 1 client,
// 23,040-candidate jobs sharded over two replicas. Each client submits
// with POST /v1/jobs and tails /v1/jobs/{id}/events until the summary.
func runJobs(e *env, fleet bool) error {
	var sys *jobSystem
	teardown, err := e.setUp(func() (func(), error) {
		s, td, err := buildJobSystem(e, fleet)
		sys = s
		return td, err
	})
	if err != nil {
		return err
	}
	defer teardown()
	if err := probeSpace(e, jobSpace(e, fleet, 0, 0), 256); err != nil {
		return err
	}

	clients := 2
	if fleet {
		clients = 1
	}
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	defer hc.CloseIdleConnections()
	var (
		mu   sync.Mutex
		runs []jobRun
		seq  int
		wg   sync.WaitGroup
	)
	before, pool0 := engineStats(sys.engines()...), sys.coord.Pool().Counters()
	e.begin()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k == 0 || !e.over(); k++ {
				mu.Lock()
				run := jobRun{seq: seq, trace: traceID("job", seq),
					req: apitypes.JobRequest{Space: jobSpace(e, fleet, c, k), Top: 10}}
				seq++
				mu.Unlock()
				if err := runJob(hc, sys.ts.URL, fmt.Sprintf("tenant%d", c), e.tr, &run); err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s job %d: %v\n", e.workload, run.seq, err)
					e.opFailed()
					continue
				}
				e.tr.add("job", run.trace, run.got.Add(-run.lat), run.got)
				e.op(run.lat, jobTotal(run.req))
				mu.Lock()
				runs = append(runs, run)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	e.finish()

	after, pool1 := engineStats(sys.engines()...), sys.coord.Pool().Counters()
	var evaluated float64
	chunks := 0
	for _, r := range runs {
		evaluated += float64(jobTotal(r.req))
		if fleet {
			chunks += shardChunks(jobTotal(r.req))
		}
	}
	if e.tr != nil {
		e.setExplore(before, after, evaluated)
		e.setServer(sys.handler)
		setJobLayers(e, sys, runs, hc)
		if fleet {
			setDistLayers(e, sys, pool0, pool1)
		}
	}

	// Oracles, untimed. A fleet run that quietly fell back to local
	// execution measures a different program, so it fails too.
	if fleet {
		if n := pool1.LocalFallbacks - pool0.LocalFallbacks; n != 0 {
			e.mismatch("job-fleet: %d chunks fell back to local execution", n)
		}
		if n := int(pool1.Completed - pool0.Completed); n != chunks {
			e.mismatch("job-fleet: replicas completed %d chunks, the jobs issued %d", n, chunks)
		}
	}
	return checkSummaries(e, runs)
}

// runJob submits one job and tails its event stream through the summary
// and the terminal state event.
func runJob(hc *http.Client, base, tenant string, tr *tracer, run *jobRun) error {
	body, err := json.Marshal(run.req)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	if tr != nil {
		req.Header.Set("X-Bench-Trace", run.trace)
	}
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: %s: %s", resp.Status, b)
	}
	run.submit = time.Since(t0)
	var st apitypes.JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return err
	}
	run.id = st.ID
	tr.link(st.ID, run.trace)

	resp, err = hc.Get(base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"type":"progress"`)) {
			run.progress++
			continue
		}
		var ev apitypes.JobEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("event: %w", err)
		}
		switch {
		case ev.Type == "summary":
			run.got = time.Now()
			run.lat = run.got.Sub(t0)
			run.summary = append([]byte(nil), ev.Summary...)
		case ev.Type == "state" && (ev.State == "failed" || ev.State == "cancelled"):
			return fmt.Errorf("job %s %s", st.ID, ev.State)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if run.summary == nil {
		return fmt.Errorf("job %s: event stream ended without a summary", st.ID)
	}
	return nil
}

// jobTotal is a job's candidate count.
func jobTotal(req apitypes.JobRequest) int {
	s, err := req.Space.Space()
	if err != nil {
		return 0
	}
	return s.Size()
}

// shardChunks is the number of chunks a fleet job issues: with the default
// job options (shard above 4 × 256 candidates, a chunk per 256) the job
// splits into two even shards, each advanced in 256-candidate chunks.
func shardChunks(total int) int {
	const every = jobs.DefaultCheckpointEvery
	if total < 4*every {
		return 0
	}
	chunks := 0
	for _, size := range []int{total - total/2, total / 2} {
		chunks += (size + every - 1) / every
	}
	return chunks
}

// checkSummaries re-runs every 8th job's spec on an unsharded, in-memory
// jobs.Service over a fresh engine and requires byte-identical summaries.
func checkSummaries(e *env, runs []jobRun) error {
	model, err := core.New(params.Default())
	if err != nil {
		return err
	}
	eng := explore.New(model)
	svc, err := jobs.New(jobs.Options{Resolve: func([]byte) (*explore.Engine, error) { return eng, nil }})
	if err != nil {
		return err
	}
	defer svc.Shutdown(context.Background())
	type check struct {
		run jobRun
		id  string
	}
	var checks []check
	for _, r := range runs {
		if r.seq%8 != 0 {
			continue
		}
		j, err := svc.Submit("reference", "", jobs.Spec{Space: r.req.Space, Top: r.req.Top})
		if err != nil {
			return fmt.Errorf("reference job: %w", err)
		}
		checks = append(checks, check{run: r, id: j.ID})
	}
	for i, c := range checks {
		want, err := waitSummary(svc, c.id)
		if err != nil {
			return err
		}
		got := c.run.summary
		if e.tamper && i == 0 {
			got = append([]byte(nil), got...)
			got[len(got)/2] ^= 1
		}
		if !bytes.Equal(got, want) {
			e.mismatch("%s job %d (%s): summary differs from the unsharded in-memory reference", e.workload, c.run.seq, c.run.id)
		}
	}
	return nil
}

// waitSummary blocks until a reference job has its summary.
func waitSummary(svc *jobs.Service, id string) ([]byte, error) {
	_, notify, stop, err := svc.EventsSince(id, 1)
	if err != nil {
		return nil, err
	}
	defer stop()
	for {
		job, _, sum, err := svc.Get(id)
		if err != nil {
			return nil, err
		}
		if sum != nil {
			return sum, nil
		}
		// A done job publishes its summary just after its state.
		if job.State == jobs.StateFailed || job.State == jobs.StateCancelled {
			return nil, fmt.Errorf("reference job %s ended %s: %s", id, job.State, job.Error)
		}
		select {
		case <-notify:
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// setJobLayers records the jobs and store layers: job timestamps read back
// through GET /v1/jobs/{id} after the timed phase, and the store
// decorator's append timings.
func setJobLayers(e *env, sys *jobSystem, runs []jobRun, hc *http.Client) {
	var queue, run, lag []float64
	var runTime time.Duration
	var submits []traced
	progress := 0
	for _, r := range runs {
		progress += r.progress
		submits = append(submits, traced{r.trace, r.submit})
		resp, err := hc.Get(sys.ts.URL + "/v1/jobs/" + r.id)
		if err != nil {
			continue
		}
		var st apitypes.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			continue
		}
		queue = append(queue, st.Started.Sub(st.Created).Seconds())
		run = append(run, st.Finished.Sub(st.Started).Seconds())
		lag = append(lag, float64(r.got.Sub(st.Finished))/float64(time.Millisecond))
		runTime += st.Finished.Sub(st.Started)
	}
	n := float64(len(runs))
	e.set("server.wait_ms_p50", waitMS(sys.handler, submits))
	e.set("jobs.queue_wait_s_p50", median(queue))
	e.set("jobs.run_s_p50", median(run))
	e.set("jobs.summary_lag_ms_p50", median(lag))
	e.set("jobs.checkpoints_per_job", ratio(float64(progress), n))
	s := sys.store
	s.mu.Lock()
	checkpoints, bytes := s.checkpoints, s.bytes
	s.mu.Unlock()
	e.set("store.appends", ratio(float64(s.timings.count()), n))
	e.set("store.checkpoint_appends", ratio(float64(checkpoints), n))
	e.set("store.append_ms_p50", s.timings.quantile(0.5))
	e.set("store.append_ms_p90", s.timings.quantile(0.9))
	e.set("store.busy_share", ratio(s.timings.total().Seconds(), runTime.Seconds()))
	e.set("store.bytes", ratio(float64(bytes), n))
}

// setDistLayers records the dispatch layer from the pool's counter deltas
// and the replica middleware.
func setDistLayers(e *env, sys *jobSystem, c0, c1 dist.Counters) {
	n := float64(len(e.lat))
	dispatched := float64(c1.Dispatched - c0.Dispatched)
	completed := float64(c1.Completed - c0.Completed)
	e.set("dist.dispatched", ratio(dispatched, n))
	e.set("dist.completed", ratio(completed, n))
	e.set("dist.useful_ratio", ratio(completed, dispatched))
	e.set("dist.retries", ratio(float64(c1.Retries-c0.Retries), n))
	e.set("dist.local_fallbacks", ratio(float64(c1.LocalFallbacks-c0.LocalFallbacks), n))
	var ms []float64
	var busy time.Duration
	for _, h := range sys.replicaStats {
		ms = append(ms, h.timings.values()...)
		busy += h.timings.total()
	}
	e.set("dist.replica_ms_p50", quantile(ms, 0.5))
	e.set("dist.replica_busy_share",
		ratio(busy.Seconds(), e.end.Sub(e.start).Seconds()*float64(len(sys.replicaStats))))
}
