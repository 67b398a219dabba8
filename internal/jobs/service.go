// Service: the in-process job manager. It owns the authoritative
// in-memory job table (rebuilt from the store at startup), admission
// control, the scheduler that leases jobs to runner goroutines, the
// event streams, and the two planned ways of stopping — graceful
// Shutdown (checkpoint and park everything) and Abort (simulated crash:
// stop dead, persist nothing further).
package jobs

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/explore"
)

// Defaults for the zero Options.
const (
	// DefaultCheckpointEvery is the index span between durable
	// checkpoints.
	DefaultCheckpointEvery = 256
	// DefaultMaxRunning bounds concurrently running jobs.
	DefaultMaxRunning = 2
	// DefaultMaxSpace bounds one job's candidate count.
	DefaultMaxSpace = 1_000_000
)

// Options configures a Service.
type Options struct {
	// Store persists job records; nil means a process-lifetime MemStore.
	Store Store
	// Resolve maps a request's params overlay to the engine the job
	// evaluates on. Required.
	Resolve func(params []byte) (*explore.Engine, error)
	// MaxRunning bounds concurrently running jobs (≤0 = default).
	MaxRunning int
	// CheckpointEvery is the index span between checkpoints (≤0 = default).
	CheckpointEvery int
	// MaxSpace bounds one job's evaluated candidates (≤0 = default).
	MaxSpace int
	// JobShards splits a large job into this many concurrently executed
	// index-range shards, each with its own checkpoint cursor and reducer
	// snapshots (≤1 runs the job as one shard). The final summary merges
	// the restored shard snapshots in index order and is byte-identical to
	// a one-shard run; a crash resumes only dirty shards.
	JobShards int
	// ShardAbove is the minimum candidate count before a job splits
	// (≤0 = 4 × CheckpointEvery). Smaller jobs run as one shard — shard
	// bookkeeping would dominate.
	ShardAbove int
	// Dispatch, when set, is offered every chunk of every shard — a
	// one-shard job's included — before local execution (a replica
	// fleet, say). A dispatch error — including ErrNoDispatch — falls
	// the chunk back to in-process execution of the same range: the
	// chunk is a pure function of its snapshots, so running it locally
	// after a failed (or half-finished) remote attempt cannot change a
	// byte.
	Dispatch ChunkRunner
	// RatePerSec/Burst token-bucket submissions per tenant (0 = unlimited).
	RatePerSec float64
	Burst      int
	// MaxActivePerTenant bounds one tenant's non-terminal jobs (0 =
	// unlimited).
	MaxActivePerTenant int
	// Load reports current system load in [0, 1]; nil disables load-aware
	// shedding. When load crosses HighWater the service parks running
	// jobs at their next checkpoint; parked and queued jobs only start
	// while load is at or below LowWater.
	Load      func() float64
	HighWater float64
	LowWater  float64
	// LoadInterval is the shedding poll period (0 = 250ms).
	LoadInterval time.Duration
	// Logger receives job lifecycle lines; nil disables logging.
	Logger *log.Logger
}

func (o Options) checkpointEvery() int {
	if o.CheckpointEvery > 0 {
		return o.CheckpointEvery
	}
	return DefaultCheckpointEvery
}

func (o Options) jobShards() int {
	if o.JobShards > 1 {
		return o.JobShards
	}
	return 1
}

func (o Options) shardAbove() int {
	if o.ShardAbove > 0 {
		return o.ShardAbove
	}
	return 4 * o.checkpointEvery()
}

func (o Options) maxRunning() int {
	if o.MaxRunning > 0 {
		return o.MaxRunning
	}
	return DefaultMaxRunning
}

func (o Options) maxSpace() int {
	if o.MaxSpace > 0 {
		return o.MaxSpace
	}
	return DefaultMaxSpace
}

func (o Options) waters() (high, low float64) {
	high, low = o.HighWater, o.LowWater
	if high <= 0 {
		high = 0.9
	}
	if low <= 0 || low > high {
		low = high
	}
	return high, low
}

// ErrNotFound marks an unknown job ID.
var ErrNotFound = errors.New("jobs: no such job")

// SpecError is a submission rejected before admission (invalid space or
// params).
type SpecError struct{ Message string }

func (e *SpecError) Error() string { return "jobs: invalid spec: " + e.Message }

// Counters aggregate service activity for /v1/stats.
type Counters struct {
	Submitted uint64 `json:"submitted"`
	Done      uint64 `json:"done"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	Shed      uint64 `json:"shed"`
	Rejected  uint64 `json:"rejected"`
	Running   int    `json:"running"`
	Queued    int    `json:"queued"`
}

// jobEntry is one job's in-memory state.
type jobEntry struct {
	job     Job
	cp      *Checkpoint
	events  []Event
	summary []byte // terminal summary bytes, when done
	subs    map[chan struct{}]struct{}
}

// stopReason tells a cancelled runner what to do on the way out.
type stopReason int

const (
	stopNone   stopReason = iota
	stopCancel            // user cancel → terminal cancelled
	stopPark              // shedding / drain → checkpointed and re-queued
	stopAbort             // simulated crash → exit silently, persist nothing
	stopFinish            // claimed by the runner: every shard is complete
)

// runHandle controls one running job.
type runHandle struct {
	cancel context.CancelFunc
	reason atomic.Int32
	done   chan struct{}
}

// stop requests a stop and reports whether the runner will honor it:
// false when an earlier request won or the runner claimed the finish.
func (h *runHandle) stop(r stopReason) bool {
	ok := h.reason.CompareAndSwap(int32(stopNone), int32(r))
	h.cancel()
	return ok
}

// Service is the async job tier. Construct with New; all methods are safe
// for concurrent use.
type Service struct {
	opts  Options
	store Store
	lim   *limiter

	mu      sync.Mutex
	emitMu  sync.Mutex
	jobs    map[string]*jobEntry
	order   []string
	queue   []string // queued/shedding job IDs, FIFO
	running map[string]*runHandle
	nextID  int
	idem    map[string]string
	drain   bool

	baseCtx   context.Context
	baseStop  context.CancelFunc
	wake      chan struct{}
	wg        sync.WaitGroup
	schedWG   sync.WaitGroup
	aborted   atomic.Bool
	closeOnce sync.Once

	cSubmitted, cDone, cFailed, cCancelled, cShed, cRejected atomic.Uint64
}

// New builds a Service over the store, replaying its records: terminal
// jobs are retained for status queries, interrupted ones (running or
// shedding at crash time) and queued ones re-enter the queue and resume
// from their last checkpoint.
func New(opts Options) (*Service, error) {
	if opts.Resolve == nil {
		return nil, fmt.Errorf("jobs: Options.Resolve is required")
	}
	store := opts.Store
	if store == nil {
		store = &MemStore{}
	}
	states, err := store.Load()
	if err != nil {
		return nil, fmt.Errorf("jobs: replay: %w", err)
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Service{
		opts:     opts,
		store:    store,
		lim:      newLimiter(opts.RatePerSec, opts.Burst, opts.MaxActivePerTenant, time.Now),
		jobs:     make(map[string]*jobEntry),
		running:  make(map[string]*runHandle),
		nextID:   1,
		idem:     make(map[string]string),
		baseCtx:  ctx,
		baseStop: stop,
		wake:     make(chan struct{}, 1),
	}
	// A crash can fall between a job's final appends. Replay completes
	// them: an unfinished job with a durable summary event finishes as
	// done, and a terminal job whose log lacks its final state event gets
	// it, so event tailers always see the stream end.
	var finished, unannounced []*jobEntry
	for _, st := range states {
		e := &jobEntry{job: st.Job, cp: upgradeCheckpoint(st.Checkpoint, st.Job.Total),
			events: st.Events, subs: make(map[chan struct{}]struct{})}
		for _, ev := range st.Events {
			if ev.Type == "summary" {
				e.summary = ev.Summary
			}
		}
		s.jobs[st.Job.ID] = e
		s.order = append(s.order, st.Job.ID)
		if n, ok := idNum(st.Job.ID); ok && n >= s.nextID {
			s.nextID = n + 1
		}
		if st.Job.IdemKey != "" {
			s.idem[idemKey(st.Job.Tenant, st.Job.IdemKey)] = st.Job.ID
		}
		if st.Job.State.Terminal() {
			if n := len(st.Events); n == 0 || st.Events[n-1].State != st.Job.State {
				unannounced = append(unannounced, e)
			}
			continue
		}
		s.lim.reserve(st.Job.Tenant)
		if e.summary != nil {
			finished = append(finished, e)
			continue
		}
		if st.Job.State != StateQueued {
			// Interrupted mid-run: resume from the last durable checkpoint.
			e.job.State = StateQueued
			s.logf("job %s recovered (resuming at %d/%d)", st.Job.ID, cpIndex(e.cp), st.Job.Total)
		}
		s.queue = append(s.queue, st.Job.ID)
	}
	for _, e := range finished {
		s.markDone(e, e.job.ID, e.summary)
	}
	for _, e := range unannounced {
		s.emit(e.job.ID, Event{Type: "state", State: e.job.State})
	}
	s.schedWG.Add(1)
	go s.scheduler()
	if opts.Load != nil {
		s.schedWG.Add(1)
		go s.loadWatcher()
	}
	return s, nil
}

func idemKey(tenant, key string) string { return tenant + "\x00" + key }

func idNum(id string) (int, bool) {
	id = strings.TrimPrefix(id, "j")
	n, err := strconv.Atoi(id)
	return n, err == nil
}

func cpIndex(cp *Checkpoint) int {
	if cp == nil {
		return 0
	}
	return cp.NextIndex
}

// upgradeCheckpoint rewrites a legacy checkpoint — one cursor with the
// reducer snapshots at top level, as jobs that predate one-shard runs
// wrote them — as the single shard [0, total) it describes.
func upgradeCheckpoint(cp *Checkpoint, total int) *Checkpoint {
	if cp == nil || len(cp.Shards) > 0 {
		return cp
	}
	return &Checkpoint{NextIndex: cp.NextIndex, Shards: []ShardCheckpoint{{
		Lo: 0, Hi: total, NextIndex: cp.NextIndex,
		Ranked: cp.Ranked, Frontier: cp.Frontier, Stats: cp.Stats}}}
}

func (s *Service) logf(format string, args ...any) {
	if s.opts.Logger != nil {
		s.opts.Logger.Printf("jobs: "+format, args...)
	}
}

// Submit validates and enqueues a job. An idemKey that matches an earlier
// submission by the same tenant returns that job unchanged (no quota
// charge). Rejections are *SpecError (invalid) or *QuotaError (admission).
func (s *Service) Submit(tenant, idem string, spec Spec) (Job, error) {
	if tenant == "" {
		tenant = "default"
	}
	s.mu.Lock()
	if s.drain {
		s.mu.Unlock()
		s.cRejected.Add(1)
		return Job{}, &QuotaError{Code: "draining", RetryAfter: 5 * time.Second,
			Message: "service is draining; resubmit to the replacement instance"}
	}
	if idem != "" {
		if id, ok := s.idem[idemKey(tenant, idem)]; ok {
			job := s.jobs[id].job
			s.mu.Unlock()
			return job, nil
		}
	}
	s.mu.Unlock()

	// Validate outside the lock: engine resolution and space validation
	// are real work.
	eng, err := s.opts.Resolve(spec.Params)
	if err != nil {
		s.cRejected.Add(1)
		return Job{}, err
	}
	space, err := spec.Space.SpaceWith(eng.Model.GridDB())
	if err != nil {
		s.cRejected.Add(1)
		return Job{}, &SpecError{Message: "invalid space: " + err.Error()}
	}
	total := space.Size()
	if spec.Budget > 0 && spec.Budget < total {
		total = spec.Budget
	}
	if max := s.opts.maxSpace(); total > max {
		s.cRejected.Add(1)
		return Job{}, &SpecError{Message: fmt.Sprintf(
			"job would evaluate %d candidates, over the limit of %d (set a budget)", total, max)}
	}
	if _, err := space.Iter(); err != nil {
		s.cRejected.Add(1)
		return Job{}, &SpecError{Message: "space does not enumerate: " + err.Error()}
	}

	if err := s.lim.admit(tenant); err != nil {
		s.cRejected.Add(1)
		return Job{}, err
	}

	s.mu.Lock()
	// Re-check idempotency under the lock (concurrent duplicate submits).
	if idem != "" {
		if id, ok := s.idem[idemKey(tenant, idem)]; ok {
			job := s.jobs[id].job
			s.mu.Unlock()
			s.lim.release(tenant)
			return job, nil
		}
	}
	job := Job{
		ID:       fmt.Sprintf("j%06d", s.nextID),
		Tenant:   tenant,
		IdemKey:  idem,
		Spec:     spec,
		SpecFP:   spec.Fingerprint(),
		ParamsFP: spec.ParamsFingerprint(),
		State:    StateQueued,
		Total:    total,
		Created:  time.Now().UTC(),
	}
	s.nextID++
	e := &jobEntry{job: job, subs: make(map[chan struct{}]struct{})}
	s.jobs[job.ID] = e
	s.order = append(s.order, job.ID)
	s.queue = append(s.queue, job.ID)
	if idem != "" {
		s.idem[idemKey(tenant, idem)] = job.ID
	}
	s.mu.Unlock()

	s.cSubmitted.Add(1)
	s.persist(Record{Kind: "job", Job: &job})
	s.emit(job.ID, Event{Type: "state", State: StateQueued})
	s.logf("job %s submitted by %q (%d candidates)", job.ID, tenant, total)
	s.kick()
	return job, nil
}

// Get returns a job's record, progress, and (when finished) its summary
// bytes.
func (s *Service) Get(id string) (Job, Progress, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.jobs[id]
	if !ok {
		return Job{}, Progress{}, nil, ErrNotFound
	}
	p := Progress{NextIndex: cpIndex(e.cp), Total: e.job.Total}
	if e.cp != nil {
		p.Shards = shardProgress(e.cp.Shards)
	}
	if e.job.State == StateDone {
		p.NextIndex = e.job.Total
		p.Shards = nil
	}
	return e.job, p, e.summary, nil
}

// PartialSummary renders the summary as of the job's last checkpoint — a
// finished job returns its terminal summary bytes verbatim.
func (s *Service) PartialSummary(id string) ([]byte, error) {
	s.mu.Lock()
	e, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, ErrNotFound
	}
	if e.summary != nil {
		out := e.summary
		s.mu.Unlock()
		return out, nil
	}
	var shards []ShardCheckpoint
	if e.cp != nil {
		shards = e.cp.Shards
	}
	total := e.job.Total
	s.mu.Unlock()
	// The top bound applies at the terminal summary; merge unbounded here.
	red, err := mergeShardCheckpoints(0, shards)
	if err != nil {
		return nil, err
	}
	return red.summaryBytes(total)
}

// Cancel requests termination. Cancelling a terminal job is a no-op;
// cancelling a queued or parked job is immediate; a running job stops at
// the next delivery.
func (s *Service) Cancel(id string) (Job, error) {
	s.mu.Lock()
	e, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Job{}, ErrNotFound
	}
	if e.job.State.Terminal() {
		job := e.job
		s.mu.Unlock()
		return job, nil
	}
	if h, running := s.running[id]; running {
		s.mu.Unlock()
		h.stop(stopCancel)
		// The runner owns the terminal transition; report the current record.
		s.mu.Lock()
		job := e.job
		s.mu.Unlock()
		return job, nil
	}
	// Queued or parked: finalize directly.
	s.dequeueLocked(id)
	s.setStateLocked(e, StateCancelled, "", "")
	job := e.job
	s.lim.release(job.Tenant) // free before the terminal state shows
	s.mu.Unlock()
	s.cCancelled.Add(1)
	s.persist(Record{Kind: "job", Job: &job})
	s.emit(id, Event{Type: "state", State: StateCancelled})
	return job, nil
}

// List returns every job in submission order.
func (s *Service) List() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].job)
	}
	return out
}

// EventsSince returns the job's events with Seq ≥ from, plus a channel
// that receives a tick when new events arrive and a stop func releasing
// the subscription. A terminal job's full history is still served.
func (s *Service) EventsSince(id string, from int) ([]Event, <-chan struct{}, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.jobs[id]
	if !ok {
		return nil, nil, nil, ErrNotFound
	}
	ch := make(chan struct{}, 1)
	e.subs[ch] = struct{}{}
	stop := func() {
		s.mu.Lock()
		delete(e.subs, ch)
		s.mu.Unlock()
	}
	return eventsFrom(e.events, from), ch, stop, nil
}

// More returns events with Seq ≥ from (for resuming inside a watch loop).
func (s *Service) More(id string, from int) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.jobs[id]
	if !ok {
		return nil
	}
	return eventsFrom(e.events, from)
}

func eventsFrom(events []Event, from int) []Event {
	if from <= 1 {
		return append([]Event(nil), events...)
	}
	i := sort.Search(len(events), func(i int) bool { return events[i].Seq >= from })
	return append([]Event(nil), events[i:]...)
}

// Counters snapshots the service counters.
func (s *Service) Counters() Counters {
	s.mu.Lock()
	queued, running := len(s.queue), len(s.running)
	s.mu.Unlock()
	return Counters{
		Submitted: s.cSubmitted.Load(),
		Done:      s.cDone.Load(),
		Failed:    s.cFailed.Load(),
		Cancelled: s.cCancelled.Load(),
		Shed:      s.cShed.Load(),
		Rejected:  s.cRejected.Load(),
		Running:   running,
		Queued:    queued,
	}
}

// Shed parks one running job at its next chunk boundary: its progress is
// checkpointed and it re-enters the queue. Reports whether the park will
// land — false when the job was already stopping or finishing.
func (s *Service) Shed() bool {
	s.mu.Lock()
	var victim *runHandle
	// Park the most recently started runner (LIFO keeps the oldest work
	// finishing first).
	var victimID string
	for id, h := range s.running {
		if victimID == "" || id > victimID {
			victimID, victim = id, h
		}
	}
	s.mu.Unlock()
	if victim == nil {
		return false
	}
	return victim.stop(stopPark)
}

// BeginDrain stops starting new work and rejects new submissions; running
// jobs keep going until Shutdown parks them.
func (s *Service) BeginDrain() {
	s.mu.Lock()
	s.drain = true
	s.mu.Unlock()
}

// Shutdown gracefully stops the service: no new starts, every running job
// parked at its next chunk boundary with a durable checkpoint, then the
// store is closed. The context bounds the wait.
func (s *Service) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	s.mu.Lock()
	handles := make([]*runHandle, 0, len(s.running))
	for _, h := range s.running {
		handles = append(handles, h)
	}
	s.mu.Unlock()
	for _, h := range handles {
		h.stop(stopPark)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.baseStop()
	s.closeOnce.Do(func() { s.store.Close() })
	s.schedWG.Wait()
	return err
}

// Abort simulates a hard crash for the chaos harness: runners stop
// mid-flight and nothing further is persisted — the store holds exactly
// what was durable at the "kill". The service is unusable afterwards.
func (s *Service) Abort() {
	s.aborted.Store(true)
	s.mu.Lock()
	s.drain = true
	handles := make([]*runHandle, 0, len(s.running))
	for _, h := range s.running {
		handles = append(handles, h)
	}
	s.mu.Unlock()
	for _, h := range handles {
		h.stop(stopAbort)
	}
	s.wg.Wait()
	s.baseStop()
	s.closeOnce.Do(func() { s.store.Close() })
	s.schedWG.Wait()
}

// ---- internals ----

func (s *Service) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// canStartLocked applies the load hysteresis: starts happen only at or
// below LowWater (HighWater when LowWater is unset).
func (s *Service) canStart() bool {
	if s.opts.Load == nil {
		return true
	}
	_, low := s.opts.waters()
	return s.opts.Load() <= low
}

// scheduler leases queued jobs to runner goroutines whenever slots free
// up.
func (s *Service) scheduler() {
	defer s.schedWG.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-s.wake:
		case <-time.After(250 * time.Millisecond):
		}
		for {
			s.mu.Lock()
			if s.drain || len(s.queue) == 0 || len(s.running) >= s.opts.maxRunning() || !s.canStart() {
				s.mu.Unlock()
				break
			}
			id := s.queue[0]
			s.queue = s.queue[1:]
			e := s.jobs[id]
			if e.job.State.Terminal() {
				s.mu.Unlock()
				continue
			}
			ctx, cancel := context.WithCancel(s.baseCtx)
			h := &runHandle{cancel: cancel, done: make(chan struct{})}
			s.running[id] = h
			// Under the lock that checked drain: Shutdown and Abort set
			// drain before they Wait, so they never race this Add.
			s.wg.Add(1)
			s.setStateLocked(e, StateRunning, "", "")
			if e.job.Started.IsZero() {
				e.job.Started = time.Now().UTC()
			}
			job := e.job
			s.mu.Unlock()

			s.persist(Record{Kind: "job", Job: &job})
			s.emit(id, Event{Type: "state", State: StateRunning})
			go func() {
				defer s.wg.Done()
				defer close(h.done)
				s.run(ctx, h, id)
			}()
		}
	}
}

// loadWatcher sheds running jobs while load stays above HighWater.
func (s *Service) loadWatcher() {
	defer s.schedWG.Done()
	interval := s.opts.LoadInterval
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	high, _ := s.opts.waters()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			if s.opts.Load() >= high {
				if s.Shed() {
					s.logf("load %.2f ≥ %.2f: shed one running job", s.opts.Load(), high)
				}
			} else {
				s.kick()
			}
		}
	}
}

func (s *Service) dequeueLocked(id string) {
	for i, qid := range s.queue {
		if qid == id {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

func (s *Service) setStateLocked(e *jobEntry, st State, errMsg, panicMsg string) {
	e.job.State = st
	e.job.Error = errMsg
	e.job.Panic = panicMsg
	if st.Terminal() {
		e.job.Finished = time.Now().UTC()
	}
}

// persist appends with bounded retries: a transient store fault (the
// chaos harness injects them) must not kill a job that can simply write
// again. Returns the last error after exhausting retries.
func (s *Service) persist(rec Record) error {
	if s.aborted.Load() {
		return fmt.Errorf("jobs: aborted")
	}
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		if err = s.store.Append(rec); err == nil {
			return nil
		}
		time.Sleep(time.Millisecond << attempt)
	}
	s.logf("store append failed after retries: %v", err)
	return err
}

// emit persists one event and, once it is durable, appends it to the
// job's stream and notifies subscribers. An event whose append fails is
// dropped, so the next event takes its seq and the live log stays exactly
// what a replay serves. A terminal state event is published even then:
// live tailers must see the stream end, and replay, finding the terminal
// job record without it, synthesizes it at the same seq. emitMu keeps seq
// assignment and persistence in the same order, so the replayed log is
// always seq-ascending per job.
func (s *Service) emit(id string, ev Event) {
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	s.mu.Lock()
	e, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	ev.Seq = len(e.events) + 1
	s.mu.Unlock()

	err := s.persist(Record{Kind: "event", JobID: id, Event: &ev})
	if err != nil && !(ev.Type == "state" && ev.State.Terminal()) {
		return
	}
	s.mu.Lock()
	e.events = append(e.events, ev)
	subs := subscribers(e)
	s.mu.Unlock()
	notify(subs)
}

// checkpoint makes cp durable together with the progress event that
// announces it: one record, one append. Like emit, it publishes nothing
// before the append succeeds — the checkpoint and its event become
// visible together once durable, and a failed append leaves neither.
func (s *Service) checkpoint(e *jobEntry, id string, cp *Checkpoint) error {
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	s.mu.Lock()
	ev := Event{Seq: len(e.events) + 1, Type: "progress", Progress: &Progress{
		NextIndex: cp.NextIndex, Total: e.job.Total, Shards: shardProgress(cp.Shards)}}
	s.mu.Unlock()
	if err := s.persist(Record{Kind: "checkpoint", JobID: id, Checkpoint: cp, Event: &ev}); err != nil {
		return err
	}
	s.mu.Lock()
	e.cp = cp
	e.events = append(e.events, ev)
	subs := subscribers(e)
	s.mu.Unlock()
	notify(subs)
	return nil
}

// subscribers snapshots a job's subscriber channels; the caller holds
// s.mu.
func subscribers(e *jobEntry) []chan struct{} {
	subs := make([]chan struct{}, 0, len(e.subs))
	for ch := range e.subs {
		subs = append(subs, ch)
	}
	return subs
}

// notify ticks each subscriber without blocking: a pending tick already
// tells it to read.
func notify(subs []chan struct{}) {
	for _, ch := range subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}
