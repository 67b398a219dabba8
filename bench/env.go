package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// setupRuns is how many times a run builds its system under test; setup_s
// is the median, so one slow build does not move it.
const setupRuns = 31

// workloads maps each BENCHMARK.json workload to its driver.
var workloads = map[string]func(*env) error{
	"sweep":       runSweep,
	"job-durable": func(e *env) error { return runJobs(e, false) },
	"job-fleet":   func(e *env) error { return runJobs(e, true) },
	"interactive": runInteractive,
	"optimize":    runOptimize,
}

// env is one measured phase of one workload: the inputs' seed and scale,
// the timed-phase length, the tracer (nil when untraced) and everything
// the phase measured.
type env struct {
	workload string
	seed     int64
	scale    float64
	length   time.Duration
	root     string
	tr       *tracer
	tamper   bool

	// probe holds a sample of the workload's own distinct designs, which
	// the traced run times the core model on.
	probe []probeItem

	mu        sync.Mutex
	setups    []float64 // seconds
	lat       []float64 // ms per completed operation
	cands     float64
	start     time.Time
	end       time.Time
	deadline  time.Time
	rssMB     float64 // peak RSS when the timed phase ended
	attempted int
	failed    int
	wrong     []string
	layer     map[string]float64
}

func newEnv(root string, cfg config, length time.Duration, tr *tracer) *env {
	return &env{workload: cfg.workload, seed: cfg.seed, scale: cfg.scale, length: length,
		root: root, tr: tr, tamper: cfg.tamper, layer: map[string]float64{}}
}

// scaled shrinks an input size by the scale factor, keeping at least one.
func (e *env) scaled(n int) int {
	return max(1, int(math.Round(float64(n)*e.scale)))
}

// tempDir returns a fresh directory under .bench_build for one set-up.
func (e *env) tempDir() (string, error) {
	base := filepath.Join(e.root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, e.workload+"-")
}

// setUp builds the system under test setupRuns times, tearing down all but
// the last build, and returns the last build's teardown. Each build starts
// on a collected heap, so the previous build's garbage is not charged to
// it.
func (e *env) setUp(build func() (teardown func(), err error)) (func(), error) {
	var teardown func()
	for i := 0; i < setupRuns; i++ {
		if teardown != nil {
			teardown()
		}
		runtime.GC()
		t0 := time.Now()
		td, err := build()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		e.setups = append(e.setups, time.Since(t0).Seconds())
		teardown = td
	}
	return teardown, nil
}

// begin starts the timed phase.
func (e *env) begin() {
	e.start = time.Now()
	e.deadline = e.start.Add(e.length)
}

// over reports whether the timed phase has run its length; closed-loop
// clients start no operation after it.
func (e *env) over() bool { return !time.Now().Before(e.deadline) }

// finish ends the timed phase. Peak RSS is read here, so the oracles that
// run afterwards do not count towards it.
func (e *env) finish() {
	e.end = time.Now()
	e.rssMB = peakRSSMB()
}

// op records one completed operation and the candidates it settled.
func (e *env) op(lat time.Duration, cands int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attempted++
	e.lat = append(e.lat, float64(lat)/float64(time.Millisecond))
	e.cands += float64(cands)
}

// opFailed records one operation that failed or was refused.
func (e *env) opFailed() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attempted++
	e.failed++
}

// mismatch records an oracle failure: the run's result becomes incorrect.
func (e *env) mismatch(format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.wrong = append(e.wrong, fmt.Sprintf(format, args...))
}

// set records one per-layer metric.
func (e *env) set(name string, v float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.layer[name] = v
}

// quantile is the q-quantile of the operation latencies in ms.
func (e *env) quantile(q float64) float64 { return quantile(e.lat, q) }

// endToEnd computes the user-visible metrics of an untraced phase.
func (e *env) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":     median(e.setups),
		"cands_per_s": ratio(e.cands, e.end.Sub(e.start).Seconds()),
		"op_p50_ms":   e.quantile(0.5),
		"op_p90_ms":   e.quantile(0.9),
		"peak_rss_mb": e.rssMB,
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kB
}

// quantile interpolates linearly between the closest ranks; 0 for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// durations collects timings under a lock, for layers several goroutines
// report into.
type durations struct {
	mu  sync.Mutex
	ms  []float64
	sum time.Duration
}

func (d *durations) add(t time.Duration) {
	d.mu.Lock()
	d.ms = append(d.ms, float64(t)/float64(time.Millisecond))
	d.sum += t
	d.mu.Unlock()
}

func (d *durations) values() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]float64(nil), d.ms...)
}

func (d *durations) count() int { return len(d.values()) }

func (d *durations) quantile(q float64) float64 { return quantile(d.values(), q) }

func (d *durations) total() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sum
}

// traceID renders an operation index as the id its spans share.
func traceID(prefix string, i int) string { return prefix + strconv.Itoa(i) }
