package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one operation share
// a trace id; Parent is the id of the operation's root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// rootSpans are the client-side operation spans every other span of a
// trace nests under.
var rootSpans = map[string]bool{
	"job": true, "request": true, "optimize.request": true, "sweep.reduce": true,
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// alias maps a server-assigned job ID to the trace id the client
	// submitted the job under, for spans that only know the job ID.
	alias map[string]string
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), alias: map[string]string{}}
}

// add records one span.
func (t *tracer) add(name, trace string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Trace: trace, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// link records that spans tagged with a job ID belong to a client trace.
func (t *tracer) link(jobID, trace string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.alias[jobID] = trace
	t.mu.Unlock()
}

// finish resolves job IDs to client traces and every span to its trace's
// root, and returns the spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	roots := map[string]int{}
	for i := range t.spans {
		s := &t.spans[i]
		if tr, ok := t.alias[s.Trace]; ok {
			s.Trace = tr
		}
		if rootSpans[s.Name] {
			roots[s.Trace] = s.ID
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if !rootSpans[s.Name] {
			s.Parent = roots[s.Trace]
		}
	}
	return t.spans
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTime aggregates one span name: how many, their summed duration, and
// their summed self time — duration minus the part of it child spans
// cover.
type selfTime struct {
	name  string
	count int
	total time.Duration
	self  time.Duration
}

func selfTimes(spans []span) []selfTime {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*selfTime{}
	for _, s := range spans {
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{name: s.Name}
			agg[s.Name] = a
		}
		d := time.Duration(s.End - s.Start)
		a.count++
		a.total += d
		a.self += d - covered(s, children[s.ID])
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			sum += v.hi - end
			end = v.hi
		}
	}
	return time.Duration(sum)
}

// printSelfTimes prints each layer's self time as comment lines.
func printSelfTimes(w io.Writer, workload string, spans []span) {
	for _, s := range selfTimes(spans) {
		fmt.Fprintf(w, "# self %s %-18s n=%-7d total=%-12s self=%s\n", workload, s.name, s.count,
			s.total.Round(time.Microsecond), s.self.Round(time.Microsecond))
	}
}
