package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/server/apitypes"
)

// The profiling endpoints are strictly opt-in.
func TestProfilingEndpoints(t *testing.T) {
	off := New(Options{})
	rec := httptest.NewRecorder()
	off.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("profiling off: /debug/pprof/ = %d, want 404", rec.Code)
	}

	on := New(Options{EnableProfiling: true})
	rec = httptest.NewRecorder()
	on.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("profiling on: /debug/pprof/ = %d, want 200", rec.Code)
	}
	rec = httptest.NewRecorder()
	on.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/symbol", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("profiling on: /debug/pprof/symbol = %d, want 200", rec.Code)
	}
}

// A one-million-point exploration must stream under a flat heap: the
// pipeline decodes candidates positionally, the summary comes from bounded
// reducers, and the NDJSON flows out with client backpressure — nothing
// scales with the space. The old handler retained every candidate, every
// chunk of results and every compact point; this asserts none of that came
// back. (~1M real evaluations: seconds of CPU, skipped in -short runs.)
func TestExploreMillionPointsUnderHeapCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-point sweep in -short mode")
	}

	// 8 integrations × one strategy × 125k lifetimes = exactly the default
	// MaxSpace. Distinct lifetimes make every candidate a real evaluation,
	// the worst case for retention.
	years := make([]float64, 125_000)
	for i := range years {
		years[i] = 1 + float64(i)/10_000
	}
	srv := New(Options{
		CacheLimit:     4096,
		RequestTimeout: -1, // the sweep legitimately outlives the default 60s budget on slow runners
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := apitypes.ExploreRequest{
		Space: apitypes.SpaceSpec{
			Name:          "million",
			LifetimeYears: years,
		},
		Top: 10,
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/explore", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore: %d", resp.StatusCode)
	}

	const heapCeiling = 256 << 20 // bytes; the old handler's point buffer alone was ~80 MB
	var peakHeap uint64
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peakHeap {
			peakHeap = ms.HeapAlloc
		}
	}

	results := 0
	var summaryLine string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, `{"type":"result"`):
			results++
			if results%65536 == 0 {
				sample()
			}
		default:
			summaryLine = line
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	sample()

	if results != 1_000_000 {
		t.Errorf("streamed %d results, want 1000000", results)
	}
	var ev apitypes.ExploreEvent
	if err := json.Unmarshal([]byte(summaryLine), &ev); err != nil {
		t.Fatalf("last line is not a summary: %v (%q)", err, truncate(summaryLine))
	}
	if ev.Type != "summary" || ev.Summary == nil {
		t.Fatalf("stream did not end in a summary: %q", truncate(summaryLine))
	}
	if ev.Summary.Candidates != 1_000_000 || ev.Summary.Evaluated != 1_000_000 {
		t.Errorf("summary scale: %+v", ev.Summary)
	}
	if len(ev.Summary.Ranked) != 10 {
		t.Errorf("ranked %d IDs, want 10", len(ev.Summary.Ranked))
	}
	if len(ev.Summary.Frontier) == 0 {
		t.Error("empty frontier")
	}
	// A planned space streams through the block kernel, which never writes
	// the whole-report memo: the 4096-entry cache that /v1/evaluate relies
	// on comes out of a million evaluations untouched. With the kernel
	// forced off, the memoizing scalar path must evict instead.
	st := ev.Summary.Stats
	if os.Getenv(explore.ScalarOnlyEnv) != "" {
		if st.Evictions == 0 {
			t.Error("a 1M-evaluation scalar sweep through a 4096-entry cache must evict")
		}
	} else if st.Evictions != 0 || st.CacheEntries != 0 {
		t.Errorf("a planned 1M-candidate sweep touched the 4096-entry cache: %d evictions, %d entries",
			st.Evictions, st.CacheEntries)
	}
	if peakHeap > heapCeiling {
		t.Errorf("peak heap %d MB over the %d MB ceiling — the stream is retaining per-candidate state",
			peakHeap>>20, heapCeiling>>20)
	}
	t.Logf("peak sampled heap: %d MB", peakHeap>>20)
}

func truncate(s string) string {
	if len(s) > 200 {
		return s[:200] + "..."
	}
	return fmt.Sprintf("%.200s", s)
}
