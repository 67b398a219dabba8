package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/server"
)

// Interactive traffic: an open loop at a fixed rate, 90% single
// evaluations and 10% 16-design batches, designs drawn Zipf(1.1) from a
// pool of variants of designs/*.json.
const (
	interactiveRate = 4000 // requests per second
	poolSize        = 4096
	batchSize       = 16
	batchShare      = 0.1
	warmupSeconds   = 1.25
)

// request is one scheduled request: the pool indices it evaluates (one
// for /v1/evaluate, batchSize for /v1/evaluate/batch).
type request []int32

// runInteractive is the service's request path: JSON decode and encode,
// memo-cache hits, and the scalar core model on misses. Two goroutines,
// each owning one keep-alive connection, send request j at its scheduled
// time start + j/rate; a slow response delays that connection's later
// sends, which the lateness metrics show.
func runInteractive(e *env) error {
	var (
		srv *server.Server
		ts  *httptest.Server
		hs  *handlerStats
	)
	teardown, err := e.setUp(func() (func(), error) {
		var stop func()
		srv, ts, hs, stop = serve(e, server.Options{})
		return stop, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	model, err := core.New(params.Default())
	if err != nil {
		return err
	}
	pool, err := designPool(e, model, e.scaled(poolSize))
	if err != nil {
		return err
	}
	w, eff := defaultWorkload()
	for _, p := range pool[:min(256, len(pool))] {
		e.probe = append(e.probe, probeItem{d: p.design, w: w, eff: eff})
	}
	refs, err := referenceBodies(pool)
	if err != nil {
		return err
	}
	warm := e.scaled(int(interactiveRate * warmupSeconds))
	timed := int(interactiveRate * e.length.Seconds())
	reqs := schedule(e, len(pool), warm+timed)

	lat := make([]float64, timed)  // ms, from the write to the full response
	late := make([]float64, timed) // ms the send ran behind its schedule
	ok := make([]bool, timed)
	var bad [2]int // bodies that differ from the reference, per connection
	before := srv.Engine().Stats()
	start := time.Now().Add(10 * time.Millisecond)
	e.start = start.Add(time.Duration(float64(warm) / interactiveRate * float64(time.Second)))
	var wg sync.WaitGroup
	var dialErr [2]error
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := dialHTTP(ts.Listener.Addr().String())
			if err != nil {
				dialErr[g] = err
				return
			}
			defer c.close()
			var expect, batchBuf []byte
			for j := g; j < len(reqs); j += 2 {
				due := start.Add(time.Duration(float64(j) / interactiveRate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				path, body := "/v1/evaluate", pool[reqs[j][0]].body
				if len(reqs[j]) > 1 {
					path, body = "/v1/evaluate/batch", batchBody(pool, reqs[j])
				}
				trace := ""
				if e.tr != nil && j >= warm {
					trace = traceID("req", j-warm)
				}
				sent := time.Now()
				status, resp, err := c.post(path, body, trace)
				done := time.Now()
				if j < warm {
					continue
				}
				i := j - warm
				e.tr.add("request", trace, sent, done)
				lat[i] = float64(done.Sub(sent)) / float64(time.Millisecond)
				late[i] = float64(sent.Sub(due)) / float64(time.Millisecond)
				ok[i] = err == nil && status == http.StatusOK
				if !ok[i] {
					continue
				}
				if len(reqs[j]) == 1 {
					expect = refs[reqs[j][0]]
				} else {
					batchBuf = batchExpect(batchBuf[:0], refs, reqs[j])
					expect = batchBuf
				}
				if e.tamper && i == 0 {
					resp[len(resp)/2] ^= 1
				}
				if !bytes.Equal(resp, expect) {
					bad[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	e.finish()
	for _, err := range dialErr {
		if err != nil {
			return err
		}
	}
	for i := range lat {
		if !ok[i] {
			e.opFailed()
			continue
		}
		e.op(time.Duration(lat[i]*float64(time.Millisecond)), len(reqs[warm+i]))
	}
	if n := bad[0] + bad[1]; n > 0 {
		e.mismatch("interactive: %d response bodies differ from the reference server's", n)
	}
	e.set("gen.late_ms_p50", quantile(late, 0.5))
	e.set("gen.late_ms_p90", quantile(late, 0.9))
	if e.tr != nil {
		var designs float64
		for _, r := range reqs[warm:] {
			designs += float64(len(r))
		}
		e.setExplore(before, srv.Engine().Stats(), designs)
		e.setServer(hs)
		var sent []traced
		for i := range lat {
			if ok[i] {
				sent = append(sent, traced{traceID("req", i), time.Duration(lat[i] * float64(time.Millisecond))})
			}
		}
		e.set("server.wait_ms_p50", waitMS(hs, sent))
	}
	return nil
}

// schedule draws the request sequence: which kind, which designs.
func schedule(e *env, pool, n int) []request {
	r := rng(e.seed, streamSchedule)
	z := rand.NewZipf(r, 1.1, 1, uint64(pool-1))
	out := make([]request, n)
	for j := range out {
		k := 1
		if r.Float64() < batchShare {
			k = batchSize
		}
		out[j] = make(request, k)
		for i := range out[j] {
			out[j][i] = int32(z.Uint64())
		}
	}
	return out
}

// referenceBodies evaluates every pool design once on a separate fresh
// server, before timing: the bodies every response is compared against.
func referenceBodies(pool []poolDesign) ([][]byte, error) {
	ref := server.New(server.Options{})
	defer ref.Shutdown(context.Background())
	out := make([][]byte, len(pool))
	for i, p := range pool {
		rec := httptest.NewRecorder()
		ref.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(p.body)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("reference evaluation of %s: %d %s", p.design.Name, rec.Code, rec.Body)
		}
		out[i] = rec.Body.Bytes()
	}
	return out, nil
}

// batchBody is the /v1/evaluate/batch request for some pool designs.
func batchBody(pool []poolDesign, ds request) []byte {
	b := []byte(`{"designs":[`)
	for i, d := range ds {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, pool[d].json...)
	}
	return append(b, "]}"...)
}

// batchExpect is the batch response the reference bodies imply: each item
// carries the same bytes a single /v1/evaluate returns, without its
// trailing newline.
func batchExpect(b []byte, refs [][]byte, ds request) []byte {
	b = append(b, `{"count":`...)
	b = strconv.AppendInt(b, int64(len(ds)), 10)
	b = append(b, `,"failed":0,"results":[`...)
	for i, d := range ds {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"index":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `,"result":`...)
		b = append(b, bytes.TrimSuffix(refs[d], []byte("\n"))...)
		b = append(b, '}')
	}
	return append(b, "]}\n"...)
}

// httpConn is one keep-alive HTTP/1.1 connection written by hand, so a
// request's latency runs from the write to the connection until the full
// response is read, with no client pool in between.
type httpConn struct {
	c   net.Conn
	br  *bufio.Reader
	hdr []byte
}

func dialHTTP(addr string) (*httpConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &httpConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *httpConn) close() { c.c.Close() }

func (c *httpConn) post(path string, body []byte, trace string) (int, []byte, error) {
	h := append(c.hdr[:0], "POST "...)
	h = append(h, path...)
	h = append(h, " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: "...)
	h = strconv.AppendInt(h, int64(len(body)), 10)
	if trace != "" {
		h = append(h, "\r\nX-Bench-Trace: "...)
		h = append(h, trace...)
	}
	h = append(h, "\r\n\r\n"...)
	c.hdr = h
	bufs := net.Buffers{h, body}
	if _, err := bufs.WriteTo(c.c); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, err
}
