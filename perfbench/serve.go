package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/value"
)

// serveHarness is an in-process server behind its public Handler on a
// loopback socket, plus a client limited to nproc connections.
type serveHarness struct {
	srv    *server.Server
	hs     *http.Server
	ln     net.Listener
	url    string
	client *http.Client
	conns  int
	progs  []*runProg // request mix, by serveName
	cycle  []int
	rng    *rand.Rand
	pos    int

	rec     atomic.Pointer[recorder] // non-nil while handler spans are recorded
	engines []engSpan                // engine spans to add once handlers have closed
	engMu   sync.Mutex
}

// engSpan is an engine span whose placement waits for its handler span to
// close: the engine interval is the response's elapsed_ms, ending where
// the handler ends.
type engSpan struct {
	trace   int64
	handler int
	ns      int64
}

// request is one scheduled call.
type request struct {
	prog *runProg
	inv  invocation
	body []byte
}

const (
	traceHeader   = "X-Bench-Span"
	handlerHeader = "X-Bench-Handler"
)

// startServer starts srv on a loopback port with every handler call
// wrapped, so a traced run can time the Handler from outside.
func startServer(srv *server.Server, conns int) (*serveHarness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &serveHarness{srv: srv, ln: ln, conns: conns, url: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}}}
	inner := srv.Handler()
	h.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := h.rec.Load()
		ref := r.Header.Get(traceHeader)
		if rec == nil || ref == "" {
			inner.ServeHTTP(w, r)
			return
		}
		trace, parent := parseRef(ref)
		sp := rec.begin(trace, parent, "server.handler")
		w.Header().Set(handlerHeader, strconv.Itoa(sp))
		inner.ServeHTTP(w, r)
		rec.end(sp)
	})}
	go h.hs.Serve(ln)
	return h, nil
}

func parseRef(s string) (trace int64, idx int) {
	a, b, _ := strings.Cut(s, ":")
	trace, _ = strconv.ParseInt(a, 10, 64)
	idx, _ = strconv.Atoi(b)
	return trace, idx
}

// close stops the HTTP server and drains the coordination server, and
// reports runs that leaked blocks.
func (h *serveHarness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if derr := h.srv.Shutdown(ctx); err == nil {
		err = derr
	}
	h.client.CloseIdleConnections()
	return err
}

// register posts a program's source to POST /programs.
func (h *serveHarness) register(name, src string, workers int) error {
	body, _ := json.Marshal(server.RegisterRequest{Name: name, Source: src, Workers: workers})
	resp, err := h.client.Post(h.url+"/programs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("register %s: %w", name, err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("register %s: %s: %s", name, resp.Status, msg)
	}
	return nil
}

// draw returns the next request of the mix.
func (h *serveHarness) draw() request {
	rp := h.progs[h.cycle[h.pos%len(h.cycle)]]
	h.pos++
	inv := rp.draw(h.rng)
	args := make([]any, len(inv.args))
	for i, a := range inv.args {
		args[i] = int64(a.(value.Int))
	}
	body, _ := json.Marshal(map[string]any{"args": args})
	return request{prog: rp, inv: inv, body: body}
}

// callResult is one request's outcome as the client saw it.
type callResult struct {
	err       error
	engineNs  int64
	handlerIx int
}

type runResponse struct {
	Result    json.RawMessage `json:"result"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Stats     server.RunStats `json:"stats"`
}

// call sends one request and checks its response.
func (h *serveHarness) call(rq request, trace int64, parent int) callResult {
	req, _ := http.NewRequest(http.MethodPost, h.url+"/run/"+rq.prog.def.name, bytes.NewReader(rq.body))
	req.Header.Set("Content-Type", "application/json")
	if trace != 0 {
		req.Header.Set(traceHeader, fmt.Sprintf("%d:%d", trace, parent))
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return callResult{err: err}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return callResult{err: err}
	}
	out := callResult{handlerIx: -1}
	if ix := resp.Header.Get(handlerHeader); ix != "" {
		out.handlerIx, _ = strconv.Atoi(ix)
	}
	if resp.StatusCode != http.StatusOK {
		out.err = fmt.Errorf("%s: %s: %s", rq.prog.def.name, resp.Status, bytes.TrimSpace(raw))
		return out
	}
	var rr runResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		out.err = &wrongOutput{fmt.Errorf("%s: response: %w", rq.prog.def.name, err)}
		return out
	}
	out.engineNs = int64(rr.ElapsedMS * 1e6)
	out.err = checkResponse(rq, rr.Result, rr.Stats)
	return out
}

func checkResponse(rq request, result json.RawMessage, st server.RunStats) error {
	if err := rq.inv.checkJSON(result); err != nil {
		return &wrongOutput{fmt.Errorf("%s: %w", rq.prog.def.name, err)}
	}
	if st.BlocksAllocated != st.BlocksFreed {
		return &wrongOutput{fmt.Errorf("%s: block leak: %d allocated, %d freed",
			rq.prog.def.name, st.BlocksAllocated, st.BlocksFreed)}
	}
	return nil
}

// tracedCall wraps call in a request span when a recorder is active.
func (h *serveHarness) tracedCall(rq request) callResult {
	rec := h.rec.Load()
	if rec == nil {
		return h.call(rq, 0, -1)
	}
	trace := rec.newTrace()
	sp := rec.begin(trace, -1, "request")
	res := h.call(rq, trace, sp)
	rec.end(sp)
	if res.handlerIx >= 0 && res.engineNs > 0 {
		h.engMu.Lock()
		h.engines = append(h.engines, engSpan{trace: trace, handler: res.handlerIx, ns: res.engineNs})
		h.engMu.Unlock()
	}
	return res
}

// placeEngineSpans adds the pending engine spans once every handler span
// has closed.
func (h *serveHarness) placeEngineSpans(rec *recorder) {
	spans := rec.snapshot()
	h.engMu.Lock()
	defer h.engMu.Unlock()
	for _, e := range h.engines {
		hs := spans[e.handler]
		if hs.end < 0 {
			continue
		}
		start := max(hs.end-e.ns, hs.start)
		rec.add(e.trace, e.handler, "server.engine", start, hs.end)
	}
	h.engines = nil
}

// poissonSchedule returns send offsets of a Poisson process at rate per
// second over dur, drawn from seed: the same seed gives the same schedule.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := newRand(seed)
	var out []time.Duration
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// openLoopResult holds an open-loop phase's samples.
type openLoopResult struct {
	tally
	lag []time.Duration
}

// openLoop sends the scheduled requests regardless of how earlier ones
// fare, over at most h.conns connections. Latency runs from each
// request's due time, so a stall also charges the requests queued behind
// it; lag is how late each request left. The generator's own timer
// lateness is not charged: when it sleeps past a due time, latency runs
// from its wake-up (the lateness still shows in lag).
func (h *serveHarness) openLoop(sched []time.Duration) *openLoopResult {
	reqs := make([]request, len(sched))
	for i := range reqs {
		reqs[i] = h.draw()
	}
	lat := make([]time.Duration, len(sched))
	lag := make([]time.Duration, len(sched))
	res := make([]callResult, len(sched))
	start := time.Now().Add(5 * time.Millisecond)
	type job struct {
		i      int
		origin time.Time
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for c := 0; c < h.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				lag[j.i] = time.Since(start.Add(sched[j.i]))
				res[j.i] = h.tracedCall(reqs[j.i])
				lat[j.i] = time.Since(j.origin)
			}
		}()
	}
	for i := range sched {
		jobs <- job{i, sleepUntil(start.Add(sched[i]))}
	}
	close(jobs)
	wg.Wait()
	out := &openLoopResult{lag: lag}
	for i, r := range res {
		out.noteAt(sched[i], lat[i], r.err)
	}
	return out
}

// sleepUntil sleeps until t and returns t, or the wake-up time if the
// timer fired late (Go's poller waits in whole milliseconds). It returns
// t at once when t has passed.
func sleepUntil(t time.Time) time.Time {
	d := time.Until(t)
	if d <= 0 {
		return t
	}
	time.Sleep(d)
	return time.Now()
}

// closedLoop runs h.conns callers back to back for dur and returns the
// tally with the phase's wall time.
func (h *serveHarness) closedLoop(dur time.Duration) *tally {
	var mu sync.Mutex
	t := &tally{}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < h.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				rq := h.draw()
				mu.Unlock()
				t0 := time.Now()
				r := h.tracedCall(rq)
				d := time.Since(t0)
				mu.Lock()
				t.noteAt(time.Since(start), d, r.err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	t.wall = time.Since(start)
	return t
}

// metrics scrapes /metrics and sums each metric's samples across labels.
func (h *serveHarness) metrics() (map[string]float64, error) {
	resp, err := h.client.Get(h.url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return parseMetrics(string(raw)), nil
}

// parseMetrics sums the samples of Prometheus text exposition by metric
// name, ignoring labels.
func parseMetrics(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil || math.IsNaN(v) {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		out[name] += v
	}
	return out
}
