package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/jacobi"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/value"
)

// serveRate is the serve workload's open-loop arrival rate in requests per
// second, used by its traced run: about a quarter of the closed-loop
// capacity measured at the commit that introduced the benchmark (see
// perfbench/README.md for why not half).
const serveRate = 150

// env is what every workload is built from.
type env struct {
	seed  int64
	nproc int
}

// instance is one set-up workload.
type instance struct {
	// progs and cycle are the programs the workload runs and their mix;
	// the traced run measures the compiler and the runtime on them.
	progs []*runProg
	cycle []int
	// e2e measures the end-to-end metrics for d.
	e2e func(d time.Duration) (*e2eResult, error)
	// loop runs the workload's operations closed-loop for d, traced when
	// rec is non-nil; the traced run compares the two throughputs.
	loop  func(d time.Duration, rec *recorder) (*tally, error)
	close func() error
	// serve is the workload's server, if it has one; the traced run
	// measures the server layer on it.
	serve *serveHarness
}

// e2eResult is what one untraced measurement gives.
type e2eResult struct {
	tally      *tally  // every attempted operation
	p50, p90   float64 // ms, as e2eSummary takes them
	throughput float64 // completed operations per second
	samples    int     // latency samples
}

// e2eWindows is the most slices of the measurement the end-to-end figures
// are taken over.
const e2eWindows = 9

// windowSamples is the fewest operations a slice holds: enough that each
// slice's p90 has ten samples beyond it.
const windowSamples = 100

// e2eSummary cuts recs into k slices, k = len(recs)/windowSamples between
// 1 and e2eWindows, and gives the medians over the slices of each slice's
// latency percentiles and throughput, so a disturbance on the host that
// spans a few slices does not move them.
//
// With cycle 0 the slices are equal parts of span and a slice's throughput
// is completed operations per second of the slice. With cycle > 0, the
// length of the workload's fixed mix of operations, the slices are equal
// runs of whole cycles of operations (operations past the last slice are
// left out) and a slice's throughput is completed operations per second of
// operation time, so every slice holds the same mix; fewer than k whole
// cycles make one slice of every operation.
func e2eSummary(recs []opRec, span time.Duration, cycle int) (p50, p90, tput float64) {
	k := min(max(len(recs)/windowSamples, 1), e2eWindows)
	var slices [][]opRec
	switch per := len(recs) / max(cycle, 1) / k * cycle; {
	case cycle == 0:
		for w := 0; w < k; w++ {
			lo, hi := span*time.Duration(w)/time.Duration(k), span*time.Duration(w+1)/time.Duration(k)
			var sl []opRec
			for _, r := range recs {
				if r.at >= lo && r.at < hi {
					sl = append(sl, r)
				}
			}
			slices = append(slices, sl)
		}
	case per == 0:
		slices = append(slices, recs)
	default:
		for w := 0; w < k; w++ {
			slices = append(slices, recs[w*per:(w+1)*per])
		}
	}
	var p50s, p90s, tputs []float64
	for _, sl := range slices {
		var lat []float64
		var busyT time.Duration
		for _, r := range sl {
			busyT += r.d
			if r.ok {
				lat = append(lat, float64(r.d.Nanoseconds())/1e6)
			}
		}
		if len(lat) > 0 {
			p50s, p90s = append(p50s, percentile(lat, 50)), append(p90s, percentile(lat, 90))
		}
		if cycle == 0 {
			tputs = append(tputs, float64(len(lat))/(span/time.Duration(k)).Seconds())
		} else if busyT > 0 {
			tputs = append(tputs, float64(len(lat))/busyT.Seconds())
		}
	}
	return median(p50s), median(p90s), median(tputs)
}

// opRec is one operation of an end-to-end measurement: when it finished
// (or, open-loop, was due) relative to the start, and how long it took.
type opRec struct {
	at, d time.Duration
	ok    bool
}

// tally counts operations and keeps the latencies of completed ones.
type tally struct {
	attempted, failed, wrong int
	lat                      []time.Duration
	busy, wall               time.Duration
	firstErr                 error
	recs                     []opRec
}

// noteAt is note for an end-to-end measurement, keeping the operation's
// offset for e2eSummary.
func (t *tally) noteAt(at, d time.Duration, err error) {
	t.note(d, err)
	t.recs = append(t.recs, opRec{at: at, d: d, ok: err == nil})
}

func (t *tally) note(d time.Duration, err error) {
	t.attempted++
	t.busy += d
	if err != nil {
		t.failed++
		if isWrong(err) {
			t.wrong++
		}
		if t.firstErr == nil {
			t.firstErr = err
		}
		return
	}
	t.lat = append(t.lat, d)
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	t.lat = append(t.lat, o.lat...)
	t.recs = append(t.recs, o.recs...)
	t.busy += o.busy
	t.wall += o.wall
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// busyThroughput is completed operations per second of operation time:
// the rate of one caller issuing operations back to back, with the
// harness's own checks excluded.
func (t *tally) busyThroughput() float64 {
	return ratio(float64(len(t.lat)), t.busy.Seconds())
}

type workloadDef struct {
	name  string
	setup func(e env) (*instance, error)
}

var workloads = []workloadDef{
	{"serve", setupServe},
	{"run_fine", setupRunFine},
	{"run_blocks", setupRunBlocks},
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// runLoop is the e2e and overhead loop shared by the run workloads.
func runLoop(h *runHarness, d time.Duration) *tally {
	t := &tally{}
	start := time.Now()
	for time.Since(start) < d {
		s, err := h.next(0)
		op := s.newT + s.runT
		if s.prog.rp.reuse {
			op += s.resetT
		}
		t.noteAt(time.Since(start), op, err)
	}
	t.wall = time.Since(start)
	return t
}

// runInstance builds a run workload: warm, then measure runLoop.
func runInstance(e env, rps []*runProg, cycle []int, warm int) (*instance, error) {
	h, err := newRunHarness(rps, cycle, e.seed, nil)
	if err != nil {
		return nil, err
	}
	for i := 0; i < warm; i++ {
		if _, err := h.next(0); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	var traced *runHarness
	inst := &instance{progs: rps, cycle: cycle, close: func() error { return nil }}
	inst.e2e = func(d time.Duration) (*e2eResult, error) {
		return loopResult(runLoop(h, d), len(cycle)), nil
	}
	inst.loop = func(d time.Duration, rec *recorder) (*tally, error) {
		if rec == nil {
			return runLoop(h, d), nil
		}
		if traced == nil {
			// Operator spans are kept for the serial phase of the
			// traced run; here only their time is summed.
			th, err := newRunHarness(rps, cycle, e.seed, newOpTimer(rec, 0))
			if err != nil {
				return nil, err
			}
			traced = th
		}
		return runLoop(traced, d), nil
	}
	return inst, nil
}

func setupRunFine(e env) (*instance, error) {
	rps, cycle, err := fineProgs(e.nproc)
	if err != nil {
		return nil, err
	}
	return runInstance(e, rps, cycle, 2*len(cycle))
}

// blocksConfig is run_blocks' solve: a 96x96 grid to tolerance 1e-2. It
// does not depend on the seed, so every run does the same work.
var blocksConfig = jacobi.Config{N: 96, Tol: 1e-2, MaxSweeps: 2000, MemPlan: true, Fuse: true}

func setupRunBlocks(e env) (*instance, error) {
	rp := jacobiProg(blocksConfig, runtime.Config{Mode: runtime.Real, Workers: e.nproc,
		MaxOps: 100_000_000, AffinityHints: true})
	return runInstance(e, []*runProg{rp}, []int{0}, 3)
}

// jacobiProg is a planned jacobi solve on one reused engine, checked
// against the sequential solver.
func jacobiProg(cfg jacobi.Config, rcfg runtime.Config) *runProg {
	ref := jacobi.Reference(cfg)
	sum := gridChecksum(ref.U)
	return &runProg{def: jacobiDef(cfg, true), cfg: rcfg, reuse: true,
		draw: func(*rand.Rand) invocation {
			return invocation{
				check: func(v value.Value) error { return checkJacobi(v, ref) },
				checkJSON: func(raw json.RawMessage) error {
					var r struct {
						Sweeps   int    `json:"sweeps"`
						Checksum string `json:"checksum"`
					}
					if err := json.Unmarshal(raw, &r); err != nil {
						return err
					}
					if r.Sweeps != ref.Sweeps || r.Checksum != sum {
						return fmt.Errorf("jacobi%d: sweeps %d checksum %s, want %d %s",
							ref.N, r.Sweeps, r.Checksum, ref.Sweeps, sum)
					}
					return nil
				}}
		}}
}

// loopResult summarizes a single caller's closed loop over a mix of cycle
// operations.
func loopResult(t *tally, cycle int) *e2eResult {
	r := &e2eResult{tally: t, samples: len(t.lat)}
	r.p50, r.p90, r.throughput = e2eSummary(t.recs, t.wall, cycle)
	return r
}

// servedProgs is the serve workload's mix: the daemon's default catalog
// (jacobi, queens6) and programs/fib.dlr with small n, on one-worker
// engines. Names are the served names.
func servedProgs() ([]*runProg, []int, error) {
	w1 := runtime.Config{Mode: runtime.Real, Workers: 1, MaxOps: 100_000_000,
		OpTimeout: 5 * time.Second, AffinityHints: true}
	fib, err := readProgram("fib")
	if err != nil {
		return nil, nil, err
	}
	fibRP := &runProg{def: fib, cfg: w1, reuse: true, draw: intDraw(3, 9, fibRef)}
	q := queensDef(6, true)
	qRP := &runProg{def: q, cfg: w1, reuse: true, draw: queensDraw(6)}
	jRP := jacobiProg(jacobi.Config{N: 16, Tol: 1e-2, MaxSweeps: 2000, MemPlan: true, Fuse: true}, w1)
	jRP.def.name = "jacobi"
	// Per 20 requests: 14 tiny fib calls, 3 queens6, 3 jacobi.
	cycle := []int{0, 1, 0, 0, 2, 0, 0, 1, 0, 0, 2, 0, 0, 1, 0, 0, 2, 0, 0, 0}
	return []*runProg{fibRP, qRP, jRP}, cycle, nil
}

func setupServe(e env) (*instance, error) {
	rps, cycle, err := servedProgs()
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{MaxConcurrent: e.nproc, Workers: 1})
	for _, name := range []string{"jacobi", "queens6"} {
		spec, err := server.Catalog(name, 1, 0)
		if err != nil {
			return nil, err
		}
		if err := srv.Register(spec); err != nil {
			return nil, err
		}
	}
	h, err := startServer(srv, e.nproc)
	if err != nil {
		return nil, err
	}
	if err := h.register("fib", rps[0].def.src, 1); err != nil {
		h.close()
		return nil, err
	}
	h.progs, h.cycle, h.rng = rps, cycle, newRand(e.seed)
	if t := h.closedLoopN(3 * len(cycle)); t.failed > 0 {
		h.close()
		return nil, fmt.Errorf("warm-up: %w", t.firstErr)
	}
	inst := &instance{progs: rps, cycle: cycle, serve: h, close: h.close}
	inst.e2e = func(d time.Duration) (*e2eResult, error) {
		cl := h.closedLoop(d)
		r := &e2eResult{tally: cl, samples: len(cl.lat)}
		r.p50, r.p90, r.throughput = e2eSummary(cl.recs, cl.wall, 0)
		m, err := h.metrics()
		if err != nil {
			return nil, err
		}
		if leaks := m["delserver_block_leak_runs_total"]; leaks != 0 {
			r.tally.wrong++
			r.tally.failed++
			r.tally.firstErr = fmt.Errorf("%v runs leaked blocks", leaks)
		}
		return r, nil
	}
	inst.loop = func(d time.Duration, rec *recorder) (*tally, error) {
		h.rec.Store(rec)
		t := h.closedLoop(d)
		h.rec.Store(nil)
		return t, nil
	}
	return inst, nil
}

// closedLoopN sends n requests from one caller.
func (h *serveHarness) closedLoopN(n int) *tally {
	t := &tally{}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		r := h.tracedCall(h.draw())
		t.note(time.Since(t0), r.err)
	}
	return t
}
