package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/queens"
	"repro/internal/runtime"
	"repro/internal/value"
)

// runProg is one program a run workload executes: how it is configured and
// how each invocation draws its arguments and the check for its result.
type runProg struct {
	def   *progDef
	cfg   runtime.Config
	reuse bool // one engine, Reset between runs; otherwise a fresh engine per run
	draw  func(rng *rand.Rand) invocation
}

// invocation is one call of a program's main with the checks of its
// result: as a runtime value, and as the server renders it.
type invocation struct {
	args      []value.Value
	check     func(value.Value) error
	checkJSON func(json.RawMessage) error
}

// wrongOutput marks a result that failed its check, as opposed to a run
// that failed outright.
type wrongOutput struct{ err error }

func (w *wrongOutput) Error() string { return "wrong output: " + w.err.Error() }

func isWrong(err error) bool {
	var w *wrongOutput
	return errors.As(err, &w)
}

// loadedProg is a runProg compiled for one harness, with its reused engine.
type loadedProg struct {
	rp     *runProg
	prog   *graph.Program
	eng    *runtime.Engine
	serial *runtime.Engine // the reused engine's one-worker twin
}

// runHarness executes runProgs in a fixed cycle. With an opTimer, every
// operator is timed and each call can be recorded as a span.
type runHarness struct {
	progs []*loadedProg
	cycle []int // indices into progs, one pass of the workload's mix
	rng   *rand.Rand
	pos   int
	ot    *opTimer
	rec   *recorder
	// memStats reads the allocator and collector counters just before and
	// just after each Run, so the deltas cover the run alone.
	memStats bool
}

func newRunHarness(rps []*runProg, cycle []int, seed int64, ot *opTimer) (*runHarness, error) {
	h := &runHarness{cycle: cycle, rng: newRand(seed), ot: ot}
	if ot != nil {
		h.rec = ot.rec
	}
	for _, rp := range rps {
		reg := rp.def.newReg()
		if ot != nil {
			reg = ot.wrap(reg)
		}
		res, err := rp.def.compileWith(reg, 1)
		if err != nil {
			return nil, err
		}
		lp := &loadedProg{rp: rp, prog: res.Program}
		if rp.reuse {
			lp.eng = runtime.New(lp.prog, rp.cfg)
		}
		h.progs = append(h.progs, lp)
	}
	if ot != nil {
		ot.take() // drop operator calls made by constant folding
	}
	return h, nil
}

// runSample is one measured invocation.
type runSample struct {
	prog               *loadedProg
	newT, runT, resetT time.Duration
	stats              runtime.Stats
	workers            int
	opNs, opCalls      int64
	// With memStats: the run's heap allocations, allocated bytes, and the
	// CPU seconds of garbage-collection cycles that ended during the run
	// together with the CPU seconds the runtime accounted for those cycles.
	mallocs, allocBytes uint64
	gcSec, cpuSec       float64
}

// next runs the next invocation of the cycle. workers, when non-zero,
// overrides the program's worker count; a reused engine then has a
// one-worker twin, any other worker count a fresh engine. The check is
// not timed.
func (h *runHarness) next(workers int) (runSample, error) {
	lp := h.progs[h.cycle[h.pos%len(h.cycle)]]
	h.pos++
	inv := lp.rp.draw(h.rng)
	return h.invoke(lp, inv, workers)
}

func (h *runHarness) invoke(lp *loadedProg, inv invocation, workers int) (runSample, error) {
	s := runSample{prog: lp}
	cfg := lp.rp.cfg
	if workers > 0 {
		cfg.Workers = workers
	}
	s.workers = cfg.Workers
	trace := h.rec.newTrace()
	root := h.rec.begin(trace, -1, "run."+lp.rp.def.name)

	eng := lp.eng
	if workers > 0 {
		eng = nil
		if lp.rp.reuse && workers == 1 {
			if lp.serial == nil {
				lp.serial = runtime.New(lp.prog, cfg)
			}
			eng = lp.serial
		}
	}
	if eng == nil {
		sp := h.rec.begin(trace, root, "runtime.new")
		t0 := time.Now()
		eng = runtime.New(lp.prog, cfg)
		s.newT = time.Since(t0)
		h.rec.end(sp)
	}
	sp := h.rec.begin(trace, root, "runtime.run")
	if h.ot != nil {
		h.ot.cur.Store(&spanRef{trace: trace, idx: sp})
	}
	var ms0, ms1 goruntime.MemStats
	var gc0, cpu0 float64
	if h.memStats {
		goruntime.ReadMemStats(&ms0)
		gc0, cpu0 = gcCPU()
	}
	t0 := time.Now()
	v, err := eng.Run(inv.args...)
	s.runT = time.Since(t0)
	if h.memStats {
		gc1, cpu1 := gcCPU()
		goruntime.ReadMemStats(&ms1)
		s.mallocs, s.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
		s.gcSec, s.cpuSec = gc1-gc0, cpu1-cpu0
	}
	if h.ot != nil {
		h.ot.cur.Store(nil)
		s.opNs, s.opCalls = h.ot.take()
	}
	h.rec.end(sp)
	h.rec.end(root)

	st := eng.Stats()
	if err == nil {
		if cerr := inv.check(v); cerr != nil {
			err = &wrongOutput{fmt.Errorf("%s: %w", lp.rp.def.name, cerr)}
		}
		value.Release(v, &st.Blocks)
		if lerr := checkBlocks(&st.Blocks); lerr != nil && err == nil {
			err = &wrongOutput{fmt.Errorf("%s: %w", lp.rp.def.name, lerr)}
		}
	}
	s.stats = snapshotStats(st)
	t1 := time.Now()
	if rerr := eng.Reset(); rerr != nil && err == nil {
		err = fmt.Errorf("%s: reset: %w", lp.rp.def.name, rerr)
	}
	s.resetT = time.Since(t1)
	return s, err
}

// snapshotStats copies the counters a sample keeps.
func snapshotStats(st *runtime.Stats) runtime.Stats {
	return runtime.Stats{
		OpsExecuted: st.OpsExecuted, OperatorsRun: st.OperatorsRun,
		ActivationsAllocated: st.ActivationsAllocated, ActivationsReused: st.ActivationsReused,
		PeakLive: st.PeakLive, TailCalls: st.TailCalls,
		Steals: st.Steals, StealContention: st.StealContention, Parks: st.Parks,
		InjectedTasks: st.InjectedTasks, AffinityHits: st.AffinityHits,
		AffinityMisses: st.AffinityMisses, BatchSteals: st.BatchSteals,
		Blocks: value.BlockStats{Allocated: st.Blocks.Allocated, Copies: st.Blocks.Copies,
			Retains: st.Blocks.Retains, Releases: st.Blocks.Releases, Freed: st.Blocks.Freed},
		ElidedRetains: st.ElidedRetains, ElidedReleases: st.ElidedReleases,
		PooledAllocs: st.PooledAllocs, CopiesAvoided: st.CopiesAvoided,
		FusedDispatchesSaved: st.FusedDispatchesSaved,
	}
}

// The run workloads' programs.

// fineProgs are run_fine's programs: queens7 and the fine-grained
// programs/*.dlr, unfused, each run on a fresh engine at nproc workers.
func fineProgs(nproc int) ([]*runProg, []int, error) {
	cfg := runtime.Config{Mode: runtime.Real, Workers: nproc, MaxOps: 100_000_000}
	q := queensDef(7, false)
	fib, err := readProgram("fib")
	if err != nil {
		return nil, nil, err
	}
	collatz, err := readProgram("collatz")
	if err != nil {
		return nil, nil, err
	}
	sumloop, err := readProgram("sumloop")
	if err != nil {
		return nil, nil, err
	}
	rps := []*runProg{
		{def: q, cfg: cfg, draw: queensDraw(7)},
		{def: fib, cfg: cfg, draw: intDraw(10, 13, fibRef)},
		{def: collatz, cfg: cfg, draw: intDraw(3, 50_000, collatzRef)},
		{def: sumloop, cfg: cfg, draw: intDraw(200, 800, sumloopRef)},
	}
	// queens7 twice per cycle: it is the coarsest fine-grained program and
	// the one whose dispatch path the paper's overhead claim is about.
	return rps, []int{0, 1, 2, 3, 0}, nil
}

func queensDraw(n int) func(*rand.Rand) invocation {
	return func(*rand.Rand) invocation {
		return invocation{
			check: func(v value.Value) error {
				sols, err := queens.Solutions(v)
				if err != nil {
					return err
				}
				return checkQueens(sols, n)
			},
			checkJSON: func(raw json.RawMessage) error {
				var r struct {
					Solutions [][]int `json:"solutions"`
				}
				if err := json.Unmarshal(raw, &r); err != nil {
					return err
				}
				return checkQueens(r.Solutions, n)
			}}
	}
}

// intDraw draws n uniformly from [lo, hi] and checks main(n) against ref.
func intDraw(lo, hi int64, ref func(int64) int64) func(*rand.Rand) invocation {
	return func(rng *rand.Rand) invocation {
		n := lo + rng.Int63n(hi-lo+1)
		want := ref(n)
		return invocation{args: []value.Value{value.Int(n)},
			check: func(v value.Value) error { return checkInt(v, want) },
			checkJSON: func(raw json.RawMessage) error {
				var got int64
				if err := json.Unmarshal(raw, &got); err != nil {
					return err
				}
				if got != want {
					return fmt.Errorf("want %d, got %d", want, got)
				}
				return nil
			}}
	}
}
