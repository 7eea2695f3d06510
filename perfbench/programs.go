package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/compile"
	"repro/internal/jacobi"
	"repro/internal/operator"
	"repro/internal/queens"
	"repro/internal/value"
)

// progDef is one Delirium program a workload compiles and runs: its source,
// the operator registry it needs, and the compile options it runs under.
type progDef struct {
	name   string
	src    string
	newReg func() *operator.Registry
	opts   compile.Options // Registry and Workers are filled per call
}

// compileWith compiles p with reg in place of its own registry.
func (p *progDef) compileWith(reg *operator.Registry, workers int) (*compile.Result, error) {
	o := p.opts
	o.Registry = reg
	o.Workers = workers
	res, err := compile.Compile(p.name+".dlr", p.src, o)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", p.name, err)
	}
	return res, nil
}

// readProgram loads one of the repository's programs/*.dlr files.
func readProgram(name string) (*progDef, error) {
	src, err := os.ReadFile(filepath.Join("programs", name+".dlr"))
	if err != nil {
		return nil, fmt.Errorf("read program %s: %w", name, err)
	}
	return &progDef{name: name, src: string(src), newReg: operator.Builtins}, nil
}

func queensDef(n int, fuse bool) *progDef {
	return &progDef{name: fmt.Sprintf("queens%d", n), src: queens.Program(n),
		newReg: queens.Operators, opts: compile.Options{Fuse: fuse, Affinity: fuse}}
}

func jacobiDef(cfg jacobi.Config, planned bool) *progDef {
	return &progDef{name: fmt.Sprintf("jacobi%d", cfg.N), src: jacobi.Source(cfg),
		newReg: func() *operator.Registry { return jacobi.Operators(cfg) },
		opts:   compile.Options{Fuse: planned, MemPlan: planned, Affinity: planned}}
}

// opTimer wraps every operator of a registry to time each Fn call from
// outside. Calls are summed per processor, each in a slot of its own, so
// parallel workers do not contend on the counters. With a recorder, each
// call made while a run is current is also recorded as a span under that
// run, up to spanBudget spans; an opTimer without one records no spans.
type opTimer struct {
	rec        *recorder
	cur        atomic.Pointer[spanRef]
	slots      [opSlots]opSlot
	spanBudget atomic.Int64
}

// opSlots is how many per-processor counter slots an opTimer keeps;
// processors beyond it share slots.
const opSlots = 64

// opSlot is one processor's operator time and call count, padded to a
// cache line of its own.
type opSlot struct {
	ns, calls atomic.Int64
	_         [48]byte
}

// spanRef names a span: its trace and its index in the recorder.
type spanRef struct {
	trace int64
	idx   int
}

func newOpTimer(rec *recorder, spanBudget int64) *opTimer {
	t := &opTimer{rec: rec}
	t.spanBudget.Store(spanBudget)
	return t
}

// wrap returns a copy of base, parents flattened in, whose operators time
// themselves through t.
func (t *opTimer) wrap(base *operator.Registry) *operator.Registry {
	reg := operator.NewRegistry(nil)
	for _, name := range base.Names() {
		op, _ := base.Lookup(name)
		cp := *op
		cp.Fn = t.timed(op.Fn)
		reg.MustRegister(&cp)
	}
	return reg
}

func (t *opTimer) timed(fn operator.Func) operator.Func {
	return func(ctx operator.Context, args []value.Value) (value.Value, error) {
		t0 := time.Now()
		v, err := fn(ctx, args)
		d := time.Since(t0)
		sl := &t.slots[ctx.Processor()%opSlots]
		sl.ns.Add(int64(d))
		sl.calls.Add(1)
		if t.rec != nil {
			if c := t.cur.Load(); c != nil && t.spanBudget.Add(-1) >= 0 {
				s := int64(t0.Sub(t.rec.epoch))
				t.rec.add(c.trace, c.idx, "operator", s, s+int64(d))
			}
		}
		return v, err
	}
}

// take returns and zeroes the summed operator time and call count.
func (t *opTimer) take() (ns, calls int64) {
	for i := range t.slots {
		ns += t.slots[i].ns.Swap(0)
		calls += t.slots[i].calls.Swap(0)
	}
	return ns, calls
}

// wrapperCost is the timing wrapper's own cost per call, measured on an
// operator that does nothing: inside is the part that falls within the
// timed interval (and so inflates operator time), outside the part that
// falls outside it (and so inflates whatever encloses the call).
type wrapperCost struct{ inside, outside float64 }

// calibrate measures the wrapper's cost per call, as the lowest of a few
// rounds of wrapperCalls calls so a disturbed round does not count.
func calibrate() wrapperCost {
	const wrapperCalls, rounds = 200_000, 5
	nop := func(operator.Context, []value.Value) (value.Value, error) { return nil, nil }
	t := newOpTimer(nil, 0)
	fns := []operator.Func{nop, t.timed(nop)}
	best := [2]float64{math.Inf(1), math.Inf(1)}
	var inside float64
	for r := 0; r < rounds; r++ {
		for i, fn := range fns {
			t0 := time.Now()
			for c := 0; c < wrapperCalls; c++ {
				fn(operator.NopContext, nil)
			}
			if ns := float64(time.Since(t0).Nanoseconds()) / wrapperCalls; ns < best[i] {
				best[i] = ns
				if i == 1 {
					opNs, _ := t.take()
					inside = float64(opNs) / wrapperCalls
				}
			}
			t.take()
		}
	}
	return wrapperCost{inside: inside, outside: max(0, best[1]-best[0]-inside)}
}

// References. Each is a plain Go computation sharing no code with the
// runtime under test.

func fibRef(n int64) int64 {
	a, b := int64(0), int64(1)
	for i := int64(0); i < n; i++ {
		a, b = b, a+b
	}
	return a
}

// collatzRef counts steps to reach 1, taking at least one step, as the
// program's iterate does.
func collatzRef(n int64) int64 {
	x, steps := n, int64(0)
	for {
		if x%2 == 0 {
			x /= 2
		} else {
			x = 3*x + 1
		}
		steps++
		if x == 1 {
			return steps
		}
	}
}

func sumloopRef(n int64) int64 {
	var total int64
	for i := int64(0); i != n; i++ {
		total += i + 1
	}
	return total
}

// checkInt verifies an integer program result.
func checkInt(v value.Value, want int64) error {
	got, ok := v.(value.Int)
	if !ok {
		return fmt.Errorf("want Int %d, got %s", want, v)
	}
	if int64(got) != want {
		return fmt.Errorf("want %d, got %d", want, int64(got))
	}
	return nil
}

// checkQueens verifies a solution set: the count against the sequential
// backtracker and every board against the rules.
func checkQueens(sols [][]int, n int) error {
	if want := queens.CountReference(n); len(sols) != want {
		return fmt.Errorf("queens%d: %d solutions, want %d", n, len(sols), want)
	}
	for i, s := range sols {
		if !queens.Valid(s, n) {
			return fmt.Errorf("queens%d: solution %d %v is not valid", n, i, s)
		}
	}
	return nil
}

// checkJacobi verifies a converged grid bit for bit against the sequential
// solver's.
func checkJacobi(v value.Value, ref *jacobi.State) error {
	st, err := jacobi.StateOf(v)
	if err != nil {
		return err
	}
	if !jacobi.Matches(st, ref) {
		return fmt.Errorf("jacobi%d: grid differs from the sequential solve (sweeps %d vs %d)",
			ref.N, st.Sweeps, ref.Sweeps)
	}
	return nil
}

// gridChecksum fingerprints a grid the way the served jacobi renderer
// does: the bits of the sum of its cells, in hex.
func gridChecksum(u []float64) string {
	var sum float64
	for _, x := range u {
		sum += x
	}
	return fmt.Sprintf("%016x", math.Float64bits(sum))
}

// checkBlocks verifies the block invariant of one finished run.
func checkBlocks(st *value.BlockStats) error {
	a, f := atomic.LoadInt64(&st.Allocated), atomic.LoadInt64(&st.Freed)
	if a != f {
		return fmt.Errorf("block leak: %d allocated, %d freed", a, f)
	}
	return nil
}
