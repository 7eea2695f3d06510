package runtime

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/opt"
	"repro/internal/value"
)

// affinitySrc is a block-carrying recursive fan-out: every leaf allocates
// a fresh block, destructively fills it (retryable — a fault target), and
// folds the blocks' sums upward in a fixed graph shape, so the float
// result is bit-identical iff every block was filled and read correctly.
const affinitySrc = `
tree(n)
  if is_equal(n, 0)
  then blocksum(rfill(mkblock(4), 1))
  else add(tree(sub(n, 1)), add(tree(sub(n, 1)), blocksum(rfill(mkblock(8), n))))

main(n) tree(n)
`

// compileAffinity builds affinitySrc with the full optimizing pipeline in
// compile-driver order (memplan -> fuse -> affinity plan).
func compileAffinity(t *testing.T) *graph.Program {
	t.Helper()
	g := compile(t, affinitySrc, faultOps())
	opt.PlanMemory(g)
	opt.FuseGraph(g, nil)
	opt.PlanAffinity(g)
	if !g.AffinityPlanned {
		t.Fatal("AffinityPlanned not set")
	}
	return g
}

// TestAffinityBitIdentity is the advisory-only guarantee: results are
// bit-identical across 1/2/8 Real workers with hints on and off and in the
// simulator, composed with fusion, the memory plan, and seeded faults under
// retry. The Real executor reads no hints, so its affinity counters stay
// zero; only a Simulated engine running a planned program records hits.
func TestAffinityBitIdentity(t *testing.T) {
	planned := compileAffinity(t)
	type leg struct {
		name     string
		g        *graph.Program
		mode     Mode
		workers  int
		hints    bool
		wantHits bool
	}
	var legs []leg
	for _, workers := range []int{1, 2, 8} {
		for _, hints := range []bool{false, true} {
			legs = append(legs, leg{fmt.Sprintf("real/w%d/hints=%v", workers, hints),
				planned, Real, workers, hints, false})
		}
	}
	legs = append(legs,
		leg{"sim/w4/planned", planned, Simulated, 4, true, true})
	var ref string
	for _, l := range legs {
		cfg := Config{
			Mode: l.mode, Workers: l.workers, MaxOps: 5_000_000,
			AffinityHints: l.hints,
			Retry:         RetryPolicy{MaxAttempts: 3},
			// Each engine needs a private plan: plans keep cursors.
			Faults: SeededFaultPlan(7, []string{"rfill"}, 40),
		}
		e := New(l.g, cfg)
		v, err := e.Run(value.Int(6))
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		got := fmt.Sprintf("%v", v)
		if ref == "" {
			ref = got
		} else if got != ref {
			t.Fatalf("%s diverged: got %s want %s", l.name, got, ref)
		}
		st := e.Stats()
		if st.Blocks.Allocated != st.Blocks.Freed {
			t.Fatalf("%s: block leak: allocated %d freed %d", l.name,
				st.Blocks.Allocated, st.Blocks.Freed)
		}
		if st.BatchSteals != 0 {
			t.Fatalf("%s: BatchSteals = %d, want 0", l.name, st.BatchSteals)
		}
		if l.wantHits {
			if st.AffinityHits == 0 {
				t.Fatalf("%s: simulated placement recorded no affinity hits", l.name)
			}
		} else if st.AffinityHits != 0 || st.AffinityMisses != 0 {
			t.Fatalf("%s: affinity counters engaged: hits=%d misses=%d", l.name,
				st.AffinityHits, st.AffinityMisses)
		}
	}
}

// TestAffinityCountersGatedByPlan: hints in the config alone do nothing —
// the program must carry a plan for any affinity machinery to engage, in
// either executor.
func TestAffinityCountersGatedByPlan(t *testing.T) {
	g := compile(t, affinitySrc, faultOps())
	opt.PlanMemory(g)
	opt.FuseGraph(g, nil)
	for _, mode := range []Mode{Real, Simulated} {
		e := New(g, Config{Mode: mode, Workers: 4, MaxOps: 5_000_000, AffinityHints: true})
		if _, err := e.Run(value.Int(5)); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		st := e.Stats()
		if st.AffinityHits != 0 || st.AffinityMisses != 0 || st.BatchSteals != 0 {
			t.Fatalf("mode %v: affinity counters engaged without a plan: %+v", mode, st)
		}
	}
}

// TestAffinitySimDeterministic: the simulated executor's hint placement is
// part of the deterministic schedule, so repeated runs agree tick-for-tick.
func TestAffinitySimDeterministic(t *testing.T) {
	g := compileAffinity(t)
	var makespan, hits int64
	for i := 0; i < 3; i++ {
		e := New(g, Config{Mode: Simulated, Workers: 4, MaxOps: 5_000_000, AffinityHints: true})
		if _, err := e.Run(value.Int(6)); err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		if i == 0 {
			makespan, hits = st.MakespanTicks, st.AffinityHits
			if hits == 0 {
				t.Fatal("simulated placement recorded no affinity hits")
			}
			continue
		}
		if st.MakespanTicks != makespan || st.AffinityHits != hits {
			t.Fatalf("run %d: makespan/hits = %d/%d, want %d/%d",
				i, st.MakespanTicks, st.AffinityHits, makespan, hits)
		}
	}
}

// TestAffinityStressRepeatedRuns hammers the work-stealing scheduler with a
// planned program: many workers, wide fan-out, fresh engines, every run
// bit-identical and leak-free, with the hints ignored.
func TestAffinityStressRepeatedRuns(t *testing.T) {
	g := compileAffinity(t)
	var ref string
	for i := 0; i < 5; i++ {
		e := New(g, Config{Mode: Real, Workers: 8, MaxOps: 5_000_000, AffinityHints: true})
		v, err := e.Run(value.Int(8))
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%v", v)
		if ref == "" {
			ref = got
		} else if got != ref {
			t.Fatalf("run %d diverged: %s vs %s", i, got, ref)
		}
		st := e.Stats()
		if st.Blocks.Allocated != st.Blocks.Freed {
			t.Fatalf("run %d: leak: allocated %d freed %d", i, st.Blocks.Allocated, st.Blocks.Freed)
		}
		if st.AffinityHits != 0 || st.AffinityMisses != 0 {
			t.Fatalf("run %d: Real run counted affinity dispatches: hits=%d misses=%d",
				i, st.AffinityHits, st.AffinityMisses)
		}
	}
}
