package main

import (
	"encoding/json"
	"math"
	"sync"
	"testing"

	"repro/internal/compile"
	"repro/internal/jacobi"
	"repro/internal/operator"
	"repro/internal/value"
)

func TestPlainReferences(t *testing.T) {
	if fibRef(10) != 55 || fibRef(20) != 6765 {
		t.Errorf("fibRef: %d %d", fibRef(10), fibRef(20))
	}
	if collatzRef(27) != 111 || collatzRef(2) != 1 {
		t.Errorf("collatzRef: %d %d", collatzRef(27), collatzRef(2))
	}
	if sumloopRef(100) != 5050 {
		t.Errorf("sumloopRef(100) = %d", sumloopRef(100))
	}
}

func TestIntCheckersRejectWrongResult(t *testing.T) {
	inv := intDraw(10, 10, fibRef)(newRand(1))
	if err := inv.check(value.Int(55)); err != nil {
		t.Errorf("correct result rejected: %v", err)
	}
	if err := inv.check(value.Int(54)); err == nil {
		t.Error("wrong result accepted")
	}
	if err := inv.check(value.Float(55)); err == nil {
		t.Error("result of the wrong kind accepted")
	}
	if err := inv.checkJSON(json.RawMessage("55")); err != nil {
		t.Errorf("correct served result rejected: %v", err)
	}
	if err := inv.checkJSON(json.RawMessage("56")); err == nil {
		t.Error("wrong served result accepted")
	}
}

func TestQueensCheckerRejectsCorruptedBoards(t *testing.T) {
	var sols [][]int
	// All 4 solutions of 6-queens, found by brute force here so the test
	// does not lean on the checker's own reference.
	var place func(row []int)
	place = func(row []int) {
		if len(row) == 6 {
			sols = append(sols, append([]int(nil), row...))
			return
		}
		for c := 1; c <= 6; c++ {
			ok := true
			for r, pc := range row {
				if pc == c || pc-c == len(row)-r || c-pc == len(row)-r {
					ok = false
				}
			}
			if ok {
				place(append(row, c))
			}
		}
	}
	place(nil)
	if err := checkQueens(sols, 6); err != nil {
		t.Fatalf("correct solutions rejected: %v", err)
	}
	bad := make([][]int, len(sols))
	for i := range sols {
		bad[i] = append([]int(nil), sols[i]...)
	}
	bad[1][2], bad[1][3] = bad[1][3], bad[1][2]
	if err := checkQueens(bad, 6); err == nil {
		t.Error("corrupted board accepted")
	}
	if err := checkQueens(sols[1:], 6); err == nil {
		t.Error("missing solution accepted")
	}
}

func TestJacobiCheckerRejectsFlippedCell(t *testing.T) {
	cfg := jacobi.Config{N: 12, Tol: 1e-2, MaxSweeps: 2000}
	ref := jacobi.Reference(cfg)
	block := func(s *jacobi.State) value.Value {
		return value.NewBlock(&value.Opaque{Payload: s, Words: 2 * s.N * s.N})
	}
	same := jacobi.Reference(cfg)
	if err := checkJacobi(block(same), ref); err != nil {
		t.Fatalf("identical grid rejected: %v", err)
	}
	same.U[cfg.N+3] = math.Nextafter(same.U[cfg.N+3], math.Inf(1))
	if err := checkJacobi(block(same), ref); err == nil {
		t.Error("grid one ulp off in one cell accepted")
	}
	same.U[cfg.N+3] += 1e-6
	if gridChecksum(same.U) == gridChecksum(ref.U) {
		t.Error("served checksum blind to a changed cell")
	}
}

func TestBlockCheck(t *testing.T) {
	if err := checkBlocks(&value.BlockStats{Allocated: 3, Freed: 3}); err != nil {
		t.Error(err)
	}
	if err := checkBlocks(&value.BlockStats{Allocated: 3, Freed: 2}); err == nil {
		t.Error("leak accepted")
	}
}

func TestCompilerCrossCheck(t *testing.T) {
	def := &progDef{name: "gen", src: compile.Generate(30, 2), newReg: operator.Builtins,
		opts: compile.Options{Fuse: true, MemPlan: true, Affinity: true}}
	reg := def.newReg()
	p, err := pipeline(def, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := def.compileWith(reg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := crossCheck(p, res); err != nil {
		t.Fatalf("pipeline rejected against its own driver: %v", err)
	}
	// A pipeline that skipped a pass the driver ran.
	short := *p
	short.passes = p.passes[:len(p.passes)-1]
	if err := crossCheck(&short, res); err == nil {
		t.Error("pass list missing the driver's last pass accepted")
	}
	// One that ran the passes in another order.
	swapped := *p
	swapped.passes = append([]compile.PassTime(nil), p.passes...)
	swapped.passes[0], swapped.passes[1] = swapped.passes[1], swapped.passes[0]
	if err := crossCheck(&swapped, res); err == nil {
		t.Error("pass list in another order accepted")
	}
	// One that built another graph.
	other := *p
	other.dot += " "
	if err := crossCheck(&other, res); err == nil {
		t.Error("different graph accepted")
	}
}

func TestPassTimesCheck(t *testing.T) {
	driver := map[string]int64{"Lexing": 10e6, "Parsing": 30e6, "Optimization": 40e6,
		"Graph Conversion": 19e6, "Affinity Plan": 1e6}
	same := map[string]int64{}
	for k, v := range driver {
		same[k] = v * 3 / 2
	}
	if err := checkPassTimes(same, driver); err != nil {
		t.Errorf("pass times within the tolerance rejected: %v", err)
	}
	// A pass too short to time reliably may be far off.
	same["Affinity Plan"] = 1
	if err := checkPassTimes(same, driver); err != nil {
		t.Errorf("pass below the floor rejected: %v", err)
	}
	slow := map[string]int64{}
	for k, v := range driver {
		slow[k] = v
	}
	slow["Parsing"] = 5 * driver["Parsing"]
	if err := checkPassTimes(slow, driver); err == nil {
		t.Error("pipeline pass five times the driver's accepted")
	}
	missing := map[string]int64{}
	for k, v := range driver {
		missing[k] = v
	}
	delete(missing, "Optimization")
	if err := checkPassTimes(missing, driver); err == nil {
		t.Error("pass the pipeline never timed accepted")
	}
}

// procCtx is a Context on a given processor.
type procCtx struct {
	operator.Context
	p int
}

func (c procCtx) Processor() int { return c.p }

func TestOpTimerSumsAcrossProcessors(t *testing.T) {
	ot := newOpTimer(nil, 0)
	fn := ot.timed(func(operator.Context, []value.Value) (value.Value, error) { return value.Int(1), nil })
	const procs, calls = 4, 1000
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := procCtx{operator.NopContext, p}
			for i := 0; i < calls; i++ {
				fn(ctx, nil)
			}
		}()
	}
	wg.Wait()
	ns, n := ot.take()
	if n != procs*calls || ns <= 0 {
		t.Errorf("take = %d ns over %d calls, want %d calls", ns, n, procs*calls)
	}
	if _, n := ot.take(); n != 0 {
		t.Errorf("second take = %d calls, want 0", n)
	}
}
