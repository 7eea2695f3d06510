package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	goruntime "runtime"
	"runtime/metrics"
	"slices"
	"time"

	"repro/internal/ast"
	"repro/internal/compile"
	"repro/internal/graph"
	"repro/internal/lexer"
	"repro/internal/macro"
	"repro/internal/operator"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/runtime"
	"repro/internal/sema"
	"repro/internal/server"
	"repro/internal/source"
)

// The traced run measures the compiler, runtime, value and operator layers
// on every workload's programs, and the server on serve. A layer a
// workload does not exercise reports 0. The run splits its time between
// these phases.
const (
	phaseOverhead  = 0.12 // each of the untraced and traced loops
	overheadRounds = 3
	phaseCompiler  = 0.18
	phaseRuntime   = 0.28
	phaseServer    = 0.30
)

// newEngineSamples is how many engines the runtime phase builds per
// program just to time construction.
const newEngineSamples = 20

// serialSpanBudget caps the operator spans kept by the runtime phase's
// span pass, bounding the trace's memory.
const serialSpanBudget = 300_000

// tracedRun runs every phase and returns the per-layer metrics. When it
// ends it writes the spans to spansPath.
func tracedRun(inst *instance, e env, d time.Duration, spansPath string) (map[string]float64, *tally, error) {
	m := make(map[string]float64)
	all := &tally{}
	rec := newRecorder()
	dur := func(f float64) time.Duration { return time.Duration(f * float64(d)) }

	// Untraced and traced loops alternate, so drift over the run (warming,
	// neighbours on the host) falls on both alike. A traced round goes
	// first and is not counted: the spans it keeps grow the heap, and with
	// it the collector's interval, before either side is measured.
	plain, traced := &tally{}, &tally{}
	for i := -1; i < 2*overheadRounds; i++ {
		r, into := rec, traced
		if i%2 == 0 {
			r, into = nil, plain
		}
		t, err := inst.loop(dur(phaseOverhead/overheadRounds), r)
		if err != nil {
			return nil, nil, err
		}
		if i < 0 {
			all.add(t)
			continue
		}
		into.add(t)
	}
	all.add(plain)
	all.add(traced)
	m["trace.overhead_frac"] = 1 - ratio(traced.busyThroughput(), plain.busyThroughput())

	defs := make([]*progDef, len(inst.progs))
	for i, rp := range inst.progs {
		defs[i] = rp.def
	}
	ct, err := compilerPhase(defs, e, dur(phaseCompiler), rec, m)
	if err != nil {
		return nil, nil, err
	}
	all.add(ct)
	rt, err := runtimePhase(inst, e, dur(phaseRuntime), rec, m)
	if err != nil {
		return nil, nil, err
	}
	all.add(rt)
	st, err := serverPhase(inst.serve, e, dur(phaseServer), rec, m)
	if err != nil {
		return nil, nil, err
	}
	all.add(st)

	spans := rec.snapshot()
	self := selfTimes(spans)
	roots, worst := checkAccounting(spans, self)
	if worst > accountingTolerance {
		all.note(0, &wrongOutput{fmt.Errorf("span accounting: self times of a serial trace miss its wall time by %.2f%% (tolerance %.0f%%)",
			100*worst, 100*accountingTolerance)})
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans, %d serial roots checked, worst accounting error %.4f%%\n",
		len(spans), roots, 100*worst)
	summarize(os.Stderr, selfByName(spans, self))
	if err := writeSpans(spansPath, spans); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "spans written to %s\n", spansPath)
	layerMetrics(spans, self, m)
	m["failed_frac"] = ratio(float64(all.failed), float64(all.attempted))
	return m, all, nil
}

// layerMetrics derives the span-based metrics.
func layerMetrics(spans []span, self []int64, m map[string]float64) {
	by := selfByName(spans, self)
	get := func(name string) *nameAgg {
		if a := by[name]; a != nil {
			return a
		}
		return &nameAgg{}
	}
	us := func(xs []float64, p float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return percentile(xs, p) / 1e3
	}
	pipelines := float64(get("compile.pipeline").count)
	for _, p := range pipelinePasses {
		m[p.metric] = ratio(float64(get(p.span).self), pipelines) / 1e6
	}
	m["server.handler_p50_us"] = us(get("server.handler").totals, 50)
	m["server.handler_p90_us"] = us(get("server.handler").totals, 90)
	m["server.engine_p50_us"] = us(get("server.engine").totals, 50)
	m["server.stage_p50_us"] = us(get("server.handler").selfs, 50)
	m["server.transport_p50_us"] = us(get("request").selfs, 50)
	m["server.execute_p50_us"] = us(get("server.execute").totals, 50)
}

// pipelinePasses are the compiler's passes as the traced run calls them:
// the span each gets, its metric, and the name compile.Result.Passes gives
// the same pass.
var pipelinePasses = []struct{ span, metric, driver string }{
	{"lexer", "lexer.ms", "Lexing"}, {"parser", "parser.ms", "Parsing"},
	{"macro", "macro.ms", "Macro Expansion"}, {"sema", "sema.ms", "Env Analysis"},
	{"opt", "opt.ms", "Optimization"}, {"graph", "graph.ms", "Graph Conversion"},
	{"opt.memplan", "opt.memplan_ms", "Memory Plan"}, {"opt.fuse", "opt.fuse_ms", "Fusion"},
	{"opt.affinity", "opt.affinity_ms", "Affinity Plan"},
}

// driverName gives the driver's name for a pipeline span.
func driverName(span string) string {
	for _, p := range pipelinePasses {
		if p.span == span {
			return p.driver
		}
	}
	return span
}

// pipelineResult is what calling the passes one by one produced: each
// pass's time under the driver's name, in order, and the sizes and graph
// the passes made.
type pipelineResult struct {
	passes                  []compile.PassTime
	tokens, rewrites, nodes int64
	dot                     string
}

// pipeline compiles def by calling each pass's public entry point in the
// sequential driver's order, with the driver's options, one span per pass.
func pipeline(def *progDef, reg *operator.Registry, rec *recorder) (*pipelineResult, error) {
	file := def.name + ".dlr"
	var diags source.DiagList
	out := &pipelineResult{}
	trace := rec.newTrace()
	root := rec.begin(trace, -1, "compile.pipeline")
	defer rec.end(root)
	pass := func(name string, fn func()) error {
		sp := rec.begin(trace, root, name)
		t0 := time.Now()
		fn()
		out.passes = append(out.passes, compile.PassTime{Name: driverName(name), Nanos: int64(time.Since(t0))})
		rec.end(sp)
		if err := diags.Err(); err != nil {
			return fmt.Errorf("%s: %s: %w", def.name, name, err)
		}
		return nil
	}
	o := def.opts
	var toks []lexer.Token
	if err := pass("lexer", func() { toks = lexer.New(file, def.src, &diags).ScanAll() }); err != nil {
		return nil, err
	}
	var prog *ast.Program
	if err := pass("parser", func() { prog = parser.ParseTokens(file, toks, &diags) }); err != nil {
		return nil, err
	}
	var expanded *ast.Program
	if err := pass("macro", func() {
		table := macro.BuildTable(prog.Defines, &diags)
		expanded = &ast.Program{File: prog.File}
		for _, f := range prog.Funcs {
			expanded.Funcs = append(expanded.Funcs, table.ExpandFunc(f, &diags))
		}
	}); err != nil {
		return nil, err
	}
	var info *sema.Info
	if err := pass("sema", func() { info = sema.Analyze(expanded, reg, &diags) }); err != nil {
		return nil, err
	}
	var st *opt.Stats
	if err := pass("opt", func() {
		st = opt.Optimize(info, opt.Options{Level: optLevel(o), InlineBudget: o.InlineBudget})
	}); err != nil {
		return nil, err
	}
	var g *graph.Program
	if err := pass("graph", func() { g = graph.Build(info, &diags) }); err != nil {
		return nil, err
	}
	if o.MemPlan {
		pass("opt.memplan", func() { opt.PlanMemory(g) })
	}
	if o.Fuse || o.Affinity || o.Adaptive {
		pass("opt.fuse", func() { opt.FuseGraph(g, o.FuseProfile) })
	}
	if o.Affinity {
		pass("opt.affinity", func() { opt.PlanAffinity(g) })
	}
	out.tokens = int64(len(toks))
	out.rewrites = rewriteCount(st)
	out.nodes = int64(g.NodeCount())
	out.dot = g.Dot()
	return out, nil
}

// rewriteCount counts the optimizer's transformations.
func rewriteCount(s *opt.Stats) int64 {
	return int64(s.Folded + s.Propagated + s.CSE + s.DeadBinds + s.Inlined)
}

// optLevel is the optimization level compile.Compile uses for o.
func optLevel(o compile.Options) int {
	switch {
	case o.OptLevel == 0:
		return 2
	case o.OptLevel < 0:
		return 0
	}
	return o.OptLevel
}

// crossCheck verifies that the pass-by-pass pipeline did what the
// sequential driver did: the same passes in the same order, the same
// optimizer rewrites, and the same graph.
func crossCheck(p *pipelineResult, res *compile.Result) error {
	names := func(ps []compile.PassTime) []string {
		var out []string
		for _, x := range ps {
			out = append(out, x.Name)
		}
		return out
	}
	if a, b := names(p.passes), names(res.Passes); !slices.Equal(a, b) {
		return fmt.Errorf("pipeline ran passes %q, compile.Result.Passes lists %q", a, b)
	}
	if rw := rewriteCount(res.OptStats); rw != p.rewrites {
		return fmt.Errorf("pipeline made %d rewrites, the driver %d", p.rewrites, rw)
	}
	if res.Program.Dot() != p.dot {
		return fmt.Errorf("pipeline's graph differs from the driver's")
	}
	return nil
}

// Pass times of the pipeline and of the driver, each summed over the
// compiler phase, must agree pass by pass: within a factor of
// passTimeFactor, or apart by less than passTimeFloor of the driver's
// time for all passes (a pass too short to time reliably).
const (
	passTimeFactor = 2.0
	passTimeFloor  = 0.02
)

// checkPassTimes compares summed pass times by driver pass name.
func checkPassTimes(pipe, driver map[string]int64) error {
	var total int64
	for _, ns := range driver {
		total += ns
	}
	for _, p := range pipelinePasses {
		a, b := float64(pipe[p.driver]), float64(driver[p.driver])
		if abs64(a-b) <= passTimeFloor*float64(total) {
			continue
		}
		if a > passTimeFactor*b || b > passTimeFactor*a {
			return fmt.Errorf("pass %s: pipeline %.3f ms, compile.Result.Passes %.3f ms (tolerance %gx, or %g%% of %.3f ms)",
				p.driver, a/1e6, b/1e6, passTimeFactor, 100*passTimeFloor, float64(total)/1e6)
		}
	}
	return nil
}

// compilerPhase compiles the workload's programs in turn three ways: pass
// by pass (one span each), with the sequential driver, and with the
// parallel driver. Each pipeline is cross-checked against the sequential
// driver's result, each parallel driver's graph against the sequential
// driver's, and the summed pass times against its Result.Passes; a
// mismatch counts as a wrong output.
func compilerPhase(defs []*progDef, e env, d time.Duration, rec *recorder, m map[string]float64) (*tally, error) {
	t := &tally{}
	regs := make([]*operator.Registry, len(defs))
	for i, def := range defs {
		regs[i] = def.newReg()
	}
	pipeNs, driverNs := map[string]int64{}, map[string]int64{}
	var tokens, rewrites, nodes, n int64
	var seqNs, parNs, mallocs, srcBytes int64
	var ms0, ms1 goruntime.MemStats
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		def, reg := defs[i%len(defs)], regs[i%len(defs)]
		p, err := pipeline(def, reg, rec)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		seq, err := def.compileWith(reg, 1)
		if err != nil {
			return nil, err
		}
		seqNs += int64(time.Since(t0))
		goruntime.ReadMemStats(&ms0)
		t0 = time.Now()
		par, err := def.compileWith(reg, e.nproc)
		if err != nil {
			return nil, err
		}
		parNs += int64(time.Since(t0))
		goruntime.ReadMemStats(&ms1)
		mallocs += int64(ms1.Mallocs - ms0.Mallocs)
		srcBytes += int64(len(def.src))

		var cerr error
		if err := crossCheck(p, seq); err != nil {
			cerr = &wrongOutput{fmt.Errorf("compiler cross-check: %s: %w", def.name, err)}
		} else if par.Program.Dot() != p.dot {
			cerr = &wrongOutput{fmt.Errorf("%s: parallel graph differs from the sequential driver's", def.name)}
		}
		t.note(0, cerr)
		for _, x := range p.passes {
			pipeNs[x.Name] += x.Nanos
		}
		for _, x := range seq.Passes {
			driverNs[x.Name] += x.Nanos
		}
		tokens, rewrites, nodes, n = tokens+p.tokens, rewrites+p.rewrites, nodes+p.nodes, n+1
	}
	if err := checkPassTimes(pipeNs, driverNs); err != nil {
		t.note(0, &wrongOutput{fmt.Errorf("compiler cross-check: %w", err)})
	}
	m["lexer.tokens"] = ratio(float64(tokens), float64(n))
	m["opt.rewrites"] = ratio(float64(rewrites), float64(n))
	m["graph.nodes"] = ratio(float64(nodes), float64(n))
	m["compile.par_speedup"] = ratio(float64(seqNs), float64(parNs))
	m["compile.allocs_per_kb"] = ratio(float64(mallocs), float64(srcBytes)/1024)
	return t, nil
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// runtimePhase runs the workload's programs with every operator timed:
// first as the workload configures them, with the allocator and collector
// counters read around each Run; then at one worker, where run time minus
// operator time is the coordination layer's own; then, on a harness of its
// own, at one worker again with run and operator spans recorded.
func runtimePhase(inst *instance, e env, d time.Duration, rec *recorder, m map[string]float64) (*tally, error) {
	t := &tally{}
	var par, serial []runSample
	var newUS []float64
	ot := newOpTimer(nil, 0)
	h, err := newRunHarness(inst.progs, inst.cycle, e.seed, ot)
	if err != nil {
		return nil, err
	}
	for range inst.cycle { // warm
		if _, err := h.next(0); err != nil {
			return nil, err
		}
	}
	h.memStats = true
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < 2*d/5; i++ {
		s, err := h.next(0)
		t.note(s.runT, err)
		par = append(par, s)
	}
	h.memStats = false
	start = time.Now()
	for i := 0; i == 0 || time.Since(start) < 2*d/5; i++ {
		s, err := h.next(1)
		t.note(s.runT, err)
		serial = append(serial, s)
	}
	// Engine construction, timed alone: reused engines are built once
	// per program, so the runs hardly sample it.
	for _, lp := range h.progs {
		for i := 0; i < newEngineSamples; i++ {
			t0 := time.Now()
			runtime.New(lp.prog, lp.rp.cfg)
			newUS = append(newUS, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	wc := calibrate()
	fmt.Fprintf(os.Stderr, "operator timing wrapper: %.1f ns inside the timed interval, %.1f ns outside, per call\n",
		wc.inside, wc.outside)

	sh, err := newRunHarness(inst.progs, inst.cycle, e.seed, newOpTimer(rec, serialSpanBudget))
	if err != nil {
		return nil, err
	}
	start = time.Now()
	for i := 0; i == 0 || time.Since(start) < d/5; i++ {
		s, err := sh.next(1)
		t.note(s.runT, err)
	}
	runtimeMetrics(par, serial, newUS, wc, m)
	return t, nil
}

// runtimeMetrics derives the runtime, value and operator metrics from the
// runs at the workload's own worker count (par) and at one worker
// (serial). Operator time is corrected for the timing wrapper's cost.
func runtimeMetrics(par, serial []runSample, newUS []float64, wc wrapperCost, m map[string]float64) {
	var runs, ops, operators, opNs, opCalls, busyNs, mallocs, allocBytes, gcSec, cpuSec float64
	var reused, allocated, tails, peak, steals, parks, contention, injected, batch float64
	var hits, misses, fused, blocks, copies, pooled, elided, avoided float64
	var runUS, resetUS []float64
	for _, s := range par {
		st := &s.stats
		runs++
		ops += float64(st.OpsExecuted)
		operators += float64(st.OperatorsRun)
		opNs += float64(s.opNs) - wc.inside*float64(s.opCalls)
		opCalls += float64(s.opCalls)
		busyNs += float64(s.runT.Nanoseconds()) * float64(s.workers)
		mallocs += float64(s.mallocs)
		allocBytes += float64(s.allocBytes)
		gcSec += s.gcSec
		cpuSec += s.cpuSec
		reused += float64(st.ActivationsReused)
		allocated += float64(st.ActivationsAllocated)
		tails += float64(st.TailCalls)
		peak += float64(st.PeakLive)
		steals += float64(st.Steals)
		parks += float64(st.Parks)
		contention += float64(st.StealContention)
		injected += float64(st.InjectedTasks)
		batch += float64(st.BatchSteals)
		hits += float64(st.AffinityHits)
		misses += float64(st.AffinityMisses)
		fused += float64(st.FusedDispatchesSaved)
		blocks += float64(st.Blocks.Allocated)
		copies += float64(st.Blocks.Copies)
		pooled += float64(st.PooledAllocs)
		elided += float64(st.ElidedRetains + st.ElidedReleases)
		avoided += float64(st.CopiesAvoided)
		runUS = append(runUS, float64(s.runT.Nanoseconds())/1e3)
		resetUS = append(resetUS, float64(s.resetT.Nanoseconds())/1e3)
		if s.newT > 0 {
			newUS = append(newUS, float64(s.newT.Nanoseconds())/1e3)
		}
	}
	m["runtime.run_us"] = median(runUS)
	m["runtime.reset_us"] = median(resetUS)
	m["runtime.ops_per_run"] = ratio(ops, runs)
	m["runtime.operators_per_run"] = ratio(operators, runs)
	m["runtime.act_reuse_frac"] = ratio(reused, reused+allocated)
	m["runtime.tail_calls_per_run"] = ratio(tails, runs)
	m["runtime.peak_live_acts"] = ratio(peak, runs)
	m["runtime.allocs_per_op"] = ratio(mallocs, ops)
	m["runtime.alloc_bytes_per_op"] = ratio(allocBytes, ops)
	m["runtime.gc_cpu_frac"] = ratio(gcSec, cpuSec)
	m["runtime.op_busy_frac"] = ratio(opNs, busyNs)
	m["runtime.steals_per_run"] = ratio(steals, runs)
	m["runtime.parks_per_run"] = ratio(parks, runs)
	m["runtime.contention_per_run"] = ratio(contention, runs)
	m["runtime.injected_per_run"] = ratio(injected, runs)
	m["runtime.batch_steals_per_run"] = ratio(batch, runs)
	m["runtime.affinity_hit_frac"] = ratio(hits, hits+misses)
	m["runtime.fused_saved_per_run"] = ratio(fused, runs)
	m["value.blocks_per_run"] = ratio(blocks, runs)
	m["value.copies_per_run"] = ratio(copies, runs)
	m["value.pooled_frac"] = ratio(pooled, blocks)
	m["value.elided_refops_per_run"] = ratio(elided, runs)
	m["value.copies_avoided_per_run"] = ratio(avoided, runs)
	m["operator.self_ns_per_call"] = ratio(opNs, opCalls)

	// With one worker operators never overlap, so run time minus operator
	// time is the coordination layer's own, once the part of the wrapper's
	// cost that falls outside the timed interval is taken out too.
	var serialUS []float64
	var coordNs, serialOps float64
	for _, s := range serial {
		serialUS = append(serialUS, float64(s.runT.Nanoseconds())/1e3)
		if s.newT > 0 {
			newUS = append(newUS, float64(s.newT.Nanoseconds())/1e3)
		}
		coordNs += float64(s.runT.Nanoseconds()-s.opNs) - wc.outside*float64(s.opCalls)
		serialOps += float64(s.stats.OpsExecuted)
	}
	m["runtime.new_us"] = median(newUS)
	m["runtime.serial_run_us"] = median(serialUS)
	m["runtime.coord_ns_per_op"] = ratio(coordNs, serialOps)
}

// serverPhase measures the server layer of a workload that has one: an
// open-loop phase at serveRate with every handler call traced, in-process
// Execute calls, and the /metrics counters. Without a server it reports 0
// for the layer.
func serverPhase(h *serveHarness, e env, d time.Duration, rec *recorder, m map[string]float64) (*tally, error) {
	t := &tally{}
	ol := &openLoopResult{}
	var rate float64
	var before, after map[string]float64
	if h != nil {
		var err error
		if before, err = h.metrics(); err != nil {
			return nil, err
		}
		rate = serveRate
		h.rec.Store(rec)
		ol = h.openLoop(poissonSchedule(e.seed, rate, 3*d/4))
		h.rec.Store(nil)
		h.placeEngineSpans(rec)
		t.add(&ol.tally)

		// In-process Execute: the same requests without HTTP.
		start := time.Now()
		for i := 0; i == 0 || time.Since(start) < d/4; i++ {
			rq := h.draw()
			var req server.RunRequest
			if err := json.Unmarshal(rq.body, &req); err != nil {
				return nil, err
			}
			trace := rec.newTrace()
			sp := rec.begin(trace, -1, "server.execute")
			t0 := time.Now()
			resp, apiErr := h.srv.Execute(context.Background(), rq.prog.def.name, req)
			el := time.Since(t0)
			rec.end(sp)
			if apiErr != nil {
				t.note(el, apiErr)
				continue
			}
			raw, err := json.Marshal(resp.Result)
			if err != nil {
				return nil, err
			}
			t.note(el, checkResponse(rq, raw, resp.Stats))
		}
		if after, err = h.metrics(); err != nil {
			return nil, err
		}
		if leaks := after["delserver_block_leak_runs_total"]; leaks != 0 {
			t.note(0, &wrongOutput{fmt.Errorf("server: %v runs leaked blocks", leaks)})
		}
	}
	pct := func(ds []time.Duration, p float64) float64 {
		if len(ds) == 0 {
			return 0
		}
		return percentile(durationsMS(ds), p)
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	m["loadgen.lag_p90_ms"] = pct(ol.lag, 90)
	m["loadgen.rate_per_s"] = rate
	m["loadgen.open_p50_ms"] = pct(ol.lat, 50)
	m["loadgen.open_p90_ms"] = pct(ol.lat, 90)
	created, reused := delta("delserver_engine_pool_created_total"), delta("delserver_engine_pool_reused_total")
	m["server.pool_reuse_frac"] = ratio(reused, reused+created)
	m["server.shed_frac"] = ratio(delta("delserver_runs_shed_total"), float64(ol.attempted))
	return t, nil
}
