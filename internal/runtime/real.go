package runtime

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/value"
)

// runReal executes the program on a pool of worker goroutines — one per
// configured processor — coordinated by the work-stealing scheduler in
// stealqueue.go. Each worker schedules the nodes it makes runnable onto
// its own priority deques (LIFO, so a producer's consumers run hot);
// seeding goes through the shared injector; idle workers steal FIFO from
// their peers, preserving the §7 priority order at every tier.
//
// Termination: the run ends at quiescence (no scheduled work left), which
// is reached after the final result is produced and any straggling
// side-effecting operators have drained. If quiescence arrives without a
// result, the coordination graph deadlocked (a compiler bug, since sema
// rejects circular data dependencies) and the run fails. Errors abort
// immediately, abandoning queued work and waking every parked worker.
func (e *Engine) runReal(args []value.Value) (value.Value, error) {
	nw := e.cfg.workers()
	if nw == 1 {
		return e.runRealSerial(args)
	}
	start := time.Now()
	if e.tracer != nil {
		e.tracer.now = func() int64 { return int64(time.Since(start)) }
	}
	s := e.scheduler(nw)

	bootSched := func(a *activation, n *graph.Node) {
		e.outstanding.Add(1)
		if e.tracer != nil {
			e.tracer.record(-1, TraceEvent{Type: TraceInject, Ts: e.tracer.now(),
				Act: a.seq, Node: int32(n.ID), Name: traceLabel(n), Tmpl: a.tmpl.Name})
		}
		s.pushInject(&task{act: a, node: n}, e.classify(a, n))
	}

	root := e.acquire(-1, e.prog.Main)
	e.rootAct = root
	e.stats.noteLive(1, int64(e.prog.Main.ActivationWords()))
	// The boot worker runs on the caller's goroutine before the pool exists;
	// proc -1 routes its trace events to the external (seed) track.
	boot := &worker{e: e, proc: -1, sched: bootSched, tr: e.tracer, mem: e.memState(-1)}
	e.initActivation(boot, root, args)

	if e.outstanding.Load() == 0 {
		// The whole program evaluated during seeding (constant main) or
		// nothing is runnable at all. The second case is the same
		// quiescence-without-result failure the worker loop detects.
		if !e.stopped.Load() {
			e.failAt(root, errDeadlock(activationPath(root)))
		}
		e.stats.RealNanos = int64(time.Since(start))
		if e.runErr != nil {
			e.cleanupAfterError(s.drain())
		}
		return e.takeResult()
	}

	// A cancellation watcher lets a run with slow or parked workers drain
	// promptly: it records the failure and closes the scheduler, waking
	// every parked worker, instead of waiting for the next poll inside
	// execNode. It must be stopped before runErr is read or the queues are
	// swept, so the pool shutdown path joins it explicitly.
	stopWatcher := func() {}
	if e.ctxDone != nil {
		cancelWatch := make(chan struct{})
		watcherDone := make(chan struct{})
		go func() {
			defer close(watcherDone)
			select {
			case <-e.ctxDone:
				e.fail(&RunError{Kind: FailCanceled, Err: e.runCtx.Err()})
				s.close()
			case <-cancelWatch:
			}
		}()
		stopWatcher = func() {
			close(cancelWatch)
			<-watcherDone
		}
	}

	if e.pool != nil {
		// RunMany installed a persistent pool: the worker goroutines already
		// exist, parked between runs. Hand them the run start and rendezvous
		// at quiescence — no spawn, no join.
		e.pool.runRound(start)
	} else {
		var wg sync.WaitGroup
		for proc := 0; proc < nw; proc++ {
			wg.Add(1)
			go func(proc int) {
				defer wg.Done()
				e.workerLoop(proc, s, start)
			}(proc)
		}
		wg.Wait()
	}
	stopWatcher()
	e.stats.RealNanos = int64(time.Since(start))
	if e.runErr != nil {
		e.cleanupAfterError(s.drain())
	}
	return e.takeResult()
}

// workerLoop is one worker's dispatch loop for one run: scan, steal, park,
// execute, until the run closes the scheduler (quiescence, error, or
// cancellation). It runs either on a per-run goroutine (plain Run) or on a
// persistent pool goroutine that survives across runs (RunMany).
func (e *Engine) workerLoop(proc int, s *stealScheduler, start time.Time) {
	w := &worker{e: e, proc: proc, tr: e.tracer, mem: e.memState(proc), base: start, lifo: true}
	w.sched = func(a *activation, n *graph.Node) {
		e.outstanding.Add(1)
		t := &task{act: a, node: n, from: int32(proc)}
		pri := e.classify(a, n)
		if w.selfSlot {
			// First push of the current execution: this worker rescans its
			// own deques before it can ever park, so one task per execution
			// needs no wake token (k pushes pay k-1 notifies).
			w.selfSlot = false
			s.pushLocalQuiet(proc, t, pri)
			return
		}
		s.pushLocal(proc, t, pri)
	}
	for {
		if s.closed.Load() {
			return
		}
		t := s.spinFind(proc)
		if t == nil {
			if s.closed.Load() {
				return
			}
			s.park(proc)
			continue
		}
		w.selfSlot = true
		var t0 time.Time
		if e.timing != nil || e.tracer != nil {
			t0 = time.Now()
			w.taskStolen = t.from >= 0 && t.from != int32(proc)
		}
		// Capture the activation identity before execNode: the last
		// node of an activation recycles it, and a pool reuse (even
		// inside this very execNode, via a recursive expansion)
		// restamps seq.
		actSeq, nodeID := t.act.seq, int32(t.node.ID)
		if e.tracer != nil {
			e.tracer.record(proc, TraceEvent{Type: TraceNodeStart, Ts: int64(t0.Sub(start)),
				Act: actSeq, Node: nodeID, Name: dispatchLabel(t.node), Tmpl: t.act.tmpl.Name})
		}
		err := e.execNode(w, t.act, t.node)
		if e.tracer != nil {
			e.tracer.record(proc, TraceEvent{Type: TraceNodeEnd, Ts: int64(time.Since(start)),
				Act: actSeq, Node: nodeID})
		}
		if err != nil {
			e.failAt(t.act, err)
			s.close()
			return
		}
		// Fused dispatches record their own per-member entries, so the
		// executor-level entry (which would bill the whole supernode
		// to the head operator) is suppressed for them.
		if e.timing != nil && t.node.Kind == graph.OpNode && t.node.FuseCluster == nil {
			e.timing.addShard(proc, TimingEntry{
				Name:     t.node.Name,
				Template: t.act.tmpl.Name,
				Proc:     proc,
				Start:    int64(t0.Sub(start)),
				Ticks:    int64(time.Since(t0)),
				Stolen:   w.taskStolen,
			})
		}
		if e.outstanding.Add(-1) == 0 {
			if !e.stopped.Load() {
				// The root is still live (it never produced a
				// result), so its path names the stuck entry point.
				e.failAt(e.rootAct, errDeadlock(activationPath(e.rootAct)))
			}
			s.close()
			return
		}
	}
}

// runRealSerial is the one-worker executor: same semantics, but the ready
// queue degenerates to the plain three-level serialQueue (queue.go) — no
// thieves exist, so the caller's goroutine runs the whole program without
// atomics on the scheduling hot path or per-task allocation. Quiescence is
// simply the queue running dry.
func (e *Engine) runRealSerial(args []value.Value) (value.Value, error) {
	var q serialQueue
	w := &worker{e: e, proc: 0, tr: e.tracer, mem: e.memState(0)}
	w.sched = func(a *activation, n *graph.Node) {
		q.push(task{act: a, node: n}, e.classify(a, n))
	}

	start := time.Now()
	w.base = start
	if e.tracer != nil {
		e.tracer.now = func() int64 { return int64(time.Since(start)) }
	}
	root := e.acquire(0, e.prog.Main)
	e.rootAct = root
	e.stats.noteLive(1, int64(e.prog.Main.ActivationWords()))
	e.initActivation(w, root, args)

	for {
		t, ok := q.pop()
		if !ok {
			break
		}
		var t0 time.Time
		if e.timing != nil || e.tracer != nil {
			t0 = time.Now()
		}
		actSeq, nodeID := t.act.seq, int32(t.node.ID)
		if e.tracer != nil {
			e.tracer.record(0, TraceEvent{Type: TraceNodeStart, Ts: int64(t0.Sub(start)),
				Act: actSeq, Node: nodeID, Name: dispatchLabel(t.node), Tmpl: t.act.tmpl.Name})
		}
		err := e.execNode(w, t.act, t.node)
		if e.tracer != nil {
			e.tracer.record(0, TraceEvent{Type: TraceNodeEnd, Ts: int64(time.Since(start)),
				Act: actSeq, Node: nodeID})
		}
		if err != nil {
			e.failAt(t.act, err)
			break
		}
		if e.timing != nil && t.node.Kind == graph.OpNode && t.node.FuseCluster == nil {
			e.timing.addShard(0, TimingEntry{
				Name:     t.node.Name,
				Template: t.act.tmpl.Name,
				Proc:     0,
				Start:    int64(t0.Sub(start)),
				Ticks:    int64(time.Since(t0)),
			})
		}
	}
	if !e.stopped.Load() {
		e.failAt(root, errDeadlock(activationPath(root)))
	}
	e.stats.RealNanos = int64(time.Since(start))
	if e.runErr != nil {
		e.cleanupAfterError(q.drain())
	}
	return e.takeResult()
}

// takeResult extracts the final value or error after a run ends. The run
// has quiesced by now, so this is also where per-worker memory-plan
// counters merge into Stats and where the engine advances to engFinished,
// bumping the run-generation counter (both executors end here).
func (e *Engine) takeResult() (value.Value, error) {
	if e.memStates != nil {
		e.mergeMemStats()
	}
	e.gen.Add(1)
	e.state.Store(engFinished)
	if e.runErr != nil {
		return nil, e.runErr
	}
	box, _ := e.result.Load().(resultBox)
	if box.v == nil {
		return nil, fmt.Errorf("delirium: program produced no result")
	}
	return box.v, nil
}
