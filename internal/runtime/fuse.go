package runtime

import (
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// Fused supernode dispatch. The fusion pass (internal/opt/fuse.go) proved
// that once a cluster's head is runnable, every member can execute in the
// cluster's stored topological order with all inputs present: internal
// values land directly in the next member's slot (complete's
// FuseInternalOut fast path) and every external input was already delivered
// before the head's gate opened. execFused therefore runs the whole cluster
// as one straight-line interpreted sequence on the dispatching worker — one
// ready-queue round trip, one dispatch overhead, no counter traffic between
// members.
//
// Composition notes:
//   - retry/faults: each member runs through the ordinary execBody path,
//     so a retryable member re-executes from its own snapshot boundary and
//     a terminal failure aborts the sequence exactly like an unfused run;
//   - tracing: the executor's outer start/end pair brackets the supernode
//     (labeled "fused:<head>") and per-member start/end pairs nest inside
//     it, so the critical-path analyzer and the Chrome export see exact
//     per-operator durations;
//   - simulated time: members advance the virtual clock through w.simClock
//     by their individually-priced cost, so nested events carry exact
//     virtual timestamps; the scheduler charges dispatch overhead once for
//     the whole supernode, which is precisely the saving being modeled.

// dispatchLabel names a dispatched task for trace output: supernodes are
// prefixed so a trace distinguishes the bracketing slice from the head
// member's own slice nested inside it.
func dispatchLabel(n *graph.Node) string {
	if n.FuseCluster != nil {
		return "fused:" + traceLabel(n)
	}
	return traceLabel(n)
}

// execFused runs cluster c of activation a to completion (or first error).
// The caller has reset the worker's charge accumulators; they accumulate
// across members so the simulated scheduler prices the whole supernode.
func (e *Engine) execFused(w *worker, a *activation, c *graph.Cluster) error {
	atomic.AddInt64(&e.stats.FusedNodes, int64(len(c.Nodes)))
	atomic.AddInt64(&e.stats.FusedDispatchesSaved, int64(len(c.Nodes)-1))
	// Batch the execution accounting: one OpsExecuted add and one
	// budget/cancellation check for the whole cluster, instead of one per
	// member. The budget may overshoot by at most the cluster size.
	ops := atomic.AddInt64(&e.stats.OpsExecuted, int64(len(c.Nodes)))
	if err := e.checkOps(a, ops); err != nil {
		return err
	}
	tmpl := a.tmpl
	sim := e.cfg.Mode == Simulated
	// Internal members skip their remaining-counter decrement in complete's
	// fast path; the batch settles here in one atomic. It must be applied
	// before the tail runs — the tail may recycle the activation in place
	// (tail call), and until then the tail's own pending entry keeps the
	// batched add from reaching zero. On a mid-chain error the members
	// completed so far settle before the error propagates, leaving the same
	// counter state an unfused failure would.
	last := len(c.Nodes) - 1
	if !sim && w.tr == nil && e.timing == nil {
		// Fast path: real mode with no observers. No clocks to read, no
		// events to record — just the straight-line member sequence.
		for i, id := range c.Nodes {
			if i == last {
				e.finishNodes(a, int32(last))
			}
			if err := e.execBody(w, a, tmpl.Nodes[id]); err != nil {
				if i < last {
					e.finishNodes(a, int32(i))
				}
				return err
			}
		}
		return nil
	}
	if w.tr != nil {
		w.tr.record(w.proc, TraceEvent{Type: TraceFused, Ts: w.tr.now(), Act: a.seq,
			Node: int32(c.Head), Name: traceLabel(tmpl.Nodes[c.Head]), Arg: int64(len(c.Nodes))})
	}
	var prof = e.cfg.profile()
	for i, id := range c.Nodes {
		if i == last {
			e.finishNodes(a, int32(last))
		}
		n := tmpl.Nodes[id]
		// Capture the activation identity before executing: the tail may
		// recycle the activation (and a pool reuse restamps seq). Members
		// before the tail cannot — their unexecuted successors keep
		// a.remaining positive.
		actSeq := a.seq
		var t0 time.Time
		var simStart int64
		if sim {
			simStart = *w.simClock
		} else if e.timing != nil || w.tr != nil {
			t0 = time.Now()
		}
		if w.tr != nil {
			ts := simStart
			if !sim {
				ts = int64(t0.Sub(w.base))
			}
			w.tr.record(w.proc, TraceEvent{Type: TraceNodeStart, Ts: ts,
				Act: actSeq, Node: int32(id), Name: traceLabel(n), Tmpl: tmpl.Name})
		}
		c0, l0, r0 := w.charge, w.localWords, w.remoteWords
		err := e.execBody(w, a, n)
		var memberEnd int64
		if sim {
			// Price this member from its charge deltas; per-member floors sum
			// to at most the supernode's total, so nested slices never
			// outgrow the bracketing one.
			cost := int64(float64(w.charge-c0)*prof.TickPerUnit) +
				int64(float64(w.localWords-l0)*prof.LocalTicksPerWord) +
				int64(float64(w.remoteWords-r0)*prof.RemoteTicksPerWord)
			if cost < 0 {
				cost = 0
			}
			memberEnd = simStart + cost
			*w.simClock = memberEnd
		}
		if w.tr != nil {
			ts := memberEnd
			if !sim {
				ts = int64(time.Since(w.base))
			}
			w.tr.record(w.proc, TraceEvent{Type: TraceNodeEnd, Ts: ts,
				Act: actSeq, Node: int32(id)})
		}
		if err != nil {
			if i < last {
				e.finishNodes(a, int32(i))
			}
			return err
		}
		if e.timing != nil && n.Kind == graph.OpNode {
			entry := TimingEntry{Name: n.Name, Template: tmpl.Name, Proc: w.proc, Fused: true,
				Stolen: w.taskStolen}
			if sim {
				entry.Start, entry.Ticks = simStart, memberEnd-simStart
			} else {
				entry.Start, entry.Ticks = int64(t0.Sub(w.base)), int64(time.Since(t0))
			}
			e.timing.addShard(w.proc, entry)
		}
	}
	return nil
}
