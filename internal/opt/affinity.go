// affinity.go implements the affinity-plan pass: a whole-program sweep
// over the linked coordination graph that stamps advisory placement hints
// for the simulated executor (paper §9.3's operator/data affinity, made
// static for the NUMA machine profiles).
//
// The pass consumes two earlier analyses. The memory plan's per-edge
// ownership facts (MemOwnedArgs) identify edges whose value is an
// exclusively-owned block — exactly the payloads worth keeping local to
// the producer's processor. Fusion's bottom levels (BLevel) rank
// producers by remaining weight.
//
// For each schedulable node the pass picks at most one preferred-producer
// edge: a single-consumer in edge (the producer's only output edge, not
// split, not the template result) whose producer's processor should run
// the node. Owned-block edges win over plain single-consumer edges; among
// those, the heaviest producer (max BLevel) wins; ties break to the lowest
// port so the choice is deterministic. Fused cluster heads inherit the
// best external edge over all members, since deliveries to members gate
// on the head.
//
// The hints are advisory only: they influence WHERE a ready node runs,
// never whether or when it becomes runnable, so results are bit-identical
// with hints on or off (DESIGN decision 16).
package opt

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
)

// AffinityPlan is the result of the affinity pass: per-template hint
// listings plus program-wide totals.
type AffinityPlan struct {
	// Templates in deterministic (name-sorted, subtemplates inline) order.
	Templates []AffinityPlanTemplate
	// TotalNodes counts every schedulable node the pass visited.
	TotalNodes int
	// Hinted counts nodes stamped with a preferred producer.
	Hinted int
	// OwnedEdges counts hints that ride a memplan-owned port (a proven
	// exclusively-owned block travels the edge).
	OwnedEdges int
}

// AffinityPlanTemplate reports one template's hints.
type AffinityPlanTemplate struct {
	Name  string
	Hints []AffinityHint
}

// AffinityHint reports one preferred-producer stamp.
type AffinityHint struct {
	Node     int
	Label    string
	Producer int
	Owned    bool
}

// PlanAffinity stamps every node's AffPreferred and returns the report;
// prog.AffinityPlanned is set so a Simulated engine configured with
// AffinityHints places hinted nodes on their preferred producer's
// processor. Run it after FuseGraph (for bottom levels and clusters) and
// PlanMemory (for ownership facts) when those passes are on; without them
// the pass still produces valid — just less selective — hints.
func PlanAffinity(prog *graph.Program) *AffinityPlan {
	p := &AffinityPlan{}
	seen := make(map[*graph.Template]bool)
	names := make([]string, 0, len(prog.Templates))
	for name := range prog.Templates {
		names = append(names, name)
	}
	sort.Strings(names)
	var visit func(t *graph.Template)
	visit = func(t *graph.Template) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		p.process(t)
		for _, nd := range t.Nodes {
			visit(nd.Then)
			visit(nd.Else)
			visit(nd.Callee)
		}
	}
	for _, name := range names {
		visit(prog.Templates[name])
	}
	visit(prog.Main)
	prog.AffinityPlanned = true
	return p
}

// eligibleProducer reports whether the edge u -> (consumer) may carry an
// affinity hint: u must be scheduled (not filled at activation creation),
// feed exactly one consumer, not split ownership, and not be the template
// result (result values leave through the continuation, so the consumer
// lives in another activation and the producer's worker is unknowable
// statically... it is still the completing worker at run time, but the
// cross-template id spaces do not line up, so such edges are skipped).
func eligibleProducer(u *graph.Node, t *graph.Template) bool {
	switch u.Kind {
	case graph.ParamNode, graph.ConstNode:
		return false
	}
	return len(u.Out) == 1 && !u.Spread && u.ID != t.Result
}

// process stamps one template and records its report entry.
func (p *AffinityPlan) process(t *graph.Template) {
	rep := AffinityPlanTemplate{Name: t.Name}
	// Producers per node, one entry per in edge, with the consumer port
	// (for the ownership lookup).
	type inEdge struct{ prod, port int }
	preds := make([][]inEdge, len(t.Nodes))
	for _, nd := range t.Nodes {
		for _, e := range nd.Out {
			preds[e.To] = append(preds[e.To], inEdge{nd.ID, e.Port})
		}
	}
	clusterOf := func(id int) *graph.Cluster {
		nd := t.Nodes[id]
		if nd.Fused {
			return t.Nodes[nd.FuseHead].FuseCluster
		}
		return nil
	}
	for _, nd := range t.Nodes {
		nd.AffPreferred = -1
		switch nd.Kind {
		case graph.ParamNode, graph.ConstNode:
			continue
		}
		if nd.Fused && nd.FuseCluster == nil {
			continue // non-head member: never scheduled individually
		}
		p.TotalNodes++
		// Candidate in edges: the node's own, or — for a cluster head —
		// the external in edges of every member (deliveries to members
		// gate on the head, so any of their producers can hand the
		// cluster over hot).
		var cand []inEdge
		candOwner := make(map[inEdge]*graph.Node)
		if c := nd.FuseCluster; c != nil {
			for _, id := range c.Nodes {
				m := t.Nodes[id]
				for _, ie := range preds[id] {
					if clusterOf(ie.prod) != c {
						cand = append(cand, ie)
						candOwner[ie] = m
					}
				}
			}
		} else {
			for _, ie := range preds[nd.ID] {
				cand = append(cand, ie)
				candOwner[ie] = nd
			}
		}
		best, bestOwned := inEdge{-1, -1}, false
		var bestBL int64
		for _, ie := range cand {
			u := t.Nodes[ie.prod]
			if !eligibleProducer(u, t) {
				continue
			}
			m := candOwner[ie]
			owned := ie.port < len(m.MemOwnedArgs) && m.MemOwnedArgs[ie.port]
			// Owned beats unowned, then heavier producer, then lower
			// port, then lower producer id — fully deterministic.
			better := false
			switch {
			case best.prod < 0:
				better = true
			case owned != bestOwned:
				better = owned
			case u.BLevel != bestBL:
				better = u.BLevel > bestBL
			case ie.port != best.port:
				better = ie.port < best.port
			default:
				better = ie.prod < best.prod
			}
			if better {
				best, bestOwned, bestBL = ie, owned, u.BLevel
			}
		}
		if best.prod < 0 {
			continue
		}
		nd.AffPreferred = best.prod
		p.Hinted++
		if bestOwned {
			p.OwnedEdges++
		}
		rep.Hints = append(rep.Hints, AffinityHint{
			Node: nd.ID, Label: nodeLabel(nd), Producer: best.prod, Owned: bestOwned})
	}
	p.Templates = append(p.Templates, rep)
}

// Report renders the plan as a human-readable listing for delc/delprof.
func (p *AffinityPlan) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "affinity plan: %d/%d nodes hinted (%d on owned-block edges)\n",
		p.Hinted, p.TotalNodes, p.OwnedEdges)
	for _, t := range p.Templates {
		if len(t.Hints) == 0 {
			continue
		}
		fmt.Fprintf(&b, "template %s:\n", t.Name)
		for _, h := range t.Hints {
			edge := ""
			if h.Owned {
				edge = " (owned block)"
			}
			fmt.Fprintf(&b, "  n%d %s <- n%d%s\n", h.Node, h.Label, h.Producer, edge)
		}
	}
	return b.String()
}
