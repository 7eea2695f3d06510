package opt

import (
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestAffinityChainHint(t *testing.T) {
	// use's only producer is peek (single consumer, scheduled, not the
	// result), so use gets the hint; peek's producer is a param, so it
	// stays unhinted.
	g, _ := plan(t, "main(x) use(peek(x))", nil)
	p := PlanAffinity(g)
	if !g.AffinityPlanned {
		t.Fatal("AffinityPlanned not set")
	}
	pk := node(t, g, g.Main, "peek")
	use := node(t, g, g.Main, "use")
	if pk.AffPreferred != -1 {
		t.Fatalf("peek.AffPreferred = %d, want -1 (param producer)", pk.AffPreferred)
	}
	if use.AffPreferred != pk.ID {
		t.Fatalf("use.AffPreferred = %d, want peek n%d", use.AffPreferred, pk.ID)
	}
	if p.Hinted != 1 {
		t.Fatalf("Hinted = %d, want 1", p.Hinted)
	}
	if !strings.Contains(p.Report(), "affinity plan: 1/") {
		t.Fatalf("report missing summary: %q", p.Report())
	}
}

func TestAffinityOwnedEdgeWins(t *testing.T) {
	// join's port 0 producer (peek of a param) is unowned; port 1 (use of a
	// fresh mk) carries a memplan-owned block. Ownership must beat the
	// lower-port tie-break.
	src := `main(x)
  let a = mk()
      b = use(a)
      c = peek(x)
  in join(c, b)`
	g, _ := plan(t, src, nil)
	p := PlanAffinity(g)
	use := node(t, g, g.Main, "use")
	join := node(t, g, g.Main, "join")
	if join.AffPreferred != use.ID {
		t.Fatalf("join.AffPreferred = %d, want use n%d (owned edge)", join.AffPreferred, use.ID)
	}
	if p.OwnedEdges < 1 {
		t.Fatalf("OwnedEdges = %d, want >= 1", p.OwnedEdges)
	}
}

func TestAffinityMultiConsumerIneligible(t *testing.T) {
	// The shared peek feeds both downstream peeks, so neither may prefer
	// it: pinning both consumers to its worker would serialize the fan-out.
	src := `main(x)
  let a = peek(x)
      b = peek(a)
      c = peek(a)
  in join(b, c)`
	g, _ := plan(t, src, nil)
	PlanAffinity(g)
	var fanOut *graph.Node
	for _, nd := range g.Main.Nodes {
		if nd.Name == "peek" && len(nd.Out) == 2 {
			fanOut = nd
		}
	}
	if fanOut == nil {
		t.Fatal("no two-consumer peek found")
	}
	for _, e := range fanOut.Out {
		if got := g.Main.Nodes[e.To].AffPreferred; got == fanOut.ID {
			t.Fatalf("consumer n%d prefers multi-consumer producer n%d", e.To, fanOut.ID)
		}
	}
}

func TestAffinityClusterHeadExternalEdge(t *testing.T) {
	// After fusion, join+peek form a straight-line cluster whose external
	// producers are mk (owned fresh block) and use(x). The head's hint must
	// aggregate over member in-edges and pick the owned mk edge.
	src := `main(x)
  let a = mk()
      b = use(x)
      c = join(a, b)
  in peek(c)`
	g, _ := plan(t, src, nil) // memory plan first, like the compile driver
	fp := FuseGraph(g, nil)
	if fp.Clusters == 0 {
		t.Skip("fusion did not form a cluster for this shape")
	}
	p := PlanAffinity(g)
	join := node(t, g, g.Main, "join")
	if join.FuseCluster == nil {
		t.Skipf("join is not the cluster head (head=n%d)", join.FuseHead)
	}
	mk := node(t, g, g.Main, "mk")
	if join.AffPreferred != mk.ID {
		t.Fatalf("cluster head AffPreferred = %d, want mk n%d", join.AffPreferred, mk.ID)
	}
	if p.Hinted == 0 {
		t.Fatal("no hints stamped")
	}
}
