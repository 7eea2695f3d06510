package main

import "testing"

func TestSelfTimesNested(t *testing.T) {
	spans := []span{
		{trace: 1, parent: -1, name: "root", start: 0, end: 100},
		{trace: 1, parent: 0, name: "a", start: 10, end: 40},
		{trace: 1, parent: 1, name: "a1", start: 20, end: 30},
		{trace: 1, parent: 0, name: "b", start: 50, end: 90},
	}
	self := selfTimes(spans)
	want := []int64{30, 20, 10, 40}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%s] = %d, want %d", spans[i].name, self[i], want[i])
		}
	}
	roots, worst := checkAccounting(spans, self)
	if roots != 1 || worst != 0 {
		t.Errorf("checkAccounting = %d roots, worst %v; want 1, 0", roots, worst)
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	// Two workers' operators overlap inside one run: the overlap counts once.
	spans := []span{
		{parent: -1, name: "run", start: 0, end: 100},
		{parent: 0, name: "op", start: 10, end: 60},
		{parent: 0, name: "op", start: 40, end: 80},
	}
	self := selfTimes(spans)
	if self[0] != 30 {
		t.Errorf("run self = %d, want 30 (100 minus the 70 its children cover)", self[0])
	}
	by := selfByName(spans, self)
	if a := by["op"]; a.count != 2 || a.self != 90 {
		t.Errorf("op aggregate = %d spans, %d ns self; want 2, 90", a.count, a.self)
	}
	// Overlapping children are not a serial tree, so the sum check skips it.
	if roots, _ := checkAccounting(spans, self); roots != 0 {
		t.Errorf("checked %d roots, want 0", roots)
	}
}

func TestAccountingCatchesMisnestedSpan(t *testing.T) {
	// A child that outlives its parent breaks the identity the check
	// relies on: self times then sum past the root's wall time.
	spans := []span{
		{parent: -1, name: "root", start: 0, end: 50},
		{parent: 0, name: "child", start: 40, end: 70},
	}
	self := selfTimes(spans)
	if self[0] != 40 {
		t.Errorf("root self = %d, want 40 (only 10 of the child lies inside)", self[0])
	}
	roots, worst := checkAccounting(spans, self)
	if roots != 1 || worst <= accountingTolerance {
		t.Errorf("checkAccounting = %d roots, worst %v; want 1 root beyond tolerance", roots, worst)
	}
}

func TestRecorder(t *testing.T) {
	r := newRecorder()
	tr := r.newTrace()
	root := r.begin(tr, -1, "root")
	child := r.begin(tr, root, "child")
	r.end(child)
	r.end(root)
	spans := r.snapshot()
	if len(spans) != 2 || spans[1].parent != root || spans[0].trace != spans[1].trace {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].start > spans[1].start || spans[1].end > spans[0].end {
		t.Errorf("child not inside root: %+v", spans)
	}
	var nilRec *recorder
	if i := nilRec.begin(1, -1, "x"); i != -1 || nilRec.end(i) != 0 || nilRec.newTrace() != 0 {
		t.Errorf("nil recorder should record nothing")
	}
}
