package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {90, 4.6}, {100, 5}, {25, 2},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("no samples: got %v, want NaN", got)
	}
}

func TestE2ESummary(t *testing.T) {
	// Nine slices of one second; every slice but one holds operations of
	// 2 ms, the odd one of 50 ms. Every slice holds windowSamples
	// operations, so the odd slice moves neither the percentiles nor the
	// throughput.
	var recs []opRec
	for w := 0; w < e2eWindows; w++ {
		d := 2 * time.Millisecond
		if w == 4 {
			d = 50 * time.Millisecond
		}
		for i := 0; i < windowSamples; i++ {
			at := time.Duration(w)*time.Second + time.Duration(i)*5*time.Millisecond
			recs = append(recs, opRec{at: at, d: d, ok: true})
		}
	}
	p50, p90, tput := e2eSummary(recs, e2eWindows*time.Second, 0)
	if p50 != 2 || p90 != 2 || tput != windowSamples {
		t.Errorf("e2eSummary = %v ms, %v ms, %v/s; want 2, 2, %v", p50, p90, tput, windowSamples)
	}
	_, _, busy := e2eSummary(recs, e2eWindows*time.Second, 1)
	if busy != 500 {
		t.Errorf("busy throughput = %v, want 500 (one op per 2 ms of operation time)", busy)
	}
	// Fewer than two slices' worth of operations make one slice: the
	// percentiles count every operation.
	var short []opRec
	for i := 0; i < 150; i++ {
		d := 2 * time.Millisecond
		if i >= 120 {
			d = 50 * time.Millisecond
		}
		short = append(short, opRec{at: time.Duration(i) * time.Millisecond, d: d, ok: true})
	}
	p50, p90, _ = e2eSummary(short, time.Second, 0)
	if p50 != 2 || p90 != 50 {
		t.Errorf("one slice: percentiles %v ms, %v ms; want 2, 50", p50, p90)
	}
}

func TestE2ESummaryWholeCycles(t *testing.T) {
	// A mix of one 1 ms and one 3 ms operation: every slice holds whole
	// cycles, so each has the mix's rate of 2 ops per 4 ms, however the
	// operations fall; the 5 ops beyond the last whole slice are left out.
	var recs []opRec
	for i := 0; i < e2eWindows*windowSamples+5; i++ {
		d := time.Millisecond
		if i%2 == 1 {
			d = 3 * time.Millisecond
		}
		recs = append(recs, opRec{d: d, ok: true})
	}
	if _, _, tput := e2eSummary(recs, time.Second, 2); tput != 500 {
		t.Errorf("throughput = %v, want 500", tput)
	}
	// Less than one whole cycle: one slice of every operation.
	if _, _, tput := e2eSummary(recs[:1], time.Second, 2); math.Abs(tput-1000) > 1e-9 {
		t.Errorf("short run: throughput = %v, want 1000", tput)
	}
	if _, _, tput := e2eSummary(nil, time.Second, 2); !math.IsNaN(tput) {
		t.Errorf("no operations: throughput = %v, want NaN", tput)
	}
}

func TestRSSPeakIsMedianOfSlicePeaks(t *testing.T) {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	close(s.done)
	for w := 0; w < rssSlices; w++ {
		top := 10.0
		if w == 2 {
			top = 30 // one slice's spike does not set the figure
		}
		s.at = append(s.at, time.Duration(w)*time.Second, time.Duration(w)*time.Second+time.Millisecond)
		s.mb = append(s.mb, 5, top)
	}
	if got := s.peak(rssSlices * time.Second); got != 10 {
		t.Errorf("peak = %v, want 10", got)
	}
}
