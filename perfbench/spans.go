package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request or
// run share a trace id; parent is the index of the enclosing span in the
// recorder, or -1 for a root.
type span struct {
	trace  int64
	parent int
	name   string
	start  int64 // nanoseconds since the recorder's epoch
	end    int64
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps every span of a traced run in memory; they are analysed
// (and optionally written out) when the run ends. A nil *recorder records
// nothing, so untraced code paths call it unconditionally.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	next  int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// newTrace returns a fresh trace id.
func (r *recorder) newTrace() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// begin opens a span and returns its index for end.
func (r *recorder) begin(trace int64, parent int, name string) int {
	if r == nil {
		return -1
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{trace: trace, parent: parent, name: name, start: t, end: -1})
	return len(r.spans) - 1
}

// end closes the span begin returned and gives its duration.
func (r *recorder) end(i int) time.Duration {
	if r == nil || i < 0 {
		return 0
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].end = t
	return time.Duration(r.spans[i].dur())
}

// add records an already-measured span.
func (r *recorder) add(trace int64, parent int, name string, start, end int64) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{trace: trace, parent: parent, name: name, start: start, end: end})
	return len(r.spans) - 1
}

// snapshot returns a copy of the closed spans, indices preserved.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// covered returns how many nanoseconds of [start, end) the intervals cover,
// counting overlapping stretches once.
func covered(start, end int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], start), min(iv[1], end)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range clipped {
		if open && iv[0] <= curB {
			curB = max(curB, iv[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = iv[0], iv[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTimes gives each span's self time: its duration minus the part of
// its interval that its direct children cover. Overlapping children (the
// workers of a parallel run) are counted once.
func selfTimes(spans []span) []int64 {
	kids := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 && s.end >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		self[i] = s.dur() - covered(s.start, s.end, kids[i])
	}
	return self
}

// selfByName sums self time and counts spans per name.
func selfByName(spans []span, self []int64) map[string]*nameAgg {
	out := make(map[string]*nameAgg)
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		a := out[s.name]
		if a == nil {
			a = &nameAgg{}
			out[s.name] = a
		}
		a.count++
		a.self += self[i]
		a.total += s.dur()
		a.selfs = append(a.selfs, float64(self[i]))
		a.totals = append(a.totals, float64(s.dur()))
	}
	return out
}

type nameAgg struct {
	count         int
	self, total   int64
	selfs, totals []float64
}

// accountingTolerance is how far the self times of a serial span tree may
// drift from its root's wall time before the trace counts as inconsistent.
// Children of a serial tree never overlap, so the sum is exact up to clock
// reads; the tolerance only absorbs spans that were closed out of order.
const accountingTolerance = 0.01

// checkAccounting verifies, for every root span whose tree is serial (no
// two siblings overlap), that the self times of the whole tree add up to
// the root's wall time within accountingTolerance. It returns the number
// of serial roots checked and the worst relative error seen.
func checkAccounting(spans []span, self []int64) (roots int, worst float64) {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	var walk func(i int) (sum int64, serial bool)
	walk = func(i int) (int64, bool) {
		sum, serial := self[i], true
		var ivs [][2]int64
		for _, k := range kids[i] {
			ks, kserial := walk(k)
			sum += ks
			serial = serial && kserial
			ivs = append(ivs, [2]int64{spans[k].start, spans[k].end})
		}
		// Siblings overlap when their clipped lengths add up to more than
		// the stretch they cover together.
		var plain int64
		for _, iv := range ivs {
			plain += covered(spans[i].start, spans[i].end, [][2]int64{iv})
		}
		if plain != covered(spans[i].start, spans[i].end, ivs) {
			serial = false
		}
		return sum, serial
	}
	for i, s := range spans {
		if s.parent >= 0 || s.end < 0 || s.dur() == 0 {
			continue
		}
		sum, serial := walk(i)
		if !serial {
			continue
		}
		roots++
		if e := abs64(float64(sum-s.dur())) / float64(s.dur()); e > worst {
			worst = e
		}
	}
	return roots, worst
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// writeSpans writes every span, one CSV line each, to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index,trace,parent,name,start_ns,end_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i, s.trace, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summarize writes each span name's count, total and self time, largest
// self time first.
func summarize(w io.Writer, by map[string]*nameAgg) {
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]].self > by[names[j]].self })
	fmt.Fprintf(w, "%-28s %9s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "%-28s %9d %12.3f %12.3f\n", n, a.count, float64(a.total)/1e6, float64(a.self)/1e6)
	}
}
