package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestPoissonScheduleDeterministic(t *testing.T) {
	a := poissonSchedule(7, 200, 30*time.Second)
	b := poissonSchedule(7, 200, 30*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := poissonSchedule(8, 200, 30*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule goes back in time at %d", i)
		}
	}
	if a[len(a)-1] >= 30*time.Second {
		t.Fatalf("schedule runs past its duration: %v", a[len(a)-1])
	}
	// 6000 expected arrivals; a Poisson count is within 5% with
	// overwhelming probability.
	if n := float64(len(a)); math.Abs(n-6000)/6000 > 0.05 {
		t.Errorf("%v arrivals, want about 6000", n)
	}
}

func TestDrawsDeterministic(t *testing.T) {
	draw := intDraw(3, 50_000, collatzRef)
	r1, r2 := newRand(3), newRand(3)
	for i := 0; i < 50; i++ {
		a, b := draw(r1), draw(r2)
		if !reflect.DeepEqual(a.args, b.args) {
			t.Fatalf("draw %d: %v vs %v", i, a.args, b.args)
		}
	}
}

func TestParseMetrics(t *testing.T) {
	text := `# HELP delserver_runs_total successful runs
# TYPE delserver_runs_total counter
delserver_runs_total{program="fib"} 12
delserver_runs_total{program="jacobi"} 3
delserver_runs_shed_total 2
`
	m := parseMetrics(text)
	if m["delserver_runs_total"] != 15 || m["delserver_runs_shed_total"] != 2 {
		t.Errorf("parseMetrics = %v", m)
	}
}
