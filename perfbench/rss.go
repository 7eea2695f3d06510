package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// rssPeriod is how often the resident set is sampled during a measurement.
const rssPeriod = 10 * time.Millisecond

// rssSampler samples the process's resident set while a measurement runs.
// The process runs only one workload, so this is the workload's memory.
type rssSampler struct {
	start time.Time
	stop  chan struct{}
	done  chan struct{}
	at    []time.Duration
	mb    []float64
}

func startRSS() *rssSampler {
	s := &rssSampler{start: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssPeriod)
		defer tick.Stop()
		for {
			if mb, ok := residentMB(); ok {
				s.at = append(s.at, time.Since(s.start))
				s.mb = append(s.mb, mb)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// rssSlices is how many slices peak splits a measurement into: each spans
// a few garbage-collection cycles, so its highest sample is the top of the
// collector's sawtooth.
const rssSlices = 40

// peak stops the sampler and returns the median, over rssSlices equal
// slices of span, of each slice's highest sample: the peak resident set,
// robust to when in the run the garbage collector happened to run.
func (s *rssSampler) peak(span time.Duration) float64 {
	close(s.stop)
	<-s.done
	var peaks []float64
	for w := 0; w < rssSlices; w++ {
		lo, hi := span*time.Duration(w)/rssSlices, span*time.Duration(w+1)/rssSlices
		top := 0.0
		for i, at := range s.at {
			if at >= lo && at < hi && s.mb[i] > top {
				top = s.mb[i]
			}
		}
		if top > 0 {
			peaks = append(peaks, top)
		}
	}
	return median(peaks)
}

// residentMB reads the resident set, in MiB, from /proc/self/statm.
func residentMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}
