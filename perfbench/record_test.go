package main

import (
	"testing"
	"time"
)

// TestCycleTiming pins how a run turns its samples into end-to-end
// times: a position's time is its clean time even when a minority of
// its repetitions ran during a burst, percentiles are taken over the
// positions, and throughput is the cycle's checks over the cycle's
// summed step times.
func TestCycleTiming(t *testing.T) {
	r := newRun("x", 1, false)
	r.lastProbe = time.Now().Add(time.Hour) // no probes
	ms := time.Millisecond
	clean := []time.Duration{1 * ms, 2 * ms, 4 * ms}
	for rep := 0; rep < 10; rep++ {
		for pos, d := range clean {
			if rep%5 == 0 {
				d *= 3 // a burst of the machine's other guests
			}
			r.check(d, true, pos)
			r.step(pos, d)
		}
	}
	// A mutation-only step, as the served workload's /deltas batches.
	for rep := 0; rep < 10; rep++ {
		r.step(3, 3*ms)
	}
	if got := r.checkPct(0.5); got != 2*ms {
		t.Errorf("p50 = %v, want 2ms", got)
	}
	if got := r.checkPct(0.9); got != 4*ms {
		t.Errorf("p90 = %v, want 4ms", got)
	}
	if got, want := r.checksPerSecond(), 3/(10*ms).Seconds(); got != want {
		t.Errorf("checks/s = %v, want %v", got, want)
	}
	if got := r.speed(); got != 1 {
		t.Errorf("speed without probes = %v, want 1", got)
	}
	r.probes = durations{2 * probeNominal, 2 * probeNominal, probeNominal / 2}
	if got := r.speed(); got != 0.5 {
		t.Errorf("speed with the probe at twice its nominal time = %v, want 0.5", got)
	}
}
