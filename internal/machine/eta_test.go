package machine

import (
	"math"
	"testing"
)

// TestETAEstimatorSteadyRate checks the basic projection: a run advancing
// its clock at a constant rate projects remaining/rate.
func TestETAEstimatorSteadyRate(t *testing.T) {
	e := NewETAEstimator(10)
	if _, ok := e.ETASeconds(); ok {
		t.Fatal("ETA before any samples")
	}
	e.Observe(1, 1)
	if _, ok := e.ETASeconds(); ok {
		t.Fatal("ETA after a single sample: one point has no rate")
	}
	// 1 clock unit per wall second.
	for w := 2.0; w <= 5; w++ {
		e.Observe(w, w)
	}
	eta, ok := e.ETASeconds()
	if !ok {
		t.Fatal("no ETA after steady samples")
	}
	// At wall 5 the clock is 5, target 10, rate 1 → 5 seconds remain.
	if math.Abs(eta-5) > 1e-9 {
		t.Fatalf("eta %g, want 5", eta)
	}
}

// TestETAEstimatorSlowingRun checks the EWMA tracks drift: when the run
// slows, the projection grows beyond the naive whole-history average.
func TestETAEstimatorSlowingRun(t *testing.T) {
	e := NewETAEstimator(100)
	w, c := 0.0, 0.0
	for i := 0; i < 20; i++ { // fast phase: 2 clock/s
		w, c = w+1, c+2
		e.Observe(w, c)
	}
	for i := 0; i < 30; i++ { // slow phase: 0.5 clock/s
		w, c = w+1, c+0.5
		e.Observe(w, c)
	}
	eta, ok := e.ETASeconds()
	if !ok {
		t.Fatal("no ETA")
	}
	remaining := 100 - c
	if naive := remaining / (c / w); eta <= naive {
		t.Fatalf("eta %g did not adapt to the slowdown (whole-history average %g)", eta, naive)
	}
	if eta < remaining/0.5*0.8 || eta > remaining/0.5*1.2 {
		t.Fatalf("eta %g far from the converged slow-phase projection %g", eta, remaining/0.5)
	}
}

// TestETAEstimatorEdgeCases: zero wall advance must not divide by zero, a
// run past its target reports zero, a stalled run reports no ETA.
func TestETAEstimatorEdgeCases(t *testing.T) {
	e := NewETAEstimator(1)
	e.Observe(1, 0.5)
	e.Observe(1, 0.6) // same wall instant: folded into the next interval
	e.Observe(2, 2)   // past the target
	eta, ok := e.ETASeconds()
	if !ok || eta != 0 {
		t.Fatalf("past-target eta = %g, %v; want 0, true", eta, ok)
	}

	stalled := NewETAEstimator(10)
	stalled.Observe(1, 1)
	stalled.Observe(2, 1) // zero clock advance → rate 0
	if _, ok := stalled.ETASeconds(); ok {
		t.Fatal("stalled run produced an ETA")
	}
}
