package plasma

import (
	"math"
	"testing"
)

// TestStepSteadyStateZeroAlloc asserts the hot-loop contract: with one
// worker, a warmed-up solver advances whole split steps (field solve
// included) without allocating.
func TestStepSteadyStateZeroAlloc(t *testing.T) {
	s, err := New(64, 64, 4*math.Pi, 8)
	if err != nil {
		t.Fatal(err)
	}
	s.LandauInit(0.01, 0.5, 1)
	s.SetWorkers(1)
	for i := 0; i < 3; i++ { // warm every cached buffer
		if err := s.Step(0.05); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := s.Step(0.05); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestParallelWorkerPoolReused checks that the parallel path reuses its
// worker pool across steps and stays physically identical to serial.
func TestParallelWorkerPoolReused(t *testing.T) {
	mk := func(workers int) *Solver {
		s, err := New(32, 32, 4*math.Pi, 8)
		if err != nil {
			t.Fatal(err)
		}
		s.LandauInit(0.01, 0.5, 1)
		s.SetWorkers(workers)
		for i := 0; i < 5; i++ {
			if err := s.Step(0.05); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	ref, par := mk(1), mk(3)
	last := par.pool.Worker(2)
	for _, s := range []*Solver{ref, par} {
		if err := s.Step(0.05); err != nil {
			t.Fatal(err)
		}
	}
	if par.pool.Worker(2) != last {
		t.Fatal("parallel stepping rebuilt a pooled worker")
	}
	for i := range ref.F {
		if ref.F[i] != par.F[i] {
			t.Fatalf("F[%d] differs between 1 and 3 workers: %v vs %v", i, ref.F[i], par.F[i])
		}
	}
}
