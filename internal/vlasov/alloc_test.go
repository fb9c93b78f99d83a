package vlasov

import (
	"math"
	"testing"

	"vlasov6d/internal/phase"
)

// TestStepSteadyStateZeroAlloc asserts the hot-loop contract: with one
// worker, a warmed-up 6D solver advances whole kick–drift–kick steps
// without allocating (pooled workers, cached CFL table, reused geometry).
func TestStepSteadyStateZeroAlloc(t *testing.T) {
	g, err := phase.New(6, 6, 6, [3]int{6, 6, 6}, [3]float64{100, 100, 100}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	fill(g, func(x, y, z, ux, uy, uz float64) float64 {
		return math.Exp(-(ux*ux + uy*uy + uz*uz) / (2 * 800 * 800))
	})
	g.SetWorkers(1)
	s, err := New(g, "slmpp5")
	if err != nil {
		t.Fatal(err)
	}
	s.SetWorkers(1)
	var acc [3][]float64
	for d := 0; d < 3; d++ {
		acc[d] = make([]float64, g.NCells())
		for c := range acc[d] {
			acc[d][c] = 30
		}
	}
	for i := 0; i < 2; i++ { // warm the worker pool and CFL table
		if err := s.Step(0.001, 1.0, acc); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := s.Step(0.001, 1.0, acc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestMomentsIntoSteadyStateZeroAlloc asserts that the reusable-buffer
// moment reduction is allocation-free once warmed, and agrees exactly with
// the allocating API.
func TestMomentsIntoSteadyStateZeroAlloc(t *testing.T) {
	g, err := phase.New(6, 6, 6, [3]int{6, 6, 6}, [3]float64{100, 100, 100}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	fill(g, func(x, y, z, ux, uy, uz float64) float64 {
		return 1 + 0.1*math.Sin(x/10) + math.Exp(-(ux*ux+uy*uy+uz*uz)/(2*500*500))
	})
	g.SetWorkers(1)
	fresh := g.ComputeMoments()
	var m *phase.Moments
	m = g.ComputeMomentsInto(m)
	allocs := testing.AllocsPerRun(10, func() {
		m = g.ComputeMomentsInto(m)
	})
	if allocs != 0 {
		t.Fatalf("warmed ComputeMomentsInto allocates %.1f allocs/op, want 0", allocs)
	}
	for c := range fresh.Density {
		if fresh.Density[c] != m.Density[c] || fresh.Sigma[c] != m.Sigma[c] {
			t.Fatalf("reused moments differ from fresh at cell %d", c)
		}
		for d := 0; d < 3; d++ {
			if fresh.MeanU[d][c] != m.MeanU[d][c] {
				t.Fatalf("reused MeanU[%d] differs from fresh at cell %d", d, c)
			}
		}
	}
}
