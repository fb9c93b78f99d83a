package plasma

import (
	"io"
	"math"
	"testing"
)

// TestStepSteadyStateZeroAlloc asserts the hot-loop contract: with one
// worker, a warmed-up solver advances whole split steps (field solve
// included) without allocating — on a 64×64 grid, whose lines all go four
// at a time through StepLanes, and on 66×66, which leaves two drift lines
// and two kick rows to the per-line kernel.
func TestStepSteadyStateZeroAlloc(t *testing.T) {
	for _, n := range []int{64, 66} {
		s, err := NewWithScheme(n, n, 4*math.Pi, 8, "slmpp5")
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
			t.Fatalf("%d×%d: steady-state Step allocates %.1f allocs/op, want 0", n, n, allocs)
		}
	}
}

// TestParallelWorkerPoolReused checks that the parallel path reuses its
// worker pool across steps and stays physically identical to serial.
func TestParallelWorkerPoolReused(t *testing.T) {
	mk := func(workers int) *Solver {
		s, err := NewWithScheme(32, 32, 4*math.Pi, 8, "slmpp5")
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

// landauState is the benchmark's Landau shape (64×256, k = 0.5, vmax = 8)
// with one worker, stepped at SuggestDT three times and on to t = until.
func landauState(b *testing.B, until float64) (*Solver, float64) {
	s, err := NewWithScheme(64, 256, 4*math.Pi, 8, "slmpp5")
	if err != nil {
		b.Fatal(err)
	}
	s.LandauInit(0.01, 0.5, 1)
	s.SetWorkers(1)
	for i := 0; i < 3 || s.Time < until; i++ {
		if err := s.Step(s.SuggestDT()); err != nil {
			b.Fatal(err)
		}
	}
	return s, s.SuggestDT()
}

// BenchmarkSetup64x256 is landau_batch's set-up on the solver's side: a
// 64×256 solver built, given the Landau state, stepped once and
// checkpointed (to io.Discard), with one worker.
func BenchmarkSetup64x256(b *testing.B) {
	for b.Loop() {
		s, err := NewWithScheme(64, 256, 4*math.Pi, 8, "slmpp5")
		if err != nil {
			b.Fatal(err)
		}
		s.SetWorkers(1)
		s.LandauInit(0.01, 0.5, 1)
		if err := s.Step(s.SuggestDT()); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Checkpoint(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// stepWindow is how many steps BenchmarkStep64x256 takes from the Landau
// state before it puts the state back: SuggestDT's ≈ 0.0098 (the drift's
// CFL target 0.4 at vmax = 8) reaches t = 25, landau_batch's until, in
// ≈ 2 550 steps.
const stepWindow = 2500

// BenchmarkStep64x256 is one split step of the Landau state with one
// worker, at the step SuggestDT gives: the op landau_batch times. Every
// stepWindow ops the timer stops and the state goes back to the one
// landauState left, so at any -benchtime the steps cover t ≈ 0–24.5, the
// range landau_batch steps through (fewer ops cover its start only).
func BenchmarkStep64x256(b *testing.B) {
	s, _ := landauState(b, 0)
	f0, t0, owed0 := append([]float64(nil), s.F...), s.Time, s.owed
	for i := 0; b.Loop(); i++ {
		if i > 0 && i%stepWindow == 0 {
			// What a step reads of the solver: F, the clock, the owed half
			// kick and the field of F, solved as the step that left it did.
			b.StopTimer()
			copy(s.F, f0)
			s.Time, s.owed = t0, owed0
			s.ElectricField()
			b.StartTimer()
		}
		if err := s.Step(s.SuggestDT()); err != nil {
			b.Fatal(err)
		}
	}
}

// midRun is the time of the fixed state BenchmarkDrift64x256 and
// BenchmarkKick64x256 sweep: the middle of landau_batch's t = 0–25. From
// t ≈ 5 on, 19–22 % of the drift's eight-lane rows hold a value the limiter
// rejects (2.6 % of values; TestLimiterRejectRates in internal/advect
// counts them); at t ≈ 0.04 only 3.6 % do, with five of their eight lanes
// rejecting, so an early state would time a limiter the run rarely sees.
const midRun = 12.5

// BenchmarkDrift64x256 is one x-drift of the Landau state at t = midRun:
// 256 periodic lines of 64 cells, adjacent in memory across lines. Every op
// drifts the same F, put back with the timer stopped: drifting one F on
// and on would filament it and move the limiter's reject rate with
// -benchtime.
func BenchmarkDrift64x256(b *testing.B) {
	s, dt := landauState(b, midRun)
	f0 := append([]float64(nil), s.F...)
	for b.Loop() {
		b.StopTimer()
		copy(s.F, f0)
		b.StartTimer()
		if err := s.drift(dt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKick64x256 is one v-kick of the Landau state at t = midRun: 64
// open rows of 256 cells under the cached field. Every op kicks the same
// F, put back with the timer stopped.
func BenchmarkKick64x256(b *testing.B) {
	s, dt := landauState(b, midRun)
	e := s.currentField()
	f0 := append([]float64(nil), s.F...)
	for b.Loop() {
		b.StopTimer()
		copy(s.F, f0)
		b.StartTimer()
		if err := s.kick(dt, e); err != nil {
			b.Fatal(err)
		}
	}
}
