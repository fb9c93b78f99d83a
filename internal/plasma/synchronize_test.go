package plasma

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

func requireSameF(t *testing.T, what string, a, b *Solver) {
	t.Helper()
	for i := range a.F {
		if a.F[i] != b.F[i] {
			t.Fatalf("%s: F differs at %d: %v vs %v", what, i, a.F[i], b.F[i])
		}
	}
}

// solvedField reports whether fn solved the field: a solve recomputes the
// whole density, so a poisoned entry survives only if there was none.
func solvedField(s *Solver, fn func()) bool {
	s.rho[0] = math.NaN()
	fn()
	return !math.IsNaN(s.rho[0])
}

// TestStepOwesOneKickUntilSynchronized pins the sequence a step runs, bit
// for bit against its phases: one kick of the owed half plus dt/2 under the
// cached field (doubled here behind the solver's back — a kick that solved
// again would not see that), one drift, and the field solve, which
// SuggestDT and Diagnostics then read for free; Synchronize is the owed half
// kick under that same field.
func TestStepOwesOneKickUntilSynchronized(t *testing.T) {
	s, twin := landauSolver(t, "slmpp5"), landauSolver(t, "slmpp5")
	s.ElectricField()
	owed := 0.0
	for _, dt := range []float64{0.05, 0.03, 0.04} {
		for i := range s.e {
			s.e[i] *= 2
		}
		field := slices.Clone(s.e)
		if err := s.Step(dt); err != nil {
			t.Fatal(err)
		}
		if err := twin.kick(owed+dt/2, field); err != nil {
			t.Fatal(err)
		}
		if err := twin.DriftStep(dt); err != nil {
			t.Fatal(err)
		}
		owed = dt / 2
		requireSameF(t, "Step vs kick(owed + dt/2) under the cached field, drift(dt)", s, twin)
		if !s.fieldValid || !slices.Equal(s.e, twin.ElectricField()) {
			t.Fatal("a step did not leave the field of its new density behind")
		}
		if solvedField(s, func() { s.SuggestDT(); s.Diagnostics() }) {
			t.Fatal("SuggestDT or Diagnostics after a step solved the field again")
		}
	}
	if solvedField(s, func() {
		if err := s.Synchronize(); err != nil {
			t.Fatal(err)
		}
	}) {
		t.Fatal("Synchronize solved the field before its kick")
	}
	if err := twin.KickStep(owed); err != nil {
		t.Fatal(err)
	}
	requireSameF(t, "Synchronize vs kick(owed)", s, twin)
}

// TestSynchronizeIsIdempotent: Synchronize changes the state once after a
// step, and nothing on a fresh, a synchronised or a restored solver.
func TestSynchronizeIsIdempotent(t *testing.T) {
	s := landauSolver(t, "slmpp5")
	noOp := func(what string, s *Solver) {
		t.Helper()
		before, valid := slices.Clone(s.F), s.fieldValid
		if err := s.Synchronize(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(before, s.F) || s.fieldValid != valid {
			t.Fatalf("Synchronize on a %s solver changed F or dropped its field", what)
		}
	}
	noOp("fresh", s)
	stepN(t, s, 3, 0.05)
	before := slices.Clone(s.F)
	if err := s.Synchronize(); err != nil {
		t.Fatal(err)
	}
	if slices.Equal(before, s.F) {
		t.Fatal("Synchronize after a step applied no kick")
	}
	noOp("synchronised", s)

	stepN(t, s, 2, 0.05)
	var buf bytes.Buffer
	if _, err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	noOp("checkpointed", s)
	r, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	requireSameF(t, "snapshot vs the live state it synchronised", r, s)
	noOp("restored", r)
}

// TestFusedStepsMatchSynchronizedSteps: a run that fuses adjacent half
// kicks and one that applies every half kick on its own integrate the same
// splitting; they differ by one interpolation per step at a CFL of order
// 1e-3, far inside the scheme's own truncation error.
func TestFusedStepsMatchSynchronizedSteps(t *testing.T) {
	fused, split := landauSolver(t, "slmpp5"), landauSolver(t, "slmpp5")
	for i := 0; i < 40; i++ {
		dt := 0.03 + 0.001*float64(i%7) // adjacent steps differ
		if err := fused.Step(dt); err != nil {
			t.Fatal(err)
		}
		if err := split.Step(dt); err != nil {
			t.Fatal(err)
		}
		if err := split.Synchronize(); err != nil {
			t.Fatal(err)
		}
	}
	if err := fused.Synchronize(); err != nil {
		t.Fatal(err)
	}
	if fused.Time != split.Time {
		t.Fatalf("clocks differ: %v vs %v", fused.Time, split.Time)
	}
	maxF, maxDiff := 0.0, 0.0
	for i, v := range split.F {
		maxF = math.Max(maxF, v)
		maxDiff = math.Max(maxDiff, math.Abs(v-fused.F[i]))
	}
	const tol = 1e-8 // measured 7e-10
	if maxDiff > tol*maxF {
		t.Fatalf("fused and synchronised runs differ by %.3g of max f, tolerance %g", maxDiff/maxF, tol)
	}
	if ef, es := fused.FieldEnergy(), split.FieldEnergy(); math.Abs(ef-es) > 1e-6*es {
		t.Fatalf("field energies differ: %v vs %v", ef, es)
	}
}

// TestRefillDropsCachedField: re-initialising a solver that has stepped
// must leave nothing of the old state behind — not the field SuggestDT and
// Diagnostics read, not the half kick the last step owed.
func TestRefillDropsCachedField(t *testing.T) {
	s := landauSolver(t, "slmpp5") // α = 0.01
	stepN(t, s, 5, 0.05)
	s.LandauInit(0.2, 0.5, 1)
	fresh, err := NewWithScheme(s.NX, s.NV, s.L, s.VMax, "slmpp5")
	if err != nil {
		t.Fatal(err)
	}
	fresh.LandauInit(0.2, 0.5, 1)
	if got, want := s.Diagnostics().Extra["field_energy"], fresh.Diagnostics().Extra["field_energy"]; got != want {
		t.Fatalf("refilled solver reports field energy %v, a fresh one %v", got, want)
	}
	if got, want := s.SuggestDT(), fresh.SuggestDT(); got != want {
		t.Fatalf("refilled solver suggests dt %v, a fresh one %v", got, want)
	}
	stepN(t, s, 1, 0.05)
	stepN(t, fresh, 1, 0.05)
	requireSameF(t, "first step after a refill vs a fresh solver", s, fresh)
}
