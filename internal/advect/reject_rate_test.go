package advect_test

import (
	"math"
	"testing"

	"vlasov6d/internal/advect"
	"vlasov6d/internal/plasma"
)

// rejectRate sums LaneRejects over the sweeps of a run.
type rejectRate struct{ values, rejected, rows, rejectedRows int }

func (r *rejectRate) add(values, rejected, rows, rejectedRows int) {
	r.values += values
	r.rejected += rejected
	r.rows += rows
	r.rejectedRows += rejectedRows
}

func (r rejectRate) perValue() float64 { return float64(r.rejected) / float64(r.values) }
func (r rejectRate) perRow() float64   { return float64(r.rejectedRows) / float64(r.rows) }

// TestLimiterRejectRates counts how often the limiter bounds in the plasma
// sweeps of landau_batch's run: the 64×256 Landau state (k = 0.5, vmax =
// 8, one worker) stepped from t = 0 to 25 as Step steps it, each kick and
// drift counted on the F it sweeps, in the rows the eight-lane kernel
// tests: the drift's one interface of eight adjacent lines, the kick's
// eight consecutive interfaces of one line. The eight-lane kernel bounds
// dense batches of rejected values, not the rows that hold one, and this
// is why: in the drift a row of eight lanes holds a rejected value several
// times as often as a single value fails. The test checks that premise
// loosely, the drift's rate per value in [1 %, 5 %] and its rate per row
// at least 4× that, and logs both layouts' rates.
func TestLimiterRejectRates(t *testing.T) {
	if testing.Short() {
		t.Skip("steps a 64×256 plasma to t = 25")
	}
	s, err := plasma.NewWithScheme(64, 256, 4*math.Pi, 8, "slmpp5")
	if err != nil {
		t.Fatal(err)
	}
	s.LandauInit(0.01, 0.5, 1)
	s.SetWorkers(1)
	var drift, kick rejectRate
	cx, cv := make([]float64, s.NV), make([]float64, s.NX)
	stride := len(s.F) / s.NX // F's rows are padded past NV
	owed, steps := 0.0, 0
	for ; s.Time < 25; steps++ {
		// Step's kick of the owed half and dt/2 under the field of the
		// current F, then its drift.
		dt := s.SuggestDT()
		h := owed + dt/2
		for i, e := range s.ElectricField() {
			cv[i] = -e * h / s.DV()
		}
		kick.add(advect.LaneRejects(s.F, 0, stride, 1, s.NV, cv, true))
		if err := s.KickStep(h); err != nil {
			t.Fatal(err)
		}
		for j := range cx {
			cx[j] = s.V(j) * dt / s.DX()
		}
		drift.add(advect.LaneRejects(s.F, 0, 1, stride, s.NX, cx, false))
		if err := s.DriftStep(dt); err != nil {
			t.Fatal(err)
		}
		s.Time += dt
		owed = dt / 2
	}
	t.Logf("%d steps to t = %.3f: drift rejects %.2f %% of values, %.2f %% of rows of eight lines; kick %.2f %% of values, %.2f %% of rows of eight interfaces",
		steps, s.Time, 100*drift.perValue(), 100*drift.perRow(), 100*kick.perValue(), 100*kick.perRow())
	if r := drift.perValue(); r < 0.01 || r > 0.05 {
		t.Errorf("drift rejects %.2f %% of values, want 1–5 %%", 100*r)
	}
	if drift.perRow() < 4*drift.perValue() {
		t.Errorf("drift rejects %.2f %% of rows, want at least 4× its %.2f %% of values", 100*drift.perRow(), 100*drift.perValue())
	}
}
