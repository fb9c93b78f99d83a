package vlasov6d

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"vlasov6d/internal/analysis"
	"vlasov6d/internal/runner"
	"vlasov6d/internal/sched"
)

// TestGoldenStateFingerprint pins the evolved state bit for bit: a short
// hybrid run (ν grid + CDM particles) and a short Landau run go through Run,
// and an FNV-64 of the float bits of f and the particle positions must match
// the recorded constants. Any change that moves a bit of the kernel, the
// sweeps or the force fails it; a change that moves bits on purpose updates
// the constants and says why. amd64 only: other targets may fuse
// multiply-adds and round differently.
func TestGoldenStateFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fingerprints are recorded on amd64, not %s", runtime.GOARCH)
	}
	const (
		hybridF    uint64 = 0x6b6880dc4bbd7ffe
		hybridPos  uint64 = 0x9968eb423f6450d1
		hybridLoss        = 34.180409840173652
		landauF    uint64 = 0xe9de87e97370d51a
	)
	fingerprint := func(floats ...any) uint64 {
		h := fnv.New64a()
		for _, f := range floats {
			if err := binary.Write(h, binary.LittleEndian, f); err != nil {
				t.Fatal(err)
			}
		}
		return h.Sum64()
	}
	ctx := context.Background()

	sim, err := NewSimulation(Config{
		Par: Planck2015(0.4), Box: 200, NGrid: 6, NU: 6, NPartSide: 6, Seed: 1,
		Workers: 1,
	}, 1.0/11, WithPMFactor(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ctx, sim, 1, WithMaxSteps(4)); err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(sim.Grid.Data); got != hybridF {
		t.Errorf("hybrid f fingerprint %#x, want %#x", got, hybridF)
	}
	pos := sim.Part.Pos
	if got := fingerprint(pos[0], pos[1], pos[2]); got != hybridPos {
		t.Errorf("hybrid particle fingerprint %#x, want %#x", got, hybridPos)
	}
	// The boundary loss is a sum in the sweeps' gather order: held to 1e-9,
	// not to the bit.
	if loss := sim.VSol.BoundaryLoss; math.Abs(loss-hybridLoss) > 1e-9*math.Abs(hybridLoss) {
		t.Errorf("hybrid boundary loss %.17g, want %.17g", loss, hybridLoss)
	}

	ps, err := NewPlasmaSolverWithScheme(64, 256, 4*math.Pi, 8, "slmpp5")
	if err != nil {
		t.Fatal(err)
	}
	ps.SetWorkers(1)
	ps.LandauInit(0.01, 0.5, 1)
	if _, err := Run(ctx, ps, 1e9, WithMaxSteps(300)); err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(ps.F); got != landauF {
		t.Errorf("Landau f fingerprint %#x, want %#x", got, landauF)
	}
}

// TestGoldenLandauDampingRate is the physics regression gate for the
// runner/scheduler stack: the 1D1V Landau-damping problem, driven through
// the same Run call every scheduler layer bottoms out in, must reproduce
// the kinetic-theory damping rate for both the paper's SL-MPP5 scheme and
// the MP5 comparator. A refactor of the driver, the batch layer or the
// stream layer that corrupts stepping, clocking or observer delivery
// cannot pass this test silently.
func TestGoldenLandauDampingRate(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second physics run; the plain CI job covers it")
	}
	const (
		k     = 0.5
		alpha = 0.01
		until = 25.0
	)
	theory := LandauDampingRate(k, 1) // γ ≈ −0.1533 at k·λ_D = 0.5
	for _, scheme := range []string{"slmpp5", "mp5"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			s, err := NewPlasmaSolverWithScheme(64, 256, 2*math.Pi/k, 8, scheme)
			if err != nil {
				t.Fatal(err)
			}
			s.LandauInit(alpha, k, 1)
			// Adaptive stepping: SuggestDT caps the step at each scheme's
			// own stability limit (MP5 requires CFL ≤ 1; SL-MPP5 does not).
			var fit analysis.DecayFit
			rep, err := Run(context.Background(), s, until,
				WithObserver(func(step int, sv Solver) error {
					d := sv.Diagnostics()
					fit.Add(d.Time, d.Extra["field_energy"])
					return nil
				}))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Reason != ReasonUntil {
				t.Fatalf("stop reason %v", rep.Reason)
			}
			if fit.Peaks() < 3 {
				t.Fatalf("only %d field-energy peaks: no trustworthy fit", fit.Peaks())
			}
			gamma := fit.Gamma()
			if relErr := math.Abs(gamma-theory) / math.Abs(theory); relErr > 0.15 {
				t.Fatalf("%s: fitted γ = %.4f, theory %.4f (rel err %.1f%%)",
					scheme, gamma, theory, 100*relErr)
			}
		})
	}
}

// TestGoldenLandauBudgetedDeterminism gates the CPU-budget layer's physics
// contract: the worker count must never change the physics. The golden
// Landau case is run once with its default GOMAXPROCS workers and once
// pinned to a single core through a worker-budget lease, and the two fitted
// damping rates must be IDENTICAL — not merely close — because every sweep
// line is computed by the same floating-point operations regardless of how
// many goroutines share them. Any divergence means the budget plumbing
// leaked into the numerics.
func TestGoldenLandauBudgetedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second physics run; the plain CI job covers it")
	}
	const (
		k     = 0.5
		alpha = 0.01
		until = 25.0
	)
	run := func(opts ...RunOption) float64 {
		t.Helper()
		s, err := NewPlasmaSolverWithScheme(64, 256, 2*math.Pi/k, 8, "slmpp5")
		if err != nil {
			t.Fatal(err)
		}
		s.LandauInit(alpha, k, 1)
		var fit analysis.DecayFit
		opts = append(opts, WithObserver(func(step int, sv Solver) error {
			d := sv.Diagnostics()
			fit.Add(d.Time, d.Extra["field_energy"])
			return nil
		}))
		rep, err := Run(context.Background(), s, until, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Reason != ReasonUntil {
			t.Fatalf("stop reason %v", rep.Reason)
		}
		if fit.Peaks() < 3 {
			t.Fatalf("only %d field-energy peaks: no trustworthy fit", fit.Peaks())
		}
		return fit.Gamma()
	}
	base := run() // GOMAXPROCS intra-step workers, unbudgeted
	lease, err := sched.NewCoreBudget(1).AcquireClaim(context.Background(), sched.Claim{})
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	budgeted := run(runner.WithWorkerBudget(lease)) // pinned to one core
	if budgeted != base {
		t.Fatalf("budgeted γ = %v != GOMAXPROCS(%d) γ = %v: the worker count changed the physics",
			budgeted, runtime.GOMAXPROCS(0), base)
	}
}
