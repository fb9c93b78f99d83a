package hybrid

import (
	"math"
	"math/rand"
	"testing"

	"vlasov6d/internal/cosmo"
	"vlasov6d/internal/nbody"
	"vlasov6d/internal/units"
)

// forceSim builds a simulation at a = 1 — Poisson coefficient 4πG, tree
// scale 1/a = 1 — around hand-placed particles, so the tests below read
// Newtonian accelerations straight off the force evaluation a step uses.
// nu, when non-nil, puts the simulation in ν-particle mode.
func forceSim(t *testing.T, box float64, mesh int, noTree bool, cdm, nu *nbody.Particles) *Simulation {
	t.Helper()
	cfg := Config{Par: cosmo.Planck2015(0.4), Box: box, NGrid: 8, NU: 8, NPartSide: 2,
		PMMesh: mesh, NoTree: noTree, NoNeutrino: nu == nil, NuParticles: nu != nil, Workers: 1}
	s, err := build(cfg, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cfg.NoTree != noTree {
		t.Fatalf("PM mesh %d too coarse for the tree in a %v box", mesh, box)
	}
	s.installParticles(cdm)
	if nu != nil {
		s.installNuParticles(nu)
	}
	if err := s.ensureForces(); err != nil {
		t.Fatal(err)
	}
	return s
}

func particlesAt(t *testing.T, box, mass float64, pos ...[3]float64) *nbody.Particles {
	t.Helper()
	p, err := nbody.NewParticles(len(pos), mass, [3]float64{box, box, box})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range pos {
		p.Pos[0][i], p.Pos[1][i], p.Pos[2][i] = x[0], x[1], x[2]
	}
	return p
}

// isolatedPairAccel returns the x-acceleration of the first of two
// particles sep apart along x, and its Newtonian value.
func isolatedPairAccel(t *testing.T, sep float64, noTree bool) (ax, want float64) {
	t.Helper()
	const box = 256.0
	p := particlesAt(t, box, 5, [3]float64{128 - sep/2, 128, 128}, [3]float64{128 + sep/2, 128, 128})
	s := forceSim(t, box, 64, noTree, p, nil)
	return s.accPart[0][0], units.G * p.Mass / (sep * sep)
}

func TestTotalForceMatchesNewton(t *testing.T) {
	// PM+tree must reproduce Newton across the split scale (r_s = 5 here):
	// below, at, and above it. Periodic images at sep ≪ box are negligible.
	for _, sep := range []float64{2, 5, 12, 25} {
		ax, want := isolatedPairAccel(t, sep, false)
		if ax <= 0 {
			t.Fatalf("sep %v: attraction expected, got %v", sep, ax)
		}
		if math.Abs(ax-want)/want > 0.06 {
			t.Fatalf("sep %v: TreePM force %v, Newton %v (err %.1f%%)",
				sep, ax, want, 100*math.Abs(ax-want)/want)
		}
	}
}

func TestPMOnlyMissesShortRange(t *testing.T) {
	// The control experiment for the split: pure PM underestimates the
	// force well below the mesh scale but matches far above it.
	axClose, wantClose := isolatedPairAccel(t, 2, true)
	if axClose > 0.7*wantClose {
		t.Fatalf("pure PM should lose short-range force: %v vs %v", axClose, wantClose)
	}
	axFar, wantFar := isolatedPairAccel(t, 25, true)
	if math.Abs(axFar-wantFar)/wantFar > 0.06 {
		t.Fatalf("pure PM should be exact at long range: %v vs %v", axFar, wantFar)
	}
}

func TestForceMomentumConservation(t *testing.T) {
	// Σ m·a must vanish: CIC deposit/interp are adjoint and the tree sums
	// antisymmetric pair forces (up to the monopole error of the walk).
	const box = 100.0
	p, _ := nbody.NewParticles(64, 2.0, [3]float64{box, box, box})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < p.N; i++ {
		for d := 0; d < 3; d++ {
			p.Pos[d][i] = rng.Float64() * box
		}
	}
	s := forceSim(t, box, 16, false, p, nil)
	for d := 0; d < 3; d++ {
		sum, norm := 0.0, 0.0
		for i := 0; i < p.N; i++ {
			sum += s.accPart[d][i]
			norm += math.Abs(s.accPart[d][i])
		}
		if norm == 0 {
			t.Fatalf("dim %d: no force at all", d)
		}
		if math.Abs(sum)/norm > 1e-6 {
			t.Fatalf("dim %d: net force fraction %v", d, math.Abs(sum)/norm)
		}
	}
}

func TestNuDensityCouplesIn(t *testing.T) {
	// One CDM particle feels no self-force; the neutrino component's
	// density, deposited on the shared mesh, must pull it — and be pulled
	// back through the full potential. Δx = +17 < L/2, so the minimum-image
	// pull on the CDM particle is in +x.
	const box = 64.0
	cdm := particlesAt(t, box, 1, [3]float64{16, 32, 32})
	nu := particlesAt(t, box, 50, [3]float64{33, 32, 32})
	s := forceSim(t, box, 32, false, cdm, nu)
	if s.accPart[0][0] <= 0 {
		t.Fatalf("CDM particle not pulled toward the ν mass: %v", s.accPart[0][0])
	}
	if s.accNuPart[0][0] >= 0 {
		t.Fatalf("ν particle not pulled toward the CDM particle: %v", s.accNuPart[0][0])
	}
	alone := forceSim(t, box, 32, false, particlesAt(t, box, 1, [3]float64{16, 32, 32}), nil)
	if a := math.Abs(alone.accPart[0][0]); a > 1e-6*s.accPart[0][0] {
		t.Fatalf("lone particle feels a self-force %v", a)
	}
}
