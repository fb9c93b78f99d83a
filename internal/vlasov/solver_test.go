package vlasov

import (
	"math"
	"testing"

	"vlasov6d/internal/advect"
	"vlasov6d/internal/phase"
)

// testGrid builds an 8³ spatial × 8³ velocity grid on a 100³ box.
func testGrid(t *testing.T) *phase.Grid {
	t.Helper()
	g, err := phase.New(8, 8, 8, [3]int{8, 8, 8}, [3]float64{100, 100, 100}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func zeroAcc(n int) [3][]float64 {
	var acc [3][]float64
	for d := 0; d < 3; d++ {
		acc[d] = make([]float64, n)
	}
	return acc
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, "slmpp5"); err == nil {
		t.Fatal("nil grid accepted")
	}
	g := testGrid(t)
	if _, err := New(g, "bogus"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := New(g, "slmpp5"); err != nil {
		t.Fatal(err)
	}
}

func TestDriftExactIntegerShift(t *testing.T) {
	// Populate a single velocity plane whose drift CFL is exactly 1, with a
	// spatial pattern; one step must shift the pattern by one cell.
	g := testGrid(t)
	s, err := New(g, "slmpp5")
	if err != nil {
		t.Fatal(err)
	}
	s.SetWorkers(1)
	// Velocity index j along x with u = U(0, j): pick j = 5.
	j := 5
	u := g.U(0, j)
	a := 1.0
	dx := g.DX(0)
	dt := dx * a * a / u // CFL = 1 exactly
	// f = ix in that velocity plane only.
	for ix := 0; ix < g.NX; ix++ {
		for iy := 0; iy < g.NY; iy++ {
			for iz := 0; iz < g.NZ; iz++ {
				cube := g.Cube(ix, iy, iz)
				cube[(j*g.NU[1]+3)*g.NU[2]+4] = float32(ix + 1)
			}
		}
	}
	if err := s.Drift(dt, a); err != nil {
		t.Fatal(err)
	}
	for ix := 0; ix < g.NX; ix++ {
		want := float32((ix-1+g.NX)%g.NX + 1)
		got := g.Cube(ix, 0, 0)[(j*g.NU[1]+3)*g.NU[2]+4]
		if math.Abs(float64(got-want)) > 1e-5 {
			t.Fatalf("ix=%d: got %v, want %v", ix, got, want)
		}
	}
}

func TestDriftUniformInvariant(t *testing.T) {
	// A spatially uniform f is a fixed point of the drift operators, for
	// every scheme: the comparison schemes drift through StepStrided's
	// per-line path, SL-MPP5 through its strided kernel.
	for _, scheme := range advect.Names() {
		t.Run(scheme, func(t *testing.T) {
			g := testGrid(t)
			s, err := New(g, scheme)
			if err != nil {
				t.Fatal(err)
			}
			g.Fill(func(x, y, z, ux, uy, uz float64) float64 {
				return math.Exp(-(ux*ux + uy*uy + uz*uz) / (2 * 1000 * 1000))
			})
			before := append([]float32(nil), g.Data...)
			if err := s.Drift(0.001, 1.0); err != nil {
				t.Fatal(err)
			}
			for i := range g.Data {
				if math.Abs(float64(g.Data[i]-before[i])) > 1e-6 {
					t.Fatalf("uniform f changed at %d: %v -> %v", i, before[i], g.Data[i])
				}
			}
		})
	}
}

func TestKickShiftsVelocity(t *testing.T) {
	// Constant acceleration for an integer-CFL half-kick must shift the
	// cube exactly one cell along ux.
	g := testGrid(t)
	s, _ := New(g, "slmpp5")
	s.SetWorkers(2)
	jx := 3
	for c := 0; c < g.NCells(); c++ {
		cube := g.CubeAt(c)
		cube[(jx*g.NU[1]+4)*g.NU[2]+4] = 2
	}
	acc := zeroAcc(g.NCells())
	du := g.DU(0)
	dt := 1.0
	for c := range acc[0] {
		acc[0][c] = 2 * du / dt // CFL over dt/2 = acc·(dt/2)/du = 1
	}
	if err := s.KickHalf(dt, acc); err != nil {
		t.Fatal(err)
	}
	cube := g.CubeAt(0)
	if got := cube[((jx+1)*g.NU[1]+4)*g.NU[2]+4]; math.Abs(float64(got-2)) > 1e-5 {
		t.Fatalf("shifted value %v, want 2", got)
	}
	if got := cube[(jx*g.NU[1]+4)*g.NU[2]+4]; math.Abs(float64(got)) > 1e-5 {
		t.Fatalf("origin value %v, want 0", got)
	}
}

func TestMassConservationFullStep(t *testing.T) {
	for _, scheme := range advect.Names() {
		t.Run(scheme, func(t *testing.T) {
			g := testGrid(t)
			s, err := New(g, scheme)
			if err != nil {
				t.Fatal(err)
			}
			// Compact Maxwellian well inside the velocity boundary plus a
			// density wave in x.
			g.Fill(func(x, y, z, ux, uy, uz float64) float64 {
				w := 1 + 0.3*math.Sin(2*math.Pi*x/100)
				return w * math.Exp(-(ux*ux+uy*uy+uz*uz)/(2*800*800))
			})
			m0 := g.TotalMass()
			acc := zeroAcc(g.NCells())
			for c := range acc[0] {
				acc[0][c] = 50 // mild kick, support stays inside the grid
				acc[1][c] = -30
			}
			for step := 0; step < 5; step++ {
				if err := s.Step(0.002, 1.0, acc); err != nil {
					t.Fatal(err)
				}
			}
			m1 := g.TotalMass()
			if rel := math.Abs(m1+s.BoundaryLoss-m0) / m0; rel > 2e-5 {
				t.Fatalf("mass drift %v (m0=%v m1=%v loss=%v)", rel, m0, m1, s.BoundaryLoss)
			}
		})
	}
}

func TestPositivityFullStep(t *testing.T) {
	g := testGrid(t)
	s, _ := New(g, "slmpp5")
	g.Fill(func(x, y, z, ux, uy, uz float64) float64 {
		w := 1 + 0.9*math.Sin(2*math.Pi*x/100)*math.Cos(2*math.Pi*y/100)
		return w * math.Exp(-(ux*ux+uy*uy+uz*uz)/(2*600*600))
	})
	acc := zeroAcc(g.NCells())
	for c := range acc[0] {
		acc[2][c] = 100
	}
	for step := 0; step < 3; step++ {
		if err := s.Step(0.002, 1.0, acc); err != nil {
			t.Fatal(err)
		}
	}
	if mn := g.MinValue(); mn < 0 {
		t.Fatalf("negative distribution value %v", mn)
	}
}

func TestBoundaryLossAccounted(t *testing.T) {
	g := testGrid(t)
	s, _ := New(g, "slmpp5")
	// Mass near the +ux boundary, strong positive acceleration pushes it out.
	jEdge := g.NU[0] - 1
	for c := 0; c < g.NCells(); c++ {
		g.CubeAt(c)[(jEdge*g.NU[1]+4)*g.NU[2]+4] = 1
	}
	m0 := g.TotalMass()
	acc := zeroAcc(g.NCells())
	for c := range acc[0] {
		acc[0][c] = 4 * g.DU(0) // CFL 2 per half-kick over dt=1
	}
	if err := s.KickHalf(1.0, acc); err != nil {
		t.Fatal(err)
	}
	m1 := g.TotalMass()
	if m1 >= m0 {
		t.Fatal("mass should have left through the velocity boundary")
	}
	if rel := math.Abs((m0-m1)-s.BoundaryLoss) / m0; rel > 1e-6 {
		t.Fatalf("loss accounting off: escaped %v, recorded %v", m0-m1, s.BoundaryLoss)
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	run := func(workers int) []float32 {
		g := testGrid(t)
		s, _ := New(g, "slmpp5")
		s.SetWorkers(workers)
		g.Fill(func(x, y, z, ux, uy, uz float64) float64 {
			return (1 + 0.2*math.Sin(2*math.Pi*(x+y)/100)) *
				math.Exp(-(ux*ux+uy*uy+uz*uz)/(2*900*900))
		})
		acc := zeroAcc(g.NCells())
		for c := range acc[0] {
			acc[0][c] = 40
			acc[1][c] = -25
			acc[2][c] = 10
		}
		if err := s.Step(0.003, 0.8, acc); err != nil {
			t.Fatal(err)
		}
		return g.Data
	}
	ref := run(1)
	for _, w := range []int{2, 5, 16} {
		got := run(w)
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("workers=%d: data diverges at %d", w, i)
			}
		}
	}
}

func TestCFLAndSuggestDT(t *testing.T) {
	g := testGrid(t)
	s, _ := New(g, "slmpp5")
	acc := zeroAcc(g.NCells())
	for c := range acc[0] {
		acc[0][c] = 100
	}
	dt := s.SuggestDT(1.0, acc, 0.5, 0.5)
	if dt <= 0 || math.IsInf(dt, 0) {
		t.Fatalf("bad dt %v", dt)
	}
	cx, cu := cflNumbers(g, dt, 1.0, acc)
	if cx > 0.5+1e-9 || cu > 0.5+1e-9 {
		t.Fatalf("CFL targets exceeded: cx=%v cu=%v", cx, cu)
	}
	if cx < 0.49 && cu < 0.49 {
		t.Fatalf("dt not tight: cx=%v cu=%v", cx, cu)
	}
}

// cflNumbers returns the maximum position-space and velocity-space CFL
// numbers for time step dt at scale factor a with acceleration fields acc;
// the velocity number is that of a half kick, dt/2.
func cflNumbers(g *phase.Grid, dt, a float64, acc [3][]float64) (cx, cu float64) {
	for d := 0; d < 3; d++ {
		cx = max(cx, g.UMax*dt/(a*a*g.DX(d)))
		aMax := 0.0
		for _, v := range acc[d] {
			aMax = max(aMax, math.Abs(v))
		}
		cu = max(cu, aMax*dt/(2*g.DU(d)))
	}
	return cx, cu
}

func TestFreeStreamingDampsDensityWave(t *testing.T) {
	// Physics check of collisionless (free-streaming) damping: with no
	// gravity, a density wave in a warm medium phase-mixes away — the
	// paper's core argument for why neutrinos suppress structure.
	g, err := phase.New(8, 6, 6, [3]int{10, 8, 8}, [3]float64{100, 100, 100}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := New(g, "slmpp5")
	sigma := 1000.0
	g.Fill(func(x, y, z, ux, uy, uz float64) float64 {
		w := 1 + 0.5*math.Sin(2*math.Pi*x/100)
		return w * math.Exp(-(ux*ux+uy*uy+uz*uz)/(2*sigma*sigma))
	})
	amp := func() float64 {
		m := g.ComputeMoments()
		mn, mx := m.Density[0], m.Density[0]
		for _, v := range m.Density {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		return (mx - mn) / (mx + mn)
	}
	a0 := amp()
	// Free-stream for roughly one phase-mixing time L/σ.
	dtTot := 100.0 / sigma
	nStep := 20
	for i := 0; i < nStep; i++ {
		if err := s.Drift(dtTot/float64(nStep), 1.0); err != nil {
			t.Fatal(err)
		}
	}
	a1 := amp()
	if a1 > 0.5*a0 {
		t.Fatalf("free streaming did not damp the wave: %v -> %v", a0, a1)
	}
}

func TestDiagnosticsInvariants(t *testing.T) {
	g := testGrid(t)
	s, _ := New(g, "slmpp5")
	g.Fill(func(x, y, z, ux, uy, uz float64) float64 {
		w := 1 + 0.4*math.Sin(2*math.Pi*x/100)
		return w * math.Exp(-(ux*ux+uy*uy+uz*uz)/(2*800*800))
	})
	d0 := ComputeDiagnostics(g)
	if d0.Mass <= 0 || d0.L2 <= 0 {
		t.Fatal("bad initial diagnostics")
	}
	if math.Abs(d0.Mass-g.TotalMass())/d0.Mass > 1e-12 {
		t.Fatalf("diagnostic mass %v vs TotalMass %v", d0.Mass, g.TotalMass())
	}
	// For non-negative f, L1 = mass exactly.
	if math.Abs(d0.L1-d0.Mass)/d0.Mass > 1e-12 {
		t.Fatal("L1 != mass for non-negative f")
	}
	acc := zeroAcc(g.NCells())
	for c := range acc[0] {
		acc[0][c] = 40
	}
	for i := 0; i < 6; i++ {
		if err := s.Step(0.002, 1.0, acc); err != nil {
			t.Fatal(err)
		}
	}
	d1 := ComputeDiagnostics(g)
	// Limiter dissipation: L2 must not grow; entropy must not decrease
	// (beyond round-off); f stays within its initial global bounds.
	if d1.L2 > d0.L2*(1+1e-9) {
		t.Fatalf("L2 grew: %v -> %v", d0.L2, d1.L2)
	}
	if d1.Entropy < d0.Entropy*(1-1e-9) {
		t.Fatalf("entropy decreased: %v -> %v", d0.Entropy, d1.Entropy)
	}
	if d1.MinF < -1e-12 {
		t.Fatalf("negative f: %v", d1.MinF)
	}
	// Each 1D sweep is monotone, but DIRECTIONAL SPLITTING does not bound
	// the joint 6D maximum: successive sweeps can legitimately raise the
	// global max by a few percent. Guard against runaway only.
	if d1.MaxF > d0.MaxF*1.10 {
		t.Fatalf("global max grew beyond the splitting allowance: %v -> %v", d0.MaxF, d1.MaxF)
	}
}

// TestSweepsMatchPerLineReference pins the strided line geometry on
// a grid with six different extents: every sweep must equal, bit for bit,
// stepping each of its lines on its own through the per-line scheme entry.
func TestSweepsMatchPerLineReference(t *testing.T) {
	g, err := phase.New(6, 7, 8, [3]int{9, 6, 7}, [3]float64{60, 70, 80}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	g.Fill(func(x, y, z, ux, uy, uz float64) float64 {
		return (1 + 0.3*math.Sin(2*math.Pi*(x/60+2*y/70+z/80))) *
			math.Exp(-((ux-300)*(ux-300)+uy*uy+(uz+500)*(uz+500))/(2*1200*1200))
	})
	ref := g.Clone()
	acc := zeroAcc(g.NCells())
	for d := range acc {
		for c := range acc[d] {
			acc[d][c] = 900 * math.Sin(float64(3*c+d)) // |CFL| up to ~1.4 per half kick
		}
	}
	const dt, a = 2.0, 0.9
	s, _ := New(g, "slmpp5")
	s.SetWorkers(3)
	if err := s.Step(dt, a, acc); err != nil {
		t.Fatal(err)
	}

	sch := advect.NewSLMPP5()
	nu, ns := ref.NU, [3]int{ref.NX, ref.NY, ref.NZ}
	ncube := ref.NCube()
	uStride := [3]int{nu[1] * nu[2], nu[2], 1}
	xStride := [3]int{ns[1] * ns[2], ns[2], 1}
	kick := func() {
		for d := 0; d < 3; d++ {
			for cell := 0; cell < ref.NCells(); cell++ {
				c := acc[d][cell] * (dt / 2) / ref.DU(d)
				cube := ref.CubeAt(cell)
				for e := 0; e < ncube; e++ {
					if (e/uStride[d])%nu[d] != 0 {
						continue // not the first element of a line along d
					}
					line := make([]float64, nu[d])
					for i := range line {
						line[i] = float64(cube[e+i*uStride[d]])
					}
					if err := sch.StepOpen(line, c); err != nil {
						t.Fatal(err)
					}
					for i := range line {
						cube[e+i*uStride[d]] = float32(line[i])
					}
				}
			}
		}
	}
	kick()
	for d := 0; d < 3; d++ {
		for cell := 0; cell < ref.NCells(); cell++ {
			if (cell/xStride[d])%ns[d] != 0 {
				continue
			}
			for e := 0; e < ncube; e++ {
				c := ref.U(d, (e/uStride[d])%nu[d]) * dt / (a * a * ref.DX(d))
				line := make([]float64, ns[d])
				for i := range line {
					line[i] = float64(ref.Data[(cell+i*xStride[d])*ncube+e])
				}
				if err := sch.Step(line, c); err != nil {
					t.Fatal(err)
				}
				for i := range line {
					ref.Data[(cell+i*xStride[d])*ncube+e] = float32(line[i])
				}
			}
		}
	}
	kick()
	for i := range ref.Data {
		if g.Data[i] != ref.Data[i] {
			t.Fatalf("batched sweeps diverge from per-line stepping at %d: %v vs %v", i, g.Data[i], ref.Data[i])
		}
	}
}

// TestKickRejectsNonFiniteAcceleration: a NaN or infinite acceleration must
// fail the step (it used to spin for 2⁶³ iterations), whatever the worker
// count, and a huge finite one must cost no more than emptying the cube.
func TestKickRejectsNonFiniteAcceleration(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, workers := range []int{1, 2} {
			g := testGrid(t)
			g.Fill(func(x, y, z, ux, uy, uz float64) float64 { return 1 })
			s, _ := New(g, "slmpp5")
			s.SetWorkers(workers)
			acc := zeroAcc(g.NCells())
			acc[1][g.NCells()-3] = bad
			if err := s.KickHalf(0.01, acc); err == nil {
				t.Fatalf("acceleration %v accepted with %d workers", bad, workers)
			}
		}
	}
	g := testGrid(t)
	g.Fill(func(x, y, z, ux, uy, uz float64) float64 { return 1 })
	m0 := g.TotalMass()
	s, _ := New(g, "slmpp5")
	s.SetWorkers(1)
	acc := zeroAcc(g.NCells())
	acc[2][5] = -1e300
	if err := s.KickHalf(0.01, acc); err != nil {
		t.Fatal(err)
	}
	for _, v := range g.CubeAt(5) {
		if v != 0 {
			t.Fatalf("cube under |CFL| ≫ n kept %v, want it emptied", v)
		}
	}
	if rel := math.Abs(m0-g.TotalMass()-s.BoundaryLoss) / m0; rel > 1e-6 {
		t.Fatalf("emptied cube not accounted: escaped %v, recorded %v", m0-g.TotalMass(), s.BoundaryLoss)
	}
}
