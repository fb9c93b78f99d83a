package phase

import (
	"math"
	"testing"
	"testing/quick"
)

// fill sets f(x, y, z, ux, uy, uz) at every phase-space cell centre, with
// x, y, z relative to the block origin.
func fill(g *Grid, f func(x, y, z, ux, uy, uz float64) float64) {
	for cell := range g.NCells() {
		ix, iy, iz := cell/(g.NY*g.NZ), cell/g.NZ%g.NY, cell%g.NZ
		x, y, z := (float64(ix)+0.5)*g.DX(0), (float64(iy)+0.5)*g.DX(1), (float64(iz)+0.5)*g.DX(2)
		cube := g.CubeAt(cell)
		for j := range cube {
			jx, jy, jz := j/(g.NU[1]*g.NU[2]), j/g.NU[2]%g.NU[1], j%g.NU[2]
			cube[j] = float32(f(x, y, z, g.U(0, jx), g.U(1, jy), g.U(2, jz)))
		}
	}
}

func smallGrid(t *testing.T) *Grid {
	t.Helper()
	g, err := New(4, 3, 5, [3]int{8, 6, 10}, [3]float64{100, 100, 100}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 2, 2, [3]int{8, 8, 8}, [3]float64{1, 1, 1}, 1); err == nil {
		t.Fatal("zero spatial extent accepted")
	}
	if _, err := New(2, 2, 2, [3]int{4, 8, 8}, [3]float64{1, 1, 1}, 1); err == nil {
		t.Fatal("velocity extent < 6 accepted")
	}
	if _, err := New(2, 2, 2, [3]int{8, 8, 8}, [3]float64{0, 1, 1}, 1); err == nil {
		t.Fatal("zero box accepted")
	}
	if _, err := New(2, 2, 2, [3]int{8, 8, 8}, [3]float64{1, 1, 1}, -1); err == nil {
		t.Fatal("negative UMax accepted")
	}
}

func TestNewRefusesOverflowingCellCount(t *testing.T) {
	// 2²¹·2²¹·2²¹·2²¹·8·8 = 2⁹⁰ cells wraps an int to 0: without the guard
	// New returned a Grid claiming NX = 2²¹ with an empty Data.
	for _, nu := range [][3]int{{1 << 21, 8, 8}, {math.MaxInt, 6, 6}} {
		g, err := New(1<<21, 1<<21, 1<<21, nu, [3]float64{1, 1, 1}, 1)
		if err == nil {
			t.Fatalf("NU %v: accepted with NX = %d and len(Data) = %d", nu, g.NX, len(g.Data))
		}
	}
}

func TestLayoutAndSizes(t *testing.T) {
	g := smallGrid(t)
	if g.NCells() != 60 || g.NCube() != 480 {
		t.Fatalf("NCells=%d NCube=%d", g.NCells(), g.NCube())
	}
	if len(g.Data) != 60*480 {
		t.Fatalf("data length %d", len(g.Data))
	}
	// Cube slices tile Data without overlap.
	c0 := g.Cube(0, 0, 0)
	c1 := g.Cube(0, 0, 1)
	c0[0] = 7
	if c1[0] == 7 {
		t.Fatal("cubes alias")
	}
	if &g.Data[480] != &c1[0] {
		t.Fatal("cube 1 misplaced")
	}
}

func TestCoordinates(t *testing.T) {
	g := smallGrid(t)
	if dx := g.DX(0); math.Abs(dx-25) > 1e-14 {
		t.Fatalf("DX(0) = %v, want 25", dx)
	}
	if du := g.DU(0); math.Abs(du-500) > 1e-14 {
		t.Fatalf("DU(0) = %v, want 500", du)
	}
	// Velocity grid is symmetric: U(d, 0) = −UMax + DU/2, and the mean of
	// the first and last centres is 0.
	for d := 0; d < 3; d++ {
		lo, hi := g.U(d, 0), g.U(d, g.NU[d]-1)
		if math.Abs(lo+hi) > 1e-10 {
			t.Fatalf("velocity axis %d not symmetric: %v, %v", d, lo, hi)
		}
	}
}

func TestFillAndTotalMass(t *testing.T) {
	g := smallGrid(t)
	fill(g, func(x, y, z, ux, uy, uz float64) float64 { return 2 })
	// Total = 2 × V_x × V_u.
	vx := 100.0 * 100 * 100
	vu := math.Pow(2*2000, 3)
	want := 2 * vx * vu
	if got := g.TotalMass(); math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("TotalMass = %v, want %v", got, want)
	}
}

func TestMomentsUniform(t *testing.T) {
	g := smallGrid(t)
	fill(g, func(x, y, z, ux, uy, uz float64) float64 { return 1 })
	m := g.ComputeMoments()
	du3 := g.DU(0) * g.DU(1) * g.DU(2)
	wantRho := du3 * float64(g.NCube())
	for c := 0; c < g.NCells(); c++ {
		if math.Abs(m.Density[c]-wantRho)/wantRho > 1e-6 {
			t.Fatalf("cell %d density %v, want %v", c, m.Density[c], wantRho)
		}
		for d := 0; d < 3; d++ {
			if math.Abs(m.MeanU[d][c]) > 1e-6*g.UMax {
				t.Fatalf("cell %d mean u[%d] = %v, want 0", c, d, m.MeanU[d][c])
			}
		}
		// Uniform distribution in [−V, V): σ1D = 2V/sqrt(12).
		want := 2 * g.UMax / math.Sqrt(12)
		// Discrete correction: variance of cell centres is
		// (2V)²(1−1/n²)/12 per axis; with n ≥ 6 it is within 3%.
		if math.Abs(m.Sigma[c]-want)/want > 0.03 {
			t.Fatalf("cell %d sigma %v, want ≈ %v", c, m.Sigma[c], want)
		}
	}
}

func TestMomentsShiftedMaxwellian(t *testing.T) {
	g, err := New(2, 2, 2, [3]int{24, 24, 24}, [3]float64{10, 10, 10}, 6)
	if err != nil {
		t.Fatal(err)
	}
	u0 := [3]float64{1.0, -0.5, 0.25}
	sigma := 1.0
	fill(g, func(x, y, z, ux, uy, uz float64) float64 {
		r2 := (ux-u0[0])*(ux-u0[0]) + (uy-u0[1])*(uy-u0[1]) + (uz-u0[2])*(uz-u0[2])
		return math.Exp(-r2 / (2 * sigma * sigma))
	})
	m := g.ComputeMoments()
	for c := 0; c < g.NCells(); c++ {
		for d := 0; d < 3; d++ {
			if math.Abs(m.MeanU[d][c]-u0[d]) > 0.01 {
				t.Fatalf("mean u[%d] = %v, want %v", d, m.MeanU[d][c], u0[d])
			}
		}
		if math.Abs(m.Sigma[c]-sigma) > 0.02 {
			t.Fatalf("sigma = %v, want %v", m.Sigma[c], sigma)
		}
	}
}

func TestMomentLinearityProperty(t *testing.T) {
	// Density is linear in f: scaling f scales ρ, leaves mean velocity and
	// dispersion unchanged.
	g, err := New(2, 2, 2, [3]int{8, 8, 8}, [3]float64{10, 10, 10}, 3)
	if err != nil {
		t.Fatal(err)
	}
	fill(g, func(x, y, z, ux, uy, uz float64) float64 {
		return 1 + 0.5*math.Sin(ux)*math.Cos(uy+uz)
	})
	m1 := g.ComputeMoments()
	check := func(scale float64) bool {
		g2, _ := New(2, 2, 2, [3]int{8, 8, 8}, [3]float64{10, 10, 10}, 3)
		copy(g2.Data, g.Data)
		g2.Scale(scale)
		m2 := g2.ComputeMoments()
		for c := 0; c < g.NCells(); c++ {
			if math.Abs(m2.Density[c]-scale*m1.Density[c]) > 1e-5*(1+scale) {
				return false
			}
			if math.Abs(m2.Sigma[c]-m1.Sigma[c]) > 1e-4 {
				return false
			}
		}
		return true
	}
	f := func(raw float64) bool {
		s := 0.25 + math.Mod(math.Abs(raw), 4)
		return check(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMinValue(t *testing.T) {
	g := smallGrid(t)
	fill(g, func(x, y, z, ux, uy, uz float64) float64 { return 1 })
	g.Data[1234] = -0.5
	if got := g.MinValue(); got != -0.5 {
		t.Fatalf("MinValue = %v", got)
	}
}

func TestParallelCellsCoversAll(t *testing.T) {
	g := smallGrid(t)
	seen := make([]int32, g.NCells())
	g.ParallelCells(func(ix, iy, iz int) {
		seen[g.CellIndex(ix, iy, iz)]++
	})
	for c, n := range seen {
		if n != 1 {
			t.Fatalf("cell %d visited %d times", c, n)
		}
	}
}

func TestParallelCellsWorkerInvariance(t *testing.T) {
	build := func(workers int) *Grid {
		g := smallGrid(t)
		g.SetWorkers(workers)
		fill(g, func(x, y, z, ux, uy, uz float64) float64 {
			return 1 + 0.1*math.Sin(x+ux)*math.Cos(y-uy) + 0.01*z*uz
		})
		return g
	}
	g1 := build(1)
	g3 := build(3)
	for i := range g1.Data {
		if g1.Data[i] != g3.Data[i] {
			t.Fatalf("Data[%d]: 1-worker %v != 3-worker %v", i, g1.Data[i], g3.Data[i])
		}
	}
	m1 := g1.ComputeMoments()
	m3 := g3.ComputeMoments()
	for i := range m1.Density {
		if m1.Density[i] != m3.Density[i] || m1.Sigma[i] != m3.Sigma[i] {
			t.Fatalf("moments differ at cell %d across worker counts", i)
		}
	}
	// Clone carries the pinned count; a fresh grid stays on the GOMAXPROCS
	// default.
	if c := g1.Clone(); c.workers != 1 {
		t.Fatalf("clone workers %d, want 1", c.workers)
	}
	if g := smallGrid(t); g.workers != 0 {
		t.Fatalf("fresh grid workers %d, want 0 (GOMAXPROCS default)", g.workers)
	}
}

// TestDensityIntoMatchesMoments: the density-only reduction is the Density
// field of the full moment reduction bit for bit, at any worker count, on a
// grid whose cubes hold exact zeros (which the moment pass skips and the
// density pass adds), negative zeros and whole empty cells; the buffer is
// reused and a warmed one-worker call allocates nothing.
func TestDensityIntoMatchesMoments(t *testing.T) {
	g := smallGrid(t)
	fill(g, func(x, y, z, ux, uy, uz float64) float64 {
		if ux > 500 || uy < -1000 {
			return 0
		}
		return 1e-11 * (1 + 0.3*math.Sin(x*uz) + 0.1*math.Cos(y-uy))
	})
	clear(g.CubeAt(7)) // an empty cell
	negZero := float32(math.Copysign(0, -1))
	g.CubeAt(3)[0], g.CubeAt(3)[5] = negZero, negZero
	var dst []float64
	for _, w := range []int{1, 3} {
		g.SetWorkers(w)
		want := g.ComputeMoments().Density
		dst = g.DensityInto(dst)
		if len(dst) != g.NCells() {
			t.Fatalf("density has %d cells, want %d", len(dst), g.NCells())
		}
		for i, v := range dst {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Fatalf("%d workers, cell %d: DensityInto %v, moments %v", w, i, v, want[i])
			}
		}
	}
	if dst[7] != 0 {
		t.Fatalf("empty cell has density %v", dst[7])
	}
	g.SetWorkers(1)
	if a := testing.AllocsPerRun(5, func() { dst = g.DensityInto(dst) }); a != 0 {
		t.Fatalf("warmed DensityInto allocates %.1f", a)
	}
}
