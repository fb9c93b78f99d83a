package nbody

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomParticles(t *testing.T, n int, seed int64) *Particles {
	t.Helper()
	p, err := NewParticles(n, 1.5, [3]float64{100, 100, 100})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		for d := 0; d < 3; d++ {
			p.Pos[d][i] = rng.Float64() * p.Box[d]
			p.Vel[d][i] = rng.NormFloat64() * 100
		}
	}
	return p
}

func TestNewParticlesValidation(t *testing.T) {
	if _, err := NewParticles(0, 1, [3]float64{1, 1, 1}); err == nil {
		t.Fatal("zero particles accepted")
	}
	if _, err := NewParticles(10, -1, [3]float64{1, 1, 1}); err == nil {
		t.Fatal("negative mass accepted")
	}
	if _, err := NewParticles(10, 1, [3]float64{1, 0, 1}); err == nil {
		t.Fatal("zero box accepted")
	}
}

// TestCloneSharesNoStorage: a clone starts equal to its original, and
// stepping it leaves the original as it was.
func TestCloneSharesNoStorage(t *testing.T) {
	p := randomParticles(t, 16, 3)
	c := p.Clone()
	if c.N != p.N || c.Mass != p.Mass || c.Box != p.Box || c.Pos[2][15] != p.Pos[2][15] || c.Vel[0][0] != p.Vel[0][0] {
		t.Fatal("clone differs from its original")
	}
	x, u := p.Pos[0][0], p.Vel[0][0]
	c.Drift(1, 1)
	c.Vel[0][0]++
	if p.Pos[0][0] != x || p.Vel[0][0] != u {
		t.Fatal("stepping the clone moved the original")
	}
}

func TestDriftWrapsPeriodically(t *testing.T) {
	p, _ := NewParticles(1, 1, [3]float64{10, 10, 10})
	p.Pos[0][0] = 9.5
	p.Vel[0][0] = 1 // u = a²ẋ with a = 1 → ẋ = 1
	p.Drift(1.0, 1.0)
	if math.Abs(p.Pos[0][0]-0.5) > 1e-12 {
		t.Fatalf("pos = %v, want 0.5", p.Pos[0][0])
	}
	// Negative direction.
	p.Pos[1][0] = 0.2
	p.Vel[1][0] = -1
	p.Drift(1.0, 1.0)
	if math.Abs(p.Pos[1][0]-9.2) > 1e-12 {
		t.Fatalf("pos = %v, want 9.2", p.Pos[1][0])
	}
}

func TestDriftScaleFactor(t *testing.T) {
	// dx = u·dt/a²: halving a quadruples the comoving displacement.
	p, _ := NewParticles(1, 1, [3]float64{100, 100, 100})
	p.Vel[0][0] = 1
	p.Drift(1, 1)
	x1 := p.Pos[0][0]
	p.Pos[0][0] = 0
	p.Drift(1, 0.5)
	if math.Abs(p.Pos[0][0]-4*x1) > 1e-12 {
		t.Fatalf("a-scaling wrong: %v vs %v", p.Pos[0][0], 4*x1)
	}
}

func TestKick(t *testing.T) {
	p := randomParticles(t, 10, 1)
	var acc [3][]float64
	for d := 0; d < 3; d++ {
		acc[d] = make([]float64, p.N)
		for i := range acc[d] {
			acc[d][i] = float64(d + 1)
		}
	}
	v0 := p.Vel[2][3]
	if err := p.Kick(0.5, acc); err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Vel[2][3]-(v0+1.5)) > 1e-12 {
		t.Fatalf("kick wrong: %v", p.Vel[2][3])
	}
	var bad [3][]float64
	bad[0] = make([]float64, 3)
	bad[1] = make([]float64, p.N)
	bad[2] = make([]float64, p.N)
	if err := p.Kick(0.5, bad); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestCICDepositConservesMass(t *testing.T) {
	p := randomParticles(t, 500, 2)
	n := [3]int{8, 8, 8}
	mesh := make([]float64, 512)
	if err := p.CICDeposit(mesh, n); err != nil {
		t.Fatal(err)
	}
	cellVol := (100.0 / 8) * (100.0 / 8) * (100.0 / 8)
	total := 0.0
	for _, v := range mesh {
		total += v * cellVol
	}
	want := float64(p.N) * p.Mass
	if math.Abs(total-want)/want > 1e-12 {
		t.Fatalf("deposited mass %v, want %v", total, want)
	}
}

func TestCICDepositUniformLattice(t *testing.T) {
	// One particle per cell centre → exactly uniform density.
	n := [3]int{4, 4, 4}
	p, _ := NewParticles(64, 2, [3]float64{8, 8, 8})
	i := 0
	for ix := 0; ix < 4; ix++ {
		for iy := 0; iy < 4; iy++ {
			for iz := 0; iz < 4; iz++ {
				p.Pos[0][i] = (float64(ix) + 0.5) * 2
				p.Pos[1][i] = (float64(iy) + 0.5) * 2
				p.Pos[2][i] = (float64(iz) + 0.5) * 2
				i++
			}
		}
	}
	mesh := make([]float64, 64)
	if err := p.CICDeposit(mesh, n); err != nil {
		t.Fatal(err)
	}
	want := 2.0 / 8.0 // mass per cell volume
	for c, v := range mesh {
		if math.Abs(v-want) > 1e-12 {
			t.Fatalf("cell %d density %v, want %v", c, v, want)
		}
	}
}

func TestCICInterpLinearFieldExact(t *testing.T) {
	// CIC interpolation reproduces an affine field exactly away from the
	// periodic seam (cell-centred weights are linear).
	n := [3]int{16, 16, 16}
	box := [3]float64{16, 16, 16}
	p, _ := NewParticles(50, 1, box)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < p.N; i++ {
		// Keep away from the wrap seam where the affine field is
		// discontinuous.
		p.Pos[0][i] = 2 + rng.Float64()*12
		p.Pos[1][i] = 2 + rng.Float64()*12
		p.Pos[2][i] = 2 + rng.Float64()*12
	}
	field := make([]float64, 16*16*16)
	idx := 0
	for ix := 0; ix < 16; ix++ {
		for iy := 0; iy < 16; iy++ {
			for iz := 0; iz < 16; iz++ {
				x := (float64(ix) + 0.5)
				y := (float64(iy) + 0.5)
				z := (float64(iz) + 0.5)
				field[idx] = 1 + 2*x - 3*y + 0.5*z
				idx++
			}
		}
	}
	out := make([]float64, p.N)
	if err := p.CICInterp(field, n, out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.N; i++ {
		want := 1 + 2*p.Pos[0][i] - 3*p.Pos[1][i] + 0.5*p.Pos[2][i]
		if math.Abs(out[i]-want) > 1e-10 {
			t.Fatalf("particle %d: %v, want %v", i, out[i], want)
		}
	}
}

func TestCICDepositInterpAdjointProperty(t *testing.T) {
	// ⟨deposit(p), field⟩ = Σ_particles interp(field): CIC deposit and
	// interpolation are adjoint, the condition for momentum conservation.
	p := randomParticles(t, 40, 4)
	n := [3]int{8, 8, 8}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		field := make([]float64, 512)
		for i := range field {
			field[i] = rng.NormFloat64()
		}
		mesh := make([]float64, 512)
		if err := p.CICDeposit(mesh, n); err != nil {
			return false
		}
		cellVol := math.Pow(100.0/8, 3)
		lhs := 0.0
		for i := range mesh {
			lhs += mesh[i] * cellVol * field[i]
		}
		out := make([]float64, p.N)
		if err := p.CICInterp(field, n, out); err != nil {
			return false
		}
		rhs := 0.0
		for _, v := range out {
			rhs += v * p.Mass
		}
		return math.Abs(lhs-rhs) < 1e-9*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMinimumImage(t *testing.T) {
	p, _ := NewParticles(1, 1, [3]float64{10, 10, 10})
	if d := p.MinimumImage(0, 1, 9); math.Abs(d+2) > 1e-12 {
		t.Fatalf("min image = %v, want -2", d)
	}
	if d := p.MinimumImage(0, 9, 1); math.Abs(d-2) > 1e-12 {
		t.Fatalf("min image = %v, want 2", d)
	}
	if d := p.MinimumImage(0, 2, 5); math.Abs(d-3) > 1e-12 {
		t.Fatalf("min image = %v, want 3", d)
	}
}

func TestEnergyAndMomentum(t *testing.T) {
	p, _ := NewParticles(2, 3, [3]float64{10, 10, 10})
	p.Vel[0][0] = 2
	p.Vel[0][1] = -2
	mom := p.TotalMomentum()
	if math.Abs(mom[0]) > 1e-12 {
		t.Fatalf("momentum %v", mom)
	}
}
