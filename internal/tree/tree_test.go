package tree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"vlasov6d/internal/nbody"
	"vlasov6d/internal/units"
)

func randomParticles(t *testing.T, n int, box float64, seed int64) *nbody.Particles {
	t.Helper()
	p, err := nbody.NewParticles(n, 2.0, [3]float64{box, box, box})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		for d := 0; d < 3; d++ {
			p.Pos[d][i] = rng.Float64() * box
		}
	}
	return p
}

func TestBuildValidation(t *testing.T) {
	p := randomParticles(t, 10, 100, 1)
	if _, err := Build(p, Options{RSplit: 0}); err == nil {
		t.Fatal("zero RSplit accepted")
	}
	if _, err := Build(p, Options{RSplit: 30}); err == nil {
		t.Fatal("cutoff beyond half box accepted")
	}
	if _, err := Build(p, Options{RSplit: 2, Theta: -1}); err == nil {
		t.Fatal("negative theta accepted")
	}
	bad, _ := nbody.NewParticles(4, 1, [3]float64{10, 20, 10})
	if _, err := Build(bad, Options{RSplit: 1}); err == nil {
		t.Fatal("non-cubic box accepted")
	}
}

func TestSplitGLimits(t *testing.T) {
	if d := math.Abs(SplitG(0) - 1); d > 1e-14 {
		t.Fatalf("g(0) = %v, want 1", SplitG(0))
	}
	// At the GADGET-convention cutoff 4.5·r_s the residual pair force is
	// ≈1.75% of Newtonian; dropped tails cancel statistically.
	if g := SplitG(CutoffFactor); g > 2e-2 {
		t.Fatalf("g at cutoff = %v, not negligible", g)
	}
	// Monotone decreasing.
	prev := SplitG(0)
	for x := 0.1; x < 4.5; x += 0.1 {
		g := SplitG(x)
		if g > prev {
			t.Fatalf("g not monotone at %v", x)
		}
		prev = g
	}
}

func TestGTableMatchesExact(t *testing.T) {
	// One unit source at distance x·r_s through the batched kernel: the
	// acceleration is G/r_s² · x · [g(x)/x³], so this reads the table the
	// way the kernel does, exact branch below the tabulated range included.
	gt := sharedGTable()
	const rs = 2.0
	profileAt := func(x float64) float64 {
		src := &sources{}
		src.add(x*rs, 0, 0, 1)
		return kernelBatched(src, 0, 0, 0, 0, rs, gt)[0] / (units.G / (rs * rs) * x)
	}
	for _, x := range []float64{0.001, 1.0 / 64, 0.05, 0.26, 0.5, 1.0, 2.0, 3.3, 4.4, 4.4999} {
		want := SplitG(x) / (x * x * x)
		if got := profileAt(x); math.Abs(got-want)/want > 2e-6 {
			t.Fatalf("g-table at x=%v: %v vs %v", x, got, want)
		}
	}
	for _, x := range []float64{4.5, 4.6, 5.5, 6, 40} {
		if got := profileAt(x); got != 0 {
			t.Fatalf("profile %v at x=%v: should vanish from the cutoff on", got, x)
		}
	}
}

func TestTreeExactAtThetaZero(t *testing.T) {
	p := randomParticles(t, 300, 100, 7)
	opt := Options{Theta: 0, RSplit: 5, Soft: 0.1}
	tr, err := Build(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 17, 111, 299} {
		pos := [3]float64{p.Pos[0][i], p.Pos[1][i], p.Pos[2][i]}
		got := tr.Accel(pos)
		want := DirectShortRange(p, i, opt.Soft, opt.RSplit)
		for d := 0; d < 3; d++ {
			scale := math.Abs(want[0]) + math.Abs(want[1]) + math.Abs(want[2]) + 1e-12
			if math.Abs(got[d]-want[d])/scale > 2e-3 {
				t.Fatalf("particle %d dim %d: %v vs %v", i, d, got[d], want[d])
			}
		}
	}
}

func TestTreeMonopoleAccuracy(t *testing.T) {
	p := randomParticles(t, 500, 100, 8)
	opt := Options{Theta: 0.4, RSplit: 5, Soft: 0.1}
	tr, err := Build(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	maxRel := 0.0
	for i := 0; i < 40; i++ {
		pos := [3]float64{p.Pos[0][i], p.Pos[1][i], p.Pos[2][i]}
		got := tr.Accel(pos)
		want := DirectShortRange(p, i, opt.Soft, opt.RSplit)
		norm := math.Sqrt(want[0]*want[0] + want[1]*want[1] + want[2]*want[2])
		if norm == 0 {
			continue
		}
		var d2 float64
		for d := 0; d < 3; d++ {
			d2 += (got[d] - want[d]) * (got[d] - want[d])
		}
		rel := math.Sqrt(d2) / norm
		if rel > maxRel {
			maxRel = rel
		}
	}
	if maxRel > 0.05 {
		t.Fatalf("θ=0.4 worst-case force error %v > 5%%", maxRel)
	}
}

// scalarAccel is Accel through the erfc-per-pair kernel: the same walk for
// the point, summed by kernelScalar. Softened trees only (no self pair).
func scalarAccel(tr *Tree, pos [3]float64) [3]float64 {
	var w walker
	tr.gather(&w, pos, [3]float64{})
	return kernelScalar(&w.list, pos[0], pos[1], pos[2], tr.opt.Soft, tr.opt.RSplit)
}

// scalarAccelAll is AccelAll through the erfc-per-pair kernel: the same
// group walk, each member summed by kernelScalar. Softened trees only.
func scalarAccelAll(tr *Tree, acc [3][]float64) {
	var w walker
	for _, ni := range tr.groups {
		lo, hi := tr.nodes[ni].lo, tr.nodes[ni].hi
		c, h := tr.groupBox(lo, hi)
		tr.gather(&w, c, h)
		for i := lo; i < hi; i++ {
			a := kernelScalar(&w.list, tr.px[i], tr.py[i], tr.pz[i], tr.opt.Soft, tr.opt.RSplit)
			j := tr.perm[i]
			acc[0][j], acc[1][j], acc[2][j] = a[0], a[1], a[2]
		}
	}
}

func TestScalarAndBatchedKernelsAgree(t *testing.T) {
	p := randomParticles(t, 200, 100, 9)
	tr, err := Build(p, Options{Theta: 0.5, RSplit: 5, Soft: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		pos := [3]float64{p.Pos[0][i], p.Pos[1][i], p.Pos[2][i]}
		a := scalarAccel(tr, pos)
		b := tr.Accel(pos)
		norm := math.Abs(a[0]) + math.Abs(a[1]) + math.Abs(a[2]) + 1e-12
		for d := 0; d < 3; d++ {
			if math.Abs(a[d]-b[d])/norm > 1e-3 {
				t.Fatalf("kernels disagree at %d dim %d: %v vs %v", i, d, a[d], b[d])
			}
		}
	}
}

func TestIsolatedPairNewton(t *testing.T) {
	// Two close particles: the short-range force alone is essentially the
	// full Newtonian force (g ≈ 1 for r ≪ r_s).
	p, _ := nbody.NewParticles(2, 3.0, [3]float64{1000, 1000, 1000})
	p.Pos[0][0], p.Pos[1][0], p.Pos[2][0] = 500, 500, 500
	p.Pos[0][1], p.Pos[1][1], p.Pos[2][1] = 501, 500, 500
	tr, err := Build(p, Options{Theta: 0, RSplit: 100, Soft: 0})
	if err != nil {
		t.Fatal(err)
	}
	a := tr.Accel([3]float64{500, 500, 500})
	want := units.G * p.Mass // G m / r² at r = 1
	if math.Abs(a[0]-want)/want > 1e-3 {
		t.Fatalf("pair force %v, want %v", a[0], want)
	}
	if math.Abs(a[1]) > 1e-10 || math.Abs(a[2]) > 1e-10 {
		t.Fatalf("transverse force should vanish: %v", a)
	}
	// Soft: 0 through the group walk, where both particles share one list
	// that holds each of them at zero distance from itself: the self term
	// must be dropped, not evaluated as 0/0.
	var acc [3][]float64
	for d := range acc {
		acc[d] = make([]float64, 2)
	}
	if err := tr.AccelAll(acc); err != nil {
		t.Fatal(err)
	}
	if acc[0][0] != a[0] || acc[0][1] != -a[0] {
		t.Fatalf("group walk pair force %v, %v; want ±%v", acc[0][0], acc[0][1], a[0])
	}
}

func TestNewtonThirdLawAntisymmetry(t *testing.T) {
	p, _ := nbody.NewParticles(2, 1.0, [3]float64{100, 100, 100})
	p.Pos[0][0], p.Pos[1][0], p.Pos[2][0] = 40, 50, 50
	p.Pos[0][1], p.Pos[1][1], p.Pos[2][1] = 46, 50, 50
	tr, err := Build(p, Options{Theta: 0, RSplit: 3, Soft: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	a0 := tr.Accel([3]float64{40, 50, 50})
	a1 := tr.Accel([3]float64{46, 50, 50})
	for d := 0; d < 3; d++ {
		if math.Abs(a0[d]+a1[d]) > 1e-12*(math.Abs(a0[d])+1) {
			t.Fatalf("third law violated dim %d: %v vs %v", d, a0[d], a1[d])
		}
	}
}

func TestPeriodicMinimumImageForce(t *testing.T) {
	// A particle near x=0 and one near x=L attract across the boundary.
	p, _ := nbody.NewParticles(2, 1.0, [3]float64{100, 100, 100})
	p.Pos[0][0], p.Pos[1][0], p.Pos[2][0] = 0.5, 50, 50
	p.Pos[0][1], p.Pos[1][1], p.Pos[2][1] = 99.5, 50, 50
	tr, err := Build(p, Options{Theta: 0, RSplit: 3, Soft: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	a := tr.Accel([3]float64{0.5, 50, 50})
	if a[0] >= 0 {
		t.Fatalf("force should pull across the periodic boundary (negative x): %v", a[0])
	}
}

func TestAccelAllMatchesAccel(t *testing.T) {
	// Accel is the group walk for a point: at θ = 0 its list holds the same
	// in-range sources in the same order as the particle's group list (the
	// group's extras lie beyond the particle's cutoff and add exact zeros),
	// so the two agree bit for bit. With θ > 0 the group accepts a cell from
	// its bounding box, the point from itself, and they agree to the
	// monopole error.
	p := randomParticles(t, 1500, 100, 11)
	var acc [3][]float64
	for d := 0; d < 3; d++ {
		acc[d] = make([]float64, p.N)
	}
	for _, theta := range []float64{0, 0.5} {
		tr, err := Build(p, Options{Theta: theta, RSplit: 4, Soft: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.AccelAll(acc); err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{0, 42, 149, 1499} {
			want := tr.Accel([3]float64{p.Pos[0][i], p.Pos[1][i], p.Pos[2][i]})
			norm := math.Abs(want[0]) + math.Abs(want[1]) + math.Abs(want[2])
			for d := 0; d < 3; d++ {
				if theta == 0 && acc[d][i] != want[d] {
					t.Fatalf("θ=0: AccelAll differs from Accel at %d dim %d: %v vs %v", i, d, acc[d][i], want[d])
				}
				if math.Abs(acc[d][i]-want[d]) > 1e-3*norm {
					t.Fatalf("θ=%v: AccelAll %v vs Accel %v at %d dim %d", theta, acc[d][i], want[d], i, d)
				}
			}
		}
	}
	tr, err := Build(p, Options{Theta: 0.5, RSplit: 4, Soft: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	var short [3][]float64
	short[0] = make([]float64, 3)
	short[1] = make([]float64, p.N)
	short[2] = make([]float64, p.N)
	if err := tr.AccelAll(short); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestTreeMassConservation(t *testing.T) {
	// Root node mass equals total mass; checked for random particle sets.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(200)
		p, _ := nbody.NewParticles(n, 1.25, [3]float64{50, 50, 50})
		for i := 0; i < n; i++ {
			for d := 0; d < 3; d++ {
				p.Pos[d][i] = rng.Float64() * 50
			}
		}
		tr, err := Build(p, Options{Theta: 0.5, RSplit: 2})
		if err != nil {
			return false
		}
		return math.Abs(tr.nodes[0].mass-float64(n)*1.25) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestClusteredParticlesDeepTree(t *testing.T) {
	// Many particles at nearly the same point must not break the build
	// (depth cap) and forces must stay finite with softening.
	p, _ := nbody.NewParticles(100, 1.0, [3]float64{100, 100, 100})
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < p.N; i++ {
		p.Pos[0][i] = 50 + rng.Float64()*1e-8
		p.Pos[1][i] = 50 + rng.Float64()*1e-8
		p.Pos[2][i] = 50 + rng.Float64()*1e-8
	}
	tr, err := Build(p, Options{Theta: 0.5, RSplit: 5, Soft: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	a := tr.Accel([3]float64{50, 50, 50})
	for d := 0; d < 3; d++ {
		if math.IsNaN(a[d]) || math.IsInf(a[d], 0) {
			t.Fatalf("non-finite acceleration %v", a)
		}
	}
}

// TestAccelAllWorkerInvariance: the parallel walk deals whole target groups
// to workers and a particle's force depends on its group alone, so any
// worker count returns bit-identical accelerations — the property a
// scheduler-owned core budget relies on.
func TestAccelAllWorkerInvariance(t *testing.T) {
	p := randomParticles(t, 3000, 100, 11)
	tr, err := Build(p, Options{Theta: 0.5, RSplit: 4, Soft: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.groups) < 3*minGroupsPerWorker {
		t.Fatalf("%d groups: too few for three workers to run", len(tr.groups))
	}
	var def, one, three [3][]float64
	for d := 0; d < 3; d++ {
		def[d] = make([]float64, p.N)
		one[d] = make([]float64, p.N)
		three[d] = make([]float64, p.N)
	}
	if err := tr.AccelAll(def); err != nil { // GOMAXPROCS default
		t.Fatal(err)
	}
	tr.SetWorkers(1)
	if err := tr.AccelAll(one); err != nil {
		t.Fatal(err)
	}
	tr.SetWorkers(3)
	if err := tr.AccelAll(three); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 3; d++ {
		for i := 0; i < p.N; i++ {
			if def[d][i] != one[d][i] || three[d][i] != one[d][i] {
				t.Fatalf("acc[%d][%d]: default %v, one worker %v, three %v", d, i, def[d][i], one[d][i], three[d][i])
			}
		}
	}
	tr.SetWorkers(0)
	if tr.workers != 1 {
		t.Fatalf("workers %d after SetWorkers(0), want floor 1", tr.workers)
	}
}

// TestCutoffCullOffCentreCell: a cell's particles can lie up to 2√3·half
// from its centre of mass, so a cull by |com − target| − √3·half dropped a
// far-off-centre cell while one of its particles sat well inside the cutoff.
// The cull goes by the bounding box of the cell's particles.
func TestCutoffCullOffCentreCell(t *testing.T) {
	const box, rs, soft = 64.0, 2.0, 0.01
	var pts [][3]float64
	a := [3]float64{32.1, 32.1, 32.1}
	pts = append(pts, a)
	for k := 0; k < 7; k++ { // drag the octant's centre of mass to its far corner
		pts = append(pts, [3]float64{63 + 0.01*float64(k), 63.1, 63.2})
	}
	off := 6 / math.Sqrt(3)
	target := len(pts)
	pts = append(pts, [3]float64{a[0] - off, a[1] - off, a[2] - off}) // 6 < r_cut = 9 from a
	for k := 0; k < 20; k++ {
		pts = append(pts, [3]float64{50 + 0.3*float64(k%10), 10 + 0.2*float64(k), 5 + 0.1*float64(k)})
	}
	p, err := nbody.NewParticles(len(pts), 2.0, [3]float64{box, box, box})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range pts {
		p.Pos[0][i], p.Pos[1][i], p.Pos[2][i] = x[0], x[1], x[2]
	}
	want := DirectShortRange(p, target, soft, rs)
	if want[0] < 0.1 {
		t.Fatalf("reproducer lost its in-range neighbour: direct force %v", want)
	}
	for _, theta := range []float64{0, 0.5} {
		tr, err := Build(p, Options{Theta: theta, RSplit: rs, Soft: soft})
		if err != nil {
			t.Fatal(err)
		}
		got := scalarAccel(tr, pts[target])
		for d := 0; d < 3; d++ {
			if math.Abs(got[d]-want[d]) > 1e-9*want[d] {
				t.Fatalf("θ=%v: Accel %v, direct %v", theta, got, want)
			}
		}
	}
}

// clusteredParticles draws half the set from a few tight Gaussian clumps
// (one straddling the periodic boundary) and half uniformly.
func clusteredParticles(t *testing.T, n int, box float64, seed int64) *nbody.Particles {
	t.Helper()
	p := randomParticles(t, n, box, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	centres := [][3]float64{{0.3, 0.5, box - 0.2}, {0.4 * box, 0.6 * box, 0.5 * box}, {0.8 * box, 0.2 * box, 0.7 * box}}
	for i := 0; i < n/2; i++ {
		c := centres[i%len(centres)]
		for d := 0; d < 3; d++ {
			p.Pos[d][i] = p.Wrap(d, c[d]+rng.NormFloat64()*0.02*box)
		}
	}
	return p
}

// TestGroupWalkMatchesDirect holds the group walk against direct summation
// on uniform and clustered sets: at θ = 0 with the scalar kernel every pair
// inside the cutoff is summed exactly once (1e-12), and at θ = 0.5 with the
// batched kernel the median relative error stays ≤ 1e-5.
func TestGroupWalkMatchesDirect(t *testing.T) {
	const box, rs, soft = 100.0, 4.0, 0.05
	sets := map[string]*nbody.Particles{
		"uniform":   randomParticles(t, 2000, box, 21),
		"clustered": clusteredParticles(t, 2000, box, 22),
	}
	for name, p := range sets {
		var acc [3][]float64
		for d := range acc {
			acc[d] = make([]float64, p.N)
		}
		relErrs := func(opt Options, scalar bool) []float64 {
			tr, err := Build(p, opt)
			if err != nil {
				t.Fatal(err)
			}
			if scalar {
				scalarAccelAll(tr, acc)
			} else if err := tr.AccelAll(acc); err != nil {
				t.Fatal(err)
			}
			var errs []float64
			for i := 0; i < p.N; i += 7 {
				want := DirectShortRange(p, i, soft, rs)
				var diff, norm float64
				for d := 0; d < 3; d++ {
					diff += (acc[d][i] - want[d]) * (acc[d][i] - want[d])
					norm += want[d] * want[d]
				}
				if norm > 0 {
					errs = append(errs, math.Sqrt(diff/norm))
				}
			}
			sort.Float64s(errs)
			return errs
		}
		exact := relErrs(Options{Theta: 0, RSplit: rs, Soft: soft}, true)
		if worst := exact[len(exact)-1]; worst > 1e-12 {
			t.Errorf("%s: θ=0 scalar group walk off direct summation by %.3g", name, worst)
		}
		batched := relErrs(Options{Theta: 0.5, RSplit: rs, Soft: soft}, false)
		if med := batched[len(batched)/2]; med > 1e-5 {
			t.Errorf("%s: θ=0.5 batched median relative error %.3g > 1e-5", name, med)
		}
	}
}

// TestRebuildInPlace: after the particles move, Rebuild gives the tree a
// fresh Build would, and a warmed build-and-walk cycle allocates nothing.
func TestRebuildInPlace(t *testing.T) {
	p := clusteredParticles(t, 1200, 100, 31)
	opt := Options{Theta: 0.5, RSplit: 4, Soft: 0.1}
	tr, err := Build(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetWorkers(1)
	var got, want [3][]float64
	for d := range got {
		got[d] = make([]float64, p.N)
		want[d] = make([]float64, p.N)
	}
	if err := tr.AccelAll(got); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < p.N; i++ {
		for d := 0; d < 3; d++ {
			p.Pos[d][i] = p.Wrap(d, p.Pos[d][i]+rng.NormFloat64())
		}
	}
	tr.Rebuild()
	if err := tr.AccelAll(got); err != nil {
		t.Fatal(err)
	}
	fresh, err := Build(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.AccelAll(want); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 3; d++ {
		for i := range got[d] {
			if got[d][i] != want[d][i] {
				t.Fatalf("rebuilt tree differs from a fresh build at acc[%d][%d]: %v vs %v", d, i, got[d][i], want[d][i])
			}
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		tr.Rebuild()
		if err := tr.AccelAll(got); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed Rebuild + AccelAll allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestNodeSize: the walk reads a node per candidate cell, so node stays
// within 112 bytes with its particle bounds: the geometric centre and eight
// child slots are not stored beside them.
func TestNodeSize(t *testing.T) {
	if s := unsafe.Sizeof(node{}); s > 112 {
		t.Fatalf("node is %d bytes, want ≤ 112", s)
	}
}
