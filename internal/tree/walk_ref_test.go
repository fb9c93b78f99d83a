package tree

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"vlasov6d/internal/nbody"
)

// The reference walk is the one this package used before the walk culled
// by particle bounds: a node that stored its geometric centre and eight
// child slots, a cull by the geometric cell alone, and a per-particle test
// on every leaf that cull keeps. Its build, gather and walk are kept here
// as they were, so that the accelerations of the new walk can be held to
// it bit for bit.

// refNode is the reference octree cell.
type refNode struct {
	centre [3]float64 // geometric centre of the cell
	half   float64    // half-width
	com    [3]float64
	mass   float64
	// children indices into Tree.nodes (−1 when absent).
	children [8]int32
	leaf     bool
	lo, hi   int32 // particle range [lo,hi) in tree order
}

// refTree is a Tree rebuilt into reference nodes: its own particle order
// (the same as the tree's, since the partitions are), nodes and groups.
type refTree struct {
	*Tree
	nodes  []refNode
	groups []int32
}

func newRefTree(t *testing.T, p *nbody.Particles, opt Options) *refTree {
	t.Helper()
	tr, err := Build(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	r := &refTree{Tree: tr}
	r.Rebuild()
	return r
}

func (t *refTree) Rebuild() {
	p := t.p
	for i := range t.perm {
		t.perm[i] = int32(i)
		t.px[i] = p.Pos[0][i]
		t.py[i] = p.Pos[1][i]
		t.pz[i] = p.Pos[2][i]
	}
	l := p.Box[0]
	t.nodes = append(t.nodes[:0], refNode{centre: [3]float64{l / 2, l / 2, l / 2}, half: l / 2})
	t.groups = t.groups[:0]
	t.build(0, 0, int32(p.N), 0, false)
}

func (t *refTree) build(ni int32, lo, hi int32, depth int, grouped bool) {
	n := &t.nodes[ni]
	// Compute mass and centre of mass.
	var cx, cy, cz float64
	for i := lo; i < hi; i++ {
		cx += t.px[i]
		cy += t.py[i]
		cz += t.pz[i]
	}
	cnt := float64(hi - lo)
	n.mass = cnt * t.p.Mass
	n.com = [3]float64{cx / cnt, cy / cnt, cz / cnt}
	n.lo, n.hi = lo, hi
	for c := range n.children {
		n.children[c] = -1
	}
	n.leaf = hi-lo <= leafSize || depth >= maxDepth
	if !grouped && (n.leaf || hi-lo <= groupSize) {
		t.groups = append(t.groups, ni)
		grouped = true
	}
	if n.leaf {
		return
	}
	// Partition the range into octants about the cell centre (in-place
	// three-level Hoare-style splits).
	var bounds [9]int32
	bounds[0], bounds[8] = lo, hi
	mid := t.partition(lo, hi, 0, n.centre[0])
	q1 := t.partition(lo, mid, 1, n.centre[1])
	q2 := t.partition(mid, hi, 1, n.centre[1])
	bounds[2], bounds[4], bounds[6] = q1, mid, q2
	bounds[1] = t.partition(lo, q1, 2, n.centre[2])
	bounds[3] = t.partition(q1, mid, 2, n.centre[2])
	bounds[5] = t.partition(mid, q2, 2, n.centre[2])
	bounds[7] = t.partition(q2, hi, 2, n.centre[2])
	half := n.half / 2
	centre := n.centre
	for oct := 0; oct < 8; oct++ {
		clo, chi := bounds[oct], bounds[oct+1]
		if clo >= chi {
			continue
		}
		var cc [3]float64
		// Octant encoding: bit2 = x-high, bit1 = y-high, bit0 = z-high.
		if oct&4 != 0 {
			cc[0] = centre[0] + half
		} else {
			cc[0] = centre[0] - half
		}
		if oct&2 != 0 {
			cc[1] = centre[1] + half
		} else {
			cc[1] = centre[1] - half
		}
		if oct&1 != 0 {
			cc[2] = centre[2] + half
		} else {
			cc[2] = centre[2] - half
		}
		ci := int32(len(t.nodes))
		t.nodes = append(t.nodes, refNode{centre: cc, half: half})
		t.nodes[ni].children[oct] = ci
		t.build(ci, clo, chi, depth+1, grouped)
	}
}

func (t *refTree) gather(w *walker, c, h [3]float64) {
	w.list.reset()
	l := t.p.Box[0]
	// Image offsets per axis: 0 always, +l when the padded box sticks out
	// above the domain (sources near 0 act from beyond l), −l below.
	var off [3][3]float64
	n := [3]int{1, 1, 1}
	for k := 0; k < 3; k++ {
		if c[k]+h[k]+t.rcut > l {
			off[k][n[k]] = l
			n[k]++
		}
		if c[k]-h[k]-t.rcut < 0 {
			off[k][n[k]] = -l
			n[k]++
		}
	}
	for _, ox := range off[0][:n[0]] {
		for _, oy := range off[1][:n[1]] {
			for _, oz := range off[2][:n[2]] {
				t.walk(w, c, h, [3]float64{ox, oy, oz})
			}
		}
	}
}

// walk appends the sources of the tree translated by o. A cell is culled
// when the minimum distance between it and the target box exceeds the
// cutoff, and accepted as a monopole when it subtends less than θ from the
// nearest point of the box; both tests compare squared (doubled) distances.
// The cull measures from the cell's geometric bounds, not its centre of
// mass, which can sit anywhere inside them.
func (t *refTree) walk(w *walker, c, h, o [3]float64) {
	rc2 := 4 * t.rcut * t.rcut // against gap2's doubled distances
	th2 := t.opt.Theta * t.opt.Theta
	cx, cy, cz := c[0]-o[0], c[1]-o[1], c[2]-o[2]
	hx, hy, hz := h[0], h[1], h[2]
	mass := t.p.Mass
	stack := append(w.stack[:0], 0)
	for len(stack) > 0 {
		n := &t.nodes[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		dx := gap2(n.centre[0], cx, hx+n.half)
		dy := gap2(n.centre[1], cy, hy+n.half)
		dz := gap2(n.centre[2], cz, hz+n.half)
		if dx*dx+dy*dy+dz*dz > rc2 {
			continue
		}
		if n.leaf {
			for i := n.lo; i < n.hi; i++ {
				x, y, z := t.px[i], t.py[i], t.pz[i]
				dx, dy, dz := gap2(x, cx, hx), gap2(y, cy, hy), gap2(z, cz, hz)
				if dx*dx+dy*dy+dz*dz <= rc2 {
					w.list.add(x+o[0], y+o[1], z+o[2], mass)
				}
			}
			continue
		}
		if th2 > 0 {
			dx, dy, dz := gap2(n.com[0], cx, hx), gap2(n.com[1], cy, hy), gap2(n.com[2], cz, hz)
			if 16*n.half*n.half < th2*(dx*dx+dy*dy+dz*dz) {
				w.list.add(n.com[0]+o[0], n.com[1]+o[1], n.com[2]+o[2], n.mass)
				continue
			}
		}
		for _, ch := range n.children {
			if ch >= 0 {
				stack = append(stack, ch)
			}
		}
	}
	w.stack = stack
}

// accelAll is AccelAll through the reference walk: each group's reference
// list run through the kernel the tree would run it through.
func (t *refTree) accelAll(acc [3][]float64) {
	var w walker
	for _, ni := range t.groups {
		lo, hi := t.nodes[ni].lo, t.nodes[ni].hi
		c, h := t.groupBox(lo, hi)
		t.gather(&w, c, h)
		if t.vector {
			t.accelBlocks(&w, lo, hi, acc)
			continue
		}
		for i := lo; i < hi; i++ {
			a := t.accel(&w, t.px[i], t.py[i], t.pz[i])
			j := t.perm[i]
			acc[0][j], acc[1][j], acc[2][j] = a[0], a[1], a[2]
		}
	}
}

// accelAt is Accel through the reference walk.
func (t *refTree) accelAt(pos [3]float64) [3]float64 {
	var w walker
	t.gather(&w, pos, [3]float64{})
	return t.Tree.accel(&w, pos[0], pos[1], pos[2])
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkAgainstReference holds a tree over p to the reference walk: the same
// groups, the same permutation, AccelAll with the vector kernel on and off
// and Accel at the given points equal to the bit, and every group's list
// the reference list less entries that add exactly zero for every target
// of the group.
func checkAgainstReference(t *testing.T, name string, p *nbody.Particles, opt Options, points [][3]float64) {
	t.Helper()
	tr, err := Build(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetWorkers(1)
	ref := newRefTree(t, p, opt)
	if len(tr.groups) != len(ref.groups) {
		t.Fatalf("%s: %d groups, reference %d", name, len(tr.groups), len(ref.groups))
	}
	for g, ni := range tr.groups {
		n, r := &tr.nodes[ni], &ref.nodes[ref.groups[g]]
		if n.lo != r.lo || n.hi != r.hi {
			t.Fatalf("%s: group %d holds [%d,%d), reference [%d,%d)", name, g, n.lo, n.hi, r.lo, r.hi)
		}
	}
	for i := range tr.perm {
		if tr.perm[i] != ref.perm[i] {
			t.Fatalf("%s: tree order differs from the reference at %d", name, i)
		}
	}
	var got, want [3][]float64
	for d := range got {
		got[d] = make([]float64, p.N)
		want[d] = make([]float64, p.N)
	}
	for _, vector := range []bool{false, tr.vector} {
		tr.vector, ref.vector = vector, vector
		if err := tr.AccelAll(got); err != nil {
			t.Fatal(err)
		}
		ref.accelAll(want)
		for d := range got {
			for i := range got[d] {
				if !sameBits(got[d][i], want[d][i]) {
					t.Fatalf("%s (vector %v): acc[%d][%d] = %v, reference walk %v", name, vector, d, i, got[d][i], want[d][i])
				}
			}
		}
	}
	for _, pos := range points {
		a, b := tr.Accel(pos), ref.accelAt(pos)
		for d := range a {
			if !sameBits(a[d], b[d]) {
				t.Fatalf("%s: Accel(%v)[%d] = %v, reference walk %v", name, pos, d, a[d], b[d])
			}
		}
	}
	for _, ni := range tr.groups {
		lo, hi := tr.nodes[ni].lo, tr.nodes[ni].hi
		c, h := tr.groupBox(lo, hi)
		var targets [][3]float64
		for i := lo; i < hi; i++ {
			targets = append(targets, [3]float64{tr.px[i], tr.py[i], tr.pz[i]})
		}
		checkList(t, name, tr, ref, c, h, targets)
	}
	for _, pos := range points {
		checkList(t, name, tr, ref, pos, [3]float64{}, [][3]float64{pos})
	}
}

// checkList holds the walk's list for the box of centre c and half-widths h
// to the reference walk's: the same entries in the same order, bar some the
// reference lists that add exactly +0 to every sum of every target.
func checkList(t *testing.T, name string, tr *Tree, ref *refTree, c, h [3]float64, targets [][3]float64) {
	t.Helper()
	var w, wr walker
	tr.gather(&w, c, h)
	ref.gather(&wr, c, h)
	k := 0
	for j := range wr.list.x {
		e := [4]float64{wr.list.x[j], wr.list.y[j], wr.list.z[j], wr.list.m[j]}
		if k < len(w.list.x) && sameBits(e[0], w.list.x[k]) && sameBits(e[1], w.list.y[k]) &&
			sameBits(e[2], w.list.z[k]) && sameBits(e[3], w.list.m[k]) {
			k++
			continue
		}
		one := &sources{x: e[:1], y: e[1:2], z: e[2:3], m: e[3:4]}
		for _, x := range targets {
			f := kernelBatched(one, x[0], x[1], x[2], tr.opt.Soft, tr.opt.RSplit, tr.gtab)
			if math.Float64bits(f[0])|math.Float64bits(f[1])|math.Float64bits(f[2]) != 0 {
				t.Fatalf("%s: the walk for box %v ± %v drops source %v, which pulls %v by %v", name, c, h, e, x, f)
			}
		}
	}
	if k != len(w.list.x) {
		t.Fatalf("%s: the walk for box %v ± %v lists %d sources the reference walk does not", name, c, h, len(w.list.x)-k)
	}
}

// lattice returns n³ particles on the lattice of spacing L/n from the
// origin: every one on a cell face, the first layer on the domain faces.
func lattice(t *testing.T, n int, box float64) *nbody.Particles {
	t.Helper()
	p, err := nbody.NewParticles(n*n*n, 1.5, [3]float64{box, box, box})
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.N {
		p.Pos[0][i] = float64(i/(n*n)) * box / float64(n)
		p.Pos[1][i] = float64(i/n%n) * box / float64(n)
		p.Pos[2][i] = float64(i%n) * box / float64(n)
	}
	return p
}

// boundarySet places eight particles, a target group of their own, and
// sixteen more at rcut one ulp either side of the group box's upper x face,
// beyond the split plane x = L/2; a second such set sits at the upper
// domain face, its sixteen across the periodic boundary. The points are the
// two faces and particles of the set.
func boundarySet(t *testing.T, box, rcut float64) (*nbody.Particles, [][3]float64) {
	t.Helper()
	var pts, points [][3]float64
	for _, s := range []struct{ face, y, z float64 }{{box/2 - rcut + 1, 0.3 * box, 0.6 * box}, {box - 2.5, 0.7 * box, 0.2 * box}} {
		for k := range 8 {
			pts = append(pts, [3]float64{s.face - 1.5*float64(k&1), s.y + float64(k>>1&1), s.z + float64(k>>2)})
		}
		in := s.face + rcut
		for k := range 8 {
			y, z := s.y+0.125*float64(k), s.z+0.1*float64(k%3)
			pts = append(pts, [3]float64{math.Nextafter(in, 0), y, z}, [3]float64{math.Nextafter(in, 2*box), y, z})
		}
		points = append(points, [3]float64{s.face, s.y, s.z})
	}
	p, err := nbody.NewParticles(len(pts), 1.5, [3]float64{box, box, box})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range pts {
		for d := range 3 {
			p.Pos[d][i] = p.Wrap(d, x[d])
		}
	}
	tr, err := Build(p, Options{RSplit: rcut / CutoffFactor})
	if err != nil {
		t.Fatal(err)
	}
	for _, ni := range tr.groups {
		if n := tr.nodes[ni].hi - tr.nodes[ni].lo; n != 8 && n != 16 {
			t.Fatalf("boundary set: a group of %d, want the eights and sixteens apart", n)
		}
	}
	for i := range p.N / 3 {
		points = append(points, [3]float64{p.Pos[0][3*i], p.Pos[1][3*i], p.Pos[2][3*i]})
	}
	return p, points
}

// TestWalkMatchesReference: the walk that culls by particle bounds gives
// every particle the acceleration the reference walk gives it, to the bit,
// at θ = 0 and 0.5, with and without softening, on a lattice on the cell
// faces, a clustered set straddling the periodic boundary, particles at
// rcut ± 1 ulp from a group box, a particle where the geometric cull and
// the particle test disagree, and particles outside the box.
func TestWalkMatchesReference(t *testing.T) {
	const box = 100.0
	rs := 1.25 * box / 64
	rcut := CutoffFactor * rs
	near, nearPoints := boundarySet(t, box, rcut)
	band, bandPoint, bandRS := roundingBand(t)
	stray, strayPoints := strays(t, box, rcut)
	sets := []struct {
		name   string
		p      *nbody.Particles
		points [][3]float64
	}{
		{"lattice 16³", lattice(t, 16, box), [][3]float64{{0, 0, 0}, {box / 2, box / 4, 3 * box / 4}, {99.9, 0.1, 50}}},
		{"clustered", clusteredParticles(t, 2000, box, 51), [][3]float64{{0.3, 0.5, box - 0.2}, {40, 60, 50}}},
		{"rcut ± 1 ulp", near, nearPoints},
		{"rounding band", band, [][3]float64{bandPoint}},
		{"outside the box", stray, strayPoints},
	}
	for _, s := range sets {
		rs := rs
		if s.p == band {
			rs = bandRS
		}
		for _, theta := range []float64{0, 0.5} {
			for _, soft := range []float64{0, rs / 25} {
				opt := Options{Theta: theta, RSplit: rs, Soft: soft}
				checkAgainstReference(t, fmt.Sprintf("%s θ=%v soft=%v", s.name, theta, soft), s.p, opt, s.points)
			}
		}
	}
}

// strays returns a clustered set with every fifth particle moved 3
// outside the box on x and z, as unwrapped positions would be, and points
// beside them. Cells then need not hold their particles: the particle at
// x = −3 sits in a cell whose geometric bounds lie beyond the cutoff of the
// first point, while the particle itself lies inside it, and the reference
// walk's cull drops it.
func strays(t *testing.T, box, rcut float64) (*nbody.Particles, [][3]float64) {
	t.Helper()
	p := clusteredParticles(t, 600, box, 61)
	for i := 0; i < p.N; i += 5 {
		p.Pos[0][i] -= 3
		p.Pos[2][i] += 3
	}
	p.Pos[0][1], p.Pos[1][1], p.Pos[2][1] = -3, box/2, box/2
	return p, [][3]float64{{-3 - 0.99*rcut, box / 2, box / 2}, {0, box / 2, box - 1}, {-1, 3, box + 1}}
}

// roundingBand returns a set, a point and a split scale at which the
// reference walk's geometric cull drops a cell that holds a particle its own
// per-particle test keeps, and which without softening pulls the point. The
// particle sits on the split plane x = L/2, which is also the lower face of
// its cell, the upper half's; the point lies a cutoff below it, at the
// distance where the particle's gap and the cell's, rounded along different
// paths, fall either side of rcut. That takes a box whose quarters do not
// add up exactly, found by search. A walk by particle bounds alone lists
// that particle, and its Accel at the point moves.
func roundingBand(t *testing.T) (*nbody.Particles, [3]float64, float64) {
	t.Helper()
	const box = 144.1654189233706
	rs := 1.25 * box / 64
	rcut := CutoffFactor * rs
	rc2 := 4 * rcut * rcut
	x, y, z := box/2, box/4, box/4
	centre, half := box/2+box/4, box/4 // the upper half's cell, as the build makes it
	px := x - rcut
	for range 64 {
		px = math.Nextafter(px, 0)
	}
	for range 128 {
		gp, gc := gap2(x, px, 0), gap2(centre, px, half)
		one := &sources{x: []float64{x}, y: []float64{y}, z: []float64{z}, m: []float64{1}}
		if gp*gp <= rc2 && gc*gc > rc2 && kernelBatched(one, px, y, z, 0, rs, sharedGTable())[0] != 0 {
			p, err := nbody.NewParticles(20, 1.5, [3]float64{box, box, box})
			if err != nil {
				t.Fatal(err)
			}
			p.Pos[0][0], p.Pos[1][0], p.Pos[2][0] = x, y, z
			for i := 1; i < p.N; i++ { // keep the upper half's cell a leaf
				p.Pos[0][i], p.Pos[1][i], p.Pos[2][i] = 0.1*box+float64(i), 0.2*box+float64(i%3), 0.7*box
			}
			pt := [3]float64{px, y, z}
			ref := newRefTree(t, p, Options{RSplit: rs})
			if a := ref.accelAt(pt); a != [3]float64{} {
				t.Fatalf("the reference walk lists the particle on the split plane: %v", a)
			}
			return p, pt, rs
		}
		px = math.Nextafter(px, box)
	}
	t.Fatal("no point in the rounding band")
	return nil, [3]float64{}, 0
}

// TestSlackCoversRounding pins the walk's slack δ against the largest image
// offset: it must stay at many ulps of 2L and far below the cutoff.
func TestSlackCoversRounding(t *testing.T) {
	p := randomParticles(t, 10, 100, 3)
	tr, err := Build(p, Options{RSplit: 2})
	if err != nil {
		t.Fatal(err)
	}
	ulp := math.Nextafter(200, 300) - 200
	if d := tr.slack(); d < 64*ulp || d > 1e-9*tr.rcut {
		t.Fatalf("slack %v: want ≥ 64 ulp(2L) = %v and ≪ rcut = %v", d, 64*ulp, tr.rcut)
	}
}

// fuzzWalk decodes a fuzz input into at most 64 positions in [0, L]³,
// three bytes a coordinate: a point of the grid of spacing L/2¹⁶ (two
// little-endian bytes) nudged by up to ±127 ulps (one signed byte), wrapped
// into the box. The grid holds every split plane and, at r_s = L/32, the
// cutoff; the nudges reach either side of both.
func fuzzWalk(raw []byte, p *nbody.Particles) {
	l := p.Box[0]
	for i := range p.N {
		for d := range 3 {
			x := float64(binary.LittleEndian.Uint16(raw)) * (l / 65536)
			for n := int8(raw[2]); n != 0; n -= n / max(n, -n) {
				x = math.Nextafter(x, float64(n)*l)
			}
			raw = raw[3:]
			p.Pos[d][i] = p.Wrap(d, x)
		}
	}
}

// walkCoord is a coordinate as fuzzWalk reads it: grid point k, n ulps on.
func walkCoord(k uint16, n int8) []byte {
	return append(binary.LittleEndian.AppendUint16(nil, k), byte(n))
}

// FuzzWalk: on any up to 64 positions in the box — coincident, on the
// split planes, on the domain faces, a cutoff apart to the ulp — and any θ,
// the walk gives AccelAll and Accel the reference walk's accelerations bit
// for bit and lists what it lists, with and without softening and with the
// vector kernel on and off.
//
//	go test -run=NONE -fuzz=FuzzWalk -fuzztime=15s ./internal/tree
func FuzzWalk(f *testing.F) {
	const box, rs = 64.0, 2.0
	const cut = 9 * 1024 // rcut = 4.5·r_s = 9 in grid steps of 64/2¹⁶
	var grid, planes, apart, same []byte
	for k := range 64 {
		for d := range 3 {
			grid = append(grid, walkCoord(uint16(k>>(2*d)&3)<<14, 0)...)
		}
		planes = append(planes, walkCoord(1<<15, int8(k%3-1))...)
		planes = append(planes, walkCoord(uint16(k)<<10, 0)...)
		planes = append(planes, walkCoord(0, int8(k%5-2))...)
		if k < 21 {
			x := uint16(20<<10 + k/3*512)
			apart = append(apart, walkCoord(x+cut*uint16(k%3&1), int8(k%3-1))...)
			apart = append(apart, walkCoord(30<<10, 0)...)
			apart = append(apart, walkCoord(30<<10, 0)...)
		}
		if k < 40 {
			same = append(same, walkCoord(1<<10, 0)...)
			same = append(same, walkCoord(63<<10, 0)...)
			same = append(same, walkCoord(32<<10, 0)...)
		}
	}
	for _, raw := range [][]byte{grid, planes, apart, same, grid[:27], append(apart[:36:36], same[:45]...)} {
		f.Add(0.0, raw)
		f.Add(0.5, raw)
	}
	f.Fuzz(func(t *testing.T, theta float64, raw []byte) {
		n := min(len(raw)/9, 64)
		if n == 0 || !(theta >= 0 && theta <= 2) {
			return
		}
		p, err := nbody.NewParticles(n, 1.5, [3]float64{box, box, box})
		if err != nil {
			t.Fatal(err)
		}
		fuzzWalk(raw, p)
		at := [][3]float64{{p.Pos[0][0], p.Pos[1][0], p.Pos[2][0]}}
		for _, soft := range []float64{0, rs / 25} {
			opt := Options{Theta: theta, RSplit: rs, Soft: soft}
			checkAgainstReference(t, fmt.Sprintf("θ=%v soft=%v", theta, soft), p, opt, at)
		}
	})
}
