// Package tree implements the short-range half of the TreePM gravity solver
// (§5.1.2): a Barnes–Hut octree whose pairwise interactions use the standard
// Gaussian force splitting, so that tree + PM sum to the full Newtonian
// force,
//
//	F_short(r) = G m m' r̂/r² · g(r/r_s),
//	g(x) = erfc(x/2) + (x/√π)·exp(−x²/4),
//
// with the complementary long-range filter exp(−k²·r_s²) applied in the PM
// Green's function. Interactions are cut off at r_cut = 4.5·r_s, where
// g = 1.75·10⁻²: a pair just beyond the cutoff loses 1.75 % of its Newtonian
// force, 8.7·10⁻⁴·G m/r_s² — 0.09 % of the force of a pair one r_s apart —
// and the loss falls like a Gaussian from there (g(6) = 4.4·10⁻⁴). The PM
// half is unaffected, so that is the whole truncation error per pair, and
// over an isotropic neighbourhood the dropped tails cancel.
//
// The inner force loop follows the Phantom-GRAPE design the paper ported to
// SVE: one tree walk per group of nearby targets produces a flat interaction
// list. The walk culls each node by the bounding box of its particles, much
// tighter than its geometric cell, copies a leaf that lies wholly inside the
// cutoff without testing its particles, and tests the others without a
// branch; the list holds exactly the particles a cull by geometric cells
// keeps, in the same order, and loses only monopoles that add exact zeros.
// A branch-free kernel with a tabulated force profile streams it
// past an i-block of four targets held in the lanes of AVX2 registers
// (kernel_amd64.s), each source loaded once per block. Every lane performs
// the Go kernel's operations in the Go kernel's order, without FMA, so the
// accelerations are kernelBatched's to the bit. The block runs where the CPU
// has AVX2 and the softening keeps every pair inside the table (Soft ≥
// RSplit/64, which production's RSplit/25 satisfies); elsewhere, and for
// Accel, kernelBatched streams the list once per target. The erfc-per-pair
// kernelScalar is the exact reference for DirectShortRange and the "w/o
// SIMD" row of the kernel ablation.
package tree

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"vlasov6d/internal/nbody"
	"vlasov6d/internal/par"
	"vlasov6d/internal/units"
)

// CutoffFactor is r_cut/r_s, beyond which the short-range force is dropped.
const CutoffFactor = 4.5

// Options configures the tree build and force evaluation.
type Options struct {
	// Theta is the Barnes–Hut opening angle; 0 forces exact pair summation.
	Theta float64
	// RSplit is the force-split scale r_s (h⁻¹Mpc); typically ~1.25 PM
	// cell widths.
	RSplit float64
	// Soft is the Plummer softening length (h⁻¹Mpc).
	Soft float64
}

func (o *Options) validate() error {
	if o.RSplit <= 0 {
		return fmt.Errorf("tree: RSplit must be positive")
	}
	if o.Theta < 0 {
		return fmt.Errorf("tree: negative Theta")
	}
	if o.Soft < 0 {
		return fmt.Errorf("tree: negative softening")
	}
	return nil
}

// node is one octree cell. The walk culls and copies by pmin–pmax, the
// exact bounding box of the cell's particles, which is much tighter than
// the geometric cell; the cell's half-width sets the opening angle. Its
// centre is passed down the build, not stored: the walk needs it only in
// the rounding band (see walk), where centre recomputes it.
type node struct {
	pmin, pmax [3]float64 // corners of the particles' bounding box
	com        [3]float64
	mass       float64
	half       float64 // half-width of the geometric cell
	// first indexes the children in Tree.nodes: one per bit of octs, in
	// octant order from first on. Bit k of octs is set when octant k
	// (bit2 = x-high, bit1 = y-high, bit0 = z-high) holds particles; a leaf
	// has octs = 0.
	first  int32
	lo, hi int32 // particle range [lo,hi) in tree order
	octs   uint8
}

// leafSize caps the particles of one leaf.
const leafSize = 8

// groupSize caps the particles of one target group: AccelAll walks the tree
// once per group and every member streams the shared interaction list. A
// larger group amortises the walk over more targets but lengthens the list
// each of them streams (it covers the group's bounding box padded by the
// cutoff). Subtree sizes come in steps of ~8, so what matters is which step
// the cap lands on: measured over near-uniform 12³–32³ sets at r_s = 1.25 PM
// cells, 32 is best or within 10 % of best on each (groups of 8 at 32³, of
// 27 at 12³), while 8 and 64 each lose 30–40 % somewhere.
const groupSize = 32

// minGroupsPerWorker is the least work AccelAll hands a goroutine (a group
// of nbody_step's 32³ set takes 6–16 µs); with less per worker the second goroutine's wake-up eats the
// gain, so the walk runs on fewer workers, down to the calling goroutine.
const minGroupsPerWorker = 16

// Tree is the built octree plus the particle reference.
type Tree struct {
	opt   Options
	p     *nbody.Particles
	nodes []node
	// perm is the particle permutation applied during the build; px/py/pz
	// are the permuted coordinate arrays, so a subtree's particles are one
	// contiguous range.
	perm       []int32
	px, py, pz []float64
	// groups lists the target groups in tree order: the topmost nodes
	// holding at most groupSize particles (or a leaf that holds more).
	groups []int32
	rcut   float64
	gtab   *gTable
	// vector routes AccelAll through the AVX2 block kernel: the CPU has it
	// and the softening keeps every pair inside the force table
	// (Soft ≥ RSplit/64).
	vector bool
	// workers pins the AccelAll parallelism (0 = GOMAXPROCS at call time,
	// the historical default). Set through SetWorkers so a scheduler-owned
	// core budget can see — and bound — the walk's goroutines.
	workers int
	walkers []walker // AccelAll's per-worker scratch, kept across calls
}

// SetWorkers pins the number of goroutines AccelAll parallelises the walk
// over (minimum 1). Without it the walk reads GOMAXPROCS at call time,
// which is invisible to any core budget. The worker count never changes
// the computed accelerations: whole target groups are dealt to workers and
// a particle's force depends on its group alone.
func (t *Tree) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	t.workers = n
}

// Build constructs an octree over the particles.
func Build(p *nbody.Particles, opt Options) (*Tree, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if p.Box[0] != p.Box[1] || p.Box[1] != p.Box[2] {
		return nil, fmt.Errorf("tree: cubic boxes only (got %v)", p.Box)
	}
	t := &Tree{
		opt:  opt,
		p:    p,
		rcut: CutoffFactor * opt.RSplit,
		gtab: sharedGTable(),
		perm: make([]int32, p.N),
		px:   make([]float64, p.N),
		py:   make([]float64, p.N),
		pz:   make([]float64, p.N),
	}
	if t.rcut > p.Box[0]/2 {
		return nil, fmt.Errorf("tree: cutoff %v exceeds half box %v", t.rcut, p.Box[0]/2)
	}
	// The vector kernel needs every s = (r² + e2)/r_s² inside the table:
	// e2/r_s² ≥ 2^gTabMinExp bounds s from below, rounding included.
	e2, invRs2 := opt.Soft*opt.Soft, 1/(opt.RSplit*opt.RSplit)
	t.vector = haveAVX2 && e2*invRs2 >= math.Ldexp(1, gTabMinExp)
	t.Rebuild()
	return t, nil
}

// Rebuild re-reads the positions of the particle set the tree was built
// over and rebuilds the octree into the existing node, permutation and
// coordinate storage: a step loop builds once and rebuilds after every
// drift without allocating.
func (t *Tree) Rebuild() {
	p := t.p
	for i := range t.perm {
		t.perm[i] = int32(i)
		t.px[i] = p.Pos[0][i]
		t.py[i] = p.Pos[1][i]
		t.pz[i] = p.Pos[2][i]
	}
	l := p.Box[0]
	t.nodes = append(t.nodes[:0], node{half: l / 2})
	t.groups = t.groups[:0]
	t.build(0, [3]float64{l / 2, l / 2, l / 2}, 0, int32(p.N), 0, false)
}

const maxDepth = 48

// build recursively partitions particle range [lo,hi) under node ni, whose
// geometric cell is centred on centre; grouped says an ancestor already is
// a target group.
func (t *Tree) build(ni int32, centre [3]float64, lo, hi int32, depth int, grouped bool) {
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
	leaf := hi-lo <= leafSize || depth >= maxDepth
	if !grouped && (leaf || hi-lo <= groupSize) {
		t.groups = append(t.groups, ni)
		grouped = true
	}
	if leaf {
		for k, coord := range [3][]float64{t.px, t.py, t.pz} {
			mn, mx := coord[lo], coord[lo]
			for _, v := range coord[lo+1 : hi] {
				mn, mx = min(mn, v), max(mx, v)
			}
			n.pmin[k], n.pmax[k] = mn, mx
		}
		return
	}
	// Partition the range into octants about the cell centre (in-place
	// three-level Hoare-style splits).
	var bounds [9]int32
	bounds[0], bounds[8] = lo, hi
	mid := t.partition(lo, hi, 0, centre[0])
	q1 := t.partition(lo, mid, 1, centre[1])
	q2 := t.partition(mid, hi, 1, centre[1])
	bounds[2], bounds[4], bounds[6] = q1, mid, q2
	bounds[1] = t.partition(lo, q1, 2, centre[2])
	bounds[3] = t.partition(q1, mid, 2, centre[2])
	bounds[5] = t.partition(mid, q2, 2, centre[2])
	bounds[7] = t.partition(q2, hi, 2, centre[2])
	// The children are appended as one run before any of them recurses.
	half := n.half / 2
	first := int32(len(t.nodes))
	var octs uint8
	for oct := range 8 {
		if bounds[oct] < bounds[oct+1] {
			octs |= 1 << oct
			t.nodes = append(t.nodes, node{half: half})
		}
	}
	n = &t.nodes[ni] // the appends may have moved the nodes
	n.first, n.octs = first, octs
	ci := first
	for m := octs; m != 0; m &= m - 1 {
		oct := bits.TrailingZeros8(m)
		t.build(ci, childCentre(centre, half, oct), bounds[oct], bounds[oct+1], depth+1, grouped)
		ci++
	}
	// The particle box is the children's boxes' hull: min and max round
	// nothing.
	n = &t.nodes[ni]
	n.pmin, n.pmax = t.nodes[first].pmin, t.nodes[first].pmax
	for _, c := range t.nodes[first+1 : ci] {
		for k := range 3 {
			n.pmin[k], n.pmax[k] = min(n.pmin[k], c.pmin[k]), max(n.pmax[k], c.pmax[k])
		}
	}
}

// childCentre returns the centre of the cell's octant oct (bit2 = x-high,
// bit1 = y-high, bit0 = z-high), the child's half-width half away from the
// cell centre c along each axis.
func childCentre(c [3]float64, half float64, oct int) [3]float64 {
	for k := range 3 {
		if oct&(4>>k) != 0 {
			c[k] += half
		} else {
			c[k] -= half
		}
	}
	return c
}

// partition reorders [lo,hi) so that coords[dim] < pivot come first and
// returns the split point.
func (t *Tree) partition(lo, hi int32, dim int, pivot float64) int32 {
	coord := t.px
	if dim == 1 {
		coord = t.py
	} else if dim == 2 {
		coord = t.pz
	}
	i, j := lo, hi
	for i < j {
		for i < j && coord[i] < pivot {
			i++
		}
		for i < j && coord[j-1] >= pivot {
			j--
		}
		if i < j-1 {
			t.swap(i, j-1)
			i++
			j--
		}
	}
	return i
}

func (t *Tree) swap(a, b int32) {
	t.px[a], t.px[b] = t.px[b], t.px[a]
	t.py[a], t.py[b] = t.py[b], t.py[a]
	t.pz[a], t.pz[b] = t.pz[b], t.pz[a]
	t.perm[a], t.perm[b] = t.perm[b], t.perm[a]
}

// sources is the Phantom-GRAPE interaction list, structure of arrays: the
// positions of the accepted particles and cell monopoles, each in the
// periodic image nearest the targets, and their masses.
type sources struct {
	x, y, z, m []float64
}

func (s *sources) reset() {
	s.x, s.y, s.z, s.m = s.x[:0], s.y[:0], s.z[:0], s.m[:0]
}

// grow makes room for n more sources without moving the list's length.
func (s *sources) grow(n int) {
	s.x, s.y = slices.Grow(s.x, n), slices.Grow(s.y, n)
	s.z, s.m = slices.Grow(s.z, n), slices.Grow(s.m, n)
}

func (s *sources) add(x, y, z, m float64) {
	s.x = append(s.x, x)
	s.y = append(s.y, y)
	s.z = append(s.z, z)
	s.m = append(s.m, m)
}

// walker is one goroutine's walk state, reused from group to group.
type walker struct {
	stack []int32
	list  sources
	// apart is the per-target copy of list without the sources at zero
	// distance; only an unsoftened tree needs it (see accel).
	apart sources
}

// stackSize bounds the walk stack: each level down leaves at most seven
// siblings on it, and opening a node writes at most eight.
const stackSize = 7*maxDepth + 8

// gather fills w.list with every source that can act on a target inside the
// box of centre c and half-widths h: one walk per periodic image of the box
// that the cutoff reaches. The list is a superset for any single target; the
// kernels drop what lies beyond that target's own cutoff.
func (t *Tree) gather(w *walker, c, h [3]float64) {
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

// gap2 returns twice the distance from coordinate a to the interval of
// centre c and half-width h, 2·max(|a−c|−h, 0), in arithmetic the compiler
// leaves free of branches and spills (its float max is neither).
func gap2(a, c, h float64) float64 {
	d := math.Abs(a-c) - h
	return d + math.Abs(d)
}

// sep2 returns twice the gap between the intervals [lo,hi] and [blo,bhi]:
// at most one of the two differences is positive.
func sep2(lo, hi, blo, bhi float64) float64 {
	a, b := lo-bhi, blo-hi
	return a + math.Abs(a) + b + math.Abs(b)
}

// reach4 returns four times the distance from the interval of centre c and
// half-width h to the farthest point of [lo,hi].
func reach4(lo, hi, c, h float64) float64 {
	d := math.Abs(lo+hi-2*c) + (hi - lo) - 2*h
	return d + math.Abs(d)
}

// within returns 1 when d ≤ r2 and 0 otherwise, which the compiler makes
// a flag set rather than a branch.
func within(d, r2 float64) int {
	if d <= r2 {
		return 1
	}
	return 0
}

// slack is δ, the margin by which the walk's particle-box tests stay clear
// of the tests they stand in for. The distances they compare are made of
// coordinates below 2L in magnitude, each a few roundings of ulp(2L) from
// the exact value; a centre of mass, a sum of up to N coordinates divided
// by their count, may lie (N−1)·ulp(L) outside its particles' box; and a
// cell centre, one rounding per level from the root, may sit up to
// maxDepth/2·ulp(L) off the split planes that placed the cell's particles.
// 2L·(N+64)·2⁻⁵² covers all of them many times over and is still
// ~10⁻¹⁰ L at production sizes.
func (t *Tree) slack() float64 {
	return 2 * t.p.Box[0] * float64(t.p.N+64) * 0x1p-52
}

// contained reports that every particle lies in the root cell [0, L]³, as
// wrapped positions do: then each cell holds its particles, up to the
// slack.
func (t *Tree) contained() bool {
	r, l := &t.nodes[0], t.p.Box[0]
	return min(r.pmin[0], r.pmin[1], r.pmin[2]) >= 0 && max(r.pmax[0], r.pmax[1], r.pmax[2]) <= l
}

// centre returns the centre of node ni's geometric cell, to the bits the
// build computed it with: it descends from the root through the children
// whose particle ranges hold ni's.
func (t *Tree) centre(ni int32) [3]float64 {
	l := t.p.Box[0]
	c := [3]float64{l / 2, l / 2, l / 2}
	lo := t.nodes[ni].lo
	for k := int32(0); k != ni; {
		n := &t.nodes[k]
		m, ci := n.octs, n.first
		for t.nodes[ci].hi <= lo {
			m &= m - 1
			ci++
		}
		c = childCentre(c, n.half/2, bits.TrailingZeros8(m))
		k = ci
	}
	return c
}

// cellWithin returns 1 when node ni's geometric cell lies within the cutoff
// of the box of centre c and half-widths h, and 0 otherwise: the geometric
// cull, test for test.
func (t *Tree) cellWithin(ni int32, c, h [3]float64) int {
	g, half := t.centre(ni), t.nodes[ni].half
	dx := gap2(g[0], c[0], h[0]+half)
	dy := gap2(g[1], c[1], h[1]+half)
	dz := gap2(g[2], c[2], h[2]+half)
	return within(dx*dx+dy*dy+dz*dz, 4*t.rcut*t.rcut)
}

// walk appends the sources of the tree translated by o. A node is culled
// when the gap between its particles' box and the target box exceeds the
// cutoff by more than the slack δ, and accepted as a monopole when its
// geometric cell subtends less than θ from the nearest point of the box. A
// leaf whose particles all lie within rcut − δ of the box is copied whole;
// any other leaf tests each particle against the box. Every test compares
// squared (doubled or quadrupled) distances. The cull and the particle
// tests have no branch: each child is written to the stack and each
// particle to the list, which then advance by the test.
//
// The list is the one a walk that culls by geometric cells gives, less
// entries that add nothing:
//   - A node whose particle box lies within rcut − δ of the box has its
//     geometric cell, which holds those particles, within the cutoff too.
//     One that reaches nearer than rcut + δ but not rcut − δ (none does on
//     nbody_step's states) takes the geometric cull as well, cellWithin:
//     at the rounding edge that cull can drop a cell one of whose
//     particles the per-particle test would keep. In a tree whose
//     particles stray outside [0, L]³ a cell need not hold its particles,
//     so every node takes it.
//   - The particle entries are the same, in the same order.
//   - The entries the particle-box cull removes are monopoles of cells
//     whose particles all lie beyond rcut + δ, which reach every target in
//     the box at s = r²/r_s² ≥ 4.5²: the kernels' zero table entry
//     (kernelScalar skips them), which adds ±0 to sums that start at +0.
//
// So every acceleration is the same to the bit.
func (t *Tree) walk(w *walker, c, h, o [3]float64) {
	rc2 := 4 * t.rcut * t.rcut // against gap2's doubled distances
	delta := t.slack()
	cull2 := 4 * (t.rcut + delta) * (t.rcut + delta)   // against sep2's doubled gaps
	clear2 := 4 * (t.rcut - delta) * (t.rcut - delta)  // the same, short of the cutoff
	whole2 := 16 * (t.rcut - delta) * (t.rcut - delta) // against reach4's quadrupled reaches
	if !t.contained() {
		clear2 = -1
	}
	th2 := t.opt.Theta * t.opt.Theta
	cx, cy, cz := c[0]-o[0], c[1]-o[1], c[2]-o[2]
	hx, hy, hz := h[0], h[1], h[2]
	xlo, ylo, zlo := cx-hx, cy-hy, cz-hz
	xhi, yhi, zhi := cx+hx, cy+hy, cz+hz
	mass := t.p.Mass
	if len(w.stack) < stackSize {
		w.stack = make([]int32, stackSize)
	}
	stack := w.stack[:stackSize]
	sp := 0
	// The root enters as the one child of a node above it, so that it
	// takes the cull every other node takes.
	for n := (&node{octs: 1}); ; {
		// Push the children of n that pass the cull. Pushed in octant
		// order, they pop from octant 7 down.
		ci := n.first
		for m := n.octs; m != 0; m &= m - 1 {
			ch := &t.nodes[ci]
			dx := sep2(ch.pmin[0], ch.pmax[0], xlo, xhi)
			dy := sep2(ch.pmin[1], ch.pmax[1], ylo, yhi)
			dz := sep2(ch.pmin[2], ch.pmax[2], zlo, zhi)
			d := dx*dx + dy*dy + dz*dz
			// A child in the rounding band goes on the stack complemented,
			// for the pop to take the geometric cull too.
			stack[sp] = ci ^ int32(within(d, clear2)-1)
			sp += within(d, cull2)
			ci++
		}
		// Pop to the next node to open, taking in leaves and monopoles.
		for {
			if sp == 0 {
				return
			}
			sp--
			ni := stack[sp]
			if ni < 0 {
				if ni = ^ni; t.cellWithin(ni, [3]float64{cx, cy, cz}, h) == 0 {
					continue
				}
			}
			n = &t.nodes[ni]
			if n.octs == 0 {
				px, py, pz := t.px[n.lo:n.hi], t.py[n.lo:n.hi], t.pz[n.lo:n.hi]
				s := &w.list
				k := len(s.x)
				s.grow(len(px))
				xs, ys, zs, ms := s.x[:k+len(px)], s.y[:k+len(px)], s.z[:k+len(px)], s.m[:k+len(px)]
				dx := reach4(n.pmin[0], n.pmax[0], cx, hx)
				dy := reach4(n.pmin[1], n.pmax[1], cy, hy)
				dz := reach4(n.pmin[2], n.pmax[2], cz, hz)
				if dx*dx+dy*dy+dz*dz <= whole2 {
					for i, x := range px {
						xs[k+i], ys[k+i], zs[k+i], ms[k+i] = x+o[0], py[i]+o[1], pz[i]+o[2], mass
					}
					k += len(px)
				} else {
					for i, x := range px {
						y, z := py[i], pz[i]
						dx, dy, dz := gap2(x, cx, hx), gap2(y, cy, hy), gap2(z, cz, hz)
						xs[k], ys[k], zs[k], ms[k] = x+o[0], y+o[1], z+o[2], mass
						k += within(dx*dx+dy*dy+dz*dz, rc2)
					}
				}
				s.x, s.y, s.z, s.m = xs[:k], ys[:k], zs[:k], ms[:k]
				continue
			}
			if th2 > 0 {
				dx, dy, dz := gap2(n.com[0], cx, hx), gap2(n.com[1], cy, hy), gap2(n.com[2], cz, hz)
				if 16*n.half*n.half < th2*(dx*dx+dy*dy+dz*dz) {
					w.list.add(n.com[0]+o[0], n.com[1]+o[1], n.com[2]+o[2], n.mass)
					continue
				}
			}
			break
		}
	}
}

// accel evaluates w.list on one target. With softening a source at zero
// distance — the target itself, when it is a tree particle — contributes
// f·0 = 0 and the kernels need no test for it; without, it is 0/0, so the
// list is first copied without such sources.
func (t *Tree) accel(w *walker, x, y, z float64) [3]float64 {
	list := &w.list
	if t.opt.Soft == 0 {
		w.apart.reset()
		for k := range list.x {
			dx, dy, dz := list.x[k]-x, list.y[k]-y, list.z[k]-z
			if dx*dx+dy*dy+dz*dz != 0 {
				w.apart.add(list.x[k], list.y[k], list.z[k], list.m[k])
			}
		}
		list = &w.apart
	}
	return kernelBatched(list, x, y, z, t.opt.Soft, t.opt.RSplit, t.gtab)
}

// Accel returns the short-range acceleration (du/dt contribution before the
// 1/a gravity normalisation applied by the caller) on target position pos:
// the group walk for a box that is the single point. A particle at pos
// itself exerts no force.
func (t *Tree) Accel(pos [3]float64) [3]float64 {
	var w walker
	t.gather(&w, pos, [3]float64{})
	return t.accel(&w, pos[0], pos[1], pos[2])
}

// groupBox returns the centre and half-widths of the bounding box of the
// particles [lo,hi) in tree order.
func (t *Tree) groupBox(lo, hi int32) (c, h [3]float64) {
	for k, coord := range [3][]float64{t.px, t.py, t.pz} {
		mn, mx := coord[lo], coord[lo]
		for _, v := range coord[lo+1 : hi] {
			mn, mx = min(mn, v), max(mx, v)
		}
		c[k], h[k] = (mn+mx)/2, (mx-mn)/2
	}
	return c, h
}

// accelGroups evaluates target groups [glo,ghi): one gather about the
// bounding box of a group's particles, then every member in tree order,
// four at a time through the vector kernel when the tree allows it.
func (t *Tree) accelGroups(w *walker, glo, ghi int, acc [3][]float64) {
	for _, ni := range t.groups[glo:ghi] {
		lo, hi := t.nodes[ni].lo, t.nodes[ni].hi
		c, h := t.groupBox(lo, hi)
		t.gather(w, c, h)
		if t.vector {
			t.accelBlocks(w, lo, hi, acc)
			continue
		}
		for i := lo; i < hi; i++ {
			a := t.accel(w, t.px[i], t.py[i], t.pz[i])
			j := t.perm[i]
			acc[0][j], acc[1][j], acc[2][j] = a[0], a[1], a[2]
		}
	}
}

// block is the vector kernel's frame: four targets, one per lane, the
// kernel's constants broadcast to the lanes, and the four sums it returns.
// kernel_amd64.s reads it by offset.
type block struct {
	x, y, z    [4]float64
	e2, invRs2 [4]float64
	base, cut  [4]int64 // gTabBase, gTabCut
	ax, ay, az [4]float64
}

// newBlock returns the frame of a softening and split scale: e2 and invRs2
// as kernelBatched computes them, and the table constants.
func newBlock(soft, rs float64) block {
	e2, invRs2 := soft*soft, 1/(rs*rs)
	return block{
		e2:     [4]float64{e2, e2, e2, e2},
		invRs2: [4]float64{invRs2, invRs2, invRs2, invRs2},
		base:   [4]int64{gTabBase, gTabBase, gTabBase, gTabBase},
		cut:    [4]int64{gTabCut, gTabCut, gTabCut, gTabCut},
	}
}

// accelBlocks evaluates w.list on the targets [lo,hi) in blocks of four
// through kernelBlock. A last block of one to three targets fills its spare
// lanes with its last target and drops their sums. Each lane is one
// kernelBatched call, operation for operation, so the accelerations are
// the Go kernel's to the bit.
func (t *Tree) accelBlocks(w *walker, lo, hi int32, acc [3][]float64) {
	b := newBlock(t.opt.Soft, t.opt.RSplit)
	norm := units.G / (t.opt.RSplit * t.opt.RSplit * t.opt.RSplit)
	src, tab := &w.list, &t.gtab.tab[0]
	for i := lo; i < hi; i += 4 {
		for l := range int32(4) {
			k := min(i+l, hi-1)
			b.x[l], b.y[l], b.z[l] = t.px[k], t.py[k], t.pz[k]
		}
		kernelBlock(src.x, src.y, src.z, src.m, tab, &b)
		for l := range min(4, hi-i) {
			j := t.perm[i+l]
			acc[0][j], acc[1][j], acc[2][j] = norm*b.ax[l], norm*b.ay[l], norm*b.az[l]
		}
	}
}

// AccelAll computes short-range accelerations for every particle, writing
// into acc (three arrays of length N). Target groups are dealt to the
// workers in contiguous runs; with one worker, or too few groups to give
// each worker minGroupsPerWorker, the walk runs on the calling goroutine.
func (t *Tree) AccelAll(acc [3][]float64) error {
	for d := 0; d < 3; d++ {
		if len(acc[d]) != t.p.N {
			return fmt.Errorf("tree: acc[%d] length %d != %d", d, len(acc[d]), t.p.N)
		}
	}
	ng := len(t.groups)
	nw := par.Workers(t.workers, ng/minGroupsPerWorker)
	if len(t.walkers) < nw {
		t.walkers = append(t.walkers, make([]walker, nw-len(t.walkers))...)
	}
	if nw == 1 {
		t.accelGroups(&t.walkers[0], 0, ng, acc)
		return nil
	}
	return par.Ranges(ng, nw, func(w, lo, hi int) error {
		t.accelGroups(&t.walkers[w], lo, hi, acc)
		return nil
	})
}

// SplitG returns the short-range force-shape factor g(x); exported for the
// PM/tree consistency tests.
func SplitG(x float64) float64 {
	return math.Erfc(x/2) + x/math.Sqrt(math.Pi)*math.Exp(-x*x/4)
}

// kernelScalar is the per-pair baseline: one erfc and one exp per
// interaction (the paper's 2.4×10⁷ interactions/s analogue), with the
// cutoff as a branch.
func kernelScalar(s *sources, x, y, z, soft, rs float64) [3]float64 {
	var ax, ay, az float64
	e2 := soft * soft
	rcut := CutoffFactor * rs
	rc2 := rcut * rcut
	for k := range s.x {
		dx, dy, dz := s.x[k]-x, s.y[k]-y, s.z[k]-z
		r2 := dx*dx + dy*dy + dz*dz
		if r2 > rc2 {
			continue
		}
		r2 += e2
		r := math.Sqrt(r2)
		g := SplitG(r / rs)
		f := units.G * s.m[k] / (r2 * r) * g
		ax += f * dx
		ay += f * dy
		az += f * dz
	}
	return [3]float64{ax, ay, az}
}

// gTable tabulates the force profile g(x)/x³ against s = x², so the kernel
// needs no square root: the Phantom-GRAPE profile table. It is piecewise
// linear with 2^gTabBits intervals per binade of s — the interval index is
// the top bits of the float — which keeps the relative interpolation error
// uniform (≲ 2·10⁻⁶) down to the x⁻³ divergence. tab[i] holds the value at
// the interval's left edge and the slope in s; the last entry is the zero
// interval every s at or beyond the cutoff maps to.
type gTable struct {
	tab [][2]float64
}

const (
	gTabBits   = 10
	gTabMinExp = -12 // tabulated from s = 2^gTabMinExp, i.e. x = 1/64
	gTabShift  = 52 - gTabBits
	gTabBase   = (1023 + gTabMinExp) << gTabBits
)

// gTabCut is the index of the interval starting at the cutoff s = 4.5² =
// 20.25 = 2⁴·(1 + 17/64), an interval edge for any gTabBits ≥ 6.
const gTabCut = (4-gTabMinExp)<<gTabBits + 17<<(gTabBits-6)

var (
	gtabOnce sync.Once
	gtabVal  *gTable
)

func sharedGTable() *gTable {
	gtabOnce.Do(func() {
		gt := &gTable{tab: make([][2]float64, gTabCut+1)}
		edge := func(i int) float64 { return math.Float64frombits(uint64(i+gTabBase) << gTabShift) }
		for i := 0; i < gTabCut; i++ {
			s0, s1 := edge(i), edge(i+1)
			v0, v1 := profile(s0), profile(s1)
			gt.tab[i] = [2]float64{v0, (v1 - v0) / (s1 - s0)}
		}
		gtabVal = gt
	})
	return gtabVal
}

// profile is the exact g(x)/x³ at s = x².
func profile(s float64) float64 {
	x := math.Sqrt(s)
	return SplitG(x) / (s * x)
}

// kernelBatched is the Phantom-GRAPE analogue: a branch-free loop streaming
// the interaction list through the tabulated profile, which vanishes from
// the cutoff on. Acceleration factor: G·m·g(r/rs)/r³ = G·m/rs³ · [g(x)/x³]
// with x = r/rs. The one branch is for sources below the tabulated range
// (closer than r_s/64 — rarer still than the softening allows), which take
// the exact profile.
func kernelBatched(src *sources, x, y, z, soft, rs float64, gt *gTable) [3]float64 {
	var ax, ay, az float64
	e2 := soft * soft
	invRs2 := 1 / (rs * rs)
	sx := src.x
	sy, sz, m := src.y[:len(sx)], src.z[:len(sx)], src.m[:len(sx)]
	tab := gt.tab[:gTabCut+1]
	for k := range sx {
		dx, dy, dz := sx[k]-x, sy[k]-y, sz[k]-z
		s := (dx*dx + dy*dy + dz*dz + e2) * invRs2
		bits := math.Float64bits(s)
		i := int(bits>>gTabShift) - gTabBase
		var f float64
		if i >= 0 {
			// min(i, gTabCut) without the branch the compiler makes of it:
			// which side of the cutoff a source lies is a coin toss.
			over := i - gTabCut
			e := &tab[gTabCut+over&(over>>63)]
			f = m[k] * (e[0] + e[1]*(s-math.Float64frombits(bits&^(1<<gTabShift-1))))
		} else {
			f = m[k] * profile(s)
		}
		ax += f * dx
		ay += f * dy
		az += f * dz
	}
	norm := units.G / (rs * rs * rs)
	return [3]float64{norm * ax, norm * ay, norm * az}
}

// DirectShortRange evaluates the exact short-range acceleration on particle
// i by direct summation over all particles (minimum image, cutoff applied) —
// the reference for tree accuracy tests.
func DirectShortRange(p *nbody.Particles, i int, soft, rs float64) [3]float64 {
	l := p.Box[0]
	rcut := CutoffFactor * rs
	var list sources
	for j := 0; j < p.N; j++ {
		if j == i {
			continue
		}
		dx := minImage(p.Pos[0][j]-p.Pos[0][i], l)
		dy := minImage(p.Pos[1][j]-p.Pos[1][i], l)
		dz := minImage(p.Pos[2][j]-p.Pos[2][i], l)
		if dx*dx+dy*dy+dz*dz > rcut*rcut {
			continue
		}
		list.add(dx, dy, dz, p.Mass)
	}
	return kernelScalar(&list, 0, 0, 0, soft, rs)
}

func minImage(dx, l float64) float64 {
	if dx > l/2 {
		return dx - l
	}
	if dx < -l/2 {
		return dx + l
	}
	return dx
}
