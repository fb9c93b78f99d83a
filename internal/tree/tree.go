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
// list, and a branch-free kernel with a tabulated force profile streams it
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

// node is one octree cell.
type node struct {
	centre [3]float64 // geometric centre of the cell
	half   float64    // half-width
	com    [3]float64
	mass   float64
	// children indices into Tree.nodes (−1 when absent).
	children [8]int32
	leaf     bool
	lo, hi   int32 // particle range [lo,hi) in tree order
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
// is ~50 µs); with less per worker the second goroutine's wake-up eats the
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
	t.nodes = append(t.nodes[:0], node{centre: [3]float64{l / 2, l / 2, l / 2}, half: l / 2})
	t.groups = t.groups[:0]
	t.build(0, 0, int32(p.N), 0, false)
}

const maxDepth = 48

// build recursively partitions particle range [lo,hi) under node ni;
// grouped says an ancestor already is a target group.
func (t *Tree) build(ni int32, lo, hi int32, depth int, grouped bool) {
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
		t.nodes = append(t.nodes, node{centre: cc, half: half})
		t.nodes[ni].children[oct] = ci
		t.build(ci, clo, chi, depth+1, grouped)
	}
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

// walk appends the sources of the tree translated by o. A cell is culled
// when the minimum distance between it and the target box exceeds the
// cutoff, and accepted as a monopole when it subtends less than θ from the
// nearest point of the box; both tests compare squared (doubled) distances.
// The cull measures from the cell's geometric bounds, not its centre of
// mass, which can sit anywhere inside them.
func (t *Tree) walk(w *walker, c, h, o [3]float64) {
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
