// Package kernel contains the layout-aware advection micro-kernels that
// reproduce the paper's §5.3 SIMD study (Table 1 and Figures 1–3).
//
// The paper's A64FX implementation contrasts three ways of sweeping a 1D
// advection update through a multi-dimensional array:
//
//   - "w/o SIMD": scalar code whose inner loop walks along the advection
//     axis, making strided memory accesses when that axis is not the fastest
//     (innermost) one;
//   - "w/ SIMD": the inner loop runs along the fastest axis so that whole
//     SIMD vectors are loaded with unit stride (Fig. 1) — impossible when
//     the advection axis IS the fastest axis, where vectorising across
//     lines needs strided gathers (Fig. 2);
//   - "w/ LAT": load-and-transpose — load unit-stride vectors, transpose a
//     B×B tile in registers (Fig. 3), sweep, and transpose back.
//
// Go has no vector intrinsics, but the *memory-system* half of the effect —
// unit-stride streaming vs. large-stride gathers — is architecture
// independent, and the Go compiler keeps contiguous inner loops free of
// bounds checks. The three modes here reproduce the ordering of Table 1
// (Strided ≪ Contig ≈ LAT) with Go-scale ratios; the Measure harness prints
// the same rows as the paper's table.
//
// All modes compute the identical single-stage conservative semi-Lagrangian
// fifth-order (CSL5) update
//
//	f_i ← f_i − (Φ_{i+1/2} − Φ_{i−1/2}),   Φ = Σ_r a_r(ξ)·f_{i−3+r},
//
// on periodic lines, where the five coefficients a_r(ξ) come from the quintic
// primitive-function reconstruction at CFL fraction ξ ∈ [0,1] — the unlimited
// linear core of the paper's SL-MPP5 flux (a plain fifth-order
// method-of-lines flux would be unstable in a single Euler stage, which is
// precisely the cost problem SL-MPP5 solves). Tests assert bit-level
// agreement between the modes.
//
// Hot-path contract: a Brick owns per-worker scratch arenas that are reused
// across Sweep calls, so steady-state sweeping allocates nothing (asserted by
// testing.AllocsPerRun in the tests); SetWorkers parallelises a sweep over
// independent lines/blocks with results bit-identical to the serial path for
// every mode and axis.
package kernel

import (
	"fmt"
	"math"
	"sync"

	"vlasov6d/internal/advect"
)

// Mode selects the sweep implementation.
type Mode int

// The three sweep implementations of §5.3.
const (
	// Strided walks the advection axis line by line, gathering each line
	// with stride `post` ("w/o SIMD").
	Strided Mode = iota
	// Contig keeps the innermost loop on the fastest memory axis
	// ("w/ SIMD"); for a sweep along the fastest axis itself it degrades to
	// strided gathers across lines, exactly like Fig. 2.
	Contig
	// LAT transposes tiles so that sweeps along the fastest axis also
	// stream with unit stride ("w/ LAT").
	LAT
)

// String implements fmt.Stringer using the paper's column headers.
func (m Mode) String() string {
	switch m {
	case Strided:
		return "w/o SIMD"
	case Contig:
		return "w/ SIMD"
	case LAT:
		return "w/ LAT"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// TileB is the transpose tile edge, the software analogue of the paper's
// 16×16 register transpose (64 shuffle instructions on SVE). It is also the
// line-group width of the Fig. 2 gather path (the "SIMD width" being
// emulated) and the granularity the cache model rounds block widths to.
const TileB = 16

// FlopsPerCell is the flop count of one fifth-order update per cell
// (5 multiplies + 4 adds for the flux, 2 for the update, with the left flux
// reused), used to convert timings into the paper's Gflops metric.
const FlopsPerCell = 12

// CacheTarget is the working-set budget, in bytes, that the cache model fits
// one sweep block into: block widths are chosen so the data rows plus flux
// rows a block touches stay resident while the block is processed. The
// default is sized for a typical per-core L2 share; it is a variable (not a
// constant) so experiments can retune it — block partitioning reorders
// memory traffic only and never changes the computed values.
var CacheTarget = 256 << 10

// blockCols picks the column-block width for the two-phase plane update:
// a block touches n data rows plus n+1 flux rows of cw float32 columns, so
// cw is chosen to keep (2n+1)·cw·4 bytes within CacheTarget, rounded down to
// a multiple of TileB and clamped to [TileB, width]. The fixed 2048-column
// chunk this replaces overflowed L1/L2 for deep bricks (large n) and wasted
// locality for shallow ones.
func blockCols(n, width int) int {
	cw := CacheTarget / (4 * (2*n + 1))
	cw &^= TileB - 1
	if cw < TileB {
		cw = TileB
	}
	if cw > width {
		cw = width
	}
	return cw
}

// latGroupCols picks how many lines one LAT group transposes together. The
// group holds the transposed plane (n rows) plus its flux rows (n+1) in
// scratch while the source lines (another n rows' worth) stream through the
// transposes, so (3n+1)·b·4 bytes must fit CacheTarget. Wider groups than
// the historical fixed TileB amortise loop overhead over long unit-stride
// inner loops — the whole point of load-and-transpose — while the cache
// model keeps the working set resident.
func latGroupCols(n int) int {
	b := CacheTarget / (4 * (3*n + 1))
	b &^= TileB - 1
	if b < TileB {
		b = TileB
	}
	return b
}

// Brick is a dense multi-dimensional array of float32 (the paper's Vlasov
// arrays are single precision) with row-major layout: the LAST dimension is
// fastest, matching List 1's per-cell velocity cubes.
//
// A Brick also owns the sweep scratch: one arena per worker, grown on first
// use and reused for every later Sweep, so steady-state sweeping is
// allocation-free. A Brick must not be swept from multiple goroutines at
// once (Sweep itself parallelises internally via SetWorkers).
type Brick struct {
	Dims []int
	Data []float32

	// workers is the intra-sweep parallelism (≤ 1 = serial, the default).
	workers int
	// arenas holds per-worker scratch, indexed by worker id.
	arenas []*sweepArena
}

// NewBrick allocates a brick with the given dimensions.
func NewBrick(dims ...int) (*Brick, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("kernel: no dimensions")
	}
	n := 1
	for _, d := range dims {
		if d < 1 {
			return nil, fmt.Errorf("kernel: invalid dim %d", d)
		}
		n *= d
	}
	return &Brick{Dims: append([]int(nil), dims...), Data: make([]float32, n)}, nil
}

// SetWorkers pins the number of goroutines Sweep parallelises over
// (minimum 1). Sweeps decompose into independent lines or column blocks
// whose arithmetic does not depend on the partition, so the result is
// bit-identical to the serial sweep for every mode, axis and worker count —
// the worker count trades wall-clock only.
func (b *Brick) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	b.workers = n
}

// Workers reports the pinned sweep parallelism (minimum 1).
func (b *Brick) Workers() int {
	if b.workers < 1 {
		return 1
	}
	return b.workers
}

// sweepArena is the per-worker scratch of one Brick: a gather line, a flat
// flux slab and a transpose buffer, each grown geometrically and never
// shrunk, so repeated sweeps of any axis sequence reuse the same backing
// arrays. (The old per-sweep [][]float32 scratch reallocated every row
// whenever the row count grew even when the total already fit — the growth
// policy this replaces.)
type sweepArena struct {
	line []float32 // strided line gather/scatter buffer
	flux []float32 // interface-flux slab, row-major (rows × block width)
	lat  []float32 // LAT position-major transpose buffer
}

// growF32 returns buf resized to n, reusing the backing array when it fits
// and at least doubling the capacity when it does not.
func growF32(buf []float32, n int) []float32 {
	if cap(buf) >= n {
		return buf[:n]
	}
	c := 2 * cap(buf)
	if c < n {
		c = n
	}
	return make([]float32, n, c)
}

func (a *sweepArena) lineBuf(n int) []float32 { a.line = growF32(a.line, n); return a.line }
func (a *sweepArena) fluxBuf(n int) []float32 { a.flux = growF32(a.flux, n); return a.flux }
func (a *sweepArena) latBuf(n int) []float32  { a.lat = growF32(a.lat, n); return a.lat }

// arena returns worker w's scratch, growing the arena list on demand.
func (b *Brick) arena(w int) *sweepArena {
	for len(b.arenas) <= w {
		b.arenas = append(b.arenas, &sweepArena{})
	}
	return b.arenas[w]
}

// clampWorkers bounds the sweep parallelism by the number of independent
// work items.
func (b *Brick) clampWorkers(items int) int {
	nw := b.workers
	if nw < 1 {
		nw = 1
	}
	if nw > items {
		nw = items
	}
	return nw
}

// runRanges is the parallel dispatch path: items are split into one
// contiguous range per worker, each run with that worker's private arena.
// Callers handle the nw ≤ 1 case serially first (with arena 0 and no
// closure), which keeps the steady-state serial sweep allocation-free.
func (b *Brick) runRanges(items, nw int, run func(ar *sweepArena, lo, hi int)) {
	var wg sync.WaitGroup
	chunk := (items + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > items {
			hi = items
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(ar *sweepArena, lo, hi int) {
			defer wg.Done()
			run(ar, lo, hi)
		}(b.arena(w), lo, hi)
	}
	wg.Wait()
}

// Shape3 returns the (pre, n, post) factorisation of the brick around axis:
// the array is equivalent to a row-major [pre][n][post] view where n is the
// advected extent.
func (b *Brick) Shape3(axis int) (pre, n, post int, err error) {
	if axis < 0 || axis >= len(b.Dims) {
		return 0, 0, 0, fmt.Errorf("kernel: axis %d out of range", axis)
	}
	pre, post = 1, 1
	for i := 0; i < axis; i++ {
		pre *= b.Dims[i]
	}
	n = b.Dims[axis]
	for i := axis + 1; i < len(b.Dims); i++ {
		post *= b.Dims[i]
	}
	return pre, n, post, nil
}

// Sweep applies one periodic fifth-order advection update with CFL c along
// axis using the requested mode. LAT is only accepted for the fastest axis
// (post == 1), where it exists to fix the Fig. 2 gather problem.
func (b *Brick) Sweep(axis int, mode Mode, c float32) error {
	pre, n, post, err := b.Shape3(axis)
	if err != nil {
		return err
	}
	if n < 6 {
		return fmt.Errorf("kernel: axis %d extent %d < 6", axis, n)
	}
	if math.IsNaN(float64(c)) || math.IsInf(float64(c), 0) || c < 0 || c > 1 {
		return fmt.Errorf("kernel: CFL %v outside [0,1] (micro-kernel handles the fractional flux only)", c)
	}
	a := cslCoefs(float64(c))
	switch mode {
	case Strided:
		b.sweepStrided(pre, n, post, a)
	case Contig:
		if post > 1 {
			b.sweepPlanes(pre, n, post, a)
		} else {
			b.sweepGather(pre, n, a)
		}
	case LAT:
		if post != 1 {
			return fmt.Errorf("kernel: LAT applies to the fastest axis only")
		}
		b.sweepLAT(pre, n, a)
	default:
		return fmt.Errorf("kernel: unknown mode %v", mode)
	}
	return nil
}

// coef5 holds the five CSL5 flux coefficients for a fixed CFL fraction ξ:
// Φ_{i+1/2} = a[0]f_{i−2} + a[1]f_{i−1} + a[2]f_i + a[3]f_{i+1} + a[4]f_{i+2}.
type coef5 [5]float32

// cslCoefs returns the flux coefficients a_r(ξ) = ξ·b_r(ξ) from the scheme's
// swept-average weights b_r, the one closed form of the CSL5 reconstruction.
func cslCoefs(xi float64) coef5 {
	var a coef5
	for r, b := range advect.SweptWeights(xi) {
		a[r] = float32(xi * b)
	}
	return a
}

// flux5 evaluates the CSL5 interface flux from the upwind stencil
// (f_{i−2}, …, f_{i+2}).
func flux5(a *coef5, fm2, fm1, f0, fp1, fp2 float32) float32 {
	return a[0]*fm2 + a[1]*fm1 + a[2]*f0 + a[3]*fp1 + a[4]*fp2
}

// updateLine5 applies the periodic CSL5 update to one line held contiguously
// in memory.
func updateLine5(line []float32, a *coef5) {
	n := len(line)
	f0orig, f1orig := line[0], line[1]
	fm2, fm1 := line[n-2], line[n-1]
	fc, fp1 := line[0], line[1]
	prev := flux5(a, line[n-3], fm2, fm1, fc, fp1) // Φ_{−1/2}
	for i := 0; i < n; i++ {
		var fp2 float32
		switch {
		case i+2 < n:
			fp2 = line[i+2]
		case i+2 == n:
			fp2 = f0orig
		default:
			fp2 = f1orig
		}
		cur := flux5(a, fm2, fm1, fc, fp1, fp2)
		newv := fc - (cur - prev)
		fm2, fm1, fc, fp1, prev = fm1, fc, fp1, fp2, cur
		line[i] = newv
	}
}

// sweepStrided is the "w/o SIMD" reference: every line along the advection
// axis is gathered element by element with stride `post`, updated, and
// scattered back. Lines are independent, so the parallel split over line
// ranges is bit-identical to the serial order.
func (b *Brick) sweepStrided(pre, n, post int, a coef5) {
	items := pre * post
	nw := b.clampWorkers(items)
	if nw <= 1 {
		b.stridedRange(b.arena(0), 0, items, n, post, a)
		return
	}
	b.runRanges(items, nw, func(ar *sweepArena, lo, hi int) {
		b.stridedRange(ar, lo, hi, n, post, a)
	})
}

func (b *Brick) stridedRange(ar *sweepArena, lo, hi, n, post int, a coef5) {
	line := ar.lineBuf(n)
	data := b.Data
	stride := n * post
	for t := lo; t < hi; t++ {
		p, q := t/post, t%post
		off := p*stride + q
		for i := 0; i < n; i++ {
			line[i] = data[off+i*post]
		}
		updateLine5(line, &a)
		for i := 0; i < n; i++ {
			data[off+i*post] = line[i]
		}
	}
}

// sweepPlanes is the Fig. 1 path for sweeps off the fastest axis: each
// [n][post] plane advances in place through cache-model-sized column blocks
// whose interface fluxes are computed from the original rows first, keeping
// every inner loop unit-stride with zero memmove traffic. Blocks touch
// disjoint columns, so the parallel split over (plane, block) pairs is
// bit-identical to the serial order.
func (b *Brick) sweepPlanes(pre, n, post int, a coef5) {
	cw := blockCols(n, post)
	nb := (post + cw - 1) / cw
	items := pre * nb
	nw := b.clampWorkers(items)
	if nw <= 1 {
		b.planesRange(b.arena(0), 0, items, n, post, cw, nb, a)
		return
	}
	b.runRanges(items, nw, func(ar *sweepArena, lo, hi int) {
		b.planesRange(ar, lo, hi, n, post, cw, nb, a)
	})
}

func (b *Brick) planesRange(ar *sweepArena, lo, hi, n, post, cw, nb int, a coef5) {
	for t := lo; t < hi; t++ {
		p, blk := t/nb, t%nb
		col := blk * cw
		w := cw
		if col+w > post {
			w = post - col
		}
		plane := b.Data[p*n*post : (p+1)*n*post]
		updatePlaneBlock(plane, n, post, col, w, &a, ar)
	}
}

// updatePlaneBlock updates columns [col, col+cw) of a row-major [n][width]
// plane: first every interface flux of the block is computed from the
// ORIGINAL rows (Φ_{i−1/2} uses rows i−3 … i+1, matching updateLine5), then
// each row is updated in place. The flux slab lives in the worker's arena.
func updatePlaneBlock(buf []float32, n, width, col, cw int, a *coef5, ar *sweepArena) {
	flux := blockFluxes(buf, n, width, col, cw, a, ar)
	for i := 0; i < n; i++ {
		off := i*width + col
		out := buf[off : off+cw]
		lo := flux[i*cw : i*cw+cw]
		hi := flux[(i+1)*cw : (i+1)*cw+cw]
		for q := range out {
			out[q] -= hi[q] - lo[q]
		}
	}
}

// blockFluxes computes the n+1 interface-flux rows of a column block into
// the worker's flux slab: Φ_{i−1/2} uses rows i−3 … i+1 of the ORIGINAL
// data, matching updateLine5 exactly.
func blockFluxes(buf []float32, n, width, col, cw int, a *coef5, ar *sweepArena) []float32 {
	flux := ar.fluxBuf((n + 1) * cw)
	a0, a1, a2, a3, a4 := a[0], a[1], a[2], a[3], a[4]
	row := func(i int) []float32 {
		if i >= n {
			i -= n
		} else if i < 0 {
			i += n
		}
		off := i*width + col
		return buf[off : off+cw]
	}
	for i := 0; i <= n; i++ {
		r0, r1, r2, r3, r4 := row(i-3), row(i-2), row(i-1), row(i), row(i+1)
		fl := flux[i*cw : i*cw+cw]
		for q := range fl {
			fl[q] = a0*r0[q] + a1*r1[q] + a2*r2[q] + a3*r3[q] + a4*r4[q]
		}
	}
	return flux
}

// sweepGather is the Fig. 2 path: the sweep runs along the fastest axis, and
// "vectorising" across TileB lines forces every stencil access to stride by
// the full line length n. It produces identical results to the other modes
// but at gather speed — the paper's 17.9 Gflops row. The group width stays
// pinned at TileB (the emulated SIMD width): this mode exists to exhibit the
// gather problem, not to be tuned around it.
func (b *Brick) sweepGather(pre, n int, a coef5) {
	ng := (pre + TileB - 1) / TileB
	nw := b.clampWorkers(ng)
	if nw <= 1 {
		b.gatherRange(b.arena(0), 0, ng, pre, n, a)
		return
	}
	b.runRanges(ng, nw, func(ar *sweepArena, lo, hi int) {
		b.gatherRange(ar, lo, hi, pre, n, a)
	})
}

func (b *Brick) gatherRange(ar *sweepArena, lo, hi, pre, n int, a coef5) {
	data := b.Data
	flux := ar.fluxBuf((n + 1) * TileB)
	a0, a1, a2, a3, a4 := a[0], a[1], a[2], a[3], a[4]
	for g := lo; g < hi; g++ {
		g0 := g * TileB
		bw := TileB
		if g0+bw > pre {
			bw = pre - g0
		}
		base := g0 * n
		wrap := func(i int) int {
			if i >= n {
				return i - n
			}
			if i < 0 {
				return i + n
			}
			return i
		}
		// Phase 1: every interface flux, gathered with stride n across the
		// bw lines (the Fig. 2 access pattern).
		for i := 0; i <= n; i++ {
			i0, i1, i2, i3, i4 := wrap(i-3), wrap(i-2), wrap(i-1), wrap(i), wrap(i+1)
			fl := flux[i*TileB : i*TileB+bw]
			for l := range fl {
				off := base + l*n
				fl[l] = a0*data[off+i0] + a1*data[off+i1] + a2*data[off+i2] +
					a3*data[off+i3] + a4*data[off+i4]
			}
		}
		// Phase 2: strided scatter of the update.
		for i := 0; i < n; i++ {
			lo := flux[i*TileB : i*TileB+bw]
			hi := flux[(i+1)*TileB : (i+1)*TileB+bw]
			for l := range lo {
				data[base+l*n+i] -= hi[l] - lo[l]
			}
		}
	}
}

// sweepLAT is the Fig. 3 fix: groups of lines are transposed (in TileB×TileB
// tiles, the software analogue of the in-register shuffles) into a
// position-major scratch so the update streams with unit stride, then
// transposed back. The group width comes from the cache model — wide enough
// to amortise loop overhead over long unit-stride inner loops, small enough
// that the transposed plane and its flux rows stay cache-resident. Groups
// touch disjoint lines, so the parallel split is bit-identical to serial.
func (b *Brick) sweepLAT(pre, n int, a coef5) {
	bg := latGroupCols(n)
	ng := (pre + bg - 1) / bg
	nw := b.clampWorkers(ng)
	if nw <= 1 {
		b.latRange(b.arena(0), 0, ng, pre, n, bg, a)
		return
	}
	b.runRanges(ng, nw, func(ar *sweepArena, lo, hi int) {
		b.latRange(ar, lo, hi, pre, n, bg, a)
	})
}

func (b *Brick) latRange(ar *sweepArena, lo, hi, pre, n, bg int, a coef5) {
	t := ar.latBuf(n * bg)
	for g := lo; g < hi; g++ {
		g0 := g * bg
		w := bg
		if g0+w > pre {
			w = pre - g0
		}
		src := b.Data[g0*n : (g0+w)*n]
		transposeIn(src, t, n, w)
		flux := blockFluxes(t[:n*w], n, w, 0, w, &a, ar)
		updateTransposeOut(t, flux, src, n, w)
	}
}

// updateTransposeOut fuses the row update with the outbound transpose:
// instead of updating the position-major buffer in place and copying it back,
// the updated value t − (Φ_hi − Φ_lo) is written straight to its strided
// destination, saving one full read+write pass over the transpose buffer.
// The arithmetic is the same expression in the same order as
// updatePlaneBlock's update phase, so results remain bit-identical.
func updateTransposeOut(t, flux, dst []float32, n, b int) {
	for i0 := 0; i0 < n; i0 += TileB {
		imax := i0 + TileB
		if imax > n {
			imax = n
		}
		for l0 := 0; l0 < b; l0 += TileB {
			lmax := l0 + TileB
			if lmax > b {
				lmax = b
			}
			for i := i0; i < imax; i++ {
				trow := t[i*b : i*b+b]
				lo := flux[i*b : i*b+b]
				hi := flux[(i+1)*b : (i+1)*b+b]
				for l := l0; l < lmax; l++ {
					dst[l*n+i] = trow[l] - (hi[l] - lo[l])
				}
			}
		}
	}
}

// transposeIn rearranges b lines of length n (row-major [b][n]) into a
// position-major [n][b] buffer, TileB×TileB tile by tile so both the
// scattered and the streamed side of the shuffle stay cache-resident.
func transposeIn(src, dst []float32, n, b int) {
	for i0 := 0; i0 < n; i0 += TileB {
		imax := i0 + TileB
		if imax > n {
			imax = n
		}
		for l0 := 0; l0 < b; l0 += TileB {
			lmax := l0 + TileB
			if lmax > b {
				lmax = b
			}
			for l := l0; l < lmax; l++ {
				lrow := src[l*n:]
				for i := i0; i < imax; i++ {
					dst[i*b+l] = lrow[i]
				}
			}
		}
	}
}

// transposeOut is the inverse of transposeIn.
func transposeOut(src, dst []float32, n, b int) {
	for i0 := 0; i0 < n; i0 += TileB {
		imax := i0 + TileB
		if imax > n {
			imax = n
		}
		for l0 := 0; l0 < b; l0 += TileB {
			lmax := l0 + TileB
			if lmax > b {
				lmax = b
			}
			for l := l0; l < lmax; l++ {
				lrow := dst[l*n:]
				for i := i0; i < imax; i++ {
					lrow[i] = src[i*b+l]
				}
			}
		}
	}
}
