package advect

import (
	"fmt"
	"math"

	"vlasov6d/internal/cpuid"
)

// laneWidth is the widest vector kernel StepLanes runs its lines through:
// eight lines per instruction where the CPU has AVX-512 (the width of the
// paper's 512-bit SVE), four where it has AVX2 (amd64). Where it is 0
// every line takes the per-line Step/StepOpen, which stays the oracle of
// both vector kernels.
var laneWidth = func() int {
	switch {
	case cpuid.AVX512():
		return 8
	case cpuid.AVX2():
		return 4
	}
	return 0
}()

// laneRow is a row of a lane pad: position r of each of the four or eight
// lines one vector kernel steps together, line k in element k.
type laneRow interface{ [4]float64 | [8]float64 }

// laneCoef holds what a vector kernel reads of its lanes' sweeps, lane k in
// element k, and the eight-lane limiter's queue. Offsets (bytes) for four
// lanes: w 0, xi 160, alpha 192, eps 224, queue 232; for eight: w 0, xi
// 320, alpha 384, eps 448, queue 456.
type laneCoef[R laneRow] struct {
	w     [5]R // SweptWeights(xi), weight r of every lane at w[r]
	xi    R
	alpha R
	eps   float64 // mpEps
	// queue holds the indices row·8 + lane of laneLimit8's rejected values
	// until it bounds them eight at a time; the four-lane laneLimit bounds
	// each rejecting row in place and leaves it unused.
	queue [16]int
}

// lanePad is one width's scratch: the lane-interleaved pad, then its swept
// averages and results, and the lanes' coefficients.
type lanePad[R laneRow] struct {
	rows []R
	coef laneCoef[R]
}

// laneKernels are one width's vector kernels (lanes_amd64.s,
// lanes8_amd64.s).
type laneKernels[R laneRow] struct {
	sweep func(k *laneCoef[R])
	limit func(q, v []R, k *laneCoef[R])
	flux  func(q, v []R, k *laneCoef[R])
	in    func(rows []R, w []float64, laneStride int, mirrored bool)
	out   func(w []float64, laneStride int, mirrored bool, rows []R)
	load  func(rows []R, src *float64, step int)
	store func(dst *float64, step int, rows []R)
}

var (
	avx2Lanes   = laneKernels[[4]float64]{laneSweep, laneLimit, laneFlux, laneIn, laneOut, laneLoad, laneStore}
	avx512Lanes = laneKernels[[8]float64]{laneSweep8, laneLimit8, laneFlux8, laneIn8, laneOut8, laneLoad8, laneStore8}
)

// StepLanes advances the len(c) lines of n cells, line k by its own CFL
// number c[k]: line k's cell i is data[off+k·laneStride+i·cellStride]. The
// lines must not share a cell. Each line ends bit for bit as Step (with
// open, StepOpen) leaves it; a line with c[k] = 0 is unchanged.
//
// Where the CPU has AVX-512 the lines step eight at a time, where it has
// AVX2 (or for a group of four to seven left over) four at a time, one
// line per vector lane: each lane is padded as Step pads its line (own
// shift, own mirror, own periodic or zero ghosts) into a lane-interleaved
// pad, so that row r holds position r of the group's padded lines, and the
// kernel does advance's operations in advance's order on all lanes at
// once, mpBound's on the lanes the limiter rejects: at four lanes on the
// whole row, blended in under the reject mask; at eight, queued lane by
// lane and bounded eight rejected values at a time, since in the plasma
// drift a fifth of the rows hold a rejecting lane but only 2.6 % of the
// values reject. Against bounding every rejecting row at eight lanes
// that ran a drift of the Landau state at t = 12.5 1.19× faster and a
// step over t = 0–25 1.15× (minima of 10 ABBA pairs at -cpu 1,
// BenchmarkDrift64x256 and BenchmarkStep64x256). When the lanes share
// their shift and direction, a pad row's interior cells, and a result row,
// are adjacent values of data where laneStride is 1 (the plasma drift: at
// eight lanes one 64-byte cache line), moved in and out by one VMOVUPD
// each (laneLoad8/laneStore8, laneLoad/laneStore at four) once Go has
// checked the rows' span against data; and a block of rows is one load of
// adjacent cells per lane and one 4×4 or 8×8 transpose where cellStride is
// 1 (the kick). The drift's rows are cellStride apart: a cellStride that
// is an even number of 64-byte lines puts a group's rows in few L1 sets
// (the plasma solver pads its rows to an odd number of lines for this). A
// group with a lane whose CFL number is an integer (an exact shift, zero
// included), the fewer than four lines left over, and every line on a CPU
// without AVX2, take Step/StepOpen one by one. The lines' extent is
// checked without overflow, so any off, strides and n either fit in data
// or return an error.
func (s *SLMPP5) StepLanes(data []float64, off, laneStride, cellStride, n int, c []float64, open bool) error {
	lanes := len(c)
	if laneStride < 1 || cellStride < 1 || !inside(len(data), off, lanes, laneStride, n, cellStride) {
		return fmt.Errorf("slmpp5: %d lanes at %d, lane stride %d, cell stride %d, n %d, are outside %d values",
			lanes, off, laneStride, cellStride, n, len(data))
	}
	// Lanes d apart share a cell iff d·laneStride = e·cellStride for some
	// e < n. The smallest such d is cellStride/gcd, and e grows with d.
	if d := cellStride / gcd(laneStride, cellStride); d < lanes && d*laneStride/cellStride < n {
		return fmt.Errorf("slmpp5: lanes %d apart share a cell (lane stride %d, cell stride %d, n %d)",
			d, laneStride, cellStride, n)
	}
	if n < 6 {
		return fmt.Errorf("slmpp5: line length %d < 6", n)
	}
	for _, ck := range c {
		if math.IsNaN(ck) || math.IsInf(ck, 0) {
			return fmt.Errorf("slmpp5: invalid CFL %v", ck)
		}
	}
	k := 0
	if laneWidth == 8 {
		for ; k+8 <= lanes; k += 8 {
			if err := stepGroup(s, &avx512Lanes, &s.pad8, data, off+k*laneStride, laneStride, cellStride, n, c[k:k+8], open); err != nil {
				return err
			}
		}
	}
	if laneWidth >= 4 {
		for ; k+4 <= lanes; k += 4 {
			if err := stepGroup(s, &avx2Lanes, &s.pad4, data, off+k*laneStride, laneStride, cellStride, n, c[k:k+4], open); err != nil {
				return err
			}
		}
	}
	return s.stepLinesOneByOne(data, off+k*laneStride, laneStride, cellStride, n, c[k:], open)
}

// inside reports whether the lines' first cell, data[off], and their last,
// data[off+(lanes−1)·laneStride+(n−1)·cellStride], lie inside size values,
// for strides ≥ 1: each term is bounded by the room the ones before it
// leave, so no product or sum overflows.
func inside(size, off, lanes, laneStride, n, cellStride int) bool {
	room := size - 1 - off
	if off < 0 || room < 0 {
		return false
	}
	if lanes > 1 {
		if lanes-1 > room/laneStride {
			return false
		}
		room -= (lanes - 1) * laneStride
	}
	return n <= 1 || n-1 <= room/cellStride
}

// gcd returns the greatest common divisor of a, b > 0.
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// stepGroup steps the len(R) lines of one lane group, line k by c[k],
// through the width's kernels kern and scratch p; see StepLanes.
func stepGroup[R laneRow](s *SLMPP5, kern *laneKernels[R], p *lanePad[R], data []float64, off, laneStride, cellStride, n int, c []float64, open bool) error {
	lc := &p.coef
	width := len(lc.xi)
	var sh [8]int
	var neg [8]bool
	uniform := true
	for k := range width {
		sh[k], lc.xi[k], neg[k] = shiftOf(n, c[k], open)
		if lc.xi[k] == 0 {
			return s.stepLinesOneByOne(data, off, laneStride, cellStride, n, c[:width], open)
		}
		// Lanes that share shift and direction share their pad rows' cells:
		// interior row m of lane k is data[first+m·step+k·laneStride], cell
		// m, or n−1−m of mirrored lines.
		uniform = uniform && sh[k] == sh[0] && neg[k] == neg[0]
	}
	kern.sweep(lc)
	lc.eps = mpEps

	// The pad is sized as step sizes its pad, n+sh+5 rows for the largest
	// bounded shift (2n+8), and v, the n+1 swept averages, follows it.
	if need := 3*n + 9; cap(p.rows) < need {
		p.rows = make([]R, need)
	}
	pad, v := p.rows[:2*n+8], p.rows[2*n+8:3*n+9]
	first, step := off, cellStride
	if neg[0] {
		first, step = off+(n-1)*cellStride, -cellStride
	}

	// Fill the pad as step fills each line's: row r of lane k is position r
	// of line k's padded copy. advance reads rows 0..n+4.
	q := pad[:n+5]
	if uniform {
		q = pad[:n+sh[0]+5]
		lo := sh[0] + 3
		loadRows(kern, q[lo:lo+n], data, first, step, laneStride)
		if open {
			clear(q[:lo])
			clear(q[lo+n:])
		} else {
			wrapGhosts(q, lo, n)
		}
	} else {
		for k := range width {
			fillLane(q, k, data, off+k*laneStride, cellStride, n, sh[k], neg[k], open)
		}
	}

	// The limited swept averages, then the clipped fluxes and the updated
	// cells, which overwrite v's first n rows.
	kern.limit(q, v, lc)
	kern.flux(q, v, lc)

	// Row m of the result is the line's interior cell m.
	out := v[:n]
	if uniform {
		storeRows(kern, data, first, step, laneStride, out)
		return nil
	}
	for k := range width {
		at, dir := off+k*laneStride, cellStride
		if neg[k] {
			at, dir = at+(n-1)*cellStride, -cellStride
		}
		for _, row := range out {
			data[at] = row[k]
			at += dir
		}
	}
	return nil
}

// fillLane sets lane k of the pad q as step pads a line of n cells whose
// cell i is data[base+i·cellStride]: row r holds the line's position r −
// (sh+3) in pad order, cell r − (sh+3) or, mirrored (neg), n−1−(r−(sh+3));
// an open line is zero outside its cells, a periodic one wraps.
func fillLane[R laneRow](q []R, k int, data []float64, base, cellStride, n, sh int, neg, open bool) {
	lo, first, st := sh+3, base, cellStride
	if neg {
		first, st = base+(n-1)*cellStride, -cellStride
	}
	if open {
		hi := min(lo+n, len(q))
		for r := range min(lo, len(q)) {
			q[r][k] = 0
		}
		for r, at := lo, first; r < hi; r++ {
			q[r][k] = data[at]
			at += st
		}
		for r := hi; r < len(q); r++ {
			q[r][k] = 0
		}
		return
	}
	for r, j := 0, mod(-lo, n); r < len(q); j = 0 {
		at := first + j*st
		for range min(n-j, len(q)-r) {
			q[r][k] = data[at]
			at += st
			r++
		}
	}
}

// loadRows sets rows[m][k] = data[at+m·step+k·laneStride] for every m
// and lane k: one move of a row's values (kern.load) where the lanes are
// adjacent, one transpose (kern.in) per block of as many rows as lanes
// where a lane's cells are (step ±1). rows is not empty, and every index
// must lie inside data (step may be negative); the adjacent rows' span is
// checked here before kern.load takes the pointer.
func loadRows[R laneRow](kern *laneKernels[R], rows []R, data []float64, at, step, laneStride int) {
	var r R
	width := len(r)
	if laneStride == 1 {
		end := at + (len(rows)-1)*step
		_ = data[min(at, end) : max(at, end)+width]
		kern.load(rows, &data[at], step)
		return
	}
	if b := len(rows) / width * width; b > 0 && (step == 1 || step == -1) {
		lo := min(at, at+(b-1)*step)
		kern.in(rows[:b], data[lo:lo+b+(width-1)*laneStride], laneStride, step < 0)
		rows, at = rows[b:], at+b*step
	}
	for m := range rows {
		for k := range width {
			rows[m][k] = data[at+k*laneStride]
		}
		at += step
	}
}

// storeRows is loadRows the other way: data[at+m·step+k·laneStride] =
// rows[m][k].
func storeRows[R laneRow](kern *laneKernels[R], data []float64, at, step, laneStride int, rows []R) {
	var r R
	width := len(r)
	if laneStride == 1 {
		end := at + (len(rows)-1)*step
		_ = data[min(at, end) : max(at, end)+width]
		kern.store(&data[at], step, rows)
		return
	}
	if b := len(rows) / width * width; b > 0 && (step == 1 || step == -1) {
		lo := min(at, at+(b-1)*step)
		kern.out(data[lo:lo+b+(width-1)*laneStride], laneStride, step < 0, rows[:b])
		rows, at = rows[b:], at+b*step
	}
	for _, row := range rows {
		for k := range width {
			data[at+k*laneStride] = row[k]
		}
		at += step
	}
}

// stepLinesOneByOne steps the len(c) lines one by one through the per-line
// kernel: each line by Step or StepOpen, in place when its cells are
// adjacent, else gathered into the result scratch and put back.
func (s *SLMPP5) stepLinesOneByOne(data []float64, off, laneStride, cellStride, n int, c []float64, open bool) error {
	if cap(s.out) < n {
		s.out = make([]float64, n)
	}
	line := s.out[:n]
	for k, ck := range c {
		base := off + k*laneStride
		if cellStride == 1 { // the line is a slice of data: step it in place
			if err := s.step(data[base:base+n], ck, open); err != nil {
				return err
			}
			continue
		}
		for i := range line {
			line[i] = data[base+i*cellStride]
		}
		if err := s.step(line, ck, open); err != nil {
			return err
		}
		for i, v := range line {
			data[base+i*cellStride] = v
		}
	}
	return nil
}
