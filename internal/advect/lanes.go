package advect

import (
	"fmt"

	"vlasov6d/internal/cpuid"
)

// laneKernel says StepLanes runs its lines through the vector kernel (AVX2,
// amd64). When it is false every line takes the per-line Step/StepOpen,
// which stays the oracle of the vector kernel.
var laneKernel = cpuid.AVX2()

// laneCoef holds what the vector kernel reads of the four lanes' sweeps,
// lane k in element k. Offsets (bytes): w 0, xi 160, alpha 192, eps 224.
type laneCoef struct {
	w     [5][4]float64 // SweptWeights(xi), weight r of every lane at w[r]
	xi    [4]float64
	alpha [4]float64
	eps   float64 // mpEps
}

// StepLanes advances four lines of n cells, line k by its own CFL number
// c[k]: line k's cell i is data[off+k·laneStride+i·cellStride]. The lines
// must not share a cell. Each line ends bit for bit as Step (with open,
// StepOpen) leaves it; a line with c[k] = 0 is unchanged.
//
// Where the CPU has AVX2 the four lines step together, one per vector
// lane: each lane is padded as Step pads its line (own shift, own mirror,
// own periodic or zero ghosts) into a lane-interleaved pad, so that row r
// holds position r of all four padded lines, and the kernel does advance's
// operations in advance's order on all four at once, mpBound's on the
// lanes the limiter rejects. When the lanes share their shift and
// direction, a pad row's interior cells, and a result row, are four
// adjacent values of data where laneStride is 1 (the plasma drift), and a
// block of four rows is four loads of four adjacent cells and one 4×4
// transpose where cellStride is 1 (the kick). Only a lane whose CFL number is an integer (an exact shift,
// zero included), and every CPU without AVX2, falls back: then all four
// lines take Step/StepOpen one by one.
func (s *SLMPP5) StepLanes(data []float64, off, laneStride, cellStride, n int, c *[4]float64, open bool) error {
	if laneStride < 1 || cellStride < 1 || off < 0 || off+3*laneStride+(n-1)*cellStride >= len(data) {
		return fmt.Errorf("slmpp5: 4 lanes at %d, lane stride %d, cell stride %d, n %d, are outside %d values",
			off, laneStride, cellStride, n, len(data))
	}
	// Lanes k < k' share a cell iff (k'−k)·laneStride = d·cellStride for
	// some d < n.
	for d := 1; d < 4; d++ {
		if dl := d * laneStride; dl%cellStride == 0 && dl/cellStride < n {
			return fmt.Errorf("slmpp5: lanes %d apart share a cell (lane stride %d, cell stride %d, n %d)",
				d, laneStride, cellStride, n)
		}
	}
	var ks [4]sweep
	vector := laneKernel
	for k := range ks {
		var err error
		if ks[k], err = s.prepare(n, c[k], open); err != nil {
			return err
		}
		vector = vector && ks[k].xi != 0
	}
	if !vector {
		return s.stepLinesOneByOne(data, off, laneStride, cellStride, n, c, open)
	}

	// The pad is sized as step sizes its pad, n+sh+5 rows for the largest
	// bounded shift (2n+8), and v, the n+1 swept averages, follows it.
	if need := 3*n + 9; cap(s.lanes) < need {
		s.lanes = make([][4]float64, need)
	}
	pad, v := s.lanes[:2*n+8], s.lanes[2*n+8:3*n+9]
	var lc laneCoef
	// Lanes that share shift and direction share their pad rows' cells:
	// interior row m of lane k is data[first+m·step+k·laneStride], cell m,
	// or n−1−m of mirrored lines.
	uniform := true
	for k := range ks {
		lc.w[0][k], lc.w[1][k], lc.w[2][k], lc.w[3][k], lc.w[4][k] = ks[k].w[0], ks[k].w[1], ks[k].w[2], ks[k].w[3], ks[k].w[4]
		lc.xi[k], lc.alpha[k] = ks[k].xi, ks[k].alpha
		uniform = uniform && ks[k].sh == ks[0].sh && ks[k].neg == ks[0].neg
	}
	lc.eps = mpEps
	first, step := off, cellStride
	if ks[0].neg {
		first, step = off+(n-1)*cellStride, -cellStride
	}

	// Fill the pad as step fills each line's: row r of lane k is position r
	// of line k's padded copy. advance reads rows 0..n+4.
	q := pad[:n+5]
	if uniform {
		q = pad[:n+ks[0].sh+5]
		lo := ks[0].sh + 3
		loadRows(q[lo:lo+n], data, first, step, laneStride)
		if open {
			clear(q[:lo])
			clear(q[lo+n:])
		} else {
			wrapGhosts(q, lo, n)
		}
	} else {
		for k := range ks {
			cell, dir := -(ks[k].sh + 3), 1
			if ks[k].neg {
				cell, dir = n-1+ks[k].sh+3, -1
			}
			if !open {
				cell = mod(cell, n)
			}
			base := off + k*laneStride
			for r := range q {
				if cell >= 0 && cell < n {
					q[r][k] = data[base+cell*cellStride]
				} else {
					q[r][k] = 0
				}
				if cell += dir; !open && cell == n {
					cell = 0
				} else if !open && cell < 0 {
					cell = n - 1
				}
			}
		}
	}

	// The limited swept averages, then the clipped fluxes and the updated
	// cells, which overwrite v's first n rows.
	laneLimit(q, v, &lc)
	laneFlux(q, v, &lc)

	// Row m of the result is the line's interior cell m.
	out := v[:n]
	if uniform {
		storeRows(data, first, step, laneStride, out)
	} else {
		for k := range ks {
			at, dir := off+k*laneStride, cellStride
			if ks[k].neg {
				at, dir = at+(n-1)*cellStride, -cellStride
			}
			for _, row := range out {
				data[at] = row[k]
				at += dir
			}
		}
	}
	return nil
}

// loadRows sets rows[m][k] = data[at+m·step+k·laneStride] for every m
// and k: one copy of four values per row where the lanes are adjacent, one
// 4×4 transpose per four rows where a lane's cells are (step ±1). Every
// index must lie inside data (step may be negative).
func loadRows(rows [][4]float64, data []float64, at, step, laneStride int) {
	if laneStride == 1 {
		for m := range rows {
			rows[m] = [4]float64(data[at : at+4])
			at += step
		}
		return
	}
	if b := len(rows) &^ 3; b > 0 && (step == 1 || step == -1) {
		lo := min(at, at+(b-1)*step)
		laneIn(rows[:b], data[lo:lo+b+3*laneStride], laneStride, step < 0)
		rows, at = rows[b:], at+b*step
	}
	for m := range rows {
		rows[m] = [4]float64{data[at], data[at+laneStride], data[at+2*laneStride], data[at+3*laneStride]}
		at += step
	}
}

// storeRows is loadRows the other way: data[at+m·step+k·laneStride] =
// rows[m][k].
func storeRows(data []float64, at, step, laneStride int, rows [][4]float64) {
	if laneStride == 1 {
		for m := range rows {
			*(*[4]float64)(data[at : at+4]) = rows[m]
			at += step
		}
		return
	}
	if b := len(rows) &^ 3; b > 0 && (step == 1 || step == -1) {
		lo := min(at, at+(b-1)*step)
		laneOut(data[lo:lo+b+3*laneStride], laneStride, step < 0, rows[:b])
		rows, at = rows[b:], at+b*step
	}
	for _, row := range rows {
		data[at], data[at+laneStride], data[at+2*laneStride], data[at+3*laneStride] = row[0], row[1], row[2], row[3]
		at += step
	}
}

// stepLinesOneByOne is StepLanes through the per-line kernel: each line is
// stepped by Step or StepOpen, in place when its cells are adjacent, else
// gathered into the result scratch and put back.
func (s *SLMPP5) stepLinesOneByOne(data []float64, off, laneStride, cellStride, n int, c *[4]float64, open bool) error {
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
