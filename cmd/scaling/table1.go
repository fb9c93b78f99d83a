package main

import (
	"fmt"
	"io"
	"time"

	"vlasov6d/internal/advect"
)

// table1Dirs lists the six sweep directions in the paper's Table 1 order
// (velocity space first) with their axis in the brick layout
// (x, y, z, ux, uy, uz), uz fastest.
var table1Dirs = [6]struct {
	name string
	axis int
}{{"ux", 3}, {"uy", 4}, {"uz", 5}, {"x", 0}, {"y", 1}, {"z", 2}}

// table1Extents is the measured brick: 8³ spatial cells of 24³ velocity
// cells (28 MB of float32) — past the caches, so each direction's stride
// shows.
var table1Extents = [6]int{8, 8, 8, 24, 24, 24}

// blockLines is the number of lines one StepStrided call advances.
const blockLines = 64

// brick is a 6D float32 distribution function swept with the production
// SL-MPP5 kernel, which reads and writes each line at its stride.
type brick struct {
	n      [6]int
	f      []float32
	offs   []int // the first cells of one block of lines
	scheme *advect.SLMPP5
}

func newBrick(n [6]int) *brick {
	cells := 1
	for _, e := range n {
		cells *= e
	}
	b := &brick{n: n, f: make([]float32, cells), offs: make([]int, blockLines), scheme: advect.NewSLMPP5()}
	for i := range b.f {
		b.f[i] = 1 + 0.5*float32(i%17)/17
	}
	return b
}

// stride is the distance in cells between neighbours along axis: the product
// of the faster extents.
func (b *brick) stride(axis int) int {
	s := 1
	for _, e := range b.n[axis+1:] {
		s *= e
	}
	return s
}

// sweep advances every line along axis by CFL number c, periodically, in
// blocks of blockLines lines. Line m of the len(f)/n lines starts at cell
// (m/stride)·n·stride + m%stride.
func (b *brick) sweep(axis int, c float64) error {
	n, stride := b.n[axis], b.stride(axis)
	for m0, lines := 0, len(b.f)/n; m0 < lines; m0 += blockLines {
		offs := b.offs[:min(blockLines, lines-m0)]
		for l := range offs {
			m := m0 + l
			offs[l] = m/stride*n*stride + m%stride
		}
		if _, err := b.scheme.StepStrided(b.f, offs, stride, n, c, false); err != nil {
			return err
		}
	}
	return nil
}

// table1Row is one direction's measured throughput.
type table1Row struct {
	dir    string
	stride int
	mcells float64 // 10⁶ cell updates per second, the unit benchmark/ reports
}

// measureTable1 times reps sweeps per direction after one warm-up sweep.
func measureTable1(n [6]int, reps int) ([]table1Row, error) {
	b := newBrick(n)
	rows := make([]table1Row, 0, len(table1Dirs))
	for _, d := range table1Dirs {
		if err := b.sweep(d.axis, 0.3); err != nil {
			return nil, err
		}
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			if err := b.sweep(d.axis, 0.3); err != nil {
				return nil, err
			}
		}
		rate := float64(len(b.f)) * float64(reps) / time.Since(t0).Seconds() / 1e6
		rows = append(rows, table1Row{d.name, b.stride(d.axis), rate})
	}
	return rows, nil
}

func writeTable1(w io.Writer, n [6]int, rows []table1Row) {
	fmt.Fprintf(w, "Table 1: SL-MPP5 sweep throughput per direction, %d×%d×%d × %d×%d×%d float32 brick\n",
		n[0], n[1], n[2], n[3], n[4], n[5])
	fmt.Fprintf(w, "%-10s %10s %10s\n", "Direction", "stride", "Mcell/s")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %10d %10.1f\n", r.dir, r.stride, r.mcells)
	}
}
