package main

import (
	"bytes"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"vlasov6d/internal/advect"
)

// Distinct extents, so an axis or stride mix-up cannot cancel out.
var testExtents = [6]int{6, 7, 6, 8, 7, 9}

func TestTable1RowsInPaperOrder(t *testing.T) {
	rows, err := measureTable1(testExtents, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"ux", "uy", "uz", "x", "y", "z"}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		if !(r.mcells > 0) || math.IsInf(r.mcells, 0) {
			t.Errorf("%s: rate %v is not finite and positive", r.dir, r.mcells)
		}
	}
	var buf bytes.Buffer
	writeTable1(&buf, testExtents, rows)
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2+len(want) ||
		lines[0] != "Table 1: SL-MPP5 sweep throughput per direction, 6×7×6 × 8×7×9 float32 brick" {
		t.Fatalf("table:\n%s", buf.String())
	}
	for i, line := range lines[2:] {
		f := strings.Fields(line)
		if len(f) != 3 || f[0] != want[i] || f[1] != strconv.Itoa(rows[i].stride) {
			t.Errorf("table row %d is %q, want direction %q, stride %d", i, line, want[i], rows[i].stride)
		}
	}
	if _, err := measureTable1([6]int{6, 6, 6, 6, 6, 5}, 1); err == nil {
		t.Error("an axis shorter than the stencil was accepted")
	}
}

func total(f []float32) float64 {
	s := 0.0
	for _, v := range f {
		s += float64(v)
	}
	return s
}

func TestSweepConservesMassOnEveryAxis(t *testing.T) {
	b := newBrick(testExtents)
	for _, d := range table1Dirs {
		for _, c := range []float64{0.3, -1.7} {
			before := total(b.f)
			if err := b.sweep(d.axis, c); err != nil {
				t.Fatal(err)
			}
			if drift := math.Abs(total(b.f)-before) / before; drift > 1e-6 {
				t.Errorf("%s c=%v: Σf drifted by %.2e", d.name, c, drift)
			}
		}
	}
}

// The strided sweep is the production kernel and nothing else: every line
// equals Step on that line alone, widened to float64 and rounded back, bit
// for bit.
func TestSweepMatchesStepLineByLine(t *testing.T) {
	const axis, c = 1, 0.3
	b := newBrick(testExtents)
	want := slices.Clone(b.f)
	n, stride := b.n[axis], b.stride(axis)
	s, line := advect.NewSLMPP5(), make([]float64, n)
	for block := 0; block < len(want); block += n * stride {
		for off := block; off < block+stride; off++ {
			for i := range line {
				line[i] = float64(want[off+i*stride])
			}
			if err := s.Step(line, c); err != nil {
				t.Fatal(err)
			}
			for i, v := range line {
				want[off+i*stride] = float32(v)
			}
		}
	}
	if err := b.sweep(axis, c); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if b.f[i] != want[i] {
			t.Fatalf("cell %d = %v, line by line gives %v", i, b.f[i], want[i])
		}
	}
}
