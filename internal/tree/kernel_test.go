package tree

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"unsafe"

	"vlasov6d/internal/nbody"
	"vlasov6d/internal/units"
)

// TestAccelAllBlockMatchesGo: the AVX2 block kernel gives every particle
// the acceleration kernelBatched gives it, to the bit, on near-uniform and
// clustered sets of N not a multiple of four, and on single groups of 1–8,
// 27 and 32 targets (a set of at most groupSize particles is one group).
func TestAccelAllBlockMatchesGo(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 on this CPU: AccelAll runs kernelBatched only")
	}
	const box, rs, soft = 100.0, 4.0, 0.16 // soft/rs = 1/25, as in production
	sets := map[string]*nbody.Particles{
		"uniform":   randomParticles(t, 3001, box, 41),
		"clustered": clusteredParticles(t, 2003, box, 42),
	}
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 27, 32} {
		sets[fmt.Sprintf("group of %d", n)] = clusteredParticles(t, n, box, int64(43+n))
	}
	for name, p := range sets {
		for _, theta := range []float64{0, 0.5} {
			tr, err := Build(p, Options{Theta: theta, RSplit: rs, Soft: soft})
			if err != nil {
				t.Fatal(err)
			}
			if !tr.vector {
				t.Fatalf("%s: soft = r_s/25 should take the vector kernel", name)
			}
			if p.N <= groupSize && len(tr.groups) != 1 {
				t.Fatalf("%s: %d groups, want one", name, len(tr.groups))
			}
			var vec, ref [3][]float64
			for d := 0; d < 3; d++ {
				vec[d] = make([]float64, p.N)
				ref[d] = make([]float64, p.N)
			}
			if err := tr.AccelAll(vec); err != nil {
				t.Fatal(err)
			}
			tr.vector = false
			if err := tr.AccelAll(ref); err != nil {
				t.Fatal(err)
			}
			for d := 0; d < 3; d++ {
				for i := range vec[d] {
					if math.Float64bits(vec[d][i]) != math.Float64bits(ref[d][i]) {
						t.Fatalf("%s θ=%v: acc[%d][%d] = %v through AVX2, %v through Go", name, theta, d, i, vec[d][i], ref[d][i])
					}
				}
			}
		}
	}
}

// TestBlockLayout: kernel_amd64.s addresses block's fields by offset.
func TestBlockLayout(t *testing.T) {
	var b block
	got := []uintptr{unsafe.Offsetof(b.x), unsafe.Offsetof(b.y), unsafe.Offsetof(b.z),
		unsafe.Offsetof(b.e2), unsafe.Offsetof(b.invRs2), unsafe.Offsetof(b.base), unsafe.Offsetof(b.cut),
		unsafe.Offsetof(b.ax), unsafe.Offsetof(b.ay), unsafe.Offsetof(b.az)}
	for k, off := range got {
		if off != uintptr(32*k) {
			t.Fatalf("field %d of block at offset %d, the kernel reads %d", k, off, 32*k)
		}
	}
	if gTabShift != 42 {
		t.Fatalf("gTabShift = %d, the kernel shifts by 42", gTabShift)
	}
}

// TestVectorKernelGuard: the block kernel runs only where every pair is
// inside the force table, softening ≥ r_s/64; an unsoftened or barely
// softened tree stays on kernelBatched and its exact-profile branch.
func TestVectorKernelGuard(t *testing.T) {
	p := randomParticles(t, 50, 100, 5)
	for _, c := range []struct {
		soft float64
		want bool
	}{{0, false}, {4.0 / 100, false}, {4.0 / 65, false}, {4.0 / 63, haveAVX2}, {4.0 / 25, haveAVX2}} {
		tr, err := Build(p, Options{Theta: 0.5, RSplit: 4, Soft: c.soft})
		if err != nil {
			t.Fatal(err)
		}
		if tr.vector != c.want {
			t.Errorf("soft = %v, r_s = 4: vector kernel %v, want %v", c.soft, tr.vector, c.want)
		}
	}
}

// fuzzBlock decodes a fuzz input: four targets (12 float64), then up to 70
// sources (x, y, z, m), eight little-endian bytes a number. A short input
// reads as zeros; ok is false where a number is not finite.
func fuzzBlock(raw []byte) (tgt [3][4]float64, src *sources, ok bool) {
	next := func() float64 {
		var w [8]byte
		raw = raw[copy(w[:], raw):]
		return math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
	}
	ok = true
	for l := 0; l < 4; l++ {
		for d := 0; d < 3; d++ {
			tgt[d][l] = next()
			ok = ok && !math.IsInf(tgt[d][l], 0) && !math.IsNaN(tgt[d][l])
		}
	}
	src = &sources{}
	for len(raw) > 0 && len(src.x) < 70 {
		x, y, z, m := next(), next(), next(), next()
		for _, v := range []float64{x, y, z, m} {
			ok = ok && !math.IsInf(v, 0) && !math.IsNaN(v)
		}
		src.add(x, y, z, m)
	}
	return tgt, src, ok
}

// encodeBlock is fuzzBlock's inverse, for the seed corpus.
func encodeBlock(tgt [3][4]float64, src [][4]float64) []byte {
	var raw []byte
	for l := 0; l < 4; l++ {
		for d := 0; d < 3; d++ {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(tgt[d][l]))
		}
	}
	for _, s := range src {
		for _, v := range s {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
	}
	return raw
}

// FuzzBlockKernel: wherever the guard holds (e2·invRs2 ≥ 2^gTabMinExp), the
// AVX2 block kernel on four targets equals four kernelBatched calls bit for
// bit, for any finite sources, masses and targets.
//
//	go test -run=NONE -fuzz=FuzzBlockKernel -fuzztime=15s ./internal/tree
func FuzzBlockKernel(f *testing.F) {
	if !haveAVX2 {
		f.Skip("no AVX2 on this CPU")
	}
	// With r_s = 1 and soft = 1/4, a source at (17, 5, 3)/4 from a target
	// sits at s = 20.25, the cutoff; (4, 1.5, 0.5) at s = 18.515625, an
	// interval edge; the target itself at s = 1/16, another edge.
	zero := [3][4]float64{}
	spread := [3][4]float64{{0, 0.3, -1, 2.5}, {0, 0.1, 0.7, -0.2}, {0, -0.4, 0.2, 1}}
	edges := [][4]float64{
		{4.25, 1.25, 0.75, 1}, {0, 0, 0, 1}, {4, 1.5, 0.5, 8}, {-4.25, 1.25, -0.75, 0.5},
		{4.5, 0, 0, 1}, {9, 1, 1, 64}, {0.25, 0, 0, 3}, {1e-3, 2e-3, -1e-3, 1},
	}
	f.Add(1.0, 0.25, encodeBlock(zero, nil))
	f.Add(1.0, 0.25, encodeBlock(zero, edges))
	f.Add(1.0, 0.25, encodeBlock(spread, edges))
	f.Add(4.0, 0.16, encodeBlock(spread, edges))
	f.Add(5.0, 0.1, encodeBlock(spread, edges[:3]))
	var many [][4]float64
	for k := 0; k < 70; k++ {
		a := float64(k)
		many = append(many, [4]float64{math.Mod(a*1.37, 9) - 4.5, math.Mod(a*2.71, 9) - 4.5, math.Mod(a*0.83, 9) - 4.5, 1 + float64(k%5)})
	}
	f.Add(2.0, 0.08, encodeBlock(spread, many))
	f.Fuzz(func(t *testing.T, rs, soft float64, raw []byte) {
		tgt, src, ok := fuzzBlock(raw)
		e2, invRs2 := soft*soft, 1/(rs*rs)
		if !ok || math.IsInf(rs, 0) || math.IsNaN(rs) || !(e2*invRs2 >= math.Ldexp(1, gTabMinExp)) {
			return
		}
		gt := sharedGTable()
		b := newBlock(soft, rs)
		b.x, b.y, b.z = tgt[0], tgt[1], tgt[2]
		kernelBlock(src.x, src.y, src.z, src.m, &gt.tab[0], &b)
		norm := units.G / (rs * rs * rs)
		for l := 0; l < 4; l++ {
			want := kernelBatched(src, tgt[0][l], tgt[1][l], tgt[2][l], soft, rs, gt)
			got := [3]float64{norm * b.ax[l], norm * b.ay[l], norm * b.az[l]}
			for d := 0; d < 3; d++ {
				if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
					t.Fatalf("lane %d dim %d: AVX2 %v (%#x), Go %v (%#x)", l, d, got[d], math.Float64bits(got[d]), want[d], math.Float64bits(want[d]))
				}
			}
		}
	})
}

// BenchmarkPhantomGRAPE is the §5.1.2 kernel ablation on one walk: the
// erfc-per-pair kernel (the paper's w/o-SIMD row), the Go table kernel one
// target per pass, and the AVX2 block of four targets. interactions/s counts
// source–target pairs evaluated, the paper's unit.
func BenchmarkPhantomGRAPE(b *testing.B) {
	p, err := nbody.NewParticles(3000, 1, [3]float64{100, 100, 100})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < p.N; i++ {
		p.Pos[0][i] = math.Mod(float64(i)*17.77, 100)
		p.Pos[1][i] = math.Mod(float64(i)*5.33, 100)
		p.Pos[2][i] = math.Mod(float64(i)*29.1, 100)
	}
	tr, err := Build(p, Options{Theta: 0.5, RSplit: 5, Soft: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	tr.SetWorkers(1)
	var pairs int
	var w walker
	for _, ni := range tr.groups {
		lo, hi := tr.nodes[ni].lo, tr.nodes[ni].hi
		c, h := tr.groupBox(lo, hi)
		tr.gather(&w, c, h)
		pairs += int(hi-lo) * len(w.list.x)
	}
	var acc [3][]float64
	for d := range acc {
		acc[d] = make([]float64, p.N)
	}
	for _, k := range []struct {
		name           string
		scalar, vector bool
	}{{"erfc", true, false}, {"table", false, false}, {"avx2", false, true}} {
		b.Run(k.name, func(b *testing.B) {
			if k.vector && !haveAVX2 {
				b.Skip("no AVX2 on this CPU")
			}
			tr.vector = k.vector
			for b.Loop() {
				if k.scalar {
					scalarAccelAll(tr, acc)
				} else if err := tr.AccelAll(acc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pairs)*float64(b.N)/b.Elapsed().Seconds(), "interactions/s")
		})
	}
}
