package fft

import (
	"fmt"
	"runtime"

	"vlasov6d/internal/par"
)

// FFT3 performs 3D transforms on dense row-major arrays with index
// (ix·ny + iy)·nz + iz: the complex transform in place (Forward, Inverse),
// and the transform of a real field to and from the Hermitian half of its
// spectrum (ForwardReal, InverseReal), an nx×ny×(nz/2+1) array holding the
// modes kz ≤ nz/2 — the rest are their conjugates. Lines along each axis are
// transformed by a pool of workers, each with its own Plan, mirroring the
// thread-parallel per-CMG FFT of the paper's PM solver. The plans and line
// buffers are built on first use and kept, so a warmed transform allocates
// nothing with one worker — and an FFT3 is not safe for concurrent transforms.
type FFT3 struct {
	nx, ny, nz int
	workers    int
	// Per axis (x, y, z), one plan and one gather buffer per worker.
	plans [3][]*Plan
	bufs  [3][][]complex128
}

// NewFFT3 creates a 3D transform descriptor for an nx×ny×nz array.
func NewFFT3(nx, ny, nz int) (*FFT3, error) {
	if nx < 1 || ny < 1 || nz < 1 {
		return nil, fmt.Errorf("fft: invalid dims %dx%dx%d", nx, ny, nz)
	}
	return &FFT3{nx: nx, ny: ny, nz: nz, workers: runtime.GOMAXPROCS(0)}, nil
}

// SetWorkers overrides the worker count (minimum 1); used by tests and by
// the machine model to pin parallelism.
func (f *FFT3) SetWorkers(w int) {
	if w < 1 {
		w = 1
	}
	f.workers = w
}

// HalfLen returns the length of the half spectrum, nx·ny·(nz/2+1).
func (f *FFT3) HalfLen() int { return f.nx * f.ny * (f.nz/2 + 1) }

// Forward computes the 3D forward DFT in place.
func (f *FFT3) Forward(data []complex128) error { return f.transform(data, false) }

// Inverse computes the normalised 3D inverse DFT in place.
func (f *FFT3) Inverse(data []complex128) error { return f.transform(data, true) }

func (f *FFT3) transform(data []complex128, inverse bool) error {
	if len(data) != f.nx*f.ny*f.nz {
		return fmt.Errorf("fft: data length %d != %d", len(data), f.nx*f.ny*f.nz)
	}
	for _, axis := range [3]int{2, 1, 0} {
		f.sweep(pass{axis: axis, inverse: inverse, spec: data})
	}
	return nil
}

// ForwardReal computes the 3D forward DFT of the real field src into the
// half spectrum dst (length HalfLen). src is left untouched.
func (f *FFT3) ForwardReal(src []float64, dst []complex128) error {
	if err := f.checkReal(len(src), len(dst)); err != nil {
		return err
	}
	for _, axis := range [3]int{2, 1, 0} {
		f.sweep(pass{axis: axis, spec: dst, field: src})
	}
	return nil
}

// InverseReal computes the normalised 3D inverse DFT of the half spectrum
// src into the real field dst. src is overwritten. The imaginary parts of
// the self-conjugate modes (kz = 0 and, for even nz, kz = nz/2 of each
// z-line after the x and y transforms), zero for the spectrum of a real
// field, are ignored.
func (f *FFT3) InverseReal(src []complex128, dst []float64) error {
	if err := f.checkReal(len(dst), len(src)); err != nil {
		return err
	}
	for _, axis := range [3]int{0, 1, 2} {
		f.sweep(pass{axis: axis, inverse: true, spec: src, field: dst})
	}
	return nil
}

func (f *FFT3) checkReal(nField, nSpec int) error {
	if nField != f.nx*f.ny*f.nz {
		return fmt.Errorf("fft: real field length %d != %d", nField, f.nx*f.ny*f.nz)
	}
	if nSpec != f.HalfLen() {
		return fmt.Errorf("fft: half spectrum length %d != %d", nSpec, f.HalfLen())
	}
	return nil
}

// pass is one axis of a 3D transform: every line along axis of spec, the
// full spectrum (nx×ny×nz) or, with a real field beside it, the half
// (nx×ny×(nz/2+1)); the z pass then converts between field and spec, two
// real lines per complex transform. Inverse passes are unnormalised except
// along z, which applies the whole 1/(nx·ny·nz).
type pass struct {
	axis    int
	inverse bool
	spec    []complex128
	field   []float64
}

// sweep runs a pass, its work items — lines, or pairs of real lines — split
// into one contiguous range per worker.
func (f *FFT3) sweep(p pass) {
	n := [3]int{f.nx, f.ny, f.nz}[p.axis]
	for len(f.plans[p.axis]) < f.workers {
		plan, err := NewPlan(n)
		if err != nil {
			// NewFFT3 validated dims > 0, so this cannot happen.
			panic(err)
		}
		f.plans[p.axis] = append(f.plans[p.axis], plan)
		f.bufs[p.axis] = append(f.bufs[p.axis], make([]complex128, n))
	}
	items := len(p.spec) / n
	if p.axis == 2 {
		items = f.nx * f.ny
		if p.field != nil {
			items = (items + 1) / 2
		}
	}
	if nw := min(f.workers, items); nw > 1 {
		f.fanOut(p, items, nw)
		return
	}
	f.run(p, 0, 0, items)
}

// fanOut is the parallel half of sweep, apart so that the goroutine closure
// capturing p costs the one-worker path no allocation.
func (f *FFT3) fanOut(p pass, items, nw int) {
	par.Ranges(items, nw, func(w, lo, hi int) error {
		f.run(p, w, lo, hi)
		return nil
	})
}

// run does items [lo, hi) of a pass with worker w's plan and buffer.
func (f *FFT3) run(p pass, w, lo, hi int) {
	plan, buf := f.plans[p.axis][w], f.bufs[p.axis][w]
	norm := 1 / float64(f.nx*f.ny*f.nz)
	switch {
	case p.axis == 2 && p.field == nil:
		for l := lo; l < hi; l++ {
			line := p.spec[l*f.nz : (l+1)*f.nz]
			plan.run(line, p.inverse)
			if p.inverse {
				scale(line, norm)
			}
		}
	case p.axis == 2 && !p.inverse:
		for l := 2 * lo; l < 2*hi; l += 2 {
			f.packPair(plan, buf, p, l)
		}
	case p.axis == 2:
		for l := 2 * lo; l < 2*hi; l += 2 {
			f.unpackPair(plan, buf, p, l, norm)
		}
	default:
		// x and y lines are strided: gathered into the worker's buffer (the
		// software analogue of the paper's load-and-transpose).
		nzc := len(p.spec) / (f.nx * f.ny)
		stride := nzc
		if p.axis == 0 {
			stride = f.ny * nzc
		}
		for l := lo; l < hi; l++ {
			base := l // an x-line starts at (iy, iz) = l
			if p.axis == 1 {
				base = (l/nzc)*f.ny*nzc + l%nzc
			}
			for i := range buf {
				buf[i] = p.spec[base+i*stride]
			}
			plan.run(buf, p.inverse)
			for i, v := range buf {
				p.spec[base+i*stride] = v
			}
		}
	}
}

// zLines returns z-lines l and l+1 of the real field and of the half
// spectrum; the second of each is empty when l is an odd last line.
func (f *FFT3) zLines(p pass, l int) (a, b []float64, sa, sb []complex128) {
	nz, nzh := f.nz, f.nz/2+1
	a, sa = p.field[l*nz:(l+1)*nz], p.spec[l*nzh:(l+1)*nzh]
	if l+1 < f.nx*f.ny {
		b, sb = p.field[(l+1)*nz:(l+2)*nz], p.spec[(l+1)*nzh:(l+2)*nzh]
	}
	return a, b, sa, sb
}

// packPair transforms real z-lines l and l+1 as one complex line a + i·b:
// with C its spectrum, A[k] = (C[k] + conj C[n−k])/2 and
// B[k] = (C[k] − conj C[n−k])/2i. Lines are always paired by index (an odd
// last line with zero), so the rounding a line picks up from its partner
// does not depend on how lines fall to workers.
func (f *FFT3) packPair(plan *Plan, c []complex128, p pass, l int) {
	a, b, sa, sb := f.zLines(p, l)
	for i, v := range a {
		if b != nil {
			c[i] = complex(v, b[i])
		} else {
			c[i] = complex(v, 0)
		}
	}
	plan.run(c, false)
	n := len(c)
	sa[0] = complex(real(c[0]), 0)
	if sb != nil {
		sb[0] = complex(imag(c[0]), 0)
	}
	for k := 1; k < len(sa); k++ {
		u, v := c[k], c[n-k]
		sa[k] = complex(0.5*(real(u)+real(v)), 0.5*(imag(u)-imag(v)))
		if sb != nil {
			sb[k] = complex(0.5*(imag(u)+imag(v)), 0.5*(real(v)-real(u)))
		}
	}
}

// unpackPair is packPair backwards: C = A + i·B extended over the full line
// by Hermitian symmetry, one complex inverse, a = Re c, b = Im c.
func (f *FFT3) unpackPair(plan *Plan, c []complex128, p pass, l int, norm float64) {
	a, b, sa, sb := f.zLines(p, l)
	n := len(c)
	for k, va := range sa {
		var vb complex128
		if sb != nil {
			vb = sb[k]
		}
		if k == 0 || 2*k == n {
			c[k] = complex(real(va), real(vb))
			continue
		}
		c[k] = complex(real(va)-imag(vb), imag(va)+real(vb))
		c[n-k] = complex(real(va)+imag(vb), real(vb)-imag(va))
	}
	plan.run(c, true)
	for i := range a {
		a[i] = real(c[i]) * norm
	}
	for i := range b {
		b[i] = imag(c[i]) * norm
	}
}
