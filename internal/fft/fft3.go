package fft

import (
	"fmt"
	"runtime"
	"sync"
)

// FFT3 performs in-place 3D complex transforms on a dense row-major array
// with index (ix·ny + iy)·nz + iz. Lines along each axis are transformed by a
// pool of workers, each with its own Plan, mirroring the thread-parallel
// per-CMG FFT of the paper's PM solver. The plans and line buffers are built
// on first use and kept, so a warmed transform allocates nothing with one
// worker — and an FFT3 is not safe for concurrent transforms.
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

// Dims returns the grid dimensions.
func (f *FFT3) Dims() (nx, ny, nz int) { return f.nx, f.ny, f.nz }

// Forward computes the 3D forward DFT in place.
func (f *FFT3) Forward(data []complex128) error { return f.transform(data, true) }

// Inverse computes the normalised 3D inverse DFT in place.
func (f *FFT3) Inverse(data []complex128) error { return f.transform(data, false) }

func (f *FFT3) transform(data []complex128, fwd bool) error {
	if len(data) != f.nx*f.ny*f.nz {
		return fmt.Errorf("fft: data length %d != %d", len(data), f.nx*f.ny*f.nz)
	}
	for _, axis := range [3]int{2, 1, 0} {
		f.sweep(axis, data, fwd)
	}
	return nil
}

// sweep transforms every line along axis, split into contiguous runs of
// lines over the workers.
func (f *FFT3) sweep(axis int, data []complex128, fwd bool) {
	n := [3]int{f.nx, f.ny, f.nz}[axis]
	lines := len(data) / n
	for len(f.plans[axis]) < f.workers {
		p, err := NewPlan(n)
		if err != nil {
			// NewFFT3 validated dims > 0, so this cannot happen.
			panic(err)
		}
		f.plans[axis] = append(f.plans[axis], p)
		f.bufs[axis] = append(f.bufs[axis], make([]complex128, n))
	}
	nw := min(f.workers, lines)
	if nw <= 1 {
		f.lines(axis, data, fwd, 0, 0, lines)
		return
	}
	var wg sync.WaitGroup
	chunk := (lines + nw - 1) / nw
	for w := 0; w*chunk < lines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f.lines(axis, data, fwd, w, w*chunk, min((w+1)*chunk, lines))
		}(w)
	}
	wg.Wait()
}

// lines transforms lines [lo,hi) along axis with worker w's plan. z-lines
// are contiguous; x and y lines are gathered into the worker's buffer (the
// software analogue of the paper's load-and-transpose).
func (f *FFT3) lines(axis int, data []complex128, fwd bool, w, lo, hi int) {
	plan, buf := f.plans[axis][w], f.bufs[axis][w]
	run := plan.Inverse
	if fwd {
		run = plan.Forward
	}
	n, stride := f.nz, 1
	switch axis {
	case 0:
		n, stride = f.nx, f.ny*f.nz
	case 1:
		n, stride = f.ny, f.nz
	}
	for l := lo; l < hi; l++ {
		if stride == 1 {
			run(data[l*n : (l+1)*n])
			continue
		}
		base := l // axis 0: line l starts at (iy, iz) = l
		if axis == 1 {
			base = (l/f.nz)*f.ny*f.nz + l%f.nz
		}
		for i := range buf {
			buf[i] = data[base+i*stride]
		}
		run(buf)
		for i, v := range buf {
			data[base+i*stride] = v
		}
	}
}
