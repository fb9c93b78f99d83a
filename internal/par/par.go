// Package par is the repository's one range fan-out: [0, n) split into
// contiguous chunks, one goroutine per chunk, wait, first error. The sweeps
// (vlasov, plasma), the cell reductions (phase), the FFT passes and the tree
// walk all parallelise this way and differ only in what a chunk does. Every
// caller takes the one-worker case itself with a direct call first: a closure
// handed to a goroutine is heap-allocated, and the steady-state single-worker
// step is gated at zero allocations.
package par

import (
	"runtime"
	"sync"
)

// Workers resolves a pinned worker count against items independent work
// items: 0 means GOMAXPROCS at call time, and the result is at least 1 and at
// most items.
func Workers(pinned, items int) int {
	if pinned == 0 {
		pinned = runtime.GOMAXPROCS(0)
	}
	return max(min(pinned, items), 1)
}

// Ranges splits [0, n) into at most nw contiguous ranges of ⌈n/nw⌉ items and
// runs fn(k, lo, hi) for the k-th of them on its own goroutine. It returns
// when all have, with the first error any reported (a failing range abandons
// only itself). The split depends on n and nw alone, so work that is
// deterministic per item is deterministic for any nw.
func Ranges(n, nw int, fn func(k, lo, hi int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	chunk := (n + nw - 1) / nw
	for k := 0; k*chunk < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			if err := fn(k, k*chunk, min((k+1)*chunk, n)); err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}(k)
	}
	wg.Wait()
	return first
}

// Pool is the per-worker scratch of a solver's sweeps: worker k's buffers and
// scheme clones, built on first use and kept for the life of the solver, so
// steady-state stepping neither re-clones schemes nor reallocates lines.
type Pool[W any] struct {
	workers int
	build   func() *W
	scratch []*W
}

// NewPool returns a pool of GOMAXPROCS workers whose scratch build makes.
func NewPool[W any](build func() *W) *Pool[W] {
	return &Pool[W]{workers: runtime.GOMAXPROCS(0), build: build}
}

// SetWorkers pins the worker count (minimum 1).
func (p *Pool[W]) SetWorkers(n int) { p.workers = max(n, 1) }

// Workers bounds the pool's parallelism by the number of independent work
// items.
func (p *Pool[W]) Workers(items int) int { return Workers(p.workers, items) }

// Worker returns worker k's scratch, growing the pool on demand. It is not
// safe for concurrent use: Ranges resolves every worker before it fans out.
func (p *Pool[W]) Worker(k int) *W {
	for len(p.scratch) <= k {
		p.scratch = append(p.scratch, p.build())
	}
	return p.scratch[k]
}

// Ranges is the package's Ranges with each range handed its worker's scratch.
func (p *Pool[W]) Ranges(n, nw int, run func(w *W, lo, hi int) error) error {
	p.Worker(nw - 1)
	return Ranges(n, nw, func(k, lo, hi int) error { return run(p.scratch[k], lo, hi) })
}
