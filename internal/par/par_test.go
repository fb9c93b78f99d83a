package par

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	for _, c := range []struct{ pinned, items, want int }{
		{1, 10, 1}, {4, 10, 4}, {4, 3, 3}, {4, 0, 1}, {-2, 5, 1},
	} {
		if got := Workers(c.pinned, c.items); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.pinned, c.items, got, c.want)
		}
	}
	if got := Workers(0, 1<<30); got < 1 {
		t.Errorf("Workers(0, many) = %d", got)
	}
}

// TestRangesCoversEveryItemOnce: contiguous, disjoint, in index order, for
// worker counts that divide n, do not, and exceed it.
func TestRangesCoversEveryItemOnce(t *testing.T) {
	for _, n := range []int{1, 7, 64} {
		for _, nw := range []int{2, 3, 8, 100} {
			hits := make([]atomic.Int32, n)
			var los [100]atomic.Int64
			err := Ranges(n, nw, func(k, lo, hi int) error {
				if lo >= hi || hi > n {
					t.Errorf("n=%d nw=%d: range %d is [%d, %d)", n, nw, k, lo, hi)
				}
				los[k].Store(int64(lo))
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range hits {
				if hits[i].Load() != 1 {
					t.Fatalf("n=%d nw=%d: item %d visited %d times", n, nw, i, hits[i].Load())
				}
			}
			chunk := (n + nw - 1) / nw
			for k := 0; k*chunk < n; k++ {
				if los[k].Load() != int64(k*chunk) {
					t.Fatalf("n=%d nw=%d: range %d starts at %d", n, nw, k, los[k].Load())
				}
			}
		}
	}
}

func TestRangesReportsAnError(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	err := Ranges(8, 4, func(k, lo, hi int) error {
		ran.Add(1)
		if k == 2 {
			return boom
		}
		return nil
	})
	if err != boom || ran.Load() != 4 {
		t.Fatalf("err %v after %d ranges; want boom after all 4", err, ran.Load())
	}
}

func TestPoolKeepsScratch(t *testing.T) {
	built := 0
	p := NewPool(func() *[]int { built++; s := make([]int, 4); return &s })
	p.SetWorkers(0)
	if p.Workers(10) != 1 {
		t.Fatalf("SetWorkers(0) left %d workers", p.Workers(10))
	}
	p.SetWorkers(3)
	if nw := p.Workers(2); nw != 2 {
		t.Fatalf("3 workers over 2 items: %d", nw)
	}
	for round := 0; round < 3; round++ {
		if err := p.Ranges(9, 3, func(w *[]int, lo, hi int) error {
			(*w)[0] += hi - lo
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if built != 3 {
		t.Fatalf("built %d scratch values for 3 workers over 3 rounds", built)
	}
	for k := 0; k < 3; k++ {
		if got := (*p.Worker(k))[0]; got != 9 {
			t.Fatalf("worker %d handled %d items over 3 rounds, want 9", k, got)
		}
	}
}
