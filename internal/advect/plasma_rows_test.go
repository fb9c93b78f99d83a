package advect_test

import (
	"bytes"
	"math"
	"testing"

	"vlasov6d/internal/advect"
	"vlasov6d/internal/plasma"
)

// TestPlasmaRowPaddingStaysZero: the plasma solver pads F's rows past NV
// (to 24 values at NV = 20, 264 at 256), and every value between NV and
// the stride is exactly +0 after Landau steps at every lane width, with 1
// and 3 workers, through Synchronize, and in the solver Restore rebuilds
// from its Checkpoint, before and after it steps on.
func TestPlasmaRowPaddingStaysZero(t *testing.T) {
	advect.WithLaneWidths(t, func(t *testing.T) {
		for _, g := range [][2]int{{16, 20}, {64, 256}} {
			for _, workers := range []int{1, 3} {
				s, err := plasma.NewWithScheme(g[0], g[1], 4*math.Pi, 8, "slmpp5")
				if err != nil {
					t.Fatal(err)
				}
				s.SetWorkers(workers)
				s.LandauInit(0.01, 0.5, 1)
				check := func(what string, s *plasma.Solver) {
					t.Helper()
					stride := len(s.F) / s.NX
					if stride == s.NV {
						t.Fatalf("%d×%d: rows are not padded", s.NX, s.NV)
					}
					for i := range s.NX {
						for j := s.NV; j < stride; j++ {
							if v := s.F[i*stride+j]; math.Float64bits(v) != 0 {
								t.Fatalf("%d×%d, %d workers, %s: padding F[%d·%d+%d] = %v", s.NX, s.NV, workers, what, i, stride, j, v)
							}
						}
					}
				}
				step := func(s *plasma.Solver, n int) {
					t.Helper()
					for range n {
						if err := s.Step(s.SuggestDT()); err != nil {
							t.Fatal(err)
						}
					}
				}
				step(s, 20)
				check("steps", s)
				if err := s.Synchronize(); err != nil {
					t.Fatal(err)
				}
				check("Synchronize", s)
				var buf bytes.Buffer
				if _, err := s.Checkpoint(&buf); err != nil {
					t.Fatal(err)
				}
				r, err := plasma.Restore(&buf)
				if err != nil {
					t.Fatal(err)
				}
				r.SetWorkers(workers)
				check("Restore", r)
				step(r, 5)
				check("steps after Restore", r)
			}
		}
	})
}
