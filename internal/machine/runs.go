// Package machine models Fugaku — A64FX compute-memory groups (CMGs) and
// the Tofu-D interconnect — well enough to replay the paper's run matrix
// (Table 2) and regenerate the weak/strong scaling results (Tables 3–4 and
// Fig. 7) at full 147,456-node scale, which no laptop can execute directly.
//
// The model is analytic but *calibrated*: its single-CMG compute rates come
// from the paper's own microbenchmarks (Table 1 and the Phantom-GRAPE
// interaction rate), and its communication terms follow the Tofu-D
// bandwidth/latency with the decomposition-derived message sizes. The shape
// of the scaling curves — near-perfect Vlasov scaling, tree in the middle,
// the 2D-parallel FFT eroding the PM part at scale — emerges from the
// structure, not from fitting the answers. The calibration is one const
// block (model.go); the model has no parameters to set.
package machine

import "fmt"

// Run is one row of the paper's Table 2.
type Run struct {
	ID           string
	NxSide       int // spatial grid per side (Vlasov)
	NuSide       int // velocity grid per side
	NCDMSide     int // CDM particles per side
	Nodes        int
	Proc         [3]int // MPI process grid (n_x, n_y, n_z)
	ProcsPerNode int
}

// NProc returns the total MPI process count.
func (r Run) NProc() int { return r.Proc[0] * r.Proc[1] * r.Proc[2] }

// PhaseCells returns the total phase-space cell count Nx·Nu.
func (r Run) PhaseCells() float64 {
	nx := float64(r.NxSide)
	nu := float64(r.NuSide)
	return nx * nx * nx * nu * nu * nu
}

// Particles returns the CDM particle count.
func (r Run) Particles() float64 {
	n := float64(r.NCDMSide)
	return n * n * n
}

// Table2 reproduces the paper's run list. The M32 node count is 4608: the
// paper's table prints 3456, but (24·24·16) processes at 2 per node is
// 4608 nodes — an evident typo we resolve arithmetically (EXPERIMENTS.md).
var Table2 = []Run{
	{"S1", 96, 64, 864, 144, [3]int{12, 12, 2}, 2},
	{"S2", 96, 64, 864, 288, [3]int{12, 12, 4}, 2},
	{"S4", 96, 64, 864, 576, [3]int{12, 12, 8}, 2},
	{"M8", 192, 64, 1728, 1152, [3]int{24, 24, 4}, 2},
	{"M12", 192, 64, 1728, 1728, [3]int{24, 24, 6}, 2},
	{"M16", 192, 64, 1728, 2304, [3]int{24, 24, 8}, 2},
	{"M24", 192, 64, 1728, 3456, [3]int{24, 24, 12}, 2},
	{"M32", 192, 64, 1728, 4608, [3]int{24, 24, 16}, 2},
	{"L48", 384, 64, 3456, 6912, [3]int{48, 48, 6}, 2},
	{"L64", 384, 64, 3456, 9216, [3]int{48, 48, 8}, 2},
	{"L96", 384, 64, 3456, 13824, [3]int{48, 48, 12}, 2},
	{"L128", 384, 64, 3456, 18432, [3]int{48, 48, 16}, 2},
	{"L256", 384, 64, 3456, 36864, [3]int{48, 48, 32}, 2},
	{"H384", 768, 64, 6912, 55296, [3]int{96, 96, 24}, 4},
	{"H512", 768, 64, 6912, 73728, [3]int{96, 96, 32}, 4},
	{"H768", 768, 64, 6912, 110592, [3]int{96, 96, 48}, 4},
	{"H1024", 768, 64, 6912, 147456, [3]int{96, 96, 64}, 4},
	{"U1024", 1152, 64, 6912, 147456, [3]int{48, 48, 128}, 2},
}

// FindRun returns the Table 2 entry with the given ID.
func FindRun(id string) (Run, error) {
	for _, r := range Table2 {
		if r.ID == id {
			return r, nil
		}
	}
	return Run{}, fmt.Errorf("machine: unknown run %q", id)
}

// Group returns the runs whose ID starts with the group letter, in table
// order (used for strong-scaling sequences).
func Group(letter string) []Run {
	var out []Run
	for _, r := range Table2 {
		if r.ID[:1] == letter {
			out = append(out, r)
		}
	}
	return out
}

// WeakSequence is the paper's weak-scaling chain S2 → M16 → L128 → H1024:
// per-node load is constant (8× cells, 8× nodes at each hop).
func WeakSequence() []Run {
	ids := []string{"S2", "M16", "L128", "H1024"}
	out := make([]Run, 0, len(ids))
	for _, id := range ids {
		r, err := FindRun(id)
		if err != nil {
			panic(err) // static table; cannot happen
		}
		out = append(out, r)
	}
	return out
}
