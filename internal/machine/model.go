package machine

import (
	"fmt"
	"math"
)

// The calibrated hardware and algorithm constants: the A64FX/Tofu-D
// numbers from the paper (§5.3, §6.1) together with algorithm constants
// derived from the run geometry (e.g. the tree interaction count follows
// from the 4.5·r_s cutoff volume at the paper's particle density).
const (
	// cmgsPerNode: an A64FX has four CMGs (12 cores + 8 GB HBM2 each).
	cmgsPerNode = 4
	// coresPerCMG on A64FX.
	coresPerCMG = 12
	// vlasovRateU is the sustained single-precision rate of a velocity-
	// space sweep per CMG (Table 1 "w/ SIMD"/"w/ LAT": ≈220 Gflop/s).
	vlasovRateU = 220e9
	// vlasovRateX is the physical-space sweep rate (the ghost-copy overhead
	// is included in the paper's ≈150 Gflop/s rows).
	vlasovRateX = 150e9
	// vlasovFlopsPerCellSweep is the effective flop cost of one 1D SL-MPP5
	// update per phase-space cell — reconstruction, MP limiter, positivity
	// clip and the gather/scatter overhead expressed in flop-equivalents.
	vlasovFlopsPerCellSweep = 430
	// treeInteractionsPerSec per CORE: the Phantom-GRAPE SVE kernel rate
	// (1.2×10⁹ on A64FX §5.1.2; the non-SIMD kernel runs at 2.4×10⁷).
	treeInteractionsPerSec = 1.2e9
	// treeInteractionsPerParticle: with r_cut = 4.5·1.25 PM cells and the
	// paper's 9³ particles per Vlasov cell, the cutoff sphere holds
	// (4π/3)·(r_cut·n̄^{1/3})³ ≈ 2×10⁴ neighbours.
	treeInteractionsPerParticle = 2.0e4
	// treeWalkOverhead is the fractional cost of tree build + walk on top
	// of the pair kernel.
	treeWalkOverhead = 0.2
	// meshSecPerParticleCore is the per-core time of the scalable PM mesh
	// work (CIC deposit + force interpolation, latency-bound scattered
	// access) per particle.
	meshSecPerParticleCore = 5.0e-6
	// fftEffRate is the effective per-CMG throughput of the 2D-decomposed
	// FFT including its internal transposes (far below the arithmetic peak;
	// the FFT is redistribution-bound).
	fftEffRate = 3.1e8
	// linkBandwidth is the per-link Tofu-D injection bandwidth (bytes/s);
	// each node has links of 6.8 GB/s.
	linkBandwidth = 6.8e9
	// linkLatency is the one-hop message latency (s).
	linkLatency = 2e-6
	// alltoallEfficiency derates the transpose bandwidth for the
	// many-small-messages pattern of the 3D→2D layout exchange.
	alltoallEfficiency = 0.30
	// ghostWidth is the stencil ghost depth (3 for SL-MPP5).
	ghostWidth = 3
	// bytesPerPhaseCell is 4 (float32).
	bytesPerPhaseCell = 4
	// bytesPerParticle for the boundary exchange (pos+vel+id ≈ 56 B).
	bytesPerParticle = 56
	// treeBoundaryFraction is the fraction of local particles exported to
	// neighbours per step.
	treeBoundaryFraction = 0.08
	// pmGridFactor: N_PM side = NCDMSide/3 (the paper's N_PM = N_CDM/3³).
	pmGridFactor = 3

	// The §7.2 time-to-solution experiment: the H1024 / U1024 end-to-end
	// runs from z = 10 to z = 0 on a 1200 h⁻¹Mpc box.

	// ttsSteps is the number of global time steps from z=10 to z=0 (the
	// expansion cap Δln a ≈ 0.002 used at production accuracy gives ≈1100).
	ttsSteps = 1100
	// ioBandwidth is the aggregate filesystem bandwidth (bytes/s); Fugaku's
	// first-level storage delivers O(1) TB/s to full-system jobs.
	ioBandwidth = 1.2e12
	// snapshots counts full phase-space dumps.
	snapshots = 2
)

// Breakdown is the modelled wall-clock time per step, decomposed as in
// Fig. 7.
type Breakdown struct {
	Vlasov     float64 // velocity+position sweeps, compute
	CommVlasov float64 // ghost exchange
	Tree       float64 // short-range force build+walk+kernel
	CommNbody  float64 // particle boundary exchange
	PM         float64 // mesh ops + 2D-decomposed FFT + transpose
	Total      float64
}

// Step predicts the per-step time breakdown of a run.
func Step(r Run) Breakdown {
	nProc := float64(r.NProc())
	cmgPerProc := cmgsPerNode / float64(r.ProcsPerNode)
	coresPerProc := cmgPerProc * coresPerCMG
	// Local sizes.
	nxLoc := [3]float64{
		float64(r.NxSide) / float64(r.Proc[0]),
		float64(r.NxSide) / float64(r.Proc[1]),
		float64(r.NxSide) / float64(r.Proc[2]),
	}
	nu3 := math.Pow(float64(r.NuSide), 3)
	cellsLoc := nxLoc[0] * nxLoc[1] * nxLoc[2] * nu3

	// ---- Vlasov compute: per step, eq. (5) runs six velocity half-sweeps
	// and three position sweeps at their Table 1 rates.
	fl := cellsLoc * vlasovFlopsPerCellSweep
	tV := 6*fl/(vlasovRateU*cmgPerProc) + 3*fl/(vlasovRateX*cmgPerProc)

	// ---- Vlasov ghost exchange: two faces × ghostWidth planes per
	// decomposed axis, three position sweeps per step.
	ghostBytes := 0.0
	faceArea := [3]float64{
		nxLoc[1] * nxLoc[2], nxLoc[0] * nxLoc[2], nxLoc[0] * nxLoc[1],
	}
	for d := 0; d < 3; d++ {
		if r.Proc[d] > 1 {
			ghostBytes += 2 * ghostWidth * faceArea[d] * nu3 * bytesPerPhaseCell
		}
	}
	tCommV := ghostBytes/(2*linkBandwidth) + 6*linkLatency

	// ---- Tree: Phantom-GRAPE kernel over the cutoff-volume interaction
	// list, plus build/walk overhead.
	partLoc := r.Particles() / nProc
	kernelRate := treeInteractionsPerSec * coresPerProc
	tTree := (1 + treeWalkOverhead) * partLoc * treeInteractionsPerParticle / kernelRate

	// ---- N-body communication: boundary particles both ways.
	nbBytes := 2 * partLoc * treeBoundaryFraction * bytesPerParticle
	tCommN := nbBytes/(2*linkBandwidth) + 6*linkLatency

	// ---- PM: a perfectly-scaling mesh part (CIC deposit + interpolation,
	// particle-count bound) plus the 2D-decomposed FFT, which is
	// parallelised over only n_x·n_y processes (§5.1.3) — the scaling
	// bottleneck the paper calls out — plus the 3D→2D transpose.
	tPM := partLoc * meshSecPerParticleCore / coresPerProc
	npm := float64(r.NCDMSide) / pmGridFactor
	fftFlops := 2 * 5 * npm * npm * npm * 3 * math.Log2(npm) // fwd+inv pair
	fftProcs := float64(r.Proc[0] * r.Proc[1])
	if fftProcs > nProc {
		fftProcs = nProc
	}
	tPM += fftFlops / (fftEffRate * cmgPerProc * fftProcs)
	meshBytes := npm * npm * npm * 8 / fftProcs
	tPM += 4 * meshBytes / (alltoallEfficiency * linkBandwidth)

	b := Breakdown{
		Vlasov:     tV,
		CommVlasov: tCommV,
		Tree:       tTree,
		CommNbody:  tCommN,
		PM:         tPM,
	}
	b.Total = tV + tCommV + tTree + tCommN + tPM
	return b
}

// PartTime extracts a named part from a breakdown, with communication
// folded into its owning part as the paper's tables do.
func (b Breakdown) PartTime(part string) (float64, error) {
	switch part {
	case "total":
		return b.Total, nil
	case "vlasov":
		return b.Vlasov + b.CommVlasov, nil
	case "tree":
		return b.Tree + b.CommNbody, nil
	case "pm":
		return b.PM, nil
	}
	return 0, fmt.Errorf("machine: unknown part %q", part)
}
