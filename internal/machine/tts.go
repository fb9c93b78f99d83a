package machine

import (
	"fmt"
	"io"
	"math"
)

// TTSConfig parameterises the §7.2 time-to-solution experiment: the H1024 /
// U1024 end-to-end runs from z = 10 to z = 0 on a 1200 h⁻¹Mpc box, compared
// with the TianNu N-body simulation (52 h on Tianhe-2).
type TTSConfig struct {
	// Steps is the number of global time steps from z=10 to z=0 (the
	// expansion cap Δln a ≈ 0.002 used at production accuracy gives ≈1100).
	Steps int
	// IOBandwidth is the aggregate filesystem bandwidth (bytes/s); Fugaku's
	// first-level storage delivers O(1) TB/s to full-system jobs.
	IOBandwidth float64
	// Snapshots counts full phase-space dumps.
	Snapshots int
}

// DefaultTTS matches the paper's setup.
func DefaultTTS() TTSConfig {
	return TTSConfig{Steps: 1100, IOBandwidth: 1.2e12, Snapshots: 2}
}

// TianNuHours is the published TianNu wall-clock time (52 h, §4).
const TianNuHours = 52.0

// TTSResult is the modelled end-to-end time of a run.
type TTSResult struct {
	Run             Run
	ExecSec         float64
	IOSec           float64
	TotalH          float64
	SpeedupVsTianNu float64
}

// TimeToSolution models the end-to-end wall time of a Table 2 run.
func (m *Model) TimeToSolution(r Run, cfg TTSConfig) TTSResult {
	if cfg.Steps <= 0 {
		cfg = DefaultTTS()
	}
	b := m.Step(r)
	exec := b.Total * float64(cfg.Steps)
	bytes := r.PhaseCells()*m.P.BytesPerPhaseCell + r.Particles()*m.P.BytesPerParticle
	io := float64(cfg.Snapshots) * bytes / cfg.IOBandwidth
	tot := (exec + io) / 3600
	return TTSResult{
		Run:             r,
		ExecSec:         exec,
		IOSec:           io,
		TotalH:          tot,
		SpeedupVsTianNu: TianNuHours / tot,
	}
}

// PaperTTS holds the published end-to-end times.
var PaperTTS = map[string]struct {
	ExecSec, IOSec  float64
	SpeedupVsTianNu float64
}{
	"H1024": {6183, 733, 27},
	"U1024": {20342, 782, 8.9},
}

// EquivalentGridSide inverts the paper's eq. (9), ΔL = L·snr^{2/3}/nuSide —
// the spatial resolution of an N-body neutrino simulation with nuSide³
// particles (TianNu: 13824³ including the 8× oversampling) smoothed to reach
// signal-to-noise snr: it returns the Vlasov grid side L/ΔL whose cell size
// equals that resolution.
func EquivalentGridSide(nuSide int, snr float64) float64 {
	return float64(nuSide) / math.Pow(snr, 2.0/3.0)
}

// WriteTTS renders the §7.2 comparison.
func (m *Model) WriteTTS(w io.Writer, cfg TTSConfig) {
	fmt.Fprintln(w, "§7.2 time-to-solution (model vs paper), TianNu reference = 52 h")
	fmt.Fprintf(w, "%-8s %12s %10s %10s %14s\n", "run", "exec [s]", "I/O [s]", "total [h]", "speedup")
	for _, id := range []string{"H1024", "U1024"} {
		r, err := FindRun(id)
		if err != nil {
			continue
		}
		res := m.TimeToSolution(r, cfg)
		p := PaperTTS[id]
		fmt.Fprintf(w, "%-8s %7.0f (%5.0f) %5.0f (%3.0f) %10.2f %6.1f× (%4.1f×)\n",
			id, res.ExecSec, p.ExecSec, res.IOSec, p.IOSec, res.TotalH,
			res.SpeedupVsTianNu, p.SpeedupVsTianNu)
	}
	fmt.Fprintln(w, "\neq. (9) effective resolution of TianNu (13824³ ν particles):")
	for _, snr := range []float64{100, 50} {
		side := EquivalentGridSide(13824, snr)
		fmt.Fprintf(w, "  S/N = %3.0f → ΔL = L/%.0f\n", snr, side)
	}
}
