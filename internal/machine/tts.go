package machine

import (
	"fmt"
	"io"
	"math"
)

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

// TimeToSolution models the end-to-end wall time of a Table 2 run in the
// §7.2 experiment: the H1024 / U1024 runs from z = 10 to z = 0 on a
// 1200 h⁻¹Mpc box, compared with the TianNu N-body simulation (52 h on
// Tianhe-2).
func TimeToSolution(r Run) TTSResult {
	b := Step(r)
	exec := b.Total * ttsSteps
	bytes := r.PhaseCells()*bytesPerPhaseCell + r.Particles()*bytesPerParticle
	io := snapshots * bytes / ioBandwidth
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
func WriteTTS(w io.Writer) {
	fmt.Fprintln(w, "§7.2 time-to-solution (model vs paper), TianNu reference = 52 h")
	fmt.Fprintf(w, "%-8s %12s %10s %10s %14s\n", "run", "exec [s]", "I/O [s]", "total [h]", "speedup")
	for _, id := range []string{"H1024", "U1024"} {
		r, err := FindRun(id)
		if err != nil {
			continue
		}
		res := TimeToSolution(r)
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
