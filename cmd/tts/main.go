// Command tts reproduces the §7.2 time-to-solution experiment in two parts:
//
//  1. a LIVE laptop-scale end-to-end hybrid run (z=10 → z=0 on a scaled-down
//     grid) timed including snapshot I/O, run twice — once with the Vlasov
//     neutrinos and once with the TianNu-style neutrino particles at 8× the
//     CDM count — so the wall-clock ratio of the two methods is measured for
//     real, and
//  2. the machine-model extrapolation of the H1024/U1024 full-Fugaku runs
//     against the published TianNu 52 h, including the eq. (9) effective-
//     resolution equivalence.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"vlasov6d/internal/cosmo"
	"vlasov6d/internal/hybrid"
	"vlasov6d/internal/machine"
	"vlasov6d/internal/runner"
	"vlasov6d/internal/snapio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tts: ")
	var (
		ngrid = flag.Int("ngrid", 10, "Vlasov spatial cells per side")
		nu    = flag.Int("nu", 8, "velocity cells per side")
		npart = flag.Int("npart", 10, "CDM particles per side")
		aEnd  = flag.Float64("aend", 1.0, "final scale factor")
		seed  = flag.Int64("seed", 1, "IC seed")
		skip  = flag.Bool("model-only", false, "skip the live runs")
	)
	flag.Parse()

	if !*skip {
		liveComparison(*ngrid, *nu, *npart, *aEnd, *seed)
	}

	fmt.Println()
	machine.WriteTTS(os.Stdout)
}

func liveComparison(ngrid, nu, npart int, aEnd float64, seed int64) {
	base := hybrid.Config{
		Par:       cosmo.Planck2015(0.4),
		Box:       200,
		NGrid:     ngrid,
		NU:        nu,
		NPartSide: npart,
		PMFactor:  2,
		Seed:      seed,
	}
	runOne := func(label string, cfg hybrid.Config) (wall, io float64, steps int) {
		t0 := time.Now()
		sim, err := hybrid.New(cfg, 0.0909)
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		if _, err := runner.Run(context.Background(), sim, aEnd, runner.WithMaxSteps(1000000)); err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		// Snapshot I/O, as in the paper's end-to-end accounting.
		tIO := time.Now()
		f, err := os.CreateTemp("", "vlasov6d-snap-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.Remove(f.Name())
		snap := &snapio.Snapshot{A: sim.A, Time: sim.Time, Part: sim.Part, Grid: sim.Grid}
		nBytes, err := snapio.Write(f, snap)
		if err != nil {
			log.Fatal(err)
		}
		f.Close()
		io = time.Since(tIO).Seconds()
		wall = time.Since(t0).Seconds()
		log.Printf("%s: %d steps, %.1f s wall (%.2f s I/O, %s snapshot)",
			label, sim.Tim.Steps, wall, io, humanBytes(nBytes))
		return wall, io, sim.Tim.Steps
	}

	fmt.Println("LIVE end-to-end comparison (scaled-down, z=10 → z=0):")
	wV, _, sV := runOne("Vlasov hybrid", base)
	cfgP := base
	cfgP.NuParticles = true
	cfgP.NNuSide = 2 * npart // the paper's 8× neutrino particle count
	wP, _, sP := runOne("ν-particle baseline", cfgP)
	fmt.Printf("  Vlasov hybrid      : %7.1f s (%d steps)\n", wV, sV)
	fmt.Printf("  ν-particle baseline: %7.1f s (%d steps)\n", wP, sP)
	fmt.Printf("  NOTE the paper's claim is comparable wall time at far better\n")
	fmt.Printf("  velocity-space fidelity (Figs. 5–6), not raw speed at toy sizes;\n")
	fmt.Printf("  the full-scale TTS advantage comes from the resolution equivalence\n")
	fmt.Printf("  of eq. (9) — see the model table below.\n")
}

func humanBytes(n int64) string {
	switch {
	case n > 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n > 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n > 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
