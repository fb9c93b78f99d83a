// Command tts reproduces the §7.2 time-to-solution experiment in two parts:
//
//  1. a LIVE laptop-scale end-to-end hybrid run (z=10 → 1/aend − 1, z=0 by
//     default, on a scaled-down grid) timed including snapshot I/O, run
//     twice — once with the Vlasov neutrinos and once with the TianNu-style
//     neutrino particles at 8× the CDM count — so the wall-clock ratio of
//     the two methods is measured for real, and
//  2. the machine-model extrapolation of the H1024/U1024 full-Fugaku runs
//     against the published TianNu 52 h, including the eq. (9) effective-
//     resolution equivalence.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"vlasov6d/internal/cosmo"
	"vlasov6d/internal/hybrid"
	"vlasov6d/internal/machine"
	"vlasov6d/internal/runner"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tts: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the command: it parses args and writes the live comparison (unless
// -model-only) and the model table to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tts", flag.ExitOnError)
	var (
		ngrid = fs.Int("ngrid", 10, "Vlasov spatial cells per side")
		nu    = fs.Int("nu", 8, "velocity cells per side")
		npart = fs.Int("npart", 10, "CDM particles per side")
		aEnd  = fs.Float64("aend", 1.0, "final scale factor")
		seed  = fs.Int64("seed", 1, "IC seed")
		skip  = fs.Bool("model-only", false, "skip the live runs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if !*skip {
		if err := liveComparison(stdout, *ngrid, *nu, *npart, *aEnd, *seed); err != nil {
			return err
		}
	}

	fmt.Fprintln(stdout)
	machine.WriteTTS(stdout)
	return nil
}

// liveComparison evolves the Vlasov hybrid and the ν-particle baseline
// from z = 10 to aEnd, each timed with its final snapshot written to a
// temporary file, and prints one row per method as it finishes.
func liveComparison(stdout io.Writer, ngrid, nu, npart int, aEnd float64, seed int64) error {
	base := hybrid.Config{
		Par:       cosmo.Planck2015(0.4),
		Box:       200,
		NGrid:     ngrid,
		NU:        nu,
		NPartSide: npart,
		PMFactor:  2,
		Seed:      seed,
	}
	runOne := func(label string, cfg hybrid.Config) error {
		t0 := time.Now()
		sim, err := hybrid.New(cfg, 0.0909)
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		if _, err := runner.Run(context.Background(), sim, aEnd, runner.WithMaxSteps(1000000)); err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		// Snapshot I/O, as in the paper's end-to-end accounting.
		tIO := time.Now()
		f, err := os.CreateTemp("", "vlasov6d-snap-*")
		if err != nil {
			return err
		}
		defer os.Remove(f.Name())
		n, err := sim.Checkpoint(f)
		if err := errors.Join(err, f.Close()); err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		fmt.Fprintf(stdout, "  %-19s: %7.1f s (%d steps; %.2f s I/O, %d-byte snapshot)\n",
			label, time.Since(t0).Seconds(), sim.Tim.Steps, time.Since(tIO).Seconds(), n)
		return nil
	}

	fmt.Fprintf(stdout, "LIVE end-to-end comparison (scaled-down, z=10 → z=%.2f):\n", 1/aEnd-1)
	if err := runOne("Vlasov hybrid", base); err != nil {
		return err
	}
	cfgP := base
	cfgP.NuParticles = true
	cfgP.NNuSide = 2 * npart // the paper's 8× neutrino particle count
	if err := runOne("ν-particle baseline", cfgP); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  NOTE the paper's claim is comparable wall time at far better\n")
	fmt.Fprintf(stdout, "  velocity-space fidelity (Figs. 5–6), not raw speed at toy sizes;\n")
	fmt.Fprintf(stdout, "  the full-scale TTS advantage comes from the resolution equivalence\n")
	fmt.Fprintf(stdout, "  of eq. (9) — see the model table below.\n")
	return nil
}
