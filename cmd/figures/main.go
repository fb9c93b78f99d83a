// Command figures regenerates the data behind the paper's science figures
// at laptop scale:
//
//	-fig4  projected density maps: CDM, ν(0.4 eV), ν(0.2 eV)
//	-fig5  the local velocity distribution: smooth Vlasov f(ux,uy) versus
//	       the sparse neutrino-particle sampling of the same cell
//	-fig6  ν density / velocity / dispersion maps, Vlasov vs N-body, with
//	       the shot-noise comparison numbers
//	-fig8  nested-zoom density maps from the largest feasible local run
//
// Outputs are 8-bit PGM images plus CSV series under -out (default
// ./figures_out), and a textual summary of the quantitative checks.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"

	"vlasov6d/internal/analysis"
	"vlasov6d/internal/cosmo"
	"vlasov6d/internal/hybrid"
	"vlasov6d/internal/runner"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the command: it parses args, evolves the runs the requested
// figures need (each once), writes their files under -out and the
// summaries to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ExitOnError)
	var (
		outDir = fs.String("out", "figures_out", "output directory")
		fig4   = fs.Bool("fig4", false, "generate Fig. 4 data")
		fig5   = fs.Bool("fig5", false, "generate Fig. 5 data")
		fig6   = fs.Bool("fig6", false, "generate Fig. 6 data")
		fig8   = fs.Bool("fig8", false, "generate Fig. 8 data")
		ngrid  = fs.Int("ngrid", 12, "Vlasov spatial cells per side")
		nu     = fs.Int("nu", 10, "velocity cells per side")
		npart  = fs.Int("npart", 12, "CDM particles per side")
		aEnd   = fs.Float64("aend", 0.25, "final scale factor (z=3)")
		seed   = fs.Int64("seed", 20211114, "IC random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*fig4 || *fig5 || *fig6 || *fig8) {
		*fig4, *fig5, *fig6, *fig8 = true, true, true, true
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	base := hybrid.Config{
		Par:       cosmo.Planck2015(0.4),
		Box:       200,
		NGrid:     *ngrid,
		NU:        *nu,
		NPartSide: *npart,
		PMFactor:  2,
		Seed:      *seed,
	}
	// Fig. 4's 0.4 eV run is Figs. 5 and 6's Vlasov run: one evolution.
	var simV, sim2, simP *hybrid.Simulation
	var err error
	if *fig4 || *fig5 || *fig6 {
		if simV, err = evolve(base, *aEnd, "Mν=0.4eV Vlasov"); err != nil {
			return err
		}
	}
	// The maps of Figs. 4 and 6: z-projections of 3D fields.
	n3 := [3]int{*ngrid, *ngrid, *ngrid}
	type pgm struct {
		name  string
		field []float64
		n     [3]int
		log   bool
	}
	var maps []pgm
	var dens4 [][]float64 // CDM, ν(0.4 eV), ν(0.2 eV) densities
	if *fig4 {
		cfg2 := base
		cfg2.Par = cosmo.Planck2015(0.2)
		if sim2, err = evolve(cfg2, *aEnd, "Mν=0.2eV Vlasov"); err != nil {
			return err
		}
		cdm, err := cdmDensity(simV)
		if err != nil {
			return err
		}
		dens4 = [][]float64{cdm, simV.Grid.ComputeMoments().Density, sim2.Grid.ComputeMoments().Density}
		maps = append(maps, pgm{"fig4_cdm.pgm", cdm, simV.PM.N, true},
			pgm{"fig4_nu_0.4eV.pgm", dens4[1], n3, true},
			pgm{"fig4_nu_0.2eV.pgm", dens4[2], n3, true})
	}
	var moms6 []fig6Field
	if *fig5 || *fig6 {
		cfgP := base
		cfgP.NuParticles, cfgP.NNuSide = true, 2*base.NPartSide
		if simP, err = evolve(cfgP, *aEnd, "ν-particle baseline"); err != nil {
			return err
		}
	}
	if *fig6 {
		if moms6, err = fig6Fields(simV, simP); err != nil {
			return err
		}
		for _, f := range moms6 {
			maps = append(maps, pgm{"fig6_" + f.name + "_vlasov.pgm", f.vlasov, n3, f.name == "density"},
				pgm{"fig6_" + f.name + "_nbody.pgm", f.nbody, n3, f.name == "density"})
		}
	}
	for _, m := range maps {
		proj, w, h, err := analysis.Project(m.field, m.n, 2)
		if err != nil {
			return err
		}
		if err := writePGM(*outDir, m.name, proj, w, h, m.log); err != nil {
			return err
		}
	}
	c, noise := summarize(dens4, moms6)
	if *fig4 {
		fmt.Fprintf(stdout, "\nFig 4 summary (z=%.2f):\n", 1 / *aEnd - 1)
		fmt.Fprintf(stdout, "  CDM rms contrast           : %.3f (clustered, wide log range)\n", c[0])
		fmt.Fprintf(stdout, "  ν rms contrast (Mν=0.4 eV) : %.4f\n", c[1])
		fmt.Fprintf(stdout, "  ν rms contrast (Mν=0.2 eV) : %.4f\n", c[2])
		fmt.Fprintf(stdout, "  contrast ratios            : CDM/ν(0.4 eV) %.2f, ν(0.4 eV)/ν(0.2 eV) %.2f\n", c[0]/c[1], c[1]/c[2])
		fmt.Fprintf(stdout, "  paper expectation: ν maps much smoother than CDM; the heavier\n")
		fmt.Fprintf(stdout, "  (slower) 0.4 eV neutrinos cluster MORE than 0.2 eV: %.4f > %.4f = %v\n",
			c[1], c[2], c[1] > c[2])
	}
	if *fig5 {
		if err := runFig5(stdout, *outDir, simV, simP); err != nil {
			return err
		}
	}
	if *fig6 {
		fmt.Fprintf(stdout, "\nFig 6 summary (cell-to-cell RMS fluctuation, Vlasov vs N-body):\n")
		for i, f := range moms6 {
			nc := noise[i]
			fmt.Fprintf(stdout, "  %-11s Vlasov %.4f  N-body %.4f  (noise ratio %.1f×)\n",
				f.name, nc.VlasovRMS, nc.ParticleRMS, nc.ParticleRMS/math.Max(nc.VlasovRMS, 1e-12))
		}
	}
	if *fig8 {
		cfg8 := base
		cfg8.Box = 400 // the paper's U1024 covers 1200 h⁻¹Mpc; scale accordingly
		sim8, err := evolve(cfg8, *aEnd, "fig8")
		if err != nil {
			return err
		}
		return runFig8(stdout, *outDir, sim8, *aEnd)
	}
	return nil
}

// evolve runs a simulation from z=10 to aEnd under the unified runner.
func evolve(cfg hybrid.Config, aEnd float64, label string) (*hybrid.Simulation, error) {
	sim, err := hybrid.New(cfg, 0.0909)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	log.Printf("%s: evolving z=10 → z=%.2f ...", label, 1/aEnd-1)
	rep, err := runner.Run(context.Background(), sim, aEnd, runner.WithMaxSteps(100000))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	log.Printf("%s: done in %d steps (%.1fs wall)", label, rep.Steps, rep.Wall.Seconds())
	return sim, nil
}

// writePGM writes an image to dir/name.
func writePGM(dir, name string, m []float64, w, h int, logScale bool) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := errors.Join(analysis.WritePGM(f, m, w, h, logScale), f.Close()); err != nil {
		return err
	}
	log.Printf("wrote %s", f.Name())
	return nil
}

// cdmDensity deposits a run's CDM particles on its PM mesh.
func cdmDensity(sim *hybrid.Simulation) ([]float64, error) {
	mesh := make([]float64, sim.PM.Size())
	return mesh, sim.Part.CICDeposit(mesh, sim.PM.N)
}

// summarize computes the numbers the paper's Fig. 4 and Fig. 6 statements
// rest on: the rms density contrast of Fig. 4's CDM, ν(0.4 eV) and
// ν(0.2 eV) densities, and the cell-to-cell RMS of each Fig. 6 field on the
// Vlasov grid and from the ν particles. A figure not asked for leaves its
// numbers zero.
func summarize(dens4 [][]float64, moms6 []fig6Field) (contrast [3]float64, noise [3]analysis.NoiseComparison) {
	for i, f := range dens4 {
		contrast[i] = analysis.Stats(f).RMSContrast
	}
	for i, f := range moms6 {
		noise[i] = analysis.CompareNoise(f.vlasov, f.nbody)
	}
	return contrast, noise
}

// fig6Field is one ν moment as the Vlasov run and the particle run see it.
type fig6Field struct {
	name          string
	vlasov, nbody []float64
}

// fig6Fields are the density, |⟨u⟩| and dispersion fields of Fig. 6.
func fig6Fields(simV, simP *hybrid.Simulation) ([]fig6Field, error) {
	momV := simV.Grid.ComputeMoments()
	momP, err := analysis.MomentsFromParticles(simP.NuPart, [3]int{simV.Grid.NX, simV.Grid.NY, simV.Grid.NZ})
	if err != nil {
		return nil, err
	}
	meanV := make([]float64, len(momV.Density))
	for c := range meanV {
		var m2 float64
		for d := 0; d < 3; d++ {
			m2 += momV.MeanU[d][c] * momV.MeanU[d][c]
		}
		meanV[c] = math.Sqrt(m2)
	}
	return []fig6Field{
		{"density", momV.Density, momP.Density},
		{"velocity", meanV, momP.MeanV},
		{"dispersion", momV.Sigma, momP.Sigma},
	}, nil
}

// runFig5 writes Fig. 5: the velocity distribution at the densest cell,
// on the Vlasov grid and as the ν particles sample it.
func runFig5(stdout io.Writer, outDir string, simV, simP *hybrid.Simulation) error {
	mom := simV.Grid.ComputeMoments()
	best, bv := 0, 0.0
	for c, v := range mom.Density {
		if v > bv {
			best, bv = c, v
		}
	}
	ny, nz := simV.Grid.NY, simV.Grid.NZ
	ix, iy, iz := best/(ny*nz), (best/nz)%ny, best%nz
	plane, ux, uy, err := analysis.VelocityPlane(simV.Grid, ix, iy, iz)
	if err != nil {
		return err
	}
	if err := writePGM(outDir, "fig5_vlasov_fuxuy.pgm", plane, len(uy), len(ux), true); err != nil {
		return err
	}
	// The N-body samples in the same cell.
	pux, puy := analysis.ParticlesInCell(simP.NuPart, [3]int{simV.Grid.NX, ny, nz}, ix, iy, iz)
	f, err := os.Create(filepath.Join(outDir, "fig5_particles.csv"))
	if err != nil {
		return err
	}
	if err := errors.Join(analysis.WriteCSV(f, []string{"ux_km_s", "uy_km_s"}, pux, puy), f.Close()); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nFig 5 summary: cell (%d,%d,%d)\n", ix, iy, iz)
	fmt.Fprintf(stdout, "  Vlasov grid resolves f on %d×%d velocity points\n", len(ux), len(uy))
	fmt.Fprintf(stdout, "  the N-body run has only %d ν particles in the same cell —\n", len(pux))
	fmt.Fprintf(stdout, "  the paper's Fig. 5: the smooth long-tailed distribution vs sparse circles\n")
	return nil
}

// runFig8 writes nested-zoom projections from the largest feasible run.
func runFig8(stdout io.Writer, outDir string, sim *hybrid.Simulation, aEnd float64) error {
	mesh, err := cdmDensity(sim)
	if err != nil {
		return err
	}
	// Full box and a 2× zoom of the central region, CDM and ν.
	full, w, h, err := analysis.Project(mesh, sim.PM.N, 2)
	if err != nil {
		return err
	}
	nuMap, wn, hn, err := analysis.Project(sim.Grid.ComputeMoments().Density, [3]int{sim.Grid.NX, sim.Grid.NY, sim.Grid.NZ}, 2)
	if err != nil {
		return err
	}
	err = errors.Join(writePGM(outDir, "fig8_cdm_full.pgm", full, w, h, true),
		writePGM(outDir, "fig8_nu_full.pgm", nuMap, wn, hn, true),
		writePGM(outDir, "fig8_cdm_zoom.pgm", centreCrop(full, w, h, 2), w/2, h/2, true),
		writePGM(outDir, "fig8_nu_zoom.pgm", centreCrop(nuMap, wn, hn, 2), wn/2, hn/2, true))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nFig 8 summary: %.0f h⁻¹Mpc box at z=%.2f, full + 2× zoom maps written\n",
		sim.PM.Box[0], 1/aEnd-1)
	return nil
}

func centreCrop(m []float64, w, h, factor int) []float64 {
	cw, ch := w/factor, h/factor
	x0, y0 := (w-cw)/2, (h-ch)/2
	out := make([]float64, cw*ch)
	for y := 0; y < ch; y++ {
		for x := 0; x < cw; x++ {
			out[y*cw+x] = m[(y0+y)*w+x0+x]
		}
	}
	return out
}
