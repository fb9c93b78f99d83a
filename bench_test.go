// The benchmarks nothing else measures: the §5.2 scheme-cost ablations, the
// figure-analysis workloads and the scheduler's core budget. The §5.1.2
// tree-kernel ablation is internal/tree's BenchmarkPhantomGRAPE. Step,
// sweep, moment, FFT and PM timings are per-layer metrics of benchmark/
// (BENCHMARK.json); the paper's tables come from cmd/scaling.
//
//	go test -run '^$' -bench . -benchmem .
package vlasov6d

import (
	"context"
	"fmt"
	"math"
	"testing"

	"vlasov6d/internal/advect"
	"vlasov6d/internal/analysis"
	"vlasov6d/internal/cosmo"
	"vlasov6d/internal/hybrid"
	"vlasov6d/internal/phase"
	"vlasov6d/internal/vlasov"
)

// --------------------------------------------------------- Figs 5, 6, 8

// fig4Sim builds the small hybrid run used by the figure benches.
func fig4Sim(b *testing.B, mnu float64, nuParticles bool) *hybrid.Simulation {
	b.Helper()
	cfg := hybrid.Config{
		Par:         cosmo.Planck2015(mnu),
		Box:         200,
		NGrid:       8,
		NU:          8,
		NPartSide:   8,
		PMFactor:    2,
		Seed:        3,
		NuParticles: nuParticles,
	}
	sim, err := hybrid.New(cfg, 1.0/11)
	if err != nil {
		b.Fatal(err)
	}
	return sim
}

// BenchmarkFig5Workload times the velocity-plane extraction (Fig. 5) from a
// live grid.
func BenchmarkFig5Workload(b *testing.B) {
	sim := fig4Sim(b, 0.4, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := analysis.VelocityPlane(sim.Grid, 4, 4, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Moments times the moment maps on both sides of the Fig. 6
// comparison: Vlasov moments and particle moments.
func BenchmarkFig6Moments(b *testing.B) {
	simV := fig4Sim(b, 0.4, false)
	simP := fig4Sim(b, 0.4, true)
	n3 := [3]int{simV.Grid.NX, simV.Grid.NY, simV.Grid.NZ}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = simV.Grid.ComputeMoments()
		if _, err := analysis.MomentsFromParticles(simP.NuPart, n3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8Projection times the multi-scale projection of Fig. 8.
func BenchmarkFig8Projection(b *testing.B) {
	sim := fig4Sim(b, 0.4, false)
	m := sim.Grid.ComputeMoments()
	n3 := [3]int{sim.Grid.NX, sim.Grid.NY, sim.Grid.NZ}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := analysis.Project(m.Density, n3, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// --------------------------------------------- scheme ablations (§5.2 claim)

// benchScheme1D times one advection step per scheme on a fixed line — the
// single-stage vs three-stage cost argument of §5.2.
func benchScheme1D(b *testing.B, name string, cflMax float64) {
	s, err := advect.New(name)
	if err != nil {
		b.Fatal(err)
	}
	line := make([]float64, 512)
	for i := range line {
		line[i] = 2 + math.Sin(2*math.Pi*float64(i)/512)
	}
	b.SetBytes(int64(8 * len(line)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(line, cflMax); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchemeSLMPP5(b *testing.B)  { benchScheme1D(b, "slmpp5", 0.9) }
func BenchmarkSchemeMP5RK3(b *testing.B)  { benchScheme1D(b, "mp5", 0.9) }
func BenchmarkSchemeUpwind1(b *testing.B) { benchScheme1D(b, "upwind1", 0.9) }

// BenchmarkSchemeSLMPP5LargeCFL demonstrates the unique SL capability: a
// CFL-3 step in one stage (the three-stage comparator simply cannot).
func BenchmarkSchemeSLMPP5LargeCFL(b *testing.B) { benchScheme1D(b, "slmpp5", 3.2) }

// BenchmarkBudgetedSweep runs the same multi-job Landau grid two ways —
// oversubscribed (every job defaults to GOMAXPROCS intra-step workers, so
// N concurrent jobs spawn N×GOMAXPROCS goroutines per sweep) and budgeted
// (the scheduler's CoreBudget divides the machine among the live jobs, so
// job-level × cell-level parallelism composes to GOMAXPROCS). Work is
// identical in both modes; the delta is pure scheduling overhead, and the
// budgeted mode must be no slower than the baseline it replaces.
func BenchmarkBudgetedSweep(b *testing.B) {
	const njobs = 4
	newJobs := func() []BatchJob {
		jobs := make([]BatchJob, njobs)
		for i := range jobs {
			jobs[i] = BatchJob{
				Name:  fmt.Sprintf("landau-%d", i),
				Until: 5,
				New: func() (Solver, error) {
					s, err := NewPlasmaSolverWithScheme(64, 128, 4*math.Pi, 8, "slmpp5")
					if err != nil {
						return nil, err
					}
					s.LandauInit(0.01, 0.5, 1)
					return s, nil
				},
			}
		}
		return jobs
	}
	for _, mode := range []struct {
		name string
		opts []BatchOption
	}{
		{"oversubscribed", nil},
		{"budgeted", []BatchOption{WithBatchCoreBudget(0)}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			ctx := context.Background()
			opts := append([]BatchOption{WithBatchWorkers(njobs)}, mode.opts...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, err := RunBatch(ctx, newJobs(), opts...)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					if r.Status != JobDone {
						b.Fatalf("job %s: %v (%v)", r.Name, r.Status, r.Err)
					}
				}
			}
		})
	}
}

// ---------------------------------------------------------------- ablations

// BenchmarkAblationPMOnly times the hybrid step with the tree disabled —
// the control for the TreePM force-split design choice.
func BenchmarkAblationPMOnly(b *testing.B) {
	cfg := hybrid.Config{
		Par: cosmo.Planck2015(0.4), Box: 200,
		NGrid: 8, NU: 8, NPartSide: 8, PMFactor: 2, Seed: 3,
		NoTree: true,
	}
	sim, err := hybrid.New(cfg, 1.0/11)
	if err != nil {
		b.Fatal(err)
	}
	const dlna = 2e-4 // a stays below 1 for 10⁴ steps
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.Step(dlna); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSchemes compares the full 6D step cost across advection
// schemes (the §5.2 single-stage argument at system level). SL-MPP5's
// single flux stage vs MP5's three shows up directly in the step time.
func BenchmarkAblationSchemes(b *testing.B) {
	for _, scheme := range []string{"slmpp5", "mp5"} {
		b.Run(scheme, func(b *testing.B) {
			g, err := phase.New(6, 6, 6, [3]int{8, 8, 8}, [3]float64{100, 100, 100}, 3000)
			if err != nil {
				b.Fatal(err)
			}
			// The same Maxwellian in every spatial cell.
			maxwell := g.CubeAt(0)
			for j := range maxwell {
				ux, uy, uz := g.U(0, j/64), g.U(1, j/8%8), g.U(2, j%8)
				maxwell[j] = float32(math.Exp(-(ux*ux + uy*uy + uz*uz) / (2 * 800 * 800)))
			}
			for cell := 1; cell < g.NCells(); cell++ {
				copy(g.CubeAt(cell), maxwell)
			}
			s, err := vlasov.New(g, scheme)
			if err != nil {
				b.Fatal(err)
			}
			var acc [3][]float64
			for d := 0; d < 3; d++ {
				acc[d] = make([]float64, g.NCells())
				for c := range acc[d] {
					acc[d][c] = 20
				}
			}
			// Keep CFL < 1 so MP5 is admissible.
			dt := 0.4 * g.DX(0) / g.UMax
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Step(dt, 1.0, acc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
