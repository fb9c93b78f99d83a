package vlasov6d

import (
	"bytes"
	"context"
	"math"
	"os/exec"
	"strings"
	"testing"

	"vlasov6d/internal/analysis"
)

// TestInternalPackagesHaveProductionImporters holds the repository to its
// own rule: an internal package reachable only from tests or benchmarks has
// to earn a production caller (the facade or a command) or go.
func TestInternalPackagesHaveProductionImporters(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	list := func(args ...string) []string {
		out, err := exec.Command(goTool, append([]string{"list"}, args...)...).Output()
		if err != nil {
			t.Fatalf("go list %v: %v", args, err)
		}
		return strings.Fields(string(out))
	}
	reachable := map[string]bool{}
	for _, pkg := range list("-deps", ".", "./cmd/...") {
		reachable[pkg] = true
	}
	for _, pkg := range list("./internal/...") {
		if !reachable[pkg] {
			t.Errorf("%s is imported by neither the facade nor any command", pkg)
		}
	}
}

// TestPublicAPIQuickstart exercises the documented quick-start path end to
// end through the facade.
func TestPublicAPIQuickstart(t *testing.T) {
	cfg := Config{
		Par:       Planck2015(0.4),
		Box:       200,
		NGrid:     6,
		NU:        6,
		NPartSide: 6,
		PMFactor:  2,
		Seed:      1,
	}
	sim, err := NewSimulation(cfg, 1.0/11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), sim, 0.095, WithMaxSteps(10)); err != nil {
		t.Fatal(err)
	}
	if sim.A <= 1.0/11 {
		t.Fatal("no progress")
	}
	m := sim.Grid.ComputeMoments()
	if len(m.Density) != 216 {
		t.Fatalf("moments size %d", len(m.Density))
	}
}

func TestPublicAPICosmology(t *testing.T) {
	p := Planck2015(0.4)
	if p.FNu() <= 0 {
		t.Fatal("fν must be positive with massive neutrinos")
	}
}

// TestPublicAPISchemes: every drift scheme name the facade documents
// builds a plasma solver that steps.
func TestPublicAPISchemes(t *testing.T) {
	for _, n := range []string{"slmpp5", "mp5", "upwind1", "laxwendroff2"} {
		s, err := NewPlasmaSolverWithScheme(16, 32, 4*math.Pi, 6, n)
		if err != nil {
			t.Fatal(err)
		}
		s.LandauInit(0.01, 0.5, 1)
		if err := s.Step(0.1); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
	}
}

func TestPublicAPIPlasma(t *testing.T) {
	s, err := NewPlasmaSolverWithScheme(32, 64, 4*math.Pi, 6, "slmpp5")
	if err != nil {
		t.Fatal(err)
	}
	s.LandauInit(0.01, 0.5, 1)
	if err := s.Step(0.1); err != nil {
		t.Fatal(err)
	}
	if g := LandauDampingRate(0.5, 1); g >= 0 {
		t.Fatalf("Landau rate %v should be negative", g)
	}
}

func TestPublicAPISnapshotRoundTrip(t *testing.T) {
	cfg := Config{
		Par:       Planck2015(0.2),
		Box:       100,
		NGrid:     6,
		NU:        6,
		NPartSide: 6,
		Seed:      9,
	}
	sim, err := NewSimulation(cfg, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := WriteSnapshot(&buf, &Snapshot{A: sim.A, Time: sim.Time, Part: sim.Part, Grid: sim.Grid})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("empty snapshot")
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.A != sim.A || got.Part.N != sim.Part.N || got.Grid == nil {
		t.Fatal("snapshot mismatch")
	}
}

func TestPublicAPIPowerSpectrum(t *testing.T) {
	n := 16
	rho := make([]float64, n*n*n)
	for i := range rho {
		rho[i] = 1 + 0.1*math.Sin(float64(i%n))
	}
	ks, pk, counts, err := analysis.PowerSpectrum(rho, n, 100, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) == 0 || len(ks) != len(pk) || len(pk) != len(counts) {
		t.Fatal("bad spectrum shape")
	}
}
