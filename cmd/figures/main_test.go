package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// after returns the text of out from the first line containing marker.
func after(t *testing.T, out, marker string) string {
	t.Helper()
	i := strings.Index(out, marker)
	if i < 0 {
		t.Fatalf("no %q in:\n%s", marker, out)
	}
	return out[i:]
}

// TestFiguresHoldThePapersClaims renders every figure at 8³ and gates the
// numbers the paper's Fig. 4 and Fig. 6 statements rest on. The bands hold
// the ratios measured at 8³ for seeds 20211114 and 1–7 with margin:
//
//	CDM / ν(0.4 eV) rms contrast   15.1–16.3
//	ν(0.4 eV) / ν(0.2 eV)          3.01–3.15
//	density noise ratio            12.6–16.5×
//	dispersion noise ratio         67–91×
//
// The velocity (|⟨u⟩|) noise ratio is not gated: it read 1.0–1.5× over
// the same seeds, too thin a margin to tell a regression from a seed.
func TestFiguresHoldThePapersClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("four hybrid runs, ≈ 5 s")
	}
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-ngrid", "8", "-nu", "8", "-npart", "8", "-out", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, name := range []string{
		"fig4_cdm.pgm", "fig4_nu_0.4eV.pgm", "fig4_nu_0.2eV.pgm",
		"fig5_vlasov_fuxuy.pgm", "fig5_particles.csv",
		"fig6_density_vlasov.pgm", "fig6_density_nbody.pgm",
		"fig6_velocity_vlasov.pgm", "fig6_velocity_nbody.pgm",
		"fig6_dispersion_vlasov.pgm", "fig6_dispersion_nbody.pgm",
		"fig8_cdm_full.pgm", "fig8_nu_full.pgm", "fig8_cdm_zoom.pgm", "fig8_nu_zoom.pgm",
	} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Error(err)
			continue
		}
		head := "P2\n"
		if strings.HasSuffix(name, ".csv") {
			head = "ux_km_s,uy_km_s\n"
		}
		if !bytes.HasPrefix(b, []byte(head)) || len(b) <= len(head) {
			t.Errorf("%s: %d bytes, want a %q header and data", name, len(b), head)
		}
	}

	var cdmNu, nu42 float64
	if _, err := fmt.Sscanf(after(t, out, "contrast ratios"), "contrast ratios            : CDM/ν(0.4 eV) %f, ν(0.4 eV)/ν(0.2 eV) %f", &cdmNu, &nu42); err != nil {
		t.Fatalf("contrast ratios: %v", err)
	}
	if cdmNu < 12 || cdmNu > 20 {
		t.Errorf("CDM / ν(0.4 eV) rms contrast %.2f, want 12–20: ν must be much smoother than CDM", cdmNu)
	}
	if nu42 < 2.5 || nu42 > 3.7 {
		t.Errorf("ν(0.4 eV) / ν(0.2 eV) rms contrast %.2f, want 2.5–3.7: heavier neutrinos cluster more", nu42)
	}
	for _, g := range []struct {
		field  string
		lo, hi float64
	}{{"density", 10, 21}, {"dispersion", 50, 120}} {
		var v, p, ratio float64
		if _, err := fmt.Sscanf(after(t, out, "  "+g.field+" "), "%s Vlasov %f  N-body %f  (noise ratio %f×)", new(string), &v, &p, &ratio); err != nil {
			t.Fatalf("%s row: %v", g.field, err)
		}
		if ratio < g.lo || ratio > g.hi {
			t.Errorf("%s noise ratio %.1f×, want %g–%g×: the ν particles' shot noise against the smooth Vlasov field", g.field, ratio, g.lo, g.hi)
		}
	}
	after(t, out, "Fig 5 summary: cell")
	after(t, out, "Fig 8 summary: 400 h⁻¹Mpc box at z=3.00")
}
