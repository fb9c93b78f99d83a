package machine

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

func TestTable2Consistency(t *testing.T) {
	if len(Table2) != 18 {
		t.Fatalf("Table 2 has %d runs, want 18", len(Table2))
	}
	for _, r := range Table2 {
		// Process grid must divide the spatial grid.
		for d := 0; d < 3; d++ {
			if r.NxSide%r.Proc[d] != 0 {
				t.Errorf("%s: proc grid %v does not divide Nx %d", r.ID, r.Proc, r.NxSide)
			}
		}
		// Node count × procs/node = process count.
		if r.Nodes*r.ProcsPerNode != r.NProc() {
			t.Errorf("%s: %d nodes × %d ≠ %d procs", r.ID, r.Nodes, r.ProcsPerNode, r.NProc())
		}
		// N_CDM = 9³·N_x except U1024 (paper: H-group particle count).
		if r.ID != "U1024" && r.NCDMSide != 9*r.NxSide {
			t.Errorf("%s: NCDM %d ≠ 9·%d", r.ID, r.NCDMSide, r.NxSide)
		}
	}
	// The headline number: U1024's phase-space grid is 400 trillion.
	u, err := FindRun("U1024")
	if err != nil {
		t.Fatal(err)
	}
	if got := u.PhaseCells(); math.Abs(got-4.0075e14)/4.0075e14 > 0.01 {
		t.Fatalf("U1024 grid count %.4g, want ≈ 4.01e14 (400 trillion)", got)
	}
	// H1024 and U1024 use 147,456 nodes (nearly full Fugaku).
	h, _ := FindRun("H1024")
	if h.Nodes != 147456 || u.Nodes != 147456 {
		t.Fatal("full-system node counts wrong")
	}
}

func TestFindRunAndGroup(t *testing.T) {
	if _, err := FindRun("Z9"); err == nil {
		t.Fatal("unknown run accepted")
	}
	if g := Group("L"); len(g) != 5 {
		t.Fatalf("L group has %d runs, want 5", len(g))
	}
	if w := WeakSequence(); len(w) != 4 || w[0].ID != "S2" || w[3].ID != "H1024" {
		t.Fatalf("weak sequence wrong: %v", w)
	}
}

func TestBreakdownPositive(t *testing.T) {
	for _, r := range Table2 {
		b := Step(r)
		if b.Vlasov <= 0 || b.Tree <= 0 || b.PM <= 0 || b.Total <= 0 {
			t.Fatalf("%s: non-positive breakdown %+v", r.ID, b)
		}
		if b.Total < b.Vlasov || b.Total < b.PM {
			t.Fatalf("%s: total inconsistent", r.ID)
		}
	}
	if _, err := Step(Table2[0]).PartTime("nope"); err == nil {
		t.Fatal("unknown part accepted")
	}
}

func TestVlasovDominates(t *testing.T) {
	// §7.1: the Vlasov part is ≈70% of the step — the model must reproduce
	// that ordering on the weak-scaling chain.
	for _, r := range WeakSequence() {
		b := Step(r)
		fv := (b.Vlasov + b.CommVlasov) / b.Total
		if fv < 0.4 || fv > 0.95 {
			t.Fatalf("%s: Vlasov fraction %v outside plausible range", r.ID, fv)
		}
		if b.Vlasov < b.Tree {
			t.Fatalf("%s: tree part exceeds Vlasov part", r.ID)
		}
	}
}

func TestWeakScalingShape(t *testing.T) {
	effs, err := WeakScaling(WeakSequence())
	if err != nil {
		t.Fatal(err)
	}
	// Vlasov stays excellent out to full system.
	v := effs["vlasov"]
	if v[2] < 0.85 {
		t.Fatalf("Vlasov weak efficiency at H1024 = %v, want > 0.85", v[2])
	}
	// PM degrades monotonically and ends far below the Vlasov part — the
	// 2D-FFT bottleneck of §7.1.
	pm := effs["pm"]
	if !(pm[0] > pm[1] && pm[1] > pm[2]) {
		t.Fatalf("PM weak efficiency not monotonically degrading: %v", pm)
	}
	if pm[2] > 0.5 {
		t.Fatalf("PM weak efficiency at scale %v, want strong degradation (paper: 17%%)", pm[2])
	}
	// Totals stay above 70% (paper: 82.3% at full system).
	if effs["total"][2] < 0.7 {
		t.Fatalf("total weak efficiency %v too low", effs["total"][2])
	}
	if _, err := WeakScaling(Table2[:1]); err == nil {
		t.Fatal("short sequence accepted")
	}
}

func TestStrongScalingShape(t *testing.T) {
	for _, g := range []string{"S", "M", "L", "H"} {
		eff, err := StrongScaling(Group(g))
		if err != nil {
			t.Fatal(err)
		}
		if eff["vlasov"] < 0.8 {
			t.Fatalf("group %s: Vlasov strong efficiency %v < 0.8", g, eff["vlasov"])
		}
		if eff["total"] < 0.6 || eff["total"] > 1.05 {
			t.Fatalf("group %s: total strong efficiency %v implausible", g, eff["total"])
		}
		// PM is always the worst part.
		if eff["pm"] > eff["vlasov"] {
			t.Fatalf("group %s: PM scales better than Vlasov — split model broken", g)
		}
	}
	if _, err := StrongScaling(Table2[:1]); err == nil {
		t.Fatal("short group accepted")
	}
}

func TestScalingAgreesWithPaperWithinBand(t *testing.T) {
	// Shape-level agreement: each modelled Table 3 efficiency within ±20
	// percentage points of the published value (absolute seconds are not
	// comparable; ratios should be).
	effs, err := WeakScaling(WeakSequence())
	if err != nil {
		t.Fatal(err)
	}
	for part, pub := range PaperTable3 {
		for i := 0; i < 3; i++ {
			got := 100 * effs[part][i]
			if math.Abs(got-pub[i]) > 25 {
				t.Errorf("Table3 %s[%d]: model %.1f%%, paper %.1f%%", part, i, got, pub[i])
			}
		}
	}
}

func TestFig7SeriesAndWriters(t *testing.T) {
	rows := Fig7Series()
	if len(rows) != len(Table2) {
		t.Fatalf("Fig7 rows %d", len(rows))
	}
	var sb strings.Builder
	if err := WriteTable3(&sb); err != nil {
		t.Fatal(err)
	}
	if err := WriteTable4(&sb); err != nil {
		t.Fatal(err)
	}
	WriteFig7(&sb)
	WriteTTS(&sb)
	out := sb.String()
	for _, want := range []string{"Table 3", "Table 4", "Fig 7", "H1024", "U1024", "S2–H1024"} {
		if !strings.Contains(out, want) {
			t.Fatalf("writer output missing %q", want)
		}
	}
}

func TestTimeToSolutionOrderOfMagnitude(t *testing.T) {
	// The headline claim: Vlasov TTS beats TianNu by ~an order of
	// magnitude. The model must land within a factor ~3 of the paper's
	// end-to-end hours and preserve H1024 faster than U1024.
	h, _ := FindRun("H1024")
	u, _ := FindRun("U1024")
	rh := TimeToSolution(h)
	ru := TimeToSolution(u)
	if rh.TotalH >= ru.TotalH {
		t.Fatalf("H1024 (%v h) should be faster than U1024 (%v h)", rh.TotalH, ru.TotalH)
	}
	paperH := (PaperTTS["H1024"].ExecSec + PaperTTS["H1024"].IOSec) / 3600
	if rh.TotalH > 3*paperH || rh.TotalH < paperH/3 {
		t.Fatalf("H1024 modelled %v h vs paper %v h: outside 3× band", rh.TotalH, paperH)
	}
	if rh.SpeedupVsTianNu < 5 {
		t.Fatalf("speedup vs TianNu %v, want ≫ 1", rh.SpeedupVsTianNu)
	}
}

func TestEffectiveResolutionEq9(t *testing.T) {
	// Paper: S/N = 100 → ΔL ≈ L/640; S/N = 50 → ΔL ≈ L/1018.
	if side := EquivalentGridSide(13824, 100); math.Abs(side-640)/640 > 0.02 {
		t.Fatalf("S/N=100 equivalent side %v, want ≈ 640", side)
	}
	if side := EquivalentGridSide(13824, 50); math.Abs(side-1018)/1018 > 0.02 {
		t.Fatalf("S/N=50 equivalent side %v, want ≈ 1018", side)
	}
	if dl := 1200 / EquivalentGridSide(13824, 100); math.Abs(dl-1200.0/640) > 0.05 {
		t.Fatalf("ΔL = %v", dl)
	}
}

// TestModelGolden pins the paper artefacts byte for byte: the four writers'
// output, then every Fig. 7 breakdown and time-to-solution at full
// precision, so that a rewrite of the constants or of the model's
// arithmetic cannot move a printed digit or a last bit unnoticed.
func TestModelGolden(t *testing.T) {
	var sb strings.Builder
	if err := WriteTable3(&sb); err != nil {
		t.Fatal(err)
	}
	if err := WriteTable4(&sb); err != nil {
		t.Fatal(err)
	}
	WriteFig7(&sb)
	WriteTTS(&sb)
	for _, row := range Fig7Series() {
		fmt.Fprintf(&sb, "%s %v\n", row.Run.ID, row.B)
	}
	for _, id := range []string{"H1024", "U1024"} {
		r, err := FindRun(id)
		if err != nil {
			t.Fatal(err)
		}
		res := TimeToSolution(r)
		fmt.Fprintf(&sb, "%s %v %v %v %v\n", id, res.ExecSec, res.IOSec, res.TotalH, res.SpeedupVsTianNu)
	}
	want, err := os.ReadFile("testdata/model.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Fatalf("model output differs from testdata/model.golden:\n%s", got)
	}
}
