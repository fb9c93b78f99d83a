package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"vlasov6d"
)

// tiny is a 6³ grid with 6³ velocity cells and 6³ particles.
var tiny = []string{"-ngrid", "6", "-nu", "6", "-npart", "6"}

// summary parses the step and sweep counts out of the run summary.
func summary(t *testing.T, out string) (steps, kicks, drifts int, z float64) {
	t.Helper()
	i := strings.Index(out, "run complete:")
	if i < 0 {
		t.Fatalf("no summary in:\n%s", out)
	}
	if _, err := fmt.Sscanf(out[i:], "run complete: %d steps to z = %f", &steps, &z); err != nil {
		t.Fatalf("summary line: %v in:\n%s", err, out)
	}
	j := strings.Index(out, "work counts")
	if j < 0 {
		t.Fatalf("no work counts in:\n%s", out)
	}
	if _, err := fmt.Sscanf(out[j:], "work counts     : %d kick + %d drift sweeps", &kicks, &drifts); err != nil {
		t.Fatalf("work counts line: %v in:\n%s", err, out)
	}
	return steps, kicks, drifts, z
}

func readSnapshot(t *testing.T, path string) *vlasov6d.Snapshot {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := vlasov6d.ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestRunWritesEveryArtefactAndResumes runs the driver from z = 10 to
// z = 5 with every output switched on, checks what each one wrote, and
// resumes from the checkpoint directory to z = 4.
func TestRunWritesEveryArtefactAndResumes(t *testing.T) {
	dir := t.TempDir()
	ckpts := filepath.Join(dir, "ckpts")
	snap := filepath.Join(dir, "final.v6d")
	pk := filepath.Join(dir, "pk.csv")
	var out bytes.Buffer
	err := run(append(tiny, "-zend", "5", "-checkpoint", ckpts, "-checkpoint-every", "5",
		"-checkpoint-keep", "2", "-snapshot", snap, "-spectrum", pk), &out)
	if err != nil {
		t.Fatal(err)
	}
	steps, kicks, drifts, z := summary(t, out.String())
	if z != 5 {
		t.Errorf("run ended at z = %v, want 5", z)
	}
	// Each step drifts three times and kicks three times; each checkpoint,
	// and the run's end unless a checkpoint just paid it, pays the owed
	// closing kick.
	syncs := steps / 5
	if steps%5 != 0 {
		syncs++
	}
	if want := 3 * (steps + syncs); kicks != want || drifts != 3*steps {
		t.Errorf("%d steps: %d kick, %d drift sweeps; want %d, %d", steps, kicks, drifts, want, 3*steps)
	}
	if !strings.Contains(out.String(), "ν mass") {
		t.Errorf("no ν mass line in:\n%s", out.String())
	}

	files, _ := filepath.Glob(filepath.Join(ckpts, "ckpt_*.v6d"))
	if len(files) != 2 {
		t.Errorf("-checkpoint-keep 2 left %d files: %v", len(files), files)
	}

	s := readSnapshot(t, snap)
	if math.Abs(s.A-1.0/6) > 1e-12 || s.Part.N != 216 || s.Grid == nil || s.NuPart != nil {
		t.Errorf("snapshot: a = %v, %d particles, grid %v, ν particles %v", s.A, s.Part.N, s.Grid != nil, s.NuPart != nil)
	}

	csv, err := os.ReadFile(pk)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if lines[0] != "k_h_Mpc,Pk_Mpc3_h3" || len(lines) < 5 {
		t.Fatalf("spectrum:\n%s", csv)
	}
	for _, l := range lines[1:] {
		k, p, _ := strings.Cut(l, ",")
		kv, err1 := strconv.ParseFloat(k, 64)
		pv, err2 := strconv.ParseFloat(p, 64)
		if err1 != nil || err2 != nil || kv <= 0 || pv <= 0 {
			t.Errorf("spectrum row %q", l)
		}
	}

	out.Reset()
	if err := run(append(tiny, "-zend", "4", "-resume", ckpts), &out); err != nil {
		t.Fatal(err)
	}
	if _, _, _, z := summary(t, out.String()); z != 4 {
		t.Errorf("resumed run ended at z = %v, want 4", z)
	}
}

// TestRunSnapshotsTheParticleBaseline: the ν-particle baseline's final
// snapshot carries its neutrinos, not only the CDM.
func TestRunSnapshotsTheParticleBaseline(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "final.v6d")
	if err := run(append(tiny, "-zend", "8", "-nu-particles", "-snapshot", snap), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	s := readSnapshot(t, snap)
	if s.Part.N != 216 || s.NuPart == nil || s.NuPart.N != 8*216 || s.Grid != nil {
		t.Fatalf("baseline snapshot: %d CDM, ν particles %v, grid %v", s.Part.N, s.NuPart, s.Grid != nil)
	}
}

// TestRunRejectsAnInvalidGrid: a configuration NewSimulation refuses is
// the command's error, not a panic or a silent success.
func TestRunRejectsAnInvalidGrid(t *testing.T) {
	if err := run([]string{"-ngrid", "3"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-ngrid 3 ran")
	}
}
