package main

import (
	"bytes"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// tableRows returns the sweep table's rows, keyed by scheme, as their
// whitespace-separated fields.
func tableRows(out string) map[string][]string {
	rows := map[string][]string{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 7 && (f[6] == "done" || f[6] == "failed" || f[6] == "cancelled") {
			rows[f[0]] = f
		}
	}
	return rows
}

// TestSweepFitsLandauAndResumes runs a two-cell sweep to the default
// target: SL-MPP5 fits the kinetic-theory damping rate to 2 % at 32×64
// while first-order upwind is off by more than 20 %, every job checkpoints
// into its own directory, and the same command run again resumes each job
// from its newest snapshot (too near the target to fit, so "—").
func TestSweepFitsLandauAndResumes(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-res", "32x64", "-schemes", "slmpp5,upwind1", "-resume-dir", dir, "-workers", "2"}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "Landau sweep: 2 jobs (slmpp5,upwind1 × 32x64)") {
		t.Fatalf("header:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "sweep finished in") {
		t.Fatalf("no closing line:\n%s", out.String())
	}
	rows := tableRows(out.String())
	for scheme, want := range map[string]func(float64) bool{
		"slmpp5":  func(e float64) bool { return e < 2 },
		"upwind1": func(e float64) bool { return e > 20 },
	} {
		row, ok := rows[scheme]
		if !ok || row[1] != "32×64" || row[6] != "done" {
			t.Fatalf("%s row %q in:\n%s", scheme, row, out.String())
		}
		errPct, err := strconv.ParseFloat(row[4], 64)
		if err != nil || !want(errPct) {
			t.Errorf("%s: γ error %s %%", scheme, row[4])
		}
		ckpts, _ := filepath.Glob(filepath.Join(dir, scheme+"_32x64", "ckpt_*.v6d"))
		if len(ckpts) == 0 {
			t.Errorf("%s wrote no checkpoint under %s", scheme, dir)
		}
	}

	out.Reset()
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	rows = tableRows(out.String())
	for _, scheme := range []string{"slmpp5", "upwind1"} {
		if row := rows[scheme]; len(row) == 0 || row[2] != "—" || row[6] != "done" {
			t.Errorf("resumed %s row %q in:\n%s", scheme, row, out.String())
		}
	}
}

// TestSweepRejectsBadGrid: a grid the flags cannot describe is an error
// before anything runs.
func TestSweepRejectsBadGrid(t *testing.T) {
	if err := run([]string{"-res", "32by64"}, &bytes.Buffer{}); err == nil {
		t.Fatal("a malformed -res ran")
	}
	if err := run([]string{"-schemes", ","}, &bytes.Buffer{}); err == nil {
		t.Fatal("an empty sweep ran")
	}
}
