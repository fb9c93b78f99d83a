package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// snapshotBytes returns the snapshot size the live table reports for label.
func snapshotBytes(t *testing.T, out, label string) int {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), label) {
			_, rest, ok := strings.Cut(line, "I/O, ")
			var n int
			if _, err := fmt.Sscanf(rest, "%d-byte snapshot", &n); !ok || err != nil {
				t.Fatalf("%s row %q", label, line)
			}
			return n
		}
	}
	t.Fatalf("no %s row in:\n%s", label, out)
	return 0
}

// TestLiveComparisonSnapshotsEveryParticle runs both halves at 6³ to
// a = 0.2: the live rows, then the model table. The ν-particle baseline's
// snapshot holds its 6³ CDM and 12³ ν particles, so it is larger than three
// float32 coordinates for each of them (the CDM alone wrote 10.3 KiB).
func TestLiveComparisonSnapshotsEveryParticle(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-ngrid", "6", "-nu", "6", "-npart", "6", "-aend", "0.2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "LIVE end-to-end comparison (scaled-down, z=10 → z=4.00):") {
		t.Errorf("header:\n%s", out.String())
	}
	if n := snapshotBytes(t, out.String(), "Vlasov hybrid"); n < 6*6*6*6*6*6*4 {
		t.Errorf("Vlasov snapshot %d bytes is smaller than its 6⁶ float32 cells", n)
	}
	if n, min := snapshotBytes(t, out.String(), "ν-particle baseline"), (216+1728)*3*4; n < min {
		t.Errorf("baseline snapshot %d bytes, want ≥ %d for CDM + ν particles", n, min)
	}
	if !strings.Contains(out.String(), "§7.2 time-to-solution (model vs paper)") {
		t.Errorf("no model table in:\n%s", out.String())
	}
}

// TestModelOnlySkipsTheLiveRuns: -model-only prints the model table alone.
func TestModelOnlySkipsTheLiveRuns(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-model-only"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "LIVE") || !strings.Contains(out.String(), "H1024") {
		t.Fatalf("-model-only printed:\n%s", out.String())
	}
}
