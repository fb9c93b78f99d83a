package plasma

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// overClaimingHeader is a 78-byte checkpoint (header and CRC, no F) whose
// header claims 2¹⁴ × 2¹⁴ cells: 2 GiB for a reader that allocates the grid
// before it reads the payload.
func overClaimingHeader(tb testing.TB) []byte {
	var buf bytes.Buffer
	if _, err := writeState(&buf, snapState{nx: 1 << 14, nv: 1 << 14, l: 4 * math.Pi, vmax: 6, scheme: "slmpp5"}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// checkpointBytes is a valid checkpoint of a small Landau state.
func checkpointBytes(tb testing.TB, nx, nv int, scheme string) []byte {
	s, err := NewWithScheme(nx, nv, 4*math.Pi, 6, scheme)
	if err != nil {
		tb.Fatal(err)
	}
	s.LandauInit(0.01, 0.5, 1)
	var buf bytes.Buffer
	if _, err := s.Checkpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestoreAllocatesWithinTheFileSize feeds Restore the over-claiming
// header, a truncated file and valid ones, from memory and from disk: the
// bad ones fail, the valid ones restore, and no restore allocates more than
// 4× its input plus 256 KiB.
func TestRestoreAllocatesWithinTheFileSize(t *testing.T) {
	valid := checkpointBytes(t, 64, 256, "slmpp5")
	for _, tc := range []struct {
		name string
		data []byte
		ok   bool
	}{
		{"78-byte header claiming 2^14 x 2^14 cells", overClaimingHeader(t), false},
		{"truncated", valid[:len(valid)/2], false},
		{"valid 64x256", valid, true},
		{"valid 32x64 mp5", checkpointBytes(t, 32, 64, "mp5"), true},
	} {
		path := filepath.Join(t.TempDir(), "ckpt.v6d")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, src := range []string{"memory", "file"} {
			var r io.Reader = bytes.NewReader(tc.data)
			if src == "file" {
				f, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				r = f
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Restore(r)
			runtime.ReadMemStats(&after)
			if (err == nil) != tc.ok {
				t.Errorf("%s from %s: err = %v", tc.name, src, err)
			}
			if got, limit := after.TotalAlloc-before.TotalAlloc, 4*uint64(len(tc.data))+256<<10; got > limit {
				t.Errorf("%s from %s: allocated %d bytes for a %d-byte input (limit %d)", tc.name, src, got, len(tc.data), limit)
			}
		}
	}
}

// FuzzPlasmaRestore: arbitrary bytes either fail to restore or restore into
// a solver whose checkpoint is a prefix of them, and nothing panics.
func FuzzPlasmaRestore(f *testing.F) {
	valid := checkpointBytes(f, 8, 6, "slmpp5")
	for _, seed := range [][]byte{
		valid,
		checkpointBytes(f, 16, 8, "upwind1"),
		overClaimingHeader(f),
		valid[:len(valid)/2],
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Restore(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := s.Checkpoint(&buf); err != nil {
			t.Fatalf("restored solver does not checkpoint: %v", err)
		}
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatalf("re-encoding (%d bytes) is not a prefix of the %d-byte input", buf.Len(), len(data))
		}
	})
}
