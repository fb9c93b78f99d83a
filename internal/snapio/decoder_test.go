package snapio

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"vlasov6d/internal/nbody"
	"vlasov6d/internal/phase"
)

// overClaimingHeader is a 168-byte v2 header with a valid CRC that claims
// 2³³ CDM particles and carries no payload: a reader that allocates what a
// header claims asks for 384 GiB before it reads a byte past it.
func overClaimingHeader() []byte {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.U64(MagicV2)
	e.F64s([]float64{0.5, 0.01}) // a, time
	e.U64(1 << 33)
	e.F64s([]float64{1, 50, 50, 50}) // mass, box
	for i := 0; i < 10; i++ {
		e.U64(0) // no grid
	}
	e.U64(8)
	e.F64(0.1)
	e.EndSection()
	return buf.Bytes()
}

// tinySnapshot is a valid snapshot small enough to seed a fuzz corpus.
func tinySnapshot(tb testing.TB, grid, nu bool) *Snapshot {
	tb.Helper()
	fill := func(n int, mass float64) *nbody.Particles {
		p, err := nbody.NewParticles(n, mass, [3]float64{50, 50, 50})
		if err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for d := 0; d < 3; d++ {
				p.Pos[d][i], p.Vel[d][i] = float64(i+d), float64(i-d)
			}
		}
		return p
	}
	s := &Snapshot{A: 0.5, Time: 0.0042, Part: fill(3, 2.5)}
	if grid {
		g, err := phase.New(1, 1, 2, [3]int{6, 6, 6}, [3]float64{50, 50, 50}, 1000)
		if err != nil {
			tb.Fatal(err)
		}
		for i := range g.Data {
			g.Data[i] = float32(i) / 8
		}
		s.Grid = g
	}
	if nu {
		s.NuPart = fill(2, 0.125)
	}
	return s
}

func encode(tb testing.TB, s *Snapshot) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := Write(&buf, s); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// wrappedGridFile is a v2 file with valid CRCs whose grid extents,
// 2²¹·2²¹·2²¹·(2²¹·8·8) = 2⁹⁰ cells, wrap an int to 0: its grid section is
// empty, so only an overflow-checked product tells it from a real grid.
func wrappedGridFile(tb testing.TB) []byte {
	s := tinySnapshot(tb, false, true)
	s.Grid = &phase.Grid{NX: 1 << 21, NY: 1 << 21, NZ: 1 << 21, NU: [3]int{1 << 21, 8, 8},
		Box: [3]float64{50, 50, 50}, UMax: 1000}
	return encode(tb, s)
}

// TestReadAllocatesWithinTheFileSize feeds Read hostile headers and valid
// files, from memory and from disk: each hostile one fails, each valid one
// reads, and no decode allocates more than 4× its input plus 256 KiB.
func TestReadAllocatesWithinTheFileSize(t *testing.T) {
	valid := func(grid, nu bool) []byte { return encode(t, goldenSnapshot(t, grid, nu)) }
	v2 := valid(true, true)
	for _, tc := range []struct {
		name string
		data []byte
		ok   bool
	}{
		{"168-byte header claiming 2^33 particles", overClaimingHeader(), false},
		{"wrapped grid extents", wrappedGridFile(t), false},
		{"truncated v2", v2[:len(v2)/2], false},
		{"v1 particles", valid(false, false), true},
		{"v1 particles+grid", valid(true, false), true},
		{"v2 particles+nu+grid", v2, true},
	} {
		path := filepath.Join(t.TempDir(), "snap.v6d")
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
			_, err := Read(r)
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

func TestNewDecoderRefusesAnUnsizedReader(t *testing.T) {
	data := encode(t, tinySnapshot(t, false, false))
	if _, err := Read(io.MultiReader(bytes.NewReader(data))); err == nil {
		t.Fatal("a reader reporting no size was decoded without a byte budget")
	}
}

func TestReadRejectsGridWordsWithoutAGrid(t *testing.T) {
	// A header with NX = 0 (no grid) but another grid word set would read
	// back as a grid-less snapshot that re-encodes to other bytes.
	data := encode(t, tinySnapshot(t, false, false))
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Bytes(data[:8*8]) // magic, a, time, n, mass, box
	for i := 0; i < 10; i++ {
		e.U64(uint64(i / 9)) // the last grid-box word only
	}
	e.EndSection()
	buf.Write(data[8*8+10*8+8:])
	if _, err := Read(&buf); err == nil {
		t.Fatal("grid words without a grid accepted")
	}
}

func TestReadChecksTheWholeCRCWord(t *testing.T) {
	// The writer stores each CRC-32 zero-extended to 8 bytes; a word with
	// its upper half set could not re-encode to the same file.
	data := encode(t, tinySnapshot(t, false, false))
	data[18*8+4] = 1 // the upper half of the v1 header's CRC word
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("CRC word with its upper half set accepted")
	}
}

// FuzzSnapshotRead: arbitrary bytes either fail to read or read into a
// snapshot whose re-encoding is a prefix of them, and nothing panics.
func FuzzSnapshotRead(f *testing.F) {
	v2 := encode(f, tinySnapshot(f, true, true))
	for _, seed := range [][]byte{
		encode(f, tinySnapshot(f, false, false)),
		encode(f, tinySnapshot(f, true, false)),
		encode(f, tinySnapshot(f, false, true)),
		v2,
		overClaimingHeader(),
		wrappedGridFile(f),
		v2[:len(v2)/2],
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := Write(&buf, s); err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatalf("re-encoding (%d bytes) is not a prefix of the %d-byte input", buf.Len(), len(data))
		}
	})
}
