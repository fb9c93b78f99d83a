package snapio

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"vlasov6d/internal/nbody"
	"vlasov6d/internal/phase"
)

func sampleSnapshot(t *testing.T, withGrid bool) *Snapshot {
	t.Helper()
	p, err := nbody.NewParticles(100, 2.5, [3]float64{50, 50, 50})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < p.N; i++ {
		for d := 0; d < 3; d++ {
			p.Pos[d][i] = rng.Float64() * 50
			p.Vel[d][i] = rng.NormFloat64() * 100
		}
	}
	s := &Snapshot{A: 0.5, Time: 0.0042, Part: p}
	if withGrid {
		g, err := phase.New(4, 4, 4, [3]int{6, 6, 6}, [3]float64{50, 50, 50}, 1000)
		if err != nil {
			t.Fatal(err)
		}
		for i := range g.Data {
			g.Data[i] = rng.Float32()
		}
		s.Grid = g
	}
	return s
}

func TestRoundTripWithGrid(t *testing.T) {
	s := sampleSnapshot(t, true)
	var buf bytes.Buffer
	n, err := Write(&buf, s)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.A != s.A || got.Time != s.Time {
		t.Fatal("scalars differ")
	}
	if got.Part.N != s.Part.N || got.Part.Mass != s.Part.Mass {
		t.Fatal("particle meta differs")
	}
	for d := 0; d < 3; d++ {
		for i := 0; i < s.Part.N; i++ {
			if got.Part.Pos[d][i] != s.Part.Pos[d][i] || got.Part.Vel[d][i] != s.Part.Vel[d][i] {
				t.Fatalf("particle %d dim %d differs", i, d)
			}
		}
	}
	if got.Grid == nil {
		t.Fatal("grid missing")
	}
	for i := range s.Grid.Data {
		if got.Grid.Data[i] != s.Grid.Data[i] {
			t.Fatalf("grid value %d differs", i)
		}
	}
	if got.Grid.UMax != s.Grid.UMax {
		t.Fatal("UMax differs")
	}
}

func TestRoundTripParticlesOnly(t *testing.T) {
	s := sampleSnapshot(t, false)
	var buf bytes.Buffer
	if _, err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Grid != nil {
		t.Fatal("phantom grid appeared")
	}
}

func TestCorruptionDetected(t *testing.T) {
	s := sampleSnapshot(t, true)
	var buf bytes.Buffer
	if _, err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the particle payload region.
	data := buf.Bytes()
	data[200] ^= 0xFF
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader(make([]byte, 64))); err == nil {
		t.Fatal("zero stream accepted")
	}
}

func TestTruncated(t *testing.T) {
	s := sampleSnapshot(t, false)
	var buf bytes.Buffer
	if _, err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	half := buf.Bytes()[:buf.Len()/2]
	if _, err := Read(bytes.NewReader(half)); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func addNuParticles(t *testing.T, s *Snapshot) {
	t.Helper()
	nu, err := nbody.NewParticles(64, 0.125, s.Part.Box)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < nu.N; i++ {
		for d := 0; d < 3; d++ {
			nu.Pos[d][i] = rng.Float64() * 50
			nu.Vel[d][i] = rng.NormFloat64() * 2000 // thermal neutrinos are fast
		}
	}
	s.NuPart = nu
}

func TestRoundTripV2NuParticles(t *testing.T) {
	s := sampleSnapshot(t, false)
	addNuParticles(t, s)
	var buf bytes.Buffer
	n, err := Write(&buf, s)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
	}
	raw := append([]byte(nil), buf.Bytes()...)
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NuPart == nil || got.NuPart.N != s.NuPart.N || got.NuPart.Mass != s.NuPart.Mass {
		t.Fatalf("ν-particle meta lost: %+v", got.NuPart)
	}
	for d := 0; d < 3; d++ {
		for i := 0; i < s.NuPart.N; i++ {
			if got.NuPart.Pos[d][i] != s.NuPart.Pos[d][i] || got.NuPart.Vel[d][i] != s.NuPart.Vel[d][i] {
				t.Fatalf("ν particle %d dim %d differs", i, d)
			}
		}
	}
	// Re-serialisation is bit-identical, so checkpoint → restore →
	// checkpoint cycles are stable in v2 exactly as in v1.
	var buf2 bytes.Buffer
	if _, err := Write(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf2.Bytes(), raw) {
		t.Fatal("v2 re-serialisation not bit-identical")
	}
}

func TestV1FilesStayByteIdentical(t *testing.T) {
	// A snapshot without neutrino particles must produce the v1 magic and
	// layout, so files from earlier versions of the code keep reading and
	// new grid-mode files keep opening under v1-era readers.
	s := sampleSnapshot(t, true)
	var buf bytes.Buffer
	if _, err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	le := buf.Bytes()[:8]
	magic := uint64(le[0]) | uint64(le[1])<<8 | uint64(le[2])<<16 | uint64(le[3])<<24 |
		uint64(le[4])<<32 | uint64(le[5])<<40 | uint64(le[6])<<48 | uint64(le[7])<<56
	if magic != Magic {
		t.Fatalf("magic %#x, want v1 %#x for a NuPart-less snapshot", magic, uint64(Magic))
	}
}

func TestV2CorruptionInNuSectionDetected(t *testing.T) {
	s := sampleSnapshot(t, false)
	addNuParticles(t, s)
	var buf bytes.Buffer
	if _, err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip a byte inside the ν section: past the header and the CDM
	// particle payload (100 particles × 6 × 8 bytes).
	idx := len(data) - 100
	data[idx] ^= 0xFF
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("ν-section corruption not detected")
	}
}

func TestWriteValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Write(&buf, nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	if _, err := Write(&buf, &Snapshot{}); err == nil {
		t.Fatal("missing particles accepted")
	}
}

func TestProbe(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Write(&buf, sampleSnapshot(t, false)); err != nil {
		t.Fatal(err)
	}
	v, a, ok := Probe(bytes.NewReader(buf.Bytes()))
	if !ok || v != 1 || a != 0.5 {
		t.Fatalf("Probe(v1) = %d, %v, %v", v, a, ok)
	}
	// A v2 snapshot (ν-particle section present) probes as version 2.
	s := sampleSnapshot(t, false)
	nu, err := nbody.NewParticles(8, 0.1, [3]float64{50, 50, 50})
	if err != nil {
		t.Fatal(err)
	}
	s.NuPart = nu
	buf.Reset()
	if _, err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	if v, _, ok := Probe(bytes.NewReader(buf.Bytes())); !ok || v != 2 {
		t.Fatalf("Probe(v2) = %d, %v", v, ok)
	}
	// Foreign bytes (a solver-private checkpoint) are not snapio's.
	if _, _, ok := Probe(bytes.NewReader([]byte("PLASMA-CKPT-FORMAT-0123456789"))); ok {
		t.Fatal("Probe accepted a non-snapio file")
	}
	// A file shorter than the header prefix is not ok rather than an error.
	if _, _, ok := Probe(bytes.NewReader(buf.Bytes()[:7])); ok {
		t.Fatal("Probe accepted a truncated prefix")
	}
}

// goldenSnapshot is a deterministic snapshot big enough that every section
// spans several of the writer's 64 KiB chunks, at sizes that leave values
// straddling the chunk edges.
func goldenSnapshot(t *testing.T, withGrid, withNu bool) *Snapshot {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	fill := func(n int, mass float64) *nbody.Particles {
		p, err := nbody.NewParticles(n, mass, [3]float64{50, 50, 50})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < p.N; i++ {
			for d := 0; d < 3; d++ {
				p.Pos[d][i] = rng.Float64() * 50
				p.Vel[d][i] = rng.NormFloat64() * 100
			}
		}
		return p
	}
	s := &Snapshot{A: 0.25, Time: 0.0017, Part: fill(3001, 2.5)}
	if withGrid {
		g, err := phase.New(5, 6, 7, [3]int{6, 7, 8}, [3]float64{50, 50, 50}, 1000)
		if err != nil {
			t.Fatal(err)
		}
		for i := range g.Data {
			g.Data[i] = rng.Float32()
		}
		s.Grid = g
	}
	if withNu {
		s.NuPart = fill(2503, 0.125)
	}
	return s
}

// TestFilesByteIdenticalToPerValueWriter pins the bytes on disk: the digests
// below were taken from the writer this one replaced, which encoded, hashed
// and wrote one value at a time. v1 (particles, particles + grid) and v2
// (ν particles, with and without a grid) must not move by a bit.
func TestFilesByteIdenticalToPerValueWriter(t *testing.T) {
	for _, tc := range []struct {
		name         string
		grid, nu     bool
		size         int64
		sha256Digest string
	}{
		{"v1 particles", false, false, 144208, "341d8db25e63cfff59871c78c9af15560c2fda0f01baffd01b2c0e0a251de4c0"},
		{"v1 particles+grid", true, false, 426456, "fe92f7881b5fc9457f3648f37deac78d00d65392979c14f6f021cae90571d87b"},
		{"v2 particles+nu", false, true, 264376, "9c51a6f5491848e3a18bad22e02720c54b8bb2de1c76147249d2d971237d8a50"},
		{"v2 particles+nu+grid", true, true, 546624, "0e2c9d4eb16e0ec316b1a25d9f44d6a7b8d29bf109e8ee7ebfeede6cfe520e5a"},
	} {
		var buf bytes.Buffer
		n, err := Write(&buf, goldenSnapshot(t, tc.grid, tc.nu))
		if err != nil {
			t.Fatal(err)
		}
		sum := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
		if n != tc.size || int64(buf.Len()) != tc.size || sum != tc.sha256Digest {
			t.Errorf("%s: %d bytes (reported %d), sha256 %s; want %d bytes, %s", tc.name, buf.Len(), n, sum, tc.size, tc.sha256Digest)
		}
	}
}

// failAfter accepts limit bytes, then fails every write.
type failAfter struct{ limit, n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n+len(p) > f.limit {
		return 0, fmt.Errorf("disk full")
	}
	f.n += len(p)
	return len(p), nil
}

func TestWriteReportsWriterError(t *testing.T) {
	// The first failed chunk write is the error Write returns, with the
	// count of bytes that did reach the writer.
	w := &failAfter{limit: 100 << 10}
	n, err := Write(w, goldenSnapshot(t, true, true))
	if err == nil || n != int64(w.n) || n == 0 {
		t.Fatalf("Write to a failing writer: n = %d (writer took %d), err = %v", n, w.n, err)
	}
}
