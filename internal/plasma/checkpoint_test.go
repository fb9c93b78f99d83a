package plasma

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"os"
	"runtime"
	"testing"

	"vlasov6d/internal/runner"
)

func landauSolver(t *testing.T, scheme string) *Solver {
	t.Helper()
	s, err := NewWithScheme(32, 64, 4*math.Pi, 6, scheme)
	if err != nil {
		t.Fatal(err)
	}
	s.LandauInit(0.01, 0.5, 1)
	return s
}

func stepN(t *testing.T, s *Solver, n int, dt float64) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Step(dt); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	s := landauSolver(t, "mp5")
	s.CFL = 0.3
	stepN(t, s, 7, 0.05)

	var buf bytes.Buffer
	n, err := s.Checkpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
	}
	r, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.NX != s.NX || r.NV != s.NV || r.L != s.L || r.VMax != s.VMax {
		t.Fatalf("restored shape %dx%d L=%v Vmax=%v", r.NX, r.NV, r.L, r.VMax)
	}
	if r.Scheme() != "mp5" {
		t.Fatalf("restored scheme %q", r.Scheme())
	}
	if r.Time != s.Time || r.CFL != s.CFL {
		t.Fatalf("restored time %v cfl %v, want %v %v", r.Time, r.CFL, s.Time, s.CFL)
	}
	for i := range s.F {
		if r.F[i] != s.F[i] {
			t.Fatalf("F differs at %d: %v vs %v", i, r.F[i], s.F[i])
		}
	}
	// The restored solver must be immediately usable: the field cache is
	// rebuilt, so SuggestDT and Diagnostics work before the first step.
	if dt := r.SuggestDT(); dt <= 0 {
		t.Fatalf("restored SuggestDT %v", dt)
	}
	if e := r.Diagnostics().Extra["field_energy"]; e <= 0 {
		t.Fatalf("restored field energy %v", e)
	}
}

func TestCheckpointChecksumDetectsCorruption(t *testing.T) {
	s := landauSolver(t, "slmpp5")
	stepN(t, s, 3, 0.05)
	var buf bytes.Buffer
	if _, err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0x40
	if _, err := Restore(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
	if _, err := Restore(bytes.NewReader(raw[:len(raw)/3])); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

func TestRestoreRejectsImplausibleGridWithoutAllocating(t *testing.T) {
	// A corrupt header whose dimensions pass the per-axis bound must still
	// fail with an error (which schedulers quarantine on), never reach a
	// makeslice panic or an OOM-sized allocation.
	s := landauSolver(t, "slmpp5")
	var buf bytes.Buffer
	if _, err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Layout: magic(8) + nameLen(8) + "slmpp5"(6) + nx(8) + nv(8) + ...
	le := binary.LittleEndian
	le.PutUint64(raw[22:], 1<<24) // nx: within the per-axis bound
	le.PutUint64(raw[30:], 1<<24) // nv: product 2^48 cells
	if _, err := Restore(bytes.NewReader(raw)); err == nil {
		t.Fatal("2^48-cell grid accepted")
	}
}

// TestCheckpointCopiesNoState: a checkpoint streams F to the writer;
// writing one of a synchronised 256×1024 state (2 MiB of F, against the
// encoder's 64 KiB chunk) allocates less than a quarter of F's bytes, so no
// copy of it is made.
func TestCheckpointCopiesNoState(t *testing.T) {
	s, err := NewWithScheme(256, 1024, 4*math.Pi, 6, "slmpp5")
	if err != nil {
		t.Fatal(err)
	}
	s.LandauInit(0.01, 0.5, 1)
	stepN(t, s, 1, 0.05)
	if err := s.Synchronize(); err != nil {
		t.Fatal(err)
	}
	state := 8 * uint64(s.NX*s.NV)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := s.Checkpoint(io.Discard)
	runtime.ReadMemStats(&after)
	if err != nil || uint64(n) < state {
		t.Fatalf("wrote %d bytes (%v) of a %d-byte state", n, err, state)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= state/4 {
		t.Fatalf("checkpoint allocated %d bytes for a %d-byte state (limit %d)", got, state, state/4)
	}
}

func TestCheckpointResumeContinuesBitIdentically(t *testing.T) {
	// Stop/restore/continue must land bit-identically on an uninterrupted
	// run: resume correctness is exactness, not approximation. Both runs go
	// through the runner with one checkpoint cadence, so both synchronise at
	// the same steps (8, 16 and the exit); the resumed one starts from the
	// live run's first snapshot, and with another worker count.
	const dt, until = 0.05, 1.0
	run := func(s *Solver) *runner.Report {
		t.Helper()
		rep, err := runner.Run(context.Background(), s, until,
			runner.WithFixedDT(dt), runner.WithCheckpoint(t.TempDir(), 8))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	live := landauSolver(t, "slmpp5")
	live.SetWorkers(1)
	rep := run(live)
	if rep.Steps < 20 || len(rep.Checkpoints) != 2 {
		t.Fatalf("live run: %d steps, checkpoints %v", rep.Steps, rep.Checkpoints)
	}
	f, err := os.Open(rep.Checkpoints[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	resumed, err := Restore(f)
	if err != nil {
		t.Fatal(err)
	}
	resumed.SetWorkers(2)
	if got := run(resumed).Steps; got != rep.Steps-8 {
		t.Fatalf("resumed run took %d steps, want %d", got, rep.Steps-8)
	}
	if resumed.Time != live.Time {
		t.Fatalf("clock %v vs %v", resumed.Time, live.Time)
	}
	for i := range live.F {
		if resumed.F[i] != live.F[i] {
			t.Fatalf("resumed F differs at %d: %v vs %v", i, resumed.F[i], live.F[i])
		}
	}
}

// wordAtATimeState is the reference encoder of the checkpoint layout: every
// value through its own 8-byte buffer and CRC update, the way the writer
// worked before it moved onto snapio's chunked encoder.
func wordAtATimeState(st snapState) []byte {
	var out []byte
	word := func(v uint64) { out = binary.LittleEndian.AppendUint64(out, v) }
	word(ckptMagic)
	word(uint64(len(st.scheme)))
	out = append(out, st.scheme...)
	word(uint64(st.nx))
	word(uint64(st.nv))
	for _, v := range []float64{st.l, st.vmax, st.time, st.cfl} {
		word(math.Float64bits(v))
	}
	for i := range st.nx {
		for _, v := range st.f[i*st.stride : i*st.stride+st.nv] {
			word(math.Float64bits(v))
		}
	}
	word(uint64(crc32.ChecksumIEEE(out)))
	return out
}

// TestCheckpointBytesAreStable pins the on-disk format through the move onto
// snapio.Encoder: a file the previous writer produced (testdata, committed
// from the parent commit) is reproduced byte for byte and still restores, and
// states that straddle the encoder's 64 KiB chunk — with scheme names that
// knock the words off 8-byte alignment — match the word-at-a-time reference.
func TestCheckpointBytesAreStable(t *testing.T) {
	golden, err := os.ReadFile("testdata/ckpt_6x8_mp5.v6d")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithScheme(6, 8, 12.5, 6, "mp5")
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.F {
		s.F[i] = float64(i)*0.125 - 1
	}
	s.Time, s.CFL = 0.375, 0.3
	var buf bytes.Buffer
	if n, err := s.Checkpoint(&buf); err != nil || n != int64(len(golden)) {
		t.Fatalf("wrote %d bytes (%v), golden file has %d", n, err, len(golden))
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatal("checkpoint bytes differ from the file the previous writer produced")
	}
	r, err := Restore(bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("golden file no longer restores: %v", err)
	}
	if r.NX != 6 || r.NV != 8 || r.Scheme() != "mp5" || r.Time != 0.375 || r.CFL != 0.3 || r.Row(5)[7] != 4.875 {
		t.Fatalf("golden file restored as %dx%d %s t=%v cfl=%v f[5][7]=%v", r.NX, r.NV, r.Scheme(), r.Time, r.CFL, r.Row(5)[7])
	}

	for _, scheme := range []string{"slmpp5", "mp5", "upwind1", "laxwendroff2"} {
		for _, nx := range []int{6, 127, 128, 130} { // × 64 × 8 B: 3 KiB, then around one chunk
			// Rows padded to 72 values, the padding a value no cell holds:
			// the writer must skip it.
			st := snapState{nx: nx, nv: 64, l: 4 * math.Pi, vmax: 6, time: 1.25, cfl: 0.4, scheme: scheme,
				f: make([]float64, nx*72), stride: 72}
			for i := range st.f {
				st.f[i] = math.Sin(float64(i))
				if i%72 >= 64 {
					st.f[i] = math.NaN()
				}
			}
			var got bytes.Buffer
			n, err := writeState(&got, st)
			want := wordAtATimeState(st)
			if err != nil || n != int64(len(want)) || !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s %dx64: %d bytes (%v), reference has %d or differs", scheme, nx, n, err, len(want))
			}
		}
	}
}

// TestRowStride: for NV from 6 to 1024, F's row stride is at least NV, a
// multiple of 8 values and an odd number of 64-byte lines, and the
// smallest such: the odd line count below it holds fewer than NV values.
func TestRowStride(t *testing.T) {
	for nv := 6; nv <= 1024; nv++ {
		st := rowStride(nv)
		if st < nv || st%8 != 0 || st/8%2 != 1 || st-16 >= nv {
			t.Fatalf("NV %d: stride %d", nv, st)
		}
	}
	for nv, want := range map[int]int{8: 8, 20: 24, 64: 72, 256: 264} {
		if got := rowStride(nv); got != want {
			t.Errorf("NV %d: stride %d, want %d", nv, got, want)
		}
	}
}

// TestPaddedCheckpointRoundTrip: at 8×20, whose rows are padded to 24
// values, a stepped state's checkpoint is the header and CRC plus its
// 8·NX·NV cell bytes, none of the padding, and Restore → Checkpoint
// reproduces it byte for byte.
func TestPaddedCheckpointRoundTrip(t *testing.T) {
	s, err := NewWithScheme(8, 20, 4*math.Pi, 6, "slmpp5")
	if err != nil {
		t.Fatal(err)
	}
	if s.stride != 24 {
		t.Fatalf("8×20: stride %d, want 24", s.stride)
	}
	s.LandauInit(0.01, 0.5, 1)
	stepN(t, s, 3, 0.05)
	var first bytes.Buffer
	if _, err := s.Checkpoint(&first); err != nil {
		t.Fatal(err)
	}
	// magic, name length, name, NX, NV, L, VMax, Time, CFL, then the CRC.
	header := 8 + 8 + len("slmpp5") + 2*8 + 4*8 + 8
	if want := header + 8*s.NX*s.NV; first.Len() != want {
		t.Fatalf("checkpoint of %d bytes, want %d header and CRC bytes + %d cell bytes", first.Len(), header, 8*s.NX*s.NV)
	}
	r, err := Restore(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if _, err := r.Checkpoint(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("Restore → Checkpoint changed the bytes")
	}
}
