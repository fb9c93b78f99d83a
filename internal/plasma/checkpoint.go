// Checkpoint I/O for the 1D1V solver, in the same spirit as snapio: a
// checksummed little-endian binary snapshot of the full phase-space state.
// With it the plasma validation problems gain the same kill-and-resume
// contract the 6D hybrid run has had since PR 1 — which is what lets a
// scheme × resolution sweep (cmd/sweep) survive a restart mid-campaign.
//
// Layout: magic "V6DP", scheme-name length + bytes, NX, NV as uint64,
// L, VMax, Time, CFL as float64 bits, the F array as float64 bits, and a
// trailing CRC-32 (IEEE) over everything before it.
package plasma

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"vlasov6d/internal/snapio"
)

// ckptMagic identifies a plasma checkpoint ("V6DP").
const ckptMagic = 0x56364450

// snapState is the deep-copied state a checkpoint serialises; captured on
// the step path, written off it (see CaptureCheckpoint).
type snapState struct {
	nx, nv  int
	l, vmax float64
	time    float64
	cfl     float64
	scheme  string
	f       []float64
}

func (s *Solver) captureState() snapState {
	f := make([]float64, len(s.F))
	copy(f, s.F)
	return snapState{
		nx: s.NX, nv: s.NV, l: s.L, vmax: s.VMax,
		time: s.Time, cfl: s.CFL, scheme: s.scheme, f: f,
	}
}

// Checkpoint synchronises the solver and writes a restorable snapshot of its
// state, implementing runner.Checkpointer. It returns the number of bytes
// written.
func (s *Solver) Checkpoint(w io.Writer) (int64, error) {
	if err := s.Synchronize(); err != nil {
		return 0, err
	}
	return writeState(w, s.captureState())
}

// CaptureCheckpoint synchronises the solver, deep-copies the state and
// returns a write closure over the copy, implementing
// runner.CheckpointCapturer: the async observer pipeline calls the closure
// while the solver keeps stepping, so the encode + checksum + write overlaps
// compute and only the O(state) copy stays on the step path.
func (s *Solver) CaptureCheckpoint() (func(w io.Writer) (int64, error), error) {
	if err := s.Synchronize(); err != nil {
		return nil, err
	}
	st := s.captureState()
	return func(w io.Writer) (int64, error) { return writeState(w, st) }, nil
}

// writeState encodes the layout above, which is exactly one snapio section:
// little-endian words (and the raw name bytes) followed by their CRC word.
func writeState(w io.Writer, st snapState) (int64, error) {
	e := snapio.NewEncoder(w)
	e.U64(ckptMagic)
	e.U64(uint64(len(st.scheme)))
	e.Bytes([]byte(st.scheme))
	e.U64(uint64(st.nx))
	e.U64(uint64(st.nv))
	e.F64s([]float64{st.l, st.vmax, st.time, st.cfl})
	e.F64s(st.f)
	e.EndSection()
	return e.Result()
}

// Restore rebuilds a solver from a checkpoint written by Checkpoint (or by
// the runner's WithCheckpoint cadence), verifying the checksum. The restored
// solver is ready to Step: the field cache is rebuilt from the restored
// distribution so SuggestDT and Diagnostics are valid before the first step.
func Restore(r io.Reader) (*Solver, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	sum := crc32.NewIEEE()
	le := binary.LittleEndian
	get := func(check bool) (uint64, error) {
		var b [8]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		if check {
			sum.Write(b[:])
		}
		return le.Uint64(b[:]), nil
	}
	getF := func() (float64, error) {
		v, err := get(true)
		return math.Float64frombits(v), err
	}

	magic, err := get(true)
	if err != nil {
		return nil, fmt.Errorf("plasma: checkpoint header: %w", err)
	}
	if magic != ckptMagic {
		return nil, fmt.Errorf("plasma: bad checkpoint magic %#x", magic)
	}
	nameLen, err := get(true)
	if err != nil {
		return nil, err
	}
	if nameLen > 256 {
		return nil, fmt.Errorf("plasma: implausible scheme-name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	sum.Write(name)
	nx64, err := get(true)
	if err != nil {
		return nil, err
	}
	nv64, err := get(true)
	if err != nil {
		return nil, err
	}
	var l, vmax, tm, cfl float64
	for _, dst := range []*float64{&l, &vmax, &tm, &cfl} {
		if *dst, err = getF(); err != nil {
			return nil, err
		}
	}
	// Bound the dimensions AND their product: a corrupt header must fail
	// here with an error the caller can quarantine on, never reach a
	// makeslice panic or an OOM allocation inside NewWithScheme.
	if nx64 > 1<<24 || nv64 > 1<<24 || nx64*nv64 > 1<<28 {
		return nil, fmt.Errorf("plasma: implausible grid %dx%d", nx64, nv64)
	}
	s, err := NewWithScheme(int(nx64), int(nv64), l, vmax, string(name))
	if err != nil {
		return nil, fmt.Errorf("plasma: checkpoint rebuild: %w", err)
	}
	for i := range s.F {
		if s.F[i], err = getF(); err != nil {
			return nil, err
		}
	}
	want := sum.Sum32()
	got, err := get(false)
	if err != nil {
		return nil, err
	}
	if uint32(got) != want {
		return nil, fmt.Errorf("plasma: checkpoint checksum mismatch")
	}
	s.Time = tm
	s.CFL = cfl
	s.ElectricField()
	return s, nil
}
