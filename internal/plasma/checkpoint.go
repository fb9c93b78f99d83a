// Checkpoint I/O for the 1D1V solver: a checksummed snapshot of the full
// phase-space state, which gives the plasma problems the hybrid run's
// kill-and-resume contract, so a scheme × resolution sweep (cmd/sweep)
// survives a restart mid-campaign.
//
// Layout: one snapio section (magic "V6DP", scheme-name length + bytes, NX,
// NV as uint64, then L, VMax, Time, CFL and the NX·NV cells of F, row by
// row, as float64 bits) and its CRC word; F's row padding is not written.
// The decoder's byte budget alone bounds the name and the grid a header
// may claim.
package plasma

import (
	"fmt"
	"io"

	"vlasov6d/internal/snapio"
)

// ckptMagic identifies a plasma checkpoint ("V6DP").
const ckptMagic = 0x56364450

// snapState is what a checkpoint serialises, in file order. Checkpoint
// fills it from the live solver, f aliasing F: the encoder streams F's
// rows to the writer in chunks and copies none of it.
type snapState struct {
	nx, nv  int
	l, vmax float64
	time    float64
	cfl     float64
	scheme  string
	f       []float64 // the nx rows, or none for a header alone
	stride  int       // row i of f is f[i·stride : i·stride+nv]
}

// Checkpoint synchronises the solver and writes a restorable snapshot of its
// state, implementing runner.Checkpointer. It returns the number of bytes
// written.
func (s *Solver) Checkpoint(w io.Writer) (int64, error) {
	if err := s.Synchronize(); err != nil {
		return 0, err
	}
	return writeState(w, snapState{
		nx: s.NX, nv: s.NV, l: s.L, vmax: s.VMax,
		time: s.Time, cfl: s.CFL, scheme: s.scheme, f: s.F, stride: s.stride,
	})
}

// writeState encodes the layout above: the NX·NV cells row by row, with
// none of the padding between a row's NV values and the stride.
func writeState(w io.Writer, st snapState) (int64, error) {
	e := snapio.NewEncoder(w)
	e.U64(ckptMagic)
	e.U64(uint64(len(st.scheme)))
	e.Bytes([]byte(st.scheme))
	e.U64(uint64(st.nx))
	e.U64(uint64(st.nv))
	e.F64s([]float64{st.l, st.vmax, st.time, st.cfl})
	for at := 0; at < len(st.f); at += st.stride {
		e.F64s(st.f[at : at+st.nv])
	}
	e.EndSection()
	return e.Result()
}

// Restore rebuilds a solver from a checkpoint written by Checkpoint (or by
// the runner's WithCheckpoint cadence), verifying the checksum. r is an
// *os.File, *bytes.Buffer or *bytes.Reader: its size is the snapio.Decoder's
// budget, so a header claiming more cells or name bytes than the file holds
// fails before anything is allocated for them. The restored solver is ready
// to Step: the field cache is rebuilt from the restored distribution so
// SuggestDT and Diagnostics are valid before the first step.
func Restore(r io.Reader) (*Solver, error) {
	d, err := snapio.NewDecoder(r)
	if err != nil {
		return nil, err
	}
	magic := d.U64()
	if d.Err() == nil && magic != ckptMagic {
		return nil, fmt.Errorf("plasma: bad checkpoint magic %#x", magic)
	}
	name := d.Bytes(d.U64())
	nx, nv := d.U64(), d.U64()
	var hdr [4]float64 // L, VMax, Time, CFL
	d.F64s(hdr[:])
	if !d.Fits(8, nx, nv) {
		return nil, fmt.Errorf("plasma: checkpoint: %w", d.Err())
	}
	s, err := NewWithScheme(int(nx), int(nv), hdr[0], hdr[1], string(name))
	if err != nil {
		return nil, fmt.Errorf("plasma: checkpoint rebuild: %w", err)
	}
	for i := range s.NX {
		d.F64s(s.Row(i))
	}
	d.EndSection()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("plasma: checkpoint: %w", err)
	}
	s.Time, s.CFL = hdr[2], hdr[3]
	s.ElectricField()
	return s, nil
}
