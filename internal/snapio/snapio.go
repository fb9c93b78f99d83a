// Package snapio reads and writes simulation snapshots in a simple
// checksummed little-endian binary format. Snapshot volume is what the
// paper's end-to-end time-to-solution measurement charges to I/O (733 s of
// the 1.92 h H1024 run), so the writers report byte counts to the caller.
//
// Layout (v1): a fixed header (magic, version, scale factor, time, box,
// particle and grid shapes), followed by the particle section (positions,
// velocities as float64) and, when present, the phase-space section
// (float32 cube data), each section followed by its CRC-32 (IEEE).
//
// Format v2 adds a second particle section for the ν-particle baseline
// (the §5.4 TianNu-style control runs): the header grows a neutrino
// particle count and mass after the grid box, and the neutrino section
// (same layout as the CDM one) follows the CDM particle section. The
// writer emits v2 only when the snapshot carries neutrino particles, so
// Vlasov-mode and pure-N-body snapshots stay byte-identical to v1; the
// reader accepts both versions.
//
// Encoder writes both this format and the plasma solver's checkpoint, and
// Decoder reads both back, checking each section's CRC word. A Decoder's
// byte budget is the size its source reports, and every count a header
// claims (particles, all six grid extents, a name) is checked against it,
// overflow-checked, before anything is allocated: a hostile header fails
// with an error instead of an out-of-memory crash. Both formats are pinned
// byte for byte by TestFilesByteIdenticalToPerValueWriter here and
// TestCheckpointBytesAreStable in package plasma.
package snapio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"math/bits"

	"vlasov6d/internal/nbody"
	"vlasov6d/internal/phase"
)

// Magic identifies format v1 ("V6D" + version byte).
const Magic = 0x56364431 // "V6D1"

// MagicV2 identifies format v2, which carries the optional second
// (ν-particle) section.
const MagicV2 = 0x56364432 // "V6D2"

// Snapshot bundles the state written to disk.
type Snapshot struct {
	A    float64
	Time float64
	Part *nbody.Particles
	Grid *phase.Grid // optional
	// NuPart holds the particle-sampled neutrinos of the §5.4 baseline
	// mode (optional; forces format v2 on write).
	NuPart *nbody.Particles
}

// Probe reads just the fixed header prefix of a snapshot file and reports
// its snapio format version (1 or 2) and the scale factor it was taken at.
// ok is false when the file does not start with a snapio magic — solvers
// with private checkpoint formats (the 1D1V plasma solver) share the
// runner's ckpt_*.v6d naming, so an artifact listing uses Probe to tell
// which files a snapio reader can open without decoding whole snapshots.
func Probe(r io.Reader) (version int, a float64, ok bool) {
	var b [16]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, 0, false
	}
	le := binary.LittleEndian
	switch le.Uint64(b[:8]) {
	case Magic:
		version = 1
	case MagicV2:
		version = 2
	default:
		return 0, 0, false
	}
	return version, math.Float64frombits(le.Uint64(b[8:16])), true
}

// Encoder lays values out little-endian in a chunk and hands each full chunk
// to the section checksum and to the writer in one call apiece. The first
// write error sticks and turns every later call into a no-op. Package plasma
// writes its one-section checkpoint through it too.
type Encoder struct {
	w   io.Writer
	buf []byte // the current chunk, cap chunkSize
	crc uint32 // IEEE CRC-32 of the current section, up to the last flush
	n   int64  // bytes handed to w without error
	err error
}

const chunkSize = 64 << 10

// NewEncoder returns an encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w, buf: make([]byte, 0, chunkSize)}
}

// Result reports the bytes written without error and the first write error.
func (e *Encoder) Result() (int64, error) { return e.n, e.err }

func (e *Encoder) flush() {
	e.crc = crc32.Update(e.crc, crc32.IEEETable, e.buf)
	if e.err == nil {
		var n int
		n, e.err = e.w.Write(e.buf)
		e.n += int64(n)
	}
	e.buf = e.buf[:0]
}

// U64 appends one 8-byte word.
func (e *Encoder) U64(v uint64) {
	if len(e.buf)+8 > cap(e.buf) {
		e.flush()
	}
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// F64 appends one float64 as its IEEE-754 bits.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// F64s appends every value of vals.
func (e *Encoder) F64s(vals []float64) {
	for _, v := range vals {
		e.F64(v)
	}
}

// Bytes appends raw bytes (a name inside a section).
func (e *Encoder) Bytes(b []byte) {
	if len(e.buf)+len(b) > cap(e.buf) {
		e.flush()
	}
	e.buf = append(e.buf, b...)
}

func (e *Encoder) f32s(vals []float32) {
	for _, v := range vals {
		if len(e.buf)+4 > cap(e.buf) {
			e.flush()
		}
		e.buf = binary.LittleEndian.AppendUint32(e.buf, math.Float32bits(v))
	}
}

// EndSection closes a checksummed section: its CRC-32 follows it as an
// 8-byte word that belongs to no section's checksum.
func (e *Encoder) EndSection() {
	e.flush()
	e.U64(uint64(e.crc))
	e.flush()
	e.crc = 0
}

// particles writes one particle section: positions, then velocities.
func (e *Encoder) particles(p *nbody.Particles) {
	for d := 0; d < 3; d++ {
		e.F64s(p.Pos[d])
	}
	for d := 0; d < 3; d++ {
		e.F64s(p.Vel[d])
	}
	e.EndSection()
}

// Write serialises the snapshot and returns the number of bytes written.
func Write(w io.Writer, s *Snapshot) (int64, error) {
	if s == nil || s.Part == nil {
		return 0, fmt.Errorf("snapio: nil snapshot or particles")
	}
	e := NewEncoder(w)

	// Header. The magic doubles as the version: v2 only when the optional
	// ν-particle section is present, so v1-shaped snapshots stay
	// byte-identical to the v1 writer.
	magic := uint64(Magic)
	if s.NuPart != nil {
		magic = MagicV2
	}
	e.U64(magic)
	e.F64(s.A)
	e.F64(s.Time)
	e.U64(uint64(s.Part.N))
	e.F64(s.Part.Mass)
	for d := 0; d < 3; d++ {
		e.F64(s.Part.Box[d])
	}
	// Grid shape and box (zeros when absent).
	var gdims [7]uint64
	var gbox [3]float64
	if s.Grid != nil {
		gdims = [7]uint64{
			uint64(s.Grid.NX), uint64(s.Grid.NY), uint64(s.Grid.NZ),
			uint64(s.Grid.NU[0]), uint64(s.Grid.NU[1]), uint64(s.Grid.NU[2]),
			math.Float64bits(s.Grid.UMax),
		}
		gbox = s.Grid.Box
	}
	for _, v := range gdims {
		e.U64(v)
	}
	for d := 0; d < 3; d++ {
		e.F64(gbox[d])
	}
	if s.NuPart != nil {
		e.U64(uint64(s.NuPart.N))
		e.F64(s.NuPart.Mass)
	}
	e.EndSection()

	e.particles(s.Part)
	if s.NuPart != nil {
		// v2 only, same layout as the CDM section.
		e.particles(s.NuPart)
	}
	if s.Grid != nil {
		e.f32s(s.Grid.Data)
		e.EndSection()
	}
	return e.Result()
}

// Decoder is Encoder's mirror: it reads a chunk at a time, folds each chunk
// into the section checksum in one call, and checks every count read from
// the stream against its byte budget before anything is allocated for it.
// The first error sticks and turns every later call into a no-op returning
// zeros.
type Decoder struct {
	r      io.Reader
	buf    []byte // buffered input, cap chunkSize; buf[off:] is unread
	off    int
	summed int    // buf[summed:off] is read but not yet in crc
	crc    uint32 // IEEE CRC-32 of the current section, up to buf[summed]
	left   int64  // the most the source holds beyond buf
	err    error
}

// NewDecoder returns a decoder reading r, with the byte budget the source
// reports: Stat().Size() for a file (an upper bound on what is left however
// far it has been read) and Len() for an in-memory reader. A reader that
// reports neither is refused: no count in its stream could be checked.
func NewDecoder(r io.Reader) (*Decoder, error) {
	var size int64
	switch src := r.(type) {
	case interface{ Len() int }:
		size = int64(src.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		fi, err := src.Stat()
		if err != nil {
			return nil, err
		}
		size = fi.Size()
	default:
		return nil, fmt.Errorf("snapio: %T reports no size to budget a decode against", r)
	}
	return &Decoder{r: r, buf: make([]byte, 0, chunkSize), left: size}, nil
}

// Err reports the first error of any call.
func (d *Decoder) Err() error { return d.err }

// next consumes the next n ≤ chunkSize bytes, refilling the chunk (and
// folding what was read of it into the section checksum) when they are not
// all buffered; nil once an error has stuck.
func (d *Decoder) next(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf)-d.off < n {
		d.crc = crc32.Update(d.crc, crc32.IEEETable, d.buf[d.summed:d.off])
		rest := copy(d.buf[:cap(d.buf)], d.buf[d.off:])
		k, err := io.ReadAtLeast(d.r, d.buf[rest:cap(d.buf)], n-rest)
		d.buf, d.off, d.summed, d.left = d.buf[:rest+k], 0, 0, d.left-int64(k)
		if err != nil {
			d.err = fmt.Errorf("snapio: read: %w", err)
			return nil
		}
	}
	d.off += n
	return d.buf[d.off-n : d.off]
}

// Fits reports whether width bytes times the product of dims fit in what
// the source can still deliver: the check before allocating for counts read
// from the stream. An overflowing product, a claim past the budget or an
// earlier error records the error and reports false.
func (d *Decoder) Fits(width uint64, dims ...uint64) bool {
	if d.err != nil {
		return false
	}
	need, over := width, uint64(0)
	for _, n := range dims {
		var hi uint64
		hi, need = bits.Mul64(need, n)
		over |= hi
	}
	if have := d.left + int64(len(d.buf)-d.off); over != 0 || need > uint64(max(have, 0)) {
		d.err = fmt.Errorf("snapio: %d-byte elements × %v claimed, at most %d bytes left", width, dims, have)
		return false
	}
	return true
}

// U64 reads one 8-byte word.
func (d *Decoder) U64() uint64 {
	if b := d.next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// F64 reads one float64 from its IEEE-754 bits.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// F64s fills dst.
func (d *Decoder) F64s(dst []float64) {
	for i := range dst {
		dst[i] = d.F64()
	}
}

func (d *Decoder) f32s(dst []float32) {
	for i := range dst {
		if b := d.next(4); b != nil {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b))
		}
	}
}

// Bytes reads n raw bytes (a name inside a section), refusing an n past the
// budget before allocating for it.
func (d *Decoder) Bytes(n uint64) []byte {
	if !d.Fits(1, n) {
		return nil
	}
	b := make([]byte, n)
	for i := range b {
		if c := d.next(1); c != nil {
			b[i] = c[0]
		}
	}
	return b
}

// EndSection reads the CRC word that closes a section and checks all 8
// bytes of it against the section's bytes.
func (d *Decoder) EndSection() {
	d.crc = crc32.Update(d.crc, crc32.IEEETable, d.buf[d.summed:d.off])
	d.summed = d.off
	if sum := d.U64(); d.err == nil && sum != uint64(d.crc) {
		d.err = fmt.Errorf("snapio: section checksum mismatch")
	}
	d.summed, d.crc = d.off, 0
}

// particles reads one particle section of n particles, checking the budget
// before it allocates them.
func (d *Decoder) particles(n uint64, mass float64, box [3]float64) *nbody.Particles {
	if !d.Fits(6*8, n) {
		return nil
	}
	p, err := nbody.NewParticles(int(n), mass, box)
	if err != nil {
		d.err = err
		return nil
	}
	for dim := 0; dim < 3; dim++ {
		d.F64s(p.Pos[dim])
	}
	for dim := 0; dim < 3; dim++ {
		d.F64s(p.Vel[dim])
	}
	d.EndSection()
	return p
}

// Read deserialises a snapshot of either version from an *os.File,
// *bytes.Buffer or *bytes.Reader (see NewDecoder), verifying every checksum
// and refusing any count its source cannot hold before allocating for it.
func Read(r io.Reader) (*Snapshot, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	magic := d.U64()
	if d.err == nil && magic != Magic && magic != MagicV2 {
		return nil, fmt.Errorf("snapio: bad magic %#x", magic)
	}
	s := &Snapshot{A: d.F64(), Time: d.F64()}
	n, mass := d.U64(), d.F64()
	var box [3]float64
	d.F64s(box[:])
	// Grid extents, UMax and box as words: all zero when there is no grid.
	var g [10]uint64
	for i := range g {
		g[i] = d.U64()
	}
	var nuN uint64
	var nuMass float64
	if magic == MagicV2 {
		nuN, nuMass = d.U64(), d.F64()
	}
	d.EndSection()
	if d.err == nil && g[0] == 0 && g != [10]uint64{} {
		return nil, fmt.Errorf("snapio: grid words without a grid")
	}

	s.Part = d.particles(n, mass, box)
	if magic == MagicV2 {
		s.NuPart = d.particles(nuN, nuMass, box)
	}
	if g[0] != 0 && d.Fits(4, g[:6]...) {
		f := math.Float64frombits
		s.Grid, d.err = phase.New(int(g[0]), int(g[1]), int(g[2]), [3]int{int(g[3]), int(g[4]), int(g[5])},
			[3]float64{f(g[7]), f(g[8]), f(g[9])}, f(g[6]))
		if s.Grid != nil {
			d.f32s(s.Grid.Data)
			d.EndSection()
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return s, nil
}
