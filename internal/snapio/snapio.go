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
package snapio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"

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

// Read deserialises a snapshot, verifying every checksum.
func Read(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	le := binary.LittleEndian
	readU64 := func(h hash.Hash32) (uint64, error) {
		var b [8]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		if h != nil {
			h.Write(b[:])
		}
		return le.Uint64(b[:]), nil
	}
	readF64 := func(h hash.Hash32) (float64, error) {
		v, err := readU64(h)
		return math.Float64frombits(v), err
	}

	hdr := crc32.NewIEEE()
	magic, err := readU64(hdr)
	if err != nil {
		return nil, err
	}
	if magic != Magic && magic != MagicV2 {
		return nil, fmt.Errorf("snapio: bad magic %#x", magic)
	}
	v2 := magic == MagicV2
	s := &Snapshot{}
	if s.A, err = readF64(hdr); err != nil {
		return nil, err
	}
	if s.Time, err = readF64(hdr); err != nil {
		return nil, err
	}
	n64, err := readU64(hdr)
	if err != nil {
		return nil, err
	}
	mass, err := readF64(hdr)
	if err != nil {
		return nil, err
	}
	var box [3]float64
	for d := 0; d < 3; d++ {
		if box[d], err = readF64(hdr); err != nil {
			return nil, err
		}
	}
	var gdims [7]uint64
	for i := range gdims {
		if gdims[i], err = readU64(hdr); err != nil {
			return nil, err
		}
	}
	var gbox [3]float64
	for d := 0; d < 3; d++ {
		if gbox[d], err = readF64(hdr); err != nil {
			return nil, err
		}
	}
	var nuN64 uint64
	var nuMass float64
	if v2 {
		if nuN64, err = readU64(hdr); err != nil {
			return nil, err
		}
		if nuMass, err = readF64(hdr); err != nil {
			return nil, err
		}
	}
	wantSum := hdr.Sum32()
	sum, err := readU64(nil)
	if err != nil {
		return nil, err
	}
	if uint32(sum) != wantSum {
		return nil, fmt.Errorf("snapio: header checksum mismatch")
	}

	part, err := nbody.NewParticles(int(n64), mass, box)
	if err != nil {
		return nil, err
	}
	ps := crc32.NewIEEE()
	readFloats := func(h hash.Hash32, dst []float64) error {
		b := make([]byte, 8)
		for i := range dst {
			if _, err := io.ReadFull(br, b); err != nil {
				return err
			}
			h.Write(b)
			dst[i] = math.Float64frombits(le.Uint64(b))
		}
		return nil
	}
	for d := 0; d < 3; d++ {
		if err := readFloats(ps, part.Pos[d]); err != nil {
			return nil, err
		}
	}
	for d := 0; d < 3; d++ {
		if err := readFloats(ps, part.Vel[d]); err != nil {
			return nil, err
		}
	}
	wantSum = ps.Sum32()
	if sum, err = readU64(nil); err != nil {
		return nil, err
	}
	if uint32(sum) != wantSum {
		return nil, fmt.Errorf("snapio: particle checksum mismatch")
	}
	s.Part = part

	if v2 && nuN64 > 0 {
		nuPart, err := nbody.NewParticles(int(nuN64), nuMass, box)
		if err != nil {
			return nil, err
		}
		ns := crc32.NewIEEE()
		for d := 0; d < 3; d++ {
			if err := readFloats(ns, nuPart.Pos[d]); err != nil {
				return nil, err
			}
		}
		for d := 0; d < 3; d++ {
			if err := readFloats(ns, nuPart.Vel[d]); err != nil {
				return nil, err
			}
		}
		wantSum = ns.Sum32()
		if sum, err = readU64(nil); err != nil {
			return nil, err
		}
		if uint32(sum) != wantSum {
			return nil, fmt.Errorf("snapio: ν-particle checksum mismatch")
		}
		s.NuPart = nuPart
	}

	if gdims[0] > 0 {
		g, err := phase.New(int(gdims[0]), int(gdims[1]), int(gdims[2]),
			[3]int{int(gdims[3]), int(gdims[4]), int(gdims[5])},
			gbox, math.Float64frombits(gdims[6]))
		if err != nil {
			return nil, err
		}
		gs := crc32.NewIEEE()
		b4 := make([]byte, 4)
		for i := range g.Data {
			if _, err := io.ReadFull(br, b4); err != nil {
				return nil, err
			}
			gs.Write(b4)
			g.Data[i] = math.Float32frombits(le.Uint32(b4))
		}
		wantSum = gs.Sum32()
		if sum, err = readU64(nil); err != nil {
			return nil, err
		}
		if uint32(sum) != wantSum {
			return nil, fmt.Errorf("snapio: phase-space checksum mismatch")
		}
		s.Grid = g
	}
	return s, nil
}
