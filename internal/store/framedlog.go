package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// maxRecordLen bounds a single frame's payload. A length prefix past it
// means the frame is garbage (a torn or corrupt header), not a real record.
const maxRecordLen = 16 << 20

// logFile is what framedLog asks of the *os.File it appends to; tests wrap
// it to fail a write part-way or to count fsyncs.
type logFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// framedLog is one append-only file of CRC frames and the only code in the
// package that opens, truncates, fsyncs or renames a store file: the
// journal, the artifact index and the audit log are each a mutex, a
// framedLog, a payload type and a fold over the payloads. It has no lock of
// its own — the owning log's mutex serialises every call.
type framedLog struct {
	dir, name string
	f         logFile // nil once closed; opened O_APPEND, so writes land at the end
	// size and frames describe the file: whole frames only, which is what
	// the journal's auto-compaction thresholds read.
	size   int64
	frames int
	// synced is the byte offset known durable: equal to size after every
	// append, rewrite and close, behind it only while appendUnsynced frames
	// wait for the next fsync. A crash may cut the file anywhere in
	// [synced, size].
	synced int64
	// buf is the frame being written, kept between appends.
	buf []byte
	// broken is set when a failed write could not be rolled back: the file
	// may end in a torn frame, and anything appended behind one is lost to
	// replay, so the log refuses further appends.
	broken error
}

// openLog opens dir/name, creating the directory and an empty file when
// absent, and hands every whole frame's payload to apply in file order.
// Only a short read, an over-long length prefix or a CRC mismatch ends the
// valid prefix — the torn tail a SIGKILL mid-append leaves, which is
// truncated away because a half-written record never happened. What a
// payload means is the caller's business: a CRC-valid frame it cannot
// decode (a newer daemon's record) is skipped by its fold and must not
// cost the acknowledged frames behind it.
//
// Opening never deletes anything: operators rotate audit.v6da by hand, so
// files beside a log are not ours to remove. A stale name.tmp from a
// rewrite killed before its rename is never read — the rename never
// happened, so the real file is authoritative — and the next rewrite
// overwrites it.
func openLog(dir, name string, apply func(payload []byte)) (*framedLog, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	l := &framedLog{dir: dir, name: name}
	f, err := os.OpenFile(l.path(), os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, l.errorf("open", err)
	}
	// Make the file's directory entry durable: a file created just before a
	// power loss otherwise vanishes with the unfsynced directory, taking the
	// first appended records with it.
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, l.errorf("open", err)
	}
	l.size, l.frames = scanFrames(f, apply)
	if err := f.Truncate(l.size); err != nil {
		f.Close()
		return nil, l.errorf("truncate torn tail", err)
	}
	// Frames a killed process wrote without an fsync replay like any other;
	// only the journal writes such frames, and Open rewrites it next.
	l.synced = l.size
	l.f = f
	return l, nil
}

// path is the log's file path.
func (l *framedLog) path() string { return filepath.Join(l.dir, l.name) }

// errorf names the log and the failed operation on an error passed up.
func (l *framedLog) errorf(op string, err error) error {
	return fmt.Errorf("store: %s: %s: %w", l.name, op, err)
}

// errClosed is what append and rewrite return after close.
func (l *framedLog) errClosed() error { return fmt.Errorf("store: %s: closed", l.name) }

// append frames one payload, writes it and fsyncs before returning: a
// record that could be lost to a crash was never acknowledged. The fsync
// covers every appendUnsynced frame before it too.
func (l *framedLog) append(payload []byte) error {
	if err := l.appendUnsynced(payload); err != nil {
		return err
	}
	return l.sync()
}

// appendUnsynced frames one payload and writes it without an fsync: the
// frame is in the file for any later open of it, and durable against power
// loss with the next append, rewrite or close. The frame goes out in one
// write. A failed write may have landed part of it, so the file is cut back
// to the last whole frame and size and frames stay as they were — the next
// append lands behind a whole frame, not a torn one.
func (l *framedLog) appendUnsynced(payload []byte) error {
	if l.f == nil {
		return l.errClosed()
	}
	if l.broken != nil {
		return l.broken
	}
	frame, err := appendFrame(l.buf[:0], payload)
	if err != nil {
		return l.errorf("append", err)
	}
	l.buf = frame
	if _, err := l.f.Write(frame); err != nil {
		if terr := l.f.Truncate(l.size); terr != nil {
			l.broken = l.errorf("append", fmt.Errorf("%w; undoing the failed write: %v", err, terr))
			return l.broken
		}
		return l.errorf("append", err)
	}
	l.size += int64(len(frame))
	l.frames++
	return nil
}

// sync fsyncs the file: every frame written so far is durable.
func (l *framedLog) sync() error {
	if err := l.f.Sync(); err != nil {
		return l.errorf("sync", err)
	}
	l.synced = l.size
	return nil
}

// rewrite replaces the file's contents, atomically, with the payloads emit
// passes to write; later appends land in the new file.
//
// Durability: the temp file is fsynced before the rename, and the parent
// directory is fsynced after it — without the second fsync a power loss
// can roll the rename back to the old file, resurrecting what the rewrite
// dropped (the journal's terminal jobs) and losing every append made
// since. A rewrite interrupted by a kill leaves at worst a stale name.tmp
// (see openLog).
func (l *framedLog) rewrite(emit func(write func(payload []byte) error) error) error {
	if l.f == nil {
		return l.errClosed()
	}
	tmp := l.path() + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return l.errorf("rewrite", err)
	}
	var size int64
	frames := 0
	err = emit(func(payload []byte) error {
		frame, err := appendFrame(l.buf[:0], payload)
		if err != nil {
			return err
		}
		l.buf = frame
		size += int64(len(frame))
		frames++
		_, err = f.Write(frame)
		return err
	})
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, l.path())
	}
	if err != nil {
		os.Remove(tmp)
		return l.errorf("rewrite", err)
	}
	if err := syncDir(l.dir); err != nil {
		return l.errorf("rewrite", err)
	}
	l.f.Close()
	f, err = os.OpenFile(l.path(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return l.errorf("reopen after rewrite", err)
	}
	l.f, l.size, l.frames, l.synced = f, size, frames, size
	return nil
}

// close fsyncs any appendUnsynced frames still waiting for one and closes
// the file. append and rewrite fail afterwards; size and frames keep their
// last values.
func (l *framedLog) close() error {
	if l.f == nil {
		return nil
	}
	var err error
	if l.synced < l.size {
		err = l.sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// syncDir fsyncs a directory: the durability step for metadata operations
// (file creation, rename). An fsynced file inside an unfsynced directory
// is not crash-durable — the rename that installed a compacted journal
// can roll back on power loss, resurrecting the jobs it dropped.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// scanFrames hands each whole frame's payload to apply until the first
// frame that does not read back (clean EOF, torn or corrupt alike), and
// returns the byte length and frame count of that valid prefix.
func scanFrames(r io.Reader, apply func(payload []byte)) (size int64, frames int) {
	for {
		payload, err := readFrame(r)
		if err != nil {
			return size, frames
		}
		size += int64(8 + len(payload))
		frames++
		apply(payload)
	}
}

// appendFrame appends one CRC frame to dst: u32-LE payload length, u32-LE
// CRC32 (IEEE) of the payload, payload bytes. One codec for all three logs,
// so each survives a SIGKILL mid-append the same way.
func appendFrame(dst, payload []byte) ([]byte, error) {
	if len(payload) > maxRecordLen {
		// readFrame would take it for garbage and end the valid prefix there.
		return dst, fmt.Errorf("store: frame payload of %d bytes exceeds limit", len(payload))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...), nil
}

// readFrame reads one CRC frame's payload. io.EOF means a clean end; any
// other error means a torn or corrupt frame starting at the current offset.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("store: torn frame header")
		}
		return nil, err // io.EOF: clean end
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if length > maxRecordLen {
		return nil, fmt.Errorf("store: frame length %d exceeds limit", length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("store: torn frame payload: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("store: frame CRC mismatch")
	}
	return payload, nil
}
