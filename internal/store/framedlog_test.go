package store

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// handFrame builds one frame with the header arithmetic spelled out, so the
// tests below pin the on-disk bytes independently of writeFrame.
func handFrame(payload []byte) []byte {
	n, sum := uint32(len(payload)), crc32.ChecksumIEEE(payload)
	hdr := []byte{
		byte(n), byte(n >> 8), byte(n >> 16), byte(n >> 24),
		byte(sum), byte(sum >> 8), byte(sum >> 16), byte(sum >> 24),
	}
	return append(hdr, payload...)
}

// writeFrame writes one hand-built frame: how tests fabricate files.
func writeFrame(w io.Writer, payload []byte) (int, error) {
	return w.Write(handFrame(payload))
}

// logUnderTest drives one of the three logs through its exported surface,
// so the protocol table checks the fold each log puts on top of framedLog
// and not just the frame scan.
type logUnderTest struct {
	file string
	// rewrites is false for the audit log, which is never rewritten.
	rewrites bool
	// payload is the JSON the log itself would write for record i.
	payload func(i int) []byte
	// open opens the log under dir and returns its operations.
	open func(t *testing.T, dir string) openedLog
}

type openedLog struct {
	ids     func() []int // the records the fold kept, in order
	put     func(i int) error
	compact func() error // nil when the log never rewrites
	close   func() error
}

var protocolSpec = json.RawMessage(`{"scenario":"landau"}`)

func logsUnderTest() []logUnderTest {
	return []logUnderTest{
		{
			file: journalName, rewrites: true,
			payload: func(i int) []byte {
				p, _ := json.Marshal(record{Type: "submitted", ID: i, Tenant: "t", Spec: protocolSpec, UnixNano: 1, Seq: EventSeqBlock})
				return p
			},
			open: func(t *testing.T, dir string) openedLog {
				s, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				return openedLog{
					ids: func() []int {
						var ids []int
						for _, j := range s.Pending() {
							ids = append(ids, j.ID)
						}
						return ids
					},
					put:     func(i int) error { return s.Submitted(i, "t", protocolSpec, time.Unix(0, 1)) },
					compact: s.Compact,
					close:   s.Close,
				}
			},
		},
		{
			file: indexName, rewrites: true,
			payload: func(i int) []byte {
				p, _ := json.Marshal(IndexEntry{ID: i, Name: "n", Status: "done"})
				return p
			},
			open: func(t *testing.T, dir string) openedLog {
				ix, err := OpenIndex(dir)
				if err != nil {
					t.Fatal(err)
				}
				return openedLog{
					ids: func() []int {
						var ids []int
						for _, e := range ix.Entries() {
							ids = append(ids, e.ID)
						}
						return ids
					},
					put:     func(i int) error { return ix.Put(IndexEntry{ID: i, Name: "n", Status: "done"}) },
					compact: ix.Compact,
					close:   ix.Close,
				}
			},
		},
		{
			file: auditName,
			payload: func(i int) []byte {
				p, _ := json.Marshal(AuditRecord{UnixNano: 1, Outcome: "accept", JobID: i})
				return p
			},
			open: func(t *testing.T, dir string) openedLog {
				a, err := OpenAudit(dir)
				if err != nil {
					t.Fatal(err)
				}
				return openedLog{
					ids: func() []int {
						recs, err := ReadAuditLog(dir)
						if err != nil {
							t.Fatal(err)
						}
						var ids []int
						for _, r := range recs {
							ids = append(ids, r.JobID)
						}
						return ids
					},
					put:   func(i int) error { return a.Append(AuditRecord{UnixNano: 1, Outcome: "accept", JobID: i}) },
					close: a.Close,
				}
			},
		},
	}
}

// TestLogProtocol is the file protocol, once, against all three logs: what
// ends the valid prefix, what does not, and where appends land. Record ids
// start at 1 (id 0 is omitted from the JSON, which would hide a fold that
// kept a half-decoded record).
func TestLogProtocol(t *testing.T) {
	// CRC-valid, but "id", "job_id" and "unix_nano" have the wrong JSON type
	// for every log's payload struct.
	undecodable := []byte(`{"type":"submitted","id":"seven","job_id":"seven","unix_nano":"late"}`)
	corruptions := []struct {
		name string
		// file builds the damaged file from the log's own payloads; want is
		// the ids that must survive the open.
		file func(p func(int) []byte) []byte
		want []int
	}{
		{"torn header", func(p func(int) []byte) []byte {
			return bytes.Join([][]byte{handFrame(p(1)), handFrame(p(2)), {0xff, 0, 0, 0, 0x12}}, nil)
		}, []int{1, 2}},
		{"torn payload", func(p func(int) []byte) []byte {
			return bytes.Join([][]byte{handFrame(p(1)), handFrame(p(2)), handFrame(p(3))[:8+len(p(3))/2]}, nil)
		}, []int{1, 2}},
		{"flipped payload byte", func(p func(int) []byte) []byte {
			bad := handFrame(p(2))
			bad[len(bad)-2] ^= 0x40
			return bytes.Join([][]byte{handFrame(p(1)), bad, handFrame(p(3))}, nil)
		}, []int{1}},
		{"length prefix over 16 MiB", func(p func(int) []byte) []byte {
			over := []byte{0x01, 0x00, 0x00, 0x01, 0, 0, 0, 0, 'x', 'x', 'x', 'x'} // 16 MiB + 1
			return bytes.Join([][]byte{handFrame(p(1)), over, handFrame(p(3))}, nil)
		}, []int{1}},
		{"undecodable payload mid-file", func(p func(int) []byte) []byte {
			return bytes.Join([][]byte{handFrame(p(1)), handFrame(undecodable), handFrame(p(3))}, nil)
		}, []int{1, 3}},
	}
	for _, lg := range logsUnderTest() {
		path := func(dir string) string { return filepath.Join(dir, lg.file) }
		for _, c := range corruptions {
			t.Run(lg.file+"/"+c.name, func(t *testing.T) {
				dir := t.TempDir()
				if err := os.WriteFile(path(dir), c.file(lg.payload), 0o644); err != nil {
					t.Fatal(err)
				}
				o := lg.open(t, dir)
				if got := o.ids(); !slices.Equal(got, c.want) {
					t.Fatalf("after open: ids %v, want %v", got, c.want)
				}
				// The damage is gone from the file: an append lands behind
				// the valid prefix and both survive the next open.
				if err := o.put(9); err != nil {
					t.Fatal(err)
				}
				o.close()
				o = lg.open(t, dir)
				defer o.close()
				if got, want := o.ids(), append(append([]int(nil), c.want...), 9); !slices.Equal(got, want) {
					t.Fatalf("after append and reopen: ids %v, want %v", got, want)
				}
			})
		}
		t.Run(lg.file+"/first create", func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "made", "by", "open")
			o := lg.open(t, dir)
			if got := o.ids(); len(got) != 0 {
				t.Fatalf("fresh log holds %v", got)
			}
			if _, err := os.Stat(path(dir)); err != nil {
				t.Fatalf("open did not create the file: %v", err)
			}
			if err := o.put(1); err != nil {
				t.Fatal(err)
			}
			o.close()
			o = lg.open(t, dir)
			defer o.close()
			if got := o.ids(); !slices.Equal(got, []int{1}) {
				t.Fatalf("after reopen: ids %v, want [1]", got)
			}
		})
		t.Run(lg.file+"/append after close", func(t *testing.T) {
			o := lg.open(t, t.TempDir())
			if err := o.close(); err != nil {
				t.Fatal(err)
			}
			if err := o.put(1); err == nil || !strings.Contains(err.Error(), "closed") {
				t.Fatalf("append after close: %v, want a closed error", err)
			}
			if err := o.close(); err != nil {
				t.Fatalf("second close: %v", err)
			}
		})
		t.Run(lg.file+"/stale tmp", func(t *testing.T) {
			// A .tmp beside the log holds a different world. The rewriting
			// logs never replay it and their next rewrite consumes it; the
			// audit log never rewrites, so a .tmp beside it is somebody
			// else's file (operators rotate audit.v6da by hand) and opening
			// must leave it exactly as found.
			dir := t.TempDir()
			ghost := handFrame(lg.payload(7))
			if err := os.WriteFile(path(dir), handFrame(lg.payload(1)), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path(dir)+".tmp", ghost, 0o644); err != nil {
				t.Fatal(err)
			}
			o := lg.open(t, dir)
			defer o.close()
			if got := o.ids(); !slices.Equal(got, []int{1}) {
				t.Fatalf("ids %v, want [1] (the .tmp must not be replayed)", got)
			}
			left, err := os.ReadFile(path(dir) + ".tmp")
			if lg.rewrites {
				if !os.IsNotExist(err) {
					t.Fatalf("stale .tmp still there after open (err %v)", err)
				}
			} else if err != nil || !bytes.Equal(left, ghost) {
				t.Fatalf("foreign .tmp touched: %q, %v", left, err)
			}
		})
		if !lg.rewrites {
			continue
		}
		t.Run(lg.file+"/append after rewrite", func(t *testing.T) {
			dir := t.TempDir()
			o := lg.open(t, dir)
			if err := o.put(1); err != nil {
				t.Fatal(err)
			}
			if err := o.compact(); err != nil {
				t.Fatal(err)
			}
			if err := o.put(2); err != nil {
				t.Fatal(err)
			}
			// Read the file, not the memory: the post-rewrite append must be
			// in the file the rename installed.
			raw, err := os.ReadFile(path(dir))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasSuffix(raw, handFrame(lg.payload(2))) || !bytes.Contains(raw, handFrame(lg.payload(1))) {
				t.Fatalf("file after rewrite + append does not hold both records: %q", raw)
			}
			o.close()
			o = lg.open(t, dir)
			defer o.close()
			if got := o.ids(); !slices.Equal(got, []int{1, 2}) {
				t.Fatalf("after reopen: ids %v, want [1 2]", got)
			}
		})
	}
}

// TestGoldenBytes pins "same bytes on disk" in both directions: files framed
// by hand (literal JSON, header arithmetic in handFrame, one frame with its
// CRC written out) open to the expected state, and the three logs write
// exactly those bytes.
func TestGoldenBytes(t *testing.T) {
	// The CRC-32/IEEE check value: crc32("123456789") = 0xCBF43926.
	check := []byte{9, 0, 0, 0, 0x26, 0x39, 0xF4, 0xCB, '1', '2', '3', '4', '5', '6', '7', '8', '9'}
	if got := handFrame([]byte("123456789")); !bytes.Equal(got, check) {
		t.Fatalf("handFrame = % x, want % x", got, check)
	}
	if got, err := appendFrame(nil, []byte("123456789")); err != nil || !bytes.Equal(got, check) {
		t.Fatalf("appendFrame = % x (%v), want % x", got, err, check)
	}
	if p, err := readFrame(bytes.NewReader(check)); err != nil || string(p) != "123456789" {
		t.Fatalf("readFrame = %q, %v", p, err)
	}

	const (
		seq       = `{"type":"seq","next":6}`
		submitted = `{"type":"submitted","id":5,"tenant":"alice","spec":{"scenario":"landau"},"unix_nano":1700000000000000001,"seq":4096}`
		// What a daemon from before the submitted record carried the first
		// event block wrote: it must keep replaying, to a job with nothing
		// reserved, and boot compaction must hand back the same bytes.
		oldSubmitted = `{"type":"submitted","id":4,"tenant":"bob","spec":{"scenario":"landau"},"unix_nano":1700000000000000000}`
		entry        = `{"id":5,"tenant":"alice","name":"landau-x","status":"done","report":{"steps":2,"clock":0.5,"wall_seconds":1.5,"reason":"until","checkpoints":0,"checkpoint_bytes":0,"dropped_obs":0}}`
		audit1       = `{"unix_nano":1700000000000000001,"tenant":"alice","outcome":"accept","spec_hash":"abc","job_id":5}`
		audit2       = `{"unix_nano":1700000000000000002,"outcome":"401","reason":"unknown bearer token"}`
	)
	at := time.Unix(0, 1700000000000000001)
	journalFile := bytes.Join([][]byte{handFrame([]byte(seq)), handFrame([]byte(oldSubmitted)), handFrame([]byte(submitted))}, nil)
	indexFile := handFrame([]byte(entry))
	auditFile := append(handFrame([]byte(audit1)), handFrame([]byte(audit2))...)
	wantEntry := IndexEntry{ID: 5, Tenant: "alice", Name: "landau-x", Status: "done",
		Report: &ReportSummary{Steps: 2, Clock: 0.5, WallSeconds: 1.5, Reason: "until"}}
	wantAudit := []AuditRecord{
		{UnixNano: 1700000000000000001, Tenant: "alice", Outcome: "accept", SpecHash: "abc", JobID: 5},
		{UnixNano: 1700000000000000002, Outcome: "401", Reason: "unknown bearer token"},
	}

	// Hand-framed files → state.
	dir := t.TempDir()
	for name, raw := range map[string][]byte{journalName: journalFile, indexName: indexFile, auditName: auditFile} {
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := openStore(t, dir)
	p := s.Pending()
	if len(p) != 2 || p[1].ID != 5 || p[1].Tenant != "alice" || string(p[1].Spec) != `{"scenario":"landau"}` ||
		!p[1].Submitted.Equal(at) || p[1].EventSeqReserved != EventSeqBlock {
		t.Fatalf("journal read back as %+v", p)
	}
	if p[0].ID != 4 || p[0].Tenant != "bob" || !p[0].Submitted.Equal(at.Add(-1)) || p[0].EventSeqReserved != 0 {
		t.Fatalf("pre-block submitted record read back as %+v", p[0])
	}
	if next := s.NextID(); next != 6 {
		t.Fatalf("NextID = %d, want 6", next)
	}
	ix, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if e, ok := ix.Get(5); !ok || e.Tenant != "alice" || e.Name != "landau-x" || e.Report == nil || *e.Report != *wantEntry.Report {
		t.Fatalf("index read back as %+v (ok=%v)", e, ok)
	}
	if got, err := ReadAuditLog(dir); err != nil || len(got) != 2 || got[0] != wantAudit[0] || got[1] != wantAudit[1] {
		t.Fatalf("audit read back as %+v, %v", got, err)
	}
	// Boot compaction of an all-pending journal and a duplicate-free index
	// rewrites the same bytes.
	for name, raw := range map[string][]byte{journalName: journalFile, indexName: indexFile} {
		if got, _ := os.ReadFile(filepath.Join(dir, name)); !bytes.Equal(got, raw) {
			t.Fatalf("%s after open:\n%q\nwant\n%q", name, got, raw)
		}
	}

	// State → the same bytes, through the exported calls.
	dir = t.TempDir()
	s = openStore(t, dir)
	if err := s.Submitted(5, "alice", json.RawMessage(`{"scenario":"landau"}`), at); err != nil {
		t.Fatal(err)
	}
	journalFile = append(handFrame([]byte(seq)), handFrame([]byte(submitted))...)
	if err := s.Compact(); err != nil { // folds the boot seq record (next 0) into next 6
		t.Fatal(err)
	}
	ix2, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	if err := ix2.Put(wantEntry); err != nil {
		t.Fatal(err)
	}
	a, err := OpenAudit(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for _, r := range wantAudit {
		if err := a.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	for name, want := range map[string][]byte{journalName: journalFile, indexName: indexFile, auditName: auditFile} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s written as\n%q\nwant\n%q", name, got, want)
		}
	}
}

// TestOversizePayloadRefused: a payload readFrame would reject as garbage
// must never be written — it would end the valid prefix at its own frame
// and cost every record appended after it.
func TestOversizePayloadRefused(t *testing.T) {
	dir := t.TempDir()
	ix, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if err := ix.Put(IndexEntry{ID: 1, Name: "ok", Status: "done"}); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(filepath.Join(dir, indexName))
	if err := ix.Put(IndexEntry{ID: 2, Status: "failed", Error: strings.Repeat("x", maxRecordLen)}); err == nil {
		t.Fatal("a payload over the frame limit was accepted")
	}
	if after, _ := os.ReadFile(filepath.Join(dir, indexName)); !bytes.Equal(before, after) {
		t.Fatalf("refused payload changed the file: %d -> %d bytes", len(before), len(after))
	}
	if _, ok := ix.Get(2); ok {
		t.Fatal("refused entry is served from memory")
	}
}

// FuzzFramedLogOpen: arbitrary bytes as the file. Open never panics, the
// file is truncated to exactly its whole-frame prefix, every payload handed
// to apply re-frames to those bytes, and a second open changes nothing.
func FuzzFramedLogOpen(f *testing.F) {
	one := handFrame([]byte(`{"type":"seq","next":3}`))
	two := append(append([]byte(nil), one...), handFrame([]byte(`{"type":"submitted","id":1}`))...)
	flipped := append([]byte(nil), two...)
	flipped[len(one)+10] ^= 0x01
	for _, seed := range [][]byte{
		nil,
		one,
		two,
		append(append([]byte(nil), two...), 0xff, 0, 0, 0, 0x12), // torn header
		two[:len(two)-3], // torn payload
		flipped,          // CRC mismatch in the second frame
		append(append([]byte(nil), one...), 0x01, 0x00, 0x00, 0x01, 0, 0, 0, 0, 'x'), // 16 MiB + 1
		make([]byte, 24),              // three empty frames: CRC32("") is 0
		handFrame([]byte("not json")), // whole frame, meaningless payload
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.v6d")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() (prefix []byte, l *framedLog) {
			l, err := openLog(dir, "fuzz.v6d", func(payload []byte) {
				prefix = append(prefix, handFrame(payload)...)
			})
			if err != nil {
				t.Fatal(err)
			}
			return prefix, l
		}
		prefix, l := open()
		frames := l.frames
		if !bytes.HasPrefix(data, prefix) {
			t.Fatalf("replayed payloads re-frame to %q, not a prefix of the file %q", prefix, data)
		}
		if l.size != int64(len(prefix)) {
			t.Fatalf("size %d, re-framed prefix %d", l.size, len(prefix))
		}
		if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, prefix) {
			t.Fatalf("file after open is %q (%v), want the whole-frame prefix %q", onDisk, err, prefix)
		}
		// Whatever follows the prefix must not itself start with a whole frame.
		if p, err := readFrame(bytes.NewReader(data[len(prefix):])); err == nil {
			t.Fatalf("valid frame %q left behind the prefix", p)
		}
		l.close()
		again, l := open()
		defer l.close()
		if !bytes.Equal(again, prefix) || l.frames != frames || l.size != int64(len(prefix)) {
			t.Fatalf("second open replayed %q (%d frames), first %q (%d)", again, l.frames, prefix, frames)
		}
	})
}
