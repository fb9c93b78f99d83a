package store

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)

	spec := json.RawMessage(`{"scenario":"landau","params":{"nv":64,"nx":32}}`)
	at := time.Unix(1700000000, 123456789)
	id := s.NextID()
	if id != 0 {
		t.Fatalf("first id = %d", id)
	}
	if err := s.Submitted(id, "alice", spec, at); err != nil {
		t.Fatal(err)
	}
	if err := s.Started(id, 1); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// A fresh Open replays everything: the job is pending (no terminal
	// record), its spec byte-identical, its attempt count intact.
	s2 := openStore(t, dir)
	pending := s2.Pending()
	if len(pending) != 1 {
		t.Fatalf("pending = %d jobs", len(pending))
	}
	j := pending[0]
	if j.ID != 0 || j.Tenant != "alice" || j.Attempts != 1 {
		t.Fatalf("replayed state: %+v", j)
	}
	if !bytes.Equal(j.Spec, spec) {
		t.Fatalf("spec did not round-trip byte-stably: %s vs %s", j.Spec, spec)
	}
	if !j.Submitted.Equal(at) {
		t.Fatalf("submitted time %v, want %v", j.Submitted, at)
	}
	if next := s2.NextID(); next != 1 {
		t.Fatalf("NextID after replay = %d", next)
	}
}

func TestTerminalJobsCompactedAway(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	spec := json.RawMessage(`{"scenario":"landau"}`)
	now := time.Now()
	for i := 0; i < 3; i++ {
		id := s.NextID()
		if err := s.Submitted(id, "", spec, now); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Terminal(0, "done", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Terminal(2, "failed", "boom"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	sizeBefore := journalSize(t, dir)

	// Reopen: only job 1 survives, the journal shrank (compaction dropped
	// the terminal jobs' records), and the id counter did not rewind.
	s2 := openStore(t, dir)
	pending := s2.Pending()
	if len(pending) != 1 || pending[0].ID != 1 {
		t.Fatalf("pending after compaction: %+v", pending)
	}
	if got := journalSize(t, dir); got >= sizeBefore {
		t.Fatalf("journal did not shrink: %d -> %d bytes", sizeBefore, got)
	}
	if next := s2.NextID(); next != 3 {
		t.Fatalf("NextID after compaction = %d (terminal ids must not be reissued)", next)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	spec := json.RawMessage(`{"scenario":"landau"}`)
	if err := s.Submitted(s.NextID(), "", spec, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := s.Submitted(s.NextID(), "", spec, time.Now()); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate a SIGKILL mid-append: a torn frame (header promising more
	// bytes than exist) at the tail.
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 0x12, 0x34}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openStore(t, dir)
	if got := len(s2.Pending()); got != 2 {
		t.Fatalf("pending after torn tail = %d, want 2", got)
	}
	// The torn bytes are gone: appending and replaying again works.
	if err := s2.Submitted(s2.NextID(), "", spec, time.Now()); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := openStore(t, dir)
	if got := len(s3.Pending()); got != 3 {
		t.Fatalf("pending after re-append = %d, want 3", got)
	}
}

func TestCorruptFrameStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	spec := json.RawMessage(`{"scenario":"landau"}`)
	if err := s.Submitted(s.NextID(), "", spec, time.Now()); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Flip a payload byte: the CRC catches it and replay keeps only the
	// records before the damage (here: none after).
	path := filepath.Join(dir, journalName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir)
	// The first frame is the compaction seq record; the damaged submitted
	// frame is dropped.
	if got := len(s2.Pending()); got != 0 {
		t.Fatalf("pending after corrupt frame = %d, want 0", got)
	}
}

func TestUserCancelIsTerminal(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	id := s.NextID()
	if err := s.Submitted(id, "", json.RawMessage(`{}`), time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := s.Terminal(id, "cancelled", ""); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openStore(t, dir)
	if got := len(s2.Pending()); got != 0 {
		t.Fatalf("user-cancelled job replayed as pending")
	}
}

// TestOnlineCompaction: with auto-compaction armed, journaling terminal
// outcomes on a live store shrinks the journal in place — no reboot —
// while pending jobs and the id counter survive intact.
func TestOnlineCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	s.SetAutoCompact(0, 12)
	spec := json.RawMessage(`{"scenario":"landau"}`)
	now := time.Now()

	// One long-lived pending job that must survive every compaction.
	keeper := s.NextID()
	if err := s.Submitted(keeper, "alice", spec, now); err != nil {
		t.Fatal(err)
	}
	// Churn: short jobs that submit, run, and finish. Every terminal pushes
	// the record count toward the threshold; auto-compaction keeps folding
	// the finished ones away.
	var peak int64
	for i := 0; i < 40; i++ {
		id := s.NextID()
		if err := s.Submitted(id, "bob", spec, now); err != nil {
			t.Fatal(err)
		}
		if err := s.Started(id, 1); err != nil {
			t.Fatal(err)
		}
		if err := s.Terminal(id, "done", ""); err != nil {
			t.Fatal(err)
		}
		if sz := s.Size(); sz > peak {
			peak = sz
		}
	}
	// 40 jobs × 3 records would be ~120 records uncompacted; the threshold
	// caps in-file growth. The final size must reflect only live work.
	if got := len(s.Pending()); got != 1 || s.Pending()[0].ID != keeper {
		t.Fatalf("pending after churn: %+v", s.Pending())
	}
	if sz := journalSize(t, dir); sz > peak/2 {
		t.Fatalf("journal never shrank online: %d bytes on disk, peak %d", sz, peak)
	}
	// The post-compaction file is a valid journal: reopen and check.
	s.Close()
	s2 := openStore(t, dir)
	if got := s2.Pending(); len(got) != 1 || got[0].ID != keeper || got[0].Tenant != "alice" {
		t.Fatalf("replay after online compaction: %+v", got)
	}
	if next := s2.NextID(); next != 41 {
		t.Fatalf("NextID after online compaction = %d, want 41", next)
	}
}

// TestCompactConcurrentAppends drives Compact against racing appenders:
// every record journaled before its job's terminal must survive or be
// compacted away exactly according to terminal state, never torn.
func TestCompactConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	spec := json.RawMessage(`{"scenario":"landau"}`)
	now := time.Now()
	const perWorker = 25
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := s.NextID()
				if err := s.Submitted(id, "t", spec, now); err != nil {
					t.Error(err)
					return
				}
				if id%2 == 0 {
					if err := s.Terminal(id, "done", ""); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := s.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	wantPending := len(s.Pending())
	s.Close()
	s2 := openStore(t, dir)
	if got := len(s2.Pending()); got != wantPending {
		t.Fatalf("pending after concurrent compaction: %d, want %d", got, wantPending)
	}
}

// TestOpenIgnoresLeftoverTmp pins the crash-interrupted-compaction
// contract: a journal.v6dj.tmp left by a compaction killed between its
// write and its rename must be removed by Open and NEVER replayed — the
// tmp may describe a world the real journal contradicts.
func TestOpenIgnoresLeftoverTmp(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	spec := json.RawMessage(`{"scenario":"landau"}`)
	id := s.NextID()
	if err := s.Submitted(id, "alice", spec, time.Now()); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Fabricate the killed compaction's leftovers: a tmp journal holding a
	// DIFFERENT world — a bogus job that must not come back to life.
	tmp := filepath.Join(dir, journalName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writeRecord(f, record{Type: "seq", Next: 99}); err != nil {
		t.Fatal(err)
	}
	if _, err := writeRecord(f, record{Type: "submitted", ID: 77, Tenant: "ghost",
		Spec: spec, UnixNano: time.Now().UnixNano()}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openStore(t, dir)
	pending := s2.Pending()
	if len(pending) != 1 || pending[0].ID != id || pending[0].Tenant != "alice" {
		t.Fatalf("pending after leftover tmp: %+v", pending)
	}
	if next := s2.NextID(); next >= 99 {
		t.Fatalf("tmp's seq record leaked into the id counter: next = %d", next)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("leftover tmp not removed: %v", err)
	}
}

// TestOpenIndexIgnoresLeftoverTmp is the index half of the same contract.
func TestOpenIndexIgnoresLeftoverTmp(t *testing.T) {
	dir := t.TempDir()
	ix, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Put(IndexEntry{ID: 1, Name: "real", Status: "done"}); err != nil {
		t.Fatal(err)
	}
	ix.Close()

	tmp := filepath.Join(dir, indexName+".tmp")
	payload, _ := json.Marshal(IndexEntry{ID: 2, Name: "ghost", Status: "done"})
	f, err := os.Create(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writeFrame(f, payload); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ix2, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	if _, ok := ix2.Get(2); ok {
		t.Fatal("leftover index tmp was replayed")
	}
	if e, ok := ix2.Get(1); !ok || e.Name != "real" {
		t.Fatalf("real entry lost: %+v ok=%v", e, ok)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("leftover index tmp not removed: %v", err)
	}
}

// writeRecord frames one journal record as JSON (fabricated files only; the
// store itself marshals in appendLocked and compactLocked).
func writeRecord(w io.Writer, rec record) (int, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return 0, err
	}
	return writeFrame(w, payload)
}

func journalSize(t *testing.T, dir string) int64 {
	t.Helper()
	st, err := os.Stat(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}
