package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// testFile stands between a framedLog and its file: it counts fsyncs, and
// on cue lets a write land only its first tear bytes before failing, or
// fails a truncate.
type testFile struct {
	logFile
	syncs    int
	tear     int // > 0: the next Write lands this many bytes, then fails
	truncErr error
}

func (f *testFile) Write(p []byte) (int, error) {
	if f.tear > 0 {
		n, _ := f.logFile.Write(p[:f.tear])
		f.tear = 0
		return n, errors.New("no space left on device")
	}
	return f.logFile.Write(p)
}

func (f *testFile) Sync() error {
	f.syncs++
	return f.logFile.Sync()
}

func (f *testFile) Truncate(size int64) error {
	if f.truncErr != nil {
		return f.truncErr
	}
	return f.logFile.Truncate(size)
}

// intercept puts a testFile under l.
func intercept(l *framedLog) *testFile {
	tf := &testFile{logFile: l.f}
	l.f = tf
	return tf
}

// TestFailedAppendLeavesNoTornFrame: a write that fails part-way must not
// leave its bytes in the file or in size — every later append would land
// behind a torn frame, and replay ends at the first one.
func TestFailedAppendLeavesNoTornFrame(t *testing.T) {
	dir := t.TempDir()
	replayed := func() []string {
		var got []string
		l, err := openLog(dir, "t.v6d", func(p []byte) { got = append(got, string(p)) })
		if err != nil {
			t.Fatal(err)
		}
		l.close()
		return got
	}
	l, err := openLog(dir, "t.v6d", func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	tf := intercept(l)
	if err := l.append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	size, frames := l.size, l.frames
	for _, tear := range []int{3, 8, 11} { // inside the header, at its end, inside the payload
		tf.tear = tear
		if err := l.append([]byte("never happened")); err == nil {
			t.Fatalf("append with a write torn at byte %d succeeded", tear)
		}
		if l.size != size || l.frames != frames {
			t.Fatalf("failed append moved size/frames to %d/%d, want %d/%d", l.size, l.frames, size, frames)
		}
		if st, err := os.Stat(l.path()); err != nil || st.Size() != size {
			t.Fatalf("file is %d bytes after the failed append, want %d (%v)", st.Size(), size, err)
		}
	}
	if err := l.append([]byte("second")); err != nil {
		t.Fatal(err)
	}
	l.close()
	if got, want := replayed(), []string{"first", "second"}; !slices.Equal(got, want) {
		t.Fatalf("replayed %q, want %q", got, want)
	}

	// The torn bytes cannot be cut away either: nothing more may be appended
	// behind them, and what was whole before still replays.
	if l, err = openLog(dir, "t.v6d", func([]byte) {}); err != nil {
		t.Fatal(err)
	}
	tf = intercept(l)
	tf.tear, tf.truncErr = 5, errors.New("read-only file system")
	if err := l.append([]byte("torn")); err == nil {
		t.Fatal("torn append succeeded")
	}
	tf.truncErr = nil
	if err := l.append([]byte("third")); err == nil || !strings.Contains(err.Error(), "read-only file system") {
		t.Fatalf("append behind a torn frame: %v, want the rollback failure", err)
	}
	l.close()
	if got, want := replayed(), []string{"first", "second"}; !slices.Equal(got, want) {
		t.Fatalf("replayed %q, want %q", got, want)
	}
}

// TestJobCostsTwoSyncs counts the journal fsyncs on a job's path: submitted
// and terminal, with the started hint between them riding the terminal's. A trailing hint is made durable by Close.
func TestJobCostsTwoSyncs(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	tf := intercept(s.log)
	for _, err := range []error{
		s.Submitted(1, "a", protocolSpec, time.Unix(0, 1)),
		s.Started(1, 1),
		s.Terminal(1, "done", ""),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if tf.syncs != 2 {
		t.Fatalf("submitted + started + terminal cost %d journal fsyncs, want 2", tf.syncs)
	}
	if s.log.synced != s.log.size {
		t.Fatalf("synced %d of %d bytes after the terminal record", s.log.synced, s.log.size)
	}
	if err := s.Submitted(2, "a", protocolSpec, time.Unix(0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Started(2, 1); err != nil {
		t.Fatal(err)
	}
	if tf.syncs != 3 || s.log.synced >= s.log.size {
		t.Fatalf("after a trailing hint: %d fsyncs, synced %d of %d bytes; want 3 and a tail in flight",
			tf.syncs, s.log.synced, s.log.size)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if tf.syncs != 4 || s.log.synced != s.log.size {
		t.Fatalf("Close left %d fsyncs, synced %d of %d bytes; want 4 and nothing in flight",
			tf.syncs, s.log.synced, s.log.size)
	}
	s = openStore(t, dir)
	if p := s.Pending(); len(p) != 1 || p[0].ID != 2 || p[0].Attempts != 1 {
		t.Fatalf("after Close and reopen: %+v, want job 2 with its started hint", p)
	}
}

// TestAcknowledgedStateIsAPrefix cuts the journal at every byte a crash
// could: anywhere from the last fsync to the end of the file. Whatever the
// cut, every acknowledged record replays — a submitted job is there, a
// terminal job is terminal, a reservation is reserved — and the only things
// that may be missing are hints (started) written since that fsync.
//
// A step is a letter and a job: S submitted, A started (the job's next
// attempt), E the next event block reserved, T terminal.
func TestAcknowledgedStateIsAPrefix(t *testing.T) {
	type model struct {
		attempts int
		reserved int64
		terminal bool
	}
	for _, steps := range []string{
		"S1 A1 T1",             // the 2-step service job
		"S1 S2 A1 A2 T1 T2",    // both jobs' hints in flight together
		"S1 A1 S2 A2 T2 E1 T1", // one job's acknowledged record carries the other's hint
		"S1 A1 E1 A1 E1 T1",    // reservations and a retry mid-run
		"S1 A1 S2 A2",          // ends with hints in flight and nobody terminal
		"S1 T1 S2 A2 E2 A2",    // cancelled before it started; an unsynced tail
	} {
		t.Run(steps, func(t *testing.T) {
			dir, cutDir := t.TempDir(), t.TempDir()
			s := openStore(t, dir)
			jobs := map[int]*model{}
			for i, step := range strings.Fields(steps) {
				id := int(step[1] - '0')
				m := jobs[id]
				var err error
				switch step[0] {
				case 'S':
					m = &model{reserved: EventSeqBlock}
					jobs[id] = m
					err = s.Submitted(id, "t", protocolSpec, time.Unix(0, int64(id)))
				case 'A':
					m.attempts++
					err = s.Started(id, m.attempts)
				case 'E':
					m.reserved += EventSeqBlock
					err = s.EventSeqReserve(id, m.reserved)
				case 'T':
					m.terminal = true
					err = s.Terminal(id, "done", "")
				}
				if err != nil {
					t.Fatalf("step %d (%s): %v", i, step, err)
				}
				if hint := step[0] == 'A'; !hint && s.log.synced != s.log.size {
					t.Fatalf("step %d (%s) returned with %d of %d bytes synced", i, step, s.log.synced, s.log.size)
				}
				raw, err := os.ReadFile(filepath.Join(dir, journalName))
				if err != nil || int64(len(raw)) != s.log.size {
					t.Fatalf("step %d (%s): journal is %d bytes (%v), log.size %d", i, step, len(raw), err, s.log.size)
				}
				for cut := s.log.synced; cut <= s.log.size; cut++ {
					if err := os.WriteFile(filepath.Join(cutDir, journalName), raw[:cut], 0o644); err != nil {
						t.Fatal(err)
					}
					r, err := replayJournal(cutDir)
					if err != nil {
						t.Fatal(err)
					}
					at := fmt.Sprintf("after step %d (%s), cut at %d of %d", i, step, cut, len(raw))
					if len(r.jobs) != len(jobs) {
						t.Fatalf("%s: %d jobs replayed, %d acknowledged", at, len(r.jobs), len(jobs))
					}
					var pending []int
					for id, m := range jobs {
						j := r.jobs[id]
						if j == nil {
							t.Fatalf("%s: acknowledged job %d is gone", at, id)
						}
						if j.Terminal != m.terminal || j.EventSeqReserved != m.reserved {
							t.Fatalf("%s: job %d replayed terminal=%v reserved=%d, acknowledged terminal=%v reserved=%d",
								at, id, j.Terminal, j.EventSeqReserved, m.terminal, m.reserved)
						}
						if j.Attempts > m.attempts {
							t.Fatalf("%s: job %d replayed hints nobody wrote: %+v", at, id, j)
						}
						if cut == s.log.size && j.Attempts != m.attempts {
							t.Fatalf("%s: whole file replayed attempts=%d, wrote %d", at, j.Attempts, m.attempts)
						}
						if !m.terminal {
							pending = append(pending, id)
						}
					}
					// What a restart re-queues: Open's compaction on top.
					if err := r.compactLocked(); err != nil {
						t.Fatal(err)
					}
					var got []int
					for _, j := range r.Pending() {
						got = append(got, j.ID)
					}
					slices.Sort(pending)
					if !slices.Equal(got, pending) {
						t.Fatalf("%s: Pending() = %v, want %v", at, got, pending)
					}
					r.Close()
				}
			}
		})
	}
}
