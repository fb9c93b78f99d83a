// Package store is the durable half of the control plane: three
// append-only files under one directory that survive a daemon kill. The
// HTTP layer (internal/serve) keeps its queue in memory — the stream
// scheduler is deliberately volatile — so without this package a restart
// forgets every queued and running job, which disqualifies the service for
// the ROADMAP's always-on exemplar (SK-Gd's real-time monitor: a campaign
// that must survive process restarts without losing state).
//
// One frame format and one file protocol serve all three (framedlog.go).
// A frame is u32-LE payload length | u32-LE CRC32-IEEE of the payload |
// JSON payload. Open creates the file if absent and fsyncs the directory,
// replays every whole frame, and truncates the torn tail a SIGKILL
// mid-append can leave; a CRC-valid payload the reader cannot decode is
// skipped, never a reason to drop what follows it. Append fsyncs before it
// returns (but see the journal's hints below). Rewrite goes temp file →
// fsync → rename → directory fsync, so a kill leaves the old file or the new
// one, plus at worst a stale .tmp that is never read. What differs per log
// is policy:
//
//	file          holds                rewritten                   drops
//	journal.v6dj  unfinished jobs      at Open, on Compact and     terminal jobs
//	              (store.go)           SetAutoCompact thresholds
//	index.v6di    finished jobs        at OpenIndex, on Compact    all but the newest
//	              (index.go)                                       entry per id
//	audit.v6da    admission decisions  never                       nothing; opening
//	              (audit.go)                                       it deletes no file
//
// The journal records four event kinds per job, keyed by a persistent job
// id that outlives any single process. Each kind has one of two durability
// classes, fixed here (record.hint), not configurable. An acknowledged
// record is fsynced before the call that journals it returns, because
// somebody is then told it happened. A hint is written and folded at once
// but not fsynced: it becomes durable with the next acknowledged append to
// the journal (so always before its job's terminal record is
// acknowledged), with every rewrite (compaction emits the folded state)
// and with Close, and a power loss before that may drop it. Nothing is
// told a hint happened, and nothing outside this package reads what the
// one hint feeds — JobState.Attempts has no reader in internal/serve:
// recovery re-queues a job from its id, tenant, spec, submission time and
// event reservation, and resumes it from the newest snapshot file it finds
// on disk. Snapshots are not journaled at all.
//
//	record      class         carries                      who is told          a crash may lose
//	submitted   acknowledged  tenant, canonical spec JSON  the client's 202     nothing
//	                          (catalog.JobSpec), and the
//	                          job's first EventSeqBlock
//	                          event sequence numbers
//	started     hint          1-based attempt number       nobody               the attempt count
//	events      acknowledged  the next block of SSE event  SSE clients, by ids  nothing
//	                          sequence numbers reserved    inside the block
//	terminal    acknowledged  done, failed or              SSE done event, the  nothing
//	                          user-cancelled               DELETE's 202
//	(every index and audit append is acknowledged)
//
// A lost hint changes no decision: the job it belongs to is still pending
// in the journal, which is what makes a restart run it again. Journals
// written before snapshots left the journal also hold "checkpoint" records;
// replay skips them like any unknown kind, and the next compaction drops
// them.
//
// Shutdown-driven cancellation is deliberately NOT journaled as terminal —
// a job cancelled because the daemon died is unfinished work, and
// replaying it is the whole point.
//
// Open replays the journal, then compacts: terminal jobs' records are
// dropped and the survivors rewritten, so the file stays proportional to
// the unfinished set, not the service's entire history. Pending returns
// the unfinished jobs oldest-first; the control plane re-queues them into
// the stream and the existing checkpoint-resume machinery (sched's
// WithJobCheckpoints + the catalog Restore hooks) continues each one from
// its newest snapshot.
//
// Compaction is also available online: Compact is safe to call while
// appends are in flight (it runs under the store mutex), and
// SetAutoCompact arms size/record thresholds that trigger it from the
// append path — a long-running daemon's journal stays proportional to its
// live work instead of growing until the next boot.
package store

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"
)

// journalName is the journal file inside the store directory.
const journalName = "journal.v6dj"

// record is the on-disk payload of one journal frame.
type record struct {
	// Type is the event kind: "seq", "submitted", "started", "events" or
	// "terminal".
	Type string `json:"type"`
	// ID is the persistent job id the event belongs to (all but "seq").
	ID int `json:"id,omitempty"`
	// Next seeds the id counter ("seq" records, written by compaction).
	Next int `json:"next,omitempty"`
	// Tenant and Spec accompany "submitted".
	Tenant string          `json:"tenant,omitempty"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	// UnixNano is the submission time ("submitted").
	UnixNano int64 `json:"unix_nano,omitempty"`
	// Attempt accompanies "started".
	Attempt int `json:"attempt,omitempty"`
	// Status and Error accompany "terminal".
	Status string `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
	// Seq accompanies "submitted" and "events": the highest SSE event
	// sequence reserved for the job, so a restarted daemon continues
	// numbering instead of resetting every resuming client's cursor.
	Seq int64 `json:"seq,omitempty"`
}

// hint reports the record's durability class (the package comment's table):
// a hint rides the next fsync, every other kind is acknowledged — fsynced
// before the call that journals it returns.
func (r record) hint() bool { return r.Type == "started" }

// EventSeqBlock is how many SSE event sequence numbers one reservation
// claims. A job's submitted record carries its first block, so the journal
// sees one more append per EventSeqBlock events, not one per event, and a
// restart resumes numbering past the reservation (a bounded, reported gap)
// instead of resetting every resuming client's cursor to 1.
const EventSeqBlock = 4096

// JobState is the replayed state of one journaled job.
type JobState struct {
	// ID is the persistent job id (stable across restarts — the handle a
	// remote client keeps polling after the daemon it submitted to dies).
	ID int
	// Tenant names the submitting tenant ("" when the daemon ran open).
	Tenant string
	// Spec is the canonical JSON of the submitted catalog.JobSpec, byte
	// for byte as journaled.
	Spec json.RawMessage
	// Submitted is the original submission time.
	Submitted time.Time
	// Attempts is the highest started attempt (0 = never dispatched).
	Attempts int
	// Terminal reports whether the job reached a journaled final state;
	// Status/Error describe it ("done", "failed", "cancelled").
	Terminal bool
	Status   string
	Error    string
	// EventSeqReserved is the highest SSE event sequence number reserved
	// for this job (0 = none journaled). A restarted daemon resumes its
	// event numbering after this value, so sequence ids are never reused
	// across restarts and resuming clients keep a meaningful cursor.
	EventSeqReserved int64
}

// Store is an open journal. All methods are safe for concurrent use.
type Store struct {
	mu   sync.Mutex
	log  *framedLog
	jobs map[int]*JobState
	next int

	// terminals counts jobs whose records compaction would drop (compacting
	// with nothing to drop would just rewrite the same bytes); the file's
	// size and record count, which the thresholds below bound, are the
	// log's.
	terminals int
	// autoBytes/autoRecords arm online auto-compaction (0 = off).
	autoBytes   int64
	autoRecords int
}

// Open replays (and compacts) the journal under dir, creating the
// directory and an empty journal when none exists. A torn tail — the
// half-written record a SIGKILL can leave — is truncated at the last whole
// record; everything before it replays normally. A stale journal.v6dj.tmp
// left by a compaction that was killed mid-rewrite is never replayed — the
// rename never happened, so the real journal is authoritative — and the
// compaction here overwrites it.
func Open(dir string) (*Store, error) {
	s, err := replayJournal(dir)
	if err != nil {
		return nil, err
	}
	if err := s.compactLocked(); err != nil {
		s.log.close()
		return nil, err
	}
	return s, nil
}

// replayJournal is Open before its compaction: the journal under dir folded
// record by record, terminal jobs still in the table.
func replayJournal(dir string) (*Store, error) {
	s := &Store{jobs: make(map[int]*JobState)}
	l, err := openLog(dir, journalName, func(payload []byte) {
		var rec record
		if json.Unmarshal(payload, &rec) == nil {
			s.apply(rec)
		}
	})
	if err != nil {
		return nil, err
	}
	s.log = l
	return s, nil
}

// SetAutoCompact arms online compaction: after any append that leaves the
// journal over maxBytes bytes or maxRecords records (and with at least one
// terminal job whose records compaction can drop), the journal is
// compacted in place under the same mutex the append holds. Zero disables
// the corresponding threshold.
func (s *Store) SetAutoCompact(maxBytes int64, maxRecords int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.autoBytes = maxBytes
	s.autoRecords = maxRecords
}

// Size reports the journal's current byte size (tests and metrics).
func (s *Store) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.size
}

// apply folds one record into the in-memory state: on replay, and again
// for every record journalLocked appends.
func (s *Store) apply(rec record) {
	switch rec.Type {
	case "seq":
		if rec.Next > s.next {
			s.next = rec.Next
		}
	case "submitted":
		s.jobs[rec.ID] = &JobState{
			ID:               rec.ID,
			Tenant:           rec.Tenant,
			Spec:             rec.Spec,
			Submitted:        time.Unix(0, rec.UnixNano),
			EventSeqReserved: rec.Seq,
		}
		if rec.ID >= s.next {
			s.next = rec.ID + 1
		}
	case "started":
		if j := s.jobs[rec.ID]; j != nil && rec.Attempt > j.Attempts {
			j.Attempts = rec.Attempt
		}
	case "terminal":
		if j := s.jobs[rec.ID]; j != nil {
			if !j.Terminal {
				s.terminals++
			}
			j.Terminal = true
			j.Status = rec.Status
			j.Error = rec.Error
		}
	case "events":
		if j := s.jobs[rec.ID]; j != nil && rec.Seq > j.EventSeqReserved {
			j.EventSeqReserved = rec.Seq
		}
	}
	// Unknown types are skipped, like the payloads Open could not decode: an
	// older daemon replaying a newer journal must not lose the records it
	// does understand.
}

// Compact rewrites the journal to just the unfinished jobs (plus the id
// seed), atomically, and drops terminal jobs from memory. Safe to call
// while appends are in flight: the rewrite holds the same mutex every
// append takes, so it sees (and preserves) a consistent snapshot and no
// append can land between the temp write and the rename.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

// compactLocked is Compact's body. Callers hold s.mu (or, during Open,
// exclusive access). The journal's size afterwards is proportional to the
// live campaign, not the daemon's whole history; framedLog.rewrite makes
// the swap atomic and durable.
func (s *Store) compactLocked() error {
	err := s.log.rewrite(func(write func([]byte) error) error {
		put := func(rec record) error {
			payload, err := json.Marshal(rec)
			if err != nil {
				return err
			}
			return write(payload)
		}
		err := put(record{Type: "seq", Next: s.next})
		for _, j := range s.pendingLocked() {
			if err != nil {
				break
			}
			err = put(record{Type: "submitted", ID: j.ID, Tenant: j.Tenant,
				Spec: j.Spec, UnixNano: j.Submitted.UnixNano(), Seq: j.EventSeqReserved})
			if err == nil && j.Attempts > 0 {
				err = put(record{Type: "started", ID: j.ID, Attempt: j.Attempts})
			}
		}
		return err
	})
	if err != nil {
		return err
	}
	s.terminals = 0
	for id, j := range s.jobs {
		if j.Terminal {
			delete(s.jobs, id)
		}
	}
	return nil
}

// pendingLocked returns the unfinished jobs oldest-first. Callers hold
// s.mu (or, during Open, exclusive access).
func (s *Store) pendingLocked() []*JobState {
	out := make([]*JobState, 0, len(s.jobs))
	for _, j := range s.jobs {
		if !j.Terminal {
			out = append(out, j)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Pending returns a copy of every unfinished job's state, oldest first —
// the work a restarting control plane re-queues.
func (s *Store) Pending() []JobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps := s.pendingLocked()
	out := make([]JobState, len(ps))
	for i, j := range ps {
		out[i] = *j
		out[i].Spec = append(json.RawMessage(nil), j.Spec...)
	}
	return out
}

// NextID allocates the next persistent job id. The allocation itself is
// durable only once Submitted journals the id; a crash between the two
// burns the number, which is fine — ids are unique, not dense.
func (s *Store) NextID() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.next
	s.next++
	return id
}

// Submitted journals a new job: its id, tenant and canonical spec bytes,
// and the job's first EventSeqBlock event sequence numbers, so a fresh
// job's first event costs no append of its own. The spec is stored
// verbatim — replay hands back the same bytes, so a spec round-trips the
// journal byte-stably.
func (s *Store) Submitted(id int, tenantName string, spec json.RawMessage, at time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journalLocked(record{Type: "submitted", ID: id, Tenant: tenantName,
		Spec: append(json.RawMessage(nil), spec...), UnixNano: at.UnixNano(), Seq: EventSeqBlock})
}

// Started journals the beginning of an attempt (a hint: see record.hint).
func (s *Store) Started(id, attempt int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journalLocked(record{Type: "started", ID: id, Attempt: attempt})
}

// EventSeqReserve journals that event sequence numbers up to and including
// upTo are spoken for on the job's SSE ring. The serve layer reserves in
// blocks of EventSeqBlock (one fsync per block, not per event; the first
// block rides the submitted record); after a restart it resumes numbering
// at the reservation's end + 1, which keeps sequence ids unique across
// daemon generations at the cost of a bounded gap.
func (s *Store) EventSeqReserve(id int, upTo int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journalLocked(record{Type: "events", ID: id, Seq: upTo})
}

// Terminal journals a job's final state ("done", "failed" or "cancelled").
// Shutdown-driven cancellation must NOT be journaled here: an unfinished
// job with no terminal record is exactly what a restart replays.
func (s *Store) Terminal(id int, status, errMsg string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journalLocked(record{Type: "terminal", ID: id, Status: status, Error: errMsg})
}

// journalLocked appends one record — fsynced before it is acknowledged,
// unless it is a hint — and then folds it into memory with the same apply
// that replays it, so the live state and the state a restart rebuilds
// cannot drift apart. Auto-compaction is checked last: compacting between a
// terminal record's append and its fold would rewrite the job as still
// pending. Callers hold s.mu.
func (s *Store) journalLocked(rec record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: journal record: %w", err)
	}
	write := s.log.append
	if rec.hint() {
		write = s.log.appendUnsynced
	}
	if err := write(payload); err != nil {
		return err
	}
	s.apply(rec)
	s.maybeAutoCompactLocked()
	return nil
}

// maybeAutoCompactLocked compacts when an armed threshold is crossed and
// compaction would actually shrink the journal (at least one terminal
// job's records to drop — without that guard a journal sitting over the
// threshold on live work alone would be rewritten on every append).
// Compaction failure is deliberately swallowed — the append that triggered
// it already succeeded, and a journal that has merely grown past its soft
// bound is a working journal.
func (s *Store) maybeAutoCompactLocked() {
	if s.terminals == 0 {
		return
	}
	if (s.autoBytes > 0 && s.log.size >= s.autoBytes) ||
		(s.autoRecords > 0 && s.log.frames >= s.autoRecords) {
		s.compactLocked()
	}
}

// Close makes any trailing hint records durable and closes the journal
// file. Appends after Close fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.close()
}
