// The artifact index: the durable memory of *finished* work. The journal
// (store.go) deliberately forgets terminal jobs — boot compaction drops
// them so the file stays proportional to the unfinished set — and the
// control plane's in-memory history is bounded (serve.Config.History), so
// without this file a job that finished an hour ago on a busy daemon is
// unreachable: its status 404s and its checkpoints, still sitting on disk,
// are unlisted. Long-running physics monitors keep exactly this record —
// the T2K detector-ageing analysis spans a decade of runs precisely
// because every run's summary and artifacts stay queryable long after the
// acquisition process that produced them is gone.
//
// One IndexEntry per terminal job: the outcome, the final report summary,
// and the checkpoint artifacts the run left (name, size, clock, format —
// enough to serve a listing without touching the filesystem). Entries are
// CRC-framed JSON in index.v6di, appended at terminal time and fsynced;
// OpenIndex replays the file (truncating a torn tail like the journal)
// and compacts duplicates, keeping the newest entry per id.
package store

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"vlasov6d/internal/obs"
)

// indexName is the artifact index file inside the store directory.
const indexName = "index.v6di"

// Artifact describes one checkpoint file a finished job left behind.
type Artifact struct {
	// Name is the file name inside the job's checkpoint directory.
	Name string `json:"name"`
	// Bytes is the file size at terminal time.
	Bytes int64 `json:"bytes"`
	// Clock is the solver clock embedded in the file name.
	Clock float64 `json:"clock"`
	// Format tags what can open the file ("snapio-v1", "snapio-v2",
	// "solver").
	Format string `json:"format"`
}

// ReportSummary is the terminal runner report, flattened to the fields the
// status document serves.
type ReportSummary struct {
	Steps           int     `json:"steps"`
	Clock           float64 `json:"clock"`
	WallSeconds     float64 `json:"wall_seconds"`
	Reason          string  `json:"reason"`
	Checkpoints     int     `json:"checkpoints"`
	CheckpointBytes int64   `json:"checkpoint_bytes"`
	DroppedObs      int64   `json:"dropped_obs"`
}

// IndexEntry is one finished job's durable record.
type IndexEntry struct {
	// ID is the persistent external job id (the same id space as the
	// journal's).
	ID int `json:"id"`
	// Tenant names the owning tenant ("" when the daemon ran open) —
	// post-eviction queries stay tenant-scoped.
	Tenant string `json:"tenant,omitempty"`
	// Name is the job name, which keys the checkpoint directory.
	Name string `json:"name"`
	// Scenario echoes the spec's scenario.
	Scenario string `json:"scenario,omitempty"`
	// Status is the terminal outcome ("done", "failed", "cancelled");
	// Error describes a failure.
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// SubmittedUnixNano / FinishedUnixNano bracket the job's lifetime.
	SubmittedUnixNano int64 `json:"submitted_unix_nano,omitempty"`
	FinishedUnixNano  int64 `json:"finished_unix_nano,omitempty"`
	// Report summarises the terminal runner report (nil when the job never
	// ran — a queued cancellation).
	Report *ReportSummary `json:"report,omitempty"`
	// Artifacts lists the checkpoint files at terminal time, oldest first.
	Artifacts []Artifact `json:"artifacts,omitempty"`
	// Trace is the job's lifecycle span timeline, snapshotted at terminal
	// time so it survives history eviction; TraceDropped counts spans the
	// bounded buffer evicted before the snapshot (0 = the timeline is
	// complete).
	Trace        []obs.Span `json:"trace,omitempty"`
	TraceDropped int64      `json:"trace_dropped,omitempty"`
}

// Submitted / Finished convert the wire timestamps.
func (e IndexEntry) SubmittedAt() time.Time { return time.Unix(0, e.SubmittedUnixNano) }
func (e IndexEntry) FinishedAt() time.Time  { return time.Unix(0, e.FinishedUnixNano) }

// Index is an open artifact index. All methods are safe for concurrent
// use.
type Index struct {
	mu   sync.Mutex
	log  *framedLog
	byID map[int]*IndexEntry
}

// OpenIndex replays (and compacts) the artifact index under dir, creating
// the directory and an empty index when none exists. A torn tail is
// truncated at the last whole entry; duplicate ids keep the newest entry.
// A stale index.v6di.tmp from a compaction killed mid-rewrite is never
// replayed — the rename never happened, so the real index is authoritative
// — and the compaction here overwrites it.
func OpenIndex(dir string) (*Index, error) {
	ix := &Index{byID: make(map[int]*IndexEntry)}
	l, err := openLog(dir, indexName, func(payload []byte) {
		var e IndexEntry
		// An unknown shape from a newer daemon is skipped, not fatal.
		if json.Unmarshal(payload, &e) == nil {
			ix.byID[e.ID] = &e
		}
	})
	if err != nil {
		return nil, err
	}
	ix.log = l
	if err := ix.compactLocked(); err != nil {
		l.close()
		return nil, err
	}
	return ix, nil
}

// Compact rewrites the index to one entry per id (the newest),
// atomically, under the same mutex Put holds — safe to call on a live
// daemon.
func (ix *Index) Compact() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.compactLocked()
}

// compactLocked rewrites the index to one entry per id (the newest),
// atomically. A daemon that re-runs a recovered job terminal-journals it
// twice across lives; compaction keeps the file proportional to the
// distinct finished set. Callers hold ix.mu (or, during OpenIndex,
// exclusive access).
func (ix *Index) compactLocked() error {
	return ix.log.rewrite(func(write func([]byte) error) error {
		for _, e := range ix.entriesLocked() {
			payload, err := json.Marshal(e)
			if err != nil {
				return err
			}
			if err := write(payload); err != nil {
				return err
			}
		}
		return nil
	})
}

// entriesLocked returns the entries in id order. Callers hold ix.mu (or,
// during OpenIndex, exclusive access).
func (ix *Index) entriesLocked() []*IndexEntry {
	out := make([]*IndexEntry, 0, len(ix.byID))
	for _, e := range ix.byID {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Put appends one terminal job's record and fsyncs it. A repeated id
// overwrites the in-memory entry; the duplicate frame is dropped at the
// next OpenIndex compaction.
func (ix *Index) Put(e IndexEntry) error {
	payload, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("store: index entry: %w", err)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := ix.log.append(payload); err != nil {
		return err
	}
	ix.byID[e.ID] = &e
	return nil
}

// Get returns one finished job's record by id.
func (ix *Index) Get(id int) (IndexEntry, bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	e, ok := ix.byID[id]
	if !ok {
		return IndexEntry{}, false
	}
	return e.copyLocked(), true
}

// copyLocked deep-copies an entry so callers can serialise it after the
// lock drops. Span attr maps are shared read-only by convention (nothing
// mutates an indexed trace), so the span slice copy is shallow per element.
func (e *IndexEntry) copyLocked() IndexEntry {
	out := *e
	out.Artifacts = append([]Artifact(nil), e.Artifacts...)
	out.Trace = append([]obs.Span(nil), e.Trace...)
	if e.Report != nil {
		rep := *e.Report
		out.Report = &rep
	}
	return out
}

// Entries returns every indexed job's record, id order, deep-copied — the
// archived listing a control plane filters per tenant.
func (ix *Index) Entries() []IndexEntry {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	out := make([]IndexEntry, 0, len(ix.byID))
	for _, e := range ix.entriesLocked() {
		out = append(out, e.copyLocked())
	}
	return out
}

// Len returns the number of indexed jobs.
func (ix *Index) Len() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return len(ix.byID)
}

// Close closes the index file. Puts after Close fail.
func (ix *Index) Close() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.log.close()
}
