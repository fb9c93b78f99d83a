// The admission audit log: an append-only record of every decision the
// control plane's front door makes. The journal (store.go) remembers
// accepted work and the index (index.go) remembers finished work; neither
// remembers the requests the daemon REFUSED — the 401 from a rotated-out
// key, the 429 that throttled a runaway submitter, the 503 during a
// drain. For a machine shared by many groups over a long campaign
// (the paper's T2K-style operation model), that refusal record is what an
// operator consults when a tenant claims their jobs "disappeared": the
// audit log says exactly what was presented, when, and why it was turned
// away — or accepted, with the hash of the spec that was admitted.
//
// One AuditRecord per decision, CRC-framed JSON (the same frame codec as
// the journal, so a SIGKILL mid-append leaves at worst a torn tail that
// the next OpenAudit truncates). The log is deliberately never compacted:
// it is the history, and history is append-only. Rotation, when a
// deployment needs it, is an operator move (rename the file, HUP the
// daemon) — the daemon itself never rewrites audit.v6da.
package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// auditName is the audit log file inside the store directory.
const auditName = "audit.v6da"

// AuditRecord is one admission decision.
type AuditRecord struct {
	// UnixNano is when the decision was made.
	UnixNano int64 `json:"unix_nano"`
	// Tenant names the authenticated tenant ("" when authentication itself
	// failed, or when the daemon runs open).
	Tenant string `json:"tenant,omitempty"`
	// Outcome is the decision: "accept" for an admitted submission, or the
	// refusing status code as a string — "401", "403", "429", "503" — plus
	// the operator events "reload" / "reload_failed" for key-file swaps.
	Outcome string `json:"outcome"`
	// Reason is the human-readable explanation (the same text the HTTP
	// error body carried).
	Reason string `json:"reason,omitempty"`
	// SpecHash is the SHA-256 hex of the canonical spec bytes, when the
	// decision concerned a parseable spec (accepts always carry it).
	SpecHash string `json:"spec_hash,omitempty"`
	// JobID is the admitted job's persistent id (accepts only).
	JobID int `json:"job_id,omitempty"`
}

// Audit is an open audit log. All methods are safe for concurrent use.
type Audit struct {
	mu  sync.Mutex
	log *framedLog
}

// OpenAudit opens (creating if absent) the audit log under dir. A torn
// tail — the half-written record a SIGKILL can leave — is truncated at
// the last whole record. Unlike the journal, nothing is dropped or folded:
// replay here only finds the end of the valid prefix.
func OpenAudit(dir string) (*Audit, error) {
	l, err := openLog(dir, auditName, func([]byte) {})
	if err != nil {
		return nil, err
	}
	return &Audit{log: l}, nil
}

// Append records one decision and fsyncs it. An audit entry that could be
// lost to a crash is not an audit entry.
func (a *Audit) Append(rec AuditRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: audit record: %w", err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.log.append(payload)
}

// ReadAuditLog reads every whole record from an audit log file, stopping
// cleanly at a torn tail — the offline consumer (tests, operator
// tooling). Reading does not require, or take, the writing daemon's lock:
// the log is append-only, so a concurrent read sees a valid prefix.
func ReadAuditLog(dir string) ([]AuditRecord, error) {
	f, err := os.Open(filepath.Join(dir, auditName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: audit: %w", err)
	}
	defer f.Close()
	var out []AuditRecord
	scanFrames(f, func(payload []byte) {
		var rec AuditRecord
		// An unknown shape from a newer daemon is skipped, not fatal.
		if json.Unmarshal(payload, &rec) == nil {
			out = append(out, rec)
		}
	})
	return out, nil
}

// Close closes the audit log. Appends after Close fail.
func (a *Audit) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.log.close()
}
