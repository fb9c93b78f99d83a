// Package tenant is the multi-tenancy layer of the control plane: bearer
// API keys, per-tenant quotas, and token-bucket rate limiting. The paper's
// T2K-style operation model is many groups sharing one machine — per-group
// isolation on shared compute — and the ROADMAP's "millions of users"
// north star disqualifies a daemon that trusts its network. A Registry is
// loaded from a key file at daemon start; the HTTP layer authenticates
// every /v1 request against it, scopes job visibility to the owning
// tenant, and admits submissions against the tenant's queue quota and
// rate limit. The core quota (MaxCores) rides into the scheduler as the
// tenant's collective cap on the CoreBudget's fair-share division — see
// sched.Claim.
//
// Key file format (JSON):
//
//	{
//	  "tenants": [
//	    {"name": "ops", "key": "an-operator-string", "admin": true},
//	    {"name": "alice", "key": "a-long-random-string",
//	     "max_queued": 16, "max_cores": 4,
//	     "rate_per_sec": 2, "burst": 4,
//	     "max_storage_bytes": 1073741824},
//	    {"name": "bob", "key": "another-long-random-string"}
//	  ]
//	}
//
// Every quota field is optional; zero means unlimited (no queue bound, no
// core cap, no rate limit, no storage cap). Names and keys must be unique
// and non-empty. "admin" grants the /v1/admin surface (hot key reload);
// an always-on daemon needs at least one admin tenant to rotate keys over
// HTTP, though SIGHUP reloads work regardless.
//
// The registry itself is immutable — key rotation swaps a whole new
// Registry in behind the control plane's atomic pointer (see serve), so a
// reload that fails validation leaves the old registry untouched.
package tenant

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"time"
)

// Tenant is one authenticated principal and its quotas. The quota fields
// are immutable after load; the token bucket behind Allow is internally
// synchronised, so one *Tenant is shared safely across request handlers.
type Tenant struct {
	// Name identifies the tenant in job records, metrics labels and logs.
	Name string `json:"name"`
	// Key is the bearer token presented as "Authorization: Bearer <key>".
	Key string `json:"key"`
	// MaxQueued bounds how many of the tenant's jobs may be queued
	// (submitted, not yet dispatched) at once. 0 = unlimited.
	MaxQueued int `json:"max_queued"`
	// MaxCores caps the collective core share of the tenant's live jobs
	// under the scheduler's CoreBudget. 0 = uncapped (fair share only).
	MaxCores int `json:"max_cores"`
	// RatePerSec refills the submission token bucket (POST /v1/jobs).
	// 0 = no rate limit.
	RatePerSec float64 `json:"rate_per_sec"`
	// Burst is the bucket capacity (defaults to ceil(RatePerSec), at
	// least 1, when a rate is set).
	Burst int `json:"burst"`
	// MaxStorageBytes caps the tenant's checkpoint-artifact bytes on disk.
	// Over the cap, the control plane evicts the tenant's oldest snapshots
	// down to a retention floor and then fails the over-quota job.
	// 0 = unlimited.
	MaxStorageBytes int64 `json:"max_storage_bytes"`
	// Admin grants the /v1/admin surface (key-file reload). Admin is an
	// operator capability, not a quota exemption — admin tenants still
	// submit under their own quotas.
	Admin bool `json:"admin"`

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// Allow consumes one submission token if available. When the bucket is
// empty it reports false plus the wait until the next token — the
// Retry-After a 429 response carries. A tenant without a rate limit always
// allows.
func (t *Tenant) Allow(now time.Time) (bool, time.Duration) {
	if t.RatePerSec <= 0 {
		return true, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	burst := float64(t.Burst)
	// last advances only when time does: a backwards clock step (NTP
	// correction, VM migration) must not rewind the refill anchor, or the
	// interval it rewound over would accrue tokens twice once the clock
	// recovers.
	if t.last.IsZero() {
		t.tokens = burst
		t.last = now
	} else if dt := now.Sub(t.last).Seconds(); dt > 0 {
		t.tokens = math.Min(burst, t.tokens+dt*t.RatePerSec)
		t.last = now
	}
	if t.tokens >= 1 {
		t.tokens--
		return true, 0
	}
	wait := time.Duration((1 - t.tokens) / t.RatePerSec * float64(time.Second))
	return false, wait
}

// Registry maps bearer keys to tenants. Construct with Load or Parse; a
// loaded registry is immutable and safe for concurrent use.
//
// Keys are held as SHA-256 digests and Lookup compares digests in
// constant time over the whole tenant list — a raw map probe on the
// secret would leak prefix-match timing to an attacker iterating
// candidate keys.
type Registry struct {
	digests [][sha256.Size]byte // parallel to order
	order   []*Tenant
}

// Load reads and parses a key file.
func Load(path string) (*Registry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tenant: key file: %w", err)
	}
	defer f.Close()
	r, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("tenant: key file %s: %w", path, err)
	}
	return r, nil
}

// Parse decodes a key file. Null entries, duplicate names or keys, empty
// names or keys, and negative quotas are errors — the key file is the service's trust
// anchor and typos in it must fail loudly at startup.
func Parse(r io.Reader) (*Registry, error) {
	var doc struct {
		Tenants []*Tenant `json:"tenants"`
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, err
	}
	if len(doc.Tenants) == 0 {
		return nil, fmt.Errorf("no tenants declared")
	}
	reg := &Registry{}
	names := make(map[string]bool, len(doc.Tenants))
	keys := make(map[[sha256.Size]byte]bool, len(doc.Tenants))
	for i, t := range doc.Tenants {
		if t == nil {
			return nil, fmt.Errorf("tenant %d: null entry", i)
		}
		if t.Name == "" {
			return nil, fmt.Errorf("tenant %d: empty name", i)
		}
		if t.Key == "" {
			return nil, fmt.Errorf("tenant %q: empty key", t.Name)
		}
		if names[t.Name] {
			return nil, fmt.Errorf("duplicate tenant name %q", t.Name)
		}
		digest := sha256.Sum256([]byte(t.Key))
		if keys[digest] {
			return nil, fmt.Errorf("tenant %q: key already in use", t.Name)
		}
		if t.MaxQueued < 0 || t.MaxCores < 0 || t.RatePerSec < 0 || t.Burst < 0 || t.MaxStorageBytes < 0 {
			return nil, fmt.Errorf("tenant %q: negative quota", t.Name)
		}
		if t.RatePerSec > 0 && t.Burst == 0 {
			t.Burst = int(math.Ceil(t.RatePerSec))
			if t.Burst < 1 {
				t.Burst = 1
			}
		}
		names[t.Name] = true
		keys[digest] = true
		reg.digests = append(reg.digests, digest)
		reg.order = append(reg.order, t)
	}
	return reg, nil
}

// Lookup resolves a bearer key to its tenant. The comparison is constant
// time in the presented key: the key is hashed once, every registered
// digest is compared with crypto/subtle (no early exit), and the match is
// selected without branching on position. Timing reveals only the
// registry's size, never how close a guess came.
func (r *Registry) Lookup(key string) (*Tenant, bool) {
	digest := sha256.Sum256([]byte(key))
	idx := -1
	for i := range r.digests {
		// ConstantTimeSelect keeps even the bookkeeping branch-free.
		idx = subtle.ConstantTimeSelect(
			subtle.ConstantTimeCompare(r.digests[i][:], digest[:]), i, idx)
	}
	if idx < 0 {
		return nil, false
	}
	return r.order[idx], true
}

// ByName resolves a tenant by name — how a restarting control plane maps a
// journaled tenant name back to its current quotas (the key may have
// rotated since the job was submitted).
func (r *Registry) ByName(name string) (*Tenant, bool) {
	for _, t := range r.order {
		if t.Name == name {
			return t, true
		}
	}
	return nil, false
}

// Tenants lists the registry in declaration order (metrics enumeration).
func (r *Registry) Tenants() []*Tenant {
	return append([]*Tenant(nil), r.order...)
}

// ctxKey is the context key carrying the authenticated tenant.
type ctxKey struct{}

// NewContext returns ctx carrying the authenticated tenant.
func NewContext(ctx context.Context, t *Tenant) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the authenticated tenant, if any.
func FromContext(ctx context.Context) (*Tenant, bool) {
	t, ok := ctx.Value(ctxKey{}).(*Tenant)
	return t, ok
}
