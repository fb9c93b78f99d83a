package tenant

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

const keyFile = `{
  "tenants": [
    {"name": "alice", "key": "alice-key-0123", "max_queued": 4, "max_cores": 2,
     "rate_per_sec": 2, "burst": 2},
    {"name": "bob", "key": "bob-key-4567"}
  ]
}`

func TestParseKeyFile(t *testing.T) {
	reg, err := Parse(strings.NewReader(keyFile))
	if err != nil {
		t.Fatal(err)
	}
	a, ok := reg.Lookup("alice-key-0123")
	if !ok || a.Name != "alice" || a.MaxQueued != 4 || a.MaxCores != 2 {
		t.Fatalf("alice: %+v ok=%v", a, ok)
	}
	b, ok := reg.ByName("bob")
	if !ok || b.Key != "bob-key-4567" {
		t.Fatalf("bob by name: %+v ok=%v", b, ok)
	}
	if _, ok := reg.Lookup("no-such-key"); ok {
		t.Fatal("unknown key resolved")
	}
	if got := len(reg.Tenants()); got != 2 {
		t.Fatalf("Tenants() = %d entries", got)
	}
}

func TestParseRejectsBadFiles(t *testing.T) {
	for name, doc := range map[string]string{
		"empty set":        `{"tenants": []}`,
		"null entry":       `{"tenants": [null]}`,
		"null after valid": `{"tenants": [{"name": "a", "key": "k1"}, null]}`,
		"empty name":       `{"tenants": [{"name": "", "key": "k1"}]}`,
		"empty key":        `{"tenants": [{"name": "a", "key": ""}]}`,
		"dup name":         `{"tenants": [{"name": "a", "key": "k1"}, {"name": "a", "key": "k2"}]}`,
		"dup key":          `{"tenants": [{"name": "a", "key": "k"}, {"name": "b", "key": "k"}]}`,
		"negative quota":   `{"tenants": [{"name": "a", "key": "k", "max_cores": -1}]}`,
		"negative storage": `{"tenants": [{"name": "a", "key": "k", "max_storage_bytes": -1}]}`,
		"unknown field":    `{"tenants": [{"name": "a", "key": "k", "max_corse": 2}]}`,
	} {
		if _, err := Parse(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTokenBucket(t *testing.T) {
	tn := &Tenant{Name: "a", Key: "k", RatePerSec: 10, Burst: 2}
	now := time.Unix(1000, 0)
	// Burst drains first...
	for i := 0; i < 2; i++ {
		if ok, _ := tn.Allow(now); !ok {
			t.Fatalf("burst token %d denied", i)
		}
	}
	// ...then the bucket is empty and the wait is ~1/rate.
	ok, wait := tn.Allow(now)
	if ok {
		t.Fatal("empty bucket allowed")
	}
	if wait <= 0 || wait > 150*time.Millisecond {
		t.Fatalf("retry-after %v for a 10/s bucket", wait)
	}
	// Refill: after 100 ms one token is back.
	if ok, _ := tn.Allow(now.Add(101 * time.Millisecond)); !ok {
		t.Fatal("refilled token denied")
	}
	// No rate configured = never limited.
	open := &Tenant{Name: "b", Key: "k2"}
	for i := 0; i < 100; i++ {
		if ok, _ := open.Allow(now); !ok {
			t.Fatal("unlimited tenant throttled")
		}
	}
}

// TestAllowClockRegression pins the non-monotonic-clock contract: a
// backwards time step must not rewind the refill anchor, or the rewound
// interval accrues tokens twice once the clock recovers. The sequence
// drains the burst at t0, steps the clock back 10 s, then returns to t0 —
// with the bug, the return "refills" 10 s worth of tokens for time that
// was already counted.
func TestAllowClockRegression(t *testing.T) {
	tn := &Tenant{Name: "a", Key: "k", RatePerSec: 1, Burst: 4}
	t0 := time.Unix(1000, 0)
	for i := 0; i < 4; i++ {
		if ok, _ := tn.Allow(t0); !ok {
			t.Fatalf("burst token %d denied", i)
		}
	}
	if ok, _ := tn.Allow(t0); ok {
		t.Fatal("empty bucket allowed at t0")
	}
	// Clock steps backwards (NTP correction): no refill, and — the fix —
	// no rewind of the anchor either.
	for _, back := range []time.Duration{10 * time.Second, 5 * time.Second, time.Second} {
		if ok, _ := tn.Allow(t0.Add(-back)); ok {
			t.Fatalf("backwards clock step -%v minted a token", back)
		}
	}
	// Clock recovers to exactly t0: zero real time has passed since the
	// burst drained, so the bucket must still be empty.
	if ok, _ := tn.Allow(t0); ok {
		t.Fatal("clock recovery to t0 re-accrued already-counted time")
	}
	// One real second later exactly one token exists.
	if ok, _ := tn.Allow(t0.Add(time.Second)); !ok {
		t.Fatal("legitimate refill denied after recovery")
	}
	if ok, _ := tn.Allow(t0.Add(time.Second)); ok {
		t.Fatal("single refilled second granted two tokens")
	}
}

// TestLookupDigests exercises the constant-time digest path: exact keys
// resolve, near-miss keys (shared prefix, differing last byte) and
// extensions do not.
func TestLookupDigests(t *testing.T) {
	reg, err := Parse(strings.NewReader(keyFile))
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{
		"alice-key-0123": "alice",
		"bob-key-4567":   "bob",
	} {
		tn, ok := reg.Lookup(key)
		if !ok || tn.Name != want {
			t.Fatalf("Lookup(%q) = %v ok=%v, want %s", key, tn, ok, want)
		}
	}
	for _, miss := range []string{"alice-key-0124", "alice-key-012", "alice-key-01234", "", "bob-key-4568"} {
		if tn, ok := reg.Lookup(miss); ok {
			t.Fatalf("near-miss %q resolved to %s", miss, tn.Name)
		}
	}
}

func TestParseAdminAndStorage(t *testing.T) {
	reg, err := Parse(strings.NewReader(`{"tenants": [
	  {"name": "ops", "key": "ops-key", "admin": true},
	  {"name": "a", "key": "a-key", "max_storage_bytes": 4096}]}`))
	if err != nil {
		t.Fatal(err)
	}
	ops, _ := reg.ByName("ops")
	if !ops.Admin {
		t.Fatal("admin flag lost in parse")
	}
	a, _ := reg.ByName("a")
	if a.Admin || a.MaxStorageBytes != 4096 {
		t.Fatalf("a: admin=%v storage=%d", a.Admin, a.MaxStorageBytes)
	}
}

func TestBurstDefaultsFromRate(t *testing.T) {
	reg, err := Parse(strings.NewReader(
		`{"tenants": [{"name": "a", "key": "k", "rate_per_sec": 0.5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := reg.ByName("a")
	if a.Burst != 1 {
		t.Fatalf("burst default = %d, want 1", a.Burst)
	}
}

func TestContextRoundTrip(t *testing.T) {
	tn := &Tenant{Name: "a", Key: "k"}
	ctx := NewContext(context.Background(), tn)
	got, ok := FromContext(ctx)
	if !ok || got != tn {
		t.Fatalf("context round trip: %+v ok=%v", got, ok)
	}
	if _, ok := FromContext(context.Background()); ok {
		t.Fatal("empty context produced a tenant")
	}
}

// FuzzKeyFile feeds arbitrary bytes to Parse, the decoder of the file a
// SIGHUP or POST /v1/admin/reload makes the daemon read: it must never
// panic, and any registry it returns must resolve every tenant by its key
// and by its name, hold no negative quota, and give every rate limit a
// bucket of at least one token.
func FuzzKeyFile(f *testing.F) {
	for _, seed := range []string{
		keyFile,
		`{"tenants": [{"name": "ops", "key": "an-admin-string", "admin": true},
		 {"name": "alice", "key": "a-long-random-string", "max_queued": 16, "max_cores": 4,
		  "rate_per_sec": 2, "burst": 4, "max_storage_bytes": 1073741824},
		 {"name": "bob", "key": "another-long-random-string"}]}`,
		`{"tenants": [null]}`,
		`{"tenants": []}`,
		`{"tenants": [{"name": "a", "key": "k1"}, {"name": "a", "key": "k2"}]}`,
		`{"tenants": [{"name": "a", "key": "k"}, {"name": "b", "key": "k"}]}`,
		`{"tenants": [{"name": "a", "key": "k", "rate_per_sec": 1e-300}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		reg, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, tn := range reg.Tenants() {
			if got, ok := reg.Lookup(tn.Key); !ok || got != tn {
				t.Fatalf("Lookup(%q) = %v, %v; want tenant %q", tn.Key, got, ok, tn.Name)
			}
			if got, ok := reg.ByName(tn.Name); !ok || got != tn {
				t.Fatalf("ByName(%q) = %v, %v", tn.Name, got, ok)
			}
			if tn.MaxQueued < 0 || tn.MaxCores < 0 || tn.RatePerSec < 0 || tn.Burst < 0 || tn.MaxStorageBytes < 0 {
				t.Fatalf("tenant %q: negative quota %+v", tn.Name, tn)
			}
			if tn.RatePerSec > 0 && tn.Burst < 1 {
				t.Fatalf("tenant %q: rate %v with burst %d", tn.Name, tn.RatePerSec, tn.Burst)
			}
		}
	})
}
