package sched

import (
	"context"
	"sync"
	"testing"
	"time"
)

// acquireClaims is acquireLeases generalised to full Claims: a background
// goroutine keeps polling already-held leases (standing in for running
// jobs' between-step polls) so waiting acquires can claim freed cores, then
// every lease is polled to convergence.
func acquireClaims(t *testing.T, b *CoreBudget, claims []Claim) []*Lease {
	t.Helper()
	leases := make([]*Lease, len(claims))
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			mu.Lock()
			for _, l := range leases {
				if l != nil {
					l.Workers()
				}
			}
			mu.Unlock()
			time.Sleep(50 * time.Microsecond)
		}
	}()
	for i, c := range claims {
		l, err := b.AcquireClaim(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		leases[i] = l
		mu.Unlock()
	}
	close(done)
	settle(leases)
	return leases
}

func TestCoreBudgetTenantFairShare(t *testing.T) {
	// Tenant A floods the stream with three jobs, one at priority 5;
	// tenant B submits a single priority-0 job. Fair share divides the 8
	// cores 4/4 across the TENANTS first — B's lone job gets the whole
	// tenant half — and only then does A's priority-5 job win A's
	// internal remainder. Tenancy beats priority: B's priority-0 job
	// out-leases A's priority-5 one.
	b := NewCoreBudget(8)
	leases := acquireClaims(t, b, []Claim{
		{Tenant: "a", Priority: 5},
		{Tenant: "a"},
		{Tenant: "a"},
		{Tenant: "b"},
	})
	got := shares(leases)
	want := []int{2, 1, 1, 4}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("shares %v, want %v", got, want)
		}
	}
	held := b.HeldByTenant()
	if held["a"] != 4 || held["b"] != 4 {
		t.Fatalf("HeldByTenant = %v, want a:4 b:4", held)
	}
}

func TestCoreBudgetTenantCap(t *testing.T) {
	// A capped tenant's surplus flows to the uncapped one: with tenant A
	// capped at 2 cores, its two jobs keep one core each and B's single
	// job absorbs the remaining six.
	b := NewCoreBudget(8)
	leases := acquireClaims(t, b, []Claim{
		{Tenant: "a", TenantCores: 2},
		{Tenant: "a", TenantCores: 2},
		{Tenant: "b"},
	})
	got := shares(leases)
	want := []int{1, 1, 6}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("shares %v, want %v", got, want)
		}
	}
	if held := b.Held(); held != 8 {
		t.Fatalf("held %d, want the full budget", held)
	}
}

func TestCoreBudgetTenantReleaseRebalances(t *testing.T) {
	// When one tenant's jobs finish, the freed half of the machine flows
	// to the remaining tenant as its jobs poll between steps.
	b := NewCoreBudget(8)
	leases := acquireClaims(t, b, []Claim{
		{Tenant: "a"},
		{Tenant: "a"},
		{Tenant: "b"},
	})
	if got := shares(leases); got[0]+got[1] != 4 || got[2] != 4 {
		t.Fatalf("initial shares %v, want a-pair summing 4 and b at 4", got)
	}
	leases[2].Release()
	settle(leases[:2])
	if got := shares(leases[:2]); got[0]+got[1] != 8 {
		t.Fatalf("shares after release %v, want the full budget", got)
	}
}

func TestCoreBudgetUntaggedClaimMatchesLegacy(t *testing.T) {
	// Zero-valued Claims must reproduce the single-level arithmetic
	// exactly: the division TestCoreBudgetPriorityRemainder proves for
	// priority-only claims.
	b := NewCoreBudget(7)
	leases := acquireClaims(t, b, []Claim{
		{}, {Priority: 5}, {},
	})
	got := shares(leases)
	want := []int{2, 3, 2}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("shares %v, want %v", got, want)
		}
	}
}

func TestAcquireClaimRejectsBadClaims(t *testing.T) {
	b := NewCoreBudget(4)
	for name, c := range map[string]Claim{
		"negative tenant cap": {TenantCores: -2},
	} {
		if _, err := b.AcquireClaim(context.Background(), c); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
