// The CPU-budget layer: a core-lease allocator that lets job-level and
// cell-level parallelism compose instead of compete. The paper's production
// runs partition a fixed machine — Table 2's Nodes × ProcsPerNode grid with
// a fixed thread count per process — whereas an unbudgeted scheduler pool
// does the opposite: every job's solver defaults to GOMAXPROCS intra-step
// workers, so an N-job batch oversubscribes the machine N-fold.
//
// A CoreBudget owns a fixed number of cores and divides them among the live
// jobs: integer shares, floor one, remainder cores to the higher-priority
// (then earlier-acquired) jobs. The division is a *target*; what a job may
// actually use is its *held* share, and the two converge through a
// claim/commit protocol designed so the held shares never sum past the
// budget while the live-job count is within it:
//
//   - AcquireClaim registers the job and blocks until it can claim cores:
//     its target if free, otherwise whatever is free (at least one).
//     Running jobs surrender cores only between steps, so the wait is
//     bounded by one step of the slowest running job — provided every
//     holder IS polled between steps, which runner.WithWorkerBudget
//     guarantees.
//   - Workers — polled by the runner between steps — commits changes:
//     a shrunk target takes effect immediately (the job steps with fewer
//     workers from now on, freeing cores for waiters), a grown target is
//     claimed only as far as free capacity allows.
//   - Release returns the job's cores and rebalances the rest.
//
// When the caller oversubscribes the budget itself — more live jobs than
// cores — the floor-one guarantee wins: every job claims one core
// immediately and the held sum is the live-job count, not the budget. That
// regime only arises when the worker pool is sized past the budget; the
// default pool (GOMAXPROCS workers) with the default budget (GOMAXPROCS
// cores) never enters it.
//
// Tenancy (AcquireClaim) makes the division two-level: leases tagged with
// a tenant form a group, cores are water-filled FAIRLY across the groups
// first — each group's running total grows one core at a time, lowest
// total first, regardless of how many jobs the group holds or what their
// priorities are — and only then does priority order the division *within*
// a group. A tenant cap (Claim.TenantCores) bounds its group's collective
// share; capped-out surplus flows to the other groups. Untagged leases
// (Claim.Tenant = "") all share one implicit group, which reduces exactly
// to the single-level arithmetic above.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// CoreBudget divides a fixed pool of CPU cores among live job leases. The
// zero value is not usable; construct with NewCoreBudget. All methods are
// safe for concurrent use.
type CoreBudget struct {
	mu     sync.Mutex
	cond   *sync.Cond
	total  int
	seq    int
	leases []*Lease // live leases in acquisition order
}

// NewCoreBudget builds a budget of total cores (total ≤ 0 selects
// GOMAXPROCS at construction time).
func NewCoreBudget(total int) *CoreBudget {
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	b := &CoreBudget{total: total}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Total returns the number of cores the budget divides.
func (b *CoreBudget) Total() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}

// Live returns the number of live (acquired, unreleased) leases.
func (b *CoreBudget) Live() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.leases)
}

// Held returns the sum of currently claimed shares — the number of cores
// live jobs may be using right now. While Live() ≤ Total() it never
// exceeds Total().
func (b *CoreBudget) Held() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.heldLocked()
}

// HeldByTenant returns the currently claimed shares summed per tenant tag
// (untagged leases under "") — the per-tenant core-usage gauge a control
// plane exports.
func (b *CoreBudget) HeldByTenant() map[string]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]int)
	for _, l := range b.leases {
		if l.held > 0 {
			out[l.tenant] += l.held
		}
	}
	return out
}

// Claim describes one lease acquisition: who is asking (the tenant tag and
// its collective cap) and how urgent it is within its tenant. The zero
// Claim is a plain untenanted acquire. No claim bounds its own lease's
// share: every lease has the floor of one core and may grow to whatever
// the division gives it, as each process of the paper's runs has the same
// thread count.
type Claim struct {
	// Tenant groups this lease for the two-level division: cores are
	// fair-shared across tenant groups before priority splits a group's
	// total among its members. "" joins the implicit default group.
	Tenant string
	// TenantCores caps the group's collective share (0 = uncapped). When
	// members disagree — quotas reconfigured between submissions — the
	// smallest positive cap wins.
	TenantCores int
	// Priority orders the within-group remainder (higher first).
	Priority int
}

// AcquireClaim registers a live job under claim c and blocks until the
// lease holds at least one core (see the package comment for the claim
// rules). It returns the context's error if ctx is cancelled while waiting,
// with the registration undone.
func (b *CoreBudget) AcquireClaim(ctx context.Context, c Claim) (*Lease, error) {
	if c.TenantCores < 0 {
		return nil, fmt.Errorf("sched: negative tenant core cap %d", c.TenantCores)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	l := &Lease{
		b: b, priority: c.Priority, seq: b.seq,
		tenant: c.Tenant, tenantCap: c.TenantCores,
	}
	b.seq++
	b.leases = append(b.leases, l)
	b.rebalanceLocked()
	// A cancelled context must wake the condvar wait below; AfterFunc is
	// unregistered on return so an uncancelled acquire leaks nothing.
	stop := context.AfterFunc(ctx, func() {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	})
	defer stop()
	for {
		if err := ctx.Err(); err != nil {
			l.released = true
			b.removeLocked(l)
			return nil, err
		}
		if len(b.leases) > b.total {
			// Caller-oversubscribed regime: floor one, immediately.
			l.held = 1
			return l, nil
		}
		if free := b.total - b.heldLocked(); free >= 1 {
			l.held = min(l.target, free)
			return l, nil
		}
		b.cond.Wait()
	}
}

// heldLocked sums the claimed shares. Callers hold b.mu.
func (b *CoreBudget) heldLocked() int {
	sum := 0
	for _, l := range b.leases {
		sum += l.held
	}
	return sum
}

// removeLocked unregisters a lease and redivides the budget among the rest.
// Callers hold b.mu.
func (b *CoreBudget) removeLocked(l *Lease) {
	for i, cur := range b.leases {
		if cur == l {
			b.leases = append(b.leases[:i], b.leases[i+1:]...)
			break
		}
	}
	b.rebalanceLocked()
}

// tenantGroup is the rebalancer's view of one tenant's leases: the members
// in within-group dispatch order, the collective cap, and the running total
// of targets the across-group water-fill grows.
type tenantGroup struct {
	members []*Lease // sorted priority desc, then seq asc
	cap     int      // smallest positive member tenantCap; 0 = uncapped
	total   int      // sum of member targets so far
}

// growable reports whether the across-group water-fill may give this group
// another core: the group cap is not reached.
func (g *tenantGroup) growable() bool {
	return g.cap == 0 || g.total < g.cap
}

// grow gives the group one more core, targeting the member with the lowest
// current target, ties broken by priority (higher first) then acquisition
// order — the member list is pre-sorted so the first strictly-lowest wins.
func (g *tenantGroup) grow() {
	pick := g.members[0]
	for _, l := range g.members[1:] {
		if l.target < pick.target {
			pick = l
		}
	}
	pick.target++
	g.total++
}

// rebalanceLocked recomputes every live lease's target share by two-level
// water-filling. Each lease starts at the floor of one core; the remaining
// cores are then granted one at a time, first choosing the tenant group
// with the lowest running total (ties to the earliest-acquired group) —
// cores divide FAIRLY across tenants no matter how many jobs each tenant
// runs — and within the chosen group choosing the member with the lowest
// current target, ties broken by priority (higher first) then acquisition
// order. A group stops receiving once its tenant cap is reached; the
// surplus flows to the other groups. With a single group — all leases
// untagged, the pre-tenancy world — the group choice is vacuous and this
// reproduces the original arithmetic exactly: total/n each, floor one,
// remainder to the higher-priority (then earlier) leases, because
// water-filling from a uniform floor is equal division. Only when the live
// jobs outnumber the cores does the sum overshoot — one core each, the
// documented caller-oversubscribed regime. Targets take effect as jobs
// poll Workers between steps. Callers hold b.mu.
func (b *CoreBudget) rebalanceLocked() {
	n := len(b.leases)
	if n == 0 {
		b.cond.Broadcast()
		return
	}
	// Group by tenant tag; b.leases is in acquisition order, so the groups
	// slice is ordered by each tenant's first acquisition — the across-group
	// tiebreak.
	byTenant := make(map[string]*tenantGroup)
	var groups []*tenantGroup
	for _, l := range b.leases {
		g, ok := byTenant[l.tenant]
		if !ok {
			g = &tenantGroup{}
			byTenant[l.tenant] = g
			groups = append(groups, g)
		}
		g.members = append(g.members, l)
		if l.tenantCap > 0 && (g.cap == 0 || l.tenantCap < g.cap) {
			g.cap = l.tenantCap
		}
	}
	for _, g := range groups {
		sort.SliceStable(g.members, func(i, j int) bool {
			if g.members[i].priority != g.members[j].priority {
				return g.members[i].priority > g.members[j].priority
			}
			return g.members[i].seq < g.members[j].seq
		})
		g.total = len(g.members)
		for _, l := range g.members {
			l.target = 1
		}
	}
	// In the live-jobs-past-budget regime remaining is ≤ 0 and everyone
	// stays at one core; otherwise water-fill the surplus across groups.
	for remaining := b.total - n; remaining > 0; remaining-- {
		var pick *tenantGroup
		for _, g := range groups {
			if !g.growable() {
				continue
			}
			if pick == nil || g.total < pick.total {
				pick = g // first-acquired group order is the tiebreak
			}
		}
		if pick == nil {
			break // every group is capped; surplus cores stay idle
		}
		pick.grow()
	}
	// Shrunk targets free cores only when their holders next poll, but
	// waiters must also re-check after, e.g., a release changed the regime.
	b.cond.Broadcast()
}

// Lease is one live job's share of a CoreBudget. It implements
// runner.WorkerLease: the runner polls Workers between steps and applies
// the share to solvers implementing runner.WorkerBudgeted.
type Lease struct {
	b         *CoreBudget
	priority  int
	seq       int
	tenant    string // fair-share group tag ("" = implicit default group)
	tenantCap int    // collective group cap carried by this lease (0 = none)
	target    int    // allocator's goal share, set by rebalance
	held      int    // claimed share — what Workers reports
	released  bool
}

// Workers returns the lease's current share, committing any pending
// rebalance: a reduced target takes effect now (cores freed for other
// jobs), an increased target is claimed as far as free capacity allows.
// The runner calls this between steps, which is exactly when the job's
// intra-step workers are quiescent and the share may change. A released
// lease reports zero.
func (l *Lease) Workers() int {
	b := l.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if l.released {
		return 0
	}
	if l.held > l.target {
		l.held = l.target
		b.cond.Broadcast()
	} else if l.held < l.target {
		if free := b.total - b.heldLocked(); free > 0 {
			grow := l.target - l.held
			if grow > free {
				grow = free
			}
			l.held += grow
		}
	}
	return l.held
}

// Release returns the lease's cores to the budget and rebalances the
// remaining live jobs. Release is idempotent.
func (l *Lease) Release() {
	b := l.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if l.released {
		return
	}
	l.released = true
	l.held = 0
	b.removeLocked(l)
}
