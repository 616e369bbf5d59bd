// Tenants, budgets, and the marketplace budget gate.
//
// qurkd admits queries from many tenants against shared crowd
// backends. Each tenant carries a dollar budget and a cost.Ledger;
// every HIT group any of the tenant's queries posts is priced at the
// paper's $0.015-per-assignment rate and charged against the budget
// *before* it reaches the marketplace, so a tenant that runs out of
// money mid-query stops posting immediately (the query fails with
// ErrBudgetExceeded) instead of discovering the overdraft at the end.
package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"qurk/internal/cost"
	"qurk/internal/crowd"
	"qurk/internal/hit"
	"qurk/internal/wal"
)

// ErrBudgetExceeded reports that posting a HIT group would push a
// tenant past its dollar budget. Queries surface it as their failure
// reason; admission control surfaces it before a query starts.
var ErrBudgetExceeded = errors.New("service: tenant budget exceeded")

// Tenant is one paying principal. Budget checks and charges are
// serialized per tenant, so concurrent queries cannot jointly
// overdraft.
type Tenant struct {
	// ID names the tenant in the HTTP API.
	ID string
	// BudgetDollars caps total crowd spend across all the tenant's
	// queries; 0 means unlimited.
	BudgetDollars float64
	// Ledger accumulates every charged HIT group, labeled by query.
	Ledger *cost.Ledger

	mu sync.Mutex
}

// SpentDollars is the tenant's total charged crowd spend.
func (t *Tenant) SpentDollars() float64 { return t.Ledger.TotalDollars() }

// RemainingDollars is budget minus spend (0 when over, always 0 for
// unlimited tenants — check BudgetDollars to distinguish).
func (t *Tenant) RemainingDollars() float64 {
	if t.BudgetDollars <= 0 {
		return 0
	}
	if r := t.BudgetDollars - t.SpentDollars(); r > 0 {
		return r
	}
	return 0
}

// admit checks that est more dollars fit in the budget without
// charging anything (admission control: reject a query whose optimizer
// estimate cannot fit in what is left).
func (t *Tenant) admit(est float64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.BudgetDollars > 0 && t.SpentDollars()+est > t.BudgetDollars+priceEpsilon {
		return fmt.Errorf("%w: tenant %s has $%.2f of $%.2f left, query estimate is $%.2f",
			ErrBudgetExceeded, t.ID, t.BudgetDollars-t.SpentDollars(), t.BudgetDollars, est)
	}
	return nil
}

// priceEpsilon absorbs float accumulation when a tenant spends exactly
// its budget.
const priceEpsilon = 1e-9

// charge prices one HIT group and records it in the ledger, or rejects
// it when the budget cannot cover it. label names the ledger entry
// (the query ID).
func (t *Tenant) charge(label string, group *hit.Group) error {
	hits, price := groupPrice(group)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.BudgetDollars > 0 && t.SpentDollars()+price > t.BudgetDollars+priceEpsilon {
		return fmt.Errorf("%w: tenant %s spent $%.2f of $%.2f, next group of %d HITs costs $%.2f",
			ErrBudgetExceeded, t.ID, t.SpentDollars(), t.BudgetDollars, hits, price)
	}
	// Ledger entries are (hits, assignments-per-HIT); groups are
	// uniform per chunk, so record at the first HIT's assignment level.
	asn := 1
	if len(group.HITs) > 0 {
		asn = group.HITs[0].Assignments
	}
	t.Ledger.Add(label, hits, asn)
	return nil
}

// groupPrice sums each HIT's assignments at the paper's rate.
func groupPrice(group *hit.Group) (hits int, dollars float64) {
	for i := range group.HITs {
		dollars += cost.Dollars(1, group.HITs[i].Assignments)
	}
	return len(group.HITs), dollars
}

// Registry is the concurrency-safe tenant directory.
type Registry struct {
	mu      sync.Mutex
	tenants map[string]*Tenant
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{tenants: map[string]*Tenant{}} }

// Ensure returns the named tenant, creating it with the given budget
// if absent (an existing tenant's budget is not changed).
func (r *Registry) Ensure(id string, budgetDollars float64) *Tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.tenants[id]; ok {
		return t
	}
	t := &Tenant{ID: id, BudgetDollars: budgetDollars, Ledger: cost.NewLedger()}
	r.tenants[id] = t
	return t
}

// Get returns the named tenant or nil.
func (r *Registry) Get(id string) *Tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tenants[id]
}

// List returns every tenant, sorted by ID.
func (r *Registry) List() []*Tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// BudgetGate wraps a marketplace so every posted group is charged to a
// tenant first. It is the Market a per-query engine posts through:
// the gate enforces the mid-run cutoff, the inner marketplace (usually
// the backend's shared Mux) does the crowd work.
type BudgetGate struct {
	// Tenant is charged for every group.
	Tenant *Tenant
	// Label names the ledger entries (the query ID).
	Label string
	// Inner is the wrapped marketplace.
	Inner crowd.Marketplace
	// Journal, when set, makes charges exactly-once across restarts: a
	// group the previous process already charged (its charge record is
	// in the recovered journal) is not charged again, and every fresh
	// charge is logged before the post so the NEXT restart can skip it
	// too. Set by the service's journal wiring; nil for ephemeral runs.
	Journal *wal.Journal
}

// chargeOnce charges the group to the tenant exactly once across
// process restarts. With a journal attached, a recovered charge record
// for this group's key means the money was taken in a previous life —
// skip the ledger and just let the post proceed (the wal.Market layer
// above will typically have replayed the result anyway; this guards
// the crash window between charge and result commit). Fresh charges
// append a charge record after the ledger commits, closing the window
// for the next crash.
func (g *BudgetGate) chargeOnce(group *hit.Group) error {
	if g.Journal != nil && g.Journal.TakeCharge(wal.GroupKey(group)) {
		return nil
	}
	if err := g.Tenant.charge(g.Label, group); err != nil {
		return err
	}
	if g.Journal != nil {
		asn := 1
		if len(group.HITs) > 0 {
			asn = group.HITs[0].Assignments
		}
		return g.Journal.LogCharge(wal.GroupKey(group), len(group.HITs), asn)
	}
	return nil
}

// RunAsync charges the group, then posts it without blocking; the
// charge commits before RunAsync returns, and a budget rejection is
// delivered on the returned channel.
func (g *BudgetGate) RunAsync(group *hit.Group) <-chan crowd.Async {
	if err := g.chargeOnce(group); err != nil {
		ch := make(chan crowd.Async, 1)
		ch <- crowd.Async{Err: err}
		return ch
	}
	return g.Inner.RunAsync(group)
}

// Run implements crowd.Marketplace by waiting on RunAsync.
func (g *BudgetGate) Run(group *hit.Group) (*crowd.RunResult, error) {
	a := <-g.RunAsync(group)
	return a.Result, a.Err
}
