package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"qurk/internal/answerstore"
	"qurk/internal/core"
	"qurk/internal/cost"
	"qurk/internal/crowd"
	"qurk/internal/dataset"
	"qurk/internal/hit"
	"qurk/internal/relation"
)

const isFemaleQuery = `SELECT c.name FROM celeb AS c WHERE isFemale(c.img)`

// newTestService builds a service over the celebrity dataset and a
// post-tracking simulated market.
func newTestService(t *testing.T, n int, budgets map[string]float64) (*Service, *crowd.SimMarket) {
	t.Helper()
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: n, Seed: 1})
	mcfg := crowd.DefaultConfig(1)
	mcfg.TrackPosts = true
	market := crowd.NewSimMarket(mcfg, d.Oracle())

	cat := relation.NewCatalog()
	cat.Register(d.Celeb)
	lib := core.NewLibrary()
	lib.MustRegister(dataset.IsFemaleTask())

	store, err := answerstore.Open("", answerstore.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	for id, b := range budgets {
		reg.Ensure(id, b)
	}
	svc, err := New(Config{
		Backends: map[string]crowd.Marketplace{"sim": market},
		Catalog:  cat,
		Library:  lib,
		Answers:  store,
		Options:  core.Options{Assignments: 3, FilterBatch: 2},
		Tenants:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc, market
}

// waitTerminal follows the query until it reaches a terminal state.
func waitTerminal(t *testing.T, q *Query) State {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := q.StreamRows(ctx, 0, func(int, relation.Tuple) error { return nil })
	if err != nil {
		t.Fatalf("query %s did not finish: %v", q.ID, err)
	}
	return st
}

// TestCrossQueryDedup is the tentpole's acceptance check: a second
// identical query — from a different tenant — posts zero new HITs,
// because every question is served from the shared answer store. The
// post-tracking simulator's admission log is the ground truth.
func TestCrossQueryDedup(t *testing.T) {
	svc, market := newTestService(t, 12, nil)

	q1, err := svc.Submit(SubmitRequest{Tenant: "alice", Query: isFemaleQuery})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, q1); st != StateDone {
		t.Fatalf("first query state = %s (%s)", st, q1.Snapshot().Error)
	}
	posted1 := len(market.PostedHITs())
	if posted1 == 0 {
		t.Fatal("first query posted no HITs")
	}

	q2, err := svc.Submit(SubmitRequest{Tenant: "bob", Query: isFemaleQuery})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, q2); st != StateDone {
		t.Fatalf("second query state = %s (%s)", st, q2.Snapshot().Error)
	}
	if posted2 := len(market.PostedHITs()); posted2 != posted1 {
		t.Fatalf("second identical query posted %d new HITs (admission log %d -> %d), want 0",
			posted2-posted1, posted1, posted2)
	}

	sn1, sn2 := q1.Snapshot(), q2.Snapshot()
	if sn2.Reused == 0 {
		t.Fatal("second query reused no stored answers")
	}
	if sn2.HITs != 0 {
		t.Fatalf("second query reports %d HITs, want 0", sn2.HITs)
	}
	if sn1.Rows != sn2.Rows {
		t.Fatalf("results diverge: %d rows vs %d rows", sn1.Rows, sn2.Rows)
	}

	// Ledgers split per tenant: alice paid for the crowd work, bob paid
	// nothing.
	alice, _ := svc.TenantSnapshot("alice")
	bob, _ := svc.TenantSnapshot("bob")
	if alice.SpentDollars <= 0 {
		t.Fatalf("alice spent $%.2f, want > 0", alice.SpentDollars)
	}
	if bob.SpentDollars != 0 {
		t.Fatalf("bob spent $%.2f, want 0", bob.SpentDollars)
	}
}

// TestConcurrentTenants runs two tenants' overlapping queries at the
// same time; with the race detector this exercises the shared mux,
// answer store, and tenant ledgers under contention. Both must finish
// with identical results, and the combined crowd work must not exceed
// one query's worth plus the (timing-dependent) overlap both started
// before the other stored its answers.
func TestConcurrentTenants(t *testing.T) {
	svc, market := newTestService(t, 10, nil)

	// Solo baseline on an identical, separately seeded world.
	solo, soloMarket := newTestService(t, 10, nil)
	qs, err := solo.Submit(SubmitRequest{Tenant: "solo", Query: isFemaleQuery})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, qs); st != StateDone {
		t.Fatalf("solo query state = %s", st)
	}
	soloPosted := len(soloMarket.PostedHITs())

	var wg sync.WaitGroup
	queries := make([]*Query, 2)
	errs := make([]error, 2)
	for i, tenant := range []string{"alice", "bob"} {
		q, err := svc.Submit(SubmitRequest{Tenant: tenant, Query: isFemaleQuery})
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
		wg.Add(1)
		go func(i int, q *Query) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_, errs[i] = q.StreamRows(ctx, 0, func(int, relation.Tuple) error { return nil })
		}(i, q)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	sn1, sn2 := queries[0].Snapshot(), queries[1].Snapshot()
	if sn1.State != StateDone || sn2.State != StateDone {
		t.Fatalf("states %s/%s, want done/done", sn1.State, sn2.State)
	}
	if sn1.Rows != sn2.Rows {
		t.Fatalf("concurrent identical queries disagree: %d rows vs %d rows", sn1.Rows, sn2.Rows)
	}
	// Cross-query reuse bounds the admission log: identical queries
	// mint identical HIT IDs, so even in the racy window where both
	// queries post, the tracking market re-attaches instead of
	// admitting duplicates — the log never exceeds one query's worth.
	posted := len(market.PostedHITs())
	if posted > soloPosted {
		t.Fatalf("concurrent pair admitted %d distinct HITs, solo run admits %d", posted, soloPosted)
	}
	// Ledgers are per tenant: each query is charged for what it posted
	// (answer-store hits post nothing), which is at least the distinct
	// work and at most both paying full freight.
	alice, _ := svc.TenantSnapshot("alice")
	bob, _ := svc.TenantSnapshot("bob")
	if got := alice.HITs + bob.HITs; got < posted || got > 2*soloPosted {
		t.Fatalf("tenant ledgers account %d HITs, want between %d and %d", got, posted, 2*soloPosted)
	}
}

// TestAdmissionControl rejects a query whose optimizer estimate
// exceeds the tenant's remaining budget, before anything runs.
func TestAdmissionControl(t *testing.T) {
	svc, market := newTestService(t, 12, map[string]float64{"poor": 0.01})
	_, err := svc.Submit(SubmitRequest{Tenant: "poor", Query: isFemaleQuery})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Submit err = %v, want ErrBudgetExceeded", err)
	}
	if n := len(market.PostedHITs()); n != 0 {
		t.Fatalf("rejected query posted %d HITs", n)
	}
}

// TestMidRunCutoff: a budget that passes admission (the optimizer
// underestimates) still cuts the query off at the first group that
// would overdraft, failing the query with ErrBudgetExceeded.
func TestMidRunCutoff(t *testing.T) {
	tenant := &Tenant{ID: "t", BudgetDollars: 0.10, Ledger: cost.NewLedger()}
	gate := &BudgetGate{Tenant: tenant, Label: "q1", Inner: nopMarket{}}

	small := &hit.Group{ID: "g1", HITs: []*hit.HIT{{ID: "h1", Assignments: 3}}} // $0.045
	if _, err := gate.Run(small); err != nil {
		t.Fatalf("first group rejected: %v", err)
	}
	big := &hit.Group{ID: "g2", HITs: make([]*hit.HIT, 4)} // 4 × 3 asn = $0.18
	for i := range big.HITs {
		big.HITs[i] = &hit.HIT{ID: fmt.Sprintf("h%d", i+2), Assignments: 3}
	}
	_, err := gate.Run(big)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("overdrafting group err = %v, want ErrBudgetExceeded", err)
	}
	if !strings.Contains(err.Error(), "tenant t") {
		t.Fatalf("error does not name the tenant: %v", err)
	}
	// The rejected group was not charged.
	if got, want := tenant.SpentDollars(), cost.Dollars(1, 3); got != want {
		t.Fatalf("spent $%.3f, want $%.3f", got, want)
	}
	// Async rejection takes the same path.
	a := <-gate.RunAsync(big)
	if !errors.Is(a.Err, ErrBudgetExceeded) {
		t.Fatalf("RunAsync err = %v, want ErrBudgetExceeded", a.Err)
	}
}

// nopMarket accepts every group and returns an empty result.
type nopMarket struct{}

func (nopMarket) Run(g *hit.Group) (*crowd.RunResult, error) { return &crowd.RunResult{}, nil }
func (nopMarket) RunAsync(g *hit.Group) <-chan crowd.Async {
	return crowd.GoRun(func() (*crowd.RunResult, error) { return &crowd.RunResult{}, nil })
}

// blockingMarket holds every Run until released, so tests can observe
// a query mid-flight.
type blockingMarket struct {
	release chan struct{}
	inner   crowd.Marketplace
}

func (b *blockingMarket) Run(g *hit.Group) (*crowd.RunResult, error) {
	<-b.release
	return b.inner.Run(g)
}
func (b *blockingMarket) RunAsync(g *hit.Group) <-chan crowd.Async {
	return crowd.GoRun(func() (*crowd.RunResult, error) { return b.Run(g) })
}

// TestCancel cancels a query blocked on the marketplace and asserts
// the cancelled terminal state.
func TestCancel(t *testing.T) {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 8, Seed: 1})
	cat := relation.NewCatalog()
	cat.Register(d.Celeb)
	lib := core.NewLibrary()
	lib.MustRegister(dataset.IsFemaleTask())
	blocked := &blockingMarket{
		release: make(chan struct{}),
		inner:   crowd.NewSimMarket(crowd.DefaultConfig(1), d.Oracle()),
	}
	svc, err := New(Config{
		Backends: map[string]crowd.Marketplace{"sim": blocked},
		Catalog:  cat,
		Library:  lib,
		Options:  core.Options{Assignments: 3, FilterBatch: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer close(blocked.release)
	defer svc.Close()

	q, err := svc.Submit(SubmitRequest{Tenant: "alice", Query: isFemaleQuery})
	if err != nil {
		t.Fatal(err)
	}
	q.Cancel()
	if st := waitTerminal(t, q); st != StateCancelled {
		t.Fatalf("state = %s, want cancelled", st)
	}
}

// TestMuxMultiplexesBackend: many concurrent posters through one Mux
// all complete, and the admission counters see every group.
func TestMuxMultiplexesBackend(t *testing.T) {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 4, Seed: 1})
	m := NewMux(crowd.NewSimMarket(crowd.DefaultConfig(1), d.Oracle()))
	defer m.Close()

	const posters = 8
	var wg sync.WaitGroup
	errs := make([]error, posters)
	for i := 0; i < posters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := hit.Question{
				ID:    fmt.Sprintf("mux/t%02d", i),
				Kind:  hit.FilterQ,
				Task:  "isFemale",
				Tuple: d.Celeb.Row(i % d.Celeb.Len()),
			}
			g := &hit.Group{ID: fmt.Sprintf("mux-g%02d", i), HITs: []*hit.HIT{{
				ID: fmt.Sprintf("mux-g%02d/h0", i), GroupID: fmt.Sprintf("mux-g%02d", i),
				Assignments: 3, Questions: []hit.Question{q},
			}}}
			res, err := m.Run(g)
			if err == nil && len(res.Assignments) == 0 {
				err = errors.New("no assignments")
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("poster %d: %v", i, err)
		}
	}
	groups, hits := m.Stats()
	if groups != posters || hits != posters {
		t.Fatalf("mux admitted %d groups / %d HITs, want %d/%d", groups, hits, posters, posters)
	}
	// Closed mux rejects new work instead of hanging.
	m.Close()
	a := <-m.RunAsync(&hit.Group{ID: "late"})
	if a.Err == nil {
		t.Fatal("closed mux accepted a group")
	}
}

// TestSnapshotCostIndependentOfLedgerSize guards the per-query dollar
// sum: a status poll must not copy the tenant's whole ledger, whose
// length grows with every query the tenant ever ran.
func TestSnapshotCostIndependentOfLedgerSize(t *testing.T) {
	svc, _ := newTestService(t, 12, map[string]float64{"alice": 100})
	q, err := svc.Submit(SubmitRequest{Tenant: "alice", Query: isFemaleQuery})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, q); st != StateDone {
		t.Fatalf("query = %s, want done", st)
	}
	ledger := svc.tenants.Get("alice").Ledger
	want := q.Snapshot().Dollars
	// perCall measures Snapshot's allocations and allocated bytes.
	perCall := func() (allocs, bytes float64) {
		const runs = 100
		allocs = testing.AllocsPerRun(runs, func() { q.Snapshot() })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			q.Snapshot()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	grow := func(n int) {
		for i := len(ledger.Entries()); i < n; i++ {
			ledger.Add("other-query", 1, 3)
		}
	}
	grow(10)
	smallAllocs, smallBytes := perCall()
	grow(10000)
	bigAllocs, bigBytes := perCall()
	// A copy of 10,000 entries would be hundreds of KiB per call; the
	// slack only absorbs allocations by the service's own goroutines.
	if bigAllocs != smallAllocs || bigBytes > 2*smallBytes+1024 {
		t.Fatalf("Snapshot costs %v allocs, %.0f B with 10 ledger entries but %v allocs, %.0f B with 10,000",
			smallAllocs, smallBytes, bigAllocs, bigBytes)
	}
	if got := q.Snapshot().Dollars; got != want {
		t.Fatalf("Dollars = %v after other queries' charges, want %v", got, want)
	}
}
