package service

import (
	"errors"
	"strings"
	"testing"

	"qurk/internal/core"
	"qurk/internal/crowd"
	"qurk/internal/dataset"
	"qurk/internal/relation"
)

// TestAdmissionPricesThePlanItRuns: admission prices the plan the query
// executes. On the default options a 40-square ORDER BY runs Compare
// S=5 — 97 HITs at 5 assignments, $7.28 — so a tenant with $5.00 is
// refused at Submit with nothing posted, and a tenant whose budget
// covers exactly that estimate runs the query to completion within it.
func TestAdmissionPricesThePlanItRuns(t *testing.T) {
	const src = `SELECT label FROM squares ORDER BY squareSorter(img)`
	sq := dataset.NewSquares(40)
	mcfg := crowd.DefaultConfig(1)
	mcfg.TrackPosts = true
	market := crowd.NewSimMarket(mcfg, sq.Oracle())
	cat := relation.NewCatalog()
	cat.Register(sq.Rel)
	lib := core.NewLibrary()
	lib.MustRegister(dataset.SquareSorterTask())
	reg := NewRegistry()
	reg.Ensure("small", 5.00)
	reg.Ensure("exact", 7.28)
	svc, err := New(Config{
		Backends: map[string]crowd.Marketplace{"sim": market},
		Catalog:  cat,
		Library:  lib,
		Tenants:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)

	_, err = svc.Submit(SubmitRequest{Tenant: "small", Query: src})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Submit with $5.00 = %v, want ErrBudgetExceeded", err)
	}
	if !strings.Contains(err.Error(), "query estimate is $7.28") {
		t.Errorf("admission error %q does not price the Compare S=5 plan at $7.28", err)
	}
	if n := len(market.PostedHITs()); n != 0 {
		t.Fatalf("refused query posted %d HITs, want 0", n)
	}
	if sn, _ := svc.TenantSnapshot("small"); sn.SpentDollars != 0 {
		t.Fatalf("refused tenant spent $%.2f, want $0", sn.SpentDollars)
	}

	q, err := svc.Submit(SubmitRequest{Tenant: "exact", Query: src})
	if err != nil {
		t.Fatalf("Submit with $7.28: %v", err)
	}
	if st := waitTerminal(t, q); st != StateDone {
		t.Fatalf("query state = %s (%s)", st, q.Snapshot().Error)
	}
	if sn := q.Snapshot(); sn.HITs != 97 || sn.Rows != 40 {
		t.Errorf("query posted %d HITs for %d rows, want 97 for 40", sn.HITs, sn.Rows)
	}
}
