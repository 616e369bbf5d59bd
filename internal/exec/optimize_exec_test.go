package exec

// Estimator-accuracy tests: the optimizer's HIT estimates are checked
// against actual Ledger spending on SimMarket runs. Tolerances:
//
//   - Operators whose input cardinality is known exactly (scans feed
//     them directly) must estimate HITs EXACTLY — the batch formulas
//     and grid layouts are deterministic.
//   - Operators downstream of estimated selectivities (crowd filters
//     at 0.5) must land within 50% relative error on these datasets.
//   - Pre-filtered joins must land within a factor of two: the pass
//     fraction folds in dataset value skew and extraction noise that a
//     static model cannot see (ROADMAP records calibrating
//     selectivities from observed runs as the follow-on).
//
// These runs also prove the executor honors the optimizer's physical
// annotations: the engine options deliberately default to different
// interfaces than the optimizer picks.

import (
	"context"
	"math"
	"testing"

	"qurk/internal/core"
	"qurk/internal/crowd"
	"qurk/internal/dataset"
	"qurk/internal/join"
	"qurk/internal/plan"
	"qurk/internal/query"
)

// optimizeAndRun optimizes src against the engine's catalog and runs
// the annotated plan.
func optimizeAndRun(t *testing.T, e *core.Engine, src string, budget float64) (*plan.CostedPlan, *Stats) {
	t.Helper()
	stmt, err := query.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	node, err := plan.Build(stmt, e.Library)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := plan.Optimize(node, e.Catalog, plan.OptimizeOptionsFrom(e.Options, budget))
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := Run(context.Background(), e, cp.Root, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cp, stats
}

func relErr(actual, est int) float64 {
	if est == 0 {
		if actual == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(float64(actual-est)) / float64(est)
}

// TestEstimateExactFilter: a filter over a base relation has exact
// input cardinality, so the HIT estimate must match the ledger exactly.
func TestEstimateExactFilter(t *testing.T) {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 20, Seed: 21})
	e := core.NewEngine(crowd.NewSimMarket(crowd.DefaultConfig(21), d.Oracle()), core.Options{})
	e.Catalog.Register(d.Celeb)
	e.Library.MustRegister(dataset.IsFemaleTask())

	cp, stats := optimizeAndRun(t, e, `SELECT c.name FROM celeb c WHERE isFemale(c.img)`, 0)
	if cp.TotalHITs != 4 {
		t.Errorf("est = %d HITs, want 4 (= ⌈20/5⌉)", cp.TotalHITs)
	}
	if got := e.Ledger.TotalHITs(); got != cp.TotalHITs {
		t.Errorf("actual %d HITs vs estimate %d: filter estimates must be exact", got, cp.TotalHITs)
	}
	if stats.TotalHITs() != cp.TotalHITs {
		t.Errorf("stats %d vs estimate %d", stats.TotalHITs(), cp.TotalHITs)
	}
}

// TestEstimateExactJoin: a featureless join over two base relations
// has exact pair counts; the optimizer picks SmartBatch (the engine
// default here is Simple, so agreement also proves the annotation is
// honored) and the grid layout matches the estimate exactly.
func TestEstimateExactJoin(t *testing.T) {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 25, Seed: 22})
	e := core.NewEngine(crowd.NewSimMarket(crowd.DefaultConfig(22), d.Oracle()), core.Options{})
	e.Catalog.Register(d.Celeb)
	e.Catalog.Register(d.Photos)
	e.Library.MustRegister(dataset.SamePersonTask())

	cp, _ := optimizeAndRun(t, e, `SELECT c.name FROM celeb c JOIN photos p ON samePerson(c.img, p.img)`, 0)
	j := cp.Ops[0]
	if jn := j.Node.(*plan.CrowdJoin); jn.Phys.Algorithm != join.Smart || jn.Phys.GridRows != 5 {
		t.Fatalf("optimizer chose %v, expected SmartBatch 5×5 at 25×25", j.Node.(*plan.CrowdJoin).Phys)
	}
	want := 25 // ⌈25/5⌉ × ⌈25/5⌉ grids
	if j.HITs != want {
		t.Errorf("est = %d, want %d", j.HITs, want)
	}
	if got := e.Ledger.TotalHITs(); got != want {
		t.Errorf("actual %d HITs vs estimate %d: full-cross grid layout is deterministic", got, want)
	}
}

// TestEstimateExactSorts: compare covers and hybrid schedules are
// deterministic, so sort estimates over base relations are exact. The
// engine default (Compare) differs from the optimizer's large-n choice
// (Hybrid), proving SortPhys is honored.
func TestEstimateExactSorts(t *testing.T) {
	for _, n := range []int{12, 40} {
		sq := dataset.NewSquares(n)
		e := core.NewEngine(crowd.NewSimMarket(crowd.DefaultConfig(int64(n)), sq.Oracle()), core.Options{})
		e.Catalog.Register(sq.Rel)
		e.Library.MustRegister(dataset.SquareSorterTask())

		cp, _ := optimizeAndRun(t, e, `SELECT label FROM squares ORDER BY squareSorter(img)`, 0)
		if got := e.Ledger.TotalHITs(); got != cp.TotalHITs {
			t.Errorf("n=%d: actual %d HITs vs estimate %d (choice %s)",
				n, got, cp.TotalHITs, cp.Ops[0].Choice)
		}
	}
}

// TestEstimateFilteredJoinTolerance: the feature pre-filter's pass
// fraction (three features with the UNKNOWN wildcard share folded in)
// and the post-prune batch count are estimates; actual spending must
// land within the documented factor of two.
func TestEstimateFilteredJoinTolerance(t *testing.T) {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 80, Seed: 23})
	e := core.NewEngine(crowd.NewSimMarket(crowd.DefaultConfig(23), d.Oracle()), core.Options{})
	e.Catalog.Register(d.Celeb)
	e.Catalog.Register(d.Photos)
	e.Library.MustRegister(dataset.SamePersonTask())
	e.Library.MustRegister(dataset.GenderTask())
	e.Library.MustRegister(dataset.HairColorTask())
	e.Library.MustRegister(dataset.SkinColorTask())

	cp, _ := optimizeAndRun(t, e, `SELECT c.name FROM celeb c JOIN photos p ON samePerson(c.img, p.img)
AND POSSIBLY gender(c.img) = gender(p.img)
AND POSSIBLY hairColor(c.img) = hairColor(p.img)
AND POSSIBLY skinColor(c.img) = skinColor(p.img)`, 0)
	jn := cp.Ops[0].Node.(*plan.CrowdJoin)
	if !jn.Phys.UseFeatures {
		t.Fatalf("optimizer should pre-filter at 80×80 with three features, got %v", jn.Phys)
	}
	actual := e.Ledger.TotalHITs()
	if re := relErr(actual, cp.TotalHITs); re > 1.0 {
		t.Errorf("actual %d HITs vs estimate %d: %.0f%% error exceeds the documented factor of two",
			actual, cp.TotalHITs, re*100)
	}
}

// TestEstimateDownstreamSelectivityTolerance: a join fed by a crowd
// filter runs on an estimated cardinality (selectivity 0.5); the
// dataset's split is near half, so the estimate must land within 50%.
func TestEstimateDownstreamSelectivityTolerance(t *testing.T) {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 20, Seed: 24})
	e := core.NewEngine(crowd.NewSimMarket(crowd.DefaultConfig(24), d.Oracle()), core.Options{})
	e.Catalog.Register(d.Celeb)
	e.Catalog.Register(d.Photos)
	e.Library.MustRegister(dataset.IsFemaleTask())
	e.Library.MustRegister(dataset.SamePersonTask())

	cp, _ := optimizeAndRun(t, e, `SELECT c.name FROM celeb c JOIN photos p ON samePerson(c.img, p.img)
WHERE isFemale(c.img)`, 0)
	actual := e.Ledger.TotalHITs()
	if re := relErr(actual, cp.TotalHITs); re > 0.5 {
		t.Errorf("actual %d HITs vs estimate %d: %.0f%% error exceeds the documented 50%%",
			actual, cp.TotalHITs, re*100)
	}
}

// TestBudgetAssignmentsHonored: a tight budget lowers per-operator
// assignment levels, and the executor posts (and prices) them.
func TestBudgetAssignmentsHonored(t *testing.T) {
	sq := dataset.NewSquares(40)
	e := core.NewEngine(crowd.NewSimMarket(crowd.DefaultConfig(9), sq.Oracle()), core.Options{})
	e.Catalog.Register(sq.Rel)
	e.Library.MustRegister(dataset.SquareSorterTask())

	cp, _ := optimizeAndRun(t, e, `SELECT label FROM squares ORDER BY squareSorter(img)`, 0.30)
	op := cp.Ops[0]
	if op.Assignments != 1 {
		t.Fatalf("$0.30 over 8 rate HITs leaves assignments = %d, want 1", op.Assignments)
	}
	if cp.TotalDollars > 0.30+1e-9 {
		t.Errorf("estimate $%.2f exceeds budget", cp.TotalDollars)
	}
	for _, entry := range e.Ledger.Entries() {
		if entry.Assignments != 1 {
			t.Errorf("ledger entry %q priced at %d assignments, want 1", entry.Label, entry.Assignments)
		}
	}
	if got := e.Ledger.TotalDollars(); got > 0.30+1e-9 {
		t.Errorf("actual spend $%.2f exceeds the $0.30 budget", got)
	}
}
