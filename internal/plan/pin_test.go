package plan

import (
	"testing"

	"qurk/internal/core"
	"qurk/internal/dataset"
	"qurk/internal/join"
	"qurk/internal/sortop"
)

// TestPinWritesCompleteAnnotations: Pin fills every field of every
// unannotated crowd node from the options, defaults included, and
// leaves an existing annotation alone.
func TestPinWritesCompleteAnnotations(t *testing.T) {
	f := &CrowdFilter{Input: &Scan{Table: "celeb"}, Task: dataset.IsFemaleTask()}
	cj := &CrowdJoin{Left: f, Right: &Scan{Table: "photos"}, Task: dataset.SamePersonTask()}
	ob := &CrowdOrderBy{Input: cj, Task: dataset.QualityTask()}
	kept := &SortPhys{Method: core.SortRate, RateBatch: 2, Assignments: 1}
	ob2 := &CrowdOrderBy{Input: ob, Task: dataset.QualityTask(), Phys: kept}
	Pin(ob2, core.Options{Assignments: 3, JoinAlgorithm: join.Naive, SortMethod: core.SortHybrid})

	if want := (BatchPhys{Batch: 5, Assignments: 3}); f.Phys == nil || *f.Phys != want {
		t.Errorf("filter pinned %+v, want %+v", f.Phys, want)
	}
	wantJ := JoinPhys{Algorithm: join.Naive, BatchSize: 5, GridRows: 3, GridCols: 3,
		ExtractBatch: 4, Assignments: 3}
	if cj.Phys == nil || *cj.Phys != wantJ {
		t.Errorf("join pinned %+v, want %+v", cj.Phys, wantJ)
	}
	wantS := SortPhys{Method: core.SortHybrid, GroupSize: 5, RateBatch: 5, Iterations: 20, Step: 6,
		Strategy: sortop.SlidingWindow, Assignments: 3}
	if ob.Phys == nil || *ob.Phys != wantS {
		t.Errorf("sort pinned %+v, want %+v", ob.Phys, wantS)
	}
	if ob2.Phys != kept || *kept != (SortPhys{Method: core.SortRate, RateBatch: 2, Assignments: 1}) {
		t.Errorf("Pin rewrote an existing annotation: %+v", ob2.Phys)
	}
}

// TestOptimizeKeepsPinnedAnnotations: an annotated node is priced as
// its only alternative — here a NaiveBatch b=40 the free optimizer
// would discard as refused — and keeps its annotation and assignments,
// with or without a budget.
func TestOptimizeKeepsPinnedAnnotations(t *testing.T) {
	for _, budget := range []float64{0, 1} {
		root := joinPlan()
		Pin(root, core.Options{Assignments: 3, JoinAlgorithm: join.Naive, JoinBatch: 40})
		cj := root.Children()[0].(*CrowdJoin)
		pinned, want := cj.Phys, *cj.Phys
		cp, err := Optimize(root, CardMap{"celeb": 30, "photos": 30}, OptimizeOptions{BudgetDollars: budget})
		if err != nil {
			t.Fatal(err)
		}
		if cj.Phys != pinned || *cj.Phys != want {
			t.Errorf("budget %.0f: pinned join annotation changed to %+v", budget, cj.Phys)
		}
		op := cp.Ops[0]
		if op.Choice != "NaiveBatch b=40" || op.HITs != 23 || op.Assignments != 3 {
			t.Errorf("budget %.0f: priced %s, %d HITs ×%d, want NaiveBatch b=40, 23 HITs ×3",
				budget, op.Choice, op.HITs, op.Assignments)
		}
	}
}
