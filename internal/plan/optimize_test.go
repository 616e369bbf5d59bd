package plan

// Property tests for the optimizer: over randomized cardinalities and
// budgets (seeded, deterministic), the chosen plan's estimated HIT
// count never exceeds any quality-eligible alternative's estimate, the
// total spend never exceeds the budget when any in-budget plan exists,
// and the pass itself is deterministic.

import (
	"math/rand"
	"testing"

	"qurk/internal/core"
	"qurk/internal/cost"
	"qurk/internal/dataset"
	"qurk/internal/join"
)

// sortPlan builds Scan → CrowdOrderBy → Project.
func sortPlan() Node {
	scan := &Scan{Table: "squares"}
	ob := &CrowdOrderBy{Input: scan, Task: dataset.SquareSorterTask()}
	return &Project{Input: ob, Star: true}
}

// joinPlan builds Scan ⋈ Scan → Project (no features; the feature
// decision is pinned by the golden crossover tests).
func joinPlan() Node {
	cj := &CrowdJoin{
		Left:  &Scan{Table: "celeb"},
		Right: &Scan{Table: "photos"},
		Task:  dataset.SamePersonTask(),
	}
	return &Project{Input: cj, Star: true}
}

// sortAltEstimates enumerates the optimizer's sort candidate space via
// the shared cost formulas: (HITs, per-answer quality) per alternative.
func sortAltEstimates(n int, opt OptimizeOptions) (hits []int, quals []float64) {
	if n < 2 {
		return nil, nil
	}
	hits = append(hits, CompareCoverHITs(n, opt.CompareGroupSize))
	quals = append(quals, cost.QualityCompareSort)
	hits = append(hits, cost.RateSortHITs(n, opt.RateBatch))
	quals = append(quals, cost.QualityRateSort)
	for _, i := range hybridIterationLevels(opt.HybridIterations, n) {
		hits = append(hits, cost.HybridSortHITs(n, opt.RateBatch, i))
		quals = append(quals, cost.HybridQuality(n, i, opt.HybridStep))
	}
	return hits, quals
}

// joinAltEstimates enumerates the featureless join candidate space.
func joinAltEstimates(nl, nr int, opt OptimizeOptions) (hits []int, quals []float64) {
	sel := 1.0
	if m := max(nl, nr); m > 0 {
		sel = 1 / float64(m)
	}
	pairs := cost.JoinPairs(nl, nr, 1)
	hits = append(hits, cost.SimpleJoinHITs(pairs))
	quals = append(quals, cost.QualitySimplePair)
	for _, b := range []int{opt.JoinBatch, 2 * opt.JoinBatch} {
		if cost.Refused(cost.PairEffort(b)) {
			continue
		}
		hits = append(hits, cost.NaiveJoinHITs(pairs, b))
		quals = append(quals, cost.PairQuality(b))
	}
	for _, g := range [][2]int{{opt.GridRows, opt.GridCols}, {5, 5}} {
		if cost.Refused(cost.GridEffort(g[0], g[1])) {
			continue
		}
		hits = append(hits, cost.SmartJoinHITs(nl, nr, g[0], g[1], 1))
		quals = append(quals, cost.GridQuality(g[0], g[1], sel*float64(g[0]*g[1])))
	}
	return hits, quals
}

// checkChosen asserts the ISSUE's property: the chosen operator's HIT
// estimate is ≤ every floor-eligible alternative's estimate
// (unconstrained runs), and with a budget the plan never exceeds it
// when any in-budget combination exists.
func checkChosen(t *testing.T, trial int, cp *CostedPlan, altHits []int, altQuals []float64, budget float64) {
	t.Helper()
	if len(cp.Ops) != 1 {
		t.Fatalf("trial %d: %d ops, want 1", trial, len(cp.Ops))
	}
	op := cp.Ops[0]
	opt := OptimizeOptions{}
	opt.fillDefaults()
	minFeasible := -1
	minAny := -1
	for i, h := range altHits {
		if minAny < 0 || h < minAny {
			minAny = h
		}
		if altQuals[i] >= opt.MinQuality && (minFeasible < 0 || h < minFeasible) {
			minFeasible = h
		}
	}
	if budget == 0 {
		want := minFeasible
		if want < 0 {
			want = minAny // nothing clears the floor: quality-max fallback
		}
		if minFeasible >= 0 && op.HITs > minFeasible {
			t.Errorf("trial %d: chose %s with %d HITs, but a floor-eligible alternative needs only %d",
				trial, op.Choice, op.HITs, minFeasible)
		}
		return
	}
	// Budgeted: the chosen plan may downgrade below the floor, but never
	// above the feasible minimum, and must fit whenever anything fits.
	if minFeasible >= 0 && op.HITs > minFeasible {
		t.Errorf("trial %d (budget $%.2f): chose %d HITs above feasible minimum %d",
			trial, budget, op.HITs, minFeasible)
	}
	cheapest := cost.Dollars(minAny, 1)
	if cheapest <= budget {
		if cp.OverBudget {
			t.Errorf("trial %d: flagged over budget $%.2f though $%.2f fits", trial, budget, cheapest)
		}
		if cp.TotalDollars > budget+1e-9 {
			t.Errorf("trial %d: spends $%.4f over budget $%.2f", trial, cp.TotalDollars, budget)
		}
	} else if !cp.OverBudget {
		t.Errorf("trial %d: budget $%.2f below cheapest $%.2f but not flagged over budget",
			trial, budget, cheapest)
	}
}

func TestOptimizerPropertySort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	opt := OptimizeOptions{}
	opt.fillDefaults()
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(300)
		budget := 0.0
		if rng.Intn(2) == 1 {
			budget = 0.05 + 10*rng.Float64()
		}
		cards := CardMap{"squares": n}
		cp, err := Optimize(sortPlan(), cards, OptimizeOptions{BudgetDollars: budget})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		altHits, altQuals := sortAltEstimates(n, opt)
		checkChosen(t, trial, cp, altHits, altQuals, budget)
	}
}

func TestOptimizerPropertyJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	opt := OptimizeOptions{}
	opt.fillDefaults()
	for trial := 0; trial < 120; trial++ {
		nl := 1 + rng.Intn(80)
		nr := 1 + rng.Intn(80)
		budget := 0.0
		if rng.Intn(2) == 1 {
			budget = 0.05 + 20*rng.Float64()
		}
		cards := CardMap{"celeb": nl, "photos": nr}
		cp, err := Optimize(joinPlan(), cards, OptimizeOptions{BudgetDollars: budget})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		altHits, altQuals := joinAltEstimates(nl, nr, opt)
		checkChosen(t, trial, cp, altHits, altQuals, budget)
	}
}

func TestOptimizerDeterministic(t *testing.T) {
	cards := CardMap{"celeb": 37, "photos": 21, "squares": 63}
	for _, build := range []func() Node{sortPlan, joinPlan} {
		a, err := Optimize(build(), cards, OptimizeOptions{BudgetDollars: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Optimize(build(), cards, OptimizeOptions{BudgetDollars: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		if a.Render() != b.Render() {
			t.Errorf("optimizer not deterministic:\n%s\nvs\n%s", a.Render(), b.Render())
		}
	}
}

// TestOptimizeOptionsFrom pins the engine-options mapping.
func TestOptimizeOptionsFrom(t *testing.T) {
	eo := core.Options{Assignments: 3, JoinBatch: 7, GridRows: 4, GridCols: 2, RateBatch: 6}
	oo := OptimizeOptionsFrom(eo, 2.5)
	if oo.BudgetDollars != 2.5 || oo.Assignments != 3 || oo.JoinBatch != 7 ||
		oo.GridRows != 4 || oo.GridCols != 2 || oo.RateBatch != 6 {
		t.Errorf("mapping lost fields: %+v", oo)
	}
}

// TestOptimizeAnnotatesEveryCrowdOp: every crowd node in a mixed plan
// gets a physical annotation.
func TestOptimizeAnnotatesEveryCrowdOp(t *testing.T) {
	scan := &Scan{Table: "celeb"}
	f := &CrowdFilter{Input: scan, Task: dataset.IsFemaleTask()}
	cj := &CrowdJoin{Left: f, Right: &Scan{Table: "photos"}, Task: dataset.SamePersonTask()}
	ob := &CrowdOrderBy{Input: cj, Task: dataset.QualityTask()}
	root := &Project{Input: ob, Star: true}
	cp, err := Optimize(root, CardMap{"celeb": 30, "photos": 30}, OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Ops) != 3 {
		t.Fatalf("%d costed ops, want 3", len(cp.Ops))
	}
	if f.Phys == nil || cj.Phys == nil || ob.Phys == nil {
		t.Errorf("missing annotations: filter=%v join=%v sort=%v", f.Phys, cj.Phys, ob.Phys)
	}
	if cj.Phys.Algorithm != join.Smart {
		t.Errorf("filtered 15×30 join chose %v, want SmartBatch", cj.Phys)
	}
	if cp.TotalHITs != cp.Ops[0].HITs+cp.Ops[1].HITs+cp.Ops[2].HITs {
		t.Error("TotalHITs does not sum operator estimates")
	}
}
