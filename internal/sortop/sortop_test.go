package sortop

import (
	"fmt"
	"math/rand"
	"testing"

	"qurk/internal/crowd"
	"qurk/internal/relation"
	"qurk/internal/stats"
	"qurk/internal/task"
)

var sqSchema = relation.MustSchema(
	relation.Column{Name: "id", Kind: relation.KindText},
	relation.Column{Name: "label", Kind: relation.KindText},
	relation.Column{Name: "img", Kind: relation.KindURL},
)

// squares builds an n-row relation whose latent score is the row index.
func squares(n int) *relation.Relation {
	r := relation.New("squares", sqSchema)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("sq%03d", i)
		_ = r.AppendValues(relation.Text(id), relation.Text(id), relation.URL("http://x/"+id+".png"))
	}
	return r
}

// sqOracle scores squares by index with configurable subjective noise.
type sqOracle struct {
	n     int
	sigma float64
}

func (o *sqOracle) JoinMatch(relation.Tuple, relation.Tuple) (bool, float64) { return false, 0 }
func (o *sqOracle) FilterTruth(string, relation.Tuple) (bool, float64)       { return false, 0 }
func (o *sqOracle) FieldValue(string, string, relation.Tuple) (string, float64, []string) {
	return "", 0, nil
}
func (o *sqOracle) Score(taskName string, t relation.Tuple) (float64, float64) {
	var i int
	fmt.Sscanf(t.MustGet("id").Text(), "sq%d", &i)
	return float64(i), o.sigma
}
func (o *sqOracle) ScoreRange(string) (float64, float64) { return 0, float64(o.n - 1) }

func rankTask() *task.Rank {
	return &task.Rank{
		Name: "squareSorter", SingularName: "square", PluralName: "squares",
		OrderDimensionName: "area", LeastName: "smallest", MostName: "largest",
		HTML: task.MustPrompt("<img src='%s' class=lgImg>", "img"),
	}
}

func sqMarket(seed int64, o crowd.Oracle) *crowd.SimMarket {
	return crowd.NewSimMarket(crowd.DefaultConfig(seed), o)
}

// tauVsTruth computes τ between a result order and the identity order.
func tauVsTruth(order []int) float64 {
	a := make([]float64, len(order))
	b := make([]float64, len(order))
	for pos, idx := range order {
		a[pos] = float64(pos)
		b[pos] = float64(idx)
	}
	tau, err := stats.KendallTauB(a, b)
	if err != nil {
		panic(err)
	}
	return tau
}

func TestCoverGroupsCoversAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct{ n, s int }{{10, 5}, {40, 5}, {13, 4}, {7, 3}, {5, 5}, {6, 10}} {
		groups := CoverGroups(c.n, c.s, rng)
		covered := map[[2]int]bool{}
		for _, g := range groups {
			if len(g) > c.s && c.s < c.n {
				t.Fatalf("n=%d s=%d: group too big: %v", c.n, c.s, g)
			}
			for i := 0; i < len(g); i++ {
				for j := i + 1; j < len(g); j++ {
					covered[pairKey(g[i], g[j])] = true
				}
			}
		}
		want := c.n * (c.n - 1) / 2
		if len(covered) != want {
			t.Errorf("n=%d s=%d: covered %d pairs, want %d", c.n, c.s, len(covered), want)
		}
		// Group count should approach the paper's N(N-1)/(S(S-1)).
		if c.s < c.n {
			bound := float64(c.n*(c.n-1)) / float64(c.s*(c.s-1))
			if float64(len(groups)) > bound*1.6+1 {
				t.Errorf("n=%d s=%d: %d groups, bound %.1f (>60%% overhead)", c.n, c.s, len(groups), bound)
			}
		}
	}
}

func TestCompareSortsSquaresPerfectly(t *testing.T) {
	// Paper §4.2.2: group size 5 on 40 squares yields τ = 1.0.
	n := 20 // smaller for test speed; same shape
	o := &sqOracle{n: n, sigma: 0.005}
	res, err := Compare(squares(n), rankTask(), CompareOptions{GroupSize: 5, Assignments: 5, Seed: 3}, sqMarket(5, o))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Incomplete) != 0 {
		t.Fatalf("incomplete: %v", res.Incomplete)
	}
	if tau := tauVsTruth(res.Order); tau < 0.98 {
		t.Errorf("compare tau = %.3f, want ≈1.0", tau)
	}
	// HIT count ≈ N(N-1)/(S(S-1)) = 19.
	if res.HITCount < 19 || res.HITCount > 32 {
		t.Errorf("compare HITs = %d, want ≈19–32", res.HITCount)
	}
}

func TestCompareGroup20Refused(t *testing.T) {
	// Paper §4.2.2: "We stopped the group size 20 experiment after
	// several hours of uncompleted HITs."
	n := 40
	o := &sqOracle{n: n, sigma: 0.005}
	res, err := Compare(squares(n), rankTask(), CompareOptions{GroupSize: 20, Assignments: 5, Seed: 3}, sqMarket(5, o))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Incomplete) == 0 {
		t.Error("group-size-20 HITs should be refused")
	}
}

func TestRateApproximateOrder(t *testing.T) {
	// Paper §4.2.2: Rate achieves τ ≈ 0.78 — strong but imperfect.
	n := 40
	o := &sqOracle{n: n, sigma: 0.08}
	res, err := Rate(squares(n), rankTask(), RateOptions{BatchSize: 5, Assignments: 5, Seed: 7}, sqMarket(11, o))
	if err != nil {
		t.Fatal(err)
	}
	// ceil(40/5) = 8 HITs — linear, not quadratic.
	if res.HITCount != 8 {
		t.Errorf("rate HITs = %d, want 8", res.HITCount)
	}
	tau := tauVsTruth(res.Order)
	if tau < 0.55 || tau > 0.95 {
		t.Errorf("rate tau = %.3f, want imperfect-but-strong (0.55–0.95)", tau)
	}
	// Summaries populated with plausible stats.
	for i, s := range res.Summaries {
		if s.Count != 5 {
			t.Fatalf("item %d has %d ratings, want 5", i, s.Count)
		}
		if s.Mean < 1 || s.Mean > 7 {
			t.Fatalf("item %d mean %.2f out of scale", i, s.Mean)
		}
	}
}

func TestCompareBeatsRate(t *testing.T) {
	// The paper's core sort finding: Compare is more accurate than
	// Rate on the same data (§4.2.2).
	n := 30
	o := &sqOracle{n: n, sigma: 0.03}
	cmp, err := Compare(squares(n), rankTask(), CompareOptions{GroupSize: 5, Assignments: 5, Seed: 1}, sqMarket(13, o))
	if err != nil {
		t.Fatal(err)
	}
	rate, err := Rate(squares(n), rankTask(), RateOptions{BatchSize: 5, Assignments: 5, Seed: 1}, sqMarket(13, o))
	if err != nil {
		t.Fatal(err)
	}
	tc, tr := tauVsTruth(cmp.Order), tauVsTruth(rate.Order)
	if tc <= tr {
		t.Errorf("compare tau %.3f ≤ rate tau %.3f", tc, tr)
	}
	if cmp.HITCount <= rate.HITCount {
		t.Errorf("compare HITs %d ≤ rate HITs %d — quadratic vs linear inverted", cmp.HITCount, rate.HITCount)
	}
}

func TestModifiedKappaTracksAmbiguity(t *testing.T) {
	// κ falls as subjective noise grows (paper Fig. 6).
	n := 15
	kappaAt := func(sigma float64, seed int64) float64 {
		o := &sqOracle{n: n, sigma: sigma}
		res, err := Compare(squares(n), rankTask(), CompareOptions{GroupSize: 5, Assignments: 5, Seed: 1}, sqMarket(seed, o))
		if err != nil {
			t.Fatal(err)
		}
		k, err := res.ModifiedKappa()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	crisp := kappaAt(0.005, 17)
	noisy := kappaAt(0.5, 17)
	random := kappaAt(50, 17)
	if !(crisp > noisy && noisy > random) {
		t.Errorf("κ ordering wrong: crisp %.2f, noisy %.2f, random %.2f", crisp, noisy, random)
	}
	if crisp < 0.5 {
		t.Errorf("crisp κ = %.2f, want high", crisp)
	}
	if random > 0.25 {
		t.Errorf("random κ = %.2f, want ≈0", random)
	}
}

func TestCyclesAppearUnderNoise(t *testing.T) {
	n := 12
	o := &sqOracle{n: n, sigma: 1.5}
	res, err := Compare(squares(n), rankTask(), CompareOptions{GroupSize: 4, Assignments: 5, Seed: 9}, sqMarket(19, o))
	if err != nil {
		t.Fatal(err)
	}
	if res.CycleCount == 0 {
		t.Error("expected majority cycles under heavy noise (paper §4.1.1)")
	}
	// And none under near-zero noise.
	o2 := &sqOracle{n: n, sigma: 0.002}
	res2, err := Compare(squares(n), rankTask(), CompareOptions{GroupSize: 4, Assignments: 5, Seed: 9}, sqMarket(19, o2))
	if err != nil {
		t.Fatal(err)
	}
	if res2.CycleCount > 1 {
		t.Errorf("crisp data produced %d cycles", res2.CycleCount)
	}
}

func TestHybridImprovesOnRate(t *testing.T) {
	// Paper Fig. 7: hybrid refinement closes most of the Rate→Compare
	// accuracy gap in a handful of HITs.
	// Step 7 does not divide n=30, so successive passes hit offset
	// windows (the paper's Window-6-on-40 configuration).
	n := 30
	o := &sqOracle{n: n, sigma: 0.03}
	hy, err := Hybrid(squares(n), rankTask(), HybridOptions{
		Strategy: SlidingWindow, WindowSize: 5, Step: 7, Iterations: 24,
		Assignments: 5, Seed: 23,
	}, sqMarket(29, o))
	if err != nil {
		t.Fatal(err)
	}
	t0 := tauVsTruth(hy.InitialOrder)
	t1 := tauVsTruth(hy.Order)
	if t1 <= t0 {
		t.Errorf("hybrid tau %.3f did not improve on rate tau %.3f", t1, t0)
	}
	if t1 < 0.9 {
		t.Errorf("hybrid final tau = %.3f, want ≥0.9", t1)
	}
	if len(hy.Trace) != 24 {
		t.Errorf("trace length = %d, want 24", len(hy.Trace))
	}
	if hy.CompareHITs != 24 || hy.RateHITs != 6 {
		t.Errorf("HIT decomposition = %d rate + %d compare", hy.RateHITs, hy.CompareHITs)
	}
}

func TestHybridStrategies(t *testing.T) {
	n := 20
	o := &sqOracle{n: n, sigma: 0.03}
	for _, strat := range []WindowStrategy{RandomWindow, ConfidenceWindow, SlidingWindow} {
		hy, err := Hybrid(squares(n), rankTask(), HybridOptions{
			Strategy: strat, WindowSize: 5, Step: 6, Iterations: 10,
			Assignments: 5, Seed: 31,
		}, sqMarket(37, o))
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if tauVsTruth(hy.Order) < tauVsTruth(hy.InitialOrder)-0.05 {
			t.Errorf("%v: refinement made order worse", strat)
		}
	}
}

func TestHybridWindowStepDivisorStalls(t *testing.T) {
	// Paper §4.2.4: Window-5 (t divides N) revisits the same windows
	// and stalls; Window-6 keeps improving. Use N=20, t=5 vs t=6 over
	// enough iterations to complete several passes.
	n := 20
	run := func(step int) float64 {
		o := &sqOracle{n: n, sigma: 0.04}
		hy, err := Hybrid(squares(n), rankTask(), HybridOptions{
			Strategy: SlidingWindow, WindowSize: 5, Step: step, Iterations: 20,
			Assignments: 5, Seed: 41,
		}, sqMarket(43, o))
		if err != nil {
			t.Fatal(err)
		}
		return tauVsTruth(hy.Order)
	}
	tDiv := run(5)
	tOff := run(6)
	if tOff < tDiv-0.02 {
		t.Errorf("offset window tau %.3f worse than divisor window %.3f", tOff, tDiv)
	}
}

func TestMaxTournament(t *testing.T) {
	n := 25
	o := &sqOracle{n: n, sigma: 0.01}
	res, err := Max(squares(n), rankTask(), MaxOptions{BatchSize: 5, Assignments: 5}, sqMarket(47, o))
	if err != nil {
		t.Fatal(err)
	}
	if res.Index != n-1 {
		t.Errorf("max = item %d, want %d", res.Index, n-1)
	}
	// Rounds: 25 → 5 → 1 = 2 rounds, 5+1 = 6 HITs.
	if res.Rounds != 2 || res.HITCount != 6 {
		t.Errorf("rounds=%d hits=%d, want 2 rounds 6 HITs", res.Rounds, res.HITCount)
	}
	minRes, err := Max(squares(n), rankTask(), MaxOptions{BatchSize: 5, Assignments: 5, Min: true, GroupID: "min"}, sqMarket(53, o))
	if err != nil {
		t.Fatal(err)
	}
	if minRes.Index != 0 {
		t.Errorf("min = item %d, want 0", minRes.Index)
	}
}

func TestSortValidation(t *testing.T) {
	o := &sqOracle{n: 2}
	if _, err := Compare(squares(1), rankTask(), CompareOptions{}, sqMarket(1, o)); err == nil {
		t.Error("1-item compare accepted")
	}
	if _, err := Rate(squares(0), rankTask(), RateOptions{}, sqMarket(1, o)); err == nil {
		t.Error("empty rate accepted")
	}
	if _, err := Hybrid(squares(1), rankTask(), HybridOptions{}, sqMarket(1, o)); err == nil {
		t.Error("1-item hybrid accepted")
	}
	if _, err := Max(relation.New("empty", sqSchema), rankTask(), MaxOptions{}, sqMarket(1, o)); err == nil {
		t.Error("empty max accepted")
	}
}

func TestRateBatchSizeInsensitive(t *testing.T) {
	// Paper §4.2.2: rating batch size does not noticeably change
	// accuracy, only HIT count.
	n := 40
	o := &sqOracle{n: n, sigma: 0.03}
	var taus []float64
	for i, batch := range []int{1, 5, 10} {
		res, err := Rate(squares(n), rankTask(), RateOptions{BatchSize: batch, Assignments: 5, Seed: int64(i)}, sqMarket(61+int64(i), o))
		if err != nil {
			t.Fatal(err)
		}
		wantHITs := (n + batch - 1) / batch
		if res.HITCount != wantHITs {
			t.Errorf("batch %d: HITs = %d, want %d", batch, res.HITCount, wantHITs)
		}
		taus = append(taus, tauVsTruth(res.Order))
	}
	for _, tau := range taus {
		if tau < 0.55 {
			t.Errorf("taus across batch sizes = %v; one collapsed", taus)
		}
	}
}

func TestCompareBatchGroupsReducesHITs(t *testing.T) {
	// Merging b comparison groups per HIT divides the HIT count by b
	// (paper §4.1.1: "We can batch b such groups in a HIT to reduce
	// the number of hits by a factor of b").
	n := 20
	o := &sqOracle{n: n, sigma: 0.01}
	single, err := Compare(squares(n), rankTask(), CompareOptions{GroupSize: 5, BatchGroups: 1, Assignments: 5, Seed: 3}, sqMarket(71, o))
	if err != nil {
		t.Fatal(err)
	}
	batched, err := Compare(squares(n), rankTask(), CompareOptions{GroupSize: 5, BatchGroups: 3, Assignments: 5, Seed: 3}, sqMarket(71, o))
	if err != nil {
		t.Fatal(err)
	}
	wantMax := (single.HITCount + 2) / 3
	if batched.HITCount > wantMax {
		t.Errorf("batched HITs = %d, want ≤ ceil(%d/3) = %d", batched.HITCount, single.HITCount, wantMax)
	}
	// Quality holds.
	if tau := tauVsTruth(batched.Order); tau < 0.95 {
		t.Errorf("batched-groups tau = %.3f", tau)
	}
}
