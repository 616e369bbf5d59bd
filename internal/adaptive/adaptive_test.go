package adaptive

import (
	"fmt"
	"math"
	"testing"

	"qurk/internal/crowd"
	"qurk/internal/dataset"
	"qurk/internal/relation"
)

func TestPosteriorMajority(t *testing.T) {
	// Symmetric: no information.
	if p := PosteriorMajority(0, 0); math.Abs(p-0.5) > 1e-3 {
		t.Errorf("P(0,0) = %v, want 0.5", p)
	}
	if p := PosteriorMajority(2, 2); math.Abs(p-0.5) > 1e-3 {
		t.Errorf("P(2,2) = %v, want 0.5", p)
	}
	// More yes votes → higher confidence; monotone in evidence.
	p31 := PosteriorMajority(3, 1)
	p51 := PosteriorMajority(5, 1)
	p91 := PosteriorMajority(9, 1)
	if !(0.5 < p31 && p31 < p51 && p51 < p91 && p91 < 1) {
		t.Errorf("posterior not monotone: %v %v %v", p31, p51, p91)
	}
	// Complement symmetry.
	if math.Abs(PosteriorMajority(1, 4)-(1-PosteriorMajority(4, 1))) > 1e-6 {
		t.Error("posterior not symmetric")
	}
	// Known value: P(θ>0.5 | 1 yes, 0 no) = 1 - 0.25 = 0.75 for
	// Beta(2,1): CDF(x)=x², tail above 0.5 = 1-0.25.
	if p := PosteriorMajority(1, 0); math.Abs(p-0.75) > 1e-3 {
		t.Errorf("P(1,0) = %v, want 0.75", p)
	}
}

func TestRunAdaptiveFilterSavesVotes(t *testing.T) {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 40, Seed: 3})
	m := crowd.NewSimMarket(crowd.DefaultConfig(3), d.Oracle())
	cfg := VoteConfig{MinVotes: 3, MaxVotes: 11, Step: 2, Confidence: 0.9}
	res, err := RunAdaptiveFilter(d.Celeb, dataset.IsFemaleTask(), cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	// Accuracy comparable to the fixed baseline.
	correct := 0
	for i := 0; i < d.Celeb.Len(); i++ {
		truth, _ := d.Oracle().FilterTruth("isFemale", d.Celeb.Row(i))
		if res.Decisions[i] == truth {
			correct++
		}
	}
	if correct < 36 {
		t.Errorf("adaptive accuracy = %d/40", correct)
	}
	// Spend well below the worst case of 40 × 11.
	if res.TotalAssignments >= 40*11*8/10 {
		t.Errorf("adaptive spent %d assignments, want well under %d", res.TotalAssignments, 40*11)
	}
	// Easy questions settle at MinVotes; at least some should.
	atMin := 0
	for _, v := range res.VotesUsed {
		if v == cfg.MinVotes {
			atMin++
		}
	}
	if atMin < 20 {
		t.Errorf("only %d/40 questions settled at MinVotes", atMin)
	}
	if res.Rounds < 1 {
		t.Error("rounds not counted")
	}
}

func TestRunAdaptiveFilterSpendsOnAmbiguity(t *testing.T) {
	// With very ambiguous questions (difficulty near 1), adaptive
	// voting should escalate to MaxVotes.
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 10, Seed: 5, NonMatchDifficulty: 0.9})
	o := &ambiguousOracle{inner: d.Oracle()}
	m := crowd.NewSimMarket(crowd.DefaultConfig(5), o)
	res, err := RunAdaptiveFilter(d.Celeb, dataset.IsFemaleTask(), VoteConfig{MinVotes: 3, MaxVotes: 9, Step: 2, Confidence: 0.95}, m)
	if err != nil {
		t.Fatal(err)
	}
	maxed := 0
	for _, v := range res.VotesUsed {
		if v >= 9 {
			maxed++
		}
	}
	if maxed < 5 {
		t.Errorf("only %d/10 ambiguous questions escalated to MaxVotes", maxed)
	}
}

// ambiguousOracle makes every filter question a coin flip.
type ambiguousOracle struct{ inner crowd.Oracle }

func (o *ambiguousOracle) JoinMatch(l, r qr) (bool, float64) { return o.inner.JoinMatch(l, r) }
func (o *ambiguousOracle) FilterTruth(task string, t qr) (bool, float64) {
	yes, _ := o.inner.FilterTruth(task, t)
	return yes, 0.97
}
func (o *ambiguousOracle) FieldValue(task, f string, t qr) (string, float64, []string) {
	return o.inner.FieldValue(task, f, t)
}
func (o *ambiguousOracle) Score(task string, t qr) (float64, float64) { return o.inner.Score(task, t) }
func (o *ambiguousOracle) ScoreRange(task string) (float64, float64)  { return o.inner.ScoreRange(task) }

// qr shortens the tuple type in the oracle shim.
type qr = relation.Tuple

func TestTuneBatchSizeFindsBoundary(t *testing.T) {
	// Synthetic probe: batches ≤ 12 work, larger are refused.
	probes := 0
	probe := func(batch int) (ProbeResult, error) {
		probes++
		if batch > 12 {
			return ProbeResult{Refused: true}, nil
		}
		return ProbeResult{Accuracy: 0.95}, nil
	}
	best, steps, err := TuneBatchSize(probe, BatchTuneConfig{Min: 1, Max: 32, MaxProbes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if best < 10 || best > 12 {
		t.Errorf("tuned batch = %d, want ≈12", best)
	}
	if len(steps) == 0 || probes > 8 {
		t.Errorf("probes = %d, steps = %d", probes, len(steps))
	}
}

func TestTuneBatchSizeAccuracyDrop(t *testing.T) {
	// Accuracy decays with batch size; the tuner must stop before the
	// quality floor even though nothing is refused.
	probe := func(batch int) (ProbeResult, error) {
		return ProbeResult{Accuracy: 1.0 - 0.02*float64(batch)}, nil
	}
	best, _, err := TuneBatchSize(probe, BatchTuneConfig{Min: 1, Max: 32, MinAccuracy: 0.85, MaxProbes: 10})
	if err != nil {
		t.Fatal(err)
	}
	if best > 7 {
		t.Errorf("tuned batch = %d exceeds the accuracy floor (acc(8)=0.84)", best)
	}
	// Nothing workable → error.
	if _, _, err := TuneBatchSize(func(int) (ProbeResult, error) {
		return ProbeResult{Refused: true}, nil
	}, BatchTuneConfig{}); err == nil {
		t.Error("all-refused tuning should error")
	}
}

func TestFilterProbeAgainstMarket(t *testing.T) {
	// The sample must be at least as large as the probed batch for a
	// full-size HIT to materialize.
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 50, Seed: 7})
	m := crowd.NewSimMarket(crowd.DefaultConfig(7), d.Oracle())
	probe := FilterProbe(d.Celeb, dataset.IsFemaleTask(), 5, m)
	r, err := probe(5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Refused {
		t.Fatal("batch 5 refused")
	}
	if r.Accuracy < 0.7 {
		t.Errorf("agreement = %.2f, want high on a crisp task", r.Accuracy)
	}
	// A 40-question filter HIT exceeds the simulator's refusal effort
	// (30 judgment-equivalents at this price).
	r, err = probe(40)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Refused {
		t.Error("batch 40 should be refused")
	}
}

func TestTuneBatchEndToEnd(t *testing.T) {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 64, Seed: 9})
	m := crowd.NewSimMarket(crowd.DefaultConfig(9), d.Oracle())
	probe := FilterProbe(d.Celeb, dataset.IsFemaleTask(), 5, m)
	// Note MinAccuracy here is *inter-vote agreement*, which runs below
	// true accuracy (5 votes at per-vote accuracy ~0.82 agree ~0.80 on
	// average); calibrate the floor accordingly.
	best, steps, err := TuneBatchSize(probe, BatchTuneConfig{Min: 1, Max: 64, MinAccuracy: 0.75, MaxProbes: 7})
	if err != nil {
		t.Fatal(err)
	}
	// The simulator refuses filter batches above RefusalEffort (30
	// units); the tuner should land near that boundary.
	if best < 8 || best > 30 {
		t.Errorf("tuned batch = %d, want within the workable band (steps: %+v)", best, steps)
	}
}

func TestAllocateBudget(t *testing.T) {
	stages := []BudgetStage{
		{Name: "filter", HITs: 40, Levels: []int{1, 3, 5, 7}, Quality: []float64{0.7, 0.85, 0.92, 0.95}},
		{Name: "join", HITs: 160, Levels: []int{1, 3, 5, 7}, Quality: []float64{0.75, 0.88, 0.94, 0.96}},
		{Name: "sort", HITs: 20, Levels: []int{1, 3, 5, 7}, Quality: []float64{0.6, 0.8, 0.9, 0.93}},
	}
	// Generous budget: everything upgrades to the top.
	plan, err := AllocateBudget(stages, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range plan.Assignments {
		if a != 7 {
			t.Errorf("stage %d assignments = %d under generous budget", i, a)
		}
	}
	// Tight budget: minimum levels cost 220 HITs × 1 × $0.015 = $3.30.
	plan, err = AllocateBudget(stages, 4)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Dollars > 4 {
		t.Errorf("plan cost $%.2f exceeds budget", plan.Dollars)
	}
	// Impossible budget errors.
	if _, err := AllocateBudget(stages, 1); err == nil {
		t.Error("impossible budget accepted")
	}
	// The allocator raises the weakest stage first: with a medium
	// budget, the cheap sort stage (lowest quality, cheap HITs) should
	// be upgraded beyond its minimum.
	plan, err = AllocateBudget(stages, 8)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Assignments[2] == 1 {
		t.Errorf("weakest stage never upgraded: %+v", plan)
	}
	if _, err := AllocateBudget(nil, 10); err == nil {
		t.Error("empty stages accepted")
	}
	if _, err := AllocateBudget([]BudgetStage{{Name: "x", HITs: 1, Levels: []int{1}, Quality: nil}}, 10); err == nil {
		t.Error("malformed stage accepted")
	}
}

func TestAdaptiveVsFixedCostComparison(t *testing.T) {
	// Headline property: adaptive voting matches fixed-11-votes
	// accuracy at materially lower cost on a realistic mix.
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 30, Seed: 11})
	mA := crowd.NewSimMarket(crowd.DefaultConfig(11), d.Oracle())
	adaptiveRes, err := RunAdaptiveFilter(d.Celeb, dataset.IsFemaleTask(),
		VoteConfig{MinVotes: 3, MaxVotes: 11, Step: 2, Confidence: 0.92}, mA)
	if err != nil {
		t.Fatal(err)
	}
	mF := crowd.NewSimMarket(crowd.DefaultConfig(11), d.Oracle())
	fixedRes, err := RunAdaptiveFilter(d.Celeb, dataset.IsFemaleTask(),
		VoteConfig{MinVotes: 11, MaxVotes: 11}, mF)
	if err != nil {
		t.Fatal(err)
	}
	accOf := func(dec []bool) int {
		correct := 0
		for i := 0; i < d.Celeb.Len(); i++ {
			truth, _ := d.Oracle().FilterTruth("isFemale", d.Celeb.Row(i))
			if dec[i] == truth {
				correct++
			}
		}
		return correct
	}
	accAdaptive, accFixed := accOf(adaptiveRes.Decisions), accOf(fixedRes.Decisions)
	if accAdaptive < accFixed-2 {
		t.Errorf("adaptive accuracy %d vs fixed %d", accAdaptive, accFixed)
	}
	fixedAssignments := 30 * 11
	saving := 1 - float64(adaptiveRes.TotalAssignments)/float64(fixedAssignments)
	if saving < 0.3 {
		t.Errorf("adaptive saved only %.0f%% of assignments", saving*100)
	}
	t.Logf("adaptive: %d/%d correct at %d assignments (fixed-11: %d/%d at %d) — %.0f%% cheaper",
		accAdaptive, 30, adaptiveRes.TotalAssignments, accFixed, 30, fixedAssignments, saving*100)
}

var _ = fmt.Sprintf

// TestAdaptiveRefusalRetries: a probe round whose batch-5 HITs are all
// refused used to fail with "no votes in round"; the chunked poster
// now re-posts the questions at half batch, so the filter settles and
// counts the re-posted HITs.
func TestAdaptiveRefusalRetries(t *testing.T) {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 20, Seed: 5})
	mcfg := crowd.DefaultConfig(5)
	mcfg.RefusalEffort = 3 // batch-5 round HITs exceed this; halves pass
	m := crowd.NewSimMarket(mcfg, d.Oracle())
	res, err := RunAdaptiveFilter(d.Celeb, dataset.IsFemaleTask(), VoteConfig{GroupPrefix: "adapt-refuse"}, m)
	if err != nil {
		t.Fatalf("refused rounds no longer settle: %v", err)
	}
	correct := 0
	for i := 0; i < d.Celeb.Len(); i++ {
		truth, _ := d.Oracle().FilterTruth("isFemale", d.Celeb.Row(i))
		if res.Decisions[i] == truth {
			correct++
		}
	}
	if correct < 16 {
		t.Errorf("accuracy under refusals = %d/20", correct)
	}
	if len(res.Incomplete) != 0 {
		t.Errorf("retried questions should not be incomplete: %v", res.Incomplete)
	}
}

// TestAdaptiveExpiryRetries: expired round assignments are re-posted
// and surface in TotalExpired.
func TestAdaptiveExpiryRetries(t *testing.T) {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 20, Seed: 7})
	mcfg := crowd.DefaultConfig(7)
	mcfg.AbandonProb = 0.3
	m := crowd.NewSimMarket(mcfg, d.Oracle())
	res, err := RunAdaptiveFilter(d.Celeb, dataset.IsFemaleTask(), VoteConfig{GroupPrefix: "adapt-expire"}, m)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalExpired == 0 {
		t.Error("AbandonProb = 0.3 produced no expired count")
	}
	for i := range res.VotesUsed {
		if res.VotesUsed[i] == 0 {
			t.Fatalf("tuple %d settled with zero votes", i)
		}
	}
}
