package crowd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qurk/internal/hit"
	"qurk/internal/relation"
)

var itemSchema = relation.MustSchema(
	relation.Column{Name: "id", Kind: relation.KindText},
	relation.Column{Name: "img", Kind: relation.KindURL},
)

func item(id string) relation.Tuple {
	return relation.MustTuple(itemSchema, relation.Text(id), relation.URL("http://x/"+id))
}

// pairOracle joins items with equal ids; scores items by numeric suffix.
type pairOracle struct {
	difficulty float64
	sigma      float64
	n          int
}

func (o *pairOracle) JoinMatch(l, r relation.Tuple) (bool, float64) {
	return l.MustGet("id").Text() == r.MustGet("id").Text(), o.difficulty
}
func (o *pairOracle) FilterTruth(task string, t relation.Tuple) (bool, float64) {
	var i int
	fmt.Sscanf(t.MustGet("id").Text(), "i%d", &i)
	return i%2 == 0, o.difficulty
}
func (o *pairOracle) FieldValue(task, field string, t relation.Tuple) (string, float64, []string) {
	var i int
	fmt.Sscanf(t.MustGet("id").Text(), "i%d", &i)
	opts := []string{"red", "green", "blue", "UNKNOWN"}
	return opts[i%3], 0.1, opts
}
func (o *pairOracle) Score(task string, t relation.Tuple) (float64, float64) {
	var i int
	fmt.Sscanf(t.MustGet("id").Text(), "i%d", &i)
	return float64(i), o.sigma
}
func (o *pairOracle) ScoreRange(task string) (float64, float64) {
	return 0, float64(o.n - 1)
}

func TestPopulationDeterminism(t *testing.T) {
	cfg := PopulationConfig{}
	p1 := NewPopulation(cfg, rand.New(rand.NewSource(1)))
	p2 := NewPopulation(cfg, rand.New(rand.NewSource(1)))
	if len(p1.Workers) != 150 {
		t.Fatalf("default size = %d", len(p1.Workers))
	}
	for i := range p1.Workers {
		if p1.Workers[i].Skill != p2.Workers[i].Skill ||
			p1.Workers[i].IsSpammer != p2.Workers[i].IsSpammer {
			t.Fatalf("worker %d differs across same-seed populations", i)
		}
	}
	p3 := NewPopulation(cfg, rand.New(rand.NewSource(2)))
	same := true
	for i := range p1.Workers {
		if p1.Workers[i].Skill != p3.Workers[i].Skill {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical populations")
	}
}

func TestPopulationSkillDistribution(t *testing.T) {
	p := NewPopulation(PopulationConfig{Size: 2000}, rand.New(rand.NewSource(3)))
	var sum float64
	spam := 0
	for _, w := range p.Workers {
		if w.Skill < 0.55 || w.Skill > 0.98 {
			t.Fatalf("skill %v out of clamp range", w.Skill)
		}
		sum += w.Skill
		if w.IsSpammer {
			spam++
		}
	}
	mean := sum / 2000
	if math.Abs(mean-0.83) > 0.02 {
		t.Errorf("mean skill = %v, want ≈0.83", mean)
	}
	frac := float64(spam) / 2000
	if math.Abs(frac-0.08) > 0.03 {
		t.Errorf("spam fraction = %v, want ≈0.08", frac)
	}
}

func TestSampleDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := NewPopulation(PopulationConfig{Size: 50}, rng)
	ws := p.SampleDistinct(10, 1, rng)
	if len(ws) != 10 {
		t.Fatalf("sampled %d, want 10", len(ws))
	}
	seen := map[string]bool{}
	for _, w := range ws {
		if seen[w.ID] {
			t.Fatalf("duplicate worker %s", w.ID)
		}
		seen[w.ID] = true
	}
	// Requesting more than population returns everyone.
	if got := p.SampleDistinct(100, 1, rng); len(got) != 50 {
		t.Errorf("oversample = %d, want 50", len(got))
	}
}

func TestZipfianPickup(t *testing.T) {
	// Top-decile workers should take a large share of assignments.
	rng := rand.New(rand.NewSource(5))
	p := NewPopulation(PopulationConfig{Size: 100, SpamFraction: 1e-9}, rng)
	counts := map[string]int{}
	for i := 0; i < 2000; i++ {
		for _, w := range p.SampleDistinct(5, 1, rng) {
			counts[w.ID]++
		}
	}
	topShare := 0
	for i := 0; i < 10; i++ {
		topShare += counts[fmt.Sprintf("w%04d", i)]
	}
	frac := float64(topShare) / 10000
	if frac < 0.4 {
		t.Errorf("top-10 workers did %.2f of work, want Zipfian concentration ≥0.4", frac)
	}
}

func TestSpamAffinityShiftsPickup(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := NewPopulation(PopulationConfig{Size: 200, SpamFraction: 0.10}, rng)
	spamShare := func(affinity float64) float64 {
		spam, total := 0, 0
		for i := 0; i < 800; i++ {
			for _, w := range p.SampleDistinct(5, affinity, rng) {
				total++
				if w.IsSpammer {
					spam++
				}
			}
		}
		return float64(spam) / float64(total)
	}
	low := spamShare(1)
	high := spamShare(5)
	if high <= low {
		t.Errorf("spam share did not grow with affinity: %.3f -> %.3f", low, high)
	}
}

func TestEffectiveAccuracy(t *testing.T) {
	w := &Worker{Skill: 0.9, Sloppiness: 0.01}
	if got := w.effectiveAccuracy(0, 1); math.Abs(got-0.9) > 1e-9 {
		t.Errorf("easy unbatched = %v", got)
	}
	// Full difficulty → coin flip.
	if got := w.effectiveAccuracy(1, 1); got != 0.5 {
		t.Errorf("impossible task = %v, want 0.5", got)
	}
	// Batching lowers accuracy.
	if w.effectiveAccuracy(0, 10) >= w.effectiveAccuracy(0, 1) {
		t.Error("batching should reduce accuracy")
	}
	// Floor at 0.5.
	if got := w.effectiveAccuracy(0, 1000); got != 0.5 {
		t.Errorf("floored accuracy = %v", got)
	}
}

func buildPairHITs(n int, assignments int) *hit.Group {
	b := hit.NewBuilder("g", assignments, 1)
	var qs []hit.Question
	for i := 0; i < n; i++ {
		// Half matches, half non-matches.
		l := item(fmt.Sprintf("i%d", i))
		r := l
		if i%2 == 1 {
			r = item(fmt.Sprintf("i%d-x", i))
		}
		qs = append(qs, hit.Question{Kind: hit.JoinPairQ, Task: "same", Left: l, Right: r})
	}
	hits, err := b.Merge(qs, 1)
	if err != nil {
		panic(err)
	}
	return &hit.Group{ID: "g", HITs: hits}
}

func TestSimMarketRunBasics(t *testing.T) {
	oracle := &pairOracle{difficulty: 0.1, n: 100}
	m := NewSimMarket(DefaultConfig(42), oracle)
	g := buildPairHITs(50, 5)
	res, err := m.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAssignments != 250 {
		t.Fatalf("assignments = %d, want 250", res.TotalAssignments)
	}
	if len(res.Incomplete) != 0 {
		t.Fatalf("incomplete = %v", res.Incomplete)
	}
	if res.MakespanHours <= 0 {
		t.Error("makespan should be positive")
	}
	// Every assignment answers every question of its HIT.
	byHIT := map[string]int{}
	for _, a := range res.Assignments {
		if len(a.Answers) != 1 {
			t.Fatalf("assignment answers = %d, want 1", len(a.Answers))
		}
		if a.SubmitHours <= 0 {
			t.Error("submit time must be positive")
		}
		byHIT[a.HITID]++
	}
	for id, n := range byHIT {
		if n != 5 {
			t.Errorf("hit %s has %d assignments, want 5", id, n)
		}
	}
}

func TestSimMarketDeterminism(t *testing.T) {
	oracle := &pairOracle{difficulty: 0.1, n: 100}
	run := func() *RunResult {
		m := NewSimMarket(DefaultConfig(7), oracle)
		res, err := m.Run(buildPairHITs(30, 5))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Assignments) != len(b.Assignments) {
		t.Fatal("lengths differ")
	}
	for i := range a.Assignments {
		x, y := a.Assignments[i], b.Assignments[i]
		if x.WorkerID != y.WorkerID || x.Answers[0].Bool != y.Answers[0].Bool || x.SubmitHours != y.SubmitHours {
			t.Fatalf("assignment %d differs: %+v vs %+v", i, x, y)
		}
	}
}

func TestSimMarketMajorityAccuracy(t *testing.T) {
	// With 5 assignments and easy pairs, per-question majority should
	// be near-perfect even though single workers err — the paper's
	// central observation about vote aggregation (§3.3.2).
	oracle := &pairOracle{difficulty: 0.1, n: 100}
	m := NewSimMarket(DefaultConfig(11), oracle)
	g := buildPairHITs(200, 5)
	res, err := m.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	yesVotes := map[string]int{}
	votes := map[string]int{}
	truth := map[string]bool{}
	for _, h := range g.HITs {
		q := h.Questions[0]
		match, _ := oracle.JoinMatch(q.Left, q.Right)
		truth[q.ID] = match
	}
	qByID := map[string]bool{}
	_ = qByID
	for _, a := range res.Assignments {
		for _, ans := range a.Answers {
			votes[ans.QuestionID]++
			if ans.Bool {
				yesVotes[ans.QuestionID]++
			}
		}
	}
	correct := 0
	for qid, want := range truth {
		got := yesVotes[qid]*2 > votes[qid]
		if got == want {
			correct++
		}
	}
	acc := float64(correct) / float64(len(truth))
	// Expected ≈0.92 for 5 votes at effective accuracy ≈0.8 with 8%
	// spammers; the paper's Table 1 uses 10 votes to get ≈0.99.
	if acc < 0.88 {
		t.Errorf("majority accuracy = %.3f, want ≥0.88", acc)
	}
}

func TestBatchRefusal(t *testing.T) {
	// A comparison group of 20 items exceeds the refusal effort —
	// reproducing the paper's stalled group-size-20 experiment.
	oracle := &pairOracle{sigma: 0.01, n: 20}
	m := NewSimMarket(DefaultConfig(13), oracle)
	items := make([]relation.Tuple, 20)
	for i := range items {
		items[i] = item(fmt.Sprintf("i%d", i))
	}
	b := hit.NewBuilder("g", 5, 1)
	hits, err := b.Merge([]hit.Question{{Kind: hit.CompareQ, Task: "sort", Items: items}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(&hit.Group{ID: "g", HITs: hits})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Incomplete) != 1 {
		t.Fatalf("incomplete = %v, want the group-20 HIT refused", res.Incomplete)
	}
	if res.TotalAssignments != 0 {
		t.Error("refused HIT should produce no assignments")
	}
	// Group size 5 is fine.
	b2 := hit.NewBuilder("g2", 5, 1)
	hits2, _ := b2.Merge([]hit.Question{{Kind: hit.CompareQ, Task: "sort", Items: items[:5]}}, 1)
	res2, err := m.Run(&hit.Group{ID: "g2", HITs: hits2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Incomplete) != 0 || res2.TotalAssignments != 5 {
		t.Errorf("group-5 run: %+v", res2)
	}
}

func TestBatchingReducesLatency(t *testing.T) {
	// Same logical work, batched 10-per-HIT vs unbatched: batched must
	// complete faster (paper Fig. 4: "a reduction in HITs with batching
	// reduces latency").
	oracle := &pairOracle{difficulty: 0.1, n: 1000}
	mkGroup := func(batch int) *hit.Group {
		b := hit.NewBuilder("g", 5, 1)
		var qs []hit.Question
		for i := 0; i < 300; i++ {
			qs = append(qs, hit.Question{Kind: hit.JoinPairQ, Task: "same", Left: item(fmt.Sprintf("i%d", i)), Right: item(fmt.Sprintf("i%d", i))})
		}
		hits, err := b.Merge(qs, batch)
		if err != nil {
			t.Fatal(err)
		}
		return &hit.Group{ID: "g", HITs: hits}
	}
	m1 := NewSimMarket(DefaultConfig(17), oracle)
	slow, err := m1.Run(mkGroup(1))
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewSimMarket(DefaultConfig(17), oracle)
	fast, err := m2.Run(mkGroup(10))
	if err != nil {
		t.Fatal(err)
	}
	if fast.MakespanHours >= slow.MakespanHours {
		t.Errorf("batched makespan %.3f ≥ unbatched %.3f", fast.MakespanHours, slow.MakespanHours)
	}
}

func TestStragglerTail(t *testing.T) {
	// The slowest 5% of assignments should account for a large share of
	// the makespan (paper: "the last 50%% of wait time is spent
	// completing the last 5%% of tasks").
	oracle := &pairOracle{difficulty: 0.1, n: 1000}
	m := NewSimMarket(DefaultConfig(19), oracle)
	res, err := m.Run(buildPairHITs(400, 5))
	if err != nil {
		t.Fatal(err)
	}
	times := make([]float64, len(res.Assignments))
	for i, a := range res.Assignments {
		times[i] = a.SubmitHours
	}
	p95 := percentileOf(times, 0.95)
	if p95/res.MakespanHours > 0.75 {
		t.Errorf("p95/makespan = %.2f, want a heavy tail (≤0.75)", p95/res.MakespanHours)
	}
}

func percentileOf(xs []float64, p float64) float64 {
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j-1] > cp[j]; j-- {
			cp[j-1], cp[j] = cp[j], cp[j-1]
		}
	}
	return cp[int(p*float64(len(cp)-1))]
}

func TestCompareAnswersRespectScores(t *testing.T) {
	// With tiny sigma, a good worker's group order matches the latent
	// order.
	oracle := &pairOracle{sigma: 0.001, n: 5}
	w := &Worker{ID: "w", Skill: 0.95, NoiseMult: 1, RatingSlope: 1}
	items := []relation.Tuple{item("i3"), item("i0"), item("i4"), item("i1"), item("i2")}
	q := &hit.Question{ID: "q", Kind: hit.CompareQ, Task: "sort", Items: items}
	rng := rand.New(rand.NewSource(23))
	ans := answerCompare(w, q, oracle, rng)
	want := []int{1, 3, 4, 0, 2} // items sorted by score: i0,i1,i2,i3,i4
	for i, idx := range ans.Order {
		if idx != want[i] {
			t.Fatalf("order = %v, want %v", ans.Order, want)
		}
	}
}

func TestRateAnswersTrackScores(t *testing.T) {
	oracle := &pairOracle{sigma: 0.02, n: 10}
	w := &Worker{ID: "w", Skill: 0.9, NoiseMult: 1, RatingSlope: 1}
	rng := rand.New(rand.NewSource(29))
	low, high := 0.0, 0.0
	for i := 0; i < 200; i++ {
		lowQ := &hit.Question{ID: "l", Kind: hit.RateQ, Task: "sort", Tuple: item("i0"), Scale: 7}
		highQ := &hit.Question{ID: "h", Kind: hit.RateQ, Task: "sort", Tuple: item("i9"), Scale: 7}
		low += float64(answerRate(w, lowQ, oracle, respondConfig{ratingNoise: 0.5}, rng).Rating)
		high += float64(answerRate(w, highQ, oracle, respondConfig{ratingNoise: 0.5}, rng).Rating)
	}
	if high/200 <= low/200+2 {
		t.Errorf("mean ratings: low=%.2f high=%.2f, want clear separation", low/200, high/200)
	}
}

func TestSpammerAnswers(t *testing.T) {
	oracle := &pairOracle{n: 10}
	rng := rand.New(rand.NewSource(31))
	minimal := &Worker{ID: "s", IsSpammer: true, Strategy: SpamMinimal}
	pairQ := &hit.Question{ID: "q", Kind: hit.JoinPairQ, Task: "same", Left: item("i1"), Right: item("i1")}
	if answerJoinPair(minimal, pairQ, oracle, 1, rng).Bool {
		t.Error("minimal spammer should answer no")
	}
	gridQ := &hit.Question{ID: "g", Kind: hit.JoinGridQ, Task: "same",
		LeftItems: []relation.Tuple{item("i1")}, RightItems: []relation.Tuple{item("i1")}}
	if got := answerJoinGrid(minimal, gridQ, oracle, 1, rng); len(got.Pairs) != 0 {
		t.Error("minimal spammer should select no pairs")
	}
	rateQ := &hit.Question{ID: "r", Kind: hit.RateQ, Task: "sort", Tuple: item("i1"), Scale: 7}
	if got := answerRate(minimal, rateQ, oracle, respondConfig{}, rng); got.Rating != 4 {
		t.Errorf("minimal spammer rating = %d, want 4", got.Rating)
	}
	cmpQ := &hit.Question{ID: "c", Kind: hit.CompareQ, Task: "sort",
		Items: []relation.Tuple{item("i2"), item("i0"), item("i1")}}
	got := answerCompare(minimal, cmpQ, oracle, rng)
	for i, idx := range got.Order {
		if idx != i {
			t.Errorf("minimal spammer order = %v, want identity", got.Order)
		}
	}
}

func TestGenerativeAnswers(t *testing.T) {
	oracle := &pairOracle{n: 10}
	rng := rand.New(rand.NewSource(37))
	w := &Worker{ID: "w", Skill: 0.95, RatingSlope: 1, NoiseMult: 1}
	q := &hit.Question{ID: "q", Kind: hit.GenerativeQ, Task: "color", Tuple: item("i0"), Fields: []string{"color"}}
	correct := 0
	for i := 0; i < 300; i++ {
		ans := answerGenerative(w, q, oracle, respondConfig{combinedConfusionFactor: 0.55, unknownShare: 0.15}, 1, rng)
		if ans.Fields["color"] == "red" { // i0 → opts[0] = red
			correct++
		}
	}
	// Confusion 0.1 × (1.5-0.95) ≈ 0.055 error rate.
	if correct < 250 {
		t.Errorf("correct %d/300, want ≥250", correct)
	}
	// Combined interface should err less than separate.
	qc := &hit.Question{ID: "q", Kind: hit.GenerativeQ, Task: "color+other", Tuple: item("i0"), Fields: []string{"color"}}
	sep, comb := 0, 0
	for i := 0; i < 2000; i++ {
		if answerGenerative(w, q, oracle, respondConfig{combinedConfusionFactor: 0.3, unknownShare: 0}, 1, rng).Fields["color"] != "red" {
			sep++
		}
		if answerGenerative(w, qc, oracle, respondConfig{combinedConfusionFactor: 0.3, unknownShare: 0}, 1, rng).Fields["color"] != "red" {
			comb++
		}
	}
	if comb >= sep {
		t.Errorf("combined errors %d ≥ separate errors %d", comb, sep)
	}
}

func TestRunValidation(t *testing.T) {
	oracle := &pairOracle{n: 10}
	m := NewSimMarket(DefaultConfig(1), oracle)
	res, err := m.Run(nil)
	if err != nil || res.TotalAssignments != 0 {
		t.Errorf("nil group: %v, %v", res, err)
	}
	bad := &hit.Group{ID: "g", HITs: []*hit.HIT{{ID: "", Assignments: 5}}}
	if _, err := m.Run(bad); err == nil {
		t.Error("invalid HIT accepted")
	}
}
