package join

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"qurk/internal/combine"
	"qurk/internal/crowd"
	"qurk/internal/relation"
	"qurk/internal/task"
)

var testSchema = relation.MustSchema(
	relation.Column{Name: "id", Kind: relation.KindText},
	relation.Column{Name: "img", Kind: relation.KindURL},
)

// makeTables builds two n-row tables whose rows join on equal ids.
func makeTables(n int) (*relation.Relation, *relation.Relation) {
	left := relation.New("celeb", testSchema.Qualify("c"))
	right := relation.New("photos", testSchema.Qualify("p"))
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("celeb%02d", i)
		_ = left.AppendValues(relation.Text(id), relation.URL("http://imdb/"+id))
		_ = right.AppendValues(relation.Text(id), relation.URL("http://oscars/"+id))
	}
	return left, right
}

// testOracle joins tuples with equal ids; features derive from the id's
// numeric suffix.
type testOracle struct {
	difficulty    float64
	hairConfusion float64
}

func idNum(t relation.Tuple) int {
	id, _ := t.Get("id")
	n, _ := strconv.Atoi(strings.TrimPrefix(id.Text(), "celeb"))
	return n
}

func (o *testOracle) JoinMatch(l, r relation.Tuple) (bool, float64) {
	lid, _ := l.Get("id")
	rid, _ := r.Get("id")
	return lid.Text() == rid.Text(), o.difficulty
}
func (o *testOracle) FilterTruth(string, relation.Tuple) (bool, float64) { return true, 0 }
func (o *testOracle) FieldValue(taskName, field string, t relation.Tuple) (string, float64, []string) {
	n := idNum(t)
	switch field {
	case "gender":
		opts := []string{"Male", "Female", "UNKNOWN"}
		return opts[n%2], 0.02, opts
	case "hair":
		opts := []string{"black", "brown", "blond", "white", "UNKNOWN"}
		return opts[n%4], o.hairConfusion, opts
	default:
		return "x", 0, []string{"x", "y"}
	}
}
func (o *testOracle) Score(string, relation.Tuple) (float64, float64) { return 0, 0 }
func (o *testOracle) ScoreRange(string) (float64, float64)            { return 0, 1 }

func equiJoinTask() *task.EquiJoin {
	return &task.EquiJoin{
		Name: "samePerson", SingularName: "celebrity", PluralName: "celebrities",
		LeftPreview:  task.MustPrompt("<img src='%s' class=smImg>", "img"),
		LeftNormal:   task.MustPrompt("<img src='%s' class=lgImg>", "img"),
		RightPreview: task.MustPrompt("<img src='%s' class=smImg>", "img"),
		RightNormal:  task.MustPrompt("<img src='%s' class=lgImg>", "img"),
		Combiner:     "MajorityVote",
	}
}

func genderFeature() Feature {
	return Feature{
		Task: &task.Generative{
			Name:   "gender",
			Prompt: task.MustPrompt("<img src='%s'> What is this person's gender?", "img"),
			Fields: []task.Field{{Name: "gender", Response: task.Radio("Gender", "Male", "Female", "UNKNOWN"), Combiner: "MajorityVote"}},
		},
		Field: "gender",
	}
}

func hairFeature() Feature {
	return Feature{
		Task: &task.Generative{
			Name:   "hairColor",
			Prompt: task.MustPrompt("<img src='%s'> What is this person's hair color?", "img"),
			Fields: []task.Field{{Name: "hair", Response: task.Radio("Hair", "black", "brown", "blond", "white", "UNKNOWN"), Combiner: "MajorityVote"}},
		},
		Field: "hair",
	}
}

func market(seed int64, o crowd.Oracle) *crowd.SimMarket {
	return crowd.NewSimMarket(crowd.DefaultConfig(seed), o)
}

func TestCrossPairs(t *testing.T) {
	l, r := makeTables(5)
	pairs := CrossPairs(l, r)
	if len(pairs) != 25 {
		t.Fatalf("cross pairs = %d, want 25", len(pairs))
	}
	// Keys are unique and stable.
	seen := map[string]bool{}
	for _, p := range pairs {
		if seen[p.Key()] {
			t.Fatalf("duplicate key %s", p.Key())
		}
		seen[p.Key()] = true
	}
}

func TestHITCountsPerAlgorithm(t *testing.T) {
	l, r := makeTables(10) // 100 pairs
	o := &testOracle{difficulty: 0.05}
	cases := []struct {
		name string
		opts Options
		want int
	}{
		{"simple", Options{Algorithm: Simple}, 100},
		{"naive5", Options{Algorithm: Naive, BatchSize: 5}, 20},
		{"naive10", Options{Algorithm: Naive, BatchSize: 10}, 10},
		{"smart2x2", Options{Algorithm: Smart, GridRows: 2, GridCols: 2}, 25},
		{"smart3x3", Options{Algorithm: Smart, GridRows: 3, GridCols: 3}, 16}, // ceil(10/3)² = 4²
		{"smart5x5", Options{Algorithm: Smart, GridRows: 5, GridCols: 5}, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := RunCross(l, r, equiJoinTask(), c.opts, market(1, o))
			if err != nil {
				t.Fatal(err)
			}
			if res.HITCount != c.want {
				t.Errorf("HITs = %d, want %d (paper §3.1 arithmetic)", res.HITCount, c.want)
			}
			if res.Candidates != 100 {
				t.Errorf("candidates = %d, want 100", res.Candidates)
			}
		})
	}
}

func TestJoinRecoversMatches(t *testing.T) {
	l, r := makeTables(12)
	o := &testOracle{difficulty: 0.05}
	for _, alg := range []Options{
		{Algorithm: Simple, Assignments: 10, GroupID: "t1"},
		{Algorithm: Naive, BatchSize: 5, Assignments: 10, GroupID: "t2"},
		{Algorithm: Smart, GridRows: 3, GridCols: 3, Assignments: 10, GroupID: "t3"},
	} {
		res, err := RunCross(l, r, equiJoinTask(), alg, market(7, o))
		if err != nil {
			t.Fatal(err)
		}
		tp, fp := 0, 0
		for _, m := range res.Matches {
			if match, _ := o.JoinMatch(m.Pair.Left, m.Pair.Right); match {
				tp++
			} else {
				fp++
			}
		}
		if tp < 11 {
			t.Errorf("%v: true positives = %d/12", alg.Algorithm, tp)
		}
		if fp > 2 {
			t.Errorf("%v: false positives = %d", alg.Algorithm, fp)
		}
		if res.Joined.Len() != len(res.Matches) {
			t.Errorf("%v: joined relation rows %d != matches %d", alg.Algorithm, res.Joined.Len(), len(res.Matches))
		}
	}
}

func TestJoinWithQualityAdjust(t *testing.T) {
	l, r := makeTables(10)
	o := &testOracle{difficulty: 0.05}
	qa := combine.NewQualityAdjust(combine.DefaultQAConfig())
	res, err := RunCross(l, r, equiJoinTask(),
		Options{Algorithm: Naive, BatchSize: 10, Assignments: 10, Combiner: qa}, market(11, o))
	if err != nil {
		t.Fatal(err)
	}
	tp := 0
	for _, m := range res.Matches {
		if match, _ := o.JoinMatch(m.Pair.Left, m.Pair.Right); match {
			tp++
		}
	}
	if tp < 9 {
		t.Errorf("QA true positives = %d/10", tp)
	}
}

func TestJoinEmptyCandidates(t *testing.T) {
	res, err := Run(nil, equiJoinTask(), Options{}, market(1, &testOracle{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.HITCount != 0 || len(res.Matches) != 0 {
		t.Errorf("empty join: %+v", res)
	}
}

func TestJoinVotesExposed(t *testing.T) {
	l, r := makeTables(4)
	o := &testOracle{difficulty: 0.05}
	res, err := RunCross(l, r, equiJoinTask(), Options{Algorithm: Simple, Assignments: 5}, market(3, o))
	if err != nil {
		t.Fatal(err)
	}
	// 16 pairs × 5 assignments = 80 votes.
	if len(res.Votes) != 80 {
		t.Errorf("votes = %d, want 80", len(res.Votes))
	}
	// Votes can be re-combined externally (two-trial merges).
	dec, err := combine.MajorityVote{}.Combine(res.Votes)
	if err != nil || len(dec) != 16 {
		t.Errorf("recombine: %d decisions, %v", len(dec), err)
	}
}

func TestGridVoteExpansion(t *testing.T) {
	// Grid answers must expand into per-cell votes: a 2×2 grid with 5
	// assignments yields 4 cells × 5 = 20 votes.
	l, r := makeTables(2)
	o := &testOracle{difficulty: 0.05}
	res, err := RunCross(l, r, equiJoinTask(),
		Options{Algorithm: Smart, GridRows: 2, GridCols: 2, Assignments: 5}, market(5, o))
	if err != nil {
		t.Fatal(err)
	}
	if res.HITCount != 1 {
		t.Fatalf("HITs = %d, want 1", res.HITCount)
	}
	if len(res.Votes) != 20 {
		t.Errorf("votes = %d, want 20", len(res.Votes))
	}
}

func TestExtractAndValues(t *testing.T) {
	l, _ := makeTables(10)
	o := &testOracle{hairConfusion: 0.02}
	ext, err := Extract(l, []Feature{genderFeature(), hairFeature()},
		ExtractOptions{Combined: true, BatchSize: 4, Assignments: 5}, market(13, o))
	if err != nil {
		t.Fatal(err)
	}
	// ceil(10/4) = 3 combined HITs.
	if ext.HITCount != 3 {
		t.Errorf("extraction HITs = %d, want 3", ext.HITCount)
	}
	// With near-zero confusion, every combined value should be right.
	correct := 0
	for i := 0; i < l.Len(); i++ {
		want, _, _ := o.FieldValue("gender", "gender", l.Row(i))
		if got, ok := ext.Value(l.Row(i), "gender"); ok && got == want {
			correct++
		}
	}
	if correct < 9 {
		t.Errorf("gender extraction correct = %d/10", correct)
	}
	// κ should be high for a crisp feature.
	k, err := ext.Kappa("gender")
	if err != nil {
		t.Fatal(err)
	}
	if k < 0.7 {
		t.Errorf("gender κ = %.2f, want high", k)
	}
}

func TestExtractSeparateVsCombinedHITCounts(t *testing.T) {
	l, _ := makeTables(20)
	o := &testOracle{}
	sep, err := Extract(l, []Feature{genderFeature(), hairFeature()},
		ExtractOptions{Combined: false, BatchSize: 5, Assignments: 5}, market(17, o))
	if err != nil {
		t.Fatal(err)
	}
	// Separate: 2 features × ceil(20/5) = 8 HITs.
	if sep.HITCount != 8 {
		t.Errorf("separate HITs = %d, want 8", sep.HITCount)
	}
	comb, err := Extract(l, []Feature{genderFeature(), hairFeature()},
		ExtractOptions{Combined: true, BatchSize: 5, Assignments: 5}, market(17, o))
	if err != nil {
		t.Fatal(err)
	}
	// Combined: ceil(20/5) = 4 HITs — combining reduces HITs (§2.6).
	if comb.HITCount != 4 {
		t.Errorf("combined HITs = %d, want 4", comb.HITCount)
	}
}

func TestPairPassesUnknownWildcard(t *testing.T) {
	l, r := makeTables(2)
	le := &Extraction{Values: map[uint64]map[string]string{
		l.Row(0).Key(): {"gender": "Male"},
		l.Row(1).Key(): {"gender": "UNKNOWN"},
	}}
	re := &Extraction{Values: map[uint64]map[string]string{
		r.Row(0).Key(): {"gender": "Female"},
		r.Row(1).Key(): {"gender": "Female"},
	}}
	if PairPasses(le, re, l.Row(0), r.Row(0), []string{"gender"}) {
		t.Error("Male/Female pair passed")
	}
	// UNKNOWN matches everything (paper §2.4).
	if !PairPasses(le, re, l.Row(1), r.Row(1), []string{"gender"}) {
		t.Error("UNKNOWN pair pruned")
	}
	// Unextracted features never prune.
	if !PairPasses(le, re, l.Row(0), r.Row(0), []string{"unextracted"}) {
		t.Error("missing feature pruned")
	}
}

func TestFilteredPairsPruning(t *testing.T) {
	l, r := makeTables(10)
	o := &testOracle{hairConfusion: 0.02}
	le, err := Extract(l, []Feature{genderFeature()}, ExtractOptions{Combined: true, Assignments: 5, GroupID: "el"}, market(19, o))
	if err != nil {
		t.Fatal(err)
	}
	re, err := Extract(r, []Feature{genderFeature()}, ExtractOptions{Combined: true, Assignments: 5, GroupID: "er"}, market(23, o))
	if err != nil {
		t.Fatal(err)
	}
	pairs := FilteredPairs(l, r, le, re, []string{"gender"})
	// Gender splits 50/50: ~half the 100 pairs pruned.
	if len(pairs) < 40 || len(pairs) > 70 {
		t.Errorf("filtered pairs = %d, want ≈50", len(pairs))
	}
	// All true matches must survive (gender is reliable here).
	surviving := map[string]bool{}
	for _, p := range pairs {
		surviving[p.Key()] = true
	}
	lost := 0
	for _, p := range CrossPairs(l, r) {
		if match, _ := o.JoinMatch(p.Left, p.Right); match && !surviving[p.Key()] {
			lost++
		}
	}
	if lost > 1 {
		t.Errorf("filter lost %d true matches", lost)
	}
	sel := EmpiricalSelectivity(l, r, le, re, []string{"gender"})
	if sel < 0.4 || sel > 0.7 {
		t.Errorf("selectivity = %.2f, want ≈0.5", sel)
	}
}

func TestChooseFeaturesDropsAmbiguousHair(t *testing.T) {
	l, r := makeTables(16)
	// Hair is very confusable — κ should drop below threshold and the
	// selector should discard it, as the paper concludes for hair
	// color (§3.3.4).
	o := &testOracle{hairConfusion: 0.75}
	features := []Feature{genderFeature(), hairFeature()}
	le, err := Extract(l, features, ExtractOptions{Combined: true, Assignments: 5, GroupID: "l"}, market(29, o))
	if err != nil {
		t.Fatal(err)
	}
	re, err := Extract(r, features, ExtractOptions{Combined: true, Assignments: 5, GroupID: "r"}, market(31, o))
	if err != nil {
		t.Fatal(err)
	}
	// Reference matches: the true pairs.
	var ref []Pair
	for _, p := range CrossPairs(l, r) {
		if match, _ := o.JoinMatch(p.Left, p.Right); match {
			ref = append(ref, p)
		}
	}
	kept, verdicts, err := ChooseFeatures(l, r, le, re, features, ref, SelectionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]FeatureVerdict{}
	for _, v := range verdicts {
		byName[v.Feature] = v
	}
	if !byName["gender"].Kept {
		t.Errorf("gender dropped: %+v", byName["gender"])
	}
	if byName["hair"].Kept {
		t.Errorf("ambiguous hair kept: %+v", byName["hair"])
	}
	if len(kept) != 1 || kept[0].Field != "gender" {
		t.Errorf("kept = %v", kept)
	}
}

func TestSmartHITsSparseCandidates(t *testing.T) {
	// With candidates restricted to matching ids, the grid layout
	// should skip empty blocks.
	l, r := makeTables(9)
	var pairs []Pair
	for i := 0; i < 9; i++ {
		pairs = append(pairs, Pair{LeftIndex: i, RightIndex: i, Left: l.Row(i), Right: r.Row(i)})
	}
	o := &testOracle{difficulty: 0.05}
	res, err := Run(pairs, equiJoinTask(), Options{Algorithm: Smart, GridRows: 3, GridCols: 3, Assignments: 5}, market(43, o))
	if err != nil {
		t.Fatal(err)
	}
	// Diagonal candidates: only the 3 diagonal blocks have candidates.
	if res.HITCount != 3 {
		t.Errorf("sparse grid HITs = %d, want 3", res.HITCount)
	}
}

func TestSamplePairs(t *testing.T) {
	l, r := makeTables(10)
	rng := rand.New(rand.NewSource(47))
	s := SamplePairs(l, r, 0.25, rng)
	if len(s) != 25 {
		t.Errorf("sample = %d, want 25", len(s))
	}
	full := SamplePairs(l, r, 1.0, rng)
	if len(full) != 100 {
		t.Errorf("full sample = %d", len(full))
	}
	tiny := SamplePairs(l, r, 1e-9, rng)
	if len(tiny) != 1 {
		t.Errorf("tiny sample = %d, want 1", len(tiny))
	}
}

func TestFeatureValidation(t *testing.T) {
	// Non-categorical features are rejected (κ requires categories).
	f := Feature{
		Task: &task.Generative{
			Name:   "freetext",
			Prompt: task.MustPrompt("describe"),
			Fields: []task.Field{{Name: "desc", Response: task.TextInput("Description")}},
		},
		Field: "desc",
	}
	if err := f.Validate(); err == nil {
		t.Error("free-text feature accepted")
	}
	if _, err := Extract(relation.New("x", testSchema), nil, ExtractOptions{}, market(1, &testOracle{})); err == nil {
		t.Error("empty feature list accepted")
	}
	bad := Feature{Task: genderFeature().Task, Field: "missing"}
	if err := bad.Validate(); err == nil {
		t.Error("missing field accepted")
	}
}
