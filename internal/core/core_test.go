package core

import (
	"strings"
	"testing"

	"qurk/internal/crowd"
	"qurk/internal/dataset"
	"qurk/internal/query"
	"qurk/internal/task"
)

func celebMarket(t *testing.T, n int, seed int64) (*dataset.Celebrities, *crowd.SimMarket) {
	t.Helper()
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: n, Seed: seed})
	return d, crowd.NewSimMarket(crowd.DefaultConfig(seed), d.Oracle())
}

func TestRunFilterIsFemale(t *testing.T) {
	d, m := celebMarket(t, 30, 1)
	res, err := RunFilter(d.Celeb, dataset.IsFemaleTask(), FilterOptions{Assignments: 5, BatchSize: 5}, m)
	if err != nil {
		t.Fatal(err)
	}
	// ceil(30/5) = 6 HITs.
	if res.HITCount != 6 {
		t.Errorf("HITs = %d, want 6", res.HITCount)
	}
	// Accuracy vs ground truth.
	correct := 0
	for i := 0; i < d.Celeb.Len(); i++ {
		truth, _ := d.Oracle().FilterTruth("isFemale", d.Celeb.Row(i))
		if res.Decisions[i] == truth {
			correct++
		}
	}
	if correct < 27 {
		t.Errorf("filter accuracy = %d/30", correct)
	}
	if res.Passed.Len() == 0 || res.Passed.Len() == 30 {
		t.Errorf("passed = %d rows, expected a real split", res.Passed.Len())
	}
}

func TestRunFilterNegate(t *testing.T) {
	d, m := celebMarket(t, 20, 3)
	pos, err := RunFilter(d.Celeb, dataset.IsFemaleTask(), FilterOptions{GroupID: "a"}, m)
	if err != nil {
		t.Fatal(err)
	}
	neg, err := RunFilter(d.Celeb, dataset.IsFemaleTask(), FilterOptions{GroupID: "b", Negate: true}, m)
	if err != nil {
		t.Fatal(err)
	}
	// Positive and negative partitions should cover everything (same
	// votes could disagree across runs, so allow small slack).
	total := pos.Passed.Len() + neg.Passed.Len()
	if total < 18 || total > 22 {
		t.Errorf("pos %d + neg %d = %d, want ≈20", pos.Passed.Len(), neg.Passed.Len(), total)
	}
}

func TestRunFilterEmptyAndValidation(t *testing.T) {
	d, m := celebMarket(t, 5, 7)
	empty := d.Celeb.Limit(0)
	res, err := RunFilter(empty, dataset.IsFemaleTask(), FilterOptions{}, m)
	if err != nil || res.HITCount != 0 {
		t.Errorf("empty filter: %v, %v", res, err)
	}
	bad := &task.Filter{Prompt: task.MustPrompt("x")}
	if _, err := RunFilter(d.Celeb, bad, FilterOptions{}, m); err == nil {
		t.Error("invalid task accepted")
	}
}

func TestRunGenerativeNumInScene(t *testing.T) {
	mv := dataset.NewMovie(dataset.MovieConfig{Scenes: 40, Actors: 3, Seed: 11})
	m := crowd.NewSimMarket(crowd.DefaultConfig(11), mv.Oracle())
	res, err := RunGenerative(mv.Scenes, dataset.NumInSceneTask(), GenerativeOptions{BatchSize: 4, Assignments: 5}, m)
	if err != nil {
		t.Fatal(err)
	}
	if res.HITCount != 10 { // ceil(40/4)
		t.Errorf("HITs = %d, want 10", res.HITCount)
	}
	// Output schema gains the numInScene column.
	if !res.Output.Schema().Has("numInScene.numInScene") {
		t.Fatalf("output schema = %s", res.Output.Schema())
	}
	correct := 0
	for i := 0; i < mv.Scenes.Len(); i++ {
		want, _, _ := mv.Oracle().FieldValue("numInScene", "numInScene", mv.Scenes.Row(i))
		if res.Values[i]["numInScene"] == want {
			correct++
		}
	}
	if correct < 37 {
		t.Errorf("numInScene accuracy = %d/40 (paper: near-perfect)", correct)
	}
}

func TestRunGenerativeNormalizer(t *testing.T) {
	a := dataset.NewAnimals()
	m := crowd.NewSimMarket(crowd.DefaultConfig(13), a.Oracle())
	res, err := RunGenerative(a.Rel, dataset.AnimalInfoTask(), GenerativeOptions{Assignments: 5}, m)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < a.Rel.Len(); i++ {
		want := a.Rel.Row(i).MustGet("name").Text()
		if res.Values[i]["common"] == want {
			correct++
		}
	}
	if correct < 22 {
		t.Errorf("animalInfo.common accuracy = %d/27", correct)
	}
}

func TestRunGenerativeFieldValidation(t *testing.T) {
	a := dataset.NewAnimals()
	m := crowd.NewSimMarket(crowd.DefaultConfig(1), a.Oracle())
	if _, err := RunGenerative(a.Rel, dataset.AnimalInfoTask(), GenerativeOptions{Fields: []string{"missing"}}, m); err == nil {
		t.Error("missing field accepted")
	}
}

func TestLibrary(t *testing.T) {
	l := NewLibrary()
	if err := l.Register(dataset.IsFemaleTask()); err != nil {
		t.Fatal(err)
	}
	if err := l.Register(dataset.IsFemaleTask()); err == nil {
		t.Error("duplicate accepted")
	}
	tk, params, err := l.Resolve("ISFEMALE")
	if err != nil || tk.TaskName() != "isFemale" || len(params) != 0 {
		t.Errorf("resolve: %v %v %v", tk, params, err)
	}
	if _, _, err := l.Resolve("nope"); err == nil {
		t.Error("missing resolve should error")
	}
	if len(l.Names()) != 1 {
		t.Errorf("names = %v", l.Names())
	}
}

func TestLibraryLoadScript(t *testing.T) {
	src := `
TASK isFemale(field) TYPE Filter:
	Prompt: "<img src='%s'> Is the person a woman?", tuple[field]
	YesText: "Yes"
	NoText: "No"
	Combiner: MajorityVote
`
	script, err := query.ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLibrary()
	if err := l.LoadScript(script); err != nil {
		t.Fatal(err)
	}
	_, params, err := l.Resolve("isFemale")
	if err != nil || len(params) != 1 || params[0] != "field" {
		t.Errorf("params = %v, %v", params, err)
	}
}

func TestEngineDefaults(t *testing.T) {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 5, Seed: 1})
	m := crowd.NewSimMarket(crowd.DefaultConfig(1), d.Oracle())
	e := NewEngine(m, Options{})
	if e.Options.Assignments != 5 || e.Options.FilterBatch != 5 || e.Options.Combiner != "MajorityVote" {
		t.Errorf("defaults = %+v", e.Options)
	}
	comb, err := e.Combiner()
	if err != nil || comb.Name() != "MajorityVote" {
		t.Errorf("combiner = %v, %v", comb, err)
	}
	e2 := NewEngine(m, Options{Combiner: "QualityAdjust"})
	comb, err = e2.Combiner()
	if err != nil || comb.Name() != "QualityAdjust" {
		t.Errorf("QA combiner = %v, %v", comb, err)
	}
	if got := SortCompare.String() + SortRate.String() + SortHybrid.String(); !strings.Contains(got, "Rate") {
		t.Errorf("sort names = %q", got)
	}
}
