package exec

import (
	"context"
	"strings"
	"testing"

	"qurk/internal/core"
	"qurk/internal/crowd"
	"qurk/internal/dataset"
	"qurk/internal/join"
	"qurk/internal/plan"
	"qurk/internal/query"
	"qurk/internal/relation"
	"qurk/internal/task"
)

// runQuery parses, plans, and runs one query string on e.
func runQuery(e *core.Engine, src string) (*relation.Relation, *Stats, error) {
	return runQueryContext(context.Background(), e, src)
}

// runQueryContext is runQuery under ctx.
func runQueryContext(ctx context.Context, e *core.Engine, src string) (*relation.Relation, *Stats, error) {
	root, err := plan.BuildQuery(src, e.Library)
	if err != nil {
		return nil, nil, err
	}
	plan.Pin(root, e.Options)
	return Run(ctx, e, root, nil)
}

func celebEngine(t *testing.T, n int, seed int64, opts core.Options) (*dataset.Celebrities, *core.Engine) {
	t.Helper()
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: n, Seed: seed})
	m := crowd.NewSimMarket(crowd.DefaultConfig(seed), d.Oracle())
	e := core.NewEngine(m, opts)
	e.Catalog.Register(d.Celeb)
	e.Catalog.Register(d.Photos)
	e.Library.MustRegister(dataset.IsFemaleTask())
	e.Library.MustRegister(dataset.SamePersonTask())
	e.Library.MustRegister(dataset.GenderTask())
	e.Library.MustRegister(dataset.HairColorTask())
	e.Library.MustRegister(dataset.SkinColorTask())
	return d, e
}

func TestExecFilterQuery(t *testing.T) {
	d, e := celebEngine(t, 30, 1, core.Options{})
	out, stats, err := runQuery(e, `SELECT c.name FROM celeb AS c WHERE isFemale(c.img)`)
	if err != nil {
		t.Fatal(err)
	}
	// Output schema: just "name".
	if out.Schema().Len() != 1 || out.Schema().Column(0).Name != "name" {
		t.Errorf("schema = %s", out.Schema())
	}
	// Compare against ground truth.
	want := map[string]bool{}
	for i := 0; i < d.Celeb.Len(); i++ {
		truth, _ := d.Oracle().FilterTruth("isFemale", d.Celeb.Row(i))
		if truth {
			want[d.Celeb.Row(i).MustGet("name").Text()] = true
		}
	}
	got := 0
	for i := 0; i < out.Len(); i++ {
		if want[out.Row(i).MustGet("name").Text()] {
			got++
		}
	}
	if got < len(want)-2 || out.Len() > len(want)+2 {
		t.Errorf("filter result: %d rows, %d true females matched of %d", out.Len(), got, len(want))
	}
	if stats.TotalHITs() != 6 { // ceil(30/5)
		t.Errorf("HITs = %d, want 6", stats.TotalHITs())
	}
	if e.Ledger.TotalHITs() != 6 {
		t.Errorf("ledger HITs = %d", e.Ledger.TotalHITs())
	}
}

func TestExecJoinQueryWithFeatures(t *testing.T) {
	_, e := celebEngine(t, 20, 3, core.Options{JoinAlgorithm: join.Naive, JoinBatch: 5, ExtractCombined: true})
	out, stats, err := runQuery(e, `
SELECT c.name FROM celeb c JOIN photos p
ON samePerson(c.img, p.img)
AND POSSIBLY gender(c.img) = gender(p.img)`)
	if err != nil {
		t.Fatal(err)
	}
	// Expect ≈20 matches (one per celebrity).
	if out.Len() < 17 || out.Len() > 24 {
		t.Errorf("join result = %d rows, want ≈20", out.Len())
	}
	// Feature filtering must have cut the join HITs below the
	// unfiltered 400/5 = 80.
	joinHITs := 0
	extractHITs := 0
	for _, op := range stats.Operators {
		if strings.HasPrefix(op.Label, "CrowdJoin") {
			joinHITs += op.HITs
		}
		if strings.HasPrefix(op.Label, "extract") {
			extractHITs += op.HITs
		}
	}
	if extractHITs == 0 {
		t.Error("no extraction HITs recorded")
	}
	if joinHITs >= 80 {
		t.Errorf("join HITs = %d, want < 80 (feature pruning)", joinHITs)
	}
}

func TestExecMachineFilterAndProject(t *testing.T) {
	_, e := celebEngine(t, 10, 5, core.Options{})
	out, stats, err := runQuery(e, `SELECT p.id, p.img FROM photos p WHERE p.id >= 5`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 5 {
		t.Errorf("machine filter rows = %d, want 5", out.Len())
	}
	if stats.TotalHITs() != 0 {
		t.Errorf("machine-only query posted %d HITs", stats.TotalHITs())
	}
	if out.Schema().Column(0).Name != "id" || out.Schema().Column(1).Name != "img" {
		t.Errorf("schema = %s", out.Schema())
	}
}

func TestExecProjectAlias(t *testing.T) {
	_, e := celebEngine(t, 5, 7, core.Options{})
	out, _, err := runQuery(e, `SELECT c.name AS who FROM celeb c`)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Schema().Has("who") {
		t.Errorf("alias missing: %s", out.Schema())
	}
}

func TestExecLimitAndMachineOrder(t *testing.T) {
	_, e := celebEngine(t, 10, 9, core.Options{})
	out, _, err := runQuery(e, `SELECT p.id FROM photos p ORDER BY p.id DESC LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("limit rows = %d", out.Len())
	}
	if out.Row(0).MustGet("id").Int() != 9 || out.Row(2).MustGet("id").Int() != 7 {
		t.Errorf("desc order wrong: %v %v", out.Row(0), out.Row(2))
	}
}

func TestExecSortQuery(t *testing.T) {
	s := dataset.NewSquares(15)
	m := crowd.NewSimMarket(crowd.DefaultConfig(11), s.Oracle())
	e := core.NewEngine(m, core.Options{SortMethod: core.SortCompare, CompareGroupSize: 5})
	e.Catalog.Register(s.Rel)
	e.Library.MustRegister(dataset.SquareSorterTask())
	out, stats, err := runQuery(e, `SELECT label FROM squares ORDER BY squareSorter(img)`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 15 {
		t.Fatalf("rows = %d", out.Len())
	}
	// Ascending area: row 0 = smallest square.
	if got := out.Row(0).MustGet("label").Text(); got != "square-20px" {
		t.Errorf("first = %q, want square-20px", got)
	}
	if got := out.Row(14).MustGet("label").Text(); got != "square-62px" {
		t.Errorf("last = %q, want square-62px", got)
	}
	if stats.TotalHITs() == 0 {
		t.Error("sort posted no HITs")
	}
}

func TestExecSortDescAndRate(t *testing.T) {
	s := dataset.NewSquares(12)
	m := crowd.NewSimMarket(crowd.DefaultConfig(13), s.Oracle())
	e := core.NewEngine(m, core.Options{SortMethod: core.SortRate})
	e.Catalog.Register(s.Rel)
	e.Library.MustRegister(dataset.SquareSorterTask())
	out, _, err := runQuery(e, `SELECT label FROM squares ORDER BY squareSorter(img) DESC LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	// Largest square should (almost surely) rate top.
	if got := out.Row(0).MustGet("label").Text(); got != "square-53px" {
		t.Logf("note: rate-based DESC top = %q (rating noise can shuffle neighbors)", got)
	}
}

func TestExecEndToEndMovieQuery(t *testing.T) {
	mv := dataset.NewMovie(dataset.MovieConfig{Scenes: 40, Actors: 3, Seed: 17})
	m := crowd.NewSimMarket(crowd.DefaultConfig(17), mv.Oracle())
	e := core.NewEngine(m, core.Options{
		JoinAlgorithm: join.Smart, GridRows: 5, GridCols: 5,
		SortMethod: core.SortRate,
	})
	e.Catalog.Register(mv.Actors)
	e.Catalog.Register(mv.Scenes)
	e.Library.MustRegister(dataset.InSceneTask())
	e.Library.MustRegister(dataset.NumInSceneTask())
	e.Library.MustRegister(dataset.QualityTask())

	out, stats, err := runQuery(e, `
SELECT name, scenes.img
FROM actors JOIN scenes
ON inScene(actors.img, scenes.img)
AND POSSIBLY numInScene(scenes.img) = 1
ORDER BY name, quality(scenes.img)`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("no results")
	}
	// Results grouped by actor name ascending.
	for i := 1; i < out.Len(); i++ {
		if out.Row(i-1).MustGet("name").Text() > out.Row(i).MustGet("name").Text() {
			t.Fatalf("rows not grouped by name at %d", i)
		}
	}
	// The numInScene extraction must appear in the stats.
	sawPossibly := false
	for _, op := range stats.Operators {
		if strings.HasPrefix(op.Label, "UnaryPossibly") {
			sawPossibly = true
		}
	}
	if !sawPossibly {
		t.Error("numInScene extraction not recorded")
	}
	// Matches should be mostly one-person scenes of the right actor.
	correct := 0
	for i := 0; i < out.Len(); i++ {
		name := out.Row(i).MustGet("name").Text()
		img := out.Row(i).MustGet("img").Text()
		for a := 0; a < mv.Actors.Len(); a++ {
			if mv.Actors.Row(a).MustGet("name").Text() != name {
				continue
			}
			for s := 0; s < mv.Scenes.Len(); s++ {
				if mv.Scenes.Row(s).MustGet("img").Text() == img && mv.InScene(mv.Actors.Row(a), mv.Scenes.Row(s)) {
					correct++
				}
			}
		}
	}
	if float64(correct)/float64(out.Len()) < 0.8 {
		t.Errorf("only %d/%d result rows are true inScene matches", correct, out.Len())
	}
}

func TestExecOrFilter(t *testing.T) {
	d, e := celebEngine(t, 12, 19, core.Options{})
	out, stats, err := runQuery(e, `SELECT c.name FROM celeb c WHERE isFemale(c.img) OR NOT isFemale(c.img)`)
	if err != nil {
		t.Fatal(err)
	}
	// Tautology: everything should pass except tuples where the two
	// *independent* vote rounds disagree (round 1 majority "no" AND
	// round 2 majority "yes"), which happens on genuinely ambiguous
	// photos.
	if out.Len() < d.Celeb.Len()-3 {
		t.Errorf("OR tautology kept %d/%d", out.Len(), d.Celeb.Len())
	}
	// Two parallel branches → two operator entries.
	branches := 0
	for _, op := range stats.Operators {
		if strings.Contains(op.Label, "CrowdFilterOr") {
			branches++
		}
	}
	if branches != 2 {
		t.Errorf("OR branches recorded = %d, want 2", branches)
	}
}

// TestExecFilterEmptyInputAndInvalidTask: a crowd filter over an empty
// table returns no rows and posts no HITs, and a filter task that fails
// validation never reaches the executor, because the library refuses to
// register it.
func TestExecFilterEmptyInputAndInvalidTask(t *testing.T) {
	d, e := celebEngine(t, 5, 7, core.Options{})
	e.Catalog.Register(relation.New("celeb", d.Celeb.Schema()))
	out, stats, err := runQuery(e, `SELECT c.name FROM celeb c WHERE NOT isFemale(c.img)`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 || stats.TotalHITs() != 0 {
		t.Errorf("empty input: %d rows, %d HITs; want 0, 0", out.Len(), stats.TotalHITs())
	}
	if err := e.Library.Register(&task.Filter{Prompt: task.MustPrompt("x")}); err == nil {
		t.Error("unnamed filter task registered")
	}
}

func TestExecErrors(t *testing.T) {
	_, e := celebEngine(t, 5, 21, core.Options{})
	if _, _, err := runQuery(e, `SELECT x FROM missing`); err == nil {
		t.Error("missing table accepted")
	}
	if _, _, err := runQuery(e, `SELECT nope FROM celeb c`); err == nil {
		t.Error("missing column accepted")
	}
	if _, _, err := runQuery(e, `garbage`); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, _, err := runQuery(e, `SELECT c.name FROM celeb c WHERE notATask(c.img)`); err == nil {
		t.Error("unknown task accepted")
	}
}

func TestEvalExpr(t *testing.T) {
	s := relation.MustSchema(
		relation.Column{Name: "a", Kind: relation.KindInt},
		relation.Column{Name: "b", Kind: relation.KindText},
	)
	tup := relation.MustTuple(s, relation.Int(5), relation.Text("xyz"))
	for src, want := range map[string]bool{
		`a = 5`:               true,
		`a <> 5`:              false,
		`a > 4`:               true,
		`a >= 6`:              false,
		`a < 10`:              true,
		`b = "xyz"`:           true,
		`b = "zzz"`:           false,
		`a = 5 AND b = "xyz"`: true,
		`a = 9 OR b = "xyz"`:  true,
		`NOT a = 9`:           true,
	} {
		stmt, err := query.ParseQuery("SELECT a FROM t WHERE " + src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		v, err := evalExpr(tup, stmt.Where)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if v.Bool() != want {
			t.Errorf("%s = %v, want %v", src, v.Bool(), want)
		}
	}
}

func TestComparePossibly(t *testing.T) {
	cases := []struct {
		v, op, lit string
		want       bool
	}{
		{"1", "=", "1", true},
		{"2", "=", "1", false},
		{"3+", ">", "1", true},
		{"0", ">", "1", false},
		{"2", "<=", "2", true},
		{"UNKNOWN", "=", "1", true}, // UNKNOWN never prunes (§2.4)
		{"", "=", "1", true},
		{"cat", "=", "cat", true},
		{"cat", "<>", "dog", true},
	}
	for _, c := range cases {
		got, err := comparePossibly(c.v, c.op, c.lit)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if got != c.want {
			t.Errorf("comparePossibly(%q %s %q) = %v, want %v", c.v, c.op, c.lit, got, c.want)
		}
	}
	if _, err := comparePossibly("cat", "<", "dog"); err == nil {
		t.Error("text inequality accepted")
	}
}

// TestRunRejectsUnannotatedCrowdNode: the executor runs only the
// interfaces a plan carries, so a hand-built crowd node without an
// annotation fails the run with an error naming it, before any HIT.
func TestRunRejectsUnannotatedCrowdNode(t *testing.T) {
	_, e := celebEngine(t, 4, 1, core.Options{})
	root := &plan.CrowdFilter{Input: &plan.Scan{Table: "celeb"}, Task: dataset.IsFemaleTask()}
	_, stats, err := Run(context.Background(), e, root, nil)
	if err == nil || !strings.Contains(err.Error(), "CrowdFilter(isFemale)") {
		t.Fatalf("Run = %v, want an error naming CrowdFilter(isFemale)", err)
	}
	if stats.TotalHITs() != 0 {
		t.Errorf("posted %d HITs, want 0", stats.TotalHITs())
	}
}
