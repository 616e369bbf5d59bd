package hit

import (
	"fmt"
	"strings"
	"testing"

	"qurk/internal/relation"
	"qurk/internal/task"
)

var imgSchema = relation.MustSchema(
	relation.Column{Name: "name", Kind: relation.KindText},
	relation.Column{Name: "img", Kind: relation.KindURL},
)

func imgTuple(name string) relation.Tuple {
	return relation.MustTuple(imgSchema, relation.Text(name), relation.URL("http://x/"+name+".jpg"))
}

func filterQuestions(n int) []Question {
	qs := make([]Question, n)
	for i := range qs {
		qs[i] = Question{
			ID:    fmt.Sprintf("q%d", i),
			Kind:  FilterQ,
			Task:  "isFemale",
			Tuple: imgTuple(fmt.Sprintf("celeb%d", i)),
		}
	}
	return qs
}

func TestMergeBatching(t *testing.T) {
	b := NewBuilder("g1", 5, 1.0)
	hits, err := b.Merge(filterQuestions(10), 3)
	if err != nil {
		t.Fatal(err)
	}
	// ceil(10/3) = 4 HITs: 3+3+3+1.
	if len(hits) != 4 {
		t.Fatalf("got %d HITs, want 4", len(hits))
	}
	sizes := []int{3, 3, 3, 1}
	for i, h := range hits {
		if len(h.Questions) != sizes[i] {
			t.Errorf("hit %d has %d questions, want %d", i, len(h.Questions), sizes[i])
		}
		if h.GroupID != "g1" || h.Assignments != 5 || h.Kind != FilterQ {
			t.Errorf("hit %d metadata wrong: %+v", i, h)
		}
	}
	// IDs unique.
	seen := map[string]bool{}
	for _, h := range hits {
		if seen[h.ID] {
			t.Errorf("duplicate hit ID %s", h.ID)
		}
		seen[h.ID] = true
	}
}

func TestMergeUnbatched(t *testing.T) {
	b := NewBuilder("g", 5, 1.0)
	hits, err := b.Merge(filterQuestions(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 4 {
		t.Fatalf("unbatched: got %d HITs, want 4", len(hits))
	}
	hits, err = b.Merge(nil, 5)
	if err != nil || hits != nil {
		t.Errorf("empty merge: %v, %v", hits, err)
	}
}

func TestMergeMixedKindsRejected(t *testing.T) {
	b := NewBuilder("g", 5, 1.0)
	qs := filterQuestions(2)
	qs[1].Kind = RateQ
	qs[1].Scale = 7
	if _, err := b.Merge(qs, 5); err == nil {
		t.Error("mixed-kind merge accepted")
	}
}

func TestCombine(t *testing.T) {
	b := NewBuilder("g", 5, 1.0)
	tup := imgTuple("brad")
	perTuple := [][]Question{{
		{Kind: GenerativeQ, Task: "gender", Tuple: tup, Fields: []string{"gender"}},
		{Kind: GenerativeQ, Task: "hairColor", Tuple: tup, Fields: []string{"hair"}},
		{Kind: GenerativeQ, Task: "skinColor", Tuple: tup, Fields: []string{"skin"}},
	}}
	hits, err := b.Combine(perTuple, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || len(hits[0].Questions) != 1 {
		t.Fatalf("combine shape: %d hits", len(hits))
	}
	q := hits[0].Questions[0]
	if q.Task != "gender+hairColor+skinColor" {
		t.Errorf("combined task = %q", q.Task)
	}
	if len(q.Fields) != 3 {
		t.Errorf("combined fields = %v", q.Fields)
	}
}

func TestCombineErrors(t *testing.T) {
	b := NewBuilder("g", 5, 1.0)
	tup1, tup2 := imgTuple("a"), imgTuple("b")
	// Different tuples cannot combine.
	if _, err := b.Combine([][]Question{{
		{Kind: GenerativeQ, Task: "x", Tuple: tup1, Fields: []string{"f1"}},
		{Kind: GenerativeQ, Task: "y", Tuple: tup2, Fields: []string{"f2"}},
	}}, 1); err == nil {
		t.Error("cross-tuple combine accepted")
	}
	// Shared field names cannot combine.
	if _, err := b.Combine([][]Question{{
		{Kind: GenerativeQ, Task: "x", Tuple: tup1, Fields: []string{"f"}},
		{Kind: GenerativeQ, Task: "y", Tuple: tup1, Fields: []string{"f"}},
	}}, 1); err == nil {
		t.Error("field collision accepted")
	}
	// Non-generative kinds cannot combine.
	if _, err := b.Combine([][]Question{{
		{Kind: FilterQ, Task: "x", Tuple: tup1},
	}}, 1); err == nil {
		t.Error("filter combine accepted")
	}
	if _, err := b.Combine([][]Question{{}}, 1); err == nil {
		t.Error("empty combine accepted")
	}
}

func TestGridHITs(t *testing.T) {
	b := NewBuilder("g", 5, 1.0)
	mk := func(n int, task string) []Question {
		qs := make([]Question, n)
		for i := range qs {
			qs[i] = Question{Kind: JoinPairQ, Task: task, Tuple: imgTuple(fmt.Sprintf("%s%d", task, i))}
		}
		return qs
	}
	// 7 left, 5 right, 3x3 grid → ceil(7/3)*ceil(5/3) = 3*2 = 6 HITs.
	hits, err := b.GridHITs(mk(7, "l"), mk(5, "r"), 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 6 {
		t.Fatalf("grid: %d HITs, want 6", len(hits))
	}
	// Every (left,right) pair appears in exactly one grid HIT.
	pairs := map[string]int{}
	for _, h := range hits {
		q := h.Questions[0]
		for _, lt := range q.LeftItems {
			for _, rt := range q.RightItems {
				pairs[lt.MustGet("name").Text()+"|"+rt.MustGet("name").Text()]++
			}
		}
	}
	if len(pairs) != 35 {
		t.Fatalf("grid covers %d pairs, want 35", len(pairs))
	}
	for p, n := range pairs {
		if n != 1 {
			t.Errorf("pair %s appears %d times", p, n)
		}
	}
	if _, err := b.GridHITs(mk(2, "l"), mk(2, "r"), 0, 3); err == nil {
		t.Error("0-dimension grid accepted")
	}
	if hits, err := b.GridHITs(nil, mk(2, "r"), 2, 2); err != nil || hits != nil {
		t.Error("empty side should yield no HITs")
	}
}

func TestHITValidate(t *testing.T) {
	h := &HIT{ID: "h", Assignments: 5, Questions: []Question{{ID: "q", Kind: FilterQ}}}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*HIT{
		{Assignments: 5, Questions: []Question{{ID: "q"}}},          // no ID
		{ID: "h", Assignments: 5},                                   // no questions
		{ID: "h", Assignments: 0, Questions: []Question{{ID: "q"}}}, // no assignments
		{ID: "h", Assignments: 5, Questions: []Question{{}}},        // question no ID
		{ID: "h", Assignments: 5, Questions: []Question{{ID: "q", Kind: CompareQ, Items: []relation.Tuple{imgTuple("a")}}}}, // 1-item compare
		{ID: "h", Assignments: 5, Questions: []Question{{ID: "q", Kind: RateQ, Scale: 1}}},                                  // bad scale
		{ID: "h", Assignments: 5, Questions: []Question{{ID: "q", Kind: JoinGridQ}}},                                        // empty grid
	}
	for i, h := range bad {
		if err := h.Validate(); err == nil {
			t.Errorf("bad HIT %d accepted", i)
		}
	}
}

func TestUnitsAndUnitCount(t *testing.T) {
	grid := Question{Kind: JoinGridQ,
		LeftItems:  []relation.Tuple{imgTuple("a"), imgTuple("b")},
		RightItems: []relation.Tuple{imgTuple("c"), imgTuple("d"), imgTuple("e")}}
	if grid.UnitCount() != 6 {
		t.Errorf("grid units = %d, want 6", grid.UnitCount())
	}
	cmp := Question{Kind: CompareQ, Items: []relation.Tuple{imgTuple("a"), imgTuple("b"), imgTuple("c")}}
	if cmp.UnitCount() != 3 {
		t.Errorf("compare units = %d, want 3", cmp.UnitCount())
	}
	h := &HIT{Questions: []Question{grid, cmp, {Kind: FilterQ}}}
	if h.Units() != 10 {
		t.Errorf("hit units = %d, want 10", h.Units())
	}
}

func TestCacheKeyStability(t *testing.T) {
	q1 := Question{Kind: JoinPairQ, Task: "samePerson", Left: imgTuple("a"), Right: imgTuple("b")}
	q2 := Question{Kind: JoinPairQ, Task: "samePerson", Left: imgTuple("a"), Right: imgTuple("b")}
	q3 := Question{Kind: JoinPairQ, Task: "samePerson", Left: imgTuple("b"), Right: imgTuple("a")}
	if q1.CacheKey() != q2.CacheKey() {
		t.Error("identical questions must share cache keys")
	}
	if q1.CacheKey() == q3.CacheKey() {
		t.Error("swapped pair should differ")
	}
	// IDs must NOT affect the key (cache survives re-planning).
	q2.ID = "different"
	if q1.CacheKey() != q2.CacheKey() {
		t.Error("question ID leaked into cache key")
	}
}

func TestSortAssignments(t *testing.T) {
	as := []Assignment{
		{HITID: "h2", WorkerID: "w1"},
		{HITID: "h1", WorkerID: "w2"},
		{HITID: "h1", WorkerID: "w1"},
	}
	SortAssignments(as)
	if as[0].HITID != "h1" || as[0].WorkerID != "w1" || as[2].HITID != "h2" {
		t.Errorf("sorted order wrong: %+v", as)
	}
}

func newTestRegistry(t *testing.T) *task.Registry {
	t.Helper()
	reg := task.NewRegistry()
	reg.MustRegister(&task.Filter{
		Name:    "isFemale",
		Prompt:  task.MustPrompt("<img src='%s'> Is the person in the image a woman?", "img"),
		YesText: "Yes", NoText: "No", Combiner: "MajorityVote",
	})
	reg.MustRegister(&task.EquiJoin{
		Name: "samePerson", SingularName: "celebrity", PluralName: "celebrities",
		LeftPreview:  task.MustPrompt("<img src='%s' class=smImg>", "img"),
		LeftNormal:   task.MustPrompt("<img src='%s' class=lgImg>", "img"),
		RightPreview: task.MustPrompt("<img src='%s' class=smImg>", "img"),
		RightNormal:  task.MustPrompt("<img src='%s' class=lgImg>", "img"),
		Combiner:     "MajorityVote",
	})
	reg.MustRegister(&task.Rank{
		Name: "squareSorter", SingularName: "square", PluralName: "squares",
		OrderDimensionName: "area", LeastName: "smallest", MostName: "largest",
		HTML: task.MustPrompt("<img src='%s' class=lgImg>", "img"),
	})
	reg.MustRegister(&task.Generative{
		Name:   "gender",
		Prompt: task.MustPrompt("<img src='%s'> What is this person's gender?", "img"),
		Fields: []task.Field{{Name: "gender", Response: task.Radio("Gender", "Male", "Female", "UNKNOWN"), Combiner: "MajorityVote"}},
	})
	return reg
}

func TestCompileFilterHIT(t *testing.T) {
	c := NewCompiler(newTestRegistry(t))
	b := NewBuilder("g", 5, 1.0)
	hits, err := b.Merge(filterQuestions(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	html, err := c.Compile(hits[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<form", "celeb0.jpg", "celeb1.jpg", `value="yes"`, "Submit"} {
		if !strings.Contains(html, want) {
			t.Errorf("filter HTML missing %q:\n%s", want, html)
		}
	}
	if n := strings.Count(html, `value="yes"`); n != 2 {
		t.Errorf("expected 2 yes radios, got %d", n)
	}
}

func TestCompileJoinPairAndGrid(t *testing.T) {
	c := NewCompiler(newTestRegistry(t))
	pair := &HIT{ID: "h", Assignments: 5, Kind: JoinPairQ, Questions: []Question{{
		ID: "q1", Kind: JoinPairQ, Task: "samePerson", Left: imgTuple("brad"), Right: imgTuple("angelina"),
	}}}
	html, err := c.Compile(pair)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"same celebrity", "brad.jpg", "angelina.jpg", "lgImg"} {
		if !strings.Contains(html, want) {
			t.Errorf("pair HTML missing %q", want)
		}
	}
	grid := &HIT{ID: "h2", Assignments: 5, Kind: JoinGridQ, Questions: []Question{{
		ID: "q2", Kind: JoinGridQ, Task: "samePerson",
		LeftItems:  []relation.Tuple{imgTuple("a"), imgTuple("b")},
		RightItems: []relation.Tuple{imgTuple("c")},
	}}}
	html, err = c.Compile(grid)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"smImg", "No matches", `data-side="l"`, `data-side="r"`} {
		if !strings.Contains(html, want) {
			t.Errorf("grid HTML missing %q", want)
		}
	}
}

func TestCompileCompareAndRate(t *testing.T) {
	c := NewCompiler(newTestRegistry(t))
	cmp := &HIT{ID: "h", Assignments: 5, Kind: CompareQ, Questions: []Question{{
		ID: "q", Kind: CompareQ, Task: "squareSorter",
		Items: []relation.Tuple{imgTuple("s1"), imgTuple("s2"), imgTuple("s3")},
	}}}
	html, err := c.Compile(cmp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(html, "Order these squares from smallest area to largest area.") {
		t.Errorf("compare HTML missing question: %s", html)
	}
	if n := strings.Count(html, "<select"); n != 3 {
		t.Errorf("compare selects = %d, want 3", n)
	}
	rate := &HIT{ID: "h2", Assignments: 5, Kind: RateQ, Questions: []Question{{
		ID: "q", Kind: RateQ, Task: "squareSorter", Tuple: imgTuple("s1"), Scale: 7,
		Context: []relation.Tuple{imgTuple("c1"), imgTuple("c2")},
	}}}
	html, err = c.Compile(rate)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(html, "scale of 1 (smallest) to 7 (largest)") {
		t.Errorf("rate HTML missing question: %s", html)
	}
	if n := strings.Count(html, `type="radio"`); n != 7 {
		t.Errorf("rate radios = %d, want 7", n)
	}
	if !strings.Contains(html, `class="context"`) {
		t.Error("rate HTML missing context sample")
	}
}

func TestCompileGenerative(t *testing.T) {
	c := NewCompiler(newTestRegistry(t))
	h := &HIT{ID: "h", Assignments: 5, Kind: GenerativeQ, Questions: []Question{{
		ID: "q", Kind: GenerativeQ, Task: "gender", Tuple: imgTuple("brad"), Fields: []string{"gender"},
	}}}
	html, err := c.Compile(h)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gender?", `value="Male"`, `value="Female"`, `value="UNKNOWN"`} {
		if !strings.Contains(html, want) {
			t.Errorf("generative HTML missing %q", want)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	c := NewCompiler(newTestRegistry(t))
	// Unknown task.
	h := &HIT{ID: "h", Assignments: 5, Questions: []Question{{ID: "q", Kind: FilterQ, Task: "nope", Tuple: imgTuple("a")}}}
	if _, err := c.Compile(h); err == nil {
		t.Error("unknown task compiled")
	}
	// Wrong template type for kind.
	h = &HIT{ID: "h", Assignments: 5, Questions: []Question{{ID: "q", Kind: FilterQ, Task: "samePerson", Tuple: imgTuple("a")}}}
	if _, err := c.Compile(h); err == nil {
		t.Error("type-mismatched task compiled")
	}
	// Nil registry.
	if _, err := NewCompiler(nil).Compile(h); err == nil {
		t.Error("nil registry compiled")
	}
}
