package qurk

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// runCelebrityQuery executes the paper's declarative celebrity join
// (features + crowd sort) once at the given GOMAXPROCS and returns a
// full serialization of everything observable: result rows in order,
// plus per-operator spending sorted by label.
func runCelebrityQuery(t *testing.T, procs int) string {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

	d := NewCelebrities(CelebrityConfig{N: 16, Seed: 9})
	market := NewSimMarket(DefaultMarketConfig(9), d.Oracle())
	eng := NewEngine(market, Options{JoinAlgorithm: NaiveJoin, JoinBatch: 5, Seed: 9})
	eng.Catalog.Register(d.Celeb)
	eng.Catalog.Register(d.Photos)
	eng.Library.MustRegister(SamePersonTask())
	eng.Library.MustRegister(GenderTask())
	eng.Library.MustRegister(IsFemaleTask())

	out, stats, err := runQuery(eng, `
SELECT c.name FROM celeb c JOIN photos p
ON samePerson(c.img, p.img)
AND POSSIBLY gender(c.img) = gender(p.img)
ORDER BY c.name`)
	if err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	for i := 0; i < out.Len(); i++ {
		fmt.Fprintf(&sb, "row %s\n", out.Row(i))
	}
	var ops []string
	for _, op := range stats.Operators {
		ops = append(ops, fmt.Sprintf("op %s hits=%d asn=%d makespan=%.9f", op.Label, op.HITs, op.Assignments, op.Makespan))
	}
	// Operators append in completion order, which may vary when crowd
	// operators run on concurrent subtrees; the determinism claim is
	// about the set of per-operator spending, so compare it sorted.
	sort.Strings(ops)
	for _, op := range ops {
		sb.WriteString(op + "\n")
	}
	fmt.Fprintf(&sb, "totalHITs=%d incomplete=%v\n", stats.TotalHITs(), stats.Incomplete)
	return sb.String()
}

// TestQueryDeterminismAcrossGOMAXPROCS asserts the acceptance criterion
// for the parallel simulator: one query + one seed produce an identical
// result relation and identical Stats whether the process runs on a
// single core or many — scheduling order must never leak into results.
func TestQueryDeterminismAcrossGOMAXPROCS(t *testing.T) {
	base := runCelebrityQuery(t, 1)
	if !strings.Contains(base, "row ") {
		t.Fatalf("query produced no rows:\n%s", base)
	}
	for _, procs := range []int{2, 8} {
		if got := runCelebrityQuery(t, procs); got != base {
			t.Errorf("GOMAXPROCS=%d diverged from GOMAXPROCS=1:\n--- procs=1\n%s--- procs=%d\n%s", procs, base, procs, got)
		}
	}
	// And re-running at the same width is stable too.
	if a, b := runCelebrityQuery(t, 8), runCelebrityQuery(t, 8); a != b {
		t.Error("same-width reruns diverged")
	}
}

// TestAdaptiveFilterDeterminism pins the sharded adaptive-vote pipeline:
// shard count is configuration, so results are identical at any core
// count.
func TestAdaptiveFilterDeterminism(t *testing.T) {
	run := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		d := NewCelebrities(CelebrityConfig{N: 30, Seed: 13})
		m := NewSimMarket(DefaultMarketConfig(13), d.Oracle())
		res, err := RunAdaptiveFilter(d.Celeb, IsFemaleTask(), VoteConfig{}, m)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v %v %d %d %d", res.Decisions, res.VotesUsed, res.Rounds, res.HITCount, res.TotalAssignments)
	}
	if a, b := run(1), run(8); a != b {
		t.Errorf("adaptive filter diverged across GOMAXPROCS:\n%s\nvs\n%s", a, b)
	}
}
