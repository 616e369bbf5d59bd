package exec

// Regression tests for the operator-level refused-HIT retry policy.
// Before it existed, questions on refused HITs (batch too effortful
// for the price) resolved with zero votes and their tuples were
// silently rejected — a whole query could return empty because the
// batch size was one notch too big.

import (
	"strings"
	"testing"

	"qurk/internal/core"
	"qurk/internal/crowd"
	"qurk/internal/dataset"
	"qurk/internal/join"
)

// refusingMarket returns a simulator that refuses HITs above the given
// effort (default filter batches of 5 exceed 3; single questions pass).
func refusingMarket(seed int64, oracle crowd.Oracle, refusalEffort float64) *crowd.SimMarket {
	cfg := crowd.DefaultConfig(seed)
	cfg.RefusalEffort = refusalEffort
	return crowd.NewSimMarket(cfg, oracle)
}

// TestRefusedFilterRetriesAtSmallerBatch: the silent-drop case. A
// batch-5 filter HIT exceeds the refusal threshold; the retry policy
// re-posts its questions at half batch until workers accept, so the
// query still answers.
func TestRefusedFilterRetriesAtSmallerBatch(t *testing.T) {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 20, Seed: 5})
	e := core.NewEngine(refusingMarket(5, d.Oracle(), 3), core.Options{})
	e.Catalog.Register(d.Celeb)
	e.Library.MustRegister(dataset.IsFemaleTask())

	out, stats, err := runQuery(e, `SELECT c.name FROM celeb c WHERE isFemale(c.img)`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("every tuple silently rejected: retry policy did not re-post refused HITs")
	}
	if len(stats.Incomplete) != 0 {
		t.Errorf("retried questions should not be reported incomplete: %v", stats.Incomplete)
	}
	// The original 4 batch-5 HITs were all refused; the retries add
	// their re-posted, smaller HITs on top.
	if stats.TotalHITs() <= 4 {
		t.Errorf("TotalHITs = %d, want > 4 (refused originals plus retries)", stats.TotalHITs())
	}
}

// TestRefusedRetriesDisabled: RefusedRetries = -1 restores the old
// silent-drop behavior (documented opt-out).
func TestRefusedRetriesDisabled(t *testing.T) {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 20, Seed: 5})
	e := core.NewEngine(refusingMarket(5, d.Oracle(), 3), core.Options{RefusedRetries: -1})
	e.Catalog.Register(d.Celeb)
	e.Library.MustRegister(dataset.IsFemaleTask())

	out, stats, err := runQuery(e, `SELECT c.name FROM celeb c WHERE isFemale(c.img)`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("with retries disabled every batch-5 HIT is refused; got %d rows", out.Len())
	}
	if len(stats.Incomplete) == 0 {
		t.Error("refused HITs must still be reported incomplete")
	}
}

// TestRefusedRetriesExhaust: when even single-question HITs are
// refused, the retry budget bounds the spend, the query terminates,
// and the loss is surfaced via Stats.Incomplete instead of silently.
func TestRefusedRetriesExhaust(t *testing.T) {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 10, Seed: 6})
	e := core.NewEngine(refusingMarket(6, d.Oracle(), 0.5), core.Options{})
	e.Catalog.Register(d.Celeb)
	e.Library.MustRegister(dataset.IsFemaleTask())

	out, stats, err := runQuery(e, `SELECT c.name FROM celeb c WHERE isFemale(c.img)`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("nothing can complete, got %d rows", out.Len())
	}
	if len(stats.Incomplete) == 0 {
		t.Error("exhausted questions must appear in Stats.Incomplete")
	}
	for _, id := range stats.Incomplete {
		if !strings.Contains(id, "filter/isFemale") {
			t.Errorf("incomplete entry %q does not name the filter's questions", id)
		}
	}
}

// TestRetryChunkSizeInvariance: retried HITs mint their IDs from the
// refused HIT's lineage, never the shared builder, so the executor's
// bit-identical invariance across StreamChunkHITs/lookahead survives
// refusals (the simulator's answers are keyed on hash(seed, groupID,
// hitID); builder-sequenced IDs would vary with collection order).
func TestRetryChunkSizeInvariance(t *testing.T) {
	run := func(chunk, lookahead int) (string, int, float64) {
		d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 40, Seed: 8})
		e := core.NewEngine(refusingMarket(8, d.Oracle(), 3),
			core.Options{StreamChunkHITs: chunk, StreamLookahead: lookahead})
		e.Catalog.Register(d.Celeb)
		e.Library.MustRegister(dataset.IsFemaleTask())
		out, stats, err := runQuery(e, `SELECT c.name FROM celeb c WHERE isFemale(c.img)`)
		if err != nil {
			t.Fatal(err)
		}
		var names strings.Builder
		for i := 0; i < out.Len(); i++ {
			names.WriteString(out.Row(i).MustGet("name").String())
			names.WriteByte('\n')
		}
		return names.String(), stats.TotalHITs(), stats.PipelineMakespanHours
	}
	baseRows, baseHITs, _ := run(8, 2)
	if baseRows == "" {
		t.Fatal("refusing run returned nothing; retry policy inactive")
	}
	for _, cfg := range [][2]int{{1, 2}, {3, 1}, {16, 4}} {
		rows, hits, _ := run(cfg[0], cfg[1])
		if rows != baseRows {
			t.Errorf("chunk=%d lookahead=%d: result rows differ from chunk=8 baseline", cfg[0], cfg[1])
		}
		if hits != baseHITs {
			t.Errorf("chunk=%d lookahead=%d: %d HITs vs baseline %d", cfg[0], cfg[1], hits, baseHITs)
		}
	}
}

// TestRetryMakespanAfterRefusal: retried chunks cannot be posted
// before the refusal was observed, so a retrying run's pipeline
// makespan strictly exceeds a non-refusing run of the same shape.
func TestRetryMakespanAfterRefusal(t *testing.T) {
	build := func(refusalEffort float64) (*core.Engine, string) {
		d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 40, Seed: 8})
		e := core.NewEngine(refusingMarket(8, d.Oracle(), refusalEffort), core.Options{})
		e.Catalog.Register(d.Celeb)
		e.Library.MustRegister(dataset.IsFemaleTask())
		return e, `SELECT c.name FROM celeb c WHERE isFemale(c.img)`
	}
	e, q := build(3) // batch-5 HITs refused, retries fire
	_, retried, err := runQuery(e, q)
	if err != nil {
		t.Fatal(err)
	}
	e2, q2 := build(30) // nothing refused
	_, clean, err := runQuery(e2, q2)
	if err != nil {
		t.Fatal(err)
	}
	if retried.PipelineMakespanHours <= clean.PipelineMakespanHours {
		t.Errorf("retry round trips must extend the makespan: retried %.4fh vs clean %.4fh",
			retried.PipelineMakespanHours, clean.PipelineMakespanHours)
	}
}

// TestRefusedJoinRetries: the join's pair batches shrink on refusal
// too, so a NaiveBatch size one notch too big no longer empties the
// join result.
func TestRefusedJoinRetries(t *testing.T) {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 6, Seed: 7})
	e := core.NewEngine(refusingMarket(7, d.Oracle(), 3), core.Options{JoinAlgorithm: join.Naive, JoinBatch: 5})
	e.Catalog.Register(d.Celeb)
	e.Catalog.Register(d.Photos)
	e.Library.MustRegister(dataset.SamePersonTask())

	out, stats, err := runQuery(e, `SELECT c.name FROM celeb c JOIN photos p ON samePerson(c.img, p.img)`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("join emptied by refused batches: retry policy not applied on the join path")
	}
	if len(stats.Incomplete) != 0 {
		t.Errorf("unexpected incompletes: %v", stats.Incomplete)
	}
}
