package exec

// Tests for streaming POSSIBLY-feature extraction: the probe side's
// extraction HITs are minted per arriving batch and posted through the
// chunked poster, so (a) results are bit-identical at any chunk/
// lookahead/batch setting, (b) a LIMIT that closes the pipeline leaves
// the tail's extraction HITs unposted, and (c) refused and expired
// extraction HITs are re-posted within their retry budgets instead of
// silently resolving to UNKNOWN.

import (
	"fmt"
	"strings"
	"testing"

	"qurk/internal/core"
	"qurk/internal/crowd"
	"qurk/internal/dataset"
	"qurk/internal/join"
	"qurk/internal/plan"
	"qurk/internal/query"
)

const featureJoinQuery = `
SELECT c.name FROM celeb c JOIN photos p
ON samePerson(c.img, p.img)
AND POSSIBLY gender(c.img) = gender(p.img)`

// extractHITsOf sums HITs across the extraction Stats slots.
func extractHITsOf(stats *Stats, label string) int {
	n := 0
	for _, op := range stats.Operators {
		if op.Label == label {
			n += op.HITs
		}
	}
	return n
}

// TestExtractionChunkInvariance: a filtered join's result rows and HIT
// counts are bit-identical at any ExecBatch / StreamChunkHITs /
// StreamLookahead setting, for both per-question and stateful
// combiners — extraction chunk boundaries must never leak into
// answers.
func TestExtractionChunkInvariance(t *testing.T) {
	run := func(execBatch, chunk, lookahead int, combiner string) string {
		d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 22, Seed: 31})
		m := crowd.NewSimMarket(crowd.DefaultConfig(31), d.Oracle())
		e := core.NewEngine(m, core.Options{
			JoinAlgorithm: join.Naive, JoinBatch: 5,
			ExecBatch: execBatch, StreamChunkHITs: chunk, StreamLookahead: lookahead,
			Combiner: combiner,
		})
		e.Catalog.Register(d.Celeb)
		e.Catalog.Register(d.Photos)
		e.Library.MustRegister(dataset.SamePersonTask())
		e.Library.MustRegister(dataset.GenderTask())
		rows, stats := runRows(t, e, featureJoinQuery)
		return fmt.Sprintf("%s|hits=%d|xl=%d|xr=%d", rows, stats.TotalHITs(),
			extractHITsOf(stats, "extract-left"), extractHITsOf(stats, "extract-right"))
	}
	for _, combiner := range []string{"MajorityVote", "QualityAdjust"} {
		base := run(32, 8, 2, combiner)
		if !strings.Contains(base, "Celebrity") {
			t.Fatalf("%s: no rows:\n%s", combiner, base)
		}
		if strings.Contains(base, "xl=0") {
			t.Fatalf("%s: no probe-side extraction HITs recorded:\n%s", combiner, base)
		}
		for _, cfg := range [][3]int{{1, 8, 2}, {7, 3, 1}, {64, 1, 2}, {32, 1000, 4}} {
			if got := run(cfg[0], cfg[1], cfg[2], combiner); got != base {
				t.Errorf("%s: ExecBatch=%d chunk=%d lookahead=%d diverged:\n--- base\n%s--- got\n%s",
					combiner, cfg[0], cfg[1], cfg[2], base, got)
			}
		}
	}
}

// TestStreamedExtractionLimitSavings is the acceptance criterion: a
// POSSIBLY-feature join with LIMIT posts strictly fewer probe-side
// extraction HITs than the materializing path (one monolithic chunk),
// and its pipelined makespan beats that baseline.
func TestStreamedExtractionLimitSavings(t *testing.T) {
	run := func(chunk int) (*Stats, int) {
		d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 120, Seed: 41})
		m := crowd.NewSimMarket(crowd.DefaultConfig(41), d.Oracle())
		e := core.NewEngine(m, core.Options{
			JoinAlgorithm: join.Naive, JoinBatch: 5, StreamChunkHITs: chunk,
		})
		e.Catalog.Register(d.Celeb)
		e.Catalog.Register(d.Photos)
		e.Library.MustRegister(dataset.IsFemaleTask())
		e.Library.MustRegister(dataset.SamePersonTask())
		e.Library.MustRegister(dataset.GenderTask())
		out, stats, err := runQuery(e, `
SELECT c.name FROM celeb c JOIN photos p
ON samePerson(c.img, p.img)
AND POSSIBLY gender(c.img) = gender(p.img)
WHERE isFemale(c.img)
LIMIT 3`)
		if err != nil {
			t.Fatal(err)
		}
		return stats, out.Len()
	}
	streamed, rows := run(2)
	if rows != 3 {
		t.Fatalf("limit rows = %d, want 3", rows)
	}
	mono, _ := run(1 << 20)
	sx, mx := extractHITsOf(streamed, "extract-left"), extractHITsOf(mono, "extract-left")
	if sx == 0 || mx == 0 {
		t.Fatalf("extraction HITs not recorded: streamed %d, materializing %d", sx, mx)
	}
	if sx >= mx {
		t.Errorf("streamed extraction posted %d HITs, want strictly fewer than materializing %d", sx, mx)
	}
	if streamed.TotalHITs() >= mono.TotalHITs() {
		t.Errorf("streamed total %d HITs, want fewer than materializing %d", streamed.TotalHITs(), mono.TotalHITs())
	}
	if streamed.PipelineMakespanHours >= mono.PipelineMakespanHours {
		t.Errorf("no pipelining win: streamed %.4fh >= materializing %.4fh",
			streamed.PipelineMakespanHours, mono.PipelineMakespanHours)
	}
}

// TestExtractionRefusalRetries: refused extraction HITs (batch too
// effortful) re-post at half batch through the poster — previously the
// blocking extraction pass silently resolved them to UNKNOWN.
func TestExtractionRefusalRetries(t *testing.T) {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 12, Seed: 9})
	e := core.NewEngine(refusingMarket(9, d.Oracle(), 3),
		core.Options{JoinAlgorithm: join.Naive, JoinBatch: 5})
	e.Catalog.Register(d.Celeb)
	e.Catalog.Register(d.Photos)
	e.Library.MustRegister(dataset.SamePersonTask())
	e.Library.MustRegister(dataset.GenderTask())

	out, stats, err := runQuery(e, featureJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("join emptied under refusals: extraction retry policy inactive")
	}
	if len(stats.Incomplete) != 0 {
		t.Errorf("retried questions should not be incomplete: %v", stats.Incomplete)
	}
	// 12 tuples at extract batch 4 = 3 original HITs per side; refusal
	// re-posts add more.
	if got := extractHITsOf(stats, "extract-left"); got <= 3 {
		t.Errorf("extract-left HITs = %d, want > 3 (originals plus retries)", got)
	}
	if got := extractHITsOf(stats, "extract-right"); got <= 3 {
		t.Errorf("extract-right HITs = %d, want > 3 (originals plus retries)", got)
	}
}

// TestExtractionExpiryRetries: expired extraction assignments re-post
// with lineage IDs and surface in Stats.TotalExpired.
func TestExtractionExpiryRetries(t *testing.T) {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 12, Seed: 9})
	e := core.NewEngine(abandoningMarket(9, d.Oracle(), 0.3),
		core.Options{JoinAlgorithm: join.Naive, JoinBatch: 5})
	e.Catalog.Register(d.Celeb)
	e.Catalog.Register(d.Photos)
	e.Library.MustRegister(dataset.SamePersonTask())
	e.Library.MustRegister(dataset.GenderTask())

	out, stats, err := runQuery(e, featureJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("join emptied under expirations")
	}
	if stats.TotalExpired() == 0 {
		t.Error("AbandonProb = 0.3 produced no expired count")
	}
	if len(stats.Incomplete) != 0 {
		t.Errorf("partial votes plus retries should leave nothing incomplete: %v", stats.Incomplete)
	}
}

// TestJoinBreakerNotes: the filtered join's breaker drops to "build
// side only" on the streaming path; a grid join streams its probe side
// too and buffers only its surviving pairs for the end-of-stream
// layout; the machine-readable Breakers carry the memory bound.
func TestJoinBreakerNotes(t *testing.T) {
	compile := func(opts core.Options, src string) Operator {
		d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 8, Seed: 3})
		m := crowd.NewSimMarket(crowd.DefaultConfig(3), d.Oracle())
		e := core.NewEngine(m, opts)
		e.Catalog.Register(d.Celeb)
		e.Catalog.Register(d.Photos)
		e.Library.MustRegister(dataset.SamePersonTask())
		e.Library.MustRegister(dataset.GenderTask())
		stmt, err := query.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		node, err := plan.Build(stmt, e.Library)
		if err != nil {
			t.Fatal(err)
		}
		plan.Pin(node, e.Options)
		op, err := Compile(e, node)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(op.Close)
		return op
	}
	streaming := Describe(compile(core.Options{JoinAlgorithm: join.Naive}, featureJoinQuery))
	if !strings.Contains(streaming, "build side only") {
		t.Errorf("streaming filtered join should materialize the build side only:\n%s", streaming)
	}
	grid := Describe(compile(core.Options{JoinAlgorithm: join.Smart}, featureJoinQuery))
	if !strings.Contains(grid, "build side only") || !strings.Contains(grid, "grid layout at end of stream") {
		t.Errorf("grid join should stream its probe side and buffer only surviving pairs:\n%s", grid)
	}
	spilling := compile(core.Options{JoinAlgorithm: join.Naive, BreakerMemTuples: 16}, featureJoinQuery)
	bks := PipelineBreakers(spilling)
	found := false
	for _, ob := range bks {
		for _, bi := range ob.Breakers {
			if bi.Kind == BreakerJoinBuild && bi.Spills && bi.MemTuples == 16 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("PipelineBreakers missing spilling join-build entry: %+v", bks)
	}
	if spilled := Describe(spilling); !strings.Contains(spilled, "spills at 16 tuples") {
		t.Errorf("Describe should render the spill bound:\n%s", spilled)
	}
}
