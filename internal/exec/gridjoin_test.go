package exec

// Tests for SmartBatch grid layout and §3.2 automatic feature
// selection on the one streaming join pipeline: the build side drains
// into the spill table, the probe side streams, grids are laid out at
// end of stream from the buffered survivors, and selection is a gate
// before pair generation. These joins must (a) reproduce the pinned rows, posted
// HITs, and dollars exactly, at any spill cap, (b) stop at once when
// the query is cancelled, and (c) account every phase on the crowd
// clock. The featureless Smart and NaiveBatch joins, the zero-feature
// case of the same pipeline, are pinned too.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"qurk/internal/core"
	"qurk/internal/crowd"
	"qurk/internal/dataset"
	"qurk/internal/hit"
	"qurk/internal/join"
	"qurk/internal/plan"
	"qurk/internal/relation"
)

const gridJoinQuery = `
SELECT c.name, p.img FROM celeb c JOIN photos p
ON samePerson(c.img, p.img)
AND POSSIBLY gender(c.img) = gender(p.img)`

const autoSelectQuery = `
SELECT c.name FROM celeb c JOIN photos p
ON samePerson(c.img, p.img)
AND POSSIBLY gender(c.img) = gender(p.img)
AND POSSIBLY hairColor(c.img) = hairColor(p.img)
AND POSSIBLY skinColor(c.img) = skinColor(p.img)`

// gridJoinEngine is the SmartBatch 3×3 + POSSIBLY gender plan over 12
// celebrities with combined extraction.
func gridJoinEngine(m crowd.Marketplace, d *dataset.Celebrities) *core.Engine {
	e := core.NewEngine(m, core.Options{
		JoinAlgorithm:   join.Smart,
		GridRows:        3,
		GridCols:        3,
		ExtractCombined: true,
	})
	e.Catalog.Register(d.Celeb)
	e.Catalog.Register(d.Photos)
	e.Library.MustRegister(dataset.SamePersonTask())
	e.Library.MustRegister(dataset.GenderTask())
	return e
}

// autoSelectEngine is TestAutoSelectFeaturesDropsHair's plan: NaiveBatch
// with all three POSSIBLY features and automatic feature selection.
func autoSelectEngine(m crowd.Marketplace, d *dataset.Celebrities) *core.Engine {
	e := core.NewEngine(m, core.Options{
		JoinAlgorithm:      join.Naive,
		JoinBatch:          5,
		ExtractCombined:    true,
		AutoSelectFeatures: true,
		FeatureSelection:   join.SelectionConfig{SampleFrac: 0.2, Seed: 31},
	})
	e.Catalog.Register(d.Celeb)
	e.Catalog.Register(d.Photos)
	e.Library.MustRegister(dataset.SamePersonTask())
	e.Library.MustRegister(dataset.GenderTask())
	e.Library.MustRegister(dataset.HairColorTask())
	e.Library.MustRegister(dataset.SkinColorTask())
	return e
}

// materializingCase is one grid or auto-select plan under test.
type materializingCase struct {
	name  string
	n     int
	seed  int64
	query string
	build func(crowd.Marketplace, *dataset.Celebrities) *core.Engine
}

var materializingCases = []materializingCase{
	{"smart+possibly", 12, 3, gridJoinQuery, gridJoinEngine},
	{"autoselect", 24, 31, autoSelectQuery, autoSelectEngine},
}

// digestLines hashes a sorted copy of lines (FNV-64a, newline-joined).
func digestLines(lines []string) uint64 {
	s := append([]string(nil), lines...)
	sort.Strings(s)
	h := fnv.New64a()
	for _, l := range s {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// TestMaterializingJoinsPinned: the grid and auto-select plans produce
// exactly these rows, posted HIT IDs, and ledger dollars, whatever the
// posting strategy — chunking re-times crowd work (makespans may move)
// but never re-draws it.
func TestMaterializingJoinsPinned(t *testing.T) {
	want := map[string]struct {
		rows, hits     int
		rowSum, hitSum uint64
		dollars        float64
	}{
		"smart+possibly": {9, 22, 0x2ebb77a2d6d88506, 0x2476456e957114ac, 1.65},
		"autoselect":     {20, 73, 0xbaa75418bbf49590, 0xfd097cb49840f860, 5.475},
	}
	for _, tc := range materializingCases {
		t.Run(tc.name, func(t *testing.T) {
			d := dataset.NewCelebrities(dataset.CelebrityConfig{N: tc.n, Seed: tc.seed})
			cfg := crowd.DefaultConfig(tc.seed)
			cfg.TrackPosts = true
			m := crowd.NewSimMarket(cfg, d.Oracle())
			e := tc.build(m, d)
			out, _, err := runQuery(e, tc.query)
			if err != nil {
				t.Fatal(err)
			}
			var rows []string
			for i := 0; i < out.Len(); i++ {
				rows = append(rows, fmt.Sprint(out.Row(i)))
			}
			hits := m.PostedHITs()
			w := want[tc.name]
			got := fmt.Sprintf("rows=%d %#x hits=%d %#x $%.4f", len(rows), digestLines(rows),
				len(hits), digestLines(hits), e.Ledger.TotalDollars())
			exp := fmt.Sprintf("rows=%d %#x hits=%d %#x $%.4f", w.rows, w.rowSum, w.hits, w.hitSum, w.dollars)
			if got != exp {
				t.Errorf("got  %s\nwant %s", got, exp)
			}
		})
	}
}

// blockingMarket holds every posting call until release is closed —
// a marketplace whose crowd never answers while the test watches.
type blockingMarket struct {
	inner   crowd.Marketplace
	release chan struct{}
}

func (b *blockingMarket) Run(g *hit.Group) (*crowd.RunResult, error) {
	<-b.release
	return b.inner.Run(g)
}

func (b *blockingMarket) RunAsync(g *hit.Group) <-chan crowd.Async {
	return crowd.GoRun(func() (*crowd.RunResult, error) { return b.Run(g) })
}

// TestMaterializingJoinCancel: cancelling a grid or auto-select join
// while its extraction HITs are on the marketplace returns
// context.Canceled promptly instead of waiting for the crowd.
func TestMaterializingJoinCancel(t *testing.T) {
	for _, tc := range materializingCases {
		t.Run(tc.name, func(t *testing.T) {
			d := dataset.NewCelebrities(dataset.CelebrityConfig{N: tc.n, Seed: tc.seed})
			bm := &blockingMarket{
				inner:   crowd.NewSimMarket(crowd.DefaultConfig(tc.seed), d.Oracle()),
				release: make(chan struct{}),
			}
			var once sync.Once
			release := func() { once.Do(func() { close(bm.release) }) }
			defer release()
			e := tc.build(bm, d)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			errc := make(chan error, 1)
			go func() {
				_, _, err := runQueryContext(ctx, e, tc.query)
				errc <- err
			}()
			time.Sleep(50 * time.Millisecond)
			cancel()
			select {
			case err := <-errc:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			case <-time.After(time.Second):
				release()
				<-errc
				t.Fatal("query still blocked 1s after cancellation")
			}
		})
	}
}

// TestMaterializingJoinCrowdClock: every crowd phase of a grid or
// auto-select join lands on the virtual clock — both extraction sides
// take positive makespan, and the pipeline makespan bounds every
// operator's own makespan (the join cannot finish before the
// extraction and sample join it waited for).
func TestMaterializingJoinCrowdClock(t *testing.T) {
	for _, tc := range materializingCases {
		t.Run(tc.name, func(t *testing.T) {
			d := dataset.NewCelebrities(dataset.CelebrityConfig{N: tc.n, Seed: tc.seed})
			e := tc.build(crowd.NewSimMarket(crowd.DefaultConfig(tc.seed), d.Oracle()), d)
			_, stats, err := runQuery(e, tc.query)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, op := range stats.Operators {
				if strings.HasPrefix(op.Label, "extract-") {
					seen[op.Label] = true
					if op.Makespan <= 0 {
						t.Errorf("%s makespan = %g, want > 0", op.Label, op.Makespan)
					}
				}
				if op.Makespan > stats.PipelineMakespanHours {
					t.Errorf("%s makespan %.4fh exceeds pipeline makespan %.4fh",
						op.Label, op.Makespan, stats.PipelineMakespanHours)
				}
			}
			if !seen["extract-left"] || !seen["extract-right"] {
				t.Errorf("extraction slots missing: %v", seen)
			}
		})
	}
}

// TestMaterializingJoinEmptySide: a grid or auto-select join whose build
// side is empty extracts the other side and returns no rows — no
// candidates, no sample join, no error.
func TestMaterializingJoinEmptySide(t *testing.T) {
	for _, tc := range materializingCases {
		t.Run(tc.name, func(t *testing.T) {
			d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 6, Seed: tc.seed})
			e := tc.build(crowd.NewSimMarket(crowd.DefaultConfig(tc.seed), d.Oracle()), d)
			e.Catalog.Register(relation.New("photos", d.Photos.Schema()))
			out, stats, err := runQuery(e, tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if out.Len() != 0 || extractHITsOf(stats, "extract-left") == 0 {
				t.Errorf("rows = %d, left extraction HITs = %d; want 0 rows after extracting the left side",
					out.Len(), extractHITsOf(stats, "extract-left"))
			}
		})
	}
}

// pinnedRun runs src on e over a post-tracking market and renders its
// rows, posted HIT IDs, and ledger dollars as digests.
func pinnedRun(t *testing.T, e *core.Engine, m *crowd.SimMarket, src string) (string, *Stats) {
	t.Helper()
	out, stats, err := runQuery(e, src)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for i := 0; i < out.Len(); i++ {
		rows = append(rows, fmt.Sprint(out.Row(i)))
	}
	hits := m.PostedHITs()
	return fmt.Sprintf("rows=%d %#x hits=%d %#x $%.4f", len(rows), digestLines(rows),
		len(hits), digestLines(hits), e.Ledger.TotalDollars()), stats
}

// TestFeaturelessJoinsPinned: a join without POSSIBLY features runs the
// zero-feature case of the streaming pipeline — SmartBatch grids laid
// out from its buffered pairs, NaiveBatch pairs minted as probe batches
// arrive (also under a crowd filter and LIMIT, whose upstream HITs
// depend on when the join pulls its probe side) — and posts exactly
// these rows, HIT IDs, and dollars at exactly this pipeline makespan.
func TestFeaturelessJoinsPinned(t *testing.T) {
	const src = `SELECT c.name, p.img FROM celeb c JOIN photos p ON samePerson(c.img, p.img)`
	cases := []struct {
		name, query string
		opts        core.Options
		want        string
		makespan    float64
	}{
		{"smart", src, core.Options{JoinAlgorithm: join.Smart, GridRows: 3, GridCols: 3},
			"rows=10 0xce8bcb9516450103 hits=16 0x4f4e23af0ebd81b4 $1.2000", 0.043585},
		{"naive", src, core.Options{JoinAlgorithm: join.Naive, JoinBatch: 5, StreamChunkHITs: 4},
			"rows=12 0xbe47c0149b140a0d hits=29 0x2d17935eafad9e0d $2.1750", 0.031138},
		{"naive+filter+limit", src + ` WHERE isFemale(c.img) LIMIT 3`,
			core.Options{JoinAlgorithm: join.Naive, JoinBatch: 5, StreamChunkHITs: 2},
			"rows=3 0x204a529e7371da38 hits=11 0x40f0b4ff375e761c $0.8250", 0.031301},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 12, Seed: 7})
			cfg := crowd.DefaultConfig(7)
			cfg.TrackPosts = true
			m := crowd.NewSimMarket(cfg, d.Oracle())
			e := core.NewEngine(m, tc.opts)
			e.Catalog.Register(d.Celeb)
			e.Catalog.Register(d.Photos)
			e.Library.MustRegister(dataset.SamePersonTask())
			e.Library.MustRegister(dataset.IsFemaleTask())
			got, stats := pinnedRun(t, e, m, tc.query)
			if got != tc.want {
				t.Errorf("got  %s\nwant %s", got, tc.want)
			}
			if h := stats.PipelineMakespanHours; fmt.Sprintf("%.6f", h) != fmt.Sprintf("%.6f", tc.makespan) {
				t.Errorf("makespan %.6fh, want %.6fh", h, tc.makespan)
			}
		})
	}
}

// TestGridAndAutoSelectJoinsSpill: at BreakerMemTuples 4 the grid and
// auto-select joins drain their build side through the spill table —
// PipelineBreakers reports a spilling join-build breaker — and still
// produce TestMaterializingJoinsPinned's cap-0 rows, HITs, and dollars.
func TestGridAndAutoSelectJoinsSpill(t *testing.T) {
	want := map[string]string{
		"smart+possibly": "rows=9 0x2ebb77a2d6d88506 hits=22 0x2476456e957114ac $1.6500",
		"autoselect":     "rows=20 0xbaa75418bbf49590 hits=73 0xfd097cb49840f860 $5.4750",
	}
	for _, tc := range materializingCases {
		t.Run(tc.name, func(t *testing.T) {
			d := dataset.NewCelebrities(dataset.CelebrityConfig{N: tc.n, Seed: tc.seed})
			cfg := crowd.DefaultConfig(tc.seed)
			cfg.TrackPosts = true
			m := crowd.NewSimMarket(cfg, d.Oracle())
			e := tc.build(m, d)
			e.Options.BreakerMemTuples = 4

			root, err := plan.BuildQuery(tc.query, e.Library)
			if err != nil {
				t.Fatal(err)
			}
			plan.Pin(root, e.Options)
			op, err := Compile(e, root)
			if err != nil {
				t.Fatal(err)
			}
			spills := false
			for _, ob := range PipelineBreakers(op) {
				for _, bi := range ob.Breakers {
					spills = spills || bi.Kind == BreakerJoinBuild && bi.Spills && bi.MemTuples == 4
				}
			}
			op.Close()
			if !spills {
				t.Errorf("no spilling join-build breaker:\n%s", Describe(op))
			}
			if got, _ := pinnedRun(t, e, m, tc.query); got != want[tc.name] {
				t.Errorf("got  %s\nwant %s", got, want[tc.name])
			}
		})
	}
}
