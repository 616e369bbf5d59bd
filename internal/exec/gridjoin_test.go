package exec

// Tests for the materializing crowd-join branch — SmartBatch grid
// layout and §3.2 automatic feature selection. Both drain their inputs
// and then extract, sample, and lay out pairs through the same chunked
// poster as every other crowd phase, so they must (a) reproduce the
// pinned rows, posted HITs, and dollars exactly, (b) stop at once when
// the query is cancelled, and (c) account every phase on the crowd
// clock.

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
