package exec

// Tests for the one answer path: every crowd operator serves stored
// questions and feeds freshly collected ones through its poster, so a
// store entry holds exactly the votes its question folded, and engines
// with a store keep the rows, posted HITs, and dollars pinned here.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"qurk/internal/answerstore"
	"qurk/internal/core"
	"qurk/internal/crowd"
	"qurk/internal/dataset"
	"qurk/internal/hit"
	"qurk/internal/join"
	"qurk/internal/relation"
)

// tallyMarket counts, per question ID, the answers its marketplace
// delivered across every posting (retry lineages included) — what an
// operator folds for that question.
type tallyMarket struct {
	crowd.Marketplace
	mu    sync.Mutex
	votes map[string]int
}

func newTallyMarket(m crowd.Marketplace) *tallyMarket {
	return &tallyMarket{Marketplace: m, votes: map[string]int{}}
}

func (m *tallyMarket) RunAsync(g *hit.Group) <-chan crowd.Async {
	in := m.Marketplace.RunAsync(g)
	out := make(chan crowd.Async, 1)
	go func() {
		a := <-in
		if a.Err == nil {
			m.mu.Lock()
			hit.ForEachAnswer(g.HITs, a.Result.Assignments, func(q *hit.Question, _ string, _ hit.Answer) {
				m.votes[q.ID]++
			})
			m.mu.Unlock()
		}
		out <- a
	}()
	return out
}

// recordingStore is a memory answer store that remembers how many votes
// the last Store call for each question ID carried.
type recordingStore struct {
	mem    *answerstore.Store
	mu     sync.Mutex
	stored map[string]int
}

func newRecordingStore(t *testing.T) *recordingStore {
	t.Helper()
	s, err := answerstore.Open("", answerstore.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return &recordingStore{mem: s, stored: map[string]int{}}
}

func (s *recordingStore) Store(q *hit.Question, as []hit.CachedAnswer) {
	s.mu.Lock()
	s.stored[q.ID] = len(as)
	s.mu.Unlock()
	s.mem.Store(q, as)
}

func (s *recordingStore) Lookup(q *hit.Question) ([]hit.CachedAnswer, bool) { return s.mem.Lookup(q) }

// TestAnswerStoreHoldsFoldedVotes: every stored entry holds all the
// votes its question folded — including the partial votes an expired
// HIT contributed before its re-post resolved.
func TestAnswerStoreHoldsFoldedVotes(t *testing.T) {
	cases := []struct {
		name  string
		opts  core.Options
		query string
	}{
		{"naive-join", core.Options{JoinAlgorithm: join.Naive, JoinBatch: 5},
			`SELECT c.name FROM celeb c JOIN photos p ON samePerson(c.img, p.img)`},
		{"smart-join", core.Options{JoinAlgorithm: join.Smart, GridRows: 2, GridCols: 2},
			`SELECT c.name FROM celeb c JOIN photos p ON samePerson(c.img, p.img)`},
		{"filter", core.Options{},
			`SELECT c.name FROM celeb c WHERE isFemale(c.img)`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 6, Seed: 7})
			m := newTallyMarket(abandoningMarket(7, d.Oracle(), 0.3))
			e := core.NewEngine(m, tc.opts)
			e.Catalog.Register(d.Celeb)
			e.Catalog.Register(d.Photos)
			e.Library.MustRegister(dataset.SamePersonTask())
			e.Library.MustRegister(dataset.IsFemaleTask())
			store := newRecordingStore(t)
			e.Answers = store
			_, stats, err := runQuery(e, tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if stats.TotalExpired() == 0 {
				t.Fatal("no expired assignments at AbandonProb = 0.3")
			}
			if len(store.stored) == 0 {
				t.Fatal("nothing stored")
			}
			short := 0
			for id, n := range store.stored {
				if want := m.votes[id]; n != want {
					short++
					t.Errorf("%s: stored %d votes, folded %d", id, n, want)
				}
			}
			if short > 0 {
				t.Errorf("%d of %d entries differ from the folded vote count", short, len(store.stored))
			}
		})
	}
}

// recordingJournal is a JournalSink that records every checkpoint.
type recordingJournal struct {
	mu     sync.Mutex
	events []string
}

func (j *recordingJournal) Checkpoint(kind, label string, digest uint64, clock float64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = append(j.events, fmt.Sprintf("%s %s %#x %.6f", kind, label, digest, clock))
	return nil
}

// withDuplicates returns rel with its first n rows appended again.
func withDuplicates(t *testing.T, rel *relation.Relation, n int) *relation.Relation {
	t.Helper()
	dup := relation.New(rel.Name(), rel.Schema())
	for i := 0; i < rel.Len(); i++ {
		if err := dup.Append(rel.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := dup.Append(rel.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	return dup
}

// TestStoreAttachedRunsPinned: engines with an answer store reproduce
// exactly these rows, posted HIT IDs, and dollars — the join's EOS vote
// order, expiry lineages, duplicate pair keys, a rerun served wholly
// from the store, and a filter whose negation is served from what the
// filter below it stored. Reuse may only rise above the pinned floor,
// and a durable run's breaker checkpoints other than answer replays do
// not move.
func TestStoreAttachedRunsPinned(t *testing.T) {
	const joinQ = `SELECT c.name, p.img FROM celeb c JOIN photos p ON samePerson(c.img, p.img)`
	celebs := func(n int, seed int64, abandon float64, opts core.Options, dups int) (*core.Engine, *crowd.SimMarket) {
		d := dataset.NewCelebrities(dataset.CelebrityConfig{N: n, Seed: seed})
		cfg := crowd.DefaultConfig(seed)
		cfg.TrackPosts = true
		cfg.AbandonProb = abandon
		m := crowd.NewSimMarket(cfg, d.Oracle())
		e := core.NewEngine(m, opts)
		e.Catalog.Register(withDuplicates(t, d.Celeb, dups))
		e.Catalog.Register(withDuplicates(t, d.Photos, dups))
		e.Library.MustRegister(dataset.SamePersonTask())
		e.Library.MustRegister(dataset.IsFemaleTask())
		return e, m
	}
	squares := func(int64, float64, core.Options, int) (*core.Engine, *crowd.SimMarket) {
		sq := dataset.NewSquares(16)
		cfg := crowd.DefaultConfig(5)
		cfg.TrackPosts = true
		m := crowd.NewSimMarket(cfg, sq.Oracle())
		e := core.NewEngine(m, core.Options{SortMethod: core.SortHybrid, HybridIterations: 6})
		e.Catalog.Register(sq.Rel)
		e.Library.MustRegister(dataset.SquareSorterTask())
		return e, m
	}
	cases := []struct {
		name   string
		engine func() (*core.Engine, *crowd.SimMarket)
		query  string
		// want pins each run on one shared store: rows, posted HITs,
		// dollars, the reuse floor, and the non-replay checkpoints.
		want []string
	}{
		{"naive-qualityadjust", func() (*core.Engine, *crowd.SimMarket) {
			return celebs(12, 4, 0, core.Options{JoinAlgorithm: join.Naive, JoinBatch: 5, Combiner: "QualityAdjust"}, 0)
		}, joinQ, []string{"rows=15 0x9352b98a41d09a24 hits=29 0x2d17935eafad9e0d $2.1750 reused>=0 ckpt=0x48ca37a9728de423"}},
		{"naive-abandon", func() (*core.Engine, *crowd.SimMarket) {
			return celebs(6, 7, 0.3, core.Options{JoinAlgorithm: join.Naive, JoinBatch: 5}, 0)
		}, joinQ, []string{"rows=7 0xa5f4a88303ac7d1 hits=15 0x84e1a67c522a7bc9 $0.7800 reused>=0 ckpt=0xf3b031d5d12c850d"}},
		{"naive-duplicates", func() (*core.Engine, *crowd.SimMarket) {
			return celebs(6, 9, 0, core.Options{JoinAlgorithm: join.Naive, JoinBatch: 5}, 3)
		}, joinQ, []string{"rows=7 0x8abc990f10c2b272 hits=17 0xc43e032cb3c4539d $1.2750 reused>=0 ckpt=0x9a27185ee694eeac"}},
		{"hybrid-sort-twice", func() (*core.Engine, *crowd.SimMarket) {
			return squares(5, 0, core.Options{}, 0)
		}, `SELECT label FROM squares ORDER BY squareSorter(img)`, []string{
			"rows=16 0xe941bed0a91ea900 hits=10 0x572ed0d17390c940 $0.7500 reused>=0 ckpt=0x9ae87039ffd1d46d",
			"rows=16 0xe941bed0a91ea900 hits=0 0xcbf29ce484222325 $0.0000 reused>=22 ckpt=0xfa46bbe49638b224",
		}},
		{"durable-and-not", func() (*core.Engine, *crowd.SimMarket) {
			return celebs(20, 23, 0, core.Options{}, 0)
		}, `SELECT c.name FROM celeb c WHERE isFemale(c.img) AND NOT isFemale(c.img)`,
			[]string{"rows=0 0xcbf29ce484222325 hits=4 0x368666644550aa65 $0.3000 reused>=0 ckpt=0xcbf29ce484222325"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store, err := answerstore.Open("", answerstore.Policy{})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			for run, want := range tc.want {
				e, m := tc.engine()
				e.Answers = store
				journal := &recordingJournal{}
				e.Journal = journal
				out, stats, err := runQuery(e, tc.query)
				if err != nil {
					t.Fatal(err)
				}
				var rows, ckpts []string
				for i := 0; i < out.Len(); i++ {
					// Row order is part of a sort's result.
					rows = append(rows, fmt.Sprint(i, out.Row(i)))
				}
				for _, ev := range journal.events {
					if !strings.HasPrefix(ev, ckptAnswerReplay+" ") {
						ckpts = append(ckpts, ev)
					}
				}
				hits := m.PostedHITs()
				got := fmt.Sprintf("rows=%d %#x hits=%d %#x $%.4f", len(rows), digestLines(rows),
					len(hits), digestLines(hits), e.Ledger.TotalDollars())
				floor := 0
				if _, err := fmt.Sscanf(want[strings.Index(want, "reused>=")+len("reused>="):], "%d", &floor); err != nil {
					t.Fatal(err)
				}
				if stats.TotalReused() < floor {
					t.Errorf("run %d reused %d questions, below the pinned %d", run, stats.TotalReused(), floor)
				}
				got += fmt.Sprintf(" reused>=%d ckpt=%#x", floor, digestLines(ckpts))
				if got != want {
					t.Errorf("run %d (reused %d):\ngot  %s\nwant %s", run, stats.TotalReused(), got, want)
				}
			}
		})
	}
}
