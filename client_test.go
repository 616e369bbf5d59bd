package qurk

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

const clientTestQuery = `SELECT c.name FROM celeb AS c WHERE isFemale(c.img)`

// newTestClient wires a client over the celebrity dataset and a fresh
// simulated crowd, with any extra options appended.
func newTestClient(n int, seed int64, extra ...ClientOption) *Client {
	d := NewCelebrities(CelebrityConfig{N: n, Seed: seed})
	market := NewSimMarket(DefaultMarketConfig(seed), d.Oracle())
	opts := []ClientOption{WithOptions(Options{Assignments: 3, FilterBatch: 2})}
	opts = append(opts, extra...)
	c := NewClient(market, opts...)
	c.Engine().Catalog.Register(d.Celeb)
	c.Engine().Library.MustRegister(IsFemaleTask())
	return c
}

// TestClientRunStream checks that the streaming run delivers every
// result row through the sink before returning, and that the final
// relation matches what the sink saw.
func TestClientRunStream(t *testing.T) {
	c := newTestClient(16, 3)
	var streamed int
	out, stats, err := c.RunStream(context.Background(), clientTestQuery,
		func(tuples []Tuple, ready float64) error {
			streamed += len(tuples)
			if ready < 0 || ready > 1 {
				t.Errorf("ready fraction %f out of range", ready)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if streamed != out.Len() {
		t.Fatalf("sink saw %d rows, relation has %d", streamed, out.Len())
	}
	if out.Len() == 0 || stats.TotalHITs() == 0 {
		t.Fatalf("stream run produced %d rows / %d HITs", out.Len(), stats.TotalHITs())
	}
}

// TestClientBudget: a client budget is enforced mid-run — the query
// fails with ErrBudgetExceeded once posting would overdraft, and the
// ledger never exceeds the cap.
func TestClientBudget(t *testing.T) {
	c := newTestClient(20, 3, WithBudget(0.02))
	_, _, err := c.Run(context.Background(), clientTestQuery)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Run err = %v, want ErrBudgetExceeded", err)
	}
	if spent := c.SpentDollars(); spent > 0.02 {
		t.Fatalf("spent $%.3f over the $0.02 budget", spent)
	}

	// An unconstrained client runs the same query to completion.
	free := newTestClient(20, 3)
	if _, _, err := free.Run(context.Background(), clientTestQuery); err != nil {
		t.Fatal(err)
	}
}

// TestClientSharedAnswerStore: two independent clients sharing one
// answer store — the second client's identical query posts nothing.
func TestClientSharedAnswerStore(t *testing.T) {
	store, err := OpenAnswerStore("", AnswerStorePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	first := newTestClient(14, 5, WithAnswerStore(store))
	out1, stats1, err := first.Run(context.Background(), clientTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	if stats1.TotalHITs() == 0 {
		t.Fatal("first client posted no HITs")
	}

	second := newTestClient(14, 5, WithAnswerStore(store))
	out2, stats2, err := second.Run(context.Background(), clientTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.TotalHITs() != 0 {
		t.Fatalf("second client posted %d HITs, want 0 (shared store)", stats2.TotalHITs())
	}
	if stats2.TotalReused() == 0 {
		t.Fatal("second client reused no stored answers")
	}
	if out1.Len() != out2.Len() {
		t.Fatalf("results diverge: %d rows vs %d", out1.Len(), out2.Len())
	}
}

// TestClientSharedAnswerStoreMaterializingJoins: joins that drain their
// inputs before laying out pairs — SmartBatch grids and §3.2 automatic
// feature selection — serve their extraction, sample-join, and pair
// questions from a shared answer store like every other crowd phase,
// so re-running the identical query posts nothing.
func TestClientSharedAnswerStoreMaterializingJoins(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		seed  int64
		opts  Options
		query string
	}{
		{"smart+possibly", 12, 3,
			Options{JoinAlgorithm: SmartJoin, ExtractCombined: true},
			`SELECT c.name, p.img FROM celeb c JOIN photos p
			 ON samePerson(c.img, p.img) AND POSSIBLY gender(c.img) = gender(p.img)`},
		{"naive+autoselect", 20, 5,
			Options{JoinAlgorithm: NaiveJoin, JoinBatch: 5, ExtractCombined: true, AutoSelectFeatures: true},
			`SELECT c.name FROM celeb c JOIN photos p
			 ON samePerson(c.img, p.img)
			 AND POSSIBLY gender(c.img) = gender(p.img)
			 AND POSSIBLY hairColor(c.img) = hairColor(p.img)`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store, err := OpenAnswerStore("", AnswerStorePolicy{})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			newClient := func() *Client {
				d := NewCelebrities(CelebrityConfig{N: tc.n, Seed: tc.seed})
				c := NewClient(NewSimMarket(DefaultMarketConfig(tc.seed), d.Oracle()),
					WithOptions(tc.opts), WithAnswerStore(store))
				c.Engine().Catalog.Register(d.Celeb)
				c.Engine().Catalog.Register(d.Photos)
				c.Engine().Library.MustRegister(SamePersonTask())
				c.Engine().Library.MustRegister(GenderTask())
				c.Engine().Library.MustRegister(HairColorTask())
				return c
			}
			out1, stats1, err := newClient().Run(context.Background(), tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if stats1.TotalHITs() == 0 {
				t.Fatal("first run posted no HITs")
			}
			out2, stats2, err := newClient().Run(context.Background(), tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if stats2.TotalHITs() != 0 {
				var posted []string
				for _, op := range stats2.Operators {
					if op.HITs > 0 {
						posted = append(posted, fmt.Sprintf("%s=%d", op.Label, op.HITs))
					}
				}
				t.Fatalf("second run posted %d HITs, want 0: %v", stats2.TotalHITs(), posted)
			}
			if stats2.TotalReused() == 0 {
				t.Fatal("second run reused no stored answers")
			}
			if out1.Len() != out2.Len() {
				t.Fatalf("results diverge: %d rows vs %d", out1.Len(), out2.Len())
			}
		})
	}
}
