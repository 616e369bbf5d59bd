package exec

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"testing"

	"qurk/internal/core"
	"qurk/internal/crowd"
	"qurk/internal/dataset"
	"qurk/internal/hit"
)

// rateKeyMarket records every posted rating question: its CacheKey and
// the canonical keys of its §4.1.2 context sample. CacheKey does not
// cover the context, and the context sample is all that Options.Seed
// changes in a rating question.
type rateKeyMarket struct {
	crowd.Marketplace
	mu    sync.Mutex
	lines []string
}

func (m *rateKeyMarket) RunAsync(g *hit.Group) <-chan crowd.Async {
	m.mu.Lock()
	for _, h := range g.HITs {
		for i := range h.Questions {
			q := &h.Questions[i]
			if q.Kind != hit.RateQ {
				continue
			}
			line := fmt.Sprintf("%x", q.CacheKey())
			for _, c := range q.Context {
				line += fmt.Sprintf(" %x", c.CanonicalKey())
			}
			m.lines = append(m.lines, line)
		}
	}
	m.mu.Unlock()
	return m.Marketplace.RunAsync(g)
}

func (m *rateKeyMarket) Run(g *hit.Group) (*crowd.RunResult, error) {
	a := <-m.RunAsync(g)
	return a.Result, a.Err
}

// digest folds the recorded lines, order-independently.
func (m *rateKeyMarket) digest() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	lines := append([]string(nil), m.lines...)
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%d:%016x", len(lines), h.Sum64())
}

// TestSortSeedPinned pins a Rate and a Hybrid ORDER BY over 40 squares
// at Options.Seed 7: the rows, and a digest of the posted rating
// questions with their context samples. Options.Seed reaches the
// rating builder only through the executor, so a run that dropped it
// would sample other context items and change the digest.
func TestSortSeedPinned(t *testing.T) {
	cases := []struct {
		method     core.SortMethod
		rows, keys string
	}{
		{core.SortRate,
			"20px,32px,26px,29px,23px,38px,53px,35px,47px,59px,41px,44px,65px,71px,92px,50px,68px,80px,83px,77px,62px,89px,101px,56px,74px,104px,95px,98px,110px,134px,86px,128px,137px,131px,107px,116px,122px,119px,113px,125px",
			"40:c8e5e371eda5c13a"},
		{core.SortHybrid,
			"20px,23px,26px,29px,32px,35px,41px,44px,50px,77px,47px,38px,53px,56px,59px,65px,68px,62px,71px,74px,80px,107px,83px,86px,89px,92px,101px,110px,95px,98px,104px,113px,116px,119px,122px,125px,128px,131px,134px,137px",
			"40:c8e5e371eda5c13a"},
	}
	for _, tc := range cases {
		t.Run(tc.method.String(), func(t *testing.T) {
			s := dataset.NewSquares(40)
			m := &rateKeyMarket{Marketplace: crowd.NewSimMarket(crowd.DefaultConfig(7), s.Oracle())}
			e := core.NewEngine(m, core.Options{SortMethod: tc.method, Seed: 7})
			e.Catalog.Register(s.Rel)
			e.Library.MustRegister(dataset.SquareSorterTask())
			out, _, err := runQuery(e, `SELECT label FROM squares ORDER BY squareSorter(img)`)
			if err != nil {
				t.Fatal(err)
			}
			labels := make([]string, out.Len())
			for i := range labels {
				labels[i] = strings.TrimPrefix(out.Row(i).MustGet("label").Text(), "square-")
			}
			rows := strings.Join(labels, ",")
			if rows != tc.rows {
				t.Errorf("rows = %q\nwant   %q", rows, tc.rows)
			}
			if got := m.digest(); got != tc.keys {
				t.Errorf("rating questions digest = %s, want %s", got, tc.keys)
			}
		})
	}
}
