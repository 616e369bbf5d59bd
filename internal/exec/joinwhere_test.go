package exec

import (
	"fmt"
	"reflect"
	"testing"

	"qurk/internal/core"
	"qurk/internal/crowd"
	"qurk/internal/dataset"
	"qurk/internal/join"
	"qurk/internal/relation"
)

// photoSideOracle answers a filter question about a joined tuple from
// its photo (p.img) — what a worker shown the prompt bound to p.img
// sees; the celebrity oracle alone cannot tell which image a joined
// tuple's question shows.
type photoSideOracle struct {
	crowd.Oracle
	photos *relation.Relation
}

func (o photoSideOracle) FilterTruth(taskName string, t relation.Tuple) (bool, float64) {
	if img, ok := t.Get("p.img"); ok {
		for i := 0; i < o.photos.Len(); i++ {
			if row := o.photos.Row(i); row.MustGet("img").Text() == img.Text() {
				return o.Oracle.FilterTruth(taskName, row)
			}
		}
	}
	return o.Oracle.FilterTruth(taskName, t)
}

// TestWhereOnJoinedTable: a WHERE conjunct over the joined table runs
// on the join's output instead of failing (machine predicate) or asking
// about the FROM table's tuples (crowd predicate). Each query puts one
// filter above the join, so the join keeps its plan path and crowd
// answers, and the rows are the join's output under the predicate.
func TestWhereOnJoinedTable(t *testing.T) {
	const q = `SELECT c.name, p.id, p.img FROM celeb c JOIN photos p ON samePerson(c.img, p.img) `
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 8, Seed: 13})
	oracle := photoSideOracle{Oracle: d.Oracle(), photos: d.Photos}
	run := func(where string) []relation.Tuple {
		t.Helper()
		e := core.NewEngine(crowd.NewSimMarket(crowd.DefaultConfig(13), oracle),
			core.Options{JoinAlgorithm: join.Naive, JoinBatch: 4})
		e.Catalog.Register(d.Celeb)
		e.Catalog.Register(d.Photos)
		e.Library.MustRegister(dataset.SamePersonTask())
		e.Library.MustRegister(dataset.IsFemaleTask())
		out, _, err := runQuery(e, q+where)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		return out.Rows()
	}
	joined := run(`WHERE p.id >= 0`)
	if len(joined) == 0 {
		t.Fatal("join returned no rows")
	}
	var highID, female []string
	for _, row := range joined {
		if row.MustGet("p.id").Int() >= 5 {
			highID = append(highID, fmt.Sprint(row))
		}
		if yes, _ := oracle.FilterTruth("isFemale", row); yes {
			female = append(female, fmt.Sprint(row))
		}
	}
	for _, tc := range []struct {
		where string
		want  []string
	}{
		{`WHERE p.id >= 5`, highID},
		{`WHERE isFemale(p.img)`, female},
	} {
		var got []string
		for _, row := range run(tc.where) {
			got = append(got, fmt.Sprint(row))
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %d rows %v\nwant %d rows %v", tc.where, len(got), got, len(tc.want), tc.want)
		}
	}
}
