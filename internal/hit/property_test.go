package hit

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: Merge preserves the question multiset and respects the batch
// bound for arbitrary (n, batch) combinations.
func TestMergePropertyPreservesQuestions(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	prop := func(_ uint8) bool {
		n := 1 + rng.Intn(60)
		batch := 1 + rng.Intn(12)
		b := NewBuilder("p", 5, 1)
		qs := filterQuestions(n)
		hits, err := b.Merge(qs, batch)
		if err != nil {
			return false
		}
		seen := map[string]int{}
		for _, h := range hits {
			if len(h.Questions) > batch {
				return false
			}
			for _, q := range h.Questions {
				seen[q.ID]++
			}
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		// HIT count is exactly ceil(n/batch).
		return len(hits) == (n+batch-1)/batch
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: CacheKey is insensitive to question ID but sensitive to any
// input tuple change.
func TestCacheKeyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	prop := func(_ uint8) bool {
		a := imgTuple(fmt.Sprintf("x%d", rng.Intn(1000)))
		bT := imgTuple(fmt.Sprintf("y%d", rng.Intn(1000)))
		q1 := Question{ID: "id1", Kind: JoinPairQ, Task: "t", Left: a, Right: bT}
		q2 := Question{ID: "id2", Kind: JoinPairQ, Task: "t", Left: a, Right: bT}
		if q1.CacheKey() != q2.CacheKey() {
			return false
		}
		q3 := q1
		q3.Task = "other"
		return q1.CacheKey() != q3.CacheKey()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
