// Package sortop implements Qurk's crowd-powered sort operator (paper
// §4): the comparison-based interface (groups of S items, all pairwise
// orderings extracted per group), the rating-based interface (Likert
// scale, mean of 5), the hybrid algorithm that seeds with ratings and
// refines with comparison windows, and the MAX/MIN tournament.
package sortop

import (
	"fmt"
	"sort"

	"qurk/internal/crowd"
	"qurk/internal/hit"
	"qurk/internal/relation"
	"qurk/internal/stats"
	"qurk/internal/task"
)

// CompareOptions configures a comparison sort.
type CompareOptions struct {
	// GroupSize is S, the items ranked per question (default 5).
	GroupSize int
	// BatchGroups merges b groups into one HIT (default 1).
	BatchGroups int
	// Assignments is workers per HIT (default 5; the paper obtains
	// "at least 5 comparisons" per pair).
	Assignments int
	// GroupID labels the HIT group.
	GroupID string
}

func (o *CompareOptions) fillDefaults() {
	if o.GroupSize == 0 {
		o.GroupSize = 5
	}
	if o.BatchGroups == 0 {
		o.BatchGroups = 1
	}
	if o.Assignments == 0 {
		o.Assignments = 5
	}
	if o.GroupID == "" {
		o.GroupID = "compare"
	}
}

// PairVotes tallies the two directions of one item pair (i < j by index).
type PairVotes struct {
	// IOverJ counts votes ranking item i above (greater than) item j.
	IOverJ int
	// JOverI counts the opposite direction.
	JOverI int
}

// CompareResult is the outcome of a comparison sort.
type CompareResult struct {
	// Order lists item indices least-to-greatest by head-to-head win
	// fraction (paper §4.1.1's "head-to-head" aggregation).
	Order []int
	// WinFraction is each item's share of pairwise contests won.
	WinFraction []float64
	// Pairs maps [2]int{i,j} (i<j) to direction tallies.
	Pairs map[[2]int]*PairVotes
	// HITCount is HITs posted; AssignmentCount total assignments.
	HITCount, AssignmentCount int
	// MakespanHours is the wall-clock completion estimate.
	MakespanHours float64
	// Incomplete reports HITs workers refused (oversized groups).
	Incomplete []string
	// Groups are the generated comparison groups (item indices).
	Groups [][]int
}

// CoverGroups builds groups of size s over n items such that every item
// pair appears in at least one group, greedily maximizing fresh pairs
// per group (the paper's batch generator "may generate overlapping
// groups", §4.2.2). The group count approaches n(n−1)/(s(s−1)).
// Generation is fully deterministic.
func CoverGroups(n, s int) [][]int {
	if s >= n {
		g := make([]int, n)
		for i := range g {
			g[i] = i
		}
		return [][]int{g}
	}
	uncovered := make(map[[2]int]bool, n*(n-1)/2)
	// allPairs holds every pair in lexicographic order; the seed pointer
	// scans it so group generation is fully deterministic (map iteration
	// order must never leak into the cover).
	allPairs := make([][2]int, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			uncovered[[2]int{i, j}] = true
			allPairs = append(allPairs, [2]int{i, j})
		}
	}
	var groups [][]int
	seedPtr := 0
	for len(uncovered) > 0 {
		// Seed with the first still-uncovered pair.
		for seedPtr < len(allPairs) && !uncovered[allPairs[seedPtr]] {
			seedPtr++
		}
		if seedPtr >= len(allPairs) {
			break
		}
		seed := allPairs[seedPtr]
		group := []int{seed[0], seed[1]}
		inGroup := map[int]bool{seed[0]: true, seed[1]: true}
		for len(group) < s {
			// Add the item covering the most uncovered pairs with the
			// current group.
			bestItem, bestCover := -1, -1
			for cand := 0; cand < n; cand++ {
				if inGroup[cand] {
					continue
				}
				cover := 0
				for _, g := range group {
					if uncovered[pairKey(cand, g)] {
						cover++
					}
				}
				if cover > bestCover {
					bestItem, bestCover = cand, cover
				}
			}
			if bestItem < 0 {
				break
			}
			group = append(group, bestItem)
			inGroup[bestItem] = true
		}
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				delete(uncovered, pairKey(group[i], group[j]))
			}
		}
		sort.Ints(group)
		groups = append(groups, group)
	}
	return groups
}

func pairKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// CompareTally folds comparison answers into pairwise votes for
// callers that drive posting themselves — the streaming executor posts
// the questions from BuildCompare through its chunked poster (so
// refusal/expiry retries apply) and feeds every answer back through
// Add. Tallies are commutative, so delivery order cannot change the
// result.
type CompareTally struct {
	n        int
	groupByQ map[string][]int
	res      *CompareResult
}

// BuildCompare mints the comparison-group questions for a relation's
// rows (one question per cover group, IDs "<group>/grpNNNN") plus the
// tally that folds their answers. Compare is BuildCompare + a blocking
// marketplace round.
func BuildCompare(items *relation.Relation, rt *task.Rank, opts CompareOptions) ([]hit.Question, *CompareTally, error) {
	opts.fillDefaults()
	if err := rt.Validate(); err != nil {
		return nil, nil, err
	}
	n := items.Len()
	if n < 2 {
		return nil, nil, fmt.Errorf("sortop: need ≥2 items to sort, got %d", n)
	}
	groups := CoverGroups(n, opts.GroupSize)
	questions := make([]hit.Question, len(groups))
	for gi, g := range groups {
		q := hit.Question{
			ID:   fmt.Sprintf("%s/grp%04d", opts.GroupID, gi),
			Kind: hit.CompareQ,
			Task: rt.Name,
		}
		for _, idx := range g {
			q.Items = append(q.Items, items.Row(idx))
		}
		questions[gi] = q
	}
	tally := &CompareTally{
		n:        n,
		groupByQ: make(map[string][]int, len(groups)),
		res: &CompareResult{
			Pairs:  make(map[[2]int]*PairVotes),
			Groups: groups,
		},
	}
	for gi, g := range groups {
		tally.groupByQ[questions[gi].ID] = g
	}
	return questions, tally, nil
}

// Add folds one worker's answer to one comparison question. ans.Order
// is a permutation of local indices, least→most; it expands to
// pairwise votes over global item indices.
func (t *CompareTally) Add(qid string, ans hit.Answer) {
	g := t.groupByQ[qid]
	if g == nil || len(ans.Order) != len(g) {
		return
	}
	for x := 0; x < len(ans.Order); x++ {
		for y := x + 1; y < len(ans.Order); y++ {
			lo, hi := g[ans.Order[x]], g[ans.Order[y]] // hi ranked above lo
			t.res.addVote(hi, lo)
		}
	}
}

// Result finalizes the head-to-head order. Cost and latency fields
// (HITCount, AssignmentCount, MakespanHours, Incomplete) are the
// posting caller's to fill.
func (t *CompareTally) Result() *CompareResult {
	t.res.finalize(t.n)
	return t.res
}

// Compare runs the comparison-based sort over a relation's rows.
func Compare(items *relation.Relation, rt *task.Rank, opts CompareOptions, market crowd.Marketplace) (*CompareResult, error) {
	opts.fillDefaults()
	questions, tally, err := BuildCompare(items, rt, opts)
	if err != nil {
		return nil, err
	}
	b := hit.NewBuilder(opts.GroupID, opts.Assignments, 1)
	hits, err := b.Merge(questions, opts.BatchGroups)
	if err != nil {
		return nil, err
	}
	run, err := market.Run(&hit.Group{ID: opts.GroupID, HITs: hits})
	if err != nil {
		return nil, err
	}
	hit.ForEachAnswer(hits, run.Assignments, func(q *hit.Question, _ string, ans hit.Answer) {
		tally.Add(q.ID, ans)
	})
	res := tally.Result()
	res.HITCount = len(hits)
	res.AssignmentCount = run.TotalAssignments
	res.MakespanHours = run.MakespanHours
	res.Incomplete = run.Incomplete
	return res, nil
}

// addVote records "winner ranked above loser".
func (r *CompareResult) addVote(winner, loser int) {
	k := pairKey(winner, loser)
	pv := r.Pairs[k]
	if pv == nil {
		pv = &PairVotes{}
		r.Pairs[k] = pv
	}
	if winner == k[0] {
		pv.IOverJ++
	} else {
		pv.JOverI++
	}
}

// finalize computes the head-to-head order. The primary
// score is Copeland-style: the fraction of contested opponents an item
// beats by per-pair majority ("the number of HITs in which each item was
// ranked higher than other items", §4.1.1). With full pair coverage and
// correct majorities this reproduces the true order exactly; raw vote
// fraction breaks ties, so items with shaky majorities sort by margin.
func (r *CompareResult) finalize(n int) {
	majWins := make([]float64, n)
	opponents := make([]float64, n)
	votes := make([]float64, n)
	voteWins := make([]float64, n)
	for k, pv := range r.Pairs {
		total := float64(pv.IOverJ + pv.JOverI)
		if total == 0 {
			continue
		}
		i, j := k[0], k[1]
		opponents[i]++
		opponents[j]++
		switch {
		case pv.IOverJ > pv.JOverI:
			majWins[i]++
		case pv.JOverI > pv.IOverJ:
			majWins[j]++
		default:
			majWins[i] += 0.5
			majWins[j] += 0.5
		}
		voteWins[i] += float64(pv.IOverJ)
		voteWins[j] += float64(pv.JOverI)
		votes[i] += total
		votes[j] += total
	}
	r.WinFraction = make([]float64, n)
	copeland := make([]float64, n)
	for i := 0; i < n; i++ {
		if votes[i] > 0 {
			r.WinFraction[i] = voteWins[i] / votes[i]
		}
		if opponents[i] > 0 {
			copeland[i] = majWins[i] / opponents[i]
		}
	}
	r.Order = make([]int, n)
	for i := range r.Order {
		r.Order[i] = i
	}
	sort.SliceStable(r.Order, func(a, b int) bool {
		x, y := r.Order[a], r.Order[b]
		if copeland[x] != copeland[y] {
			return copeland[x] < copeland[y]
		}
		return r.WinFraction[x] < r.WinFraction[y]
	})
}

// Cycles counts directed triangles among the pairwise-majority edges —
// the non-transitivity the paper warns about, which rules out
// Quicksort-style algorithms (§4.1.1). It is O(n³) in the item count,
// so it runs only when asked.
func (r *CompareResult) Cycles() int {
	n := len(r.Order)
	beats := func(a, b int) bool {
		k := pairKey(a, b)
		pv := r.Pairs[k]
		if pv == nil {
			return false
		}
		if a == k[0] {
			return pv.IOverJ > pv.JOverI
		}
		return pv.JOverI > pv.IOverJ
	}
	count := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || !beats(i, j) {
				continue
			}
			for k := 0; k < n; k++ {
				if k == i || k == j {
					continue
				}
				if beats(j, k) && beats(k, i) {
					count++
				}
			}
		}
	}
	return count / 3 // each triangle counted three times
}

// PairMatrix converts pair votes into a rating matrix for the paper's
// modified-κ agreement metric (Fig. 6): each pair with ≥2 votes is a
// subject, the two directions are the categories.
func (r *CompareResult) PairMatrix() (*stats.RatingMatrix, error) {
	var keys [][2]int
	for k, pv := range r.Pairs {
		if pv.IOverJ+pv.JOverI >= 2 {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("sortop: no pairs with ≥2 votes")
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	m, err := stats.NewRatingMatrix(len(keys), 2)
	if err != nil {
		return nil, err
	}
	for si, k := range keys {
		pv := r.Pairs[k]
		for v := 0; v < pv.IOverJ; v++ {
			if err := m.Add(si, 0); err != nil {
				return nil, err
			}
		}
		for v := 0; v < pv.JOverI; v++ {
			if err := m.Add(si, 1); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// ModifiedKappa is the paper's worker-agreement signal on comparison
// votes (footnote 4).
func (r *CompareResult) ModifiedKappa() (float64, error) {
	m, err := r.PairMatrix()
	if err != nil {
		return 0, err
	}
	return m.ModifiedKappa()
}
