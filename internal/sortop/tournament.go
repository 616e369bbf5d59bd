package sortop

import (
	"fmt"

	"qurk/internal/crowd"
	"qurk/internal/hit"
	"qurk/internal/relation"
	"qurk/internal/task"
)

// MaxOptions configures a MAX/MIN tournament (paper §2.3: "For MAX/MIN,
// we use an interface that extracts the best element from a batch at a
// time").
type MaxOptions struct {
	// BatchSize is items per tournament round HIT (default 5).
	BatchSize int
	// Assignments is workers per HIT (default 5).
	Assignments int
	// GroupID labels HIT groups.
	GroupID string
	// Min inverts the tournament to find the least element.
	Min bool
}

func (o *MaxOptions) fillDefaults() {
	if o.BatchSize == 0 {
		o.BatchSize = 5
	}
	if o.Assignments == 0 {
		o.Assignments = 5
	}
	if o.GroupID == "" {
		o.GroupID = "max"
	}
}

// MaxResult reports the tournament outcome.
type MaxResult struct {
	// Index is the winning item's row index.
	Index int
	// HITCount totals the rounds' HITs: ≈ N/(B−1).
	HITCount int
	// Rounds is the number of tournament rounds.
	Rounds int
}

// Max runs a batch tournament: each round partitions the remaining
// candidates into comparison groups and keeps each group's best element.
func Max(items *relation.Relation, rt *task.Rank, opts MaxOptions, market crowd.Marketplace) (*MaxResult, error) {
	opts.fillDefaults()
	if err := rt.Validate(); err != nil {
		return nil, err
	}
	n := items.Len()
	if n == 0 {
		return nil, fmt.Errorf("sortop: MAX of empty relation")
	}
	res := &MaxResult{}
	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	round := 0
	for len(remaining) > 1 {
		round++
		b := hit.NewBuilder(fmt.Sprintf("%s/round%d", opts.GroupID, round), opts.Assignments, 1)
		var questions []hit.Question
		var groups [][]int
		for start := 0; start < len(remaining); start += opts.BatchSize {
			end := start + opts.BatchSize
			if end > len(remaining) {
				end = len(remaining)
			}
			g := remaining[start:end]
			if len(g) == 1 {
				// A lone leftover advances for free.
				continue
			}
			q := hit.Question{
				ID:   fmt.Sprintf("%s/r%d/g%d", opts.GroupID, round, len(groups)),
				Kind: hit.CompareQ,
				Task: rt.Name,
			}
			for _, idx := range g {
				q.Items = append(q.Items, items.Row(idx))
			}
			questions = append(questions, q)
			groups = append(groups, g)
		}
		var winners []int
		if len(questions) > 0 {
			hits, err := b.Merge(questions, 1)
			if err != nil {
				return nil, err
			}
			run, err := market.Run(&hit.Group{ID: fmt.Sprintf("%s/round%d", opts.GroupID, round), HITs: hits})
			if err != nil {
				return nil, err
			}
			res.HITCount += len(hits)
			// Aggregate Borda scores per group; best (or worst for
			// Min) advances.
			scoreByQ := make(map[string][]float64, len(questions))
			qByHIT := make(map[string]*hit.HIT, len(hits))
			for _, h := range hits {
				qByHIT[h.ID] = h
			}
			for _, a := range run.Assignments {
				h := qByHIT[a.HITID]
				if h == nil {
					continue
				}
				for i, ans := range a.Answers {
					if i >= len(h.Questions) {
						break
					}
					q := &h.Questions[i]
					sc := scoreByQ[q.ID]
					if sc == nil {
						sc = make([]float64, len(q.Items))
						scoreByQ[q.ID] = sc
					}
					for rank, local := range ans.Order {
						sc[local] += float64(rank)
					}
				}
			}
			for gi, q := range questions {
				sc := scoreByQ[q.ID]
				best := 0
				for i := range sc {
					better := sc[i] > sc[best]
					if opts.Min {
						better = sc[i] < sc[best]
					}
					if better {
						best = i
					}
				}
				winners = append(winners, groups[gi][best])
			}
		}
		// Lone leftovers advance.
		for start := 0; start < len(remaining); start += opts.BatchSize {
			end := start + opts.BatchSize
			if end > len(remaining) {
				end = len(remaining)
			}
			if end-start == 1 {
				winners = append(winners, remaining[start])
			}
		}
		remaining = winners
	}
	res.Index = remaining[0]
	res.Rounds = round
	return res, nil
}
