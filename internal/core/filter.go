// Package core ties Qurk's pieces into an engine: it owns the crowd
// filter and generative operators (paper §2.1–§2.2), the task library,
// the marketplace handle, and the cost ledger. The
// join and sort operators live in internal/join and internal/sortop;
// core provides the shared execution services and the simple operators.
package core

import (
	"fmt"

	"qurk/internal/combine"
	"qurk/internal/crowd"
	"qurk/internal/hit"
	"qurk/internal/relation"
	"qurk/internal/task"
)

// FilterOptions configures a crowd filter pass.
type FilterOptions struct {
	// BatchSize merges tuples per HIT (default 5).
	BatchSize int
	// Assignments is votes per tuple (default 5, paper §2.1).
	Assignments int
	// Combiner merges votes (default MajorityVote).
	Combiner combine.Combiner
	// GroupID labels the HIT group.
	GroupID string
	// Negate keeps tuples the crowd said NO to (for NOT udf(...)).
	Negate bool
}

func (o *FilterOptions) fillDefaults() {
	if o.BatchSize == 0 {
		o.BatchSize = 5
	}
	if o.Assignments == 0 {
		o.Assignments = 5
	}
	if o.Combiner == nil {
		o.Combiner = combine.MajorityVote{}
	}
	if o.GroupID == "" {
		o.GroupID = "filter"
	}
}

// FilterResult is a crowd filter outcome.
type FilterResult struct {
	// Passed holds tuples the combiner accepted.
	Passed *relation.Relation
	// Decisions maps row index → accepted.
	Decisions []bool
	// Confidence maps row index → combiner confidence.
	Confidence []float64
	// HITCount, AssignmentCount, MakespanHours: cost/latency metrics.
	HITCount, AssignmentCount int
	MakespanHours             float64
	// Votes are raw votes for re-combination.
	Votes []combine.Vote
}

// RunFilter executes a crowd filter over every row of rel.
func RunFilter(rel *relation.Relation, ft *task.Filter, opts FilterOptions, market crowd.Marketplace) (*FilterResult, error) {
	opts.fillDefaults()
	if err := ft.Validate(); err != nil {
		return nil, err
	}
	n := rel.Len()
	res := &FilterResult{
		Passed:     relation.New(rel.Name(), rel.Schema()),
		Decisions:  make([]bool, n),
		Confidence: make([]float64, n),
	}
	if n == 0 {
		return res, nil
	}

	qid := func(i int) string { return fmt.Sprintf("%s/t%05d", opts.GroupID, i) }
	questions := make([]hit.Question, n)
	for i := range questions {
		questions[i] = hit.Question{
			ID:    qid(i),
			Kind:  hit.FilterQ,
			Task:  ft.Name,
			Tuple: rel.Row(i),
		}
	}
	b := hit.NewBuilder(opts.GroupID, opts.Assignments, 1)
	hits, err := b.Merge(questions, opts.BatchSize)
	if err != nil {
		return nil, err
	}
	run, err := market.Run(&hit.Group{ID: opts.GroupID, HITs: hits})
	if err != nil {
		return nil, err
	}
	res.HITCount = len(hits)
	res.AssignmentCount = run.TotalAssignments
	res.MakespanHours = run.MakespanHours
	hit.ForEachAnswer(hits, run.Assignments, func(q *hit.Question, worker string, ans hit.Answer) {
		res.Votes = append(res.Votes, combine.Vote{
			Question: q.ID, Worker: worker, Value: combine.BoolVote(ans.Bool),
		})
	})

	decisions, err := opts.Combiner.Combine(res.Votes)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		d, ok := decisions[qid(i)]
		accept := ok && d.Value == "yes"
		if opts.Negate {
			accept = ok && d.Value == "no"
		}
		res.Decisions[i] = accept
		res.Confidence[i] = d.Confidence
		if accept {
			if err := res.Passed.Append(rel.Row(i)); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}
