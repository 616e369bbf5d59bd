// Package join implements Qurk's crowd-powered join operator (paper §3):
// a block nested loop join whose predicate evaluations are HITs, with the
// paper's three interfaces — SimpleJoin, NaiveBatch, and SmartBatch — and
// the feature-filtering optimization that prunes the cross product with a
// linear pass of categorical feature extractions (§3.2).
package join

import (
	"fmt"
	"strconv"

	"qurk/internal/combine"
	"qurk/internal/crowd"
	"qurk/internal/hit"
	"qurk/internal/relation"
	"qurk/internal/task"
)

// Algorithm selects the join HIT interface.
type Algorithm uint8

const (
	// Simple posts one candidate pair per HIT (paper §3.1.1): |R||S|
	// HITs for a full cross product.
	Simple Algorithm = iota
	// Naive batches b pairs vertically per HIT (§3.1.2): |R||S|/b HITs.
	Naive
	// Smart shows an r×s grid per HIT and asks the worker to click
	// matching pairs (§3.1.3): |R||S|/(r·s) HITs.
	Smart
)

// String names the algorithm as the paper does.
func (a Algorithm) String() string {
	switch a {
	case Simple:
		return "Simple"
	case Naive:
		return "NaiveBatch"
	case Smart:
		return "SmartBatch"
	default:
		return fmt.Sprintf("Algorithm(%d)", uint8(a))
	}
}

// Options configures one join run.
type Options struct {
	// Algorithm is the interface (default Simple).
	Algorithm Algorithm
	// BatchSize is pairs-per-HIT for Naive (default 5).
	BatchSize int
	// GridRows × GridCols is the Smart grid (default 3×3).
	GridRows, GridCols int
	// Assignments is workers per HIT (default 5).
	Assignments int
	// Combiner merges votes (default MajorityVote). For QualityAdjust
	// pass a configured *combine.QualityAdjust.
	Combiner combine.Combiner
	// GroupID labels the HIT group (default "join").
	GroupID string
}

func (o *Options) fillDefaults() {
	if o.BatchSize == 0 {
		o.BatchSize = 5
	}
	if o.GridRows == 0 {
		o.GridRows = 3
	}
	if o.GridCols == 0 {
		o.GridCols = 3
	}
	if o.Assignments == 0 {
		o.Assignments = 5
	}
	if o.Combiner == nil {
		o.Combiner = combine.MajorityVote{}
	}
	if o.GroupID == "" {
		o.GroupID = "join"
	}
}

// Pair is one candidate (left row, right row) pair.
type Pair struct {
	LeftIndex, RightIndex int
	Left, Right           relation.Tuple
}

// Key identifies the pair for vote bookkeeping, stable across interfaces
// so MajorityVote and QualityAdjust see the same question IDs. The
// rendering is byte-identical to fmt.Sprintf("pair:%x|%x", ...) but in
// one allocation — every candidate pair mints this at least once.
func (p Pair) Key() string {
	var buf [40]byte
	b := append(buf[:0], "pair:"...)
	b = strconv.AppendUint(b, p.Left.Key(), 16)
	b = append(b, '|')
	b = strconv.AppendUint(b, p.Right.Key(), 16)
	return string(b)
}

// PairSeq streams candidate pairs to a consumer: it calls yield for each
// pair in a deterministic order and stops early if yield returns false.
// Sequences let the join batch HITs straight off pair generation instead
// of materializing O(|R|·|S|) slices first.
type PairSeq func(yield func(Pair) bool)

// SliceSeq adapts an explicit pair list to a PairSeq.
func SliceSeq(pairs []Pair) PairSeq {
	return func(yield func(Pair) bool) {
		for _, p := range pairs {
			if !yield(p) {
				return
			}
		}
	}
}

// CollectPairs materializes a sequence (tests and small inputs).
func CollectPairs(seq PairSeq) []Pair {
	var out []Pair
	seq(func(p Pair) bool {
		out = append(out, p)
		return true
	})
	return out
}

// Rows is a materialized join input scanned by ordinal: a
// relation.Relation, or a streaming executor's buffered probe rows and
// (possibly spilled) build side.
type Rows interface {
	Len() int
	Row(i int) relation.Tuple
}

// CrossSeq streams the full cross product in row-major order — the
// block nested loop the paper describes (§3.1) without the O(|R|·|S|)
// slice.
func CrossSeq(left, right Rows) PairSeq {
	return func(yield func(Pair) bool) {
		for i := 0; i < left.Len(); i++ {
			for j := 0; j < right.Len(); j++ {
				if !yield(Pair{LeftIndex: i, RightIndex: j, Left: left.Row(i), Right: right.Row(j)}) {
					return
				}
			}
		}
	}
}

// Result is the outcome of a crowd join.
type Result struct {
	// Matches are the pairs the combiner accepted.
	Matches []Match
	// Joined is the relational join result (left ⋈ right schemas).
	Joined *relation.Relation
	// HITCount is the number of HITs posted (the paper's cost unit).
	HITCount int
	// AssignmentCount is total assignments completed.
	AssignmentCount int
	// Candidates is the number of pairs evaluated (≠ |R||S| when
	// feature filtering pruned the cross product).
	Candidates int
	// Votes holds the raw per-pair votes so callers can re-combine
	// (e.g., merge two trials, or compare MV vs QA on one corpus).
	Votes []combine.Vote
	// Assignments carries completion metadata for latency analysis.
	Assignments []hit.Assignment
	// MakespanHours is the group completion time.
	MakespanHours float64
	// Incomplete lists refused HITs (batch too large).
	Incomplete []string
}

// Match is an accepted pair with the combiner's confidence.
type Match struct {
	Pair       Pair
	Confidence float64
	Votes      int
}

// CrossPairs enumerates the full cross product of candidate pairs.
// Prefer CrossSeq for large inputs; this materializes the slice.
func CrossPairs(left, right Rows) []Pair {
	pairs := make([]Pair, 0, left.Len()*right.Len())
	CrossSeq(left, right)(func(p Pair) bool {
		pairs = append(pairs, p)
		return true
	})
	return pairs
}

// Run executes the crowd join over an explicit candidate pair list.
// Most callers use RunCross (full cross product) or RunSeq (streamed
// candidates, e.g. FilteredSeq's feature-pruned pairs).
func Run(candidates []Pair, jt *task.EquiJoin, opts Options, market crowd.Marketplace) (*Result, error) {
	return RunSeq(SliceSeq(candidates), jt, opts, market)
}

// RunSeq executes the crowd join over a streamed candidate sequence,
// batching questions into HITs as pairs arrive so the candidate set is
// never materialized as a separate slice before HIT generation.
func RunSeq(candidates PairSeq, jt *task.EquiJoin, opts Options, market crowd.Marketplace) (*Result, error) {
	opts.fillDefaults()
	if err := jt.Validate(); err != nil {
		return nil, err
	}
	res := &Result{}

	// byKey/order dedup pairs for the decision mapping, filled while
	// streaming candidates into HIT batches. Key strings dominate this
	// bookkeeping's footprint and are needed for dedup regardless;
	// retaining the Pair alongside avoids re-generating the whole
	// sequence (a second full PairPasses sweep for filtered joins)
	// after the marketplace round trip.
	byKey := map[string]Pair{}
	var order []string
	note := func(p Pair) {
		res.Candidates++
		k := p.Key()
		if _, dup := byKey[k]; !dup {
			order = append(order, k)
		}
		byKey[k] = p
	}

	// Build HITs per algorithm, streaming off the sequence.
	b := hit.NewBuilder(opts.GroupID, opts.Assignments, 1)
	var hits []*hit.HIT
	var err error
	switch opts.Algorithm {
	case Simple, Naive:
		batch := 1
		if opts.Algorithm == Naive && opts.BatchSize > 1 {
			batch = opts.BatchSize
		}
		chunk := make([]hit.Question, 0, batch)
		flush := func() error {
			if len(chunk) == 0 {
				return nil
			}
			hs, merr := b.Merge(chunk, batch)
			if merr != nil {
				return merr
			}
			hits = append(hits, hs...)
			chunk = chunk[:0]
			return nil
		}
		candidates(func(p Pair) bool {
			note(p)
			chunk = append(chunk, hit.Question{
				ID:   p.Key(),
				Kind: hit.JoinPairQ,
				Task: jt.Name,
				Left: p.Left, Right: p.Right,
			})
			if len(chunk) == batch {
				err = flush()
			}
			return err == nil
		})
		if err == nil {
			err = flush()
		}
	case Smart:
		hits, err = SmartGridHITs(b, candidates, note, jt.Name, opts.GridRows, opts.GridCols)
	default:
		return nil, fmt.Errorf("join: unknown algorithm %v", opts.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	if res.Candidates == 0 {
		res.Joined = relation.New("join", nil)
		return res, nil
	}
	res.HITCount = len(hits)

	// Post to the marketplace.
	run, err := market.Run(&hit.Group{ID: opts.GroupID, HITs: hits})
	if err != nil {
		return nil, err
	}
	res.AssignmentCount = run.TotalAssignments
	res.MakespanHours = run.MakespanHours
	res.Incomplete = run.Incomplete
	res.Assignments = run.Assignments

	// Collect votes per pair.
	res.Votes = collectVotes(hits, run.Assignments)

	// Combine and keep accepted pairs in first-appearance order.
	decisions, err := opts.Combiner.Combine(res.Votes)
	if err != nil {
		return nil, err
	}
	var joined *relation.Relation
	for _, key := range order {
		d, ok := decisions[key]
		if !ok || d.Value != "yes" {
			continue
		}
		p := byKey[key]
		res.Matches = append(res.Matches, Match{Pair: p, Confidence: d.Confidence, Votes: d.Votes})
		if joined == nil {
			schema, cerr := p.Left.Schema().Concat(p.Right.Schema())
			if cerr != nil {
				return nil, fmt.Errorf("join: %w", cerr)
			}
			joined = relation.New("join", schema)
		}
		if err := joined.Append(p.Left.Concat(p.Right, joined.Schema())); err != nil {
			return nil, err
		}
	}
	if joined == nil {
		joined = relation.New("join", nil)
	}
	res.Joined = joined
	return res, nil
}

// RunCross joins the full cross product of two relations.
func RunCross(left, right *relation.Relation, jt *task.EquiJoin, opts Options, market crowd.Marketplace) (*Result, error) {
	return RunSeq(CrossSeq(left, right), jt, opts, market)
}

// SmartGridHITs lays candidate pairs out as r×s grids. Candidates are grouped
// into maximal complete bipartite blocks: we collect the distinct left
// and right tuples (in first-appearance order), chunk them r and s at a
// time, and emit a grid HIT per chunk pair that contains at least one
// candidate. With a full cross product every chunk pair qualifies and the
// count matches the paper's |R||S|/(rs); with feature-filtered candidates
// sparse blocks are skipped. note is invoked once per streamed candidate
// for the caller's bookkeeping. Exported so the streaming executor can
// lay out grids itself and post them chunk by chunk.
func SmartGridHITs(b *hit.Builder, candidates PairSeq, note func(Pair), taskName string, r, s int) ([]*hit.HIT, error) {
	if r < 1 || s < 1 {
		return nil, fmt.Errorf("join: smart grid must be ≥1×1, got %d×%d", r, s)
	}
	// Index distinct sides.
	var lefts, rights []relation.Tuple
	lIdx := map[uint64]int{}
	rIdx := map[uint64]int{}
	type cell struct{ l, r int }
	want := map[cell]bool{}
	candidates(func(p Pair) bool {
		note(p)
		lk, rk := p.Left.Key(), p.Right.Key()
		li, ok := lIdx[lk]
		if !ok {
			li = len(lefts)
			lIdx[lk] = li
			lefts = append(lefts, p.Left)
		}
		ri, ok := rIdx[rk]
		if !ok {
			ri = len(rights)
			rIdx[rk] = ri
			rights = append(rights, p.Right)
		}
		want[cell{li, ri}] = true
		return true
	})
	var hits []*hit.HIT
	for l := 0; l < len(lefts); l += r {
		lend := min(l+r, len(lefts))
		for g := 0; g < len(rights); g += s {
			gend := min(g+s, len(rights))
			// Skip blocks containing no candidate pair (sparse
			// candidate sets from feature filtering).
			any := false
			for li := l; li < lend && !any; li++ {
				for ri := g; ri < gend; ri++ {
					if want[cell{li, ri}] {
						any = true
						break
					}
				}
			}
			if !any {
				continue
			}
			q := hit.Question{
				ID:   b.QuestionID(),
				Kind: hit.JoinGridQ,
				Task: taskName,
			}
			q.LeftItems = append(q.LeftItems, lefts[l:lend]...)
			q.RightItems = append(q.RightItems, rights[g:gend]...)
			gh, err := b.Merge([]hit.Question{q}, 1)
			if err != nil {
				return nil, err
			}
			hits = append(hits, gh...)
		}
	}
	return hits, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// collectVotes turns assignments into per-pair yes/no votes. Grid
// answers expand to votes over every cell: selected cells vote yes,
// unselected cells vote no.
func collectVotes(hits []*hit.HIT, assignments []hit.Assignment) []combine.Vote {
	var votes []combine.Vote
	hit.ForEachAnswer(hits, assignments, func(q *hit.Question, worker string, ans hit.Answer) {
		switch q.Kind {
		case hit.JoinPairQ:
			votes = append(votes, combine.Vote{
				Question: q.ID,
				Worker:   worker,
				Value:    boolToVote(ans.Bool),
			})
		case hit.JoinGridQ:
			selected := make(map[[2]int]bool, len(ans.Pairs))
			for _, p := range ans.Pairs {
				selected[p] = true
			}
			for li, lt := range q.LeftItems {
				for ri, rt := range q.RightItems {
					key := Pair{Left: lt, Right: rt}.Key()
					votes = append(votes, combine.Vote{
						Question: key,
						Worker:   worker,
						Value:    boolToVote(selected[[2]int{li, ri}]),
					})
				}
			}
		}
	})
	return votes
}

func boolToVote(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
