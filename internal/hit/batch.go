package hit

import (
	"fmt"
	"strconv"
)

// This file implements the paper's two batching optimizations (§2.6):
//
//   - merging: one HIT applies a given task to multiple tuples
//     ("we generate a single HIT that applies a given task (operator)
//     to multiple tuples")
//   - combining: one HIT applies several tasks to the same tuple
//     ("generally only filters and generative tasks")
//
// plus the join- and sort-specific batch layouts from §3.1 and §4.1.

// Builder mints HITs with sequential IDs inside one group.
type Builder struct {
	groupID     string
	assignments int
	rewardCents float64
	nextHIT     int
	nextQ       int
}

// NewBuilder creates a builder for one HIT group. assignments is the
// number of workers per HIT (paper default 5); rewardCents the pay per
// assignment (paper: 1¢).
func NewBuilder(groupID string, assignments int, rewardCents float64) *Builder {
	return &Builder{groupID: groupID, assignments: assignments, rewardCents: rewardCents}
}

// MintID formats "<group>/<tag><n zero-padded to width digits>",
// byte-identical to fmt.Sprintf("%s/%s%0*d", group, tag, width, n) but
// in one allocation. Counter IDs are minted per question and per
// simulated assignment, so the mint is hot in simulator-bound profiles.
func MintID(group, tag string, n, width int) string {
	var num [20]byte
	d := strconv.AppendInt(num[:0], int64(n), 10)
	pad := width - len(d)
	if pad < 0 {
		pad = 0
	}
	b := make([]byte, 0, len(group)+1+len(tag)+pad+len(d))
	b = append(b, group...)
	b = append(b, '/')
	b = append(b, tag...)
	for ; pad > 0; pad-- {
		b = append(b, '0')
	}
	b = append(b, d...)
	return string(b)
}

// newHIT allocates an empty HIT of the given kind.
func (b *Builder) newHIT(kind Kind) *HIT {
	b.nextHIT++
	return &HIT{
		ID:          MintID(b.groupID, "hit", b.nextHIT, 4),
		GroupID:     b.groupID,
		Kind:        kind,
		Assignments: b.assignments,
		RewardCents: b.rewardCents,
	}
}

// QuestionID mints a fresh question ID. Exposed so operators can create
// stable IDs tied to their own bookkeeping.
func (b *Builder) QuestionID() string {
	b.nextQ++
	return MintID(b.groupID, "q", b.nextQ, 5)
}

// Merge batches a flat list of single-subject questions (FilterQ,
// GenerativeQ, RateQ, JoinPairQ, CompareQ) into HITs of at most
// batchSize questions each — the paper's merging optimization. A
// batchSize ≤ 1 yields one question per HIT (the unbatched interfaces).
func (b *Builder) Merge(questions []Question, batchSize int) ([]*HIT, error) {
	if len(questions) == 0 {
		return nil, nil
	}
	if batchSize < 1 {
		batchSize = 1
	}
	kind := questions[0].Kind
	hits := make([]*HIT, 0, (len(questions)+batchSize-1)/batchSize)
	for start := 0; start < len(questions); start += batchSize {
		end := start + batchSize
		if end > len(questions) {
			end = len(questions)
		}
		h := b.newHIT(kind)
		h.Questions = make([]Question, 0, end-start)
		for _, q := range questions[start:end] {
			if q.Kind != kind {
				return nil, fmt.Errorf("hit: cannot merge %s question into %s HIT", q.Kind, kind)
			}
			if q.ID == "" {
				q.ID = b.QuestionID()
			}
			h.Questions = append(h.Questions, q)
		}
		if err := h.Validate(); err != nil {
			return nil, err
		}
		hits = append(hits, h)
	}
	return hits, nil
}

// CombinedQuestion folds several tasks' questions over the *same*
// tuple into one composite generative question with the given ID — the
// paper's combining optimization (§3.3.4). All inputs must be
// GenerativeQ over one tuple; the composite carries the union of
// fields and the concatenated task names, and per-field answers route
// back by field name. Exported so streaming callers can mint composite
// IDs tied to their own bookkeeping instead of the builder's counter.
func CombinedQuestion(id string, qs []Question) (Question, error) {
	if len(qs) == 0 {
		return Question{}, fmt.Errorf("hit: no questions to combine")
	}
	first := qs[0]
	comp := Question{
		ID:    id,
		Kind:  GenerativeQ,
		Tuple: first.Tuple,
	}
	names := make([]string, 0, len(qs))
	seen := map[string]bool{}
	for _, q := range qs {
		if q.Kind != GenerativeQ {
			return Question{}, fmt.Errorf("hit: combining supports generative tasks only, got %s", q.Kind)
		}
		if q.Tuple.Schema() == nil || first.Tuple.Schema() == nil || q.Tuple.Key() != first.Tuple.Key() {
			return Question{}, fmt.Errorf("hit: combined questions must target the same tuple")
		}
		names = append(names, q.Task)
		for _, f := range q.Fields {
			if seen[f] {
				return Question{}, fmt.Errorf("hit: combined tasks share field %q", f)
			}
			seen[f] = true
			comp.Fields = append(comp.Fields, f)
		}
	}
	comp.Task = joinNames(names)
	return comp, nil
}

// Combine batches several tasks over the *same* tuple into one composite
// generative question per tuple — the paper's combining optimization used
// by feature extraction ("we asked workers to provide all three features
// at once", §3.3.4). questionsPerTuple[i] lists each task's question for
// tuple i; see CombinedQuestion for the composite's shape.
func (b *Builder) Combine(questionsPerTuple [][]Question, mergeBatch int) ([]*HIT, error) {
	var combined []Question
	for i, qs := range questionsPerTuple {
		if len(qs) == 0 {
			return nil, fmt.Errorf("hit: tuple %d has no questions to combine", i)
		}
		comp, err := CombinedQuestion(b.QuestionID(), qs)
		if err != nil {
			return nil, err
		}
		combined = append(combined, comp)
	}
	return b.Merge(combined, mergeBatch)
}

func joinNames(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += "+"
		}
		out += n
	}
	return out
}
