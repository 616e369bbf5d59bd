// Package combine merges multiple worker responses to the same question
// into one answer (paper §2.1, §3.3.2). It provides the paper's two
// categorical combiners — MajorityVote and QualityAdjust (the Ipeirotis
// et al. EM algorithm over Dawid & Skene worker confusion matrices, with
// asymmetric misclassification costs) — plus mean/median combiners for
// ratings.
package combine

import (
	"fmt"
)

// Vote is one worker's categorical response to one question.
type Vote struct {
	// Question identifies the question being answered.
	Question string
	// Worker identifies the responder; QualityAdjust models per-worker
	// confusion, so worker identity matters.
	Worker string
	// Value is the categorical response (already normalized).
	Value string
}

// Decision is the combined answer for one question.
type Decision struct {
	// Value is the chosen category.
	Value string
	// Confidence is the combiner's posterior/empirical support for the
	// chosen value in [0,1].
	Confidence float64
	// Votes is the number of votes considered.
	Votes int
}

// Combiner merges categorical votes, producing one decision per question.
type Combiner interface {
	// Combine groups votes by question and resolves each.
	Combine(votes []Vote) (map[string]Decision, error)
	// Name returns the registry name ("MajorityVote", "QualityAdjust").
	Name() string
}

// PerQuestion marks combiners whose decision for a question depends
// only on that question's own votes. Streaming operators may hand such
// combiners votes one HIT at a time and merge the partial decision maps
// — the result is identical to one Combine call over all votes.
// MajorityVote qualifies; QualityAdjust (EM over the full vote matrix)
// and GoldScreen (ban state spans questions) do not, so operators using
// them must buffer every vote and combine once at end of stream.
type PerQuestion interface {
	// CombinesPerQuestion is a marker method.
	CombinesPerQuestion()
}

// IsPerQuestion reports whether c may be applied incrementally, one
// disjoint vote subset at a time.
func IsPerQuestion(c Combiner) bool {
	_, ok := c.(PerQuestion)
	return ok
}

// groupByQuestion buckets votes preserving insertion order of questions.
func groupByQuestion(votes []Vote) (order []string, byQ map[string][]Vote) {
	byQ = make(map[string][]Vote)
	for _, v := range votes {
		if _, ok := byQ[v.Question]; !ok {
			order = append(order, v.Question)
		}
		byQ[v.Question] = append(byQ[v.Question], v)
	}
	return order, byQ
}

// MajorityVote returns the most popular answer per question (paper §2.1).
// Ties break lexicographically smallest-first for determinism.
type MajorityVote struct{}

// CombinesPerQuestion implements PerQuestion: each question's majority
// is computed from that question's votes alone.
func (MajorityVote) CombinesPerQuestion() {}

// Name implements Combiner.
func (MajorityVote) Name() string { return "MajorityVote" }

// Combine implements Combiner.
func (MajorityVote) Combine(votes []Vote) (map[string]Decision, error) {
	if len(votes) == 0 {
		return map[string]Decision{}, nil
	}
	// Streaming operators decide one question per call (a slot's own
	// vote run); skip the grouping map on that shape.
	single := true
	for i := 1; i < len(votes); i++ {
		if votes[i].Question != votes[0].Question {
			single = false
			break
		}
	}
	if single {
		return map[string]Decision{votes[0].Question: majorityDecision(votes)}, nil
	}
	_, byQ := groupByQuestion(votes)
	out := make(map[string]Decision, len(byQ))
	for q, vs := range byQ {
		out[q] = majorityDecision(vs)
	}
	return out, nil
}

// majorityDecision resolves one question's votes: most popular value,
// lexicographically smallest on ties. Typical runs are one HIT's worth
// of assignments, so values count in fixed arrays; runs with more
// distinct values than the arrays hold fall back to a map.
func majorityDecision(vs []Vote) Decision {
	var vals [8]string
	var counts [8]int
	n := 0
	for _, v := range vs {
		found := false
		for i := 0; i < n; i++ {
			if vals[i] == v.Value {
				counts[i]++
				found = true
				break
			}
		}
		if found {
			continue
		}
		if n == len(vals) {
			return majorityDecisionMap(vs)
		}
		vals[n], counts[n] = v.Value, 1
		n++
	}
	best, bestN := "", -1
	for i := 0; i < n; i++ {
		if counts[i] > bestN || (counts[i] == bestN && vals[i] < best) {
			best, bestN = vals[i], counts[i]
		}
	}
	return Decision{Value: best, Confidence: float64(bestN) / float64(len(vs)), Votes: len(vs)}
}

func majorityDecisionMap(vs []Vote) Decision {
	counts := map[string]int{}
	for _, v := range vs {
		counts[v.Value]++
	}
	best, bestN := "", -1
	for val, c := range counts {
		if c > bestN || (c == bestN && val < best) {
			best, bestN = val, c
		}
	}
	return Decision{Value: best, Confidence: float64(bestN) / float64(len(vs)), Votes: len(vs)}
}

// BoolVote maps a boolean answer onto the categorical yes/no vote
// vocabulary the combiners above consume. Shared by the operators so
// the mapping cannot drift between execution paths that feed the same
// answer store.
func BoolVote(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// WeightedMajority resolves a yes/no question with asymmetric vote
// weights; the paper's join identification "if the number of positive
// votes outweighs the negative votes" is the w=1 case.
func WeightedMajority(yes, no int, yesWeight float64) bool {
	return float64(yes)*yesWeight > float64(no)
}

// Registry resolves combiner names from task definitions.
func Lookup(name string) (Combiner, error) {
	switch normalizeName(name) {
	case "", "majorityvote":
		return MajorityVote{}, nil
	case "qualityadjust":
		return NewQualityAdjust(DefaultQAConfig()), nil
	default:
		return nil, fmt.Errorf("combine: unknown combiner %q", name)
	}
}

func normalizeName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r == '_' || r == '-' || r == ' ' {
			continue
		}
		if 'A' <= r && r <= 'Z' {
			r += 'a' - 'A'
		}
		out = append(out, r)
	}
	return string(out)
}
