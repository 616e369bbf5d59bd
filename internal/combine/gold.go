package combine

import (
	"fmt"
	"sort"
)

// GoldScreen wraps a combiner with gold-standard screening, the
// CrowdFlower-style quality mechanism the paper's related work describes
// (§7: "require gold standard data with which to test worker quality,
// and ban workers who perform poorly on the gold standard").
//
// Gold questions are planted among real ones; a worker whose accuracy on
// the gold set falls below MinAccuracy has all their votes discarded
// before the inner combiner runs.
type GoldScreen struct {
	// Gold maps planted question IDs to their known answers.
	Gold map[string]string
	// MinAccuracy is the ban threshold (default 0.6).
	MinAccuracy float64
	// MinGoldVotes is how many gold answers a worker must have before
	// they can be judged (default 3); workers with fewer pass through.
	MinGoldVotes int
	// Inner resolves the surviving votes (default MajorityVote).
	Inner Combiner

	banned []string
}

// NewGoldScreen builds a screen over gold answers.
func NewGoldScreen(gold map[string]string, inner Combiner) *GoldScreen {
	return &GoldScreen{Gold: gold, Inner: inner}
}

// Name implements Combiner.
func (g *GoldScreen) Name() string { return "GoldScreen" }

// Banned lists workers dropped in the last Combine call, sorted.
func (g *GoldScreen) Banned() []string {
	out := make([]string, len(g.banned))
	copy(out, g.banned)
	return out
}

// Combine implements Combiner: score workers on gold questions, drop
// failing workers' votes everywhere, strip the gold questions from the
// output, and delegate the rest.
func (g *GoldScreen) Combine(votes []Vote) (map[string]Decision, error) {
	if len(g.Gold) == 0 {
		return nil, fmt.Errorf("combine: gold screen has no gold questions")
	}
	minAcc := g.MinAccuracy
	if minAcc == 0 {
		minAcc = 0.6
	}
	minVotes := g.MinGoldVotes
	if minVotes == 0 {
		minVotes = 3
	}
	inner := g.Inner
	if inner == nil {
		inner = MajorityVote{}
	}

	type score struct{ right, total int }
	perWorker := map[string]*score{}
	for _, v := range votes {
		want, isGold := g.Gold[v.Question]
		if !isGold {
			continue
		}
		s := perWorker[v.Worker]
		if s == nil {
			s = &score{}
			perWorker[v.Worker] = s
		}
		s.total++
		if v.Value == want {
			s.right++
		}
	}
	bannedSet := map[string]bool{}
	for w, s := range perWorker {
		if s.total >= minVotes && float64(s.right)/float64(s.total) < minAcc {
			bannedSet[w] = true
		}
	}
	g.banned = g.banned[:0]
	for w := range bannedSet {
		g.banned = append(g.banned, w)
	}
	sort.Strings(g.banned)

	kept := make([]Vote, 0, len(votes))
	for _, v := range votes {
		if bannedSet[v.Worker] {
			continue
		}
		if _, isGold := g.Gold[v.Question]; isGold {
			continue
		}
		kept = append(kept, v)
	}
	return inner.Combine(kept)
}
