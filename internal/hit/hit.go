// Package hit models Human Intelligence Tasks: the unit of work Qurk
// posts to a crowd marketplace. It implements the paper's HIT generation
// pipeline (§2.5–§2.6): batching (merging several tuples into one HIT and
// combining several tasks over one tuple), HIT groups, HTML compilation,
// and the content keys (Question.CacheKey) the answer store is
// addressed by.
package hit

import (
	"fmt"
	"sort"
	"strconv"

	"qurk/internal/relation"
)

// Kind identifies the interface a question renders as and therefore the
// shape of its answer.
type Kind uint8

const (
	// FilterQ is a yes/no question about one tuple.
	FilterQ Kind = iota
	// GenerativeQ asks for one or more field values about one tuple
	// (free text or radio). Feature extraction uses this kind.
	GenerativeQ
	// JoinPairQ shows one candidate pair with Yes/No buttons
	// (SimpleJoin; NaiveBatch merges several JoinPairQs into one HIT).
	JoinPairQ
	// JoinGridQ shows an r×s grid of items and asks the worker to click
	// matching pairs (SmartBatch).
	JoinGridQ
	// CompareQ shows a group of S items and asks for their total order
	// (comparison sort interface).
	CompareQ
	// RateQ shows one item (plus a context sample) and asks for a
	// Likert-scale rating (rating sort interface).
	RateQ
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case FilterQ:
		return "filter"
	case GenerativeQ:
		return "generative"
	case JoinPairQ:
		return "join-pair"
	case JoinGridQ:
		return "join-grid"
	case CompareQ:
		return "compare"
	case RateQ:
		return "rate"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Question is one unit of work inside a HIT. Exactly the payload fields
// implied by Kind are populated.
type Question struct {
	// ID uniquely identifies the question across a query's lifetime;
	// votes and cache entries key on it.
	ID string
	// Kind selects the interface.
	Kind Kind
	// Task is the task (UDF) name this question instantiates.
	Task string

	// Tuple is the subject for FilterQ, GenerativeQ, and RateQ.
	Tuple relation.Tuple
	// Left and Right are the pair for JoinPairQ.
	Left, Right relation.Tuple
	// LeftItems and RightItems are the grid columns for JoinGridQ.
	LeftItems, RightItems []relation.Tuple
	// Items is the comparison group for CompareQ.
	Items []relation.Tuple
	// Context is the random sample shown alongside RateQ items so
	// workers can calibrate the scale (paper §4.1.2).
	Context []relation.Tuple
	// Fields lists the generative fields requested (GenerativeQ).
	Fields []string
	// Scale is the Likert scale size for RateQ (paper uses 7).
	Scale int
}

// UnitCount returns how many "logical units of work" the question holds:
// pairs for grids, items for compare groups, 1 otherwise. The crowd
// simulator uses this to model worker effort and batch refusal.
func (q *Question) UnitCount() int {
	switch q.Kind {
	case JoinGridQ:
		return len(q.LeftItems) * len(q.RightItems)
	case CompareQ:
		return len(q.Items)
	default:
		return 1
	}
}

// CacheKey returns a stable content hash of the question (task, kind and
// all referenced tuples) for HIT result caching (paper §2.6: "first
// checks to see if the HIT is cached").
//
// The hash is canonical: tuples are hashed by their content
// (relation.Tuple.CanonicalKey — column order and alias qualifiers do
// not matter) and the generative field list is sorted before hashing,
// so the same logical question minted by two different queries (or by
// the same query over a differently-ordered projection) produces the
// same key. The cross-query answer store depends on this; keys that
// baked in incidental field ordering used to miss on map-iteration
// order. Item order inside CompareQ and JoinGridQ stays significant:
// their answers (Order permutations, Pairs cells) reference items by
// index, so reordering the items genuinely changes the question.
func (q *Question) CacheKey() uint64 {
	// Manual FNV-1a over exactly the bytes the fmt-based implementation
	// hashed; cache keys persist in the answer store, so the values must
	// never change. Covered against hash/fnv in cachekey_test.go.
	var buf [20]byte
	h := relation.HashSeed()
	h = relation.HashString(h, q.Task)
	h = relation.HashByte(h, '|')
	h = relation.HashBytes(h, strconv.AppendUint(buf[:0], uint64(q.Kind), 10))
	h = relation.HashByte(h, '|')
	writeTuple := func(t relation.Tuple) {
		if t.Schema() != nil {
			h = relation.HashBytes(h, strconv.AppendUint(buf[:0], t.CanonicalKey(), 16))
			h = relation.HashByte(h, ';')
		}
	}
	writeTuple(q.Tuple)
	writeTuple(q.Left)
	writeTuple(q.Right)
	for _, t := range q.LeftItems {
		writeTuple(t)
	}
	h = relation.HashByte(h, '/')
	for _, t := range q.RightItems {
		writeTuple(t)
	}
	h = relation.HashByte(h, '/')
	for _, t := range q.Items {
		writeTuple(t)
	}
	fields := q.Fields
	if len(fields) > 1 && !sort.StringsAreSorted(fields) {
		fields = append([]string(nil), fields...)
		sort.Strings(fields)
	}
	h = relation.HashByte(h, '|')
	for i, f := range fields {
		if i > 0 {
			h = relation.HashByte(h, ',')
		}
		h = relation.HashString(h, f)
	}
	h = relation.HashByte(h, '|')
	h = relation.HashBytes(h, strconv.AppendInt(buf[:0], int64(q.Scale), 10))
	return h
}

// HIT is a batched set of questions posted as one marketplace unit.
type HIT struct {
	// ID uniquely identifies the HIT.
	ID string
	// GroupID ties HITs from the same operator into one HIT group
	// (paper §2.6: Turkers gravitate to groups with many HITs).
	GroupID string
	// Kind is the shared kind of all questions in the HIT.
	Kind Kind
	// Questions are the merged batch.
	Questions []Question
	// Assignments is the number of distinct workers requested
	// (paper default: 5).
	Assignments int
	// RewardCents is the payment per assignment (paper: 1¢ plus the
	// 0.5¢ Amazon commission accounted in internal/cost).
	RewardCents float64
}

// Units returns the total logical units of work in the HIT.
func (h *HIT) Units() int {
	n := 0
	for i := range h.Questions {
		n += h.Questions[i].UnitCount()
	}
	return n
}

// Validate checks HIT invariants.
func (h *HIT) Validate() error {
	if h.ID == "" {
		return fmt.Errorf("hit: missing ID")
	}
	if len(h.Questions) == 0 {
		return fmt.Errorf("hit %s: no questions", h.ID)
	}
	if h.Assignments <= 0 {
		return fmt.Errorf("hit %s: assignments must be positive", h.ID)
	}
	for i := range h.Questions {
		q := &h.Questions[i]
		if q.ID == "" {
			return fmt.Errorf("hit %s: question %d missing ID", h.ID, i)
		}
		switch q.Kind {
		case JoinGridQ:
			if len(q.LeftItems) == 0 || len(q.RightItems) == 0 {
				return fmt.Errorf("hit %s: grid question %s has empty side", h.ID, q.ID)
			}
		case CompareQ:
			if len(q.Items) < 2 {
				return fmt.Errorf("hit %s: compare question %s has <2 items", h.ID, q.ID)
			}
		case RateQ:
			if q.Scale < 2 {
				return fmt.Errorf("hit %s: rate question %s has scale %d", h.ID, q.ID, q.Scale)
			}
		}
	}
	return nil
}

// Answer is a worker's response to one question.
type Answer struct {
	// QuestionID echoes Question.ID.
	QuestionID string
	// Bool is the response for FilterQ and JoinPairQ.
	Bool bool
	// Fields maps generative field name to the (raw, un-normalized)
	// response for GenerativeQ.
	Fields map[string]string
	// Pairs lists matched (leftIndex, rightIndex) grid cells for
	// JoinGridQ. Empty means the worker checked "no matches".
	Pairs [][2]int
	// Order is the worker's ranking for CompareQ: a permutation of
	// item indices from least to most.
	Order []int
	// Rating is the Likert response for RateQ (1..Scale).
	Rating int
}

// CachedAnswer is one worker's answer to a question, detached from its
// assignment: the unit answer stores keep and replay, and the vote set
// a poster resolves each question with.
type CachedAnswer struct {
	WorkerID string
	Answer   Answer
}

// Assignment is one worker's completed pass over one HIT.
type Assignment struct {
	// ID uniquely identifies the assignment.
	ID string
	// HITID references the HIT.
	HITID string
	// WorkerID identifies the (simulated) worker.
	WorkerID string
	// Answers holds one answer per question, in question order.
	Answers []Answer
	// SubmitHours is the completion time in hours since the HIT group
	// was posted (drives the paper's Fig. 4 latency percentiles).
	SubmitHours float64
}

// Group is a posted HIT group plus bookkeeping the marketplace returns.
type Group struct {
	ID   string
	HITs []*HIT
}

// TotalHITs is a convenience for cost accounting.
func (g *Group) TotalHITs() int { return len(g.HITs) }

// SortAssignments orders assignments deterministically (by HIT then
// worker), which keeps downstream EM combiners reproducible.
func SortAssignments(as []Assignment) {
	sort.Slice(as, func(i, j int) bool {
		if as[i].HITID != as[j].HITID {
			return as[i].HITID < as[j].HITID
		}
		return as[i].WorkerID < as[j].WorkerID
	})
}

// ForEachAnswer routes every completed assignment's answers back to
// their questions: visit is called once per (question, worker, answer)
// triple, in assignment order, skipping assignments for unknown HITs
// and answers beyond a HIT's question count. Four operators collect
// votes from assignments; sharing the routing loop keeps their
// truncation and unknown-HIT handling from drifting apart.
func ForEachAnswer(hits []*HIT, assignments []Assignment, visit func(q *Question, workerID string, ans Answer)) {
	qByHIT := make(map[string]*HIT, len(hits))
	for _, h := range hits {
		qByHIT[h.ID] = h
	}
	for ai := range assignments {
		a := &assignments[ai]
		h := qByHIT[a.HITID]
		if h == nil {
			continue
		}
		for i := range a.Answers {
			if i >= len(h.Questions) {
				break
			}
			visit(&h.Questions[i], a.WorkerID, a.Answers[i])
		}
	}
}
