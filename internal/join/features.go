package join

import (
	"fmt"
	"math/rand"
	"strings"

	"qurk/internal/combine"
	"qurk/internal/crowd"
	"qurk/internal/hit"
	"qurk/internal/relation"
	"qurk/internal/stats"
	"qurk/internal/task"
)

// Feature is one POSSIBLY-clause feature filter: a categorical generative
// task (e.g. gender) whose extracted values must match across the two
// sides of a join for a pair to remain a candidate (paper §3.2).
type Feature struct {
	// Task is the categorical extraction task.
	Task *task.Generative
	// Field is the task's output field to compare.
	Field string
}

// Name returns the feature's display name (the field).
func (f Feature) Name() string { return f.Field }

// Validate checks the feature is a categorical extraction the §3.2
// filter (and κ-based ambiguity detection) can use.
func (f Feature) Validate() error {
	if f.Task == nil {
		return fmt.Errorf("join: feature %q has no task", f.Field)
	}
	if err := f.Task.Validate(); err != nil {
		return err
	}
	fld, ok := f.Task.Field(f.Field)
	if !ok {
		return fmt.Errorf("join: task %s has no field %q", f.Task.Name, f.Field)
	}
	if fld.Response.Kind != task.RadioResponse {
		return fmt.Errorf("join: feature %q is not categorical; κ-based ambiguity detection requires categorical features (paper §3.2)", f.Field)
	}
	return nil
}

// ExtractOptions configures a feature-extraction pass.
type ExtractOptions struct {
	// Combined asks all features about a tuple in one interface
	// (paper §3.3.4's combined trials); otherwise one interface per
	// feature.
	Combined bool
	// BatchSize merges several tuples per HIT (paper used 4–5).
	BatchSize int
	// Assignments is votes per question (default 5).
	Assignments int
	// Combiner merges votes (default MajorityVote, as in §3.3.4).
	Combiner combine.Combiner
	// GroupID labels the HIT group.
	GroupID string
}

func (o *ExtractOptions) fillDefaults() {
	if o.BatchSize == 0 {
		o.BatchSize = 4
	}
	if o.Assignments == 0 {
		o.Assignments = 5
	}
	if o.Combiner == nil {
		o.Combiner = combine.MajorityVote{}
	}
	if o.GroupID == "" {
		o.GroupID = "extract"
	}
}

// Extraction holds combined feature values for one relation.
type Extraction struct {
	// Relation is the extracted table.
	Relation *relation.Relation
	// Values maps tuple key → feature name → combined value
	// ("UNKNOWN" is a legal value and matches everything).
	Values map[uint64]map[string]string
	// Matrices holds the per-feature rating matrices for κ.
	Matrices map[string]*stats.RatingMatrix
	// HITCount is the HITs this pass posted.
	HITCount int
	// AssignmentCount is total assignments.
	AssignmentCount int
	// Votes are the raw categorical votes (question = "feat|<field>|<key>").
	Votes []combine.Vote
}

// Value returns the combined value of a feature for a tuple.
func (e *Extraction) Value(t relation.Tuple, feature string) (string, bool) {
	m, ok := e.Values[t.Key()]
	if !ok {
		return "", false
	}
	v, ok := m[feature]
	return v, ok
}

// Kappa computes Fleiss' κ for one feature's votes — the paper's
// ambiguity signal (Table 4).
func (e *Extraction) Kappa(feature string) (float64, error) {
	m, ok := e.Matrices[feature]
	if !ok {
		return 0, fmt.Errorf("join: no votes for feature %q", feature)
	}
	return m.FleissKappa()
}

// KappaSample estimates κ from repeated random subject samples, as the
// paper does with 50 draws of 25% of celebrities (Table 4).
func (e *Extraction) KappaSample(feature string, samples int, frac float64, rng *rand.Rand) (mean, std float64, err error) {
	m, ok := e.Matrices[feature]
	if !ok {
		return 0, 0, fmt.Errorf("join: no votes for feature %q", feature)
	}
	return m.KappaSampler(samples, frac, false, rng.Intn)
}

// Extract runs the feature-extraction linear pass over a relation.
func Extract(rel *relation.Relation, features []Feature, opts ExtractOptions, market crowd.Marketplace) (*Extraction, error) {
	opts.fillDefaults()
	if len(features) == 0 {
		return nil, fmt.Errorf("join: no features to extract")
	}
	for _, f := range features {
		if err := f.Validate(); err != nil {
			return nil, err
		}
	}

	b := hit.NewBuilder(opts.GroupID, opts.Assignments, 1)
	var hits []*hit.HIT
	if opts.Combined {
		perTuple := make([][]hit.Question, 0, rel.Len())
		for i := 0; i < rel.Len(); i++ {
			qs := make([]hit.Question, len(features))
			for j, f := range features {
				qs[j] = hit.Question{
					Kind:   hit.GenerativeQ,
					Task:   f.Task.Name,
					Tuple:  rel.Row(i),
					Fields: []string{f.Field},
				}
			}
			perTuple = append(perTuple, qs)
		}
		var err error
		hits, err = b.Combine(perTuple, opts.BatchSize)
		if err != nil {
			return nil, err
		}
	} else {
		for _, f := range features {
			qs := make([]hit.Question, rel.Len())
			for i := 0; i < rel.Len(); i++ {
				qs[i] = hit.Question{
					ID:     b.QuestionID(),
					Kind:   hit.GenerativeQ,
					Task:   f.Task.Name,
					Tuple:  rel.Row(i),
					Fields: []string{f.Field},
				}
			}
			fh, err := b.Merge(qs, opts.BatchSize)
			if err != nil {
				return nil, err
			}
			hits = append(hits, fh...)
		}
	}

	run, err := market.Run(&hit.Group{ID: opts.GroupID, HITs: hits})
	if err != nil {
		return nil, err
	}

	tally, err := NewKappaTally(features, rel.Len())
	if err != nil {
		return nil, err
	}
	ext := &Extraction{
		Relation:        rel,
		Values:          make(map[uint64]map[string]string, rel.Len()),
		Matrices:        tally.Matrices,
		HITCount:        len(hits),
		AssignmentCount: run.TotalAssignments,
	}
	subjectIdx := make(map[uint64]int, rel.Len())
	for i := 0; i < rel.Len(); i++ {
		subjectIdx[rel.Row(i).Key()] = i
	}

	hit.ForEachAnswer(hits, run.Assignments, func(q *hit.Question, worker string, ans hit.Answer) {
		subj, ok := subjectIdx[q.Tuple.Key()]
		if !ok {
			return
		}
		for field, raw := range ans.Fields {
			if _, ok := tally.Matrices[field]; !ok {
				continue
			}
			ext.Votes = append(ext.Votes, combine.Vote{Question: voteKey(field, q.Tuple.Key()), Worker: worker, Value: raw})
			if aerr := tally.Add(subj, field, raw); aerr != nil && err == nil {
				err = aerr
			}
		}
	})
	if err != nil {
		return nil, err
	}

	// Combine votes into per-tuple values.
	decisions, err := opts.Combiner.Combine(ext.Votes)
	if err != nil {
		return nil, err
	}
	for i := 0; i < rel.Len(); i++ {
		key := rel.Row(i).Key()
		vals := make(map[string]string, len(features))
		for _, f := range features {
			if d, ok := decisions[voteKey(f.Field, key)]; ok {
				vals[f.Field] = d.Value
			} else {
				vals[f.Field] = "UNKNOWN"
			}
		}
		ext.Values[key] = vals
	}
	return ext, nil
}

// KappaTally accumulates categorical extraction votes into per-feature
// subject × option rating matrices — the input of Extraction.Kappa.
type KappaTally struct {
	// Matrices maps feature field → its rating matrix.
	Matrices map[string]*stats.RatingMatrix
	// cats maps field → option (as written and upper-cased) → category.
	cats map[string]map[string]int
}

// NewKappaTally allocates one rating matrix per feature over subjects
// tuples.
func NewKappaTally(features []Feature, subjects int) (*KappaTally, error) {
	k := &KappaTally{
		Matrices: make(map[string]*stats.RatingMatrix, len(features)),
		cats:     make(map[string]map[string]int, len(features)),
	}
	for _, f := range features {
		fld, _ := f.Task.Field(f.Field)
		cats := make(map[string]int, len(fld.Response.Options))
		for i, o := range fld.Response.Options {
			cats[strings.ToUpper(o)] = i
			cats[o] = i
		}
		k.cats[f.Field] = cats
		m, err := stats.NewRatingMatrix(subjects, len(fld.Response.Options))
		if err != nil {
			return nil, err
		}
		k.Matrices[f.Field] = m
	}
	return k, nil
}

// Add records one worker's raw answer for a subject's feature; answers
// outside the feature's options (UNKNOWN, free text) are not ratings.
func (k *KappaTally) Add(subject int, field, raw string) error {
	cat, ok := k.cats[field][raw]
	if !ok {
		return nil
	}
	return k.Matrices[field].Add(subject, cat)
}

func voteKey(field string, tupleKey uint64) string {
	return fmt.Sprintf("feat|%s|%x", field, tupleKey)
}

// PairPasses reports whether a pair survives all feature filters:
// values must match or be UNKNOWN on either side (paper §2.4).
func PairPasses(le, re *Extraction, left, right relation.Tuple, features []string) bool {
	for _, f := range features {
		lv, lok := le.Value(left, f)
		rv, rok := re.Value(right, f)
		if !lok || !rok {
			continue // unextracted features cannot prune
		}
		if strings.EqualFold(lv, "UNKNOWN") || strings.EqualFold(rv, "UNKNOWN") {
			continue
		}
		if lv != rv {
			return false
		}
	}
	return true
}

// FilteredSeq streams the feature-compatible subset of the cross
// product in row-major order, without materializing the O(|R|·|S|)
// candidate slice — survivors flow straight into HIT batching.
func FilteredSeq(left, right *relation.Relation, le, re *Extraction, features []string) PairSeq {
	return func(yield func(Pair) bool) {
		for i := 0; i < left.Len(); i++ {
			for j := 0; j < right.Len(); j++ {
				if PairPasses(le, re, left.Row(i), right.Row(j), features) {
					if !yield(Pair{LeftIndex: i, RightIndex: j, Left: left.Row(i), Right: right.Row(j)}) {
						return
					}
				}
			}
		}
	}
}

// FilteredPairs prunes the cross product to feature-compatible pairs.
// Prefer FilteredSeq for large inputs; this materializes the slice.
func FilteredPairs(left, right *relation.Relation, le, re *Extraction, features []string) []Pair {
	return CollectPairs(FilteredSeq(left, right, le, re, features))
}

// EmpiricalSelectivity returns the fraction of cross-product pairs that
// survive the given features — the σ of §3.2 measured on data rather
// than estimated from independence.
func EmpiricalSelectivity(left, right *relation.Relation, le, re *Extraction, features []string) float64 {
	total := left.Len() * right.Len()
	if total == 0 {
		return 0
	}
	survivors := 0
	FilteredSeq(left, right, le, re, features)(func(Pair) bool {
		survivors++
		return true
	})
	return float64(survivors) / float64(total)
}

// SelectionConfig holds the thresholds for automatic feature selection
// (paper §3.2's three discard cases).
type SelectionConfig struct {
	// MaxSelectivity discards features that barely prune (case 1):
	// a feature whose σ exceeds this keeps too many pairs to pay for
	// its extraction pass (default 0.9).
	MaxSelectivity float64
	// MaxResultLoss discards features whose filter would drop more
	// than this fraction of sample join results (case 2: the feature
	// "doesn't actually guarantee that two entities will not join").
	// Default 0.05.
	MaxResultLoss float64
	// MinKappa discards ambiguous features (case 3): κ below this
	// means workers can't agree on the value (default 0.5).
	MinKappa float64
	// SampleFrac is the fraction of each table sampled for the
	// selectivity and result-loss estimates (default 0.25).
	SampleFrac float64
	// Seed drives sampling.
	Seed int64
}

func (c *SelectionConfig) fillDefaults() {
	if c.MaxSelectivity == 0 {
		c.MaxSelectivity = 0.9
	}
	if c.MaxResultLoss == 0 {
		c.MaxResultLoss = 0.05
	}
	if c.MinKappa == 0 {
		c.MinKappa = 0.5
	}
	if c.SampleFrac == 0 {
		c.SampleFrac = 0.25
	}
}

// FeatureVerdict explains one feature's selection decision.
type FeatureVerdict struct {
	Feature     string
	Kappa       float64
	Selectivity float64
	ResultLoss  float64
	Kept        bool
	Reason      string
}

// ChooseFeatures applies the paper's three pruning criteria against a
// reference match set (typically from a sample join) and returns the
// features worth keeping plus a verdict per feature.
//
// referenceMatches are pairs believed to truly join (e.g. the result of
// a crowd join on a sample without filters). For each feature f, the
// result loss is |j(f−) − j(f+)| / |j(f−)| computed over that set —
// matches killed by adding f to the other filters.
func ChooseFeatures(left, right *relation.Relation, le, re *Extraction,
	features []Feature, referenceMatches []Pair, cfg SelectionConfig) ([]Feature, []FeatureVerdict, error) {
	cfg.fillDefaults()
	names := make([]string, len(features))
	for i, f := range features {
		names[i] = f.Field
	}
	var kept []Feature
	var verdicts []FeatureVerdict
	for i, f := range features {
		v := FeatureVerdict{Feature: f.Field, Kept: true}
		kappa, err := le.Kappa(f.Field)
		if err != nil {
			return nil, nil, err
		}
		v.Kappa = kappa
		v.Selectivity = EmpiricalSelectivity(left, right, le, re, []string{f.Field})

		// Result loss: matches that pass all OTHER features but die
		// when f is added.
		others := make([]string, 0, len(names)-1)
		others = append(others, names[:i]...)
		others = append(others, names[i+1:]...)
		var passOthers, passAll int
		for _, m := range referenceMatches {
			if PairPasses(le, re, m.Left, m.Right, others) {
				passOthers++
				if PairPasses(le, re, m.Left, m.Right, []string{f.Field}) {
					passAll++
				}
			}
		}
		if passOthers > 0 {
			v.ResultLoss = float64(passOthers-passAll) / float64(passOthers)
		}

		switch {
		case v.Kappa < cfg.MinKappa:
			v.Kept = false
			v.Reason = fmt.Sprintf("ambiguous: κ=%.2f < %.2f", v.Kappa, cfg.MinKappa)
		case v.ResultLoss > cfg.MaxResultLoss:
			v.Kept = false
			v.Reason = fmt.Sprintf("drops %.0f%% of sample join results", v.ResultLoss*100)
		case v.Selectivity > cfg.MaxSelectivity:
			v.Kept = false
			v.Reason = fmt.Sprintf("not selective: σ=%.2f > %.2f", v.Selectivity, cfg.MaxSelectivity)
		default:
			v.Reason = "kept"
		}
		if v.Kept {
			kept = append(kept, f)
		}
		verdicts = append(verdicts, v)
	}
	return kept, verdicts, nil
}

// SamplePairs draws a uniform sample of the cross product for selection
// estimates (paper §3.2 runs filters "on a small sample of the data
// set"). Reservoir sampling over the streamed cross product keeps
// memory at O(sample) instead of O(|R|·|S|).
func SamplePairs(left, right *relation.Relation, frac float64, rng *rand.Rand) []Pair {
	total := left.Len() * right.Len()
	if total == 0 {
		return nil
	}
	if frac >= 1 {
		return CrossPairs(left, right)
	}
	n := int(frac * float64(total))
	if n < 1 {
		n = 1
	}
	reservoir := make([]Pair, 0, n)
	seen := 0
	CrossSeq(left, right)(func(p Pair) bool {
		if len(reservoir) < n {
			reservoir = append(reservoir, p)
		} else if j := rng.Intn(seen + 1); j < n {
			reservoir[j] = p
		}
		seen++
		return true
	})
	return reservoir
}
