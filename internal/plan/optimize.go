// Cost-based operator selection (paper §2.6: "the objective is to
// minimize the total number of HITs"). Optimize walks a logical plan,
// propagates cardinality estimates from the base relations, prices
// every interface alternative for each crowd operator — join
// Simple/NaiveBatch/SmartBatch with batch and grid shapes, POSSIBLY
// feature pre-filtering on or off, sort Compare/Rate/Hybrid with
// iteration counts — and annotates the nodes with the cheapest
// alternative (in HITs) whose estimated answer quality clears a floor,
// downgrading choices and per-operator assignment counts to fit a
// total dollar budget. A node that arrives annotated (by Pin, or by an
// earlier pass) is pinned: it is priced as its only alternative and
// keeps its annotation, so pricing a pinned tree estimates exactly the
// plan the executor will run.
package plan

import (
	"fmt"
	"math"
	"strings"

	"qurk/internal/adaptive"
	"qurk/internal/core"
	"qurk/internal/cost"
	"qurk/internal/join"
	"qurk/internal/obstats"
	"qurk/internal/sortop"
	"qurk/internal/task"
)

// StatsSource supplies observed per-task statistics from prior runs
// (selectivities, POSSIBLY pass fractions, sort group sizes — the
// obstats.Kind* constants). core.ObservedStats satisfies it, so an
// engine's ObStats store plugs in directly; nil disables seeding and
// prices plans from the paper's fixed constants exactly as before.
type StatsSource interface {
	// Estimate returns the weighted mean and total weight for one
	// (task, kind), or ok=false when nothing was ever observed.
	Estimate(task, kind string) (value, weight float64, ok bool)
}

// CardSource supplies base-relation cardinalities. relation.Catalog
// implements it; tests use a map.
type CardSource interface {
	// Cardinality returns a base table's row count, false when unknown.
	Cardinality(table string) (int, bool)
}

// CardMap is a literal CardSource for tests and Explain-before-load.
type CardMap map[string]int

// Cardinality implements CardSource (case-insensitive).
func (m CardMap) Cardinality(table string) (int, bool) {
	n, ok := m[strings.ToLower(table)]
	return n, ok
}

// OptimizeOptions parametrizes the pass. Zero values take the engine's
// defaults, so OptimizeOptions{} prices plans with the options a
// default engine runs.
type OptimizeOptions struct {
	// Options are the engine options the pass prices with; zero fields
	// take core's defaults. Assignments is the default (and maximum)
	// workers per HIT, and the batch sizes and sort parameters shape
	// every alternative. JoinBatch seeds the NaiveBatch candidates b and
	// 2b, and GridRows×GridCols the SmartBatch candidates alongside 5×5.
	core.Options
	// BudgetDollars is the total spend allowed for the plan's crowd
	// work; 0 means unconstrained.
	BudgetDollars float64
	// MinQuality is the per-answer accuracy floor an alternative must
	// clear to be eligible outside budget pressure (default 0.85).
	MinQuality float64
	// DefaultRows stands in for unknown base-table cardinalities
	// (default 100); a note records the guess.
	DefaultRows int
	// Selectivity estimates for operators whose output size cannot be
	// known before running (defaults 0.5). JoinSelectivity 0 means
	// 1/max(|R|,|S|) — the equijoin-style "each row matches about one
	// partner" estimate.
	FilterSelectivity, MachineSelectivity, PossiblySelectivity, JoinSelectivity float64
	// Stats, when non-nil, seeds selectivity / pass-fraction /
	// group-size estimates from observed history: each estimate is the
	// fixed prior blended toward the store's weighted mean
	// (cost.BlendObserved), and a note records every seeded value.
	Stats StatsSource
}

func (o *OptimizeOptions) fillDefaults() {
	o.Options.FillDefaults()
	if o.MinQuality == 0 {
		o.MinQuality = 0.85
	}
	if o.DefaultRows == 0 {
		o.DefaultRows = 100
	}
	if o.FilterSelectivity == 0 {
		o.FilterSelectivity = 0.5
	}
	if o.MachineSelectivity == 0 {
		o.MachineSelectivity = 0.5
	}
	if o.PossiblySelectivity == 0 {
		o.PossiblySelectivity = 0.5
	}
}

// OptimizeOptionsFrom seeds the pass from engine options plus a budget.
func OptimizeOptionsFrom(eo core.Options, budgetDollars float64) OptimizeOptions {
	return OptimizeOptions{Options: eo, BudgetDollars: budgetDollars}
}

// OpCost is one crowd operator's costed choice.
type OpCost struct {
	// Node is the annotated plan node.
	Node Node
	// Label is the node's Explain label; Choice the chosen interface.
	Label, Choice string
	// Detail records the cardinality reasoning ("pairs 900, sel 0.033").
	Detail string
	// HITs is the estimated HIT count (extraction included for
	// pre-filtered joins); Assignments the chosen workers per HIT.
	HITs, Assignments int
	// Dollars prices HITs×Assignments at the paper's $0.015.
	Dollars float64
	// MakespanHours estimates the operator's crowd completion time.
	MakespanHours float64
	// Quality is the estimated combined (post-vote) accuracy.
	Quality float64
	// InRows and OutRows are the cardinality estimates around the node.
	InRows, OutRows int
}

// OpActual pairs an executed operator label with its posted HITs and
// the run's observed statistics, for estimated-vs-actual rendering.
type OpActual struct {
	// Label matches the OpStat label from the executed run.
	Label string
	// HITs is the operator's actually posted HIT count.
	HITs int
	// Observed statistics measured by the executed run (exec.Stats
	// ObservedStats, or the stats store). A zero weight means the
	// statistic was not observed and its column is omitted; values with
	// weights merge as weighted means when several entries share an
	// operator.
	Selectivity, SelectivityWeight   float64
	PassFraction, PassFractionWeight float64
	GroupSize, GroupSizeWeight       float64
}

// CostedPlan is the optimizer's result: the annotated tree plus the
// estimates that justified each choice.
type CostedPlan struct {
	// Root is the annotated plan tree; exec.Run (qurk.RunPlan) executes
	// it. The engine's run paths (Client.Run, qurkd) pin their tree
	// before pricing it, so their Root is the tree they run.
	Root Node
	// Ops lists crowd operators in plan (post-) order.
	Ops []OpCost
	// TotalHITs, TotalDollars, MakespanHours sum the operator
	// estimates (makespans add serially; pipelining runs faster).
	TotalHITs int
	// TotalDollars prices TotalHITs at the chosen assignment levels.
	TotalDollars float64
	// MakespanHours is the serial crowd-time estimate.
	MakespanHours float64
	// Quality is the weakest operator's combined accuracy.
	Quality float64
	// BudgetDollars echoes the constraint; OverBudget reports that even
	// the cheapest interfaces at one assignment exceed it.
	BudgetDollars float64
	// OverBudget is set when no interface assignment satisfies the
	// budget.
	OverBudget bool
	// Notes records estimation caveats and budget downgrades.
	Notes []string
}

// segment is one HIT group within an alternative (a pre-filtered join
// has extraction segments plus the join segment).
type segment struct {
	hits   int
	effort float64
}

// alternative is one candidate interface for an operator.
type alternative struct {
	choice  string
	quality float64 // per-answer accuracy
	segs    []segment
	apply   func(assignments int)
}

func (a *alternative) hits() int {
	n := 0
	for _, s := range a.segs {
		n += s.hits
	}
	return n
}

func (a *alternative) makespan(k int) float64 {
	var t float64
	for _, s := range a.segs {
		t += cost.GroupMakespanHours(s.hits, k, s.effort)
	}
	return t
}

// opEntry is one crowd operator's alternative set during optimization.
type opEntry struct {
	node           Node
	label, detail  string
	alts           []alternative
	chosen         int
	assignments    int
	inRows, outRow int
	// pinned marks a node that arrived annotated: its one alternative
	// is the annotation, and its assignments are not negotiable.
	pinned bool
}

// pin marks the entry pinned at the annotation's assignment count.
func (e *opEntry) pin(assignments int) { e.pinned, e.assignments = true, assignments }

type optimizer struct {
	opt     OptimizeOptions
	cards   CardSource
	entries []*opEntry
	notes   []string
}

// Optimize annotates the plan with cost-chosen physical interfaces and
// returns the costed plan. The tree is annotated in place (Phys fields
// only); logical structure is untouched. Annotated nodes are pinned:
// each is priced as its only alternative — refused or below the
// quality floor included — and keeps its annotation.
func Optimize(root Node, cards CardSource, opt OptimizeOptions) (*CostedPlan, error) {
	opt.fillDefaults()
	o := &optimizer{opt: opt, cards: cards}
	if _, err := o.visit(root); err != nil {
		return nil, err
	}
	o.selectAlternatives()
	over := o.fitBudget()
	o.allocateAssignments(over)
	return o.finish(root, over), nil
}

// OptimizeFor runs Optimize over root against an engine: its
// catalog's cardinalities, its options, and — when the engine carries
// a stats store — the weighted means of past runs' measured
// selectivities, pass fractions, and group sizes, blended with the
// priors. budgetDollars 0 means unconstrained.
func OptimizeFor(e *core.Engine, root Node, budgetDollars float64) (*CostedPlan, error) {
	po := OptimizeOptionsFrom(e.Options, budgetDollars)
	po.Stats = e.ObStats
	return Optimize(root, e.Catalog, po)
}

func (o *optimizer) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// observed reads one statistic from the configured history source;
// ok=false when no source is configured or nothing was recorded.
func (o *optimizer) observed(taskName, kind string) (value, weight float64, ok bool) {
	if o.opt.Stats == nil {
		return 0, 0, false
	}
	return o.opt.Stats.Estimate(taskName, kind)
}

// visit estimates output cardinality bottom-up and collects crowd
// operator alternatives in post-order.
func (o *optimizer) visit(n Node) (int, error) {
	opt := &o.opt
	switch t := n.(type) {
	case *Scan:
		rows, ok := o.cards.Cardinality(t.Table)
		if !ok {
			rows = opt.DefaultRows
			o.note("cardinality of %s unknown; assuming %d rows", t.Table, rows)
		}
		return rows, nil

	case *MachineFilter:
		in, err := o.visit(t.Input)
		if err != nil {
			return 0, err
		}
		return scaleRows(in, opt.MachineSelectivity), nil

	case *CrowdFilter:
		in, err := o.visit(t.Input)
		if err != nil {
			return 0, err
		}
		sel := opt.FilterSelectivity
		if v, w, ok := o.observed(t.Task.Name, obstats.KindSelectivity); ok {
			sel = clampFraction(cost.BlendObserved(sel, v, w))
			o.note("%s: selectivity %.3f seeded from observed history (weight %.0f)", t.Label(), sel, w)
		}
		out := scaleRows(in, sel)
		o.addBatch(t, &t.Phys, opt.FilterBatch, in, out, func(b int) segment {
			return segment{cost.BatchHITs(in, b), cost.PairEffort(b)}
		})
		return out, nil

	case *CrowdFilterOr:
		in, err := o.visit(t.Input)
		if err != nil {
			return 0, err
		}
		uniq := uniqueBranches(t)
		pass := 1 - math.Pow(1-opt.FilterSelectivity, float64(len(t.Branches)))
		out := scaleRows(in, pass)
		o.addBatch(t, &t.Phys, opt.FilterBatch, in, out, func(b int) segment {
			return segment{uniq * cost.BatchHITs(in, b), cost.PairEffort(b)}
		})
		return out, nil

	case *UnaryPossibly:
		in, err := o.visit(t.Input)
		if err != nil {
			return 0, err
		}
		out := scaleRows(in, opt.PossiblySelectivity)
		o.addBatch(t, &t.Phys, opt.ExtractBatch, in, out, func(b int) segment {
			return segment{cost.BatchHITs(in, b), cost.GenerativeEffort(1, b)}
		})
		return out, nil

	case *Generate:
		in, err := o.visit(t.Input)
		if err != nil {
			return 0, err
		}
		o.addBatch(t, &t.Phys, opt.GenerativeBatch, in, in, func(b int) segment {
			return segment{cost.BatchHITs(in, b), cost.GenerativeEffort(len(t.Fields), b)}
		})
		return in, nil

	case *CrowdJoin:
		lr, err := o.visit(t.Left)
		if err != nil {
			return 0, err
		}
		rr, err := o.visit(t.Right)
		if err != nil {
			return 0, err
		}
		return o.visitJoin(t, lr, rr)

	case *CrowdOrderBy:
		in, err := o.visit(t.Input)
		if err != nil {
			return 0, err
		}
		o.visitSort(t, in)
		return in, nil

	case *MachineOrderBy:
		return o.visit(t.Input)
	case *Project:
		return o.visit(t.Input)
	case *Limit:
		in, err := o.visit(t.Input)
		if err != nil {
			return 0, err
		}
		if t.N >= 0 && t.N < in {
			o.note("LIMIT %d caps output; upstream estimates ignore the streaming short-circuit savings", t.N)
			return t.N, nil
		}
		return in, nil
	default:
		return 0, fmt.Errorf("plan: optimize: unknown node %T", n)
	}
}

// addBatch registers a crowd operator with exactly one interface: its
// batching is fixed (by the annotation when pinned, else by options),
// and only an unpinned operator's vote level is negotiable.
func (o *optimizer) addBatch(n Node, phys **BatchPhys, batch, in, out int, seg func(batch int) segment) {
	e := &opEntry{node: n, label: n.Label(), detail: fmt.Sprintf("rows %d→%d", in, out), inRows: in, outRow: out}
	if p := *phys; p != nil {
		batch = p.Batch
		e.pin(p.Assignments)
	}
	e.alts = []alternative{{
		choice:  fmt.Sprintf("batch %d", batch),
		quality: cost.FilterQuality(batch),
		segs:    []segment{seg(batch)},
		apply:   func(k int) { *phys = &BatchPhys{Batch: batch, Assignments: k} },
	}}
	o.entries = append(o.entries, e)
}

// visitJoin enumerates join interface × prefilter alternatives.
func (o *optimizer) visitJoin(t *CrowdJoin, lr, rr int) (int, error) {
	opt := &o.opt
	sel := opt.JoinSelectivity
	if sel == 0 {
		if m := max(lr, rr); m > 0 {
			sel = 1 / float64(m)
		} else {
			sel = 1
		}
	}
	if v, w, ok := o.observed(t.Task.Name, obstats.KindSelectivity); ok {
		sel = clampFraction(cost.BlendObserved(sel, v, w))
		o.note("%s: join selectivity %.3f seeded from observed history (weight %.0f)", t.Label(), sel, w)
	}
	pairs := cost.JoinPairs(lr, rr, 1)
	out := scaleRows(pairs, sel)

	// POSSIBLY pre-filter pass fraction: independent features each pass
	// ≈ 1/domain for known extractions plus the UNKNOWN-wildcard share
	// (§2.4: UNKNOWN never prunes); true matches always agree, flooring
	// the fraction at the join selectivity. Observed history overrides
	// the model — this is exactly the estimate PR 3 recorded as
	// factor-of-two off.
	passFrac := 1.0
	for _, f := range t.LeftFeatures {
		passFrac *= cost.FeaturePassFraction(featureDomain(f), cost.DefaultUnknownRate)
	}
	if v, w, ok := o.observed(t.Task.Name, obstats.KindPassFraction); ok && len(t.LeftFeatures) > 0 {
		passFrac = clampFraction(cost.BlendObserved(passFrac, v, w))
		o.note("%s: POSSIBLY pass fraction %.3f seeded from observed history (weight %.0f)", t.Label(), passFrac, w)
	}
	if passFrac < sel {
		passFrac = sel
	}
	entry := &opEntry{
		node:   t,
		label:  t.Label(),
		detail: fmt.Sprintf("|R|=%d |S|=%d pairs %d sel %.3f → rows %d", lr, rr, pairs, sel, out),
		inRows: pairs,
		outRow: out,
	}
	// alt prices one join interface; refused reports that its join HITs
	// are too effortful for workers to accept at the paper's price.
	alt := func(p JoinPhys) (alternative, bool) {
		prefilter := p.UseFeatures && len(t.LeftFeatures) > 0
		frac := 1.0
		if prefilter {
			frac = passFrac
		}
		var jseg segment
		var q float64
		switch p.Algorithm {
		case join.Naive:
			jseg = segment{cost.NaiveJoinHITs(cost.JoinPairs(lr, rr, frac), p.BatchSize), cost.PairEffort(p.BatchSize)}
			q = cost.PairQuality(p.BatchSize)
		case join.Smart:
			jseg = segment{cost.SmartJoinHITs(lr, rr, p.GridRows, p.GridCols, frac), cost.GridEffort(p.GridRows, p.GridCols)}
			q = cost.GridQuality(p.GridRows, p.GridCols, sel*float64(p.GridRows*p.GridCols))
		default:
			jseg = segment{cost.SimpleJoinHITs(cost.JoinPairs(lr, rr, frac)), cost.PairEffort(1)}
			q = cost.QualitySimplePair
		}
		segs := []segment{jseg}
		if prefilter {
			segs = []segment{
				{cost.BatchHITs(lr, p.ExtractBatch), cost.GenerativeEffort(len(t.LeftFeatures), p.ExtractBatch)},
				{cost.BatchHITs(rr, p.ExtractBatch), cost.GenerativeEffort(len(t.RightFeatures), p.ExtractBatch)},
				jseg,
			}
			// Extraction errors lose true matches: small per-feature
			// quality tax (§3.2's result-loss rule exists for a reason).
			q -= 0.01 * float64(len(t.LeftFeatures))
		}
		return alternative{
			choice:  p.String(),
			quality: q,
			segs:    segs,
			apply: func(k int) {
				p.Assignments = k
				t.Phys = &p
			},
		}, cost.Refused(jseg.effort)
	}
	if t.Phys != nil {
		a, _ := alt(*t.Phys)
		entry.alts = []alternative{a}
		entry.pin(t.Phys.Assignments)
		o.entries = append(o.entries, entry)
		return out, nil
	}

	naives := []int{opt.JoinBatch}
	if b2 := 2 * opt.JoinBatch; b2 != opt.JoinBatch {
		naives = append(naives, b2)
	}
	grids := [][2]int{{opt.GridRows, opt.GridCols}}
	if opt.GridRows != 5 || opt.GridCols != 5 {
		grids = append(grids, [2]int{5, 5})
	}
	// Every candidate carries the options' batch, grid and extraction
	// shapes in the fields its interface does not choose, and their
	// feature extraction and selection choices, as Pin does.
	add := func(p JoinPhys) {
		if a, refused := alt(p); !refused {
			entry.alts = append(entry.alts, a)
		}
	}
	base := JoinPhys{BatchSize: opt.JoinBatch, GridRows: opt.GridRows, GridCols: opt.GridCols, ExtractBatch: opt.ExtractBatch,
		ExtractCombined: opt.ExtractCombined, AutoSelectFeatures: opt.AutoSelectFeatures, FeatureSelection: opt.FeatureSelection}
	prefilters := []bool{false}
	if len(t.LeftFeatures) > 0 {
		prefilters = append(prefilters, true)
	}
	for _, pf := range prefilters {
		base.UseFeatures = pf
		add(base) // Simple
		for _, b := range naives {
			p := base
			p.Algorithm, p.BatchSize = join.Naive, b
			add(p)
		}
		for _, g := range grids {
			p := base
			p.Algorithm, p.GridRows, p.GridCols = join.Smart, g[0], g[1]
			add(p)
		}
	}
	o.entries = append(o.entries, entry)
	return out, nil
}

// visitSort enumerates Compare / Rate / Hybrid alternatives.
func (o *optimizer) visitSort(t *CrowdOrderBy, in int) {
	opt := &o.opt
	entry := &opEntry{
		node:   t,
		label:  t.Label(),
		detail: fmt.Sprintf("rows %d", in),
		inRows: in,
		outRow: in,
	}
	// Per-group cost shaping (GROUP BY sorts each group independently,
	// so HITs scale with group sizes, not one global n): with observed
	// history the estimate becomes ceil(in/g) groups of ≈g rows; without
	// it the single-group assumption stands, noted as before. The
	// executor refines per group mid-run once each group's true size
	// materializes (ReplanOptions).
	groups, gsize := 1, in
	if len(t.GroupCols) > 0 {
		if g, w, ok := o.observed(t.Task.Name, obstats.KindGroupSize); ok && g >= 1 && in > 0 {
			gsize = int(math.Round(g))
			if gsize < 1 {
				gsize = 1
			}
			if gsize > in {
				gsize = in
			}
			groups = (in + gsize - 1) / gsize
			o.note("%s: estimated as %d groups of ≈%d rows (observed group sizes, weight %.0f)",
				t.Label(), groups, gsize, w)
		} else {
			o.note("%s estimated as a single group (group count unknown before execution)", t.Label())
		}
	}
	base := SortPhys{GroupSize: opt.CompareGroupSize, RateBatch: opt.RateBatch,
		Iterations: opt.HybridIterations, Step: opt.HybridStep, Strategy: sortop.SlidingWindow}
	annotate := func(p SortPhys) func(int) {
		return func(k int) {
			p.Assignments = k
			t.Phys = &p
		}
	}
	// alt prices one sort interface.
	alt := func(p SortPhys) alternative {
		a := alternative{choice: p.String(), apply: annotate(p)}
		rate := segment{groups * cost.RateSortHITs(gsize, p.RateBatch), cost.PairEffort(p.RateBatch)}
		switch p.Method {
		case core.SortRate:
			a.quality, a.segs = cost.QualityRateSort, []segment{rate}
		case core.SortHybrid:
			a.quality = cost.HybridQuality(gsize, p.Iterations, p.Step)
			a.segs = []segment{rate, {groups * p.Iterations, cost.CompareEffort(p.GroupSize)}}
		default:
			a.quality = cost.QualityCompareSort
			a.segs = []segment{{groups * CompareCoverHITs(gsize, p.GroupSize), cost.CompareEffort(p.GroupSize)}}
		}
		return a
	}
	switch {
	case in < 2:
		entry.alts = []alternative{{choice: "(≤1 row, no crowd sort)", quality: 1, apply: annotate(base)}}
	case t.Phys != nil:
		entry.alts = []alternative{alt(*t.Phys)}
	default:
		entry.alts = append(entry.alts, alt(base)) // Compare
		rate := base
		rate.Method = core.SortRate
		entry.alts = append(entry.alts, alt(rate))
		for _, iters := range hybridIterationLevels(opt.HybridIterations, gsize) {
			h := base
			h.Method, h.Iterations = core.SortHybrid, iters
			entry.alts = append(entry.alts, alt(h))
		}
	}
	if in >= 2 && gsize > exactCoverLimit {
		o.note("%s: comparison cover approximated analytically for %d rows", t.Label(), gsize)
	}
	if t.Phys != nil {
		entry.pin(t.Phys.Assignments)
	}
	o.entries = append(o.entries, entry)
}

// exactCoverLimit bounds the exact greedy group-cover computation —
// the cover itself is O(n³)-ish, too slow to build just for an
// estimate on large inputs; beyond it the §4.1.1 closed form stands in.
const exactCoverLimit = 120

// CompareCoverHITs is the comparison sort's HIT count for n items in
// groups of s: the exact greedy cover the executor will build for small
// inputs, the paper's n(n−1)/(S(S−1)) bound beyond exactCoverLimit. The
// optimizer and the executor's mid-run replan both use it.
func CompareCoverHITs(n, s int) int {
	if n <= exactCoverLimit {
		return len(sortop.CoverGroups(n, s))
	}
	return cost.CompareSortHITs(n, s)
}

// hybridIterationLevels offers the configured iteration count plus
// cardinality-scaled levels (≈1.5 and 3 full window passes), deduped
// ascending.
func hybridIterationLevels(configured, n int) []int {
	cand := []int{configured, (n + 1) / 2, n}
	var out []int
	for _, c := range cand {
		if c < 1 {
			continue
		}
		dup := false
		for _, x := range out {
			if x == c {
				dup = true
			}
		}
		if !dup {
			out = append(out, c)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// selectAlternatives picks, per operator, the fewest-HITs alternative
// meeting the quality floor (ties: higher quality, then earlier
// candidate); when nothing clears the floor the highest-quality
// alternative wins.
func (o *optimizer) selectAlternatives() {
	for _, e := range o.entries {
		best := -1
		for i := range e.alts {
			a := &e.alts[i]
			if a.quality < o.opt.MinQuality {
				continue
			}
			if best < 0 || a.hits() < e.alts[best].hits() ||
				(a.hits() == e.alts[best].hits() && a.quality > e.alts[best].quality) {
				best = i
			}
		}
		if best < 0 {
			for i := range e.alts {
				a := &e.alts[i]
				if best < 0 || a.quality > e.alts[best].quality ||
					(a.quality == e.alts[best].quality && a.hits() < e.alts[best].hits()) {
					best = i
				}
			}
		}
		e.chosen = best
	}
}

// fitBudget downgrades choices (largest HIT saving first, quality as
// tie-break) until the plan's floor cost — every unpinned operator at
// one assignment, every pinned one at its own — fits the budget.
// Returns true when even the global minimum exceeds it.
func (o *optimizer) fitBudget() bool {
	budget := o.opt.BudgetDollars
	if budget <= 0 {
		return false
	}
	floorDollars := func() float64 {
		var d float64
		for _, e := range o.entries {
			k := 1
			if e.pinned {
				k = e.assignments
			}
			d += cost.Dollars(e.alts[e.chosen].hits(), k)
		}
		return d
	}
	for floorDollars() > budget {
		bestE, bestA, bestSave := -1, -1, 0
		var bestQ float64
		for ei, e := range o.entries {
			cur := e.alts[e.chosen].hits()
			for ai := range e.alts {
				save := cur - e.alts[ai].hits()
				if save <= 0 {
					continue
				}
				q := e.alts[ai].quality
				if save > bestSave || (save == bestSave && q > bestQ) {
					bestE, bestA, bestSave, bestQ = ei, ai, save, q
				}
			}
		}
		if bestE < 0 {
			return true
		}
		e := o.entries[bestE]
		o.note("budget $%.2f: %s downgraded %s → %s (−%d HITs)",
			budget, e.label, e.alts[e.chosen].choice, e.alts[bestA].choice, bestSave)
		e.chosen = bestA
	}
	return false
}

// allocateAssignments spreads the budget across operators as vote
// levels via the §6 whole-plan allocator: odd levels up to the default
// assignment count, maximizing the weakest operator's post-vote
// quality. Unconstrained plans use the default level everywhere.
// Pinned operators keep their own level, and their dollars come off
// the budget the allocator spreads.
func (o *optimizer) allocateAssignments(over bool) {
	maxK := o.opt.Assignments
	budget := o.opt.BudgetDollars
	for _, e := range o.entries {
		if e.pinned {
			budget -= cost.Dollars(e.alts[e.chosen].hits(), e.assignments)
			continue
		}
		e.assignments = maxK
	}
	if o.opt.BudgetDollars <= 0 {
		return
	}
	if over {
		for _, e := range o.entries {
			if !e.pinned {
				e.assignments = 1
			}
		}
		return
	}
	var levels []int
	for k := 1; k <= maxK; k += 2 {
		levels = append(levels, k)
	}
	if levels[len(levels)-1] != maxK {
		levels = append(levels, maxK)
	}
	var stages []adaptive.BudgetStage
	var idx []int
	for i, e := range o.entries {
		a := &e.alts[e.chosen]
		if a.hits() == 0 || e.pinned {
			continue
		}
		qs := make([]float64, len(levels))
		for li, k := range levels {
			qs[li] = cost.MajorityQuality(a.quality, k)
		}
		stages = append(stages, adaptive.BudgetStage{
			Name: e.label, HITs: a.hits(), Levels: levels, Quality: qs,
		})
		idx = append(idx, i)
	}
	if len(stages) == 0 {
		return
	}
	bp, err := adaptive.AllocateBudget(stages, budget)
	if err != nil {
		// fitBudget guaranteed the floor fits, so this is unreachable;
		// degrade gracefully regardless.
		for _, i := range idx {
			o.entries[i].assignments = 1
		}
		return
	}
	for si, i := range idx {
		o.entries[i].assignments = bp.Assignments[si]
	}
	if bp.Assignments[0] < maxK {
		o.note("budget $%.2f: assignment levels reduced below %d on some operators", o.opt.BudgetDollars, maxK)
	}
}

// finish applies the chosen annotations and assembles the costed plan.
func (o *optimizer) finish(root Node, over bool) *CostedPlan {
	cp := &CostedPlan{
		Root:          root,
		BudgetDollars: o.opt.BudgetDollars,
		OverBudget:    over,
		Notes:         o.notes,
		Quality:       1,
	}
	for _, e := range o.entries {
		a := &e.alts[e.chosen]
		k := e.assignments
		if !e.pinned {
			a.apply(k)
		}
		q := cost.MajorityQuality(a.quality, k)
		oc := OpCost{
			Node:          e.node,
			Label:         e.label,
			Choice:        a.choice,
			Detail:        e.detail,
			HITs:          a.hits(),
			Assignments:   k,
			Dollars:       cost.Dollars(a.hits(), k),
			MakespanHours: a.makespan(k),
			Quality:       q,
			InRows:        e.inRows,
			OutRows:       e.outRow,
		}
		cp.Ops = append(cp.Ops, oc)
		cp.TotalHITs += oc.HITs
		cp.TotalDollars += oc.Dollars
		cp.MakespanHours += oc.MakespanHours
		if oc.HITs > 0 && q < cp.Quality {
			cp.Quality = q
		}
	}
	return cp
}

// Render renders the costed plan: the logical tree with each crowd
// operator's chosen interface and estimates, then plan totals, budget
// status, and notes — the EXPLAIN the paper's §6 asks for.
func (cp *CostedPlan) Render() string { return cp.render(nil) }

// RenderWithActual additionally prints each operator's actual posted
// HITs (from an executed run's stats) next to its estimate.
func (cp *CostedPlan) RenderWithActual(actual []OpActual) string {
	return cp.render(cp.foldActual(actual))
}

// actualAgg accumulates executed-run facts per costed node: posted
// HITs plus weighted sums of the observed statistics.
type actualAgg struct {
	hits                                  int
	sel, selW, pass, passW, gsize, gsizeW float64
}

// fold merges one OpActual into the aggregate (weighted-mean merge for
// the observed columns).
func (g *actualAgg) fold(a OpActual) {
	g.hits += a.HITs
	if a.SelectivityWeight > 0 {
		g.sel += a.Selectivity * a.SelectivityWeight
		g.selW += a.SelectivityWeight
	}
	if a.PassFractionWeight > 0 {
		g.pass += a.PassFraction * a.PassFractionWeight
		g.passW += a.PassFractionWeight
	}
	if a.GroupSizeWeight > 0 {
		g.gsize += a.GroupSize * a.GroupSizeWeight
		g.gsizeW += a.GroupSizeWeight
	}
}

// foldActual maps executed operator labels onto costed ops: exact label
// match, "<label>[i]" branch entries, and extraction/feature-selection
// spending folded into the pre-filtered join that caused it. Stats
// labels do not say which join an extraction belonged to, so the fold
// happens only when exactly one join pre-filters; with several, their
// extraction spending is left unattributed rather than misattributed.
func (cp *CostedPlan) foldActual(actual []OpActual) map[Node]*actualAgg {
	out := map[Node]*actualAgg{}
	at := func(n Node) *actualAgg {
		g := out[n]
		if g == nil {
			g = &actualAgg{}
			out[n] = g
		}
		return g
	}
	prefilterJoin := Node(nil)
	prefilterJoins := 0
	for i := range cp.Ops {
		if j, ok := cp.Ops[i].Node.(*CrowdJoin); ok && j.Phys != nil && j.Phys.UseFeatures {
			prefilterJoin = j
			prefilterJoins++
		}
	}
	if prefilterJoins > 1 {
		prefilterJoin = nil
	}
	for _, a := range actual {
		matched := false
		for i := range cp.Ops {
			op := &cp.Ops[i]
			if a.Label == op.Label || strings.HasPrefix(a.Label, op.Label+"[") {
				at(op.Node).fold(a)
				matched = true
				break
			}
		}
		if !matched && prefilterJoin != nil &&
			(strings.HasPrefix(a.Label, "extract-") || strings.HasPrefix(a.Label, "feature")) {
			at(prefilterJoin).fold(a)
		}
	}
	return out
}

func (cp *CostedPlan) render(actual map[Node]*actualAgg) string {
	byNode := map[Node]*OpCost{}
	for i := range cp.Ops {
		byNode[cp.Ops[i].Node] = &cp.Ops[i]
	}
	var b strings.Builder
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		if IsCrowd(n) {
			b.WriteString("☺ ")
		} else {
			b.WriteString("- ")
		}
		b.WriteString(n.Label())
		if oc, ok := byNode[n]; ok {
			fmt.Fprintf(&b, "  · %s · est %d HITs ×%d asn = $%.2f · q≈%.2f · %s",
				oc.Choice, oc.HITs, oc.Assignments, oc.Dollars, oc.Quality, oc.Detail)
			if actual != nil {
				got := actual[n]
				hits := 0
				if got != nil {
					hits = got.hits
				}
				fmt.Fprintf(&b, " · actual %d HITs", hits)
				if oc.HITs > 0 {
					fmt.Fprintf(&b, " (%+.0f%%)", 100*float64(hits-oc.HITs)/float64(oc.HITs))
				}
				// Observed statistics next to the estimates that should
				// have predicted them — the mis-estimates PR 3 recorded
				// were invisible here when only HIT counts rendered.
				if got != nil {
					if got.selW > 0 {
						fmt.Fprintf(&b, " · obs sel %.3f", got.sel/got.selW)
					}
					if got.passW > 0 {
						fmt.Fprintf(&b, " · obs pass %.3f", got.pass/got.passW)
					}
					if got.gsizeW > 0 {
						fmt.Fprintf(&b, " · obs group ≈%.0f rows", got.gsize/got.gsizeW)
					}
				}
			}
		}
		b.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(cp.Root, 0)
	fmt.Fprintf(&b, "plan: est %d HITs, $%.2f, ≈%.1fh serial crowd time, quality ≥ %.2f\n",
		cp.TotalHITs, cp.TotalDollars, cp.MakespanHours, cp.Quality)
	if cp.BudgetDollars > 0 {
		status := "fits"
		if cp.OverBudget {
			status = "OVER BUDGET even at minimum cost"
		}
		fmt.Fprintf(&b, "budget: $%.2f (%s)\n", cp.BudgetDollars, status)
	}
	for _, n := range cp.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// featureDomain is the size of a POSSIBLY feature's answer domain
// (radio options excluding UNKNOWN; 3 when free-form).
func featureDomain(f join.Feature) int {
	fld, ok := fieldOf(f.Task, f.Field)
	if !ok || len(fld.Response.Options) == 0 {
		return 3
	}
	n := 0
	for _, o := range fld.Response.Options {
		if !strings.EqualFold(o, "UNKNOWN") {
			n++
		}
	}
	if n < 2 {
		return 2
	}
	return n
}

func fieldOf(gt *task.Generative, name string) (task.Field, bool) {
	for _, f := range gt.Fields {
		if strings.EqualFold(f.Name, name) {
			return f, true
		}
	}
	return task.Field{}, false
}

// clampFraction bounds a blended estimate to a usable probability:
// strictly positive (a zero selectivity would zero out estimates) and
// at most 1.
func clampFraction(v float64) float64 {
	if v < 1e-6 {
		return 1e-6
	}
	if v > 1 {
		return 1
	}
	return v
}

func scaleRows(in int, sel float64) int {
	if in <= 0 {
		return 0
	}
	out := int(math.Ceil(float64(in) * sel))
	if out < 0 {
		out = 0
	}
	if out > in {
		out = in
	}
	return out
}

// uniqueBranches counts OR branches that actually post HITs (duplicate
// task+negation disjuncts share one posting, as the executor does).
func uniqueBranches(t *CrowdFilterOr) int {
	seen := map[string]bool{}
	n := 0
	for i, br := range t.Branches {
		sig := fmt.Sprintf("%s|%v", br.Name, t.Negates[i])
		if !seen[sig] {
			seen[sig] = true
			n++
		}
	}
	return n
}
