package plan

import (
	"fmt"

	"qurk/internal/core"
	"qurk/internal/join"
	"qurk/internal/sortop"
)

// Physical annotations. Every crowd node the streaming executor runs
// carries one, and the executor reads nothing else to choose an
// interface. The optimizer (Optimize) writes the interface it chose for
// each crowd operator; Pin writes the one the engine-wide Options
// select. Optimize keeps an annotation it finds, so a pinned tree is
// priced as the plan it will run.

// JoinPhys is the chosen join interface for one CrowdJoin.
type JoinPhys struct {
	// Algorithm is Simple, Naive, or Smart (§3.1).
	Algorithm join.Algorithm
	// BatchSize is pairs per HIT for Naive.
	BatchSize int
	// GridRows×GridCols is the Smart grid shape.
	// A Simple or NaiveBatch join keeps a grid shape too: it is the
	// shape a mid-run re-plan lays the remaining pairs out with.
	GridRows, GridCols int
	// UseFeatures applies the POSSIBLY feature pre-filter (§3.2) when
	// the node has features; false joins the full cross product even
	// then (the optimizer found extraction not worth its HITs).
	UseFeatures bool
	// ExtractBatch is subjects per feature-extraction HIT.
	ExtractBatch int
	// ExtractCombined asks all of a tuple's features in one extraction
	// question (§3.3.4's combined interface) instead of one per feature.
	ExtractCombined bool
	// AutoSelectFeatures runs §3.2's automatic feature selection, with
	// FeatureSelection's thresholds, once both sides are extracted; pair
	// generation then filters on the kept features only.
	AutoSelectFeatures bool
	FeatureSelection   join.SelectionConfig
	// Assignments is workers per HIT for this operator — the budget
	// allocator's per-stage vote level.
	Assignments int
}

// String renders the choice as the paper names it.
func (p *JoinPhys) String() string {
	var s string
	switch p.Algorithm {
	case join.Naive:
		s = fmt.Sprintf("NaiveBatch b=%d", p.BatchSize)
	case join.Smart:
		s = fmt.Sprintf("SmartBatch %d×%d", p.GridRows, p.GridCols)
	default:
		s = "Simple"
	}
	if p.UseFeatures {
		s += " + prefilter"
	}
	return s
}

// SortPhys is the chosen sort interface for one CrowdOrderBy.
type SortPhys struct {
	// Method is Compare, Rate, or Hybrid (§4.1).
	Method core.SortMethod
	// GroupSize is S, items per comparison group (Compare and Hybrid
	// windows).
	GroupSize int
	// RateBatch is items per rating HIT (Rate and the Hybrid seed).
	RateBatch int
	// Iterations and Step parametrize Hybrid refinement.
	Iterations, Step int
	// Strategy is the Hybrid window scheme. It is honored verbatim —
	// the zero value is sortop.RandomWindow, not SlidingWindow — so
	// hand-built annotations should set it explicitly (Pin and the
	// optimizer always do).
	Strategy sortop.WindowStrategy
	// Assignments is workers per HIT.
	Assignments int
}

// String renders the choice as the paper's figures label it.
func (p *SortPhys) String() string {
	switch p.Method {
	case core.SortRate:
		return fmt.Sprintf("Rate b=%d", p.RateBatch)
	case core.SortHybrid:
		return fmt.Sprintf("Hybrid/%s S=%d t=%d i=%d", p.Strategy, p.GroupSize, p.Step, p.Iterations)
	default:
		return fmt.Sprintf("Compare S=%d", p.GroupSize)
	}
}

// BatchPhys is the chosen batching for a filter, generative, or
// POSSIBLY-extraction operator (no interface alternatives, but the
// budget allocator still sets its vote level).
type BatchPhys struct {
	// Batch is questions per HIT.
	Batch int
	// Assignments is workers per HIT.
	Assignments int
}

// String renders the choice.
func (p *BatchPhys) String() string { return fmt.Sprintf("batch %d", p.Batch) }

// Pin annotates every crowd node under root that has no annotation
// with the complete physical choice opts selects (zero fields take
// core's defaults): its batch sizes, join interface and grid shape,
// feature extraction and selection, sort method and parameters, and
// assignments. A join applies its
// POSSIBLY features whenever it has some, and a Hybrid sort uses
// sliding windows. Annotated nodes are left alone.
func Pin(root Node, opts core.Options) {
	opts.FillDefaults()
	batch := func(p **BatchPhys, b int) {
		if *p == nil {
			*p = &BatchPhys{Batch: b, Assignments: opts.Assignments}
		}
	}
	var walk func(Node)
	walk = func(n Node) {
		switch t := n.(type) {
		case *CrowdFilter:
			batch(&t.Phys, opts.FilterBatch)
		case *CrowdFilterOr:
			batch(&t.Phys, opts.FilterBatch)
		case *UnaryPossibly:
			batch(&t.Phys, opts.ExtractBatch)
		case *Generate:
			batch(&t.Phys, opts.GenerativeBatch)
		case *CrowdJoin:
			if t.Phys == nil {
				t.Phys = &JoinPhys{Algorithm: opts.JoinAlgorithm, BatchSize: opts.JoinBatch,
					GridRows: opts.GridRows, GridCols: opts.GridCols, UseFeatures: len(t.LeftFeatures) > 0,
					ExtractBatch: opts.ExtractBatch, ExtractCombined: opts.ExtractCombined,
					AutoSelectFeatures: opts.AutoSelectFeatures, FeatureSelection: opts.FeatureSelection,
					Assignments: opts.Assignments}
			}
		case *CrowdOrderBy:
			if t.Phys == nil {
				t.Phys = &SortPhys{Method: opts.SortMethod, GroupSize: opts.CompareGroupSize,
					RateBatch: opts.RateBatch, Iterations: opts.HybridIterations, Step: opts.HybridStep,
					Strategy: sortop.SlidingWindow, Assignments: opts.Assignments}
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(root)
}
