package experiment

import (
	"fmt"

	"qurk/internal/combine"
	"qurk/internal/core"
	"qurk/internal/cost"
	"qurk/internal/crowd"
	"qurk/internal/dataset"
	"qurk/internal/join"
	"qurk/internal/relation"
	"qurk/internal/sortop"
)

// Table5Result reproduces Table 5: HIT counts for every operator
// optimization in the end-to-end movie query (§5).
type Table5Result struct {
	Scenes, Actors int
	FilteredScenes int
	Rows           []Table5Row
	// TotalUnoptimized = unfiltered Simple join + Compare sort.
	// TotalOptimized = filter + best join + Rate sort.
	TotalUnoptimized, TotalOptimized int
	// FilterAccuracy is the numInScene extraction accuracy (§5.2:
	// "very accurate, resulting in no errors").
	FilterAccuracy float64
	// JoinTruePos / JoinFalsePos score the Smart-5x5 filtered join
	// (§5.2: "a small number of false positives").
	JoinTruePos, JoinFalsePos int
}

// Table5Row is one (operator, optimization) line.
type Table5Row struct {
	Operator     string
	Optimization string
	HITs         int
}

// Table5 runs the §5 pipeline variants. Paper: 1116 unoptimized HITs vs
// 77 optimized — a 14.5× reduction.
func Table5(cfg Config) (*Table5Result, error) {
	scenes, actors := 211, 5
	if cfg.Scale == Quick {
		scenes, actors = 60, 3
	}
	mv := dataset.NewMovie(dataset.MovieConfig{Scenes: scenes, Actors: actors, Seed: cfg.Seed})
	res := &Table5Result{Scenes: scenes, Actors: actors}
	actorsRel := mv.Actors.Qualify("a")
	scenesRel := mv.Scenes.Qualify("s")

	// --- numInScene filter pass (batch 5 → ceil(scenes/5) HITs; the
	// paper's Table 5 reports 43 for 211 scenes).
	m := crowd.NewSimMarket(cfg.trialMarketConfig(0), mv.Oracle())
	gen, err := core.RunGenerative(scenesRel, dataset.NumInSceneTask(), core.GenerativeOptions{
		BatchSize: 5, Assignments: 5, GroupID: "t5/numInScene",
	}, m)
	if err != nil {
		return nil, err
	}
	filterHITs := gen.HITCount
	res.Rows = append(res.Rows, Table5Row{"Join", "Filter", filterHITs})

	filtered := relation.New(scenesRel.Name(), scenesRel.Schema())
	filterCorrect := 0
	for i := 0; i < scenesRel.Len(); i++ {
		v := gen.Values[i]["numInScene"]
		want, _, _ := mv.Oracle().FieldValue("numInScene", "numInScene", scenesRel.Row(i))
		if v == want {
			filterCorrect++
		}
		if v == "1" || v == "UNKNOWN" {
			if err := filtered.Append(scenesRel.Row(i)); err != nil {
				return nil, err
			}
		}
	}
	res.FilterAccuracy = float64(filterCorrect) / float64(scenesRel.Len())
	res.FilteredScenes = filtered.Len()

	// --- join variants, filtered and unfiltered.
	joinHITs := func(left, right *relation.Relation, opts join.Options, label string) (int, *join.Result, error) {
		m := crowd.NewSimMarket(cfg.trialMarketConfig(0), mv.Oracle())
		opts.Assignments = 5
		opts.GroupID = label
		r, err := join.RunCross(left, right, dataset.InSceneTask(), opts, m)
		if err != nil {
			return 0, nil, err
		}
		return r.HITCount, r, nil
	}
	type variant struct {
		name string
		opts join.Options
	}
	variants := []variant{
		{"Simple", join.Options{Algorithm: join.Simple}},
		{"Naive", join.Options{Algorithm: join.Naive, BatchSize: 5}},
		{"Smart 3x3", join.Options{Algorithm: join.Smart, GridRows: 3, GridCols: 3}},
		{"Smart 5x5", join.Options{Algorithm: join.Smart, GridRows: 5, GridCols: 5}},
	}
	var bestFilteredJoin *join.Result
	var filteredSmart5 int
	for _, v := range variants {
		h, r, err := joinHITs(actorsRel, filtered, v.opts, "t5/fj/"+v.name)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table5Row{"Join", "Filter + " + v.name, filterHITs + h})
		if v.name == "Smart 5x5" {
			filteredSmart5 = filterHITs + h
			bestFilteredJoin = r
		}
	}
	var unfilteredSimple int
	for _, v := range variants {
		if v.name == "Smart 3x3" {
			continue // the paper omits this row
		}
		h, _, err := joinHITs(actorsRel, scenesRel, v.opts, "t5/uj/"+v.name)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table5Row{"Join", "No Filter + " + v.name, h})
		if v.name == "Simple" {
			unfilteredSimple = h
		}
	}

	// Score the optimized join against ground truth (§5.2's "Query
	// Accuracy" notes).
	for _, match := range bestFilteredJoin.Matches {
		if mv.InScene(match.Pair.Left, match.Pair.Right) {
			res.JoinTruePos++
		} else {
			res.JoinFalsePos++
		}
	}

	// --- ORDER BY quality within each actor, over the matched scenes.
	perActor := map[string]*relation.Relation{}
	for _, match := range bestFilteredJoin.Matches {
		name := match.Pair.Left.MustGet("name").Text()
		rel, ok := perActor[name]
		if !ok {
			rel = relation.New("scenes", match.Pair.Right.Schema())
			perActor[name] = rel
		}
		if err := rel.Append(match.Pair.Right); err != nil {
			return nil, err
		}
	}
	compareHITs, rateHITs := 0, 0
	for name, rel := range perActor {
		if rel.Len() < 2 {
			continue
		}
		m := crowd.NewSimMarket(cfg.trialMarketConfig(0), mv.Oracle())
		cr, err := sortop.Compare(rel, dataset.QualityTask(), sortop.CompareOptions{
			GroupSize: 5, Assignments: 5, GroupID: "t5/cmp/" + name,
		}, m)
		if err != nil {
			return nil, err
		}
		compareHITs += cr.HITCount
		m2 := crowd.NewSimMarket(cfg.trialMarketConfig(0), mv.Oracle())
		rr, err := sortop.Rate(rel, dataset.QualityTask(), sortop.RateOptions{
			BatchSize: 5, Assignments: 5, Seed: cfg.Seed, GroupID: "t5/rate/" + name,
		}, m2)
		if err != nil {
			return nil, err
		}
		rateHITs += rr.HITCount
	}
	res.Rows = append(res.Rows, Table5Row{"Order By", "Compare", compareHITs})
	res.Rows = append(res.Rows, Table5Row{"Order By", "Rate", rateHITs})

	res.TotalUnoptimized = unfilteredSimple + compareHITs
	res.TotalOptimized = filteredSmart5 + rateHITs
	return res, nil
}

// Reduction returns the unoptimized/optimized HIT ratio (paper: 14.5×).
func (r *Table5Result) Reduction() float64 {
	if r.TotalOptimized == 0 {
		return 0
	}
	return float64(r.TotalUnoptimized) / float64(r.TotalOptimized)
}

// Render prints the paper's Table 5 shape.
func (r *Table5Result) Render() string {
	t := newTable("Operator", "Optimization", "# HITs")
	for _, row := range r.Rows {
		t.add(row.Operator, row.Optimization, fmt.Sprint(row.HITs))
	}
	t.add("Total (unoptimized)", "No Filter + Simple, Compare", fmt.Sprint(r.TotalUnoptimized))
	t.add("Total (optimized)", "Filter + Smart 5x5, Rate", fmt.Sprint(r.TotalOptimized))
	head := fmt.Sprintf("Table 5: end-to-end movie query (%d scenes, %d actors, %d pass filter) — reduction %.1fx (paper: 14.5x)\n",
		r.Scenes, r.Actors, r.FilteredScenes, r.Reduction())
	foot := fmt.Sprintf("query accuracy: numInScene %.1f%% correct; smart-5x5 join %d true / %d false positives\n",
		r.FilterAccuracy*100, r.JoinTruePos, r.JoinFalsePos)
	return head + t.String() + foot
}

// CostNarrativeResult reproduces the §3.4 cost walk-down for the
// celebrity join: $67.50 naive → ~$27 with feature filtering → ~$3 with
// batching on top.
type CostNarrativeResult struct {
	N                 int
	UnfilteredDollars float64
	FilteredDollars   float64
	BatchedDollars    float64
	FilteredHITs      int
	BatchedHITs       int
}

// CostNarrative runs the celebrity join three ways at 5 assignments.
func CostNarrative(cfg Config) (*CostNarrativeResult, error) {
	n := 30
	if cfg.Scale == Quick {
		n = 14
	}
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: n, Seed: cfg.Seed})
	left, right := d.Celeb.Qualify("c"), d.Photos.Qualify("p")
	res := &CostNarrativeResult{N: n}
	res.UnfilteredDollars = cost.Dollars(n*n, 5)

	// Feature filtering with the selector's choice (drops hair).
	m := crowd.NewSimMarket(cfg.trialMarketConfig(0), d.Oracle())
	features := dataset.CelebrityFeatures()
	eo := join.ExtractOptions{Combined: true, BatchSize: 4, Assignments: 5, GroupID: "cn/l"}
	le, err := join.Extract(left, features, eo, m)
	if err != nil {
		return nil, err
	}
	eo.GroupID = "cn/r"
	re, err := join.Extract(right, features, eo, m)
	if err != nil {
		return nil, err
	}
	var ref []join.Pair
	for _, p := range join.CrossPairs(left, right) {
		if d.IsMatch(p.Left, p.Right) {
			ref = append(ref, p)
		}
	}
	kept, _, err := join.ChooseFeatures(left, right, le, re, features, ref, join.SelectionConfig{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	names := make([]string, len(kept))
	for i, f := range kept {
		names[i] = f.Field
	}
	pairs := join.FilteredPairs(left, right, le, re, names)
	extractionHITs := le.HITCount + re.HITCount
	res.FilteredHITs = extractionHITs + len(pairs) // simple join: 1 pair/HIT
	res.FilteredDollars = cost.Dollars(res.FilteredHITs, 5)

	// Add naive-10 batching on the surviving pairs.
	mb := crowd.NewSimMarket(cfg.trialMarketConfig(0), d.Oracle())
	jr, err := join.Run(pairs, dataset.SamePersonTask(), join.Options{
		Algorithm: join.Naive, BatchSize: 10, Assignments: 5,
		Combiner: combine.MajorityVote{}, GroupID: "cn/join",
	}, mb)
	if err != nil {
		return nil, err
	}
	res.BatchedHITs = extractionHITs + jr.HITCount
	res.BatchedDollars = cost.Dollars(res.BatchedHITs, 5)
	return res, nil
}

// Render prints the walk-down.
func (r *CostNarrativeResult) Render() string {
	return fmt.Sprintf(
		"Sec 3.4 cost narrative (%d celebs, 5 assignments):\n"+
			"  unfiltered simple join:        $%.2f\n"+
			"  + feature filtering:           $%.2f  (%d HITs)\n"+
			"  + naive-10 batching:           $%.2f  (%d HITs)\n"+
			"  (paper: $67.50 -> $27 -> $2.70 on 30 celebs)\n",
		r.N, r.UnfilteredDollars, r.FilteredDollars, r.FilteredHITs, r.BatchedDollars, r.BatchedHITs)
}
