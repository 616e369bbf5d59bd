package experiment

import (
	"fmt"

	"qurk/internal/crowd"
	"qurk/internal/dataset"
	"qurk/internal/sortop"
	"qurk/internal/stats"
)

// Figure7Result reproduces Figure 7: hybrid sort τ trajectories on the
// 40-square dataset.
type Figure7Result struct {
	N int
	// RateTau/RateHITs is the rating-only starting point.
	RateTau  float64
	RateHITs int
	// CompareTau/CompareHITs is the full comparison sort endpoint.
	CompareTau  float64
	CompareHITs int
	// Series maps strategy name → τ after each additional HIT.
	Series map[string][]float64
	// Order preserves strategy ordering for rendering.
	Order []string
}

// Figure7 runs the four refinement schemes. Paper: Window-6 reaches
// τ > 0.95 within ~30 extra HITs and τ = 1 in about half Compare's
// HITs; Window-5 stalls (t divides 40); random and confidence trail.
func Figure7(cfg Config) (*Figure7Result, error) {
	n := 40
	iterations := 40
	if cfg.Scale == Quick {
		n = 20
		iterations = 16
	}
	sq := dataset.NewSquares(n)
	scores := sq.TrueScores()

	res := &Figure7Result{N: n, Series: map[string][]float64{}}

	// Endpoints.
	m := crowd.NewSimMarket(cfg.trialMarketConfig(0), sq.Oracle())
	cr, err := sortop.Compare(sq.Rel, dataset.SquareSorterTask(), sortop.CompareOptions{
		GroupSize: 5, Assignments: 5, GroupID: "f7/cmp",
	}, m)
	if err != nil {
		return nil, err
	}
	res.CompareHITs = cr.HITCount
	res.CompareTau, err = tauAgainstScores(cr.Order, scores)
	if err != nil {
		return nil, err
	}

	type scheme struct {
		name string
		opts sortop.HybridOptions
	}
	schemes := []scheme{
		{"Random", sortop.HybridOptions{Strategy: sortop.RandomWindow}},
		{"Confidence", sortop.HybridOptions{Strategy: sortop.ConfidenceWindow}},
		{"Window 5", sortop.HybridOptions{Strategy: sortop.SlidingWindow, Step: 5}},
		{"Window 6", sortop.HybridOptions{Strategy: sortop.SlidingWindow, Step: 6}},
	}
	for _, sc := range schemes {
		opts := sc.opts
		opts.WindowSize = 5
		opts.Iterations = iterations
		opts.Assignments = 5
		opts.Seed = cfg.Seed
		opts.GroupID = "f7/" + sc.name
		opts.Rate = sortop.RateOptions{BatchSize: 5, Assignments: 5, Seed: cfg.Seed}
		m := crowd.NewSimMarket(cfg.trialMarketConfig(0), sq.Oracle())
		hy, err := sortop.Hybrid(sq.Rel, dataset.SquareSorterTask(), opts, m)
		if err != nil {
			return nil, err
		}
		if res.RateHITs == 0 {
			res.RateHITs = hy.RateHITs
			res.RateTau, err = tauAgainstScores(hy.InitialOrder, scores)
			if err != nil {
				return nil, err
			}
		}
		var series []float64
		for _, order := range hy.Trace {
			tau, err := tauAgainstScores(order, scores)
			if err != nil {
				return nil, err
			}
			series = append(series, tau)
		}
		res.Series[sc.name] = series
		res.Order = append(res.Order, sc.name)
	}
	return res, nil
}

// FinalTau returns a strategy's τ after all iterations.
func (r *Figure7Result) FinalTau(strategy string) float64 {
	s := r.Series[strategy]
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1]
}

// HITsToTau returns how many refinement HITs a strategy needed to first
// reach the target τ, or -1 if it never did.
func (r *Figure7Result) HITsToTau(strategy string, target float64) int {
	for i, tau := range r.Series[strategy] {
		if tau >= target {
			return i + 1
		}
	}
	return -1
}

// Render prints the τ-vs-HITs trajectories.
func (r *Figure7Result) Render() string {
	t := newTable(append([]string{"HITs"}, r.Order...)...)
	maxLen := 0
	for _, s := range r.Series {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	step := 1
	if maxLen > 20 {
		step = maxLen / 20
	}
	for i := 0; i < maxLen; i += step {
		cells := []string{fmt.Sprint(i + 1)}
		for _, name := range r.Order {
			s := r.Series[name]
			if i < len(s) {
				cells = append(cells, f3(s[i]))
			} else {
				cells = append(cells, "-")
			}
		}
		t.add(cells...)
	}
	head := fmt.Sprintf(
		"Figure 7: hybrid sort on %d squares\n  Rate-only: tau=%.3f at %d HITs; Compare: tau=%.3f at %d HITs\n",
		r.N, r.RateTau, r.RateHITs, r.CompareTau, r.CompareHITs)
	return head + t.String()
}

// AnimalsHybridResult reproduces §4.2.4's closing experiment.
type AnimalsHybridResult struct {
	StartTau, EndTau float64
	Iterations       int
}

// AnimalsHybrid runs Q2 (animal size) through the window scheme.
// Paper: τ improves from ≈0.76 to ≈0.90 within 20 iterations.
func AnimalsHybrid(cfg Config) (*AnimalsHybridResult, error) {
	an := dataset.NewAnimals()
	scores, err := an.TrueScores("animalSize")
	if err != nil {
		return nil, err
	}
	iterations := 20
	m := crowd.NewSimMarket(cfg.trialMarketConfig(0), an.Oracle())
	hy, err := sortop.Hybrid(an.Rel, dataset.AnimalSizeTask(), sortop.HybridOptions{
		Strategy: sortop.SlidingWindow, WindowSize: 5, Step: 6,
		Iterations: iterations, Assignments: 5, Seed: cfg.Seed,
		Rate:    sortop.RateOptions{BatchSize: 5, Assignments: 5, Seed: cfg.Seed},
		GroupID: "animals-hybrid",
	}, m)
	if err != nil {
		return nil, err
	}
	res := &AnimalsHybridResult{Iterations: iterations}
	res.StartTau, err = tauAgainstScores(hy.InitialOrder, scores)
	if err != nil {
		return nil, err
	}
	res.EndTau, err = tauAgainstScores(hy.Order, scores)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the improvement line.
func (r *AnimalsHybridResult) Render() string {
	return fmt.Sprintf(
		"Sec 4.2.4: animals (Q2) hybrid — tau %.3f -> %.3f in %d iterations (paper: 0.76 -> 0.90 in 20)\n",
		r.StartTau, r.EndTau, r.Iterations)
}

// tauSanity guards against the stats import being elided.
var _ = stats.Mean
