package experiment

import (
	"fmt"

	"qurk/internal/crowd"
	"qurk/internal/dataset"
	"qurk/internal/relation"
	"qurk/internal/sortop"
	"qurk/internal/stats"
)

// tauAgainstScores computes τ-b between a result order and latent scores.
func tauAgainstScores(order []int, scores []float64) (float64, error) {
	pos := make([]float64, len(order))
	sc := make([]float64, len(order))
	for rank, idx := range order {
		pos[rank] = float64(rank)
		sc[rank] = scores[idx]
	}
	return stats.KendallTauB(pos, sc)
}

// CompareBatchingResult reproduces §4.2.2's comparison-batching
// microbenchmark.
type CompareBatchingResult struct {
	N    int
	Rows []CompareBatchingRow
}

// CompareBatchingRow is one group size's outcome.
type CompareBatchingRow struct {
	GroupSize int
	Tau       float64
	HITs      int
	Makespan  float64
	Completed bool
}

// SquareCompareBatching sorts squares with group sizes 5, 10, 20.
// Paper: τ = 1.0 at S = 5 and 10; S = 10 is ≥3× slower; S = 20 never
// completes.
func SquareCompareBatching(cfg Config) (*CompareBatchingResult, error) {
	n := 40
	if cfg.Scale == Quick {
		n = 20
	}
	sq := dataset.NewSquares(n)
	scores := sq.TrueScores()
	res := &CompareBatchingResult{N: n}
	for _, s := range []int{5, 10, 20} {
		m := crowd.NewSimMarket(cfg.trialMarketConfig(0), sq.Oracle())
		cr, err := sortop.Compare(sq.Rel, dataset.SquareSorterTask(), sortop.CompareOptions{
			GroupSize: s, Assignments: 5, GroupID: fmt.Sprintf("cmp%d", s),
		}, m)
		if err != nil {
			return nil, err
		}
		row := CompareBatchingRow{GroupSize: s, HITs: cr.HITCount, Makespan: cr.MakespanHours}
		row.Completed = len(cr.Incomplete) == 0
		if row.Completed {
			row.Tau, err = tauAgainstScores(cr.Order, scores)
			if err != nil {
				return nil, err
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the microbenchmark rows.
func (r *CompareBatchingResult) Render() string {
	t := newTable("Group size", "Tau", "HITs", "Makespan (h)", "Completed")
	for _, row := range r.Rows {
		tau := "-"
		if row.Completed {
			tau = f3(row.Tau)
		}
		t.add(fmt.Sprint(row.GroupSize), tau, fmt.Sprint(row.HITs), f3(row.Makespan), fmt.Sprint(row.Completed))
	}
	return fmt.Sprintf("Sec 4.2.2: Compare batching on %d squares (paper: tau=1.0 at S=5,10; S=20 refused)\n", r.N) + t.String()
}

// RateBatchingResult reproduces §4.2.2's rating-batching microbenchmark.
type RateBatchingResult struct {
	N       int
	Rows    []RateBatchingRow
	MeanTau float64
	StdTau  float64
}

// RateBatchingRow is one batch size's outcome.
type RateBatchingRow struct {
	BatchSize   int
	Assignments int
	Tau         float64
	HITs        int
}

// SquareRateBatching rates squares at batch sizes 1–10. Paper: τ ≈ 0.78
// (σ ≈ 0.058) regardless of batch size; 5 assignments ≈ 10.
func SquareRateBatching(cfg Config) (*RateBatchingResult, error) {
	n := 40
	if cfg.Scale == Quick {
		n = 20
	}
	sq := dataset.NewSquares(n)
	scores := sq.TrueScores()
	res := &RateBatchingResult{N: n}
	var taus []float64
	for trial := 0; trial < 2; trial++ {
		for _, batch := range []int{1, 2, 5, 10} {
			m := crowd.NewSimMarket(cfg.trialMarketConfig(trial), sq.Oracle())
			rr, err := sortop.Rate(sq.Rel, dataset.SquareSorterTask(), sortop.RateOptions{
				BatchSize: batch, Assignments: 5, Seed: cfg.Seed + int64(batch),
				GroupID: fmt.Sprintf("rate/b%d/t%d", batch, trial),
			}, m)
			if err != nil {
				return nil, err
			}
			tau, err := tauAgainstScores(rr.Order, scores)
			if err != nil {
				return nil, err
			}
			taus = append(taus, tau)
			res.Rows = append(res.Rows, RateBatchingRow{
				BatchSize: batch, Assignments: 5, Tau: tau, HITs: rr.HITCount,
			})
		}
	}
	// Assignment-count comparison: 10 votes vs 5 (diminishing returns).
	m := crowd.NewSimMarket(cfg.trialMarketConfig(0), sq.Oracle())
	rr, err := sortop.Rate(sq.Rel, dataset.SquareSorterTask(), sortop.RateOptions{
		BatchSize: 5, Assignments: 10, Seed: cfg.Seed, GroupID: "rate/a10",
	}, m)
	if err != nil {
		return nil, err
	}
	tau10, err := tauAgainstScores(rr.Order, scores)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, RateBatchingRow{BatchSize: 5, Assignments: 10, Tau: tau10, HITs: rr.HITCount})
	res.MeanTau, res.StdTau = stats.MeanStd(taus)
	return res, nil
}

// Render prints the batching sweep.
func (r *RateBatchingResult) Render() string {
	t := newTable("Batch", "Assignments", "Tau", "HITs")
	for _, row := range r.Rows {
		t.add(fmt.Sprint(row.BatchSize), fmt.Sprint(row.Assignments), f3(row.Tau), fmt.Sprint(row.HITs))
	}
	return fmt.Sprintf("Sec 4.2.2: Rate batching on %d squares — mean tau %.3f (std %.3f); paper: 0.78 (0.058)\n",
		r.N, r.MeanTau, r.StdTau) + t.String()
}

// RateGranularityResult reproduces §4.2.2's granularity sweep.
type RateGranularityResult struct {
	Rows    []RateGranularityRow
	MeanTau float64
	StdTau  float64
}

// RateGranularityRow is one dataset size's outcome.
type RateGranularityRow struct {
	N    int
	Tau  float64
	HITs int
}

// SquareRateGranularity rates datasets of 20–50 squares at batch 5.
// Paper: τ stable (avg 0.798, std 0.042) — the 7-point scale does not
// degrade as the dataset outgrows it.
func SquareRateGranularity(cfg Config) (*RateGranularityResult, error) {
	sizes := []int{20, 25, 30, 35, 40, 45, 50}
	if cfg.Scale == Quick {
		sizes = []int{20, 30, 40}
	}
	res := &RateGranularityResult{}
	var taus []float64
	for i, n := range sizes {
		sq := dataset.NewSquares(n)
		m := crowd.NewSimMarket(cfg.trialMarketConfig(i%2), sq.Oracle())
		rr, err := sortop.Rate(sq.Rel, dataset.SquareSorterTask(), sortop.RateOptions{
			BatchSize: 5, Assignments: 5, Seed: cfg.Seed + int64(n), GroupID: fmt.Sprintf("gran/%d", n),
		}, m)
		if err != nil {
			return nil, err
		}
		tau, err := tauAgainstScores(rr.Order, sq.TrueScores())
		if err != nil {
			return nil, err
		}
		taus = append(taus, tau)
		res.Rows = append(res.Rows, RateGranularityRow{N: n, Tau: tau, HITs: rr.HITCount})
	}
	res.MeanTau, res.StdTau = stats.MeanStd(taus)
	return res, nil
}

// Render prints the granularity sweep.
func (r *RateGranularityResult) Render() string {
	t := newTable("Dataset size", "Tau", "HITs")
	for _, row := range r.Rows {
		t.add(fmt.Sprint(row.N), f3(row.Tau), fmt.Sprint(row.HITs))
	}
	return fmt.Sprintf("Sec 4.2.2: Rate granularity — mean tau %.3f (std %.3f); paper: 0.798 (0.042)\n",
		r.MeanTau, r.StdTau) + t.String()
}

// runCompareAndRate is shared by Figure 6: run both interfaces over a
// relation under one task.
func runCompareAndRate(cfg Config, rel *relation.Relation, rt rankTask, oracle crowd.Oracle, label string) (*sortop.CompareResult, *sortop.RateResult, error) {
	m1 := crowd.NewSimMarket(cfg.trialMarketConfig(0), oracle)
	cr, err := sortop.Compare(rel, rt.task, sortop.CompareOptions{
		GroupSize: 5, Assignments: 5, GroupID: label + "/cmp",
	}, m1)
	if err != nil {
		return nil, nil, err
	}
	m2 := crowd.NewSimMarket(cfg.trialMarketConfig(1), oracle)
	rr, err := sortop.Rate(rel, rt.task, sortop.RateOptions{
		BatchSize: 5, Assignments: 5, Seed: cfg.Seed, GroupID: label + "/rate",
	}, m2)
	if err != nil {
		return nil, nil, err
	}
	return cr, rr, nil
}
