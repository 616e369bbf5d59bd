package qurk

// Benchmarks for adaptive mid-query re-optimization (Options.Replan):
// the headline metrics pin the posted-HIT cut a mid-run interface
// switch buys over the static plan on a workload whose true POSSIBLY
// pass fraction (or sort group size) is far off the optimizer's prior.
// ns/op measures the engine itself.

import (
	"fmt"
	"testing"
)

// BenchmarkReoptimizeJoin: a feature-prefiltered NaiveBatch join whose
// true pass fraction (~0.5, same-gender pairs) is well above the
// per-pair break-even. After Replan.ProbeTuples probe rows the
// executor re-costs the interface from the observed fraction and lays
// the remaining survivors out as SmartBatch grids; the switch must cut
// total posted HITs by at least 20% against the static plan. Grids
// trade a little per-pair accuracy for the batch (the cost model's
// 0.918 vs 0.938), so the quality bar is true-match recall against
// ground truth — within one match of the static plan — not
// bit-identical rows.
func BenchmarkReoptimizeJoin(b *testing.B) {
	const n = 16
	const query = `
SELECT c.name FROM celeb c JOIN photos p
ON samePerson(c.img, p.img)
AND POSSIBLY gender(c.img) = gender(p.img)
ORDER BY c.name`
	run := func(replan bool) (int, *ExecStats) {
		// Easy match difficulty and no lookalikes keep verdict noise out
		// of the comparison: the benchmark pins HIT economics, and the
		// recall bar guards against a real quality collapse.
		d := NewCelebrities(CelebrityConfig{
			N: n, Seed: 31,
			MatchDifficulty: 0.05, NonMatchDifficulty: 0.02, LookalikeFraction: 1e-9,
		})
		m := NewSimMarket(DefaultMarketConfig(31), d.Oracle())
		// 9 assignments per HIT firm up the grid cells' majority votes
		// (the simulator charges batched cells extra sloppiness, §3.3's
		// quality-for-cost tradeoff) without changing either plan's HIT
		// count — the quantity under test.
		opts := Options{JoinAlgorithm: NaiveJoin, JoinBatch: 2, Assignments: 9, Seed: 31}
		if replan {
			opts.Replan = ReplanOptions{Enabled: true, ProbeTuples: 4}
		}
		e := NewEngine(m, opts)
		e.Catalog.Register(d.Celeb)
		e.Catalog.Register(d.Photos)
		e.Library.MustRegister(SamePersonTask())
		e.Library.MustRegister(GenderTask())
		out, stats, err := runQuery(e, query)
		if err != nil {
			b.Fatal(err)
		}
		// Each celebrity truly matches exactly their own candid photo, so
		// recall is the count of distinct expected names in the output.
		found := map[string]bool{}
		for i := 0; i < out.Len(); i++ {
			found[out.Row(i).MustGet("name").String()] = true
		}
		recall := 0
		for i := 0; i < n; i++ {
			if found[fmt.Sprintf("Celebrity %02d", i)] {
				recall++
			}
		}
		return recall, stats
	}
	for i := 0; i < b.N; i++ {
		recall, adaptive := run(true)
		if i == 0 {
			staticRecall, static := run(false)
			if recall < staticRecall-1 {
				b.Fatalf("re-planned join recall %d/%d, static %d/%d — quality collapsed",
					recall, n, staticRecall, n)
			}
			if adaptive.TotalHITs()*5 > static.TotalHITs()*4 {
				b.Fatalf("re-plan cut under 20%%: %d HITs vs %d static",
					adaptive.TotalHITs(), static.TotalHITs())
			}
			b.ReportMetric(float64(static.TotalHITs()), "static_HITs")
			b.ReportMetric(float64(adaptive.TotalHITs()), "replan_HITs")
			b.ReportMetric(100*(1-float64(adaptive.TotalHITs())/float64(static.TotalHITs())), "HIT_cut_pct")
			b.ReportMetric(float64(recall), "replan_true_matches")
			b.ReportMetric(float64(staticRecall), "static_true_matches")
		}
	}
}

// BenchmarkReoptimizeSort: a 24-row ORDER BY group under Compare needs
// a pairwise comparison cover; once the group materializes, re-costing
// at its true size switches it to Rate (ceil(n/batch) HITs) when
// rating's quality clears the floor. Rate reorders within score ties,
// so the pinned win is the HIT cut, not row order.
func BenchmarkReoptimizeSort(b *testing.B) {
	const query = `SELECT label FROM squares ORDER BY squareSorter(img)`
	run := func(replan bool) *ExecStats {
		sq := NewSquares(24)
		m := NewSimMarket(DefaultMarketConfig(37), sq.Oracle())
		opts := Options{Seed: 37}
		if replan {
			opts.Replan = ReplanOptions{Enabled: true, MinQuality: 0.75}
		}
		e := NewEngine(m, opts)
		e.Catalog.Register(sq.Rel)
		e.Library.MustRegister(SquareSorterTask())
		out, stats, err := runQuery(e, query)
		if err != nil {
			b.Fatal(err)
		}
		if out.Len() != 24 {
			b.Fatalf("sort returned %d rows, want 24", out.Len())
		}
		return stats
	}
	for i := 0; i < b.N; i++ {
		adaptive := run(true)
		if i == 0 {
			static := run(false)
			if adaptive.TotalHITs() >= static.TotalHITs() {
				b.Fatalf("re-plan posted %d HITs, static %d — no cut",
					adaptive.TotalHITs(), static.TotalHITs())
			}
			b.ReportMetric(float64(static.TotalHITs()), "static_HITs")
			b.ReportMetric(float64(adaptive.TotalHITs()), "replan_HITs")
			b.ReportMetric(100*(1-float64(adaptive.TotalHITs())/float64(static.TotalHITs())), "HIT_cut_pct")
		}
	}
}
