package qurk

// Ablation benchmarks: isolate each design choice the paper's evaluation
// leans on and measure the system with it removed or swept. Reported via
// custom metrics, like bench_test.go.

import (
	"fmt"
	"testing"

	"qurk/internal/adaptive"
	"qurk/internal/combine"
	"qurk/internal/crowd"
	"qurk/internal/dataset"
	"qurk/internal/join"
)

// BenchmarkAblationCombiner sweeps the spam fraction and reports the
// true-positive accuracy of MajorityVote vs QualityAdjust — the design
// reason Qurk ships the EM combiner at all (§3.3.2).
func BenchmarkAblationCombiner(b *testing.B) {
	for _, spam := range []float64{0.05, 0.2, 0.35} {
		b.Run(fmt.Sprintf("spam=%.2f", spam), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 15, Seed: 5})
				cfg := crowd.DefaultConfig(5)
				cfg.Population.SpamFraction = spam
				m := crowd.NewSimMarket(cfg, d.Oracle())
				left, right := d.Celeb.Qualify("c"), d.Photos.Qualify("p")
				res, err := join.RunCross(left, right, dataset.SamePersonTask(),
					join.Options{Algorithm: join.Naive, BatchSize: 10, Assignments: 7}, m)
				if err != nil {
					b.Fatal(err)
				}
				if i > 0 {
					continue
				}
				mv, _ := combine.MajorityVote{}.Combine(res.Votes)
				qa := combine.NewQualityAdjust(combine.DefaultQAConfig())
				qad, err := qa.Combine(res.Votes)
				if err != nil {
					b.Fatal(err)
				}
				tpMV, tpQA := 0, 0
				for _, p := range join.CrossPairs(left, right) {
					if !d.IsMatch(p.Left, p.Right) {
						continue
					}
					if mv[p.Key()].Value == "yes" {
						tpMV++
					}
					if qad[p.Key()].Value == "yes" {
						tpQA++
					}
				}
				b.ReportMetric(float64(tpMV)/15, "TP_MV")
				b.ReportMetric(float64(tpQA)/15, "TP_QA")
			}
		})
	}
}

// BenchmarkAblationFeatureCount reports join HITs as POSSIBLY features
// are added one at a time — the marginal value of each filter (§3.2).
func BenchmarkAblationFeatureCount(b *testing.B) {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 20, Seed: 9})
	left, right := d.Celeb.Qualify("c"), d.Photos.Qualify("p")
	all := dataset.CelebrityFeatures()
	for nf := 0; nf <= len(all); nf++ {
		b.Run(fmt.Sprintf("features=%d", nf), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := crowd.NewSimMarket(crowd.DefaultConfig(9), d.Oracle())
				var pairs []join.Pair
				extractHITs := 0
				if nf == 0 {
					pairs = join.CrossPairs(left, right)
				} else {
					feats := all[:nf]
					eo := join.ExtractOptions{Combined: true, BatchSize: 4, Assignments: 5, GroupID: "abl-l"}
					le, err := join.Extract(left, feats, eo, m)
					if err != nil {
						b.Fatal(err)
					}
					eo.GroupID = "abl-r"
					re, err := join.Extract(right, feats, eo, m)
					if err != nil {
						b.Fatal(err)
					}
					names := make([]string, nf)
					for j, f := range feats {
						names[j] = f.Field
					}
					pairs = join.FilteredPairs(left, right, le, re, names)
					extractHITs = le.HITCount + re.HITCount
				}
				if i == 0 {
					joinHITs := (len(pairs) + 4) / 5 // naive-5
					b.ReportMetric(float64(len(pairs)), "candidate_pairs")
					b.ReportMetric(float64(extractHITs+joinHITs), "total_HITs")
				}
			}
		})
	}
}

// BenchmarkAblationAdaptiveVotes compares fixed-11-vote filtering with
// the adaptive allocator at equal accuracy targets.
func BenchmarkAblationAdaptiveVotes(b *testing.B) {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 30, Seed: 13})
	for i := 0; i < b.N; i++ {
		m := crowd.NewSimMarket(crowd.DefaultConfig(13), d.Oracle())
		res, err := adaptive.RunAdaptiveFilter(d.Celeb, dataset.IsFemaleTask(),
			adaptive.VoteConfig{MinVotes: 3, MaxVotes: 11, Step: 2, Confidence: 0.92}, m)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.TotalAssignments), "adaptive_assignments")
			b.ReportMetric(float64(30*11), "fixed11_assignments")
		}
	}
}

// BenchmarkAblationBatchDepth sweeps the naive join batch size and
// reports the single-worker TP rate — the quality price of batching
// that Figures 3 and 4 trade against cost.
func BenchmarkAblationBatchDepth(b *testing.B) {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 15, Seed: 17})
	left, right := d.Celeb.Qualify("c"), d.Photos.Qualify("p")
	for _, batch := range []int{1, 5, 10, 20} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := crowd.NewSimMarket(crowd.DefaultConfig(17), d.Oracle())
				res, err := join.RunCross(left, right, dataset.SamePersonTask(),
					join.Options{Algorithm: join.Naive, BatchSize: batch, Assignments: 5}, m)
				if err != nil {
					b.Fatal(err)
				}
				if i > 0 {
					continue
				}
				var pos, yes float64
				for _, v := range res.Votes {
					var li, ri int
					fmt.Sscanf(v.Question, "pair:%x|%x", &li, &ri)
					_ = li
					_ = ri
				}
				// Single-worker TP: fraction of yes votes on true pairs.
				truth := map[string]bool{}
				for _, p := range join.CrossPairs(left, right) {
					truth[p.Key()] = d.IsMatch(p.Left, p.Right)
				}
				for _, v := range res.Votes {
					if truth[v.Question] {
						pos++
						if v.Value == "yes" {
							yes++
						}
					}
				}
				if pos > 0 {
					b.ReportMetric(yes/pos, "single_worker_TP")
				}
				b.ReportMetric(float64(res.HITCount), "HITs")
			}
		})
	}
}

// BenchmarkAblationCacheHits measures the task cache (§2.6), which is
// the engine's answer store: a re-run of the same filter answers
// entirely from the store with zero new HITs.
func BenchmarkAblationCacheHits(b *testing.B) {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 20, Seed: 19})
	for i := 0; i < b.N; i++ {
		m := crowd.NewSimMarket(crowd.DefaultConfig(19), d.Oracle())
		eng := NewEngine(m, Options{})
		eng.Catalog.Register(d.Celeb)
		eng.Library.MustRegister(IsFemaleTask())
		store, err := OpenAnswerStore("", AnswerStorePolicy{})
		if err != nil {
			b.Fatal(err)
		}
		eng.Answers = store
		q := `SELECT c.name FROM celeb AS c WHERE isFemale(c.img)`
		if _, _, err := runQuery(eng, q); err != nil {
			b.Fatal(err)
		}
		_, stats2, err := runQuery(eng, q)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(stats2.TotalHITs()), "rerun_HITs")
			b.ReportMetric(float64(stats2.TotalReused()), "cache_hits")
			b.ReportMetric(float64(store.Stats().Misses), "cache_misses")
		}
		store.Close()
	}
}
