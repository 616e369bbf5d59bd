package qurk

// Multi-core scaling benchmarks for the parallel marketplace simulator.
// Run with -cpu to see the scaling directly:
//
//	go test -bench Parallel -run '^$' -cpu 1,8 .
//
// cmd/bench runs exactly that and records the per-CPU ns/op (and the
// derived speedups) in BENCH_results.json.

import (
	"testing"
)

// BenchmarkParallelJoinSimulation posts one 40×40 Simple join round
// (1600 single-pair HITs, 5 assignments each) — the simulator's hot
// path. HITs simulate independently, so this scales with GOMAXPROCS
// while remaining bit-identical to the single-core run.
func BenchmarkParallelJoinSimulation(b *testing.B) {
	d := NewCelebrities(CelebrityConfig{N: 40, Seed: 1})
	left, right := d.Celeb.Qualify("c"), d.Photos.Qualify("p")
	m := NewSimMarket(DefaultMarketConfig(1), d.Oracle())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunCrossJoin(left, right, SamePersonTask(),
			JoinOptions{Algorithm: SimpleJoin, GroupID: "bench-join"}, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelSortCompare runs a 60-item comparison sort
// (~180 group HITs with full pair coverage) including the streamed
// vote aggregation that overlaps in-flight HIT simulation.
func BenchmarkParallelSortCompare(b *testing.B) {
	sq := NewSquares(60)
	m := NewSimMarket(DefaultMarketConfig(2), sq.Oracle())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compare(sq.Rel, SquareSorterTask(),
			CompareOptions{GroupSize: 5, Assignments: 5, GroupID: "bench-sort"}, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelAdaptiveFilter runs the sharded adaptive vote
// pipeline over 200 tuples; shards issue next-round probes while other
// shards' rounds are still simulating.
func BenchmarkParallelAdaptiveFilter(b *testing.B) {
	d := NewCelebrities(CelebrityConfig{N: 200, Seed: 3})
	m := NewSimMarket(DefaultMarketConfig(3), d.Oracle())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunAdaptiveFilter(d.Celeb, IsFemaleTask(), VoteConfig{}, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelQuery runs the full declarative celebrity join with
// feature extraction (extract-left ∥ extract-right) and a crowd sort —
// the end-to-end wall-clock picture.
func BenchmarkParallelQuery(b *testing.B) {
	d := NewCelebrities(CelebrityConfig{N: 24, Seed: 4})
	for i := 0; i < b.N; i++ {
		market := NewSimMarket(DefaultMarketConfig(4), d.Oracle())
		eng := NewEngine(market, Options{JoinAlgorithm: NaiveJoin, JoinBatch: 5, Seed: 4})
		eng.Catalog.Register(d.Celeb)
		eng.Catalog.Register(d.Photos)
		eng.Library.MustRegister(SamePersonTask())
		eng.Library.MustRegister(GenderTask())
		if _, _, err := runQuery(eng, `
SELECT c.name FROM celeb c JOIN photos p
ON samePerson(c.img, p.img)
AND POSSIBLY gender(c.img) = gender(p.img)
ORDER BY c.name`); err != nil {
			b.Fatal(err)
		}
	}
}
