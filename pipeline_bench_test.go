package qurk

// Pipeline benchmarks for the streaming Volcano executor: end-to-end
// crowd makespan (on the simulator's virtual clock) with chunked
// streaming versus the materializing baseline (one monolithic HIT
// group per operator), and the HIT savings of a LIMIT short-circuit.
// The headline quantities are custom metrics; ns/op measures the
// simulator itself.

import (
	"testing"
)

func pipelineEngine(chunk int) (*Engine, string) {
	d := NewCelebrities(CelebrityConfig{N: 48, Seed: 33})
	m := NewSimMarket(DefaultMarketConfig(33), d.Oracle())
	e := NewEngine(m, Options{JoinAlgorithm: NaiveJoin, JoinBatch: 5, StreamChunkHITs: chunk, Seed: 33})
	e.Catalog.Register(d.Celeb)
	e.Catalog.Register(d.Photos)
	e.Library.MustRegister(IsFemaleTask())
	e.Library.MustRegister(SamePersonTask())
	return e, `
SELECT c.name FROM celeb c JOIN photos p
ON samePerson(c.img, p.img)
WHERE isFemale(c.img)`
}

// BenchmarkPipelineStreamedMakespan runs a crowd filter feeding a
// crowd join with chunked streaming: the join posts pair HITs off
// early filter chunks while later chunks are still in flight.
// Reported metrics: pipelined end-to-end makespan, the materializing
// baseline, and the resulting speedup.
func BenchmarkPipelineStreamedMakespan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eS, src := pipelineEngine(4)
		_, streamed, err := runQuery(eS, src)
		if err != nil {
			b.Fatal(err)
		}
		eM, _ := pipelineEngine(1 << 20)
		_, mono, err := runQuery(eM, src)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(streamed.PipelineMakespanHours, "streamed_makespan_h")
			b.ReportMetric(mono.PipelineMakespanHours, "materialized_makespan_h")
			if streamed.PipelineMakespanHours > 0 {
				b.ReportMetric(mono.PipelineMakespanHours/streamed.PipelineMakespanHours, "makespan_speedup_x")
			}
			b.ReportMetric(float64(streamed.TotalHITs()), "HITs")
		}
	}
}

// BenchmarkPipelineLimitSavings measures the LIMIT short-circuit: the
// streaming executor stops posting filter HITs once k rows are out,
// where full materialization pays ceil(N/batch) regardless.
func BenchmarkPipelineLimitSavings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := NewCelebrities(CelebrityConfig{N: 200, Seed: 35})
		m := NewSimMarket(DefaultMarketConfig(35), d.Oracle())
		e := NewEngine(m, Options{StreamChunkHITs: 4, Seed: 35})
		e.Catalog.Register(d.Celeb)
		e.Library.MustRegister(IsFemaleTask())
		_, stats, err := runQuery(e, `SELECT c.name FROM celeb AS c WHERE isFemale(c.img) LIMIT 3`)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			full := 40.0 // ceil(200/5) HITs under full materialization
			b.ReportMetric(float64(stats.TotalHITs()), "limit_HITs")
			b.ReportMetric(full, "materialized_HITs")
			if stats.TotalHITs() > 0 {
				b.ReportMetric(full/float64(stats.TotalHITs()), "HIT_savings_x")
			}
		}
	}
}
