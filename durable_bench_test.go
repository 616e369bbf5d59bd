package qurk

// WAL overhead benchmark: the same filter query run plain vs durable.
// The journal fsyncs every record, so the interesting metric is the
// durability tax per posted HIT, reported as overhead_pct against the
// plain run.

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
)

// BenchmarkWALOverhead measures a durable run (intent + result record
// per HIT group, fsync on each commit) against the same query without
// a journal.
func BenchmarkWALOverhead(b *testing.B) {
	d := NewCelebrities(CelebrityConfig{N: 60, Seed: 7})
	build := func(opts ...ClientOption) *Client {
		c := NewClient(NewSimMarket(DefaultMarketConfig(7), d.Oracle()), opts...)
		c.Engine().Catalog.Register(d.Celeb)
		c.Engine().Library.MustRegister(IsFemaleTask())
		return c
	}
	const query = `SELECT c.name FROM celeb AS c WHERE isFemale(c.img)`
	ctx := context.Background()

	var plainNs, durableNs int64
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := build().Run(ctx, query); err != nil {
				b.Fatal(err)
			}
		}
		plainNs = b.Elapsed().Nanoseconds() / int64(b.N)
	})
	b.Run("durable", func(b *testing.B) {
		// A directory per run: -count repeats a run with the same b.N.
		dir := b.TempDir()
		for i := 0; i < b.N; i++ {
			path := filepath.Join(dir, fmt.Sprintf("run%d.qjl", i))
			if _, _, err := build(WithJournal(path)).Run(ctx, query); err != nil {
				b.Fatal(err)
			}
		}
		durableNs = b.Elapsed().Nanoseconds() / int64(b.N)
		if plainNs > 0 {
			b.ReportMetric(100*float64(durableNs-plainNs)/float64(plainNs), "overhead_pct")
		}
	})
}
