package mturk

// Tests for the poll loop's capped exponential backoff and for the
// streaming executor's chunk-size invariance over the live backend on
// the new poster-driven paths (feature extraction, crowd sorts).

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"qurk/internal/core"
	"qurk/internal/dataset"
	"qurk/internal/join"
)

// TestPollBackoffReducesRequests: while no assignments arrive, the
// sweep interval doubles up to MaxPollInterval, so a long-deadline
// group costs far fewer ListAssignmentsForHIT calls; a snappy cap
// keeps the old cadence.
func TestPollBackoffReducesRequests(t *testing.T) {
	run := func(maxPoll time.Duration) int {
		clock := NewFakeClock(t0)
		f := NewFakeServer(FakeConfig{Clock: clock, SubmitDelay: 3 * time.Minute, YesPct: 100})
		defer f.Close()
		c, err := New(Config{
			Endpoint:           f.URL(),
			AccessKey:          "FAKEKEY",
			SecretKey:          "FAKESECRET",
			Clock:              clock,
			PollInterval:       time.Second,
			MaxPollInterval:    maxPoll,
			AssignmentDuration: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		e := core.NewEngine(c, core.Options{})
		d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 10, Seed: 3})
		e.Catalog.Register(d.Celeb)
		e.Library.MustRegister(dataset.IsFemaleTask())
		out, _, err := runQuery(e, `SELECT c.name FROM celeb c WHERE isFemale(c.img)`)
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != 10 {
			t.Fatalf("YesPct=100 must pass all rows, got %d", out.Len())
		}
		return f.RequestCount(opListAssignmentsForHIT)
	}
	fixed := run(time.Second)       // cap == interval: no backoff
	backoff := run(2 * time.Minute) // idle sweeps double up to 2m
	if backoff >= fixed {
		t.Errorf("backoff did not cut request volume: %d sweeps with backoff vs %d fixed", backoff, fixed)
	}
	if backoff == 0 {
		t.Error("no ListAssignmentsForHIT calls recorded")
	}
}

// TestPollBackoffResetsOnProgress: a new assignment resets the cadence
// to PollInterval (the wait after a progressing sweep is the base
// interval, not the backed-off one).
func TestPollBackoffResetsOnProgress(t *testing.T) {
	clock := NewFakeClock(t0)
	f := NewFakeServer(FakeConfig{Clock: clock, SubmitDelay: 45 * time.Second, YesPct: 100})
	defer f.Close()
	c, err := New(Config{
		Endpoint:           f.URL(),
		AccessKey:          "FAKEKEY",
		SecretKey:          "FAKESECRET",
		Clock:              clock,
		PollInterval:       time.Second,
		MaxPollInterval:    4 * time.Minute,
		AssignmentDuration: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(c, core.Options{StreamChunkHITs: 1})
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 10, Seed: 5})
	e.Catalog.Register(d.Celeb)
	e.Library.MustRegister(dataset.IsFemaleTask())
	out, _, err := runQuery(e, `SELECT c.name FROM celeb c WHERE isFemale(c.img)`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 10 {
		t.Fatalf("rows = %d, want 10", out.Len())
	}
}

// TestMTurkExtractionChunkInvariance: the streaming-extraction join is
// bit-identical across chunk settings over the live backend — HIT
// identity (the UniqueRequestToken) never depends on chunking and the
// fake derives all worker behavior from it.
func TestMTurkExtractionChunkInvariance(t *testing.T) {
	run := func(chunk, lookahead int) string {
		clock := NewFakeClock(t0)
		f := NewFakeServer(FakeConfig{Clock: clock, SubmitDelay: 2 * time.Second, YesPct: 25})
		defer f.Close()
		c, err := New(Config{
			Endpoint:           f.URL(),
			AccessKey:          "FAKEKEY",
			SecretKey:          "FAKESECRET",
			Clock:              clock,
			PollInterval:       time.Second,
			AssignmentDuration: 5 * time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		e := core.NewEngine(c, core.Options{
			JoinAlgorithm: join.Naive, JoinBatch: 5,
			StreamChunkHITs: chunk, StreamLookahead: lookahead,
		})
		d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 8, Seed: 3})
		e.Catalog.Register(d.Celeb)
		e.Catalog.Register(d.Photos)
		e.Library.MustRegister(dataset.SamePersonTask())
		e.Library.MustRegister(dataset.GenderTask())
		out, stats, err := runQuery(e, `
SELECT c.name FROM celeb c JOIN photos p
ON samePerson(c.img, p.img)
AND POSSIBLY gender(c.img) = gender(p.img)`)
		if err != nil {
			t.Fatal(err)
		}
		var rows strings.Builder
		for i := 0; i < out.Len(); i++ {
			rows.WriteString(out.Row(i).String())
			rows.WriteByte('\n')
		}
		return fmt.Sprintf("%s|hits=%d", rows.String(), stats.TotalHITs())
	}
	base := run(8, 2)
	if strings.HasPrefix(base, "|") {
		t.Log("note: fake answer policy produced no matches; invariance still checked")
	}
	for _, cfg := range [][2]int{{1, 2}, {3, 1}} {
		if got := run(cfg[0], cfg[1]); got != base {
			t.Errorf("chunk=%d lookahead=%d diverged over MTurk backend:\n--- base\n%s--- got\n%s",
				cfg[0], cfg[1], base, got)
		}
	}
}

// TestMTurkSortChunkInvariance: poster-driven crowd sorts are
// bit-identical across chunk settings over the live backend.
func TestMTurkSortChunkInvariance(t *testing.T) {
	run := func(chunk int) string {
		clock := NewFakeClock(t0)
		f := NewFakeServer(FakeConfig{Clock: clock, SubmitDelay: 2 * time.Second})
		defer f.Close()
		c, err := New(Config{
			Endpoint:           f.URL(),
			AccessKey:          "FAKEKEY",
			SecretKey:          "FAKESECRET",
			Clock:              clock,
			PollInterval:       time.Second,
			AssignmentDuration: 5 * time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		e := core.NewEngine(c, core.Options{SortMethod: core.SortCompare, StreamChunkHITs: chunk})
		s := dataset.NewSquares(8)
		e.Catalog.Register(s.Rel)
		e.Library.MustRegister(dataset.SquareSorterTask())
		out, stats, err := runQuery(e, `SELECT label FROM squares ORDER BY squareSorter(img)`)
		if err != nil {
			t.Fatal(err)
		}
		var rows strings.Builder
		for i := 0; i < out.Len(); i++ {
			rows.WriteString(out.Row(i).String())
			rows.WriteByte('\n')
		}
		return fmt.Sprintf("%s|hits=%d", rows.String(), stats.TotalHITs())
	}
	base := run(8)
	if !strings.Contains(base, "square-") {
		t.Fatalf("sort over MTurk backend returned nothing:\n%s", base)
	}
	for _, chunk := range []int{1, 3} {
		if got := run(chunk); got != base {
			t.Errorf("chunk=%d diverged over MTurk backend:\n--- base\n%s--- got\n%s", chunk, base, got)
		}
	}
}

// TestBackoffDoesNotDelayExpiryDetection: the backed-off sleep clamps
// to the nearest pending assignment deadline, so expiry is detected
// within one base poll interval of the deadline even when sweeps have
// been idle for a while.
func TestBackoffDoesNotDelayExpiryDetection(t *testing.T) {
	clock := NewFakeClock(t0)
	// Every assignment abandoned: no sweep ever progresses, so the
	// backoff would otherwise run all the way to MaxPollInterval.
	f := NewFakeServer(FakeConfig{Clock: clock, SubmitDelay: time.Minute, AbandonPct: 100})
	defer f.Close()
	deadline := 5 * time.Minute
	c, err := New(Config{
		Endpoint:           f.URL(),
		AccessKey:          "FAKEKEY",
		SecretKey:          "FAKESECRET",
		Clock:              clock,
		PollInterval:       15 * time.Second,
		MaxPollInterval:    30 * time.Minute,
		AssignmentDuration: deadline,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(c, core.Options{ExpiredRetries: -1})
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 5, Seed: 3})
	e.Catalog.Register(d.Celeb)
	e.Library.MustRegister(dataset.IsFemaleTask())
	_, stats, err := runQuery(e, `SELECT c.name FROM celeb c WHERE isFemale(c.img)`)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalExpired() == 0 {
		t.Fatal("full abandonment produced no expiry")
	}
	// The run ends when the expiry is detected; with the deadline clamp
	// that is within ~one poll interval past the 5m deadline, where an
	// unclamped backoff could overshoot by most of MaxPollInterval.
	elapsed := clock.Now().Sub(t0)
	if elapsed > deadline+2*15*time.Second {
		t.Errorf("expiry detected %v after post; want within ~%v of the %v deadline",
			elapsed, 15*time.Second, deadline)
	}
}
