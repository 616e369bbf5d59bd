package qurk

// The acceptance bar for durability: kill the run at any posting
// point, resume from the journal, and get bit-identical rows with zero
// duplicate HITs — on the simulator (crash injection at every HIT
// admission) and on the MTurk backend (endpoint faults exhausting the
// retry budget, then UniqueRequestToken re-attach on resume).

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"qurk/internal/crowd"
	"qurk/internal/service"
	"qurk/internal/wal"
)

// rowsOf fingerprints a result relation by one column, in row order.
func rowsOf(out *Relation, col string) string {
	var b strings.Builder
	for i := 0; i < out.Len(); i++ {
		b.WriteString(out.Row(i).MustGet(col).String())
		b.WriteByte('\n')
	}
	return b.String()
}

func sortedCopy(s []string) []string {
	c := append([]string(nil), s...)
	sort.Strings(c)
	return c
}

// durableCase is one query under kill/resume test: newMarket builds a
// fresh tracking simulator, newClient a client over any market with
// the case's tables and tasks registered (plus any extra options, such
// as WithJournal).
type durableCase struct {
	col       string
	query     string
	newMarket func() *SimMarket
	newClient func(m Marketplace, opts ...ClientOption) *Client
}

func filterCase() durableCase {
	d := NewCelebrities(CelebrityConfig{N: 20, Seed: 1})
	cfg := DefaultMarketConfig(1)
	cfg.TrackPosts = true
	return durableCase{
		col:   "name",
		query: `SELECT c.name FROM celeb AS c WHERE isFemale(c.img)`,
		newMarket: func() *SimMarket {
			return NewSimMarket(cfg, d.Oracle())
		},
		newClient: func(m Marketplace, opts ...ClientOption) *Client {
			c := NewClient(m, opts...)
			c.Engine().Catalog.Register(d.Celeb)
			c.Engine().Library.MustRegister(IsFemaleTask())
			return c
		},
	}
}

func joinCase() durableCase {
	d := NewCelebrities(CelebrityConfig{N: 6, Seed: 2})
	cfg := DefaultMarketConfig(2)
	cfg.TrackPosts = true
	return durableCase{
		col: "name",
		query: `
SELECT c.name FROM celeb c JOIN photos p
ON samePerson(c.img, p.img)
AND POSSIBLY gender(c.img) = gender(p.img)
ORDER BY c.name`,
		newMarket: func() *SimMarket {
			return NewSimMarket(cfg, d.Oracle())
		},
		newClient: func(m Marketplace, opts ...ClientOption) *Client {
			c := NewClient(m, opts...)
			c.Engine().Catalog.Register(d.Celeb)
			c.Engine().Catalog.Register(d.Photos)
			c.Engine().Library.MustRegister(SamePersonTask())
			c.Engine().Library.MustRegister(GenderTask())
			return c
		},
	}
}

func sortCase() durableCase {
	sq := NewSquares(10)
	cfg := DefaultMarketConfig(3)
	cfg.TrackPosts = true
	return durableCase{
		col:   "label",
		query: `SELECT label FROM squares ORDER BY squareSorter(img)`,
		newMarket: func() *SimMarket {
			return NewSimMarket(cfg, sq.Oracle())
		},
		newClient: func(m Marketplace, opts ...ClientOption) *Client {
			c := NewClient(m, opts...)
			c.Engine().Catalog.Register(sq.Rel)
			c.Engine().Library.MustRegister(SquareSorterTask())
			return c
		},
	}
}

// killResumeEquivalence is the shared harness: a clean durable run
// fixes the expected rows and posted-HIT log; then for each crash
// point k the simulator fails the run at its k-th HIT admission, and a
// resumed run over the same market must reproduce the baseline exactly
// with no HIT posted twice.
func killResumeEquivalence(t *testing.T, c durableCase, stride int) {
	ctx := context.Background()
	base := c.newMarket()
	wantOut, _, err := c.newClient(base, WithJournal(filepath.Join(t.TempDir(), "base.qjl"))).
		Run(ctx, c.query)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := rowsOf(wantOut, c.col)
	wantPosted := sortedCopy(base.PostedHITs())
	if len(wantPosted) == 0 {
		t.Fatal("baseline posted no HITs; crash points exercise nothing")
	}

	// A plain (non-durable) run must agree too: journaling is a pure
	// wrapper, not a semantics change.
	plainOut, _, err := c.newClient(c.newMarket()).Run(ctx, c.query)
	if err != nil {
		t.Fatal(err)
	}
	if rowsOf(plainOut, c.col) != wantRows {
		t.Fatal("durable baseline differs from a plain run")
	}

	crashed := 0
	for k := 0; k < len(wantPosted); k += stride {
		m := c.newMarket()
		m.InjectCrashAfter(k)
		journal := filepath.Join(t.TempDir(), fmt.Sprintf("crash%d.qjl", k))
		_, _, err := c.newClient(m, WithJournal(journal)).Run(ctx, c.query)
		if err == nil {
			// Chunk lookahead can complete the run before admission k;
			// nothing to resume at this point.
			continue
		}
		if !errors.Is(err, crowd.ErrInjectedCrash) {
			t.Fatalf("crash point %d: run failed with %v, not the injected crash", k, err)
		}
		crashed++

		m.InjectCrashAfter(-1)
		out, _, err := c.newClient(m, WithJournal(journal)).Resume(ctx, c.query)
		if err != nil {
			t.Fatalf("crash point %d: resume failed: %v", k, err)
		}
		if got := rowsOf(out, c.col); got != wantRows {
			t.Errorf("crash point %d: resumed rows diverge\ngot:\n%swant:\n%s", k, got, wantRows)
		}
		// The same market served both the crashed and the resumed run,
		// so its posted-HIT log is the union — it must equal the
		// uninterrupted run's log exactly: nothing missing, nothing
		// extra, nothing posted twice.
		if got := sortedCopy(m.PostedHITs()); fmt.Sprint(got) != fmt.Sprint(wantPosted) {
			t.Errorf("crash point %d: posted HITs diverge\ngot:  %v\nwant: %v", k, got, wantPosted)
		}
	}
	if crashed == 0 {
		t.Fatal("no crash point interrupted the run; harness exercises nothing")
	}
}

func TestDurableFilterKillAnyPointResume(t *testing.T) {
	killResumeEquivalence(t, filterCase(), 1)
}

func TestDurableJoinKillAnyPointResume(t *testing.T) {
	killResumeEquivalence(t, joinCase(), 3)
}

func TestDurableSortKillAnyPointResume(t *testing.T) {
	killResumeEquivalence(t, sortCase(), 1)
}

// TestResumeCompletedJournalReplaysWithoutPosting: resuming a journal
// sealed "complete" replays the entire run from disk — zero
// marketplace traffic — and returns the same rows.
func TestResumeCompletedJournalReplaysWithoutPosting(t *testing.T) {
	ctx := context.Background()
	c := filterCase()
	m := c.newMarket()
	journal := filepath.Join(t.TempDir(), "run.qjl")
	wantOut, _, err := c.newClient(m, WithJournal(journal)).Run(ctx, c.query)
	if err != nil {
		t.Fatal(err)
	}

	fresh := c.newMarket()
	out, _, err := c.newClient(fresh, WithJournal(journal)).Resume(ctx, c.query)
	if err != nil {
		t.Fatal(err)
	}
	if rowsOf(out, c.col) != rowsOf(wantOut, c.col) {
		t.Error("replayed rows differ from the original run")
	}
	if posted := fresh.PostedHITs(); len(posted) != 0 {
		t.Errorf("full replay posted %d HITs, want 0", len(posted))
	}
}

// TestDurableRunStreamSealsAndResumes: a journaled RunStream hands the
// sink exactly the rows it returns, seals the journal complete under
// the pinned fingerprint, and the journal then resumes with zero
// marketplace traffic.
func TestDurableRunStreamSealsAndResumes(t *testing.T) {
	ctx := context.Background()
	c := filterCase()
	journal := filepath.Join(t.TempDir(), "run.qjl")
	client := c.newClient(c.newMarket(), WithJournal(journal))
	var streamed strings.Builder
	out, _, err := client.RunStream(ctx, c.query, func(rows []Tuple, _ float64) error {
		for _, r := range rows {
			streamed.WriteString(r.MustGet(c.col).String())
			streamed.WriteByte('\n')
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("run returned no rows")
	}
	if got, want := streamed.String(), rowsOf(out, c.col); got != want {
		t.Errorf("sink saw different rows than the run returned\nsink:\n%sreturned:\n%s", got, want)
	}

	j, err := OpenJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	sealed, reason := j.Sealed()
	fp := j.Meta().Fingerprint
	j.Close()
	if !sealed || reason != wal.SealComplete {
		t.Errorf("journal sealed=%v %q, want sealed %q", sealed, reason, wal.SealComplete)
	}
	if want := service.Fingerprint(c.query, client.Engine().Options, "*crowd.SimMarket"); fp != want {
		t.Errorf("journal fingerprint %#x, want %#x", fp, want)
	}

	fresh := c.newMarket()
	replayed, _, err := c.newClient(fresh, WithJournal(journal)).Resume(ctx, c.query)
	if err != nil {
		t.Fatal(err)
	}
	if rowsOf(replayed, c.col) != rowsOf(out, c.col) {
		t.Error("replayed rows differ from the streamed run")
	}
	if posted := fresh.PostedHITs(); len(posted) != 0 {
		t.Errorf("replay posted %d HITs, want 0", len(posted))
	}
}

// TestResumeRefusesMismatchedFingerprint: a journal only resumes the
// query and engine configuration that created it.
func TestResumeRefusesMismatchedFingerprint(t *testing.T) {
	ctx := context.Background()
	c := filterCase()
	journal := filepath.Join(t.TempDir(), "run.qjl")
	if _, _, err := c.newClient(c.newMarket(), WithJournal(journal)).Run(ctx, c.query); err != nil {
		t.Fatal(err)
	}
	_, _, err := c.newClient(c.newMarket(), WithJournal(journal)).
		Resume(ctx, `SELECT c.img FROM celeb AS c WHERE isFemale(c.img)`)
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("resume with a different query = %v, want fingerprint refusal", err)
	}
	rebatched := c.newClient(c.newMarket(), WithJournal(journal), WithOptions(Options{FilterBatch: 2}))
	if _, _, err := rebatched.Resume(ctx, c.query); err == nil {
		t.Error("resume with different options must be refused")
	}
}

// TestRunQueryDurableRefusesExistingJournal: starting a durable run
// over a journal that already exists would silently fork its history.
func TestRunQueryDurableRefusesExistingJournal(t *testing.T) {
	ctx := context.Background()
	c := filterCase()
	journal := filepath.Join(t.TempDir(), "run.qjl")
	if _, _, err := c.newClient(c.newMarket(), WithJournal(journal)).Run(ctx, c.query); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.newClient(c.newMarket(), WithJournal(journal)).Run(ctx, c.query); err == nil {
		t.Error("second durable run over the same journal path must fail")
	}
	missing := filepath.Join(t.TempDir(), "missing.qjl")
	if _, _, err := c.newClient(c.newMarket(), WithJournal(missing)).Resume(ctx, c.query); err == nil {
		t.Error("resume of a nonexistent journal must fail")
	}
}

// TestDurableMTurkResumeReattaches: over the REST backend, a durable
// run killed by endpoint faults resumes against the same endpoint —
// the re-posted groups reuse their UniqueRequestTokens, so the
// endpoint's created-HIT log matches an uninterrupted run exactly.
func TestDurableMTurkResumeReattaches(t *testing.T) {
	ctx := context.Background()
	t0 := time.Date(2026, 1, 2, 9, 0, 0, 0, time.UTC)
	const query = `SELECT c.name FROM celeb c WHERE isFemale(c.img)`

	build := func(fcfg MTurkFakeConfig) (*MTurkFakeServer, *MTurkFakeClock) {
		clock := NewMTurkFakeClock(t0)
		fcfg.Clock = clock
		fcfg.SubmitDelay = 2 * time.Second
		f := NewMTurkFakeServer(fcfg)
		t.Cleanup(f.Close)
		return f, clock
	}

	// Baseline: clean endpoint, uninterrupted durable run.
	baseSrv, baseClock := build(MTurkFakeConfig{YesPct: 100})
	wantOut, _, err := mturkClientOver(t, baseSrv, baseClock, filepath.Join(t.TempDir(), "base.qjl")).
		Run(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := rowsOf(wantOut, "name")
	wantTokens := sortedCopy(baseSrv.CreatedHITs())
	if len(wantTokens) == 0 {
		t.Fatal("baseline created no HITs")
	}

	// Faulted endpoint: the first CreateHIT's whole retry budget is
	// consumed by injected 500s, killing the durable run mid-pipeline.
	srv, clock := build(MTurkFakeConfig{
		YesPct:    100,
		FailFirst: map[string]int{"CreateHIT": 3},
	})
	journal := filepath.Join(t.TempDir(), "crash.qjl")
	if _, _, err := mturkClientOver(t, srv, clock, journal).Run(ctx, query); err == nil {
		t.Fatal("durable run survived faults that exhaust the retry budget")
	}

	// Resume with a fresh client over the SAME endpoint and clock: the
	// faults are spent, the journaled intents re-post, and the token
	// log converges on the baseline's.
	out, _, err := mturkClientOver(t, srv, clock, journal).Resume(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if rowsOf(out, "name") != wantRows {
		t.Error("resumed MTurk rows differ from the uninterrupted run")
	}
	if got := sortedCopy(srv.CreatedHITs()); fmt.Sprint(got) != fmt.Sprint(wantTokens) {
		t.Errorf("created-HIT tokens diverge\ngot:  %v\nwant: %v", got, wantTokens)
	}
}

// mturkClientOver builds a durable client whose marketplace is a fresh
// MTurk client pointed at an existing fake endpoint, sharing its clock.
func mturkClientOver(t *testing.T, f *MTurkFakeServer, clock *MTurkFakeClock, journal string) *Client {
	t.Helper()
	c, err := NewMTurkClient(MTurkConfig{
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
	d := NewCelebrities(CelebrityConfig{N: 20, Seed: 3})
	client := NewClient(c, WithJournal(journal))
	client.Engine().Catalog.Register(d.Celeb)
	client.Engine().Library.MustRegister(IsFemaleTask())
	return client
}
