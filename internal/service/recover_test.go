package service

// Restart-recovery tests: durable queries survive losing the whole
// process. Each test runs a service "life", kills it (Close, or just
// abandoning it mid-run), then boots a second life over the same
// journal directory and asserts the three durability invariants from
// the chaos spec: bit-identical rows, no duplicate crowd work, and
// tenant ledgers charged exactly once per HIT group.

import (
	"errors"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qurk/internal/answerstore"
	"qurk/internal/circuit"
	"qurk/internal/core"
	"qurk/internal/crowd"
	"qurk/internal/dataset"
	"qurk/internal/hit"
	"qurk/internal/relation"
	"qurk/internal/wal"
)

// durableConfig builds a one-backend config over the celebrity
// dataset with the journal directory set.
func durableConfig(t testing.TB, n int, dir string, market crowd.Marketplace) Config {
	t.Helper()
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: n, Seed: 1})
	cat := relation.NewCatalog()
	cat.Register(d.Celeb)
	cat.Register(d.Photos)
	lib := core.NewLibrary()
	lib.MustRegister(dataset.IsFemaleTask())
	lib.MustRegister(dataset.SamePersonTask())
	store, err := answerstore.Open("", answerstore.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Backends:   map[string]crowd.Marketplace{"sim": market},
		Catalog:    cat,
		Library:    lib,
		Answers:    store,
		Options:    core.Options{Assignments: 3, FilterBatch: 2},
		JournalDir: dir,
	}
}

// trackingSim builds a fresh post-tracking simulated market over an
// identically seeded world, so every life (and the baseline) samples
// the same workers for the same HITs.
func trackingSim(n int) *crowd.SimMarket {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: n, Seed: 1})
	cfg := crowd.DefaultConfig(1)
	cfg.TrackPosts = true
	return crowd.NewSimMarket(cfg, d.Oracle())
}

// joinQuery posts many HIT groups (18 at n=12), so a fault injector
// can kill the backend genuinely mid-query.
const joinQuery = `SELECT c.name FROM celeb c JOIN photos p ON samePerson(c.img, p.img)`

// rowStrings flattens a query's result rows, sorted, for content
// comparison across lives (streamed arrival order is not part of the
// durability contract; the row multiset is).
func rowStrings(q *Query) []string {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]string, 0, len(q.rows))
	for _, r := range q.rows {
		var cols []string
		for c := 0; c < r.Len(); c++ {
			cols = append(cols, r.At(c).String())
		}
		out = append(out, strings.Join(cols, "|"))
	}
	sort.Strings(out)
	return out
}

// postedSet returns the market's admission log as a set of HIT IDs.
func postedSet(m *crowd.SimMarket) map[string]bool {
	out := map[string]bool{}
	for _, id := range m.PostedHITs() {
		out[id] = true
	}
	return out
}

// failAfter lets limit groups through to the inner marketplace, then
// fails every later post — the in-process stand-in for the backend
// dying mid-query.
type failAfter struct {
	inner crowd.Marketplace
	limit int32
	n     int32
}

var errInjectedOutage = errors.New("injected marketplace outage")

func (f *failAfter) Run(g *hit.Group) (*crowd.RunResult, error) {
	if atomic.AddInt32(&f.n, 1) > f.limit {
		return nil, errInjectedOutage
	}
	return f.inner.Run(g)
}

func (f *failAfter) RunAsync(g *hit.Group) <-chan crowd.Async {
	return crowd.GoRun(func() (*crowd.RunResult, error) { return f.Run(g) })
}

// TestRestartResumesInterruptedQuery is the tentpole invariant in one
// process: a query that dies mid-run (backend outage partway through
// the join's groups, journal sealed "interrupted") resumes on boot and
// ends with the rows, crowd work, and tenant charges of a run that
// never crashed.
func TestRestartResumesInterruptedQuery(t *testing.T) {
	const n = 12
	dir := t.TempDir()

	// Baseline: the same query on an identical world, no crash.
	blMarket := trackingSim(n)
	blCfg := durableConfig(t, n, t.TempDir(), blMarket)
	baseline, err := New(blCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := baseline.Recover(); err != nil {
		t.Fatal(err)
	}
	bq, err := baseline.Submit(SubmitRequest{Tenant: "alice", Query: joinQuery})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, bq); st != StateDone {
		t.Fatalf("baseline state = %s (%s)", st, bq.Snapshot().Error)
	}
	wantRows := rowStrings(bq)
	wantPosted := postedSet(blMarket)
	blTenant, _ := baseline.TenantSnapshot("alice")
	baseline.Close()

	// Life 1: the backend dies after six of the join's 18 groups; the
	// query fails and its journal seals "interrupted".
	m1 := trackingSim(n)
	svc1, err := New(durableConfig(t, n, dir, &failAfter{inner: m1, limit: 6}))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc1.Recover(); err != nil {
		t.Fatal(err)
	}
	q1, err := svc1.Submit(SubmitRequest{Tenant: "alice", Query: joinQuery})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, q1); st != StateFailed {
		t.Fatalf("life-1 state = %s, want failed", st)
	}
	if !strings.Contains(q1.Snapshot().Error, errInjectedOutage.Error()) {
		t.Fatalf("life-1 error = %q, want the injected outage", q1.Snapshot().Error)
	}
	posted1 := postedSet(m1)
	if len(posted1) == 0 || len(posted1) >= len(wantPosted) {
		t.Fatalf("life 1 posted %d of %d HITs; the fault did not land mid-query", len(posted1), len(wantPosted))
	}
	t1, _ := svc1.TenantSnapshot("alice")
	if t1.SpentDollars <= 0 {
		t.Fatal("life 1 charged nothing before dying")
	}
	svc1.Close()

	// Life 2: fresh process, fresh registry, healthy backend. Recover
	// must resume q0001 under alice and finish it.
	m2 := trackingSim(n)
	svc2, err := New(durableConfig(t, n, dir, m2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc2.Close)
	if err := svc2.Recover(); err != nil {
		t.Fatal(err)
	}
	q2, ok := svc2.Get(q1.ID)
	if !ok {
		t.Fatalf("recovered service lost query %s", q1.ID)
	}
	if st := waitTerminal(t, q2); st != StateDone {
		t.Fatalf("resumed state = %s (%s)", st, q2.Snapshot().Error)
	}

	// Invariant 1: bit-identical rows.
	gotRows := rowStrings(q2)
	if len(gotRows) != len(wantRows) {
		t.Fatalf("resumed rows = %d, baseline = %d", len(gotRows), len(wantRows))
	}
	for i := range wantRows {
		if gotRows[i] != wantRows[i] {
			t.Fatalf("row %d diverged after restart: %q vs %q", i, gotRows[i], wantRows[i])
		}
	}

	// Invariant 2: no duplicate crowd work. Life 2 posts exactly the
	// HITs life 1 never got to; together they are the baseline set.
	posted2 := postedSet(m2)
	for id := range posted2 {
		if posted1[id] {
			t.Fatalf("HIT %s was posted in both lives", id)
		}
	}
	if got := len(posted1) + len(posted2); got != len(wantPosted) {
		t.Fatalf("lives posted %d+%d HITs, baseline posted %d", len(posted1), len(posted2), len(wantPosted))
	}
	for id := range wantPosted {
		if !posted1[id] && !posted2[id] {
			t.Fatalf("baseline HIT %s never posted across both lives", id)
		}
	}

	// Invariant 3: the tenant ledger charged each group exactly once
	// across both lives — the recovered ledger matches the crash-free
	// baseline to the cent.
	t2, _ := svc2.TenantSnapshot("alice")
	if t2.SpentDollars != blTenant.SpentDollars || t2.HITs != blTenant.HITs {
		t.Fatalf("recovered ledger $%.3f/%d HITs, baseline $%.3f/%d HITs",
			t2.SpentDollars, t2.HITs, blTenant.SpentDollars, blTenant.HITs)
	}

	// New submissions never collide with recovered IDs.
	q3, err := svc2.Submit(SubmitRequest{Tenant: "alice", Query: joinQuery})
	if err != nil {
		t.Fatal(err)
	}
	if q3.ID == q2.ID {
		t.Fatalf("new submission reused recovered ID %s", q3.ID)
	}
	waitTerminal(t, q3)
}

// TestRestartReplaysCompletedQuery: a query that finished before the
// restart comes back done with its rows servable, posting nothing and
// charging nothing — the sealed-complete journal replays for free.
func TestRestartReplaysCompletedQuery(t *testing.T) {
	const n = 10
	dir := t.TempDir()

	m1 := trackingSim(n)
	svc1, err := New(durableConfig(t, n, dir, m1))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc1.Recover(); err != nil {
		t.Fatal(err)
	}
	q1, err := svc1.Submit(SubmitRequest{Tenant: "alice", Query: isFemaleQuery})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, q1); st != StateDone {
		t.Fatalf("state = %s", st)
	}
	wantRows := rowStrings(q1)
	t1, _ := svc1.TenantSnapshot("alice")
	svc1.Close()

	m2 := trackingSim(n)
	svc2, err := New(durableConfig(t, n, dir, m2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc2.Close)
	if err := svc2.Recover(); err != nil {
		t.Fatal(err)
	}
	q2, ok := svc2.Get(q1.ID)
	if !ok {
		t.Fatal("completed query not recovered")
	}
	if st := waitTerminal(t, q2); st != StateDone {
		t.Fatalf("replayed state = %s (%s)", st, q2.Snapshot().Error)
	}
	gotRows := rowStrings(q2)
	if len(gotRows) != len(wantRows) {
		t.Fatalf("replayed %d rows, want %d", len(gotRows), len(wantRows))
	}
	for i := range wantRows {
		if gotRows[i] != wantRows[i] {
			t.Fatalf("row %d diverged on replay: %q vs %q", i, gotRows[i], wantRows[i])
		}
	}
	if posted := m2.PostedHITs(); len(posted) != 0 {
		t.Fatalf("replay posted %d HITs, want 0", len(posted))
	}
	t2, _ := svc2.TenantSnapshot("alice")
	if t2.SpentDollars != t1.SpentDollars || t2.HITs != t1.HITs {
		t.Fatalf("replay ledger $%.3f/%d, want $%.3f/%d", t2.SpentDollars, t2.HITs, t1.SpentDollars, t1.HITs)
	}
}

// TestRecoverRejectsFingerprintMismatch: a manifest whose query no
// longer matches its journal is refused — that one query surfaces as
// failed with the mismatch spelled out, and the daemon keeps serving.
func TestRecoverRejectsFingerprintMismatch(t *testing.T) {
	const n = 8
	dir := t.TempDir()

	svc1, err := New(durableConfig(t, n, dir, trackingSim(n)))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc1.Recover(); err != nil {
		t.Fatal(err)
	}
	q1, err := svc1.Submit(SubmitRequest{Tenant: "alice", Query: isFemaleQuery})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, q1)
	svc1.Close()

	// Tamper: swap the manifest's query text for something else. The
	// stored fingerprint still matches the journal, but recomputing it
	// from the manifest's own contents exposes the drift.
	path := svc1.manifestPath(q1.ID)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(b), "isFemale", "isMale", 1)
	if tampered == string(b) {
		t.Fatal("tamper had no effect")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := trackingSim(n)
	svc2, err := New(durableConfig(t, n, dir, m2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc2.Close)
	if err := svc2.Recover(); err != nil {
		t.Fatal(err)
	}
	q2, ok := svc2.Get(q1.ID)
	if !ok {
		t.Fatal("mismatched query vanished instead of surfacing as failed")
	}
	sn := q2.Snapshot()
	if sn.State != StateFailed || !strings.Contains(sn.Error, "fingerprint mismatch") {
		t.Fatalf("mismatched query = %s (%q), want failed with fingerprint mismatch", sn.State, sn.Error)
	}
	if posted := m2.PostedHITs(); len(posted) != 0 {
		t.Fatalf("refused query still posted %d HITs", len(posted))
	}
	// The daemon lives: new submissions run normally.
	q3, err := svc2.Submit(SubmitRequest{Tenant: "bob", Query: isFemaleQuery})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, q3); st != StateDone {
		t.Fatalf("post-mismatch submission = %s", st)
	}
}

// TestRecoverFailsQueryThatNoLongerBuilds: recovery plans each query
// before restarting it. A manifest whose query no longer plans (its
// task left the library between boots) fails alone with the planner's
// error; its journal is left unsealed and open-able for a later boot,
// and every other recovered query still runs.
func TestRecoverFailsQueryThatNoLongerBuilds(t *testing.T) {
	const n = 8
	dir := t.TempDir()

	// The state a kill -9 leaves right after two submissions: each has
	// its manifest and an empty, unsealed journal.
	cfg := durableConfig(t, n, dir, trackingSim(n))
	svc1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.NewEngine(nil, cfg.Options).Options
	for _, m := range []*manifest{
		{ID: "q0001", Tenant: "alice", Backend: "sim", Query: joinQuery, Options: opts},
		{ID: "q0002", Tenant: "bob", Backend: "sim", Query: isFemaleQuery, Options: opts},
	} {
		m.Fingerprint = Fingerprint(m.Query, m.Options, m.Backend)
		if err := svc1.writeManifest(m); err != nil {
			t.Fatal(err)
		}
		j, err := wal.Create(svc1.journalPath(m.ID), wal.Meta{Query: m.Query, Backend: m.Backend, Fingerprint: m.Fingerprint})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// The next boot's library lacks samePerson, so the join no longer
	// plans.
	cfg2 := durableConfig(t, n, dir, trackingSim(n))
	cfg2.Library = core.NewLibrary()
	cfg2.Library.MustRegister(dataset.IsFemaleTask())
	svc2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc2.Close)
	if err := svc2.Recover(); err != nil {
		t.Fatal(err)
	}
	broken, ok := svc2.Get("q0001")
	if !ok {
		t.Fatal("unplannable query vanished instead of surfacing as failed")
	}
	if sn := broken.Snapshot(); sn.State != StateFailed || !strings.Contains(sn.Error, "samePerson") {
		t.Fatalf("unplannable query = %s (%q), want failed naming samePerson", sn.State, sn.Error)
	}
	j, err := wal.Open(svc2.journalPath("q0001"))
	if err != nil {
		t.Fatalf("journal of the failed query no longer opens: %v", err)
	}
	if sealed, reason := j.Sealed(); sealed {
		t.Errorf("journal of the failed query sealed %q, want unsealed", reason)
	}
	j.Close()

	other, ok := svc2.Get("q0002")
	if !ok {
		t.Fatal("plannable query not recovered")
	}
	if st := waitTerminal(t, other); st != StateDone {
		t.Fatalf("plannable query = %s (%s), want done", st, other.Snapshot().Error)
	}
	if sn := other.Snapshot(); sn.Rows == 0 {
		t.Fatal("recovered query produced no rows")
	}
}

// TestFingerprintPinned pins Fingerprint for a Client-style input
// (default options, the simulator's Go type as backend) and a
// qurkd-style input (a backend name). Every journal and manifest
// stores this value, so a change here strands every run written
// before it.
func TestFingerprintPinned(t *testing.T) {
	for _, c := range []struct {
		opts    core.Options
		backend string
		want    uint64
	}{
		{core.Options{}, "*crowd.SimMarket", 0x12766f81b5be950b},
		{core.Options{Seed: 7, FilterBatch: 3}, "sim", 0xeeca8f1e16165fd7},
	} {
		opts := core.NewEngine(nil, c.opts).Options
		if got := Fingerprint(isFemaleQuery, opts, c.backend); got != c.want {
			t.Errorf("Fingerprint(%q backend) = %#x, want %#x", c.backend, got, c.want)
		}
	}
}

// TestUserCancelIsNotResumed: an explicit Cancel seals the journal
// "cancelled"; the next boot registers the query terminal instead of
// restarting work the user told us to stop paying for.
func TestUserCancelIsNotResumed(t *testing.T) {
	const n = 8
	dir := t.TempDir()

	blocked := &blockingMarket{release: make(chan struct{}), inner: trackingSim(n)}
	svc1, err := New(durableConfig(t, n, dir, blocked))
	if err != nil {
		t.Fatal(err)
	}
	defer close(blocked.release)
	if err := svc1.Recover(); err != nil {
		t.Fatal(err)
	}
	q1, err := svc1.Submit(SubmitRequest{Tenant: "alice", Query: isFemaleQuery})
	if err != nil {
		t.Fatal(err)
	}
	q1.Cancel()
	if st := waitTerminal(t, q1); st != StateCancelled {
		t.Fatalf("state = %s, want cancelled", st)
	}
	svc1.Close()

	m2 := trackingSim(n)
	svc2, err := New(durableConfig(t, n, dir, m2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc2.Close)
	if err := svc2.Recover(); err != nil {
		t.Fatal(err)
	}
	q2, ok := svc2.Get(q1.ID)
	if !ok {
		t.Fatal("cancelled query not registered after restart")
	}
	if st := q2.Snapshot().State; st != StateCancelled {
		t.Fatalf("cancelled query recovered as %s", st)
	}
	if posted := m2.PostedHITs(); len(posted) != 0 {
		t.Fatalf("cancelled query posted %d HITs after restart", len(posted))
	}
}

// TestShutdownSealsInterruptedAndResumes: Close is not a cancel — a
// query cut off by shutdown seals "interrupted" and the next boot
// finishes it.
func TestShutdownSealsInterruptedAndResumes(t *testing.T) {
	const n = 10
	dir := t.TempDir()

	blocked := &blockingMarket{release: make(chan struct{}), inner: trackingSim(n)}
	svc1, err := New(durableConfig(t, n, dir, blocked))
	if err != nil {
		t.Fatal(err)
	}
	defer close(blocked.release)
	if err := svc1.Recover(); err != nil {
		t.Fatal(err)
	}
	q1, err := svc1.Submit(SubmitRequest{Tenant: "alice", Query: isFemaleQuery})
	if err != nil {
		t.Fatal(err)
	}
	// Shut down while the first group is still parked in the backend.
	svc1.Close()
	if st := q1.Snapshot().State; st != StateCancelled {
		t.Fatalf("shutdown left query %s", st)
	}

	m2 := trackingSim(n)
	svc2, err := New(durableConfig(t, n, dir, m2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc2.Close)
	if err := svc2.Recover(); err != nil {
		t.Fatal(err)
	}
	q2, ok := svc2.Get(q1.ID)
	if !ok {
		t.Fatal("shutdown query not recovered")
	}
	if st := waitTerminal(t, q2); st != StateDone {
		t.Fatalf("resumed-after-shutdown state = %s (%s)", st, q2.Snapshot().Error)
	}
	if sn := q2.Snapshot(); sn.Rows == 0 {
		t.Fatal("resumed query produced no rows")
	}
}

// stepClock blocks every Sleep until released, so deadline tests fire
// the watchdog on command rather than on the wall.
type stepClock struct {
	fire chan struct{}
}

func (c *stepClock) Now() time.Time        { return time.Time{} }
func (c *stepClock) Sleep(d time.Duration) { <-c.fire }

// TestDeadlineFailsOnlyOverdueQuery: when the clock blows one query's
// DeadlineHours, that query alone fails with ErrDeadlineExceeded (its
// journal sealed interrupted, so it resumes next boot); the sibling
// without a deadline is untouched.
func TestDeadlineFailsOnlyOverdueQuery(t *testing.T) {
	const n = 8
	dir := t.TempDir()

	blocked := &blockingMarket{release: make(chan struct{}), inner: trackingSim(n)}
	clock := &stepClock{fire: make(chan struct{})}
	cfg := durableConfig(t, n, dir, blocked)
	cfg.Clock = clock
	svc1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer close(blocked.release)
	if err := svc1.Recover(); err != nil {
		t.Fatal(err)
	}

	withDeadline := cfg.Options
	withDeadline.DeadlineHours = 1
	q1, err := svc1.Submit(SubmitRequest{Tenant: "alice", Query: isFemaleQuery, Options: &withDeadline})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := svc1.Submit(SubmitRequest{Tenant: "bob", Query: isFemaleQuery})
	if err != nil {
		t.Fatal(err)
	}

	close(clock.fire) // the service clock blows every armed deadline
	if st := waitTerminal(t, q1); st != StateFailed {
		t.Fatalf("overdue query = %s, want failed", st)
	}
	if !strings.Contains(q1.Snapshot().Error, ErrDeadlineExceeded.Error()) {
		t.Fatalf("overdue error = %q, want ErrDeadlineExceeded", q1.Snapshot().Error)
	}
	if st := q2.Snapshot().State; st.Terminal() {
		t.Fatalf("deadline-free sibling also terminal: %s", st)
	}
	svc1.Close()

	// The overdue journal sealed "interrupted": the next boot (wall
	// clock, so the 1h deadline never fires again during the test)
	// resumes and finishes it.
	m2 := trackingSim(n)
	svc2, err := New(durableConfig(t, n, dir, m2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc2.Close)
	if err := svc2.Recover(); err != nil {
		t.Fatal(err)
	}
	r1, ok := svc2.Get(q1.ID)
	if !ok {
		t.Fatal("overdue query not recovered")
	}
	if st := waitTerminal(t, r1); st != StateDone {
		t.Fatalf("resumed overdue query = %s (%s)", st, r1.Snapshot().Error)
	}
}

// downMarket fails every post while down, then heals.
type downMarket struct {
	inner crowd.Marketplace
	down  atomic.Bool
}

func (m *downMarket) Run(g *hit.Group) (*crowd.RunResult, error) {
	if m.down.Load() {
		return nil, errInjectedOutage
	}
	return m.inner.Run(g)
}

func (m *downMarket) RunAsync(g *hit.Group) <-chan crowd.Async {
	return crowd.GoRun(func() (*crowd.RunResult, error) { return m.Run(g) })
}

// TestCircuitOpenDegradesWithoutFailingQueries is the tentpole's
// degraded-mode acceptance: with the backend fully down, submitted
// queries neither fail nor lose work — the breaker parks them, the
// service reports degraded/not-ready — and when the backend comes
// back, they complete normally.
func TestCircuitOpenDegradesWithoutFailingQueries(t *testing.T) {
	const n = 8
	m := &downMarket{inner: trackingSim(n)}
	m.down.Store(true)
	cfg := durableConfig(t, n, t.TempDir(), m)
	cfg.Circuit = &circuit.Config{Threshold: 2, Cooldown: 5 * time.Millisecond}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	if err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := svc.Ready(); !ok {
		t.Fatal("service not ready before any failure")
	}

	q, err := svc.Submit(SubmitRequest{Tenant: "alice", Query: isFemaleQuery})
	if err != nil {
		t.Fatal(err)
	}

	// The breaker trips and the service degrades — but the query stays
	// alive, parked, not failed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := svc.Status()
		if st.State == "degraded" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("service never degraded; status %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if ok, reason := svc.Ready(); ok || !strings.Contains(reason, "circuit") {
		t.Fatalf("Ready() = %v %q during outage, want circuit-open reason", ok, reason)
	}
	if st := q.Snapshot().State; st.Terminal() {
		t.Fatalf("query went terminal (%s) during outage instead of parking", st)
	}

	// Backend recovers: the next half-open probe closes the circuit,
	// parked posts drain, and the query completes.
	m.down.Store(false)
	if st := waitTerminal(t, q); st != StateDone {
		t.Fatalf("query after recovery = %s (%s)", st, q.Snapshot().Error)
	}
	for {
		if ok, _ := svc.Ready(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("service never returned to ready after backend recovery")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := svc.Status(); st.State != "ok" {
		t.Fatalf("status after recovery = %s, want ok", st.State)
	}
}

// BenchmarkServiceRecovery measures a cold boot over a journal
// directory of completed queries: Recover scans, replays every journal
// for free (the "posted" metric proves zero marketplace traffic), and
// all queries reach a servable terminal state.
func BenchmarkServiceRecovery(b *testing.B) {
	const n, queries = 10, 4
	dir := b.TempDir()

	// No shared answer store here: with reuse on, later seed queries
	// post nothing and journal nothing, so their replay would depend on
	// recovery ORDER repopulating the store. Self-contained journals
	// make the zero-repost assertion unconditional.
	seedCfg := durableConfig(b, n, dir, trackingSim(n))
	seedCfg.Answers = nil
	seed, err := New(seedCfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := seed.Recover(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < queries; i++ {
		q, err := seed.Submit(SubmitRequest{Tenant: "alice", Query: isFemaleQuery})
		if err != nil {
			b.Fatal(err)
		}
		if st := waitTerminalB(b, q); st != StateDone {
			b.Fatalf("seed query %d state = %s", i, st)
		}
	}
	seed.Close()

	posted := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := trackingSim(n)
		iterCfg := durableConfig(b, n, dir, m)
		iterCfg.Answers = nil
		svc, err := New(iterCfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := svc.Recover(); err != nil {
			b.Fatal(err)
		}
		for _, sn := range svc.List() {
			q, _ := svc.Get(sn.ID)
			if st := waitTerminalB(b, q); st != StateDone {
				b.Fatalf("recovered query %s state = %s", sn.ID, st)
			}
		}
		posted += len(m.PostedHITs())
		svc.Close()
	}
	b.StopTimer()
	if posted != 0 {
		b.Fatalf("recovery posted %d HITs, want 0 (pure replay)", posted)
	}
	b.ReportMetric(float64(posted)/float64(b.N), "posted/op")
	b.ReportMetric(queries, "queries/op")
}

// waitTerminalB follows the query to a terminal state in a benchmark.
func waitTerminalB(b *testing.B, q *Query) State {
	for {
		sn := q.Snapshot()
		if sn.State.Terminal() {
			return sn.State
		}
		time.Sleep(200 * time.Microsecond)
	}
}
