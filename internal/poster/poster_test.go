package poster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"qurk/internal/crowd"
	"qurk/internal/hit"
)

// scriptMarket answers every posted HIT through script, which returns
// the HIT's completed worker IDs, whether it was refused, and how many
// of its assignments expired. Every posted HIT ID is logged as it is
// simulated. When hold is non-nil, posting calls after the first
// `free` never answer until hold is closed.
type scriptMarket struct {
	mu     sync.Mutex
	script func(h *hit.HIT) (workers []string, refused bool, expired int)
	posted []string
	calls  int
	free   int
	hold   chan struct{}
}

func (m *scriptMarket) Run(g *hit.Group) (*crowd.RunResult, error) {
	res := &crowd.RunResult{}
	for _, h := range g.HITs {
		m.mu.Lock()
		m.posted = append(m.posted, h.ID)
		m.mu.Unlock()
		workers, refused, expired := m.script(h)
		if refused {
			res.Incomplete = append(res.Incomplete, h.ID)
			continue
		}
		for _, w := range workers {
			a := hit.Assignment{ID: h.ID + "/" + w, HITID: h.ID, WorkerID: w, SubmitHours: 0.5}
			for qi := range h.Questions {
				a.Answers = append(a.Answers, hit.Answer{QuestionID: h.Questions[qi].ID, Bool: true})
			}
			res.Assignments = append(res.Assignments, a)
		}
		if expired > 0 {
			if res.Expired == nil {
				res.Expired = map[string]int{}
			}
			res.Expired[h.ID] = expired
		}
	}
	res.TotalAssignments = len(res.Assignments)
	res.MakespanHours = 0.5
	if len(res.Expired) > 0 {
		res.MakespanHours = 1
	}
	return res, nil
}

func (m *scriptMarket) RunAsync(g *hit.Group) <-chan crowd.Async {
	m.mu.Lock()
	m.calls++
	blocked := m.hold != nil && m.calls > m.free
	m.mu.Unlock()
	if blocked {
		return crowd.GoRun(func() (*crowd.RunResult, error) {
			<-m.hold
			return m.Run(g)
		})
	}
	return crowd.GoRun(func() (*crowd.RunResult, error) { return m.Run(g) })
}

// countAcct records what a poster reports: chunks posted and collected
// (tracking the most in flight at once), assignments, expiries, and
// exhausted questions.
type countAcct struct {
	inflight, maxInflight int
	posted, asns, expired int
	incomplete            []string
}

func (a *countAcct) Posted(chunk []*hit.HIT, _ float64) {
	a.posted += len(chunk)
	a.inflight++
	if a.inflight > a.maxInflight {
		a.maxInflight = a.inflight
	}
}

func (a *countAcct) Collected(assignments, expired int, _ float64, incomplete []string) {
	a.inflight--
	a.asns += assignments
	a.expired += expired
	a.incomplete = append(a.incomplete, incomplete...)
}

// filterQuestions mints n filter questions q0…q(n-1).
func filterQuestions(n int) []hit.Question {
	qs := make([]hit.Question, n)
	for i := range qs {
		qs[i] = hit.Question{ID: fmt.Sprintf("q%d", i), Kind: hit.FilterQ, Task: "t"}
	}
	return qs
}

// enqueue fills HITs of size questions from qs onto p.
func enqueue(t *testing.T, p *Poster, qs []hit.Question, size, assignments int) {
	t.Helper()
	b := hit.NewBuilder(p.GroupID(), assignments, 1)
	if err := p.FlushQuestions(b, &qs, size, true); err != nil {
		t.Fatal(err)
	}
}

// resolved collects Drain's per-question callbacks.
type resolved struct {
	calls   int
	workers map[string][]string
}

func (r *resolved) resolve(q *hit.Question, as []hit.CachedAnswer, _ float64) error {
	r.calls++
	if r.workers == nil {
		r.workers = map[string][]string{}
	}
	ws := []string{}
	for _, ca := range as {
		ws = append(ws, ca.WorkerID)
	}
	r.workers[q.ID] = append(r.workers[q.ID], ws...)
	return nil
}

// TestDrainRetriesRefusedAtHalfBatch: a HIT the crowd refuses is
// re-minted as two half-size HITs under lineage IDs; within the
// RefusedRetries budget every question resolves with votes, and past it
// the still-refused questions resolve voteless and are reported
// exhausted.
func TestDrainRetriesRefusedAtHalfBatch(t *testing.T) {
	refuseOver := func(limit int) func(h *hit.HIT) ([]string, bool, int) {
		return func(h *hit.HIT) ([]string, bool, int) {
			if len(h.Questions) > limit {
				return nil, true, 0
			}
			return []string{"w1", "w2"}, false, 0
		}
	}
	t.Run("within budget", func(t *testing.T) {
		m := &scriptMarket{script: refuseOver(2)}
		acct := &countAcct{}
		p := New(Config{Market: m, GroupID: "g", ChunkHITs: 2, Lookahead: 2, Acct: acct, RefusedRetries: 1})
		enqueue(t, p, filterQuestions(8), 4, 2)
		var r resolved
		if _, err := p.Drain(context.Background(), 0, r.resolve); err != nil {
			t.Fatal(err)
		}
		// Chunks in flight together simulate concurrently, so compare the
		// posted set, not its order.
		sort.Strings(m.posted)
		want := []string{"g/hit0001", "g/hit0001/r0", "g/hit0001/r1", "g/hit0002", "g/hit0002/r0", "g/hit0002/r1"}
		if !reflect.DeepEqual(m.posted, want) {
			t.Errorf("posted %v, want %v", m.posted, want)
		}
		if r.calls != 8 || len(acct.incomplete) != 0 {
			t.Errorf("resolved %d questions (%d exhausted), want 8 (0)", r.calls, len(acct.incomplete))
		}
		for qid, ws := range r.workers {
			if len(ws) != 2 {
				t.Errorf("%s resolved with %v, want two votes", qid, ws)
			}
		}
	})
	t.Run("budget exhausted", func(t *testing.T) {
		m := &scriptMarket{script: refuseOver(1)}
		acct := &countAcct{}
		p := New(Config{Market: m, GroupID: "g", ChunkHITs: 4, Lookahead: 1, Acct: acct, RefusedRetries: 1})
		enqueue(t, p, filterQuestions(4), 4, 2)
		var r resolved
		if _, err := p.Drain(context.Background(), 0, r.resolve); err != nil {
			t.Fatal(err)
		}
		// Depth-1 children of two questions are refused again and may
		// not shrink further.
		if len(m.posted) != 3 {
			t.Errorf("posted %v, want the HIT and its two children", m.posted)
		}
		if r.calls != 4 || len(acct.incomplete) != 4 {
			t.Errorf("resolved %d, exhausted %v; want 4 and all four questions", r.calls, acct.incomplete)
		}
		for qid, ws := range r.workers {
			if len(ws) != 0 {
				t.Errorf("exhausted %s resolved with votes %v", qid, ws)
			}
		}
	})
}

// TestDrainExpiryCarryMergesLineage: a HIT whose assignments expire is
// re-posted for just the missing assignments under "/x<depth>" IDs, and
// each question resolves once, with the partial votes of every HIT in
// its lineage merged in lineage order. A lineage that never completed
// an assignment exhausts as incomplete.
func TestDrainExpiryCarryMergesLineage(t *testing.T) {
	t.Run("carry", func(t *testing.T) {
		asked := map[string]int{}
		m := &scriptMarket{script: func(h *hit.HIT) ([]string, bool, int) {
			asked[h.ID] = h.Assignments
			switch h.ID {
			case "g/hit0001":
				return []string{"w1"}, false, 2
			case "g/hit0001/x1":
				return []string{"w2"}, false, 1
			}
			return []string{"w3"}, false, 0
		}}
		acct := &countAcct{}
		p := New(Config{Market: m, GroupID: "g", ChunkHITs: 1, Lookahead: 1, Acct: acct, ExpiredRetries: 2})
		enqueue(t, p, filterQuestions(2), 2, 3)
		var r resolved
		if _, err := p.Drain(context.Background(), 0, r.resolve); err != nil {
			t.Fatal(err)
		}
		wantAsked := map[string]int{"g/hit0001": 3, "g/hit0001/x1": 2, "g/hit0001/x1/x2": 1}
		if !reflect.DeepEqual(asked, wantAsked) {
			t.Errorf("assignments requested %v, want %v", asked, wantAsked)
		}
		want := map[string][]string{"q0": {"w1", "w2", "w3"}, "q1": {"w1", "w2", "w3"}}
		if r.calls != 2 || !reflect.DeepEqual(r.workers, want) {
			t.Errorf("resolved %d: %v, want 2: %v", r.calls, r.workers, want)
		}
		if acct.expired != 3 || acct.asns != 3 || len(acct.incomplete) != 0 {
			t.Errorf("acct expired=%d asns=%d incomplete=%v, want 3, 3, none", acct.expired, acct.asns, acct.incomplete)
		}
	})
	t.Run("voteless lineage exhausts", func(t *testing.T) {
		m := &scriptMarket{script: func(h *hit.HIT) ([]string, bool, int) {
			return nil, false, h.Assignments
		}}
		acct := &countAcct{}
		p := New(Config{Market: m, GroupID: "g", ChunkHITs: 1, Lookahead: 1, Acct: acct, ExpiredRetries: 1})
		enqueue(t, p, filterQuestions(1), 1, 2)
		var r resolved
		if _, err := p.Drain(context.Background(), 0, r.resolve); err != nil {
			t.Fatal(err)
		}
		if len(m.posted) != 2 || r.calls != 1 || !reflect.DeepEqual(acct.incomplete, []string{"q0"}) {
			t.Errorf("posted %v, resolved %d, incomplete %v; want 2 posts, 1 resolve, [q0]",
				m.posted, r.calls, acct.incomplete)
		}
	})
}

// TestDrainLookaheadBound: however many chunks are queued, no more
// than Lookahead are ever posted and uncollected at once.
func TestDrainLookaheadBound(t *testing.T) {
	for _, look := range []int{1, 2, 3} {
		m := &scriptMarket{script: func(*hit.HIT) ([]string, bool, int) { return []string{"w1"}, false, 0 }}
		acct := &countAcct{}
		p := New(Config{Market: m, GroupID: "g", ChunkHITs: 2, Lookahead: look, Acct: acct})
		enqueue(t, p, filterQuestions(20), 1, 1)
		var r resolved
		if _, err := p.Drain(context.Background(), 0, r.resolve); err != nil {
			t.Fatal(err)
		}
		if acct.maxInflight != look || acct.posted != 20 || r.calls != 20 {
			t.Errorf("lookahead %d: max in flight %d, posted %d, resolved %d; want %d, 20, 20",
				look, acct.maxInflight, acct.posted, r.calls, look)
		}
	}
}

// TestDrainCancelMidway: cancelling while a chunk is still on the
// marketplace returns the context error at once; chunks collected
// before the cancellation stay resolved.
func TestDrainCancelMidway(t *testing.T) {
	m := &scriptMarket{
		script: func(*hit.HIT) ([]string, bool, int) { return []string{"w1"}, false, 0 },
		free:   1,
		hold:   make(chan struct{}),
	}
	defer close(m.hold)
	p := New(Config{Market: m, GroupID: "g", ChunkHITs: 1, Lookahead: 1})
	enqueue(t, p, filterQuestions(3), 1, 1)
	ctx, cancel := context.WithCancel(context.Background())
	var r resolved
	errc := make(chan error, 1)
	go func() {
		_, err := p.Drain(ctx, 0, func(q *hit.Question, as []hit.CachedAnswer, done float64) error {
			err := r.resolve(q, as, done)
			cancel() // the first chunk is in; the second never answers
			return err
		})
		errc <- err
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Drain err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Drain still blocked 1s after cancellation")
	}
	if r.calls != 1 {
		t.Errorf("resolved %d questions before cancelling, want 1", r.calls)
	}
}

// TestFlushQuestionsPartialFlush: without force only full HITs are
// queued and the remainder stays buffered; forcing flushes it as one
// final partial HIT.
func TestFlushQuestionsPartialFlush(t *testing.T) {
	p := New(Config{GroupID: "g", ChunkHITs: 10, Lookahead: 1})
	b := hit.NewBuilder("g", 1, 1)
	qbuf := filterQuestions(7)
	if err := p.FlushQuestions(b, &qbuf, 3, false); err != nil {
		t.Fatal(err)
	}
	if len(p.queued) != 2 || len(qbuf) != 1 || qbuf[0].ID != "q6" {
		t.Fatalf("unforced flush: %d HITs queued, buffer %v; want 2 and [q6]", len(p.queued), qbuf)
	}
	if p.hasChunk(false) || !p.hasChunk(true) {
		t.Error("two queued HITs should form a chunk only when forced")
	}
	if err := p.FlushQuestions(b, &qbuf, 3, true); err != nil {
		t.Fatal(err)
	}
	var sizes []int
	var ids []string
	for _, h := range p.queued {
		sizes = append(sizes, len(h.Questions))
		ids = append(ids, h.ID)
	}
	if len(qbuf) != 0 || !reflect.DeepEqual(sizes, []int{3, 3, 1}) ||
		!reflect.DeepEqual(ids, []string{"g/hit0001", "g/hit0002", "g/hit0003"}) {
		t.Errorf("forced flush: buffer %d, HIT sizes %v, IDs %v", len(qbuf), sizes, ids)
	}
}

// memStore is an in-memory Answers that counts lookups and logs every
// Store call as "<question ID>:<workers>".
type memStore struct {
	entries map[uint64][]hit.CachedAnswer
	lookups int
	stores  []string
}

func (s *memStore) Lookup(q *hit.Question) ([]hit.CachedAnswer, bool) {
	s.lookups++
	as, ok := s.entries[q.CacheKey()]
	return as, ok
}

func (s *memStore) Store(q *hit.Question, as []hit.CachedAnswer) {
	s.stores = append(s.stores, q.ID+":"+workersOf(as))
}

// workersOf joins the answers' worker IDs with commas.
func workersOf(as []hit.CachedAnswer) string {
	out := ""
	for i, ca := range as {
		if i > 0 {
			out += ","
		}
		out += ca.WorkerID
	}
	return out
}

// TestServeUntilPosted: a poster serves stored content at every mint,
// reporting each served question with its content key and clock before
// resolving it with the stored votes, and consults the store for
// unstored content only until it first posts; a failing Served hook
// fails the Serve, and a poster without a store serves nothing.
func TestServeUntilPosted(t *testing.T) {
	stored := hit.Question{ID: "a1", Kind: hit.FilterQ, Task: "a"}
	s := &memStore{entries: map[uint64][]hit.CachedAnswer{stored.CacheKey(): {{WorkerID: "w9"}}}}
	var log []string
	resolve := func(q *hit.Question, as []hit.CachedAnswer, done float64) error {
		log = append(log, fmt.Sprintf("resolve %s:%s@%g", q.ID, workersOf(as), done))
		return nil
	}
	p := New(Config{GroupID: "g", ChunkHITs: 1, Lookahead: 1, Answers: s,
		Served: func(q *hit.Question, key uint64, clock float64) error {
			if key != q.CacheKey() {
				t.Errorf("%s served under key %#x, want its content key", q.ID, key)
			}
			log = append(log, fmt.Sprintf("served %s@%g", q.ID, clock))
			return nil
		}})
	for i, id := range []string{"a1", "a2"} {
		q := hit.Question{ID: id, Kind: hit.FilterQ, Task: "a"}
		if served, err := p.Serve(&q, float64(i), resolve); !served || err != nil {
			t.Errorf("Serve(%s) = %v, %v; want served", id, served, err)
		}
	}
	for _, id := range []string{"b1", "b2"} {
		q := hit.Question{ID: id, Kind: hit.FilterQ, Task: "b"}
		if served, err := p.Serve(&q, 0, resolve); served || err != nil {
			t.Errorf("Serve(%s) = %v, %v; want a miss", id, served, err)
		}
	}
	want := []string{"served a1@0", "resolve a1:w9@0", "served a2@1", "resolve a2:w9@1"}
	if s.lookups != 3 || !reflect.DeepEqual(log, want) {
		t.Errorf("%d lookups, log %v; want 3 (b2 is not looked up) and %v", s.lookups, log, want)
	}

	boom := errors.New("journal full")
	failing := New(Config{GroupID: "g", ChunkHITs: 1, Lookahead: 1, Answers: s,
		Served: func(*hit.Question, uint64, float64) error { return boom }})
	if served, err := failing.Serve(&stored, 0, resolve); served || !errors.Is(err, boom) {
		t.Errorf("failing hook: Serve = %v, %v; want the hook's error", served, err)
	}
	if served, err := New(Config{GroupID: "g", ChunkHITs: 1, Lookahead: 1}).Serve(&stored, 0, resolve); served || err != nil {
		t.Errorf("storeless poster: Serve = %v, %v; want a miss", served, err)
	}
}

// TestCollectOneFeedsStoreByOccurrence: each occurrence of a question
// ID resolves with its own votes (an expired occurrence only once its
// retry lands, with the lineage's votes merged), the store is fed each
// non-empty merged vote set before the occurrence resolves, and a
// voteless occurrence resolves without being stored.
func TestCollectOneFeedsStoreByOccurrence(t *testing.T) {
	m := &scriptMarket{script: func(h *hit.HIT) ([]string, bool, int) {
		switch h.ID {
		case "g/hit0001":
			return []string{"w1"}, false, 1
		case "g/hit0001/x1":
			return []string{"w2"}, false, 0
		case "g/hit0002":
			return []string{"w3", "w4"}, false, 0
		}
		return nil, true, 0
	}}
	s := &memStore{}
	p := New(Config{Market: m, GroupID: "g", ChunkHITs: 3, Lookahead: 1, Answers: s, ExpiredRetries: 1})
	enqueue(t, p, []hit.Question{
		{ID: "k", Kind: hit.FilterQ, Task: "k"},
		{ID: "k", Kind: hit.FilterQ, Task: "k"},
		{ID: "r", Kind: hit.FilterQ, Task: "r"},
	}, 1, 2)
	var got []string
	_, err := p.Drain(context.Background(), 0, func(q *hit.Question, as []hit.CachedAnswer, _ float64) error {
		if n := len(s.stores); len(as) > 0 && (n == 0 || s.stores[n-1] != q.ID+":"+workersOf(as)) {
			t.Errorf("%s resolved before its votes were stored (stores %v)", q.ID, s.stores)
		}
		got = append(got, q.ID+":"+workersOf(as))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"k:w3,w4", "r:", "k:w1,w2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("resolved %v, want %v", got, want)
	}
	if want := []string{"k:w3,w4", "k:w1,w2"}; !reflect.DeepEqual(s.stores, want) {
		t.Errorf("stored %v, want %v", s.stores, want)
	}
}

// TestRefusedRetryKeepsExpiryCarry: when an expiry retry is refused
// and re-minted at half size, the partial votes its lineage carried
// follow each question into its half-size HIT.
func TestRefusedRetryKeepsExpiryCarry(t *testing.T) {
	m := &scriptMarket{script: func(h *hit.HIT) ([]string, bool, int) {
		switch h.ID {
		case "g/hit0001":
			return []string{"w1"}, false, 1
		case "g/hit0001/x1":
			return nil, true, 0
		}
		return []string{"w2"}, false, 0
	}}
	p := New(Config{Market: m, GroupID: "g", ChunkHITs: 1, Lookahead: 1, RefusedRetries: 1, ExpiredRetries: 1})
	enqueue(t, p, filterQuestions(2), 2, 2)
	var r resolved
	if _, err := p.Drain(context.Background(), 0, r.resolve); err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{"q0": {"w1", "w2"}, "q1": {"w1", "w2"}}
	if r.calls != 2 || !reflect.DeepEqual(r.workers, want) {
		t.Errorf("resolved %d: %v, want 2: %v", r.calls, r.workers, want)
	}
}
