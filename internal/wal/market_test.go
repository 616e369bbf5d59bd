package wal

// Market wrapper tests: the journal boundary around a marketplace —
// intent-before-post ordering, result replay without touching the
// inner backend, and checkpoint forwarding.

import (
	"errors"
	"fmt"
	"testing"

	"qurk/internal/crowd"
	"qurk/internal/hit"
)

// fakeInner is a deterministic inner marketplace that counts posts, so
// tests can assert a replay issued zero marketplace calls.
type fakeInner struct {
	posts int
	err   error
}

func (f *fakeInner) Run(g *hit.Group) (*crowd.RunResult, error) {
	f.posts++
	if f.err != nil {
		return nil, f.err
	}
	out := &crowd.RunResult{}
	for _, h := range g.HITs {
		for w := 0; w < h.Assignments; w++ {
			out.Assignments = append(out.Assignments, hit.Assignment{
				ID:       fmt.Sprintf("%s/a%d", h.ID, w),
				HITID:    h.ID,
				WorkerID: fmt.Sprintf("w%d", w),
				Answers:  []hit.Answer{{QuestionID: h.Questions[0].ID, Bool: true}},
			})
			out.TotalAssignments++
		}
	}
	return out, nil
}

func (f *fakeInner) RunAsync(g *hit.Group) <-chan crowd.Async {
	return crowd.GoRun(func() (*crowd.RunResult, error) { return f.Run(g) })
}

func sampleGroup(id string) *hit.Group {
	return &hit.Group{
		ID: id,
		HITs: []*hit.HIT{
			{
				ID:          id + "/h0",
				GroupID:     id,
				Kind:        hit.FilterQ,
				Questions:   []hit.Question{{ID: "0", Kind: hit.FilterQ, Task: "isFemale"}},
				Assignments: 2,
				RewardCents: 1,
			},
			{
				ID:          id + "/h1",
				GroupID:     id,
				Kind:        hit.FilterQ,
				Questions:   []hit.Question{{ID: "1", Kind: hit.FilterQ, Task: "isFemale"}},
				Assignments: 2,
				RewardCents: 1,
			},
		},
	}
}

func TestGroupKeyIsContentSensitive(t *testing.T) {
	g := sampleGroup("filter@q.g0")
	if GroupKey(g) != GroupKey(sampleGroup("filter@q.g0")) {
		t.Error("identical groups must share a key")
	}
	other := sampleGroup("filter@q.g0")
	other.HITs[1].Assignments = 5
	if GroupKey(g) == GroupKey(other) {
		t.Error("changing assignment count must change the key")
	}
	renamed := sampleGroup("filter@q.g1")
	if GroupKey(g) == GroupKey(renamed) {
		t.Error("different group IDs must not collide")
	}
}

func TestMarketRunJournalsAndReplays(t *testing.T) {
	path := tempJournal(t)
	j := mustCreate(t, path)
	inner := &fakeInner{}
	m := NewMarket(inner, j)
	if m.Unwrap() != inner {
		t.Fatal("Unwrap must return the inner marketplace")
	}
	g := sampleGroup("filter@q.g0")
	res, err := m.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if inner.posts != 1 || res.TotalAssignments != 4 {
		t.Fatalf("live run: posts=%d assignments=%d", inner.posts, res.TotalAssignments)
	}
	j.Close()

	// Reopen: the result replays from disk with zero marketplace calls.
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	m2 := NewMarket(inner, r)
	res2, err := m2.Run(sampleGroup("filter@q.g0"))
	if err != nil {
		t.Fatal(err)
	}
	if inner.posts != 1 {
		t.Errorf("replay touched the inner marketplace (%d posts)", inner.posts)
	}
	if res2.TotalAssignments != res.TotalAssignments || len(res2.Assignments) != len(res.Assignments) {
		t.Error("replayed result differs from the recorded one")
	}
	// The replayed group's intent+result pair is consumed; a second run
	// of the same group posts live again.
	if _, err := m2.Run(sampleGroup("filter@q.g0")); err != nil {
		t.Fatal(err)
	}
	if inner.posts != 2 {
		t.Error("second run of a consumed key must post live")
	}
}

func TestMarketIntentCommitsBeforePost(t *testing.T) {
	path := tempJournal(t)
	j := mustCreate(t, path)
	inner := &fakeInner{err: errors.New("marketplace down")}
	m := NewMarket(inner, j)
	if _, err := m.Run(sampleGroup("filter@q.g0")); err == nil {
		t.Fatal("inner failure must surface")
	}
	j.Close()

	// The intent survived the failed post: that is the crash window the
	// resume path re-posts.
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.PendingIntents(); got != 1 {
		t.Errorf("PendingIntents = %d, want 1 (intent without result)", got)
	}
	if got := r.ReplayableResults(); got != 0 {
		t.Errorf("ReplayableResults = %d, want 0", got)
	}
}

func TestMarketRunAsyncJournals(t *testing.T) {
	path := tempJournal(t)
	j := mustCreate(t, path)
	defer j.Close()
	inner := &fakeInner{}
	m := NewMarket(inner, j)
	a := <-m.RunAsync(sampleGroup("filter@q.g0"))
	if a.Err != nil {
		t.Fatal(a.Err)
	}
	if j.ReplayableResults() != 0 {
		// Results loaded from disk count as replayable; live appends do
		// not re-enter the replay queue.
		t.Error("live async run polluted the replay queue")
	}
	// Same journal instance: the async result was appended, so a fresh
	// Open sees it.
	j.Close()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.ReplayableResults() != 1 || r.PendingIntents() != 0 {
		t.Errorf("async run recorded %d results / %d pending, want 1 / 0",
			r.ReplayableResults(), r.PendingIntents())
	}
	a2 := <-NewMarket(inner, r).RunAsync(sampleGroup("filter@q.g0"))
	if a2.Err != nil || a2.Result.TotalAssignments != 4 {
		t.Errorf("async replay: %+v", a2)
	}
	if inner.posts != 1 {
		t.Errorf("async replay touched the inner marketplace (%d posts)", inner.posts)
	}
}

func TestMarketCheckpointForwards(t *testing.T) {
	path := tempJournal(t)
	j := mustCreate(t, path)
	m := NewMarket(&fakeInner{}, j)
	if err := m.Checkpoint("adaptive-round", "g/s0/r1", 0xbeef, 0); err != nil {
		t.Fatal(err)
	}
	j.Close()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Checkpoint("adaptive-round", "g/s0/r1", 0xbeef, 0); err != nil {
		t.Errorf("forwarded checkpoint did not verify: %v", err)
	}
}

// stuckInner is an inner marketplace whose posts complete only when the
// test sends their outcome on release.
type stuckInner struct{ release chan crowd.Async }

func (s stuckInner) Run(g *hit.Group) (*crowd.RunResult, error) {
	a := <-s.RunAsync(g)
	return a.Result, a.Err
}

func (s stuckInner) RunAsync(*hit.Group) <-chan crowd.Async { return s.release }

// TestMarketRunAsyncIntentDurableOnReturn: RunAsync returns with the
// intent already on disk while the inner post is still outstanding, so
// a crash at any point after the call leaves a pending intent for the
// resume path to re-post.
func TestMarketRunAsyncIntentDurableOnReturn(t *testing.T) {
	path := tempJournal(t)
	j := mustCreate(t, path)
	inner := stuckInner{release: make(chan crowd.Async, 1)}
	ch := NewMarket(inner, j).RunAsync(sampleGroup("filter@q.g0"))
	t.Cleanup(func() {
		inner.release <- crowd.Async{Err: errors.New("released")}
		<-ch
		j.Close()
	})
	select {
	case a := <-ch:
		t.Fatalf("RunAsync completed before its inner post: %+v", a)
	default:
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.PendingIntents(); got != 1 {
		t.Errorf("PendingIntents = %d, want 1", got)
	}
}
