package wal

import (
	"hash/fnv"
	"io"

	"qurk/internal/crowd"
	"qurk/internal/hit"
)

// Market wraps a crowd.Marketplace with the journal: every group run
// through it is preceded by a durable intent record and followed by a
// durable result record, and on resume a group whose result was
// already journaled replays from disk without touching the inner
// marketplace at all. Groups with an intent but no result — the crash
// window — are re-posted; both backends absorb the re-post
// idempotently (MTurk re-attaches to live HITs by UniqueRequestToken,
// the simulator re-derives the same deterministic answers).
//
// RunAsync holds the one journaling body and Run waits on it, so a group
// posted either way leaves the same records.
type Market struct {
	inner crowd.Marketplace
	j     *Journal
}

// NewMarket wraps inner so all traffic is journaled to j.
func NewMarket(inner crowd.Marketplace, j *Journal) *Market {
	return &Market{inner: inner, j: j}
}

// Unwrap returns the wrapped marketplace.
func (m *Market) Unwrap() crowd.Marketplace { return m.inner }

// GroupKey fingerprints a HIT group's full content — group ID, HIT
// IDs (including retry lineages), assignment counts, and every
// question's cache key — so a journaled result can only replay into
// the identical group on resume. Group IDs are unique per plan path
// and HIT IDs unique within a run, so keys never collide in practice;
// the journal still queues per key FIFO for safety.
func GroupKey(g *hit.Group) uint64 {
	h := fnv.New64a()
	io.WriteString(h, g.ID)
	var b [8]byte
	for _, ht := range g.HITs {
		b[0] = 0xfe
		h.Write(b[:1])
		io.WriteString(h, ht.ID)
		putUint64(h, uint64(ht.Assignments))
		putUint64(h, uint64(ht.RewardCents))
		for i := range ht.Questions {
			q := &ht.Questions[i]
			io.WriteString(h, q.ID)
			putUint64(h, q.CacheKey())
		}
	}
	return h.Sum64()
}

func putUint64(w io.Writer, v uint64) {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	w.Write(b[:])
}

func hitIDs(g *hit.Group) []string {
	ids := make([]string, len(g.HITs))
	for i, h := range g.HITs {
		ids[i] = h.ID
	}
	return ids
}

// RunAsync implements crowd.Marketplace and is the one journaling
// body: replay if journaled, otherwise intent → post → result. The
// intent record commits synchronously, before the inner post is even
// issued, so a crash between the two leaves a pending intent the resume
// path re-posts.
func (m *Market) RunAsync(g *hit.Group) <-chan crowd.Async {
	key := GroupKey(g)
	ch := make(chan crowd.Async, 1)
	if res := m.j.Replay(key); res != nil {
		ch <- crowd.Async{Result: res}
		return ch
	}
	if err := m.j.LogIntent(key, g.ID, hitIDs(g)); err != nil {
		ch <- crowd.Async{Err: err}
		return ch
	}
	inner := m.inner.RunAsync(g)
	go func() {
		a := <-inner
		if a.Err == nil {
			if err := m.j.LogResult(key, a.Result); err != nil {
				a = crowd.Async{Err: err}
			}
		}
		ch <- a
	}()
	return ch
}

// Run implements crowd.Marketplace by waiting on RunAsync.
func (m *Market) Run(g *hit.Group) (*crowd.RunResult, error) {
	a := <-m.RunAsync(g)
	return a.Result, a.Err
}

// Checkpoint forwards breaker checkpoints to the journal; operators
// that only see a crowd.Marketplace (the adaptive filter's vote loop)
// reach the journal through this optional method.
func (m *Market) Checkpoint(kind, label string, digest uint64, clock float64) error {
	return m.j.Checkpoint(kind, label, digest, clock)
}
