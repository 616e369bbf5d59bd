// Package poster implements the chunked HIT-posting pipeline shared by
// every streaming crowd operator — filters, generatives, joins, crowd
// sorts, feature extraction, and the adaptive filter's probe rounds all
// post marketplace work through one Poster per HIT group. The shape is:
//
//	mint questions (stable ordinal IDs) → fill fixed-size HITs → post
//	fixed-size HIT chunks asynchronously with bounded lookahead → as
//	chunks complete, re-post refused and expired HITs within their
//	retry budgets and resolve each question's votes.
//
// Determinism: the HIT a question lands in depends only on its input
// ordinal and the configured batch size, and the sub-group a HIT is
// posted in depends only on its index and the chunk size — never on
// arrival timing. All sub-groups of one operator share its plan-path
// group ID, so a simulator keyed on hash(seed, groupID, hitID) draws
// identical answer streams no matter how the posting is sliced.
// Re-minted retry HITs derive their IDs from the failed HIT's lineage,
// never from a shared builder, so the invariance survives refusals and
// expirations too.
package poster

import (
	"context"
	"fmt"

	"qurk/internal/crowd"
	"qurk/internal/hit"
)

// Chunk is one sub-group of HITs in flight on the marketplace.
type Chunk struct {
	// HITs are the chunk's posted HITs.
	HITs []*hit.HIT
	ch   <-chan crowd.Async
	// PostedAt is the virtual-clock hours when its inputs were ready.
	PostedAt float64
	// Seq is the global post order, for deterministic collection.
	Seq int
}

// Acct observes a poster's spending: Posted fires the moment a chunk
// goes to the marketplace (posted crowd work is spent whether or not
// anyone waits for it), Collected when its results arrive.
type Acct interface {
	// Posted accounts a chunk at post time.
	Posted(chunk []*hit.HIT, postedAt float64)
	// Collected folds in a completed chunk's assignment and expiry
	// counts, completion time, and exhausted (incomplete) question IDs.
	Collected(assignments, expired int, done float64, incomplete []string)
}

// Config parametrizes a Poster.
type Config struct {
	// Market is the marketplace chunks are posted to.
	Market crowd.Marketplace
	// GroupID labels every chunk (all sub-groups share it).
	GroupID string
	// ChunkHITs is how many HITs accumulate before a chunk posts.
	ChunkHITs int
	// Lookahead bounds posted-but-uncollected chunks in flight.
	Lookahead int
	// Seq, when non-nil, is a shared post-order counter so several
	// posters inside one operator collect in a deterministic global
	// order; nil gives the poster a private counter.
	Seq *int
	// Acct, when non-nil, observes posting and collection.
	Acct Acct
	// RefusedRetries bounds how deep a refused HIT's half-batch
	// re-posting lineage may go (0 disables).
	RefusedRetries int
	// ExpiredRetries bounds how deep an expired HIT's re-posting
	// lineage may go (0 disables).
	ExpiredRetries int
}

// Poster slices one logical HIT group into fixed-size runs and posts
// each run as its own marketplace call, keeping at most Lookahead runs
// in flight. Collection is FIFO per poster.
type Poster struct {
	cfg      Config
	seq      *int
	queued   []*hit.HIT
	inflight []Chunk
	// retries maps a re-minted HIT's ID to its refusal-lineage depth;
	// xretries likewise for expiry lineages, and lineageAsns carries the
	// completed-assignment count down an expiry lineage so exhaustion
	// can tell "partially answered" from "never answered".
	retries     map[string]int
	xretries    map[string]int
	lineageAsns map[string]int
	// carry stashes the partial answers of questions whose HIT is being
	// re-posted after an expiry, keyed by question ID, until the retry
	// resolves and the vote sets merge.
	carry map[string][]hit.CachedAnswer
	// minClock floors the PostedAt stamp of subsequent chunks: a chunk
	// holding retried HITs cannot be posted before the refusal (or
	// expiry) that spawned them was observed on the virtual clock.
	minClock float64
}

// New builds a poster; ChunkHITs and Lookahead must be positive.
func New(cfg Config) *Poster {
	if cfg.Seq == nil {
		cfg.Seq = new(int)
	}
	if cfg.RefusedRetries < 0 {
		cfg.RefusedRetries = 0
	}
	if cfg.ExpiredRetries < 0 {
		cfg.ExpiredRetries = 0
	}
	return &Poster{cfg: cfg, seq: cfg.Seq}
}

// GroupID reports the poster's HIT-group label.
func (p *Poster) GroupID() string { return p.cfg.GroupID }

// Enqueue queues HITs for chunked posting.
func (p *Poster) Enqueue(hs ...*hit.HIT) { p.queued = append(p.queued, hs...) }

// HasChunk reports whether a full chunk is ready (or, when forcing at
// end of stream, any queued HITs remain).
func (p *Poster) HasChunk(force bool) bool {
	return len(p.queued) >= p.cfg.ChunkHITs || (force && len(p.queued) > 0)
}

// CanPost reports whether the lookahead window has room.
func (p *Poster) CanPost() bool { return len(p.inflight) < p.cfg.Lookahead }

// Backlogged means the poster cannot accept more work until a collect.
func (p *Poster) Backlogged() bool { return len(p.queued) >= p.cfg.ChunkHITs && !p.CanPost() }

// Idle reports whether nothing is queued or in flight.
func (p *Poster) Idle() bool { return len(p.queued) == 0 && len(p.inflight) == 0 }

// PostOne posts the next chunk at the given virtual-clock time.
func (p *Poster) PostOne(clock float64) {
	if p.minClock > clock {
		clock = p.minClock
	}
	n := p.cfg.ChunkHITs
	if n > len(p.queued) {
		n = len(p.queued)
	}
	chunk := p.queued[:n:n]
	p.queued = p.queued[n:]
	*p.seq++
	p.inflight = append(p.inflight, Chunk{
		HITs:     chunk,
		ch:       p.cfg.Market.RunAsync(&hit.Group{ID: p.cfg.GroupID, HITs: chunk}),
		PostedAt: clock,
		Seq:      *p.seq,
	})
	if p.cfg.Acct != nil {
		p.cfg.Acct.Posted(chunk, clock)
	}
}

// PostReady posts chunks at clock while the lookahead window has room
// and a chunk is ready (force: any queued HITs count as one at end of
// stream).
func (p *Poster) PostReady(force bool, clock float64) {
	for p.CanPost() && p.HasChunk(force) {
		p.PostOne(clock)
	}
}

// OldestSeq returns the post sequence of the oldest in-flight chunk,
// or -1 when nothing is in flight.
func (p *Poster) OldestSeq() int {
	if len(p.inflight) == 0 {
		return -1
	}
	return p.inflight[0].Seq
}

// Collect awaits the oldest in-flight chunk.
func (p *Poster) Collect(ctx context.Context) (Chunk, *crowd.RunResult, error) {
	c := p.inflight[0]
	p.inflight = p.inflight[1:]
	res, err := crowd.Await(ctx, c.ch)
	if err != nil {
		return c, nil, err
	}
	return c, res, nil
}

// RetryRefused implements the operator-level retry policy for refused
// HITs (batch too effortful for the price — the paper's stalled
// group-size experiments, §4.2.2/§6): each refused HIT's questions are
// re-minted into HITs of half the batch size and queued for
// re-posting, down a lineage at most RefusedRetries deep. Re-minted
// HIT IDs derive from the refused HIT's ID — never from the shared
// builder — so the retry stream (and a simulator's per-HIT answer
// draws) is bit-identical at any chunk/lookahead setting.
//
// It returns how many occurrences of each question ID are now being
// retried — the caller must skip resolving exactly that many
// occurrences in this chunk (join pair keys can repeat across HITs) —
// and the exhausted questions' IDs, which resolve with zero votes.
// Single-question HITs (including SmartBatch grids and comparison
// groups) cannot shrink and exhaust immediately. observedAt is the
// virtual-clock time the refusal was learned; later chunks cannot be
// posted before it.
func (p *Poster) RetryRefused(c Chunk, incomplete []string, observedAt float64) (map[string]int, []string, error) {
	if len(incomplete) == 0 {
		return nil, nil, nil
	}
	refused := make(map[string]bool, len(incomplete))
	for _, id := range incomplete {
		refused[id] = true
	}
	var retrying map[string]int
	var exhausted []string
	for _, h := range c.HITs {
		if !refused[h.ID] {
			continue
		}
		depth := p.retries[h.ID]
		if p.cfg.RefusedRetries <= 0 || len(h.Questions) <= 1 || depth >= p.cfg.RefusedRetries {
			for qi := range h.Questions {
				exhausted = append(exhausted, h.Questions[qi].ID)
			}
			continue
		}
		n := len(h.Questions) / 2
		for start, child := 0, 0; start < len(h.Questions); start, child = start+n, child+1 {
			end := min(start+n, len(h.Questions))
			nh := &hit.HIT{
				ID:          fmt.Sprintf("%s/r%d", h.ID, child),
				GroupID:     h.GroupID,
				Kind:        h.Kind,
				Assignments: h.Assignments,
				RewardCents: h.RewardCents,
				Questions:   append([]hit.Question(nil), h.Questions[start:end]...),
			}
			if err := nh.Validate(); err != nil {
				return nil, nil, err
			}
			if p.retries == nil {
				p.retries = map[string]int{}
			}
			p.retries[nh.ID] = depth + 1
			p.Enqueue(nh)
		}
		if retrying == nil {
			retrying = map[string]int{}
		}
		for qi := range h.Questions {
			retrying[h.Questions[qi].ID]++
		}
	}
	if retrying != nil && observedAt > p.minClock {
		p.minClock = observedAt
	}
	return retrying, exhausted, nil
}

// RetryExpired implements the assignment-timeout policy for HITs whose
// assignments were accepted but never submitted (a live marketplace
// surfaces this as assignment expiration): each such HIT is re-posted
// with the SAME questions but only the missing assignment count, down
// a lineage at most ExpiredRetries deep. Re-minted HIT IDs derive from
// the expired HIT's ID ("<id>/x<depth>") — never from the shared
// builder — so, exactly as with refusal retries, the retry stream is
// bit-identical at any chunk/lookahead setting.
//
// It returns how many occurrences of each question ID are deferred to
// the retry (the caller stashes their partial votes via StashCarry and
// skips resolving that many occurrences this chunk) plus the questions
// that exhausted the expiry budget WITHOUT ever receiving a completed
// assignment anywhere down their lineage — the only expiry outcome
// that loses a question. Exhausted questions that do hold partial
// votes simply resolve with them. observedAt is the virtual-clock time
// the expiry was detected (the assignment deadline); later chunks
// cannot be posted before it.
func (p *Poster) RetryExpired(c Chunk, res *crowd.RunResult, observedAt float64) (map[string]int, []string, error) {
	if len(res.Expired) == 0 {
		return nil, nil, nil
	}
	completed := map[string]int{}
	for i := range res.Assignments {
		completed[res.Assignments[i].HITID]++
	}
	var retrying map[string]int
	var incomplete []string
	for _, h := range c.HITs {
		missing := res.Expired[h.ID]
		if missing <= 0 {
			continue
		}
		total := p.lineageAsns[h.ID] + completed[h.ID]
		delete(p.lineageAsns, h.ID)
		depth := p.xretries[h.ID]
		if p.cfg.ExpiredRetries <= 0 || depth >= p.cfg.ExpiredRetries {
			if total == 0 {
				for qi := range h.Questions {
					incomplete = append(incomplete, h.Questions[qi].ID)
				}
			}
			continue
		}
		nh := &hit.HIT{
			ID:          fmt.Sprintf("%s/x%d", h.ID, depth+1),
			GroupID:     h.GroupID,
			Kind:        h.Kind,
			Assignments: missing,
			RewardCents: h.RewardCents,
			Questions:   append([]hit.Question(nil), h.Questions...),
		}
		if err := nh.Validate(); err != nil {
			return nil, nil, err
		}
		if p.xretries == nil {
			p.xretries = map[string]int{}
		}
		if p.lineageAsns == nil {
			p.lineageAsns = map[string]int{}
		}
		p.xretries[nh.ID] = depth + 1
		p.lineageAsns[nh.ID] = total
		p.Enqueue(nh)
		if retrying == nil {
			retrying = map[string]int{}
		}
		for qi := range h.Questions {
			retrying[h.Questions[qi].ID]++
		}
	}
	if retrying != nil && observedAt > p.minClock {
		p.minClock = observedAt
	}
	return retrying, incomplete, nil
}

// MergeRetrying folds two per-question deferral counts (refusal and
// expiry retries) into one; a HIT is never both refused and expired, so
// the counts are disjoint by HIT but can share question IDs on the join
// path, where pair keys repeat across HITs.
func MergeRetrying(a, b map[string]int) map[string]int {
	if len(b) == 0 {
		return a
	}
	if a == nil {
		return b
	}
	for qid, n := range b {
		a[qid] += n
	}
	return a
}

// StashCarry saves a question's partial answers until its expiry retry
// resolves; TakeCarry prepends them back. Both are no-ops for questions
// with nothing stashed.
func (p *Poster) StashCarry(qid string, as []hit.CachedAnswer) {
	if len(as) == 0 {
		return
	}
	if p.carry == nil {
		p.carry = map[string][]hit.CachedAnswer{}
	}
	p.carry[qid] = append(p.carry[qid], as...)
}

// TakeCarry merges a question's stashed partial answers (in lineage
// order) ahead of the newly arrived ones.
func (p *Poster) TakeCarry(qid string, as []hit.CachedAnswer) []hit.CachedAnswer {
	ca := p.carry[qid]
	if len(ca) == 0 {
		return as
	}
	delete(p.carry, qid)
	return append(append([]hit.CachedAnswer(nil), ca...), as...)
}

// FlushQuestions merges buffered questions into HITs of exactly `size`
// (plus one final partial when forcing at end of input) and queues
// them on the poster. Shared by every streaming crowd operator so the
// HIT sizes match what a single materialized Merge would produce.
func (p *Poster) FlushQuestions(b *hit.Builder, qbuf *[]hit.Question, size int, force bool) error {
	for len(*qbuf) >= size || (force && len(*qbuf) > 0) {
		n := size
		if n > len(*qbuf) {
			n = len(*qbuf)
		}
		hs, err := b.Merge((*qbuf)[:n:n], n)
		if err != nil {
			return err
		}
		p.Enqueue(hs...)
		*qbuf = append((*qbuf)[:0], (*qbuf)[n:]...)
	}
	return nil
}

// Resolve is CollectOne's per-question callback: q's carry-merged
// answers (possibly empty for refusal-exhausted questions) and the
// chunk's virtual-clock completion time.
type Resolve func(q *hit.Question, as []hit.CachedAnswer, done float64) error

// CollectOne awaits the oldest in-flight chunk, re-posts refused and
// expired HITs within their retry budgets, and resolves every question
// not deferred to a retry, in HIT-then-question order, with its
// carry-merged answers. Exhausted questions (refusal budget spent, or
// expiry budget spent with a voteless lineage) are reported to the
// Acct as incomplete; refusal-exhausted occurrences still get a
// Resolve call with zero answers so the caller can close out their
// slots. It returns the chunk's completion time on the virtual clock.
func (p *Poster) CollectOne(ctx context.Context, resolve Resolve) (float64, error) {
	c, res, err := p.Collect(ctx)
	if err != nil {
		return 0, err
	}
	done := c.PostedAt + res.MakespanHours
	retrying, exhausted, err := p.RetryRefused(c, res.Incomplete, done)
	if err != nil {
		return 0, err
	}
	xretrying, xincomplete, err := p.RetryExpired(c, res, done)
	if err != nil {
		return 0, err
	}
	retrying = MergeRetrying(retrying, xretrying)
	answers := map[string][]hit.CachedAnswer{}
	hit.ForEachAnswer(c.HITs, res.Assignments, func(q *hit.Question, worker string, ans hit.Answer) {
		answers[q.ID] = append(answers[q.ID], hit.CachedAnswer{WorkerID: worker, Answer: ans})
	})
	for _, h := range c.HITs {
		for qi := range h.Questions {
			q := &h.Questions[qi]
			if retrying[q.ID] > 0 {
				retrying[q.ID]--
				p.StashCarry(q.ID, answers[q.ID])
				delete(answers, q.ID)
				continue
			}
			merged := p.TakeCarry(q.ID, answers[q.ID])
			answers[q.ID] = merged
			if err := resolve(q, merged, done); err != nil {
				return 0, err
			}
		}
	}
	exhausted = append(exhausted, xincomplete...)
	if p.cfg.Acct != nil {
		p.cfg.Acct.Collected(res.TotalAssignments, ExpiredCount(res.Expired), done, exhausted)
	}
	return done, nil
}

// Drain drives a fully enqueued poster to completion: post chunks
// (bounded by the lookahead), collect them FIFO, re-post retries, and
// resolve every question via CollectOne. Used by phases that mint all
// their questions up front (crowd sorts, the feature-selection sample
// join, adaptive probe rounds) so that posting overlaps collection
// within the phase and the retry policies apply. clock is the
// virtual-clock time the phase's inputs became ready; the returned time
// is the last chunk's completion (or clock when nothing was posted).
func (p *Poster) Drain(ctx context.Context, clock float64, resolve Resolve) (float64, error) {
	last := clock
	for !p.Idle() {
		if err := ctx.Err(); err != nil {
			return last, err
		}
		p.PostReady(true, clock)
		done, err := p.CollectOne(ctx, resolve)
		if err != nil {
			return last, err
		}
		if done > last {
			last = done
		}
	}
	return last, nil
}

// ExpiredCount totals a chunk's expired assignments for stats.
func ExpiredCount(expired map[string]int) int {
	n := 0
	for _, c := range expired {
		n += c
	}
	return n
}
