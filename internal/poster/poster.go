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
//
// A poster configured with an answer store is the one place a crowd
// operator reads and feeds it: Serve answers a freshly minted question
// from stored votes (the question is then never posted), and CollectOne
// stores each collected question's lineage-merged votes before
// resolving it. A poster consults the store for a question's content
// until that content is first posted from it; from then on, repeats of
// the content post too. So whether a question is served depends only
// on the store state when its content is first minted here — never on
// which chunk happened to be collected in between — and for a fixed
// store state a run is bit-identical at any batch or chunk size.
// Concurrent queries mutating a shared store are inherently racy
// across queries; whichever posts first pays, the other reuses.
package poster

import (
	"context"
	"fmt"

	"qurk/internal/crowd"
	"qurk/internal/hit"
)

// chunk is one sub-group of HITs in flight on the marketplace.
type chunk struct {
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

// Answers is the content-addressed answer store a poster serves minted
// questions from and feeds collected ones to; core.AnswerStore
// satisfies it.
type Answers interface {
	// Lookup returns servable stored votes for q's content.
	Lookup(q *hit.Question) ([]hit.CachedAnswer, bool)
	// Store records a collected question's votes.
	Store(q *hit.Question, answers []hit.CachedAnswer)
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
	// Answers, when non-nil, is the store Serve reads and CollectOne
	// feeds.
	Answers Answers
	// Served, when non-nil, observes every question Serve answers from
	// the store — with its content key and the virtual-clock time — so
	// the caller can count the reuse and journal the replay; an error
	// fails the Serve.
	Served func(q *hit.Question, key uint64, clock float64) error
}

// Poster slices one logical HIT group into fixed-size runs and posts
// each run as its own marketplace call, keeping at most Lookahead runs
// in flight. Collection is FIFO per poster.
type Poster struct {
	cfg      Config
	seq      *int
	queued   []*hit.HIT
	inflight []chunk
	// retries maps a re-minted HIT's ID to its refusal-lineage depth;
	// xretries likewise for expiry lineages, and lineageAsns carries the
	// completed-assignment count down an expiry lineage so exhaustion
	// can tell "partially answered" from "never answered".
	retries     map[string]int
	xretries    map[string]int
	lineageAsns map[string]int
	// carry stashes the partial answers of question occurrences whose
	// HIT is being re-posted after an expiry, keyed by the occurrence in
	// the re-posted HIT, until the retry resolves and the vote sets
	// merge.
	carry map[occurrence][]hit.CachedAnswer
	// posted holds the content keys (Question.CacheKey) this poster
	// minted and the answer store could not serve.
	posted map[uint64]struct{}
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

// occurrence is one question slot of one HIT: a join chunk can hold
// the same question ID in several HITs, and each occurrence resolves
// with its own votes.
type occurrence struct {
	hit string
	q   int
}

// GroupID reports the poster's HIT-group label.
func (p *Poster) GroupID() string { return p.cfg.GroupID }

// Enqueue queues HITs for chunked posting.
func (p *Poster) Enqueue(hs ...*hit.HIT) { p.queued = append(p.queued, hs...) }

// Serve answers a freshly minted question from the answer store when
// the poster has a store, q's content was never posted from this
// poster, and the store holds a servable entry: it reports the reuse
// to Config.Served, resolves q with the stored votes at clock, and
// returns true — the caller must not post q. On a miss the content
// counts as posted, so later repeats of it post as well.
func (p *Poster) Serve(q *hit.Question, clock float64, resolve Resolve) (bool, error) {
	if p.cfg.Answers == nil {
		return false, nil
	}
	key := q.CacheKey()
	if _, ok := p.posted[key]; ok {
		return false, nil
	}
	as, ok := p.cfg.Answers.Lookup(q)
	if !ok {
		if p.posted == nil {
			p.posted = map[uint64]struct{}{}
		}
		p.posted[key] = struct{}{}
		return false, nil
	}
	if p.cfg.Served != nil {
		if err := p.cfg.Served(q, key, clock); err != nil {
			return false, err
		}
	}
	return true, resolve(q, as, clock)
}

// hasChunk reports whether a full chunk is ready (or, when forcing at
// end of stream, any queued HITs remain).
func (p *Poster) hasChunk(force bool) bool {
	return len(p.queued) >= p.cfg.ChunkHITs || (force && len(p.queued) > 0)
}

// canPost reports whether the lookahead window has room.
func (p *Poster) canPost() bool { return len(p.inflight) < p.cfg.Lookahead }

// Backlogged means the poster cannot accept more work until a collect.
func (p *Poster) Backlogged() bool { return len(p.queued) >= p.cfg.ChunkHITs && !p.canPost() }

// Idle reports whether nothing is queued or in flight.
func (p *Poster) Idle() bool { return len(p.queued) == 0 && len(p.inflight) == 0 }

// postOne posts the next chunk at the given virtual-clock time.
func (p *Poster) postOne(clock float64) {
	if p.minClock > clock {
		clock = p.minClock
	}
	n := p.cfg.ChunkHITs
	if n > len(p.queued) {
		n = len(p.queued)
	}
	hs := p.queued[:n:n]
	p.queued = p.queued[n:]
	*p.seq++
	p.inflight = append(p.inflight, chunk{
		HITs:     hs,
		ch:       p.cfg.Market.RunAsync(&hit.Group{ID: p.cfg.GroupID, HITs: hs}),
		PostedAt: clock,
		Seq:      *p.seq,
	})
	if p.cfg.Acct != nil {
		p.cfg.Acct.Posted(hs, clock)
	}
}

// PostReady posts chunks at clock while the lookahead window has room
// and a chunk is ready (force: any queued HITs count as one at end of
// stream).
func (p *Poster) PostReady(force bool, clock float64) {
	for p.canPost() && p.hasChunk(force) {
		p.postOne(clock)
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

// collect awaits the oldest in-flight chunk.
func (p *Poster) collect(ctx context.Context) (chunk, *crowd.RunResult, error) {
	c := p.inflight[0]
	p.inflight = p.inflight[1:]
	res, err := crowd.Await(ctx, c.ch)
	return c, res, err
}

// retryRefused implements the operator-level retry policy for refused
// HITs (batch too effortful for the price — the paper's stalled
// group-size experiments, §4.2.2/§6): each refused HIT's questions are
// re-minted into HITs of half the batch size and queued for
// re-posting, down a lineage at most RefusedRetries deep. Re-minted
// HIT IDs derive from the refused HIT's ID — never from the shared
// builder — so the retry stream (and a simulator's per-HIT answer
// draws) is bit-identical at any chunk/lookahead setting.
//
// It returns the IDs of the HITs being retried, whose questions stay
// pending, and the exhausted questions' IDs, which resolve with zero
// votes. Single-question HITs (including SmartBatch grids and
// comparison groups) cannot shrink and exhaust immediately. observedAt
// is the virtual-clock time the refusal was learned; later chunks
// cannot be posted before it.
func (p *Poster) retryRefused(c chunk, incomplete []string, observedAt float64) (map[string]bool, []string, error) {
	if len(incomplete) == 0 {
		return nil, nil, nil
	}
	refused := make(map[string]bool, len(incomplete))
	for _, id := range incomplete {
		refused[id] = true
	}
	retrying := map[string]bool{}
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
			// Answers carried down an expiry lineage follow their
			// questions into the half-size HITs.
			for qi := start; qi < end; qi++ {
				if ca, ok := p.carry[occurrence{h.ID, qi}]; ok {
					delete(p.carry, occurrence{h.ID, qi})
					p.carry[occurrence{nh.ID, qi - start}] = ca
				}
			}
			p.Enqueue(nh)
		}
		retrying[h.ID] = true
	}
	if len(retrying) > 0 && observedAt > p.minClock {
		p.minClock = observedAt
	}
	return retrying, exhausted, nil
}

// retryExpired implements the assignment-timeout policy for HITs whose
// assignments were accepted but never submitted (a live marketplace
// surfaces this as assignment expiration): each such HIT is re-posted
// with the SAME questions but only the missing assignment count, down
// a lineage at most ExpiredRetries deep. Re-minted HIT IDs derive from
// the expired HIT's ID ("<id>/x<depth>") — never from the shared
// builder — so, exactly as with refusal retries, the retry stream is
// bit-identical at any chunk/lookahead setting.
//
// It maps each re-posted HIT's ID to its retry's ID (CollectOne carries
// the partial votes over) and returns the questions that exhausted the
// expiry budget WITHOUT ever receiving a completed assignment anywhere
// down their lineage — the only expiry outcome that loses a question.
// Exhausted questions that do hold partial votes simply resolve with
// them. observedAt is the virtual-clock time the expiry was detected
// (the assignment deadline); later chunks cannot be posted before it.
func (p *Poster) retryExpired(c chunk, res *crowd.RunResult, observedAt float64) (map[string]string, []string, error) {
	if len(res.Expired) == 0 {
		return nil, nil, nil
	}
	completed := map[string]int{}
	for i := range res.Assignments {
		completed[res.Assignments[i].HITID]++
	}
	retrying := map[string]string{}
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
		retrying[h.ID] = nh.ID
	}
	if len(retrying) > 0 && observedAt > p.minClock {
		p.minClock = observedAt
	}
	return retrying, incomplete, nil
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

// Resolve is the per-question callback of Serve and CollectOne: q's
// answers — stored, or collected and merged down its expiry lineage
// (possibly empty for refusal-exhausted questions) — and the
// virtual-clock time they became available.
type Resolve func(q *hit.Question, as []hit.CachedAnswer, done float64) error

// CollectOne awaits the oldest in-flight chunk, re-posts refused and
// expired HITs within their retry budgets, and resolves every question
// occurrence not deferred to a retry, in HIT-then-question order, with
// its own answers merged after those its expiry lineage carried — and,
// when the poster has an answer store, stores that non-empty vote set
// first. Exhausted questions (refusal budget spent, or expiry budget
// spent with a voteless lineage) are reported to the Acct as
// incomplete; refusal-exhausted occurrences still get a Resolve call
// with zero answers so the caller can close out their slots. It returns
// the chunk's completion time on the virtual clock.
func (p *Poster) CollectOne(ctx context.Context, resolve Resolve) (float64, error) {
	c, res, err := p.collect(ctx)
	if err != nil {
		return 0, err
	}
	done := c.PostedAt + res.MakespanHours
	refused, exhausted, err := p.retryRefused(c, res.Incomplete, done)
	if err != nil {
		return 0, err
	}
	expired, xincomplete, err := p.retryExpired(c, res, done)
	if err != nil {
		return 0, err
	}
	answers := groupAnswers(c.HITs, res.Assignments)
	k := 0
	for _, h := range c.HITs {
		if refused[h.ID] {
			k += len(h.Questions)
			continue
		}
		retry, deferred := expired[h.ID]
		for qi := range h.Questions {
			q := &h.Questions[qi]
			as := p.takeCarry(occurrence{h.ID, qi}, answers[k])
			k++
			if deferred {
				if len(as) > 0 {
					if p.carry == nil {
						p.carry = map[occurrence][]hit.CachedAnswer{}
					}
					p.carry[occurrence{retry, qi}] = as
				}
				continue
			}
			// Voteless questions (refused HITs) must not be stored: an
			// empty entry would resolve every later identical question to
			// nothing without ever reaching the crowd.
			if p.cfg.Answers != nil && len(as) > 0 {
				p.cfg.Answers.Store(q, as)
			}
			if err := resolve(q, as, done); err != nil {
				return 0, err
			}
		}
	}
	exhausted = append(exhausted, xincomplete...)
	if p.cfg.Acct != nil {
		p.cfg.Acct.Collected(res.TotalAssignments, expiredCount(res.Expired), done, exhausted)
	}
	return done, nil
}

// groupAnswers routes a chunk's completed assignments to their question
// occurrences, numbered in HIT-then-question order: answers[k] holds
// occurrence k's answers in assignment order. All answers share one
// backing array; each occurrence's slice is capped at its own answers.
func groupAnswers(hits []*hit.HIT, assignments []hit.Assignment) [][]hit.CachedAnswer {
	n := 0
	for _, h := range hits {
		n += len(h.Questions)
	}
	occ := make(map[*hit.Question]int, n)
	for _, h := range hits {
		for qi := range h.Questions {
			occ[&h.Questions[qi]] = len(occ)
		}
	}
	// off[k]..off[k+1] is occurrence k's span of the backing array.
	off := make([]int, n+1)
	hit.ForEachAnswer(hits, assignments, func(q *hit.Question, _ string, _ hit.Answer) {
		off[occ[q]+1]++
	})
	for k := 1; k <= n; k++ {
		off[k] += off[k-1]
	}
	flat := make([]hit.CachedAnswer, off[n])
	answers := make([][]hit.CachedAnswer, n)
	for k := range answers {
		answers[k] = flat[off[k]:off[k]:off[k+1]]
	}
	hit.ForEachAnswer(hits, assignments, func(q *hit.Question, worker string, ans hit.Answer) {
		k := occ[q]
		answers[k] = append(answers[k], hit.CachedAnswer{WorkerID: worker, Answer: ans})
	})
	return answers
}

// takeCarry merges an occurrence's stashed lineage answers (in lineage
// order) ahead of its newly arrived ones.
func (p *Poster) takeCarry(o occurrence, as []hit.CachedAnswer) []hit.CachedAnswer {
	ca := p.carry[o]
	if len(ca) == 0 {
		return as
	}
	delete(p.carry, o)
	return append(ca, as...)
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

// expiredCount totals a chunk's expired assignments for stats.
func expiredCount(expired map[string]int) int {
	n := 0
	for _, c := range expired {
		n += c
	}
	return n
}
