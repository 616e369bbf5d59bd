// This file implements the streaming crowd filter operators plus the
// per-operator accounting glue around the shared chunked posting
// pipeline (internal/poster). The shape every streaming crowd operator
// follows:
//
//	pull input batch → mint questions (stable ordinal IDs) → fill
//	fixed-size HITs → post fixed-size HIT chunks asynchronously with
//	bounded lookahead → as chunks complete, combine votes and release
//	decided tuples downstream in input order.
//
// Determinism: the HIT a question lands in depends only on its input
// ordinal and the configured batch size, and the sub-group a HIT is
// posted in depends only on its index and Options.StreamChunkHITs —
// never on arrival timing (see internal/poster for the full contract).
// Combiners marked combine.PerQuestion are applied chunk-by-chunk
// (provably equivalent to one combine over all votes); any other
// combiner turns the operator into a pipeline breaker that buffers all
// votes — O(input) memory — and decides at end of stream.
package exec

import (
	"context"
	"fmt"

	"qurk/internal/combine"
	"qurk/internal/hit"
	"qurk/internal/obstats"
	"qurk/internal/poster"
	"qurk/internal/relation"
	"qurk/internal/stats"
	"qurk/internal/task"
)

// opAcct accumulates one operator's chunked spending into its
// pre-registered Stats slot and the engine ledger; it implements
// poster.Acct. HITs and dollars are accounted when a chunk is POSTED —
// posted crowd work is spent whether or not anyone waits for it, so a
// LIMIT short-circuit or a cancellation that abandons in-flight chunks
// still shows their cost in TotalHITs and the ledger. Assignments and
// makespan arrive at collection. Makespan is the operator's span on
// the virtual clock: last chunk completion minus first chunk post
// (equal to the single group makespan when the whole operator fit in
// one chunk — the materializing executor's number).
type opAcct struct {
	x     *executor
	label string
	// asn is this operator's workers-per-HIT (the physical plan may set
	// it per operator; the ledger prices dollars with it).
	asn        int
	slot       int
	started    bool
	firstPost  float64
	lastDone   float64
	hits, asns int
	expired    int
}

// Posted accounts a chunk the moment it goes to the marketplace. Each
// HIT is billed at its OWN assignment count — an expiry re-post
// requests only the missing assignments, so pricing it at the
// operator's full level would overstate the ledger.
func (a *opAcct) Posted(chunk []*hit.HIT, postedAt float64) {
	if !a.started || postedAt < a.firstPost {
		a.firstPost = postedAt
		a.started = true
	}
	a.hits += len(chunk)
	atLevel := 0
	for _, h := range chunk {
		if h.Assignments == a.asn {
			atLevel++
		} else {
			a.x.eng.Ledger.Add(a.label, 1, h.Assignments)
		}
	}
	if atLevel > 0 {
		a.x.eng.Ledger.Add(a.label, atLevel, a.asn)
	}
	a.x.stats.setSlot(a.slot, a.hits, a.asns, a.expired, a.span(), nil)
}

// Collected folds in a completed chunk's assignment and expiry counts
// and timing.
func (a *opAcct) Collected(assignments, expired int, done float64, incomplete []string) {
	if done > a.lastDone {
		a.lastDone = done
	}
	a.asns += assignments
	a.expired += expired
	a.x.stats.setSlot(a.slot, a.hits, a.asns, a.expired, a.span(), incomplete)
}

// span is the operator's virtual-clock busy span so far; zero until a
// chunk completes (posted-but-uncollected chunks have spent HITs but
// no observable makespan yet).
func (a *opAcct) span() float64 {
	if s := a.lastDone - a.firstPost; s > 0 {
		return s
	}
	return 0
}

// qRef names one question and the input slot it decides, kept in
// question order so end-of-stream combiners resolve deterministically.
type qRef struct {
	slot int
	qid  string
}

// --- Crowd filter (single task and OR of tasks) ---

// fslot tracks one input tuple through the filter: how many unique
// branches have yet to rule on it, whether any branch accepted it, and
// when its decision completed on the virtual clock.
type fslot struct {
	tuple    relation.Tuple
	pending  int
	accepted bool
	ready    float64
}

// filterBranch is one disjunct: its own HIT group, builder, combiner,
// and posting pipeline over the shared input ordinals.
type filterBranch struct {
	idx     int
	ft      *task.Filter
	negate  bool
	groupID string
	comb    combine.Combiner
	perQ    bool
	builder *hit.Builder
	post    *poster.Poster
	acct    *opAcct
	dupOf   int // branch index this one mirrors; == idx when unique
	qbuf    []hit.Question
	// eosVotes/eosSlots buffer votes for non-PerQuestion combiners,
	// which need the full vote matrix in one Combine call.
	eosVotes []combine.Vote
	eosSlots []qRef
	// agreeSum/agreeN accumulate per-question worker-agreement shares
	// (stats.MajorityShare) for the observed-statistics feedback.
	agreeSum float64
	agreeN   int
}

func (br *filterBranch) accepts(d combine.Decision, ok bool) bool {
	if !ok {
		return false
	}
	if br.negate {
		return d.Value == "no"
	}
	return d.Value == "yes"
}

// crowdFilterOp streams a crowd filter: a plain CrowdFilter is the
// one-branch case, CrowdFilterOr the general case with branch HIT
// groups posted in parallel (paper §2.5: disjuncts run concurrently).
// A tuple is released downstream once every unique branch has ruled,
// accepted if any branch (after per-branch negation) said yes.
// Duplicate disjuncts (same task, same negation) post once and share
// the verdict.
type crowdFilterOp struct {
	x       *executor
	child   Operator
	label   string
	branch  []*filterBranch
	uniq    []*filterBranch // branches that actually post (dupOf == idx)
	hitSize int
	seq     int
	slots   []*fslot
	slotOf  map[string]int // question ID → slot index (all branches)
	emit    emitQueue
	emitAt  int
	clock   float64 // max input Ready ingested so far
	eos     bool
	closed  bool
	done    bool
	final   bool
	// decidedN/acceptedN count released verdicts for the
	// observed-selectivity feedback; observed latches the one-time feed.
	decidedN  int
	acceptedN int
	observed  bool
}

func (f *crowdFilterOp) Schema() *relation.Schema { return f.child.Schema() }
func (f *crowdFilterOp) Name() string             { return f.child.Name() }
func (f *crowdFilterOp) OpLabel() string          { return f.label }
func (f *crowdFilterOp) Inputs() []Operator       { return []Operator{f.child} }

// Breakers implements BreakerDetail when a stateful combiner forces
// buffering; Describe skips the operator otherwise.
func (f *crowdFilterOp) Breakers() []BreakerInfo {
	for _, br := range f.uniq {
		if !br.perQ {
			return []BreakerInfo{{
				Kind: BreakerVoteBuffer,
				Note: fmt.Sprintf("buffers all votes for %s", br.comb.Name()),
			}}
		}
	}
	return nil
}

// BreakerNote implements Breaker.
func (f *crowdFilterOp) BreakerNote() string { return breakerNote(f.Breakers()) }

// finalReady includes rejected tuples' decision times (emitQueue
// tracks them via advance) and anything the child decided upstream.
func (f *crowdFilterOp) finalReady() float64 {
	r := f.emit.ready
	if cr := readyOf(f.child); cr > r {
		r = cr
	}
	return r
}

func (f *crowdFilterOp) Close() {
	if !f.closed {
		f.closed = true
		f.child.Close()
	}
}

func (f *crowdFilterOp) Next(ctx context.Context) (*Batch, error) {
	for {
		// Release the longest decided prefix in input order.
		for f.emitAt < len(f.slots) && f.slots[f.emitAt].pending == 0 {
			s := f.slots[f.emitAt]
			f.decidedN++
			if s.accepted {
				f.acceptedN++
				f.emit.push(s.tuple, s.ready)
			} else {
				f.emit.advance(s.ready)
			}
			f.slots[f.emitAt] = nil
			f.emitAt++
		}
		if !f.emit.empty() {
			return f.emit.pop(f.Schema()), nil
		}
		if f.done {
			if !f.observed {
				f.observed = true
				f.observeRun()
			}
			return nil, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := f.step(ctx); err != nil {
			return nil, err
		}
	}
}

// step advances the pipeline by one action: post anything postable,
// then either ingest another input batch or collect the oldest
// in-flight chunk. Every choice is driven by counts, never timing.
func (f *crowdFilterOp) step(ctx context.Context) error {
	uniq := f.uniq
	backlogged := false
	for _, br := range uniq {
		br.post.PostReady(f.eos, f.clock)
		if br.post.Backlogged() {
			backlogged = true
		}
	}
	// Ingest unless a branch needs a collect to drain its backlog.
	if !f.eos && !f.closed && !backlogged {
		in, err := f.child.Next(ctx)
		if err != nil {
			return err
		}
		if in == nil {
			f.eos = true
			for _, br := range uniq {
				if err := br.flushHIT(f.hitSize, true); err != nil {
					return err
				}
			}
			return nil
		}
		if in.Ready > f.clock {
			f.clock = in.Ready
		}
		return f.ingest(in)
	}
	// Collect the globally oldest in-flight chunk.
	var oldest *filterBranch
	for _, br := range uniq {
		if s := br.post.OldestSeq(); s >= 0 && (oldest == nil || s < oldest.post.OldestSeq()) {
			oldest = br
		}
	}
	if oldest != nil {
		return f.collectChunk(ctx, oldest)
	}
	// Nothing in flight, nothing left to ingest: finalize and finish.
	if (f.eos || f.closed) && !f.final {
		if err := f.finalize(); err != nil {
			return err
		}
	}
	f.done = true
	return nil
}

// flushHIT merges the branch's buffered questions into HITs once full
// (or unconditionally at end of input).
func (br *filterBranch) flushHIT(size int, force bool) error {
	return br.post.FlushQuestions(br.builder, &br.qbuf, size, force)
}

// ingest mints one question per tuple per unique branch, answering
// from the answer store where the branch's poster can.
func (f *crowdFilterOp) ingest(in *Batch) error {
	for _, t := range in.Rows() {
		slotIdx := len(f.slots)
		s := &fslot{tuple: t, ready: in.Ready}
		f.slots = append(f.slots, s)
		for _, br := range f.branch {
			if br.dupOf != br.idx {
				continue
			}
			s.pending++
			q := hit.Question{
				ID:    hit.MintID(br.groupID, "t", slotIdx, 5),
				Kind:  hit.FilterQ,
				Task:  br.ft.Name,
				Tuple: t,
			}
			served, err := br.post.Serve(&q, in.Ready, func(q *hit.Question, as []hit.CachedAnswer, done float64) error {
				return f.applyAnswers(br, slotIdx, q.ID, as, done)
			})
			if err != nil {
				return err
			}
			if served {
				continue
			}
			f.slotOf[q.ID] = slotIdx
			br.qbuf = append(br.qbuf, q)
			if err := br.flushHIT(f.hitSize, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// boolVotes turns one yes/no question's worker answers into votes.
func boolVotes(qid string, as []hit.CachedAnswer) []combine.Vote {
	votes := make([]combine.Vote, 0, len(as))
	for _, ca := range as {
		votes = append(votes, combine.Vote{Question: qid, Worker: ca.WorkerID, Value: combine.BoolVote(ca.Answer.Bool)})
	}
	return votes
}

// applyAnswers resolves one branch question's verdict from its
// answers, stored or collected (PerQuestion path), or defers it to
// finalize (EOS path). Combine errors fail the query, as they did under
// the materializing executor — an empty decision map would silently
// reject everything.
func (f *crowdFilterOp) applyAnswers(br *filterBranch, slot int, qid string, as []hit.CachedAnswer, done float64) error {
	votes := boolVotes(qid, as)
	if len(votes) > 0 {
		vals := make([]string, len(votes))
		for i, v := range votes {
			vals[i] = v.Value
		}
		if share, _, ok := stats.MajorityShare(vals); ok {
			br.agreeSum += share
			br.agreeN++
		}
	}
	if !br.perQ {
		br.eosVotes = append(br.eosVotes, votes...)
		br.eosSlots = append(br.eosSlots, qRef{slot: slot, qid: qid})
		return nil
	}
	s := f.slots[slot]
	if len(votes) > 0 {
		decisions, err := br.comb.Combine(votes)
		if err != nil {
			return err
		}
		d, ok := decisions[qid]
		if br.accepts(d, ok) {
			s.accepted = true
		}
	}
	s.pending--
	if done > s.ready {
		s.ready = done
	}
	return nil
}

// collectChunk awaits a branch's oldest chunk, re-posts refused and
// expired HITs' questions within their retry budgets, and applies the
// resolved votes.
func (f *crowdFilterOp) collectChunk(ctx context.Context, br *filterBranch) error {
	_, err := br.post.CollectOne(ctx, func(q *hit.Question, as []hit.CachedAnswer, done float64) error {
		return f.applyAnswers(br, f.slotOf[q.ID], q.ID, as, done)
	})
	return err
}

// finalize resolves EOS-mode branches with one combine over all their
// votes, then finishes any slots they still owe.
func (f *crowdFilterOp) finalize() error {
	f.final = true
	doneAt := f.clockDone()
	for _, br := range f.branch {
		if br.dupOf != br.idx || br.perQ {
			continue
		}
		decisions, err := br.comb.Combine(br.eosVotes)
		if err != nil {
			return err
		}
		for _, qv := range br.eosSlots {
			s := f.slots[qv.slot]
			d, ok := decisions[qv.qid]
			if br.accepts(d, ok) {
				s.accepted = true
			}
			s.pending--
			if doneAt > s.ready {
				s.ready = doneAt
			}
		}
	}
	return nil
}

// observeRun feeds the filter's measured statistics to the run's Stats
// and the engine's history store, once, after the last verdict is
// released: the observed selectivity (single-branch filters only — an
// OR's combined verdict cannot be attributed to one task), and each
// unique branch's worker agreement and crowd latency.
func (f *crowdFilterOp) observeRun() {
	if len(f.uniq) == 1 && f.decidedN > 0 {
		f.x.observe(f.label, f.uniq[0].ft.Name, obstats.KindSelectivity,
			float64(f.acceptedN)/float64(f.decidedN), float64(f.decidedN))
	}
	for _, br := range f.uniq {
		if br.agreeN > 0 {
			f.x.observe(f.label, br.ft.Name, obstats.KindAgreement,
				br.agreeSum/float64(br.agreeN), float64(br.agreeN))
		}
		if span := br.acct.span(); span > 0 && br.acct.hits > 0 {
			f.x.observe(f.label, br.ft.Name, obstats.KindLatencyHours, span, float64(br.acct.hits))
		}
	}
}

// clockDone is the operator's last chunk completion time: EOS-mode
// decisions become available only once every chunk is collected.
func (f *crowdFilterOp) clockDone() float64 {
	t := f.clock
	for _, br := range f.branch {
		if br.dupOf == br.idx && br.acct.lastDone > t {
			t = br.acct.lastDone
		}
	}
	return t
}
