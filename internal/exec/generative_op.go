// Streaming generative operators: Generate (SELECT task(col).field —
// paper §2.2) and UnaryPossibly (pre-join POSSIBLY extraction +
// machine predicate — §2.4). Both stream their input through the
// chunked posting pipeline in stream.go; they differ only in what a
// decided tuple becomes — an extended tuple versus a filter verdict.
package exec

import (
	"context"

	"qurk/internal/combine"
	"qurk/internal/hit"
	"qurk/internal/poster"
	"qurk/internal/relation"
	"qurk/internal/task"
)

// gslot tracks one input tuple awaiting its generated field values.
type gslot struct {
	tuple  relation.Tuple
	values map[string]string
	ready  float64
	done   bool
}

// generativeOp streams a generative task over its input. With
// PerQuestion field combiners (the default MajorityVote) each tuple's
// values resolve as its HIT chunk completes; a stateful field combiner
// makes the operator a pipeline breaker that buffers all votes.
type generativeOp struct {
	x       *executor
	child   Operator
	label   string
	groupID string
	gt      *task.Generative
	fields  []string
	norm    map[string]task.Normalizer
	comb    map[string]combine.Combiner
	perQ    bool
	hitSize int

	// possibly-mode predicate: emit input tuples where
	// values[field] op value holds; nil schemaOut means possibly mode.
	possiblyField, possiblyOp, possiblyValue string
	schemaOut                                *relation.Schema

	builder *hit.Builder
	post    *poster.Poster
	acct    *opAcct
	seq     int
	qbuf    []hit.Question
	slots   []*gslot
	slotOf  map[string]int
	emit    emitQueue
	emitAt  int
	clock   float64
	eos     bool
	closed  bool
	done    bool
	final   bool
	// eosVotes buffers per-field votes (in question order) for
	// stateful combiners.
	eosVotes map[string][]combine.Vote
}

func (g *generativeOp) Schema() *relation.Schema {
	if g.schemaOut != nil {
		return g.schemaOut
	}
	return g.child.Schema()
}
func (g *generativeOp) Name() string       { return g.child.Name() }
func (g *generativeOp) OpLabel() string    { return g.label }
func (g *generativeOp) Inputs() []Operator { return []Operator{g.child} }

// Breakers implements BreakerDetail when any field combiner is
// stateful; BreakerNote is the free-text rendering.
func (g *generativeOp) Breakers() []BreakerInfo {
	if !g.perQ {
		return []BreakerInfo{{
			Kind: BreakerVoteBuffer,
			Note: "buffers all field votes for a stateful combiner",
		}}
	}
	return nil
}

// BreakerNote implements Breaker.
func (g *generativeOp) BreakerNote() string { return breakerNote(g.Breakers()) }

// finalReady includes tuples the POSSIBLY predicate rejected.
func (g *generativeOp) finalReady() float64 {
	r := g.emit.ready
	if cr := readyOf(g.child); cr > r {
		r = cr
	}
	return r
}

func (g *generativeOp) Close() {
	if !g.closed {
		g.closed = true
		g.child.Close()
	}
}

func (g *generativeOp) Next(ctx context.Context) (*Batch, error) {
	for {
		for g.emitAt < len(g.slots) && g.slots[g.emitAt].done {
			s := g.slots[g.emitAt]
			if err := g.release(s); err != nil {
				return nil, err
			}
			g.slots[g.emitAt] = nil
			g.emitAt++
		}
		if !g.emit.empty() {
			return g.emit.pop(g.Schema()), nil
		}
		if g.done {
			return nil, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := g.step(ctx); err != nil {
			return nil, err
		}
	}
}

// release turns one decided slot into downstream output.
func (g *generativeOp) release(s *gslot) error {
	if g.schemaOut == nil {
		// POSSIBLY: UNKNOWN (and absent) extractions never prune (§2.4).
		pass, err := comparePossibly(s.values[g.possiblyField], g.possiblyOp, g.possiblyValue)
		if err != nil {
			return err
		}
		if pass {
			g.emit.push(s.tuple, s.ready)
		} else {
			g.emit.advance(s.ready)
		}
		return nil
	}
	vals := make([]relation.Value, 0, g.schemaOut.Len())
	for c := 0; c < s.tuple.Len(); c++ {
		vals = append(vals, s.tuple.At(c))
	}
	for _, fname := range g.fields {
		v := s.values[fname]
		if v == "UNKNOWN" {
			vals = append(vals, relation.Unknown())
		} else {
			vals = append(vals, relation.Text(v))
		}
	}
	t, err := relation.NewTuple(g.schemaOut, vals...)
	if err != nil {
		return err
	}
	g.emit.push(t, s.ready)
	return nil
}

func (g *generativeOp) step(ctx context.Context) error {
	g.post.PostReady(g.eos, g.clock)
	if !g.eos && !g.closed && !g.post.Backlogged() {
		in, err := g.child.Next(ctx)
		if err != nil {
			return err
		}
		if in == nil {
			g.eos = true
			return g.flushHIT(true)
		}
		if in.Ready > g.clock {
			g.clock = in.Ready
		}
		for _, t := range in.Rows() {
			slotIdx := len(g.slots)
			g.slots = append(g.slots, &gslot{tuple: t, values: map[string]string{}, ready: in.Ready})
			q := hit.Question{
				ID:     hit.MintID(g.groupID, "t", slotIdx, 5),
				Kind:   hit.GenerativeQ,
				Task:   g.gt.Name,
				Tuple:  t,
				Fields: g.fields,
			}
			g.slotOf[q.ID] = slotIdx
			served, err := g.post.Serve(&q, in.Ready, g.resolveQ)
			if err != nil {
				return err
			}
			if served {
				continue
			}
			g.qbuf = append(g.qbuf, q)
			if err := g.flushHIT(false); err != nil {
				return err
			}
		}
		return nil
	}
	if g.post.OldestSeq() >= 0 {
		return g.collectChunk(ctx)
	}
	if (g.eos || g.closed) && !g.final {
		if err := g.finalize(); err != nil {
			return err
		}
	}
	g.done = true
	return nil
}

func (g *generativeOp) flushHIT(force bool) error {
	return g.post.FlushQuestions(g.builder, &g.qbuf, g.hitSize, force)
}

// collectChunk awaits the oldest chunk and resolves each of its
// questions; the poster re-posts refused and expired HITs within their
// retry budgets and keeps those questions pending for a later chunk,
// merging an expired HIT's partial answers (un-normalized, in lineage
// order) when its retry resolves.
func (g *generativeOp) collectChunk(ctx context.Context) error {
	_, err := g.post.CollectOne(ctx, g.resolveQ)
	return err
}

// resolveQ folds one resolved question's answers into its slot
// (PerQuestion path) or the EOS vote buffers. Both the poster's collect
// callback and a question served from the answer store at mint time
// resolve through here.
func (g *generativeOp) resolveQ(q *hit.Question, as []hit.CachedAnswer, done float64) error {
	s := g.slots[g.slotOf[q.ID]]
	if !g.perQ {
		for _, fname := range g.fields {
			g.eosVotes[fname] = append(g.eosVotes[fname], g.fieldVotes(q.ID, fname, as)...)
		}
		return nil
	}
	for _, fname := range g.fields {
		vs := g.fieldVotes(q.ID, fname, as)
		val := ""
		if len(vs) > 0 {
			decisions, cerr := g.comb[fname].Combine(vs)
			if cerr != nil {
				return cerr
			}
			val = decisions[q.ID].Value
		}
		s.values[fname] = val
	}
	s.done = true
	if done > s.ready {
		s.ready = done
	}
	return nil
}

// fieldVotes normalizes one field's answers out of a question's raw
// assignment run.
func (g *generativeOp) fieldVotes(qid, fname string, as []hit.CachedAnswer) []combine.Vote {
	var vs []combine.Vote
	for _, ca := range as {
		raw, ok := ca.Answer.Fields[fname]
		if !ok {
			continue
		}
		vs = append(vs, combine.Vote{Question: qid, Worker: ca.WorkerID, Value: g.norm[fname](raw)})
	}
	return vs
}

// finalize resolves every slot with one combine per field over all
// buffered votes (stateful-combiner path). Combine errors fail the
// query, matching the materializing executor.
func (g *generativeOp) finalize() error {
	g.final = true
	if g.perQ {
		return nil
	}
	doneAt := g.clock
	if g.acct.lastDone > doneAt {
		doneAt = g.acct.lastDone
	}
	decisions := map[string]map[string]combine.Decision{}
	for _, fname := range g.fields {
		d, err := g.comb[fname].Combine(g.eosVotes[fname])
		if err != nil {
			return err
		}
		decisions[fname] = d
	}
	for i, s := range g.slots {
		if s == nil || s.done {
			continue
		}
		qid := hit.MintID(g.groupID, "t", i, 5)
		for _, fname := range g.fields {
			s.values[fname] = decisions[fname][qid].Value
		}
		s.done = true
		if doneAt > s.ready {
			s.ready = doneAt
		}
	}
	return nil
}
